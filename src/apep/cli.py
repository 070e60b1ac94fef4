"""Command line interface and the JSON/CSV file formats.

Instance documents are versioned JSON with string names throughout; ids
exist only in memory.  Serialization is canonical: a parse/serialize round
trip of a canonical document is byte stable.

Exit codes: 0 satisfiable/valid, 1 unsatisfiable/invalid, 2 usage or input
errors, 3 capacity (search space over budget).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import random
import sys
from dataclasses import MISSING, dataclass, fields
from itertools import combinations, compress, islice, repeat
from json.encoder import encode_basestring_ascii
from operator import add
from pathlib import Path
from typing import Sequence

from .model import (
    _PAIR_KINDS,
    AuthorizationRelation,
    Constraint,
    GlobalCardConstraint,
    Instance,
    LocalCardConstraint,
    PairConstraint,
    SmerConstraint,
    TeamSodConstraint,
    default_resource_names,
    default_user_names,
    indices_of,
)
from .oracle import DEFAULT_BUDGET, CapacityError
from .reduce import TriviallyUnsat, apply_reduction_rule, eliminate_bod_u
from .solve import MODES, ROUTES, SolveReport, dispatch
from .verify import check_valid, instance_bound

INSTANCE_FORMAT = "apep-instance"
RELATION_FORMAT = "apep-relation"
FORMAT_VERSION = 1

# The kinds of a constraint record's fields: a resource name, a list of
# resource names, an integer, or a value the constraint class checks itself.
NAME, NAMES, INT, VALUE = "name", "names", "int", "value"
# Each record type: its constraint class and its fields in record order.  A
# field fills the class attribute of the same name.
RECORDS = {
    "pair": (PairConstraint, (("r", NAME), ("r2", NAME), ("op", VALUE), ("quant", VALUE))),
    "global_card": (GlobalCardConstraint, (("cmp", VALUE), ("t", INT))),
    "local_card": (LocalCardConstraint, (("scope", NAMES), ("cmp", VALUE), ("t", INT))),
    "smer": (SmerConstraint, (("scope", NAMES),)),
    "team_sod": (TeamSodConstraint, (("left", NAMES), ("right", NAMES))),
}
_TYPE_OF = {cls: ctype for ctype, (cls, _) in RECORDS.items()}
TOP_FIELDS = {"format", "version", "users", "resources", "base", "constraints", "metadata"}


class ParseError(ValueError):
    """A document does not match the expected schema."""


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


def _require(cond: bool, where: str, message: str) -> None:
    if not cond:
        raise ParseError(f"{where}: {message}")


def _name_list(value, where: str) -> list[str]:
    _require(isinstance(value, list), where, "expected a list of names")
    if not (all(map(isinstance, value, repeat(str))) and all(value)):
        i = next(i for i, name in enumerate(value) if not (isinstance(name, str) and name))
        raise ParseError(f"{where}[{i}]: expected a non-empty string")
    return value


def parse_instance(doc, strict: bool = False) -> tuple[Instance, dict]:
    """Instance plus passthrough extras (metadata and unknown top-level keys)."""
    _require(isinstance(doc, dict), "document", "expected a JSON object")
    _require(doc.get("format") == INSTANCE_FORMAT, "format",
             f"expected {INSTANCE_FORMAT!r}")
    _require(doc.get("version") == FORMAT_VERSION, "version",
             f"expected {FORMAT_VERSION}")
    unknown = sorted(set(doc) - TOP_FIELDS)
    if strict:
        _require(not unknown, "document", f"unknown fields {unknown}")

    users = _name_list(doc.get("users"), "users")
    resources = _name_list(doc.get("resources"), "resources")
    base = doc.get("base")
    _require(isinstance(base, dict), "base", "expected an object mapping users to resource lists")

    rindex = {name: i for i, name in enumerate(resources)}
    constraints: list[Constraint] = []
    records = doc.get("constraints", [])
    _require(isinstance(records, list), "constraints", "expected a list")
    for i, rec in enumerate(records):
        constraints.append(_parse_constraint(rec, rindex, f"constraints[{i}]", strict))

    metadata = doc.get("metadata", {})
    _require(isinstance(metadata, dict), "metadata", "expected an object")
    try:
        inst = Instance.create(users, resources, base, constraints)
    except ValueError as e:
        raise ParseError(str(e)) from None
    extras = {key: doc[key] for key in unknown}
    if metadata:
        extras["metadata"] = metadata
    return inst, extras


def _parse_constraint(rec, rindex: dict[str, int], where: str, strict: bool) -> Constraint:
    _require(isinstance(rec, dict), where, "expected an object")
    ctype = rec.get("type")
    _require(isinstance(ctype, str) and ctype in RECORDS, where, f"unknown type {ctype!r}")
    cls, schema = RECORDS[ctype]
    if strict:
        unknown = sorted(set(rec) - {"type"} - {name for name, _ in schema})
        _require(not unknown, where, f"unknown fields {unknown}")
    values = {}
    for name, kind in schema:
        value, at = rec.get(name), f"{where}.{name}"
        if kind == NAME:
            _require(isinstance(value, str) and value in rindex, at,
                     f"unknown resource {value!r}")
            value = rindex[value]
        elif kind == NAMES:
            for rname in _name_list(value, at):
                _require(rname in rindex, at, f"unknown resource {rname!r}")
            value = frozenset(rindex[rname] for rname in value)
        elif kind == INT:
            _require(isinstance(value, int) and not isinstance(value, bool), at,
                     "expected an integer")
        values[name] = value
    try:
        return cls(**values)
    except ValueError as e:
        raise ParseError(f"{where}: {e}") from None


def parse_relation(doc, inst: Instance) -> AuthorizationRelation:
    _require(isinstance(doc, dict), "document", "expected a JSON object")
    _require(doc.get("format") == RELATION_FORMAT, "format",
             f"expected {RELATION_FORMAT!r}")
    _require(doc.get("version") == FORMAT_VERSION, "version",
             f"expected {FORMAT_VERSION}")
    relation = doc.get("relation")
    _require(isinstance(relation, dict), "relation", "expected an object")
    try:
        return inst.relation_from_names(relation)
    except ValueError as e:
        raise ParseError(f"relation: {e}") from None


# ---------------------------------------------------------------------------
# Serialization (canonical)
# ---------------------------------------------------------------------------


def _constraint_record(inst: Instance, c: Constraint) -> dict:
    ctype = _TYPE_OF[type(c)]
    rec = {"type": ctype}
    for name, kind in RECORDS[ctype][1]:
        value = getattr(c, name)
        if kind == NAME:
            value = inst.resources[value]
        elif kind == NAMES:
            value = [inst.resources[r] for r in sorted(value)]
        rec[name] = value
    return rec


class _Encoded(tuple):
    """The JSON text, in pieces, of a value in an indented document."""


def _names_json(names: Sequence[str], depth: int = 1) -> _Encoded:
    """A list of names at ``depth``, one ``encode_basestring_ascii`` call per name."""
    if not names:
        return _Encoded(("[]",))
    pad = "\n" + "  " * depth
    items = f",{pad}  ".join(map(encode_basestring_ascii, names))
    return _Encoded((f"[{pad}  ", items, f"{pad}]"))


def _rows_json(inst: Instance, rows: Sequence[int], keep_empty: bool) -> _Encoded:
    """An object from each user name to the resource names of the user's row.

    Users come in table order; without ``keep_empty``, users with an empty
    row are left out, as in ``Instance.relation_to_names``.  The text of a
    row is made once per distinct mask, at most 2^k of them.
    """
    names = inst.users
    if not keep_empty:
        names, rows = list(compress(names, rows)), list(filter(None, rows))
    if not names:
        return _Encoded(("{}",))
    row_json = {
        row: ": " + "".join(_names_json([inst.resources[r] for r in indices_of(row)], depth=2))
        for row in set(rows)
    }
    items = map(add, map(encode_basestring_ascii, names), map(row_json.__getitem__, rows))
    return _Encoded(("{\n    ", ",\n    ".join(items), "\n  }"))


def _dumps(doc: dict) -> str:
    """Byte for byte ``json.dumps(doc, indent=2)`` and a newline, by the C encoder.

    ``indent`` selects json's pure-Python encoder, which costs calls per item
    of the document.  So the n-sized values come in already encoded
    (``_names_json``, ``_rows_json``), and every other value is small.  The
    pieces are joined once, so the text is copied once.
    """
    parts = []
    for key, value in doc.items():
        parts += (",\n  ", encode_basestring_ascii(key), ": ")
        if isinstance(value, _Encoded):
            parts += value
        else:
            parts.append(json.dumps(value, indent=2).replace("\n", "\n  "))
    parts[0] = "{\n  "
    parts.append("\n}\n")
    return "".join(parts)


def serialize_instance(inst: Instance, extras: dict | None = None) -> str:
    doc: dict = {
        "format": INSTANCE_FORMAT,
        "version": FORMAT_VERSION,
        "users": _names_json(inst.users),
        "resources": _names_json(inst.resources),
        "base": _rows_json(inst, inst.base.rows, keep_empty=True),
        "constraints": [_constraint_record(inst, c) for c in inst.constraints],
    }
    extras = dict(extras or {})
    if "metadata" in extras:
        doc["metadata"] = extras.pop("metadata")
    for key in sorted(extras):
        doc[key] = extras[key]
    return _dumps(doc)


def serialize_relation(inst: Instance, A: AuthorizationRelation) -> str:
    return _dumps({
        "format": RELATION_FORMAT,
        "version": FORMAT_VERSION,
        "relation": _rows_json(inst, A.rows, keep_empty=False),
    })


def _read_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as e:
            raise ParseError(f"{path}: invalid JSON: {e}") from None


def _parse_file(path: str, parse, *args):
    """``parse`` applied to the JSON document at ``path``; its errors name the file."""
    doc = _read_json(path)
    try:
        return parse(doc, *args)
    except ParseError as e:
        raise ParseError(f"{path}: {e}") from None


def load_instance(path: str, strict: bool = False) -> Instance:
    return _parse_file(path, parse_instance, strict)[0]


def load_relation(path: str, inst: Instance) -> AuthorizationRelation:
    return _parse_file(path, parse_relation, inst)


# ---------------------------------------------------------------------------
# Random instance generation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GenParams:
    """Knobs for seeded random instances; each field is a flag of ``apep gen``.

    ``n`` users and ``k`` resources, each base cell set with probability
    ``density``.  The counts are per constraint species; the pair species
    (``bodu`` to ``implies``) are those of ``model._PAIR_KINDS``, drawn in
    its order.  Pair constraint counts draw distinct resource pairs without
    replacement across all pair species, so requesting more than k*(k-1)/2
    in total is an error.  Thresholds are drawn from [t_min, t_max].
    """

    n: int
    k: int
    density: float = 0.5
    seed: int = 0
    bodu: int = 0
    bode: int = 0
    sodu: int = 0
    sode: int = 0
    implies: int = 0
    gcard: int = 0
    lcard: int = 0
    smer: int = 0
    teamsod: int = 0
    t_min: int = 1
    t_max: int = 3


def generate(params: GenParams) -> Instance:
    """Deterministic random instance for the given parameters."""
    if params.n < 1 or params.k < 1:
        raise ValueError("need n >= 1 and k >= 1")
    if not 0.0 <= params.density <= 1.0:
        raise ValueError("density must be within [0, 1]")
    if not 1 <= params.t_min <= params.t_max:
        raise ValueError("need 1 <= t_min <= t_max")

    rng = random.Random(params.seed)
    n, k = params.n, params.k
    rows = [0] * n
    for u in range(n):
        for r in range(k):
            if rng.random() < params.density:
                rows[u] |= 1 << r
    for r in range(k):
        attempts = 0
        while not any(rows[u] >> r & 1 for u in range(n)):
            attempts += 1
            if attempts > 100 or params.density == 0.0:
                rows[rng.randrange(n)] |= 1 << r
                break
            for u in range(n):
                if rng.random() < params.density:
                    rows[u] |= 1 << r

    pair_counts = [getattr(params, kind.replace("_", "")) for kind in _PAIR_KINDS.values()]
    total_pairs = sum(pair_counts)
    all_pairs = list(combinations(range(k), 2))
    if total_pairs > len(all_pairs):
        raise ValueError(
            f"requested {total_pairs} pair constraints but only "
            f"{len(all_pairs)} distinct resource pairs exist"
        )
    drawn = iter(rng.sample(all_pairs, total_pairs))
    constraints: list[Constraint] = []
    for (op, quant), count in zip(_PAIR_KINDS, pair_counts):
        for a, b in islice(drawn, count):
            if op == "implies" and rng.random() < 0.5:
                a, b = b, a
            constraints.append(PairConstraint(a, b, op, quant))

    gcard_pool = [
        (cmp, t)
        for cmp in ("<=", "=", ">=")
        for t in range(params.t_min, params.t_max + 1)
    ]
    if params.gcard > len(gcard_pool):
        raise ValueError(
            f"requested {params.gcard} global cardinality constraints but only "
            f"{len(gcard_pool)} distinct ones exist in the threshold range"
        )
    for cmp, t in rng.sample(gcard_pool, params.gcard):
        constraints.append(GlobalCardConstraint(cmp, t))

    def local_card():
        scope, cmp = rng.randrange(1, 1 << k), rng.choice(("<=", "=", ">="))
        t = rng.randint(params.t_min, params.t_max)
        return (scope, cmp, t), LocalCardConstraint(frozenset(indices_of(scope)), cmp, t)

    def smer():
        scope = rng.randrange(1, 1 << k)
        if scope.bit_count() >= 2:
            return scope, SmerConstraint(frozenset(indices_of(scope)))

    def team_sod():
        left = rng.randrange(1, 1 << k)
        comp = ((1 << k) - 1) ^ left
        if comp:
            right = sum(1 << r for r in indices_of(comp) if rng.random() < 0.5)
            right = right or 1 << rng.choice(indices_of(comp))
            team = TeamSodConstraint(frozenset(indices_of(left)), frozenset(indices_of(right)))
            return (min(left, right), max(left, right)), team

    constraints += _distinct(params.lcard, local_card, "local cardinality constraints")
    if params.smer and k < 2:
        raise ValueError("mutual exclusion scopes need at least 2 resources")
    constraints += _distinct(params.smer, smer, "mutual exclusion scopes")
    if params.teamsod and k < 2:
        raise ValueError("team separation needs at least 2 resources")
    constraints += _distinct(params.teamsod, team_sod, "team separations")

    return Instance.create(
        users=default_user_names(n),
        resources=default_resource_names(k),
        base=AuthorizationRelation(n, k, tuple(rows)),
        constraints=constraints,
    )


def _distinct(count: int, draw, what: str) -> list[Constraint]:
    """``count`` constraints of distinct keys, in at most 1000 calls of ``draw``.

    ``draw()`` gives a key and its constraint, or None for a rejected draw;
    the first draw of a key wins.
    """
    found: dict = {}
    for _ in range(1000):
        if len(found) == count:
            break
        drawn = draw()
        if drawn is not None:
            found.setdefault(*drawn)
    if len(found) < count:
        raise ValueError(f"could not draw enough distinct {what}")
    return list(found.values())


# ---------------------------------------------------------------------------
# Command implementations
# ---------------------------------------------------------------------------

_ROUTE_OF = {route.algo: route for route in ROUTES}
_ALGOS = ("auto", *_ROUTE_OF)


def _run_algo(inst: Instance, algo: str, mode: str, budget: int) -> SolveReport:
    if algo == "auto":
        return dispatch(inst, mode, budget)
    route = _ROUTE_OF[algo]
    if mode not in route.modes:
        raise ValueError(f"the {algo} route answers mode {'/'.join(route.modes)} only")
    return route(inst, mode, budget) if algo == "brute" else route(inst)


def _emit(text: str, out: str | None) -> None:
    """Write ``text`` to the file ``out``, or to stdout when there is none."""
    if out is not None:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _report_json(inst: Instance, report: SolveReport, mode: str) -> str:
    doc = {
        "algorithm": report.algorithm,
        "mode": mode,
        "decision": "sat" if report.satisfiable else "unsat",
        "max_size": report.max_size,
        "witness": None
        if report.witness is None
        else _rows_json(inst, report.witness.rows, keep_empty=False),
        "counters": report.counters,
        "wall_time_s": round(report.wall_time, 6),
    }
    return _dumps(doc)


def _cmd_solve(args) -> int:
    inst = load_instance(args.infile, strict=args.strict)
    report = _run_algo(inst, args.algo, args.mode, args.budget)
    if args.json:
        sys.stdout.write(_report_json(inst, report, args.mode))
    else:
        print(f"decision: {'sat' if report.satisfiable else 'unsat'}")
        print(f"algorithm: {report.algorithm}")
        if report.max_size is not None:
            print(f"max size: {report.max_size}")
        for key in ("patterns_explored", "users_removed", "dp_states", "steps"):
            if key in report.counters:
                print(f"{key}: {report.counters[key]}")
        print(f"wall time: {report.wall_time:.6f}s")
        if report.witness is not None and args.out is None:
            for uname, rnames in inst.relation_to_names(report.witness).items():
                print(f"  {uname}: {' '.join(rnames)}")
    if args.out is not None and report.witness is not None:
        Path(args.out).write_text(serialize_relation(inst, report.witness), encoding="utf-8")
    return 0 if report.satisfiable else 1


def _cmd_verify(args) -> int:
    inst = load_instance(args.infile, strict=args.strict)
    rel = load_relation(args.relation, inst)
    verdict = check_valid(inst, rel)
    print(f"authorized: {'yes' if verdict.authorized else 'no'}")
    print(f"complete: {'yes' if verdict.complete else 'no'}")
    print(f"eligible: {'yes' if verdict.eligible else 'no'}")
    if verdict.violated:
        print(f"violated constraints: {' '.join(str(i) for i in verdict.violated)}")
    print(f"valid: {'yes' if verdict.valid else 'no'}")
    return 0 if verdict.valid else 1


def _cmd_reduce(args) -> int:
    inst = load_instance(args.infile, strict=args.strict)
    if args.rule == "bodu":
        res = eliminate_bod_u(inst)
        if isinstance(res, TriviallyUnsat):
            print(f"trivially unsatisfiable: {res.reason}", file=sys.stderr)
            return 1
        reduced, trace = res
        merged = [names for names in trace.resource_classes if len(names) > 1]
        for names in merged:
            print(f"merged: {' '.join(names)}", file=sys.stderr)
        print(
            f"resources: {inst.k} -> {reduced.k}, constraints: "
            f"{len(inst.constraints)} -> {len(reduced.constraints)}",
            file=sys.stderr,
        )
    else:
        f = args.f if args.f is not None else instance_bound(inst)
        reduced, trace = apply_reduction_rule(inst, f)
        print(
            f"family bound f={f}, removed {len(trace.removed_users)} users",
            file=sys.stderr,
        )
    _emit(serialize_instance(reduced), args.out)
    return 0


def _cmd_gen(args) -> int:
    params = GenParams(**{f.name: getattr(args, f.name) for f in fields(GenParams)})
    _emit(serialize_instance(generate(params)), args.out)
    return 0


_BENCH_COLUMNS = (
    "instance",
    "algo",
    "mode",
    "decision",
    "m_sol",
    "wall_time_s",
    "patterns_explored",
    "users_removed",
    "dp_states",
)


def _cmd_bench(args) -> int:
    suite = _read_json(args.suite)
    _require(isinstance(suite, dict) and isinstance(suite.get("runs"), list),
             f"{args.suite}: suite", "expected an object with a 'runs' list")
    base_dir = Path(args.suite).resolve().parent

    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=_BENCH_COLUMNS)
    writer.writeheader()
    for i, run in enumerate(suite["runs"]):
        where = f"{args.suite}: runs[{i}]"
        _require(isinstance(run, dict), where, "expected an object")
        rel_path = run.get("instance")
        _require(isinstance(rel_path, str), f"{where}.instance", "expected a path")
        algo = run.get("algo", "auto")
        mode = run.get("mode", "decide")
        _require(algo in _ALGOS, f"{where}.algo", f"expected one of {_ALGOS}")
        _require(mode in MODES, f"{where}.mode", "expected decide or max")
        inst = load_instance(str(base_dir / rel_path))
        row = {"instance": rel_path, "algo": algo, "mode": mode}
        try:
            report = _run_algo(inst, algo, mode, DEFAULT_BUDGET)
        except CapacityError:
            row["decision"] = "capacity"
        except ValueError as e:
            raise ParseError(f"{where}: {e}") from None
        else:
            row["decision"] = "sat" if report.satisfiable else "unsat"
            if report.max_size is not None:
                row["m_sol"] = report.max_size
            row["wall_time_s"] = f"{report.wall_time:.6f}"
            for key in ("patterns_explored", "users_removed", "dp_states"):
                if key in report.counters:
                    row[key] = report.counters[key]
        writer.writerow(row)
    _emit(buf.getvalue(), args.out)
    return 0


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="apep",
        description="Decide and maximize constrained authorization policies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common_in(p) -> None:
        p.add_argument("--in", dest="infile", required=True, metavar="FILE",
                       help="instance JSON file")
        p.add_argument("--strict", action="store_true",
                       help="reject unknown fields in input documents")

    p_solve = sub.add_parser("solve", help="decide or maximize an instance")
    add_common_in(p_solve)
    p_solve.add_argument("--algo", choices=_ALGOS, default="auto")
    p_solve.add_argument("--mode", choices=MODES, default="decide")
    p_solve.add_argument("--out", metavar="FILE", help="write the witness relation here")
    p_solve.add_argument("--json", action="store_true", help="machine readable report")
    p_solve.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                         help="candidate budget for the brute algorithm, "
                              "also under auto when it falls back to it")
    p_solve.set_defaults(func=_cmd_solve)

    p_verify = sub.add_parser("verify", help="check a relation against an instance")
    add_common_in(p_verify)
    p_verify.add_argument("--relation", required=True, metavar="FILE",
                          help="relation JSON file")
    p_verify.set_defaults(func=_cmd_verify)

    p_reduce = sub.add_parser("reduce", help="apply a reduction and print the result")
    add_common_in(p_reduce)
    p_reduce.add_argument("--rule", choices=("bodu", "families"), required=True)
    p_reduce.add_argument("--f", type=int, default=None,
                          help="family size bound (default: the instance core bound)")
    p_reduce.add_argument("--out", metavar="FILE")
    p_reduce.set_defaults(func=_cmd_reduce)

    p_gen = sub.add_parser("gen", help="generate a seeded random instance",
                           description="Each flag sets the GenParams field of its name.")
    for f in fields(GenParams):
        p_gen.add_argument(f"--{f.name.replace('_', '-')}", dest=f.name,
                           type=float if f.type == "float" else int,
                           required=f.default is MISSING, default=f.default)
    p_gen.add_argument("--out", metavar="FILE")
    p_gen.set_defaults(func=_cmd_gen)

    p_bench = sub.add_parser("bench", help="run a suite of instances, emit CSV")
    p_bench.add_argument("--suite", required=True, metavar="FILE")
    p_bench.add_argument("--out", metavar="FILE")
    p_bench.set_defaults(func=_cmd_bench)

    return parser


def main(argv: "list[str] | None" = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.func(args)
    except CapacityError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except (ParseError, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
