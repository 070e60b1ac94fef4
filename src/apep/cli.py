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
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path

from .model import (
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

PAIR_FIELDS = {"type", "r", "r2", "op", "quant"}
CONSTRAINT_FIELDS = {
    "pair": PAIR_FIELDS,
    "global_card": {"type", "cmp", "t"},
    "local_card": {"type", "scope", "cmp", "t"},
    "smer": {"type", "scope"},
    "team_sod": {"type", "left", "right"},
}
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
    for i, name in enumerate(value):
        _require(isinstance(name, str) and name, f"{where}[{i}]", "expected a non-empty string")
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
    known_users = set(users)
    for uname, rnames in base.items():
        _require(uname in known_users, f"base[{uname!r}]", "unknown user")
        _name_list(rnames, f"base[{uname!r}]")

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


def _resource_refs(value, rindex: dict[str, int], where: str) -> frozenset[int]:
    names = _name_list(value, where)
    out = set()
    for name in names:
        _require(name in rindex, where, f"unknown resource {name!r}")
        out.add(rindex[name])
    return frozenset(out)


def _parse_constraint(rec, rindex: dict[str, int], where: str, strict: bool) -> Constraint:
    _require(isinstance(rec, dict), where, "expected an object")
    ctype = rec.get("type")
    _require(isinstance(ctype, str) and ctype in CONSTRAINT_FIELDS, where,
             f"unknown type {ctype!r}")
    if strict:
        unknown = sorted(set(rec) - CONSTRAINT_FIELDS[ctype])
        _require(not unknown, where, f"unknown fields {unknown}")
    try:
        if ctype == "pair":
            for field_name in ("r", "r2"):
                name = rec.get(field_name)
                _require(isinstance(name, str) and name in rindex, f"{where}.{field_name}",
                         f"unknown resource {name!r}")
            return PairConstraint(
                rindex[rec["r"]], rindex[rec["r2"]], rec.get("op"), rec.get("quant")
            )
        if ctype in ("global_card", "local_card"):
            t = rec.get("t")
            _require(isinstance(t, int) and not isinstance(t, bool), f"{where}.t",
                     "expected an integer")
            if ctype == "global_card":
                return GlobalCardConstraint(rec.get("cmp"), t)
            return LocalCardConstraint(
                _resource_refs(rec.get("scope"), rindex, f"{where}.scope"), rec.get("cmp"), t
            )
        if ctype == "smer":
            return SmerConstraint(_resource_refs(rec.get("scope"), rindex, f"{where}.scope"))
        return TeamSodConstraint(
            _resource_refs(rec.get("left"), rindex, f"{where}.left"),
            _resource_refs(rec.get("right"), rindex, f"{where}.right"),
        )
    except ValueError as e:
        if isinstance(e, ParseError):
            raise
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
    rname = inst.resources

    def names(scope) -> list[str]:
        return [rname[r] for r in sorted(scope)]

    if isinstance(c, PairConstraint):
        return {"type": "pair", "r": rname[c.r], "r2": rname[c.r2],
                "op": c.op, "quant": c.quant}
    if isinstance(c, GlobalCardConstraint):
        return {"type": "global_card", "cmp": c.cmp, "t": c.t}
    if isinstance(c, LocalCardConstraint):
        return {"type": "local_card", "scope": names(c.scope), "cmp": c.cmp, "t": c.t}
    if isinstance(c, SmerConstraint):
        return {"type": "smer", "scope": names(c.scope)}
    if isinstance(c, TeamSodConstraint):
        return {"type": "team_sod", "left": names(c.left), "right": names(c.right)}
    raise TypeError(f"not a constraint: {c!r}")


def serialize_instance(inst: Instance, extras: dict | None = None) -> str:
    doc: dict = {
        "format": INSTANCE_FORMAT,
        "version": FORMAT_VERSION,
        "users": list(inst.users),
        "resources": list(inst.resources),
        "base": {
            name: [inst.resources[r] for r in indices_of(inst.base.rows[u])]
            for u, name in enumerate(inst.users)
        },
        "constraints": [_constraint_record(inst, c) for c in inst.constraints],
    }
    extras = dict(extras or {})
    if "metadata" in extras:
        doc["metadata"] = extras.pop("metadata")
    for key in sorted(extras):
        doc[key] = extras[key]
    return json.dumps(doc, indent=2) + "\n"


def serialize_relation(inst: Instance, A: AuthorizationRelation) -> str:
    doc = {
        "format": RELATION_FORMAT,
        "version": FORMAT_VERSION,
        "relation": inst.relation_to_names(A),
    }
    return json.dumps(doc, indent=2) + "\n"


def load_instance(path: str, strict: bool = False) -> Instance:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as e:
            raise ParseError(f"{path}: invalid JSON: {e}") from None
    return parse_instance(doc, strict=strict)[0]


def load_relation(path: str, inst: Instance) -> AuthorizationRelation:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as e:
            raise ParseError(f"{path}: invalid JSON: {e}") from None
    return parse_relation(doc, inst)


# ---------------------------------------------------------------------------
# Random instance generation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GenParams:
    """Knobs for seeded random instances.

    Pair constraint counts draw distinct resource pairs without replacement
    across all pair species, so requesting more than k*(k-1)/2 in total is
    an error.  Thresholds are drawn from [t_min, t_max].
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

    total_pairs = params.bodu + params.bode + params.sodu + params.sode + params.implies
    all_pairs = list(combinations(range(k), 2))
    if total_pairs > len(all_pairs):
        raise ValueError(
            f"requested {total_pairs} pair constraints but only "
            f"{len(all_pairs)} distinct resource pairs exist"
        )
    drawn = rng.sample(all_pairs, total_pairs)
    constraints: list[Constraint] = []
    cursor = 0
    for count, op, quant in (
        (params.bodu, "iff", "forall"),
        (params.bode, "iff", "exists"),
        (params.sodu, "xor", "forall"),
        (params.sode, "xor", "exists"),
    ):
        for _ in range(count):
            a, b = drawn[cursor]
            cursor += 1
            constraints.append(PairConstraint(a, b, op, quant))
    for _ in range(params.implies):
        a, b = drawn[cursor]
        cursor += 1
        if rng.random() < 0.5:
            a, b = b, a
        constraints.append(PairConstraint(a, b, "implies", "forall"))

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

    constraints.extend(_draw_local_card(rng, params))
    constraints.extend(_draw_smer(rng, params))
    constraints.extend(_draw_team_sod(rng, params))

    return Instance.create(
        users=default_user_names(n),
        resources=default_resource_names(k),
        base=AuthorizationRelation(n, k, tuple(rows)),
        constraints=constraints,
    )


def _draw_local_card(rng: random.Random, params: GenParams) -> list[Constraint]:
    out: list[Constraint] = []
    seen = set()
    attempts = 0
    while len(out) < params.lcard:
        attempts += 1
        if attempts > 1000:
            raise ValueError("could not draw enough distinct local cardinality constraints")
        scope = rng.randrange(1, 1 << params.k)
        cmp = rng.choice(("<=", "=", ">="))
        t = rng.randint(params.t_min, params.t_max)
        key = (scope, cmp, t)
        if key in seen:
            continue
        seen.add(key)
        out.append(LocalCardConstraint(frozenset(indices_of(scope)), cmp, t))
    return out


def _draw_smer(rng: random.Random, params: GenParams) -> list[Constraint]:
    if params.smer and params.k < 2:
        raise ValueError("mutual exclusion scopes need at least 2 resources")
    out: list[Constraint] = []
    seen = set()
    attempts = 0
    while len(out) < params.smer:
        attempts += 1
        if attempts > 1000:
            raise ValueError("could not draw enough distinct mutual exclusion scopes")
        scope = rng.randrange(1, 1 << params.k)
        if scope.bit_count() < 2 or scope in seen:
            continue
        seen.add(scope)
        out.append(SmerConstraint(frozenset(indices_of(scope))))
    return out


def _draw_team_sod(rng: random.Random, params: GenParams) -> list[Constraint]:
    if params.teamsod and params.k < 2:
        raise ValueError("team separation needs at least 2 resources")
    out: list[Constraint] = []
    seen = set()
    attempts = 0
    full = (1 << params.k) - 1
    while len(out) < params.teamsod:
        attempts += 1
        if attempts > 1000:
            raise ValueError("could not draw enough distinct team separations")
        left = rng.randrange(1, 1 << params.k)
        comp = full ^ left
        if comp == 0:
            continue
        right = 0
        for r in indices_of(comp):
            if rng.random() < 0.5:
                right |= 1 << r
        if right == 0:
            right = 1 << rng.choice(indices_of(comp))
        key = (min(left, right), max(left, right))
        if key in seen:
            continue
        seen.add(key)
        out.append(
            TeamSodConstraint(frozenset(indices_of(left)), frozenset(indices_of(right)))
        )
    return out


# ---------------------------------------------------------------------------
# Command implementations
# ---------------------------------------------------------------------------

_ROUTE_OF = {route.algo: route for route in ROUTES}
_ALGOS = ("auto", *_ROUTE_OF)


def _run_algo(inst: Instance, algo: str, mode: str, budget: int) -> SolveReport:
    if algo == "auto":
        return dispatch(inst, mode)
    route = _ROUTE_OF[algo]
    if mode not in route.modes:
        raise ValueError(f"the {algo} route answers mode {'/'.join(route.modes)} only")
    return route(inst, mode, budget) if algo == "brute" else route(inst)


def _report_json(inst: Instance, report: SolveReport, mode: str) -> str:
    doc = {
        "algorithm": report.algorithm,
        "mode": mode,
        "decision": "sat" if report.satisfiable else "unsat",
        "max_size": report.max_size,
        "witness": None
        if report.witness is None
        else inst.relation_to_names(report.witness),
        "counters": report.counters,
        "wall_time_s": round(report.wall_time, 6),
    }
    return json.dumps(doc, indent=2) + "\n"


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
    text = serialize_instance(reduced)
    if args.out is not None:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_gen(args) -> int:
    params = GenParams(
        n=args.n,
        k=args.k,
        density=args.density,
        seed=args.seed,
        bodu=args.bodu,
        bode=args.bode,
        sodu=args.sodu,
        sode=args.sode,
        implies=args.implies,
        gcard=args.gcard,
        lcard=args.lcard,
        smer=args.smer,
        teamsod=args.teamsod,
        t_min=args.t_min,
        t_max=args.t_max,
    )
    inst = generate(params)
    text = serialize_instance(inst)
    if args.out is not None:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
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
    with open(args.suite, "r", encoding="utf-8") as fh:
        try:
            suite = json.load(fh)
        except json.JSONDecodeError as e:
            raise ParseError(f"{args.suite}: invalid JSON: {e}") from None
    _require(isinstance(suite, dict) and isinstance(suite.get("runs"), list),
             "suite", "expected an object with a 'runs' list")
    base_dir = Path(args.suite).resolve().parent

    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=_BENCH_COLUMNS)
    writer.writeheader()
    for i, run in enumerate(suite["runs"]):
        _require(isinstance(run, dict), f"runs[{i}]", "expected an object")
        rel_path = run.get("instance")
        _require(isinstance(rel_path, str), f"runs[{i}].instance", "expected a path")
        algo = run.get("algo", "auto")
        mode = run.get("mode", "decide")
        _require(algo in _ALGOS, f"runs[{i}].algo", f"expected one of {_ALGOS}")
        _require(mode in MODES, f"runs[{i}].mode", "expected decide or max")
        inst = load_instance(str(base_dir / rel_path))
        row = {"instance": rel_path, "algo": algo, "mode": mode}
        try:
            report = _run_algo(inst, algo, mode, DEFAULT_BUDGET)
        except CapacityError:
            row["decision"] = "capacity"
        except ValueError as e:
            raise ParseError(f"runs[{i}]: {e}") from None
        else:
            row["decision"] = "sat" if report.satisfiable else "unsat"
            if report.max_size is not None:
                row["m_sol"] = report.max_size
            row["wall_time_s"] = f"{report.wall_time:.6f}"
            for key in ("patterns_explored", "users_removed", "dp_states"):
                if key in report.counters:
                    row[key] = report.counters[key]
        writer.writerow(row)

    if args.out is not None:
        Path(args.out).write_text(buf.getvalue(), encoding="utf-8")
    else:
        sys.stdout.write(buf.getvalue())
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
                         help="candidate budget for the brute algorithm")
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

    p_gen = sub.add_parser("gen", help="generate a seeded random instance")
    p_gen.add_argument("--n", type=int, required=True, help="number of users")
    p_gen.add_argument("--k", type=int, required=True, help="number of resources")
    p_gen.add_argument("--density", type=float, default=0.5)
    p_gen.add_argument("--seed", type=int, default=0)
    for flag in ("bodu", "bode", "sodu", "sode", "implies",
                 "gcard", "lcard", "smer", "teamsod"):
        p_gen.add_argument(f"--{flag}", type=int, default=0, metavar="COUNT")
    p_gen.add_argument("--t-min", dest="t_min", type=int, default=1)
    p_gen.add_argument("--t-max", dest="t_max", type=int, default=3)
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
