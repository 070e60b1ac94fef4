"""File formats and random generation, plus the command line front end."""

import csv
import io
import json
import random
import shlex
from dataclasses import MISSING, fields

import pytest

from apep import (
    AuthorizationRelation,
    Instance,
    PairConstraint,
    SmerConstraint,
    check_valid,
    constraint_kind,
    dispatch,
)
from apep.cli import (
    GenParams,
    ParseError,
    _build_parser,
    _report_json,
    generate,
    load_instance,
    load_relation,
    main,
    parse_instance,
    parse_relation,
    serialize_instance,
    serialize_relation,
)
from apep.solve import ROUTES
from helpers import (
    FIXTURES,
    make,
    reference_serialize_instance,
    reference_serialize_relation,
)

FIXTURE_NAMES = (
    "distinct_teams_8x3.json",
    "planning_mix_5x4.json",
    "separation_chain_5x4.json",
)


def minimal_doc(**overrides):
    doc = {
        "format": "apep-instance",
        "version": 1,
        "users": ["u1", "u2"],
        "resources": ["r1", "r2"],
        "base": {"u1": ["r1", "r2"], "u2": ["r2"]},
        "constraints": [
            {"type": "pair", "r": "r1", "r2": "r2", "op": "iff", "quant": "exists"}
        ],
    }
    doc.update(overrides)
    return doc


# ---------------------------------------------------------------------------
# Parsing and serialization
# ---------------------------------------------------------------------------


def test_parse_instance_happy_path():
    inst, extras = parse_instance(minimal_doc())
    assert inst.users == ("u1", "u2")
    assert inst.base.rows == (0b11, 0b10)
    assert constraint_kind(inst.constraints[0]) == "bod_e"
    assert extras == {}


def test_parse_instance_all_constraint_types():
    doc = minimal_doc(constraints=[
        {"type": "pair", "r": "r1", "r2": "r2", "op": "xor", "quant": "forall"},
        {"type": "global_card", "cmp": "<=", "t": 2},
        {"type": "local_card", "scope": ["r1"], "cmp": ">=", "t": 1},
        {"type": "smer", "scope": ["r1", "r2"]},
        {"type": "team_sod", "left": ["r1"], "right": ["r2"]},
    ])
    inst, _ = parse_instance(doc)
    kinds = [constraint_kind(c) for c in inst.constraints]
    assert kinds == ["sod_u", "global_card", "local_card", "smer", "team_sod"]
    # every record type round-trips byte for byte and names only known fields
    text = serialize_instance(inst)
    assert json.loads(text)["constraints"] == doc["constraints"]
    again, _ = parse_instance(json.loads(text), strict=True)
    assert serialize_instance(again) == text


@pytest.mark.parametrize(
    "mangle, fragment",
    [
        (lambda d: d.update(format="nope"), "format"),
        (lambda d: d.update(version=2), "version"),
        (lambda d: d.update(users="u1"), "users"),
        (lambda d: d.update(users=["u1", ""]), "users[1]"),
        (
            lambda d: d.update(users=["u1", "u2", "u3", 5, ""]),
            "users[3]: expected a non-empty string",
        ),
        (
            lambda d: d.update(users=["u1", "u1"], base={"u1": ["r1", "r2"]}),
            "users: duplicate name 'u1'",
        ),
        (
            lambda d: d.update(base={"u1": ["r1"], "u2": ["r1"]}),
            "base relation: resources with no permitted user: r2",
        ),
        (lambda d: d.update(base=["u1"]), "base"),
        (lambda d: d["base"].update(ghost=["r1"]), "unknown user"),
        (lambda d: d["base"].update(u2=["rX"]), "rX"),
        (
            lambda d: d["base"].update(u2="r2"),
            "base relation: user 'u2': expected a list of resource names",
        ),
        (lambda d: d.update(constraints={}), "constraints"),
        (lambda d: d["constraints"].append({"type": "mystery"}), "unknown type"),
        (
            lambda d: d["constraints"].append({"type": ["pair"]}),
            "constraints[1]: unknown type ['pair']",
        ),
        (
            lambda d: d["constraints"].append({"type": "global_card", "cmp": "<=", "t": True}),
            "constraints[1].t: expected an integer",
        ),
        (
            lambda d: d["constraints"].append(
                {"type": "pair", "r": "rX", "r2": "r2", "op": "iff", "quant": "forall"}
            ),
            "unknown resource",
        ),
        (
            lambda d: d["constraints"].append(
                {"type": "global_card", "cmp": "<=", "t": "2"}
            ),
            "expected an integer",
        ),
        (
            lambda d: d["constraints"].append(
                {"type": "global_card", "cmp": "<", "t": 1}
            ),
            "admits no complete relation",
        ),
        (
            lambda d: d["constraints"].append(
                {"type": "local_card", "scope": ["r1", "rX"], "cmp": "=", "t": 1}
            ),
            "scope",
        ),
        (lambda d: d.update(metadata=7), "metadata"),
    ],
)
def test_parse_instance_errors(mangle, fragment):
    doc = minimal_doc()
    mangle(doc)
    with pytest.raises(ParseError) as err:
        parse_instance(doc)
    assert fragment in str(err.value)


def test_parse_instance_strict_vs_lax():
    doc = minimal_doc(comment="hand made")
    doc["constraints"][0]["note"] = "ignored"
    doc["metadata"] = {"origin": "tests"}
    inst, extras = parse_instance(doc)
    assert extras == {"comment": "hand made", "metadata": {"origin": "tests"}}
    # extras survive a round trip
    text = serialize_instance(inst, extras)
    again = json.loads(text)
    assert again["comment"] == "hand made"
    assert again["metadata"] == {"origin": "tests"}

    with pytest.raises(ParseError, match="unknown fields"):
        parse_instance(minimal_doc(comment="x"), strict=True)
    bad = minimal_doc()
    bad["constraints"][0]["note"] = "x"
    with pytest.raises(ParseError, match="unknown fields"):
        parse_instance(bad, strict=True)


def test_fixtures_byte_stable():
    for name in FIXTURE_NAMES:
        text = (FIXTURES / name).read_text(encoding="utf-8")
        inst, extras = parse_instance(json.loads(text))
        assert serialize_instance(inst, extras) == text, name


def test_relation_round_trip():
    inst, _ = parse_instance(minimal_doc())
    rel = inst.base.without_user(0)
    text = serialize_relation(inst, rel)
    assert parse_relation(json.loads(text), inst) == rel


def test_writers_match_json_dumps():
    """Both writers emit the bytes of ``json.dumps(doc, indent=2)``."""
    insts = [parse_instance(json.loads((FIXTURES / name).read_text(encoding="utf-8")))[0]
             for name in FIXTURE_NAMES]
    for k in range(1, 11):
        insts.append(generate(GenParams(n=40, k=k, density=0.4, seed=k, lcard=1,
                                        sodu=int(k > 1), smer=int(k > 1))))
    names = ["plain", 'quo"te', "back\\slash", "new\nline", "\u00fcn\u00ef", "\u96ea", "tab\t"]
    # users without a base entry get an empty row
    insts.append(Instance.create(names, ['r"1', "r\u00e9"], {
        names[0]: ['r"1'], names[3]: ["r\u00e9", 'r"1'], names[5]: ["r\u00e9"],
    }))
    extras = {
        "metadata": {"origin": "tests", "nested": [1, {"x": "\u00e9\n"}], "empty": {}},
        "zeta": [],
        "alpha": 'q"\\',
    }
    rng = random.Random(8)
    for inst in insts:
        for ex in (None, extras):
            assert serialize_instance(inst, ex) == reference_serialize_instance(inst, ex)
        sub = tuple(row & rng.randrange(1 << inst.k) for row in inst.base.rows)
        for rows in (inst.base.rows, sub, (0,) * inst.n):
            A = AuthorizationRelation(inst.n, inst.k, rows)
            assert serialize_relation(inst, A) == reference_serialize_relation(inst, A)
    # the report of ``apep solve --json`` carries a witness in the same layout
    report = dispatch(insts[0], "max")
    text = _report_json(insts[0], report, "max")
    assert text == json.dumps(json.loads(text), indent=2) + "\n"


def test_parse_relation_errors():
    inst, _ = parse_instance(minimal_doc())
    with pytest.raises(ParseError, match="format"):
        parse_relation({"format": "apep-instance", "version": 1, "relation": {}}, inst)
    with pytest.raises(ParseError, match="version"):
        parse_relation({"format": "apep-relation", "version": 9, "relation": {}}, inst)
    with pytest.raises(ParseError, match="relation"):
        parse_relation({"format": "apep-relation", "version": 1, "relation": []}, inst)
    with pytest.raises(ParseError, match="relation"):
        parse_relation(
            {"format": "apep-relation", "version": 1, "relation": {"ghost": ["r1"]}},
            inst,
        )
    for bad in ({"u1": 5}, {"u1": [["r1"]]}, {"u1": "ab"}):
        with pytest.raises(
            ParseError, match="relation: user 'u1': expected a list of resource names"
        ):
            parse_relation({"format": "apep-relation", "version": 1, "relation": bad}, inst)


def test_load_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(ParseError, match="invalid JSON"):
        load_instance(str(bad))
    inst, _ = parse_instance(minimal_doc())
    with pytest.raises(ParseError, match="invalid JSON"):
        load_relation(str(bad), inst)
    with pytest.raises(OSError):
        load_instance(str(tmp_path / "missing.json"))


# ---------------------------------------------------------------------------
# Generator
# ---------------------------------------------------------------------------


def test_generate_deterministic_and_seed_sensitive():
    params = GenParams(n=5, k=3, seed=9, sodu=1, lcard=1)
    assert generate(params) == generate(params)
    variants = {generate(GenParams(n=5, k=3, seed=s)).base.rows for s in range(10)}
    assert len(variants) > 1


def test_generate_density_extremes():
    full = generate(GenParams(n=4, k=3, density=1.0, seed=1))
    assert full.base.rows == (0b111,) * 4
    sparse = generate(GenParams(n=4, k=3, density=0.0, seed=1))
    for r in range(3):
        assert sparse.base.cols[r] != 0


def test_generate_respects_counts_and_thresholds():
    params = GenParams(
        n=6, k=4, seed=3, bodu=1, bode=1, sodu=1, sode=1, implies=1,
        gcard=2, lcard=2, smer=2, teamsod=2, t_min=2, t_max=3,
    )
    inst = generate(params)
    kinds = [constraint_kind(c) for c in inst.constraints]
    assert kinds.count("bod_u") == 1 and kinds.count("bod_e") >= 1
    assert kinds.count("sod_u") == 1
    assert kinds.count("global_card") == 2 and kinds.count("local_card") == 2
    assert kinds.count("smer") == 2 and kinds.count("team_sod") == 2
    for c in inst.constraints:
        if hasattr(c, "t"):
            # "=" and ">=" keep t; a strict form never appears
            assert c.cmp in ("<=", "=", ">=") and 2 <= c.t <= 3
    # pair constraints use distinct resource pairs
    pairs = [
        frozenset((c.r, c.r2))
        for c in inst.constraints
        if hasattr(c, "op")
    ]
    assert len(pairs) == len(set(pairs)) == 5


def test_generate_validation_errors():
    with pytest.raises(ValueError):
        generate(GenParams(n=0, k=2))
    with pytest.raises(ValueError):
        generate(GenParams(n=2, k=2, density=1.5))
    with pytest.raises(ValueError):
        generate(GenParams(n=2, k=2, t_min=3, t_max=2))
    with pytest.raises(ValueError, match="distinct resource pairs"):
        generate(GenParams(n=2, k=2, bodu=2))
    with pytest.raises(ValueError):
        generate(GenParams(n=2, k=2, gcard=4, t_min=1, t_max=1))
    with pytest.raises(ValueError, match="at least 2"):
        generate(GenParams(n=2, k=1, smer=1))
    with pytest.raises(ValueError, match="at least 2"):
        generate(GenParams(n=2, k=1, teamsod=1))


# ---------------------------------------------------------------------------
# Command line
# ---------------------------------------------------------------------------


def write_instance(tmp_path, inst, name="inst.json"):
    path = tmp_path / name
    path.write_text(serialize_instance(inst), encoding="utf-8")
    return str(path)


def fixture_path(name):
    return str(FIXTURES / name)


def test_main_solve_sat_and_unsat(tmp_path, capsys):
    assert main(["solve", "--in", fixture_path("separation_chain_5x4.json"),
                 "--mode", "max"]) == 0
    out = capsys.readouterr().out
    assert "decision: sat" in out and "max size: 7" in out

    unsat = make([0b11], 2, [PairConstraint(0, 1, "xor", "forall")])
    assert main(["solve", "--in", write_instance(tmp_path, unsat)]) == 1
    assert "decision: unsat" in capsys.readouterr().out


def test_main_solve_json_report(capsys):
    assert main(["solve", "--in", fixture_path("separation_chain_5x4.json"),
                 "--algo", "sodu", "--mode", "max", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["algorithm"] == "sod_u_patterns"
    assert doc["decision"] == "sat"
    assert doc["max_size"] == 7
    assert doc["counters"]["patterns_explored"] == 5
    assert isinstance(doc["witness"], dict)
    assert doc["wall_time_s"] >= 0


def test_main_solve_writes_witness(tmp_path, capsys):
    out_path = tmp_path / "witness.json"
    assert main(["solve", "--in", fixture_path("distinct_teams_8x3.json"),
                 "--mode", "max", "--out", str(out_path)]) == 0
    capsys.readouterr()
    inst = load_instance(fixture_path("distinct_teams_8x3.json"))
    rel = load_relation(str(out_path), inst)
    assert check_valid(inst, rel).valid and rel.size == 17


def test_main_solve_usage_errors(tmp_path, capsys):
    chain = fixture_path("separation_chain_5x4.json")  # universal-xor only
    mixed = write_instance(tmp_path, make([0b11, 0b11], 2, [SmerConstraint({0, 1})]))
    refusals = [
        # wrong route for the constraint mix
        ("bodu", chain, "decide"),
        ("bode", chain, "max"),
        ("sodu", mixed, "decide"),
        ("sode", chain, "decide"),
        ("wsp", mixed, "decide"),
        # decision-only routes
        ("wsp", chain, "max"),
        ("bounded", chain, "max"),
    ]
    for algo, path, mode in refusals:
        assert main(["solve", "--in", path, "--algo", algo, "--mode", mode]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"the {algo} route" in err
    # the exhaustive route takes every mix in both modes
    for mode in ("decide", "max"):
        assert main(["solve", "--in", mixed, "--algo", "brute", "--mode", mode]) == 0
    capsys.readouterr()

    # every row of the route table is covered, and --algo offers exactly its names
    names = [route.algo for route in ROUTES]
    assert sorted({algo for algo, _, _ in refusals} | {"brute"}) == sorted(names)
    assert main(["solve", "--help"]) == 0
    assert "{" + ",".join(["auto", *names]) + "}" in capsys.readouterr().out


def test_main_solve_capacity(tmp_path, capsys):
    inst = make([0b11, 0b11], 2, [PairConstraint(0, 1, "xor", "forall")])
    path = write_instance(tmp_path, inst)
    assert main(["solve", "--in", path, "--algo", "brute", "--budget", "8"]) == 3
    assert "error:" in capsys.readouterr().err
    # auto falls back to the brute search here, which --budget bounds too
    inst = make([0b11] * 3, 2, [PairConstraint(0, 1, "xor", "forall"), SmerConstraint({0, 1})])
    path = write_instance(tmp_path, inst, "mix.json")
    assert main(["solve", "--in", path, "--mode", "max"]) == 0
    assert main(["solve", "--in", path, "--mode", "max", "--budget", "16"]) == 3
    assert "exceeds budget 16" in capsys.readouterr().err


def test_main_input_errors(tmp_path, capsys):
    assert main(["solve", "--in", str(tmp_path / "missing.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{", encoding="utf-8")
    assert main(["solve", "--in", str(bad)]) == 2
    assert f"{bad}: invalid JSON" in capsys.readouterr().err
    strict_doc = minimal_doc(comment="x")
    strict = tmp_path / "strict.json"
    strict.write_text(json.dumps(strict_doc), encoding="utf-8")
    assert main(["solve", "--in", str(strict), "--strict"]) == 2
    assert f"{strict}: document: unknown fields" in capsys.readouterr().err
    assert main(["solve", "--in", str(strict)]) in (0, 1)
    capsys.readouterr()

    # wrongly typed fields exit 2 and say where, rather than raise TypeError
    typed_doc = minimal_doc()
    typed_doc["constraints"][0]["type"] = ["pair"]
    typed = tmp_path / "typed.json"
    typed.write_text(json.dumps(typed_doc), encoding="utf-8")
    assert main(["solve", "--in", str(typed)]) == 2
    assert f"{typed}: constraints[0]: unknown type ['pair']" in capsys.readouterr().err
    good = tmp_path / "good.json"
    good.write_text(json.dumps(minimal_doc()), encoding="utf-8")
    rel = tmp_path / "rel.json"
    for relation in ({"u1": 5}, {"u1": [["r1"]]}, {"u1": "ab"}):
        rel.write_text(json.dumps({"format": "apep-relation", "version": 1,
                                   "relation": relation}), encoding="utf-8")
        assert main(["verify", "--in", str(good), "--relation", str(rel)]) == 2
        assert f"{rel}: relation: user 'u1'" in capsys.readouterr().err


def test_cli_exposes_benchmark_entry_points():
    # perfbench/run.py and perfbench/spans.py call these through apep.cli
    import apep.cli

    for name in ("GenParams", "generate", "parse_instance", "parse_relation",
                 "serialize_instance", "serialize_relation"):
        assert callable(getattr(apep.cli, name, None)), name


def test_main_argparse_paths(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()
    assert main(["solve"]) == 2  # missing --in
    assert main(["nonsense"]) == 2
    capsys.readouterr()


def test_main_verify(tmp_path, capsys):
    inst = load_instance(fixture_path("separation_chain_5x4.json"))
    good = tmp_path / "good.json"
    rel = inst.relation_from_names(
        {"u1": ["r4"], "u3": ["r1", "r3"], "u4": ["r2"]}
    )
    good.write_text(serialize_relation(inst, rel), encoding="utf-8")
    assert main(["verify", "--in", fixture_path("separation_chain_5x4.json"),
                 "--relation", str(good)]) == 0
    out = capsys.readouterr().out
    assert "valid: yes" in out

    bad_rel = inst.relation_from_names({"u3": ["r1", "r2", "r3"], "u1": ["r4"]})
    bad = tmp_path / "bad.json"
    bad.write_text(serialize_relation(inst, bad_rel), encoding="utf-8")
    assert main(["verify", "--in", fixture_path("separation_chain_5x4.json"),
                 "--relation", str(bad)]) == 1
    out = capsys.readouterr().out
    assert "violated constraints:" in out and "valid: no" in out


def test_main_reduce_bodu(tmp_path, capsys):
    inst = make(
        [0b011, 0b111, 0b110],
        3,
        [PairConstraint(0, 1, "iff", "forall"), PairConstraint(1, 2, "iff", "forall")],
    )
    assert main(["reduce", "--in", write_instance(tmp_path, inst),
                 "--rule", "bodu"]) == 0
    captured = capsys.readouterr()
    assert "merged: r1 r2 r3" in captured.err
    reduced = json.loads(captured.out)
    assert reduced["resources"] == ["r1"]

    unsat = make([0b01, 0b10], 2, [PairConstraint(0, 1, "iff", "forall")])
    assert main(["reduce", "--in", write_instance(tmp_path, unsat, "u.json"),
                 "--rule", "bodu"]) == 1
    assert "trivially unsatisfiable" in capsys.readouterr().err


def test_main_reduce_families(tmp_path, capsys):
    path = fixture_path("distinct_teams_8x3.json")
    assert main(["reduce", "--in", path, "--rule", "families", "--f", "3"]) == 0
    captured = capsys.readouterr()
    assert "f=3" in captured.err and "removed 2 users" in captured.err
    reduced = json.loads(captured.out)
    assert len(reduced["users"]) == 6

    # the default bound for this instance is also 3
    out_path = tmp_path / "reduced.json"
    assert main(["reduce", "--in", path, "--rule", "families",
                 "--out", str(out_path)]) == 0
    captured = capsys.readouterr()
    assert "f=3" in captured.err
    assert json.loads(out_path.read_text(encoding="utf-8")) == reduced


def test_main_gen(tmp_path, capsys):
    argv = ["gen", "--n", "4", "--k", "3", "--seed", "7", "--sodu", "1",
            "--t-min", "1", "--t-max", "2"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    doc = json.loads(first)
    assert doc["format"] == "apep-instance" and len(doc["users"]) == 4
    assert main(argv) == 0
    assert capsys.readouterr().out == first

    out_path = tmp_path / "gen.json"
    assert main(argv + ["--out", str(out_path)]) == 0
    capsys.readouterr()
    assert out_path.read_text(encoding="utf-8") == first

    assert main(["gen", "--n", "2", "--k", "2", "--bodu", "5"]) == 2
    capsys.readouterr()


def test_gen_flags_are_the_genparams_fields(capsys):
    parser = _build_parser()
    args = parser.parse_args(["gen", "--n", "5", "--k", "3"])
    for f in fields(GenParams):
        if f.default is not MISSING:
            assert getattr(args, f.name) == f.default, f.name

    values = {
        f.name: 0.25 if f.type == "float" else 10 + i for i, f in enumerate(fields(GenParams))
    }
    argv = ["gen"]
    for name, value in values.items():
        argv += [f"--{name.replace('_', '-')}", str(value)]
    args = parser.parse_args(argv)
    assert {name: getattr(args, name) for name in values} == values

    assert main(["gen", "--k", "3"]) == 2
    assert main(["gen", "--n", "5"]) == 2
    capsys.readouterr()


def test_readme_gen_example_runs(tmp_path, monkeypatch, capsys):
    readme = (FIXTURES.parent / "README.md").read_text(encoding="utf-8")
    (line,) = [line for line in readme.splitlines() if line.startswith("apep gen ")]
    monkeypatch.chdir(tmp_path)
    assert main(shlex.split(line)[1:]) == 0
    inst = load_instance("instance.json")
    assert (inst.n, inst.k) == (100, 4)
    assert [constraint_kind(c) for c in inst.constraints] == ["sod_u", "sod_u"]
    capsys.readouterr()


def test_main_bench(tmp_path, capsys):
    inst_path = tmp_path / "chain.json"
    inst_path.write_text(
        (FIXTURES / "separation_chain_5x4.json").read_text(encoding="utf-8"),
        encoding="utf-8",
    )
    big = generate(GenParams(n=30, k=1, density=1.0, seed=0))
    big_path = tmp_path / "big.json"
    big_path.write_text(serialize_instance(big), encoding="utf-8")
    suite = {
        "runs": [
            {"instance": "chain.json", "algo": "auto", "mode": "max"},
            {"instance": "chain.json", "algo": "bounded"},
            {"instance": "big.json", "algo": "brute", "mode": "decide"},
        ]
    }
    suite_path = tmp_path / "suite.json"
    suite_path.write_text(json.dumps(suite), encoding="utf-8")
    assert main(["bench", "--suite", str(suite_path)]) == 0
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert [row["decision"] for row in rows] == ["sat", "sat", "capacity"]
    assert rows[0]["m_sol"] == "7"
    assert rows[0]["patterns_explored"] == "5"
    assert rows[1]["users_removed"] != ""
    assert rows[2]["m_sol"] == "" and rows[2]["wall_time_s"] == ""
    assert float(rows[0]["wall_time_s"]) >= 0

    out_path = tmp_path / "bench.csv"
    assert main(["bench", "--suite", str(suite_path), "--out", str(out_path)]) == 0
    capsys.readouterr()
    assert out_path.read_text(encoding="utf-8").splitlines()[0] == (
        "instance,algo,mode,decision,m_sol,wall_time_s,"
        "patterns_explored,users_removed,dp_states"
    )


def test_main_bench_suite_errors(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"runs": [{"instance": "x.json", "algo": "nope"}]}),
                   encoding="utf-8")
    assert main(["bench", "--suite", str(bad)]) == 2
    assert f"{bad}: runs[0].algo" in capsys.readouterr().err
    bad.write_text(json.dumps({}), encoding="utf-8")
    assert main(["bench", "--suite", str(bad)]) == 2
    assert f"{bad}: suite" in capsys.readouterr().err
    chain = tmp_path / "chain.json"
    chain.write_text(
        (FIXTURES / "separation_chain_5x4.json").read_text(encoding="utf-8"),
        encoding="utf-8",
    )
    bad.write_text(
        json.dumps({"runs": [{"instance": "chain.json", "algo": "wsp", "mode": "max"}]}),
        encoding="utf-8",
    )
    assert main(["bench", "--suite", str(bad)]) == 2
    assert f"{bad}: runs[0]: the wsp route" in capsys.readouterr().err
    # a bad instance of the suite is named by its own path
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(minimal_doc(version=7)), encoding="utf-8")
    bad.write_text(json.dumps({"runs": [{"instance": "broken.json"}]}), encoding="utf-8")
    assert main(["bench", "--suite", str(bad)]) == 2
    assert f"{broken.resolve()}: version: expected 1" in capsys.readouterr().err
