"""Smoke test for the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench/smoke_test.py -q

Checks that every metric in BENCHMARK.json prints by name and unit, that
times scale with the host-speed reference, that the traced self times of
each op add up to its wall time, that the gate counts a corrupted witness
and a wrong pin as failures, and that the runner fails without a result
where the apep sources are missing.
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY = {
    name: replace(
        w, n_min=6, n_max=12, shapes=tuple(replace(s, k=min(s.k, 4)) for s in w.shapes)
    )
    for name, w in WORKLOADS.items()
}


def _main(*argv, pins=None):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(list(argv), workloads=TINY, pins={} if pins is None else pins)
    lines = out.getvalue().splitlines()
    return code, lines, json.loads(lines[-1])


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", sorted(TINY))
def test_every_metric_prints(workload, trace):
    code, lines, result = _main("--workload", workload, "--seconds", "0.05", "--trace", trace)
    assert code == 0
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace == "1" else "end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in declared)
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert any(line.startswith(f"{m['name']} = ") and line.endswith(f" {m['unit']}")
                   for line in lines), m["name"]
    assert any(line.startswith("fail_ratio = 0.0 ratio") for line in lines)
    assert any(line.startswith("answers_sha256 = ") for line in lines)


def test_times_scale_with_host_speed():
    # The reference ran at half the nominal speed around the first op and at
    # the nominal speed around the last.
    nominal, window = run.REF_NOMINAL_S, run.SPEED_WINDOW
    scales = run.speed_scales([2 * nominal] * (window + 1) + [nominal] * 3 * window)
    assert scales[0] == pytest.approx(0.5) and scales[-1] == pytest.approx(1.0)
    last = len(scales) - 1
    tally = run.Tally(solve_s=[0.2, 0.4], solve_ops=[0, last],
                      verify_s=[0.02, 0.04], verify_ops=[0, last])
    raw = run.end_to_end(tally, [1.0])
    scaled = run.end_to_end(tally, [1.0], scales)
    assert raw["solve_s.p50"] == pytest.approx(0.3)
    assert scaled["solve_s.p50"] == pytest.approx(0.25)
    assert scaled["verify_s.p50"] == pytest.approx(0.025)
    assert scaled["ops_per_s"] == pytest.approx(4 / 0.55)


def test_traced_self_times_sum_to_op_wall():
    apep = run.import_apep()
    original = apep.solve.max_weight_row_saturating
    plain, traced, tracer = run.trace_run(apep, TINY["decide_bulk"], 3, {})
    assert apep.solve.max_weight_row_saturating is original
    assert traced.failed == 0 and len(traced.op_walls) == run.PIN_OPS
    sums = tracer.op_self_sums()
    for i, wall in traced.op_walls.items():
        assert abs(sums[i] - wall) <= max(0.02 * wall, 2e-4), (i, sums[i], wall)
    layers = tracer.self_times()
    assert sum(layers.values()) == pytest.approx(sum(sums.values()), rel=1e-9)
    assert layers["model.create_s"] > 0 and layers["reduce.s"] > 0 and layers["oracle.s"] > 0


def test_gate_counts_corrupt_witness_and_wrong_pin():
    apep = run.import_apep()
    text, mode = run.make_input(apep, TINY["sodu_max"], 1, 0)

    honest = run.Tally()
    run.execute(apep, text, mode, None, honest, 0)
    assert honest.failed == 0 and honest.attempted == 2
    pin = honest.answers[0]

    wrong_pin = run.Tally()
    run.execute(apep, text, mode, ["unsat", None], wrong_pin, 0)
    assert wrong_pin.failed == 1 and "pinned" in wrong_pin.problems[0]

    serialize = apep.cli.serialize_relation
    everyone_everything = apep.AuthorizationRelation.full
    apep.cli.serialize_relation = lambda inst, A: serialize(
        inst, everyone_everything(inst.n, inst.k))
    try:
        corrupt = run.Tally()
        run.execute(apep, text, mode, pin, corrupt, 0)
    finally:
        apep.cli.serialize_relation = serialize
    # the verify op finds the witness invalid, and the solve op's witness
    # JSON no longer round-trips to the solved relation
    assert corrupt.failed == 2, corrupt.problems

    code, _, result = _main("--workload", "sode_max", "--seconds", "0.05",
                            pins={"sode_max": [["unsat", None]] * run.PIN_OPS})
    assert code == 1
    assert not result["correct"] and result["failed"] == run.PIN_OPS


def test_fails_without_apep_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "sode_max", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
