"""Benchmark for apep: seeded solve and verify ops in a closed loop.

One client, one process, one thread, no think time: each op starts when the
previous one has finished.  A solve op takes instance JSON text to witness
JSON text the way ``apep solve --json`` does; a verify op follows every sat
solve and checks the witness the way ``apep verify`` does.  Inputs come
from ``apep.cli.generate``, seeded; every op gets its own instance.  Input
generation, the host-speed reference and the correctness gate run between
ops, outside the timed wall.

    python3 perfbench/run.py --workload sodu_max --seed 1 --seconds 30 --trace 0

``--trace 0`` measures for ``--seconds`` of timed wall (and at least 100
solve ops) and prints the end-to-end metrics.  Their times are in nominal
seconds: each op's time is scaled by how fast a fixed pure-Python reference
loop, timed between ops, ran around it, so that the shared host's swings in
speed cancel out; the unscaled figures print on a line of their own.
``--trace 1`` replays the first 100 ops of the stream twice, plain and
traced, alternating which goes first, and prints the per-layer metrics from
the traced pass.  Both print one metric per line, then a JSON summary as the
last line, and exit 1 when any op failed the gate.
"""

import time

RUNNER_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

from spans import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
MIN_SOLVE_OPS = 100  # p90 keeps at least 10 samples beyond it
PIN_OPS = 100  # answers of the first PIN_OPS solve ops are hashed and pinned
WARMUP_OPS = 5
SETUP_REPEATS = 5
DEFAULT_SEED = 1
WALL_CAP_S = 150.0  # stop early rather than break a 180 s limit on a slow host
# The host-speed reference: a loop that never touches apep or the heap, so
# nothing apep does can change its time; only the host's speed can.  Its
# nominal time is its median on a 2-core x86_64 host with Python 3.11.
REF_ITERATIONS = 20_000
REF_NOMINAL_S = 0.0018
SPEED_WINDOW = 10  # an op's speed is the reference median over ops i-10..i+10
SETUP_REF_SAMPLES = 21
ROUTES = (
    "bod_u_merge",
    "bod_e_base",
    "sod_u_patterns",
    "sod_e_partition",
    "bod_e_sod_u_wsp",
    "bounded_kernel",
    "brute_force",
)


def reference_s() -> float:
    """Time of one pass of the host-speed reference loop."""
    start = time.perf_counter()
    s = 0
    for i in range(REF_ITERATIONS):
        s += i * i % 7
    return time.perf_counter() - start


class BenchError(Exception):
    """The benchmark cannot run here; reported without a result line."""


def import_apep():
    """Import apep from this checkout's ``src``, dropping any earlier import.

    Dropping the modules first makes every set-up pay the full import.
    """
    if not (SRC / "apep" / "__init__.py").is_file():
        raise BenchError(f"no apep sources under {SRC}")
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "apep" or m.startswith("apep.")]:
        del sys.modules[name]
    import apep
    import apep.cli

    if Path(apep.__file__).resolve().parent != SRC / "apep":
        raise BenchError(f"imported apep from {apep.__file__}, not from {SRC}")
    return apep


# ---------------------------------------------------------------------------
# Ops and the correctness gate
# ---------------------------------------------------------------------------


def _direct(name, fn, *args):
    return fn(*args)


def make_input(apep, workload, seed: int, i: int, smallest: bool = False):
    """Instance JSON text and solve mode of op ``i``."""
    params, mode = workload.op(seed, i, smallest)
    inst = apep.cli.generate(apep.cli.GenParams(**params))
    return apep.cli.serialize_instance(inst), mode


def solve_op(apep, text: str, mode: str, call=_direct):
    inst, _ = apep.cli.parse_instance(json.loads(text))
    report = call("solve.dispatch", apep.dispatch, inst, mode)
    if report.witness is None:
        return report, None
    return report, apep.cli.serialize_relation(inst, report.witness)


def verify_op(apep, text: str, witness_text: str, call=_direct):
    inst, _ = apep.cli.parse_instance(json.loads(text))
    rel = apep.cli.parse_relation(json.loads(witness_text), inst)
    return rel, call("verify.check", apep.check_valid, inst, rel)


def answer(report, mode: str) -> list:
    """What pins and the answer hash cover: decision, plus size when maximizing."""
    return ["sat" if report.satisfiable else "unsat", report.max_size if mode == "max" else None]


@dataclass
class Tally:
    solve_s: list = field(default_factory=list)
    verify_s: list = field(default_factory=list)
    solve_ops: list = field(default_factory=list)  # op index of each solve_s sample
    verify_ops: list = field(default_factory=list)  # op index of each verify_s sample
    refs: list = field(default_factory=list)  # reference loop time before op i
    timed: float = 0.0
    attempted: int = 0
    failed: int = 0
    answers: list = field(default_factory=list)
    problems: list = field(default_factory=list)
    counters: Counter = field(default_factory=Counter)
    op_walls: dict = field(default_factory=dict)

    def fail(self, i: int, what: str) -> None:
        self.failed += 1
        self.problems.append(f"op {i}: {what}")


def _timed(tally: Tally, i: int, fn, *args):
    # Each op starts with the client's garbage collected, as a fresh
    # ``apep solve`` or ``apep verify`` process would; collections the op's
    # own allocations trigger stay inside its time.
    gc.collect()
    start = time.perf_counter()
    try:
        result = fn(*args)
    finally:
        wall = time.perf_counter() - start
        tally.timed += wall
        tally.op_walls[i] = tally.op_walls.get(i, 0.0) + wall
    return result, wall


def execute(apep, text: str, mode: str, pin, tally: Tally, i: int, call=_direct) -> None:
    """One solve op, its verify op when sat, and the untimed gate on both."""
    tally.attempted += 1
    try:
        (report, witness_text), wall = _timed(
            tally, i, call, "op:solve", solve_op, apep, text, mode, call)
    except Exception as e:  # every exception, CapacityError too, is a failed op
        tally.answers.append(["error", None])
        tally.fail(i, f"solve raised {type(e).__name__}: {e}")
        return
    tally.solve_s.append(wall)
    tally.solve_ops.append(i)
    got = answer(report, mode)
    tally.answers.append(got)
    tally.counters[f"route.{report.algorithm}"] += 1
    for key in ("patterns_explored", "dp_states"):
        tally.counters[key] += report.counters.get(key, 0)

    bad = []
    if pin is not None and got != pin:
        bad.append(f"answer {got} differs from pinned {pin}")
    if report.satisfiable and witness_text is None:
        bad.append("sat without a witness")
    if mode == "max" and report.witness is not None and report.witness.size != report.max_size:
        bad.append(f"witness size {report.witness.size} != max_size {report.max_size}")
    if witness_text is not None:
        tally.attempted += 1
        try:
            (rel, verdict), wall = _timed(
                tally, i, call, "op:verify", verify_op, apep, text, witness_text, call)
        except Exception as e:
            tally.fail(i, f"verify raised {type(e).__name__}: {e}")
        else:
            tally.verify_s.append(wall)
            tally.verify_ops.append(i)
            if not verdict.valid:
                tally.fail(i, f"witness invalid: {verdict}")
            if rel.rows != report.witness.rows:
                bad.append("witness JSON does not round-trip to the solved relation")
    if bad:
        tally.fail(i, "; ".join(bad))


def answers_sha256(tally: Tally) -> str:
    blob = json.dumps(tally.answers[:PIN_OPS], separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def load_pins() -> dict:
    with open(HERE / "pins.json", encoding="utf-8") as fh:
        return json.load(fh)


def pin_for(pins: dict, workload, seed: int, i: int):
    if seed != DEFAULT_SEED or i >= PIN_OPS:
        return None
    answers = pins.get(workload.name)
    return None if answers is None else answers[i]


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------


def set_up(workload, seed: int):
    """Import apep and run the warm-up ops; raises BenchError if one fails."""
    apep = import_apep()
    warm = Tally()
    for j in range(WARMUP_OPS):
        text, mode = make_input(apep, workload, seed, -1 - j, smallest=True)
        execute(apep, text, mode, None, warm, -1 - j)
    if warm.failed:
        raise BenchError("warm-up failed: " + "; ".join(warm.problems))
    return apep


def measure(apep, workload, seed: int, seconds: float, pins: dict) -> Tally:
    """Closed loop until ``seconds`` of timed wall and MIN_SOLVE_OPS solve ops."""
    tally = Tally()
    i = 0
    while tally.timed < seconds or len(tally.answers) < MIN_SOLVE_OPS:
        if time.perf_counter() - RUNNER_START > WALL_CAP_S:
            tally.problems.append(f"stopped at the {WALL_CAP_S:.0f} s wall cap after {i} ops")
            break
        text, mode = make_input(apep, workload, seed, i)
        tally.refs.append(reference_s())
        execute(apep, text, mode, pin_for(pins, workload, seed, i), tally, i)
        i += 1
    return tally


def trace_run(apep, workload, seed: int, pins: dict):
    """The first PIN_OPS ops, plain and traced; returns both tallies and the tracer."""
    tracer = Tracer()
    plain, traced = Tally(), Tally()

    def call(name, fn, *args):
        return tracer.call(name, fn, args, {})

    for i in range(PIN_OPS):
        text, mode = make_input(apep, workload, seed, i)
        pin = pin_for(pins, workload, seed, i)
        for tally in ((plain, traced) if i % 2 == 0 else (traced, plain)):
            if tally is plain:
                execute(apep, text, mode, pin, plain, i)
                continue
            tracer.op_id = i
            with tracer.installed(apep):
                execute(apep, text, mode, pin, traced, i, call)
    tracer.op_id = None
    return plain, traced, tracer


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def speed_scales(refs: list) -> list:
    """Per op, the factor that takes its times to the reference's nominal speed."""
    return [
        REF_NOMINAL_S / statistics.median(refs[max(0, i - SPEED_WINDOW):i + SPEED_WINDOW + 1])
        for i in range(len(refs))
    ]


def end_to_end(tally: Tally, setups: list, scales=None) -> dict:
    """End-to-end metrics; times are multiplied by their op's scale, if given."""
    def p90(xs):
        return statistics.quantiles(xs, n=10, method="inclusive")[8]

    if scales is None:
        solve_s, verify_s = tally.solve_s, tally.verify_s
    else:
        solve_s = [t * scales[i] for t, i in zip(tally.solve_s, tally.solve_ops)]
        verify_s = [t * scales[i] for t, i in zip(tally.verify_s, tally.verify_ops)]
    return {
        "ops_per_s": (len(solve_s) + len(verify_s)) / (sum(solve_s) + sum(verify_s)),
        "solve_s.p50": statistics.median(solve_s),
        "solve_s.p90": p90(solve_s),
        "verify_s.p50": statistics.median(verify_s),
        "verify_s.p90": p90(verify_s),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(plain: Tally, traced: Tally, tracer: Tracer) -> dict:
    c = tracer.counts
    out = dict(tracer.self_times())
    out.update({
        "model.create_calls": c["model.create_calls"],
        "solve.patterns_explored": traced.counters["patterns_explored"],
        "solve.dp_states": traced.counters["dp_states"],
        "matching.calls": c["matching.calls"],
        "matching.cells": c["matching.cells"],
        "matching.feasible_ratio": _ratio(c["matching.found"], c["matching.calls"]),
        "verify.in_solve_calls": c["verify.in_solve_calls"],
        "reduce.calls": c["reduce.calls"],
        "reduce.users_removed": c["reduce.users_removed"],
        "reduce.kernel_ratio": _ratio(c["reduce.users_kept"], c["reduce.users_in"]),
        "oracle.calls": c["oracle.calls"],
        "oracle.kernel_cells": c["oracle.kernel_cells"],
        "trace.overhead_ratio": traced.timed / plain.timed - 1,
    })
    for route in ROUTES:
        out[f"solve.route.{route}"] = traced.counters[f"route.{route}"]
    return out


UNITS = {"ops_per_s": "ops/s", "peak_rss_mb": "MiB"}


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.endswith(("_s", ".s")) or name.startswith(("solve_s.", "verify_s.")):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def write_spans(tracer: Tracer, tally: Tally, workload, seed: int) -> Path:
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"trace_{workload.name}_{seed}.json"
    doc = {
        "fields": ["name", "start", "end", "op", "parent"],
        "spans": tracer.spans,
        "op_wall_s": tally.op_walls,
    }
    path.write_text(json.dumps(doc, separators=(",", ":")), encoding="utf-8")
    return path


def main(argv=None, workloads=WORKLOADS, pins=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = workloads[args.workload]
    setup_start = RUNNER_START if argv is None else time.perf_counter()

    try:
        pins = load_pins() if pins is None else pins
        setups, setup_refs = [], []
        for _ in range(1 if args.trace else SETUP_REPEATS):
            apep = set_up(workload, args.seed)
            setups.append(time.perf_counter() - setup_start)
            setup_refs.append(statistics.median(
                reference_s() for _ in range(SETUP_REF_SAMPLES)))
            setup_start = time.perf_counter()
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2

    print(f"apep benchmark: workload {workload.name}, seed {args.seed}, trace {args.trace}; "
          "closed loop, 1 client, no think time")
    print(f"python {platform.python_version()}, nproc {os.cpu_count()}, {platform.machine()}")
    if args.trace:
        plain, tally, tracer = trace_run(apep, workload, args.seed, pins)
        metrics = per_layer(plain, tally, tracer)
        attempted = plain.attempted + tally.attempted
        failed = plain.failed + tally.failed
        problems = plain.problems + tally.problems
        sums = tracer.op_self_sums()
        gap = max(abs(sums[i] - wall) for i, wall in tally.op_walls.items())
        print(f"traced {len(tally.op_walls)} ops; layer self times sum to "
              f"{sum(sums.values()):.6f} s of {sum(tally.op_walls.values()):.6f} s op wall, "
              f"largest per-op gap {gap * 1e6:.1f} us; spans in "
              f"{write_spans(tracer, tally, workload, args.seed).relative_to(HERE.parent)}")
    else:
        tally = measure(apep, workload, args.seed, args.seconds, pins)
        unscaled = end_to_end(tally, setups)
        metrics = end_to_end(tally, [s * REF_NOMINAL_S / r for s, r in zip(setups, setup_refs)],
                             speed_scales(tally.refs))
        attempted, failed, problems = tally.attempted, tally.failed, tally.problems
    for name, value in metrics.items():
        print(f"{name} = {value} {unit_of(name)}")
    if not args.trace:
        print(f"samples: solve {len(tally.solve_s)}, verify {len(tally.verify_s)}, "
              f"timed wall {tally.timed:.3f} s, set-ups {len(setups)}")
        refs = tally.refs + setup_refs
        print(f"host speed: reference loop {statistics.median(refs) * 1e3:.4f} ms median, "
              f"{min(refs) * 1e3:.4f}-{max(refs) * 1e3:.4f} ms range, nominal "
              f"{REF_NOMINAL_S * 1e3:.4f} ms; times above are scaled to the nominal speed")
        print("unscaled: " + ", ".join(f"{name} {value}" for name, value in unscaled.items()
                                      if name != "peak_rss_mb"))
    print(f"fail_ratio = {_ratio(failed, attempted)} ratio ({failed} failed of {attempted} attempted)")
    print(f"answers_sha256 = {answers_sha256(tally)} (first {PIN_OPS} solve ops)")
    for problem in problems[:20]:
        print(f"problem: {problem}", file=sys.stderr)
    correct = failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
