"""A pinned digest of everything ``generate`` draws.

perfbench builds every op's input with ``generate``, and its answer pins
depend on the exact random stream.  The digest covers seeded ``GenParams``
over every species, every error path, density 0 and 1, k = 1 and 2 and
narrow and wide threshold ranges, plus the first ops of each perfbench
workload.  Any change in what is drawn, or in what order, changes it.
"""

import hashlib
import importlib.util
import random
import sys
from dataclasses import fields
from pathlib import Path

from apep.cli import GenParams, generate, serialize_instance

ROOT = Path(__file__).resolve().parents[1]
SPECIES = tuple(f.name for f in fields(GenParams) if f.default == 0 and f.name != "seed")
GENERATE_SHA256 = "3cfdcc8e400f91420a33d24842957b528a10f4e34e4faea8e9950fd0e7246015"


def seeded_params(count: int):
    """``count`` seeded ``GenParams``, a good share of them invalid on purpose."""
    rng = random.Random(17)
    for seed in range(count):
        k = rng.choice((1, 2, 2, *range(3, 9)))
        t_min = rng.randint(1, 3)
        counts = {name: rng.randint(1, 3) for name in SPECIES if rng.random() < 0.3}
        yield GenParams(
            n=rng.choice((1, 2, rng.randint(3, 30))),
            k=k,
            density=rng.choice((0.0, 0.3, 0.7, 1.0)),
            seed=seed,
            t_min=t_min,
            t_max=t_min + rng.choice((0, 0, 1, 4)),
            **counts,
        )
    yield from (GenParams(n=0, k=2), GenParams(n=2, k=0), GenParams(n=2, k=2, density=1.5),
                GenParams(n=2, k=2, t_min=0), GenParams(n=2, k=2, t_min=3, t_max=2),
                GenParams(n=3, k=3, gcard=4, t_min=2, t_max=2),
                GenParams(n=3, k=1, lcard=4, smer=1, teamsod=1, t_min=1, t_max=1),
                GenParams(n=3, k=1, lcard=3, smer=1, t_min=1, t_max=1),
                GenParams(n=3, k=1, lcard=3, teamsod=1, t_min=1, t_max=1))


def _workloads():
    path = ROOT / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module.WORKLOADS


def _outcome(params: GenParams) -> str:
    try:
        return serialize_instance(generate(params))
    except ValueError as e:
        return f"{type(e).__name__}: {e}"


def generate_digest() -> str:
    h = hashlib.sha256()
    for params in seeded_params(1200):
        h.update(f"{params!r}\n{_outcome(params)}\n".encode())
    for name, workload in sorted(_workloads().items()):
        for seed in (1, 301):
            for i in range(30):
                fields_, mode = workload.op(seed, i)
                h.update(f"{name} {seed} {i} {mode}\n".encode())
                h.update(_outcome(GenParams(**fields_)).encode())
    return h.hexdigest()


def test_generate_stream_is_pinned():
    assert generate_digest() == GENERATE_SHA256
