"""Rewrite pins.json: the answers of the first ops of every workload stream.

The gate compares each of the first ``run.PIN_OPS`` solve ops at the
default seed against these answers.  Regenerate them only in a change that
alters a workload's stream, never to make a run pass:

    python3 perfbench/make_pins.py
"""

import json

import run
from workloads import WORKLOADS


def main() -> None:
    apep = run.import_apep()
    lines = []
    for name, workload in WORKLOADS.items():
        answers = []
        for i in range(run.PIN_OPS):
            text, mode = run.make_input(apep, workload, run.DEFAULT_SEED, i)
            report, _ = run.solve_op(apep, text, mode)
            answers.append(run.answer(report, mode))
        lines.append(f"  {json.dumps(name)}: {json.dumps(answers)}")
    (run.HERE / "pins.json").write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")


if __name__ == "__main__":
    main()
