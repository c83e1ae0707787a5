"""Self-test of the benchmark's output checks.

    python3 perfbench/selftest.py

Runs the relabelled D8 table row and realization through the same checks the
verify-p3 workload uses, once against the README values and once with a
deliberately wrong expected e (e + 1).  The wrong value must raise the
fail ratio and make the run incorrect; the README values may fail only a
documented known defect.  Exits 0 when both hold.  `run.py` runs it before
every measurement.
"""

from __future__ import annotations

import sys

import job
import run


def checked(expected, system, row):
    ck = job.Checks(expected)
    ck.table_row("D8", row)
    job.step_realize(job.Tracer(False, "selftest"), ck, "D8", system, None)
    return ck.summary()


def main() -> int:
    job.import_program()
    from p3fusion import fusion_system, verify_table
    from p3fusion.fusion import FusionSystemSpec

    (d8,) = [s for s in run.make_inputs("verify-p3", seed=1) if s["source"] == "D8"]
    system = fusion_system(FusionSystemSpec.from_json(d8["spec"]))
    row = verify_table([system]).rows[0]

    good = checked(job.EXPECTED, system, row)
    p, f, d0, d1, d2, e, last = job.EXPECTED["D8"]
    wrong = dict(job.EXPECTED, D8=(p, f, d0, d1, d2, e + 1, last))
    bad = checked(wrong, system, row)

    print(f"README values: {good}")
    print(f"with e + 1:    {bad}")
    problems = []
    if not good["correct"]:
        problems.append("README values fail a check that is not a documented known defect")
    if not bad["fail_ratio"] > good["fail_ratio"]:
        problems.append("a wrong expected e did not raise fail_ratio")
    if bad["correct"]:
        problems.append("a wrong expected e still judged the run correct")
    for msg in problems:
        print(f"selftest FAILED: {msg}", file=sys.stderr)
    if not problems:
        print("selftest passed")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
