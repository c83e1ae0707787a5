"""The p3fusion benchmark: cold-process jobs, output checks, per-layer trace.

    python3 perfbench/run.py --workload certify-p7 --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  One client, closed loop: jobs run one at a
time, each in a fresh interpreter (`perfbench/job.py`), and the next starts
only when the last has ended.  Jobs repeat while another fits in `--seconds`
(at least one).  With `--trace 0` the last line of output is a JSON object
with the end-to-end metrics; with `--trace 1` each round is an untraced job
and a traced one, and the object holds the per-layer metrics.
`--workload all` runs every workload, untraced and then traced, and prints
all their metrics.  Every job's record, spans included, is written as JSON
lines to `perfbench/out/`.

Workloads (why each exists is in perfbench/NOTES.md):
  certify-p7  D16x3 relabelled by the seed: solve, stability sweeps,
              uniqueness and the idempotent sweep; no realization.
  realize-p5  4S4: solve, then the transitivity check of the realization.
  verify-p3   D8 relabelled by the seed, then SD16, in the order of
              `p3fusion verify --all --oracle p3-exhaustive`.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
JOB = HERE / "job.py"
OUT = HERE / "out"

# Line partitions of the built-in systems as the package's catalog builds them:
# p -> [(lines, r), ...].  Line i < p is spanned by (1, i), line p by (0, 1).
BUILTIN = {
    "D8": (3, [((0, 3), 2), ((1, 2), 2)]),
    "SD16": (3, [((0, 1, 2, 3), 2)]),
    "4S4": (5, [((0, 1, 2, 3, 4, 5), 4)]),
    "D16x3": (7, [((0, 3, 4, 7), 2), ((1, 2, 5, 6), 2)]),
}

WORKLOADS = {
    "certify-p7": ("D16x3",),
    "realize-p5": ("4S4",),
    "verify-p3": ("D8", "SD16"),
}

# Extra cold set-ups, so setup_s is a median over several processes: this
# many before the jobs and after them, and one before each round of jobs.
# The machine's speed drifts over seconds, so the samples are spread out.
SETUP_EDGE_SAMPLES = 2
# Every run must end within this many seconds.
RUN_LIMIT_S = 170
# Layer spans must cover at least this share of the job span.
MIN_COVERAGE = 0.95

E2E_UNITS = {"job_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
LAYER_TIMES = ("group.ambient", "fusion.build", "fusion.classes", "solver.solve",
               "solver.unique", "biset.sweep_left", "biset.sweep_right", "biset.opposite",
               "biset.marks_fast", "biset.marks_oracle", "idempotent.verify", "realize.check")
LAYER_COUNTS = ("fusion.classes", "solver.feasible", "biset.mark_pairs", "biset.mark_nonzero",
                "realize.J_size", "realize.generators", "realize.orbits")


class BenchError(Exception):
    pass


# -- inputs ------------------------------------------------------------------------

def act_on_line(g, p: int, i: int) -> int:
    """Index of the line g . v_i, for g = (a, b, c, d) acting on column vectors."""
    a, b, c, d = g
    x, y = (1, i) if i < p else (0, 1)
    u, v = (a * x + b * y) % p, (c * x + d * y) % p
    return v * pow(u, p - 2, p) % p if u else p


def seeded_matrix(seed: int, p: int) -> tuple:
    """The element of GL_2(p) the seed picks, from the lexicographic list."""
    mats = [(a, b, c, d) for a in range(p) for b in range(p) for c in range(p)
            for d in range(p) if (a * d - b * c) % p]
    return random.Random(f"p3fusion-bench/{seed}/{p}").choice(mats)


def make_inputs(workload: str, seed: int) -> list:
    """The workload's systems.  Each multi-class system is relabelled by the
    seed's GL_2(p) element into a spec named "custom"; single-class systems
    are the same for every seed."""
    systems = []
    for source in WORKLOADS[workload]:
        p, classes = BUILTIN[source]
        entry = {"source": source}
        if len(classes) > 1:
            g = seeded_matrix(seed, p)
            classes = [(tuple(sorted(act_on_line(g, p, i) for i in lines)), r)
                       for lines, r in classes]
            classes.sort()
            name = "custom"
            entry["relabel"] = list(g)
        else:
            name = source
        entry["spec"] = {"prime": p, "name": name,
                         "classes": [{"lines": list(lines), "r": r} for lines, r in classes]}
        systems.append(entry)
    return systems


# -- run metadata ------------------------------------------------------------------

def git_sha():
    """HEAD of the checkout, or None where the checkout is not a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_loc() -> int:
    return sum(len(f.read_text().splitlines()) for f in (ROOT / "src" / "p3fusion").glob("*.py"))


def metadata(workload: str, seed: int, trace: bool, systems: list) -> dict:
    return {
        "workload": workload, "seed": seed, "trace": trace,
        "inputs": systems,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
        "src_loc": src_loc(),
    }


# -- jobs --------------------------------------------------------------------------

def child_env() -> dict:
    env = {k: v for k, v in os.environ.items()
           if k not in ("P3FUSION_WORKERS", "PYTHONPATH")}
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(script: Path, deadline: float, stdin: str = "") -> str:
    """Run one script of the benchmark in a fresh interpreter; return its output."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"out of time before {script.name}")
    try:
        proc = subprocess.run([sys.executable, str(script)], input=stdin, capture_output=True,
                              text=True, cwd=ROOT, env=child_env(), timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{script.name} exceeded {timeout:.0f} s and was killed") from exc
    if proc.returncode != 0:
        tail = "\n".join((proc.stdout + proc.stderr).strip().splitlines()[-8:])
        raise BenchError(f"{script.name} exited with code {proc.returncode}:\n{tail}")
    return proc.stdout


def layer_metrics(rec: dict) -> dict:
    """Per-layer self times and counts of one traced job."""
    spans = rec["spans"]
    out = {f"{name}_s": 0.0 for name in LAYER_TIMES}
    for s in spans:
        if f"{s['name']}_s" in out:
            out[f"{s['name']}_s"] += s["self_s"]
    for name in LAYER_COUNTS:
        out[name] = rec["counts"].get(name, 0)
    pairs = out["biset.mark_pairs"]
    out["biset.mark_nonzero_ratio"] = out["biset.mark_nonzero"] / pairs if pairs else 0.0
    job = next(s for s in spans if s["name"] == "job")
    covered = sum(s["dur_s"] for s in spans if s["parent"] == job["id"])
    out["trace.coverage"] = covered / job["dur_s"]
    return out


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith(("ratio", "coverage")) else "count"


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool) -> tuple:
    started = time.monotonic()
    deadline = started + RUN_LIMIT_S
    systems = make_inputs(workload, seed)
    meta = metadata(workload, seed, trace, systems)
    base = {"workload": workload, "systems": systems, "trace": False, "setup_only": False}
    ids = itertools.count()

    def start(payload: dict) -> dict:
        """One job process; its run id names it in the records and spans."""
        payload = dict(payload, run_id=f"{workload}-seed{seed}-{next(ids)}")
        return json.loads(run_child(JOB, deadline, json.dumps(payload)).splitlines()[-1])

    # The harness self-test first.  It also writes the bytecode caches, which
    # a user's installed package already has, before any set-up is timed.
    run_child(HERE / "selftest.py", deadline)
    setup_job = dict(base, setup_only=True)
    setups = [start(setup_job) for _ in range(SETUP_EDGE_SAMPLES)]

    plain, traced = [], []
    measure_start = time.monotonic()
    last_round = 0.0
    while not plain or time.monotonic() - measure_start + last_round <= seconds:
        t = time.monotonic()
        setups.append(start(setup_job))
        # Traced rounds alternate which of the pair runs first.
        order = (False, True) if len(plain) % 2 == 0 else (True, False)
        for traced_job in (order if trace else (False,)):
            rec = start(dict(base, trace=traced_job))
            (traced if traced_job else plain).append(rec)
        last_round = time.monotonic() - t
    setups += [start(setup_job) for _ in range(SETUP_EDGE_SAMPLES)]

    jobs = plain + traced
    for rec in jobs:
        if rec["error"]:
            print(f"operation failed: {rec['error']}", file=sys.stderr)
    checks = [c for rec in jobs for c in rec["checks"]]
    failed_checks = [c for c in checks if not c["ok"]]
    summary = {
        "correct": all(rec["check_summary"]["correct"] and not rec["error"] for rec in jobs),
        "attempted": sum(rec["ops_attempted"] for rec in jobs),
        "failed": sum(rec["ops_failed"] for rec in jobs),
    }
    check_info = {"attempted": len(checks), "failed": len(failed_checks),
                  "fail_ratio": len(failed_checks) / len(checks)}

    med = statistics.median
    e2e = {
        "job_s": med(r["job_s"] for r in plain),
        "setup_s": med(r["setup_s"] for r in setups + jobs),
        "peak_rss_mb": med(r["peak_rss_mb"] for r in plain),
    }
    samples = {"job_s": len(plain), "setup_s": len(setups) + len(jobs),
                "peak_rss_mb": len(plain)}
    if trace:
        per_job = [layer_metrics(r) for r in traced]
        layers = {k: med(m[k] for m in per_job) for k in per_job[0]}
        layers["trace.overhead_s"] = med(r["job_s"] for r in traced) - e2e["job_s"]
        layers["checks.attempted"] = check_info["attempted"]
        layers["checks.failed"] = check_info["failed"]
        layers["checks.fail_ratio"] = check_info["fail_ratio"]
        coverage_ok = all(m["trace.coverage"] >= MIN_COVERAGE for m in per_job)
        if not coverage_ok:
            print(f"layer spans cover less than {MIN_COVERAGE:.0%} of the job span", file=sys.stderr)
            summary["correct"] = False
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in sorted(layers.items())}
    else:
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in e2e.items()}

    OUT.mkdir(exist_ok=True)
    out_file = OUT / f"{workload}-seed{seed}-trace{int(trace)}.jsonl"
    with out_file.open("w") as fh:
        for kind, recs in (("setup", setups), ("job", plain), ("traced_job", traced)):
            for rec in recs:
                fh.write(json.dumps(dict(meta, kind=kind, **rec)) + "\n")
        fh.write(json.dumps(dict(meta, kind="summary", **summary, checks=check_info,
                                 e2e=e2e, samples=samples, metrics=metrics,
                                 wall_s=time.monotonic() - started)) + "\n")

    print(f"workload {workload}  seed {seed}  relabel "
          + ", ".join(f"{s['source']}->{[c['lines'] for c in s['spec']['classes']]}"
                      for s in systems))
    for k, v in e2e.items():
        print(f"  {k:<12s} {v:12.4f} {E2E_UNITS[k]:<3s} median of {samples[k]}")
    print(f"  checks       {check_info['failed']} of {check_info['attempted']} failed "
          f"(fail_ratio {check_info['fail_ratio']:.4f})")
    distinct = {(c["system"], c["check"], repr(c["got"])): c for c in failed_checks}
    for c in distinct.values():
        why = " (known defect, see perfbench/NOTES.md)" if c["known_defect"] else ""
        print(f"    FAIL {c['system']} {c['check']}: got {c['got']!r}, want {c['want']!r}{why}")
    if trace:
        for k, m in metrics.items():
            print(f"  {k:<26s} {m['value']:14.6f} {m['unit']}")
    print(f"  records in {out_file.relative_to(ROOT)}")
    return summary, metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"],
                    help="one workload, or all: every workload untraced, then traced")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        plan = [(w, t) for w in WORKLOADS for t in (False, True)]
    else:
        plan = [(args.workload, bool(args.trace))]
    results = {}
    try:
        for workload, trace in plan:
            results[workload, trace] = run_benchmark(workload, args.seed, args.seconds, trace)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    if len(plan) == 1:
        (summary, metrics), = results.values()
    else:
        summary = {"correct": all(s["correct"] for s, _ in results.values()),
                   "attempted": sum(s["attempted"] for s, _ in results.values()),
                   "failed": sum(s["failed"] for s, _ in results.values())}
        metrics = {f"{w}/{k}": m for (w, _), (_, ms) in results.items() for k, m in ms.items()}
    print(json.dumps(dict(summary, metrics=metrics)))
    return 0

if __name__ == "__main__":
    raise SystemExit(main())
