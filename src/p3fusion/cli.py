"""Command-line interface.

Commands: systems list, minimal, idempotent, realize, verify.
Exit codes: 0 success, 1 verification failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys

from .biset import biset_class, brute_force_fixed_points, count_fixed_points
from .errors import (
    P3FusionError,
    StabilityViolationError,
    TheoremViolationError,
    UnknownSystemError,
)
from .fusion import (
    FusionSystemSpec,
    builtin_systems,
    fusion_system,
    load_spec_file,
    realizing_group_name,
    resolve_system,
)
from .idempotent import verify_idempotent_stability
from .realize import check_transitivity
from .solver import TableReport, minimal_biset, verify_table

WORKERS_ENV = "P3FUSION_WORKERS"


def __getattr__(name: str):
    """ProcessPoolExecutor, imported on first use: concurrent.futures costs
    about 20 ms of every start, and only P3FUSION_WORKERS > 1 makes a pool."""
    if name != "ProcessPoolExecutor":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from concurrent.futures import ProcessPoolExecutor
    return ProcessPoolExecutor


def _print_json(data):
    print(json.dumps(data, indent=2))


def _format_table(rows, columns):
    widths = [max(len(str(col)), max((len(str(r[col])) for r in rows), default=0))
              for col in columns]
    header = "  ".join(str(col).ljust(w) for col, w in zip(columns, widths))
    lines = [header, "-" * len(header)]
    for r in rows:
        lines.append("  ".join(str(r[col]).ljust(w) for col, w in zip(columns, widths)))
    return "\n".join(lines)


def _resolve_spec(args) -> FusionSystemSpec:
    if getattr(args, "config", None):
        return load_spec_file(args.config)
    return resolve_system(args.system)


def cmd_systems_list(_args) -> int:
    rows = []
    for spec in builtin_systems():
        group = realizing_group_name(spec)
        rows.append({
            "system": spec.name,
            "p": spec.p,
            "classes": ", ".join(
                f"{sorted(c.members)} r={c.r}" for c in spec.classes),
            "group": group if group else "exotic",
        })
    print(_format_table(rows, ["system", "p", "classes", "group"]))
    return 0


def cmd_minimal(args) -> int:
    spec = _resolve_spec(args)
    system = fusion_system(spec)
    certify = not args.no_certify
    result = minimal_biset(system, certify=certify)
    data = result.to_json()
    if args.format == "json":
        _print_json(data)
    else:
        rows = [{
            "system": result.system_name, "p": result.p, "f": result.f,
            "d0": result.d0, "d1": result.d1, "d2": result.d2, "e": result.e,
            "group_or_bound": (result.exoticity_bound_value if result.exotic
                               else realizing_group_name(spec)),
        }]
        print(_format_table(rows, ["system", "p", "f", "d0", "d1", "d2", "e",
                                   "group_or_bound"]))
        certs = data["certificates"]
        print("certificates: " + (", ".join(f"{k}={v}" for k, v in sorted(certs.items()))
                                  if certify else "not checked"))
    if certify and not result.certificates_ok():
        print("certificate failure", file=sys.stderr)
        return 1
    return 0


def cmd_idempotent(args) -> int:
    spec = _resolve_spec(args)
    system = fusion_system(spec)
    report = verify_idempotent_stability(system)
    data = report.to_json()
    if args.format == "json":
        _print_json(data)
    else:
        print(f"system {report.system_name}")
        for name, value in data["coefficients"].items():
            print(f"  {name} = {value}")
        for layer, value in sorted(data["layer_sums"].items()):
            print(f"  layer {layer} coefficient sum = {value}")
        print(f"  stability: left={report.stable_left} right={report.stable_right}")
    return 0 if report.ok else 1


def cmd_realize(args) -> int:
    system = fusion_system(_resolve_spec(args))
    report = check_transitivity(system)
    if args.format == "json":
        _print_json(report.to_json())
    else:
        r = report.to_json()
        print(f"system {r['system']}: |J| = {r['J_size']}, "
              f"{r['generator_count']} generators, {r['orbit_count']} orbit(s), "
              f"J0 orbits = {r['J0_orbit_count']}, regular = {r['J0_regular']}")
    return 0


# -- verify suites ------------------------------------------------------------

def _suite_stability(system) -> dict:
    res = minimal_biset(system, certify=True)
    out = {"suite": "stability", "system": system.spec.name, "ok": res.certificates_ok(),
           "stable_left": res.stable_left, "stable_right": res.stable_right,
           "minimal": res.minimal, "unique": res.unique}
    if res.witness:
        out["witness"] = _witness(*res.witness)
    return out


def _witness(side, rep, lhs, rhs) -> dict:
    mor = rep.morphism
    gens = mor.source.canonical_gens
    return {"side": side, "kind": rep.kind,
            "source_generators": [[g.a, g.b, g.c] for g in gens],
            "image_generators": [[h.a, h.b, h.c] for h in map(mor, gens)],
            "lhs": str(lhs), "rhs": str(rhs)}


def _describe_witness(w) -> str:
    pairs = ", ".join(f"{tuple(g)}->{tuple(h)}"
                      for g, h in zip(w["source_generators"], w["image_generators"]))
    return (f"{w['side']} sweep at the {w['kind']} class [{pairs}]: "
            f"mark {w['lhs']}, identity-class mark {w['rhs']}")


def _suite_idempotent(system) -> dict:
    report = verify_idempotent_stability(system)
    out = {"suite": "idempotent", "system": system.spec.name, "ok": report.ok}
    if report.witness:
        out["witness"] = _witness(*report.witness)
    return out


def _suite_realize(system) -> dict:
    report = check_transitivity(system)
    data = report.to_json()
    data["suite"] = "realize"
    return data


def _marks_pairs(system, oracle) -> list:
    """Every pair of class reps under p3-exhaustive at p = 3, else 200 seeded
    pairs, every other one a rep against its restriction to a random subgroup
    R of its source: a nonzero mark, since x = 1 is a transporter."""
    reps = [r.cls for r in system.all_class_reps()]
    if oracle == "p3-exhaustive" and system.p == 3:
        return [(a, b) for a in reps for b in reps]
    rng = random.Random(20100501 + system.p)
    pairs = []
    for k in range(200):
        a = rng.choice(reps)
        if k % 2:
            r = rng.choice([q for q in system.group.all_subgroups if q <= a.source])
            pairs.append((a, biset_class(a.rep.restrict(r))))
        else:
            pairs.append((a, rng.choice(reps)))
    return pairs


def _suite_marks(system, oracle) -> dict:
    pairs = _marks_pairs(system, oracle)
    failures = []
    for a, b in pairs:
        fast, slow = count_fixed_points(a, b), brute_force_fixed_points(a, b)
        if fast != slow:
            failures.append({"pair": (repr(a), repr(b)), "fast": fast, "slow": slow})
    return {"suite": "marks", "system": system.spec.name, "oracle": oracle,
            "pairs_checked": len(pairs), "ok": not failures, "failures": failures}


_SUITE_RUNNERS = {
    "stability": _suite_stability,
    "idempotent": _suite_idempotent,
    "realize": _suite_realize,
}


def _run_system_suites(task):
    """Build the spec's system once, take its table row if asked, run its
    suites on it and let it go: ((table rows, mismatches), suite results)."""
    spec, table, suites, oracle = task
    system = fusion_system(spec)
    report = verify_table([system]) if table else ([], [])
    out = []
    for suite in suites:
        try:  # a failed certificate fails its suite, and the others still run
            out.append(_suite_marks(system, oracle) if suite == "marks"
                       else _SUITE_RUNNERS[suite](system))
        except (StabilityViolationError, TheoremViolationError) as exc:
            out.append({"suite": suite, "system": spec.name, "ok": False, "error": str(exc)})
    return report, out


def _suite_filter(suite, spec, args) -> str | None:
    """Why verify skips this suite here, or None: only --oracle skips one,
    the marks suite, which it turns off or limits to p = 3."""
    if suite == "marks" and args.oracle != "sampled" and (args.oracle == "off" or spec.p != 3):
        return f"--oracle {args.oracle} skips the marks suite at p = {spec.p}"
    return None


def cmd_verify(args) -> int:
    raw = os.environ.get(WORKERS_ENV, "1")
    try:
        workers = int(raw)
    except ValueError:
        workers = 0
    if workers < 1:
        print(f"{WORKERS_ENV} must be an integer of at least 1, got {raw!r}", file=sys.stderr)
        return 2
    if args.all:
        for flag in ("table", "marks", "stability", "idempotent", "realize"):
            setattr(args, flag, True)
    wanted = [s for s in ("marks", "stability", "idempotent", "realize")
              if getattr(args, s)]
    if not wanted and not args.table:
        print("nothing selected; use --all or choose suites", file=sys.stderr)
        return 2
    if args.system or args.config:
        specs = [_resolve_spec(args)]
    else:
        specs = list(builtin_systems())
    tasks = []
    for spec in specs:
        suites = [s for s in wanted if not _suite_filter(s, spec, args)]
        if suites or args.table:
            tasks.append((spec, args.table, suites, args.oracle))
    if not tasks:  # no table, and every selected suite was filtered out
        reasons = dict.fromkeys(_suite_filter(s, spec, args) for spec in specs for s in wanted)
        print("nothing to verify: " + "; ".join(reasons), file=sys.stderr)
        return 2
    if workers > 1 and len(tasks) > 1:
        # read off the module, which imports the pool's class only now
        with sys.modules[__name__].ProcessPoolExecutor(max_workers=workers) as pool:
            done = list(pool.map(_run_system_suites, tasks))
    else:
        done = [_run_system_suites(task) for task in tasks]
    rows, mismatches, results = [], [], []
    for (system_rows, missed), chunk in done:
        rows += system_rows
        mismatches += missed
        results += chunk
    if args.table:  # one table suite over every system, printed first
        results.insert(0, {"suite": "table", **TableReport(rows, mismatches).to_json()})
    ok = all(r["ok"] for r in results)
    if args.format == "json":
        _print_json({"ok": ok, "results": results})
    else:
        for r in results:
            label = r.get("system", "all")
            line = f"{r['suite']:<11s} {label:<8s} {'PASS' if r['ok'] else 'FAIL'}"
            if "witness" in r:
                line += "  " + _describe_witness(r["witness"])
            if "error" in r:
                line += "  " + r["error"]
            print(line)
            if r["suite"] == "table":
                bad = {m["system"] for m in r["mismatches"]}
                for row in r["rows"]:
                    verdict = "FAIL" if row["system"] in bad else "PASS"
                    print(f"    {row['system']:<7s} p={row['p']} f={row['f']:<3d} "
                          f"d0={row['d0']:<3d} d1={row['d1']:<4d} d2={row['d2']:<5d} "
                          f"e={row['e']:<7d} {str(row['group_or_bound']):<9s} {verdict}")
                for miss in r["mismatches"]:
                    print(f"    MISMATCH {miss}")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="p3fusion",
        description="Minimal characteristic bisets and permutation realizations "
                    "of fusion systems on extraspecial groups of order p^3.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_systems = sub.add_parser("systems", help="list the built-in systems")
    p_systems.add_argument("action", choices=["list"])
    p_systems.set_defaults(func=cmd_systems_list)

    def add_common(p):
        p.add_argument("--system", help="built-in system name or alias")
        p.add_argument("--config", help="path to a JSON system description")
        p.add_argument("--format", choices=["table", "json"], default="table")

    p_min = sub.add_parser("minimal", help="compute the minimal characteristic biset")
    add_common(p_min)
    p_min.add_argument("--no-certify", action="store_true",
                       help="skip the stability and uniqueness certification")
    p_min.set_defaults(func=cmd_minimal)

    p_idem = sub.add_parser("idempotent", help="idempotent coefficients, layers 0-2")
    add_common(p_idem)
    p_idem.set_defaults(func=cmd_idempotent)

    p_real = sub.add_parser("realize", help="transitivity of the realized fusion action")
    add_common(p_real)
    p_real.set_defaults(func=cmd_realize)

    p_ver = sub.add_parser("verify", help="run verification suites")
    add_common(p_ver)
    p_ver.add_argument("--all", action="store_true", help="all suites, all systems")
    p_ver.add_argument("--table", action="store_true")
    p_ver.add_argument("--marks", action="store_true")
    p_ver.add_argument("--stability", action="store_true")
    p_ver.add_argument("--idempotent", action="store_true")
    p_ver.add_argument("--realize", action="store_true")
    p_ver.add_argument("--oracle", choices=["off", "p3-exhaustive", "sampled"],
                       default="off")
    p_ver.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "system", None) and getattr(args, "config", None):
        parser.error("--system and --config are mutually exclusive")
    if args.command in ("minimal", "idempotent", "realize") and \
            not getattr(args, "system", None) and not getattr(args, "config", None):
        parser.error(f"{args.command} needs --system or --config")
    try:
        return args.func(args)
    except UnknownSystemError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except OSError as exc:  # a --config path that is missing, a directory, unreadable
        print(str(exc), file=sys.stderr)
        return 2
    except P3FusionError as exc:
        print(str(exc), file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
