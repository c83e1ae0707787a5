"""Acceptance gate: one test per criterion, each printing a pass line.

Exact-arithmetic checks throughout; no tolerances anywhere.
"""

import hashlib
import json
import random

from oracles import (
    all_graph_classes,
    builtin_fusion_system,
    decompose_by_marks,
    explicit_from_formal,
)
from p3fusion.biset import (
    FormalBiset,
    biset_class,
    brute_force_fixed_points,
    count_fixed_points,
    is_left_stable,
    is_right_stable,
)
from p3fusion.group import identity_morphism
from p3fusion.idempotent import (
    closed_forms,
    rational_solve,
    verify_idempotent_stability,
)
from p3fusion.realize import check_transitivity, j0_class_action_checks
from p3fusion.solver import (
    enumerate_feasible_upto,
    exoticity_bound,
    minimal_biset,
    size_of,
)

ALL = ("D8", "SD16", "4S4", "D16x3", "6sq:2", "SD32x3")

EXPECTED = {
    # name: (p, f, d0, d1, d2, e)
    "D8": (3, 4, 8, 32, 96, 968),
    "SD16": (3, 8, 16, 64, 192, 1936),
    "4S4": (5, 24, 96, 576, 2880, 74976),
    "D16x3": (7, 8, 48, 384, 2688, 134448),
    "6sq:2": (7, 12, 72, 576, 4032, 201672),
    "SD32x3": (7, 16, 96, 768, 5376, 268896),
}

EXPECTED_BOUNDS = {"D16x3": 425744, "6sq:2": 638620, "SD32x3": 851496}

# SHA-256 of `realize --format json` at p = 7 without wall_time_s,
# dumped with sorted keys as in test_golden.py
REALIZE_DIGESTS = {
    "D16x3": "aa9c51c9e0a242d0a60868fabdec5e96f9a695bac8917f39f4ff698671ab49bc",
    "6sq:2": "af986c300b2f76c8899d3b3dfd4da7690fdce14f15787fe8899bd5ba9631d462",
    "SD32x3": "c748d10db4b5b9b9d8082ae83e3f7d9bb6beb732b7856cea9615e630e9ff469f",
}

_RESULTS = {}


def _solved(name, certify=False):
    key = (name, certify)
    if key not in _RESULTS:
        _RESULTS[key] = minimal_biset(builtin_fusion_system(name), certify=certify)
    return _RESULTS[key]


def _ok(criterion, message):
    print(f"PASS criterion {criterion}: {message}")


def test_criterion_1_table_reproduction():
    for name in ALL:
        res = _solved(name)
        got = (res.p, res.f, res.d0, res.d1, res.d2, res.e)
        assert got == EXPECTED[name], f"{name}: {got} != {EXPECTED[name]}"
        # d-values counted from the solved biset, not from formulas
        assert res.d0 == res.biset.layer(0).transitive_count()
        assert res.d1 == res.biset.layer(1).transitive_count()
        assert res.d2 == res.biset.layer(2).transitive_count()
    _ok(1, "all six (f, d0, d1, d2, e) rows reproduced exactly")


def test_criterion_2_exoticity_bounds():
    for name, bound in EXPECTED_BOUNDS.items():
        res = _solved(name)
        assert res.exotic
        assert res.exoticity_bound_value == bound
        assert exoticity_bound(res.e, res.p) == bound
    _ok(2, "bounds 425744, 638620, 851496 reproduced exactly")


def test_criterion_3_closed_form_identity():
    for name in ALL:
        res = _solved(name)
        system = builtin_fusion_system(name)
        out_order = len(system.out_matrices)  # the constructed matrix group
        assert res.e == (res.p**5 - 1) // (res.p - 1) * out_order
    _ok(3, "e = (p^5-1)/(p-1) * |Out| with the computed group order, all six")


def test_criterion_4_stability_certification():
    for name in ALL:
        system = builtin_fusion_system(name)
        x = _solved(name).biset
        left = is_left_stable(system, x)
        right = is_right_stable(system, x)
        assert left.ok, f"{name} left witness: {left.witness}"
        assert right.ok, f"{name} right witness: {right.witness}"
    _ok(4, "full left and right stability sweeps pass for all six systems")


def test_criterion_5_uniqueness_certification():
    for name in ALL:
        system = builtin_fusion_system(name)
        e_min = EXPECTED[name][5]
        feasible = enumerate_feasible_upto(system, e_min)
        assert len(feasible) == 1, f"{name}: {len(feasible)} feasible at e <= {e_min}"
        assert size_of(system, feasible[0]) == e_min
    _ok(5, "exactly one feasible coefficient tuple of minimal size per system")


def test_criterion_6_oracle_equivalence():
    total = 0
    for name in ("D8", "SD16"):
        system = builtin_fusion_system(name)
        reps = [biset_class(r.morphism) for r in system.all_class_reps()]
        reps.append(biset_class(identity_morphism(system.group.trivial)))
        for a in reps:
            for b in reps:
                assert count_fixed_points(a, b) == brute_force_fixed_points(a, b)
                total += 1
    # at p = 5 and 7 two random classes almost never have a nonzero mark, so
    # every other pair is a class against its restriction to a random
    # subgroup R of its source, where x = 1 is a transporter
    sampled = nonzero = 0
    for name in ("4S4", "6sq:2"):
        system = builtin_fusion_system(name)
        reps = [biset_class(r.morphism) for r in system.all_class_reps()]
        rng = random.Random(62 + system.p)
        here = 0
        for k in range(200):
            a = rng.choice(reps)
            if k % 2:
                r = rng.choice([q for q in system.group.all_subgroups if q <= a.source])
                b = biset_class(a.rep.restrict(r))
            else:
                b = rng.choice(reps)
            value = brute_force_fixed_points(a, b)
            assert count_fixed_points(a, b) == value
            sampled += 1
            here += value != 0
        assert here >= 100, f"{name}: {here} nonzero marks in 200 pairs"
        nonzero += here
    _ok(6, f"transporter formula equals explicit count on {total} exhaustive "
           f"p=3 pairs and {sampled} sampled pairs at p=5,7, {nonzero} of them nonzero")


def test_criterion_7_idempotent_coefficients():
    from fractions import Fraction

    d8 = builtin_fusion_system("D8")
    forms = closed_forms(d8)
    assert forms["c0"] == Fraction(1, 8)
    assert forms["c2_z"] == Fraction(3, 26)
    for name in ALL:
        system = builtin_fusion_system(name)
        assert rational_solve(system) == closed_forms(system)
        report = verify_idempotent_stability(system)
        assert report.sum_conditions_ok, name
        assert report.stable_left and report.stable_right, name
        assert report.z_local, name
    _ok(7, "closed forms re-derived by the rational solve and both layer-sum "
           "conditions hold exactly, all six")


def test_criterion_8_realization():
    sizes = {}
    for name in ALL:
        system = builtin_fusion_system(name)
        report = check_transitivity(system)  # raises unless J and J0 are one orbit each
        j0_class_action_checks(system, _solved(name).biset)  # raises if not regular
        sizes[name] = report.j_size
        if name in REALIZE_DIGESTS:
            data = report.to_json()
            del data["wall_time_s"]
            digest = hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest()
            assert digest == REALIZE_DIGESTS[name], name
    assert sizes["D8"] == 968 and sizes["SD16"] == 1936
    assert sizes["4S4"] == 74976
    assert sizes["D16x3"] == 134448 and sizes["6sq:2"] == 201672
    assert sizes["SD32x3"] == 268896
    _ok(8, "one orbit on J for all six systems; outer classes act regularly "
           "on the singleton labels")


def test_criterion_9_burnside_injectivity():
    rng = random.Random(1936)
    classes = all_graph_classes(3)
    recovered = 0
    for _ in range(100):
        support = rng.sample(classes, k=rng.randint(1, 3))
        b = FormalBiset(3, {cls: rng.randint(1, 2) for cls in support})
        back = decompose_by_marks(explicit_from_formal(b))
        assert back == b
        recovered += 1
    _ok(9, f"{recovered} random p=3 formal bisets recovered exactly by marks")
