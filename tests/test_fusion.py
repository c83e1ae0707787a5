import hashlib
from collections import Counter
from functools import lru_cache

import pytest

from oracles import (builtin_fusion_system, compose_morphisms, conjugation_morphism,
                     reference_lift)
from p3fusion import fusion, group
from p3fusion.errors import InconsistentSpecError, UnknownSystemError
from p3fusion.fusion import (
    _MAX_SPEC_PRIME,
    FusionClass,
    FusionSystemSpec,
    MatrixGL2,
    act_on_line,
    aut_F_V,
    build_out_F,
    builtin_systems,
    gl2_elements,
    lambda_sets,
    lift_matrix_to_aut,
    line_scaling,
    _nonsquare,
    matrix_closure,
    matrix_of_automorphism,
    power_subgroup,
    realizing_group_name,
    resolve_system,
)
from p3fusion.group import ambient_group, identity_morphism


EXPECTED_ROWS = {
    # name: (p, sorted class sizes with r, f, |Out|)
    "D8": (3, [(2, 2), (2, 2)], 4, 8),
    "SD16": (3, [(4, 2)], 8, 16),
    "4S4": (5, [(6, 4)], 24, 96),
    "D16x3": (7, [(4, 2), (4, 2)], 8, 48),
    "6sq:2": (7, [(2, 6), (6, 2)], 12, 72),
    "SD32x3": (7, [(8, 2)], 16, 96),
}


def test_builtin_systems_table():
    systems = builtin_systems()
    assert len(systems) == 6
    for spec in systems:
        p, sizes, f, out = EXPECTED_ROWS[spec.name]
        assert spec.p == p
        got = sorted((len(c.members), c.r) for c in spec.classes)
        assert got == sorted(sizes)
        assert spec.f == f
        assert spec.out_order == out
        assert sum(len(c.members) for c in spec.classes) == p + 1


def test_realizing_groups():
    names = {s.name: realizing_group_name(s) for s in builtin_systems()}
    assert names["D8"] == "2F4(2)'"
    assert names["SD16"] == "J4"
    assert names["4S4"] == "Th"
    assert names["D16x3"] is None
    assert names["6sq:2"] is None
    assert names["SD32x3"] is None


def test_realizing_group_ignores_name_and_line_labels():
    d8 = resolve_system("d8")
    g = MatrixGL2(3, 1, 1, 0, 1)
    moved = tuple(FusionClass(frozenset(act_on_line(g, i) for i in cls.members), cls.r)
                  for cls in d8.classes)
    relabelled = FusionSystemSpec(3, "custom", moved)
    assert {c.members for c in relabelled.classes} != {c.members for c in d8.classes}
    assert realizing_group_name(relabelled) == "2F4(2)'"
    assert realizing_group_name(FusionSystemSpec(3, "custom", d8.classes)) == "2F4(2)'"
    sd16 = resolve_system("sd16")
    assert realizing_group_name(FusionSystemSpec(3, "D8", sd16.classes)) == "J4"
    # a relabelled p = 7 row stays exotic
    custom = FusionSystemSpec(
        7, "6sq:2",
        (FusionClass(frozenset({0, 1}), 6), FusionClass(frozenset({2, 3, 4, 5, 6, 7}), 2)),
    )
    assert realizing_group_name(custom) is None


def test_spec_refuses_prime_above_limit():
    # the library path refuses the primes a description file is refused for
    with pytest.raises(ValueError, match="above the supported maximum 23"):
        FusionSystemSpec(29, "custom", (FusionClass(frozenset(range(30)), 28),))
    assert FusionSystemSpec(23, "custom", (FusionClass(frozenset(range(24)), 2),)).p == 23


def test_resolve_aliases():
    assert resolve_system("d8").name == "D8"
    assert resolve_system("j4").name == "SD16"
    assert resolve_system("th").name == "4S4"
    assert resolve_system("rv48").name == "D16x3"
    assert resolve_system("rv72").name == "6sq:2"
    assert resolve_system("rv96").name == "SD32x3"
    with pytest.raises(UnknownSystemError):
        resolve_system("nope")


def test_spec_validation():
    with pytest.raises(InconsistentSpecError):
        FusionSystemSpec(3, "bad", (FusionClass(frozenset({0, 1}), 2),))
    with pytest.raises(InconsistentSpecError):
        FusionSystemSpec(
            3, "bad",
            (FusionClass(frozenset({0, 1}), 2), FusionClass(frozenset({2, 3}), 1)),
        )
    with pytest.raises(ValueError):
        FusionSystemSpec(4, "bad", (FusionClass(frozenset(range(5)), 1),))


def test_spec_survives_pickling_and_replace_still_validates():
    # the verify worker pool pickles each spec; unpickling and _replace both
    # build through the validating constructor
    import pickle

    spec = FusionSystemSpec(
        3, "custom", (FusionClass(frozenset({0, 1}), 2), FusionClass(frozenset({2, 3}), 2)))
    again = pickle.loads(pickle.dumps(spec))
    assert again == spec and type(again) is FusionSystemSpec
    assert {c.members for c in again.classes} == {frozenset({0, 1}), frozenset({2, 3})}
    with pytest.raises(InconsistentSpecError, match="do not cover"):
        spec._replace(classes=spec.classes[:1])
    with pytest.raises(InconsistentSpecError, match="do not cover"):
        FusionSystemSpec(3, "bad", spec.classes[:1])


@pytest.mark.parametrize("r", [0, -6, 2.0, True], ids=["zero", "negative", "float", "bool"])
def test_spec_refuses_r_not_a_positive_int(r):
    # each of these divides p - 1 = 6 in Python arithmetic, or divides by zero
    with pytest.raises(InconsistentSpecError, match="not a positive integer"):
        FusionSystemSpec(7, "bad", (FusionClass(frozenset(range(8)), r),))


def test_spec_json_roundtrip():
    for spec in builtin_systems():
        assert FusionSystemSpec.from_json(spec.to_json()) == spec


@pytest.mark.parametrize("change, field", [
    ({"name": None}, "'name'"),
    ({"classes": [{"lines": [0, 1, 2, 3], "r": 2.5}]}, r"'classes\[0\]\.r'"),
    ({"prime": True}, "'prime'"),
    ({"classes": [{"lines": ["0", "1", "2", "3"], "r": 2}]}, r"'classes\[0\]\.lines'"),
    ({"classes": [{"lines": [0, 1, 1, 2, 3], "r": 2}]}, r"'classes\[0\]\.lines' repeats line 1"),
], ids=["name-none", "r-float", "prime-bool", "lines-strings", "line-repeated"])
def test_spec_from_json_refuses_what_a_file_is_refused_for(change, field):
    # the library entry must not coerce a field into a different system
    data = {"prime": 3, "name": "custom",
            "classes": [{"lines": [0, 1, 2, 3], "r": 2}], **change}
    with pytest.raises(UnknownSystemError, match=f"field {field}"):
        FusionSystemSpec.from_json(data)


def test_f_number_values():
    by_name = {s.name: s for s in builtin_systems()}
    assert by_name["SD16"].f == 8
    assert by_name["6sq:2"].f == 12
    assert by_name["4S4"].f == 24


def test_aut_F_V_orders():
    by_name = {s.name: s for s in builtin_systems()}
    d8 = by_name["D8"]
    full_gl23 = aut_F_V(d8, 0)
    assert len(full_gl23) == 48  # r = p-1 allows every determinant
    sd32 = by_name["SD32x3"]
    assert len(aut_F_V(sd32, 0)) == 7 * 48 * 2
    # diagonal part has (p-1) * r elements
    for spec in builtin_systems():
        p = spec.p
        for cls in spec.classes:
            i = min(cls.members)
            diag = {m for m in aut_F_V(spec, i) if m.b == 0 and m.c == 0}
            assert len(diag) == (p - 1) * cls.r


def test_closed_forms_match_a_primitive_root():
    # power_subgroup and _nonsquare read F_p^* as cyclic, with no root; against
    # the powers of a primitive root found by search, at every supported odd prime
    primes = [p for p in range(3, _MAX_SPEC_PRIME + 1) if all(p % q for q in range(2, p))]
    assert primes == [3, 5, 7, 11, 13, 17, 19, 23]
    for p in primes:
        mu = next(g for g in range(2, p) if len({pow(g, k, p) for k in range(p - 1)}) == p - 1)
        for r in (r for r in range(1, p) if (p - 1) % r == 0):
            h = pow(mu, (p - 1) // r, p)
            assert power_subgroup(p, r) == {pow(h, k, p) for k in range(r)}
        squares = {x * x % p for x in range(1, p)}
        assert _nonsquare(p) == min(set(range(1, p)) - squares)


def test_lambda_sets():
    by_name = {s.name: s for s in builtin_systems()}
    d8 = by_name["D8"]
    lam = lambda_sets(d8, 0)
    assert lam.extendable == {(k, l) for k in (1, 2) for l in (1, 2)}
    sd32 = by_name["SD32x3"]
    lam7 = lambda_sets(sd32, 0)
    assert len(lam7.extendable) == 12
    assert len(lam7.nonextendable) == 12
    # disjoint iff -1 is outside the allowed determinant group
    for spec in builtin_systems():
        for cls in spec.classes:
            i = min(cls.members)
            lam_i = lambda_sets(spec, i)
            allowed = power_subgroup(spec.p, cls.r)
            disjoint = not (lam_i.extendable & lam_i.nonextendable)
            assert disjoint == ((spec.p - 1) % spec.p not in allowed)
            assert len(lam_i.extendable) == (spec.p - 1) * cls.r
            assert len(lam_i.nonextendable) == (spec.p - 1) * cls.r


def test_build_out_F_orders():
    by_name = {s.name: s for s in builtin_systems()}
    assert len(build_out_F(by_name["D8"])) == 8
    assert len(build_out_F(by_name["SD32x3"])) == 96
    for spec in builtin_systems():
        mats = build_out_F(spec)
        assert len(mats) == (spec.p - 1) * spec.f
        # closed under product and inverse
        some = sorted(mats)[:6]
        for m in some:
            assert m.inv() in mats
            for n in some:
                assert m * n in mats
        # z-action fibers all have size f
        for m in range(1, spec.p):
            fiber = [g for g in mats if g.det() == m]
            assert len(fiber) == spec.f


def test_build_out_F_relabelled_custom_spec():
    # same shape as the 6sq:2 row but with a permuted partition
    spec = FusionSystemSpec(
        7, "custom",
        (FusionClass(frozenset({0, 1}), 6), FusionClass(frozenset({2, 3, 4, 5, 6, 7}), 2)),
    )
    mats = build_out_F(spec)
    assert len(mats) == 72


@pytest.mark.parametrize("name", [row[1] for row in fusion._BUILTIN_ROWS])
def test_outer_group_not_closed_under_product_is_refused(name):
    # one involution of the row traded for one outside it: the order and the
    # inverses stay, but a proper subset of a group of order above 2 is no
    # group, so the products leave the set
    spec = resolve_system(name)
    mats = build_out_F(spec)
    inside = next(m for m in sorted(mats) if not m.is_identity() and (m * m).is_identity())
    outside = next(m for m in gl2_elements(spec.p)
                   if m not in mats and (m * m).is_identity())
    swapped = (mats - {inside}) | {outside}
    assert len(swapped) == len(mats) and all(m.inv() in swapped for m in swapped)
    with pytest.raises(InconsistentSpecError, match="^outer group not closed under product$"):
        fusion._verify_out_group(spec, swapped)


def test_build_out_F_unsupported_spec():
    # consistent descriptions that no built-in row matches: primes with no row,
    # and a p = 7 shape (one class of all 8 lines with r = 1) of no row
    for p, r in ((11, 2), (23, 2), (7, 1)):
        spec = FusionSystemSpec(p, "custom", (FusionClass(frozenset(range(p + 1)), r),))
        with pytest.raises(InconsistentSpecError, match="no built-in system"):
            build_out_F(spec)


# SHA-256 of repr(sorted(build_out_F(spec))) for each built-in row, then for
# the row relabelled by the elements at OUT_F_RELABELLINGS in gl2_elements(p);
# recorded while acceptance still tried every catalog construction in turn
OUT_F_RELABELLINGS = (1, 19, 40)
OUT_F_DIGESTS = {
    "D8": ("cc301372ec33515a96f6b35ff2d9f7bc393b19e0eac9313f5ab99656fbff67e5",
           "b257b9529ec141f8d3c23d9cfd811125eb043814cafed8c349d88b5d07bed22f",
           "b257b9529ec141f8d3c23d9cfd811125eb043814cafed8c349d88b5d07bed22f",
           "c756ab171c52cebc1b9bb7067655bd7367020dc97ee5b152bbf003249912a432"),
    "SD16": ("01f24f43d1f9b50ee470b57c920862483326e60681df789514e2c438900a10f7",) * 4,
    "4S4": ("73e450f90f52a23fb0ee6bcaddaf32f665a0c56f79b337bb0d2e33cc00541f5c",) * 4,
    "D16x3": ("07eba6a68437171e520a9386e158da72458d7466cf393a23fb4cd0fb732d875f",
              "d816049691d0a13dc646d9c88e6a51bc2fefac65b22b4867eaf1f665a10fe46d",
              "c8a09b88f3d91129f7a922b051539006748a8bb5a5e27a10f9439e8440f212e5",
              "fe7dc0faa054e6c4c548791d16ff44cf6a9ddd6469bc585767fef4b4a12d6768"),
    "6sq:2": ("dd88c769bc3b9495448809a14fe76fe7b8dceb60ae735a3dd22d2a3a992ff051",
              "710ecf1479e1cafd64c7801ec04f692fbc2b3402665783b1aa077b885bd4eaeb",
              "e656cff7ef3dfe61b9cee2c9955634251812f005f858b30417ef41b6149517b1",
              "e656cff7ef3dfe61b9cee2c9955634251812f005f858b30417ef41b6149517b1"),
    "SD32x3": ("38413b050c8bd1b246a55db776357b706bda2f2d556c9576f08aa6d81891c3ad",) * 4,
}


@pytest.mark.parametrize("name", list(OUT_F_DIGESTS))
def test_build_out_F_matrices_are_pinned(name):
    spec = resolve_system(name)
    elements = list(gl2_elements(spec.p))
    specs = [spec]
    for k in OUT_F_RELABELLINGS:
        g = elements[k]
        specs.append(FusionSystemSpec(spec.p, "custom", tuple(
            FusionClass(frozenset(act_on_line(g, i) for i in cls.members), cls.r)
            for cls in spec.classes)))
    digests = tuple(hashlib.sha256(repr(sorted(build_out_F(s))).encode()).hexdigest()
                    for s in specs)
    assert digests == OUT_F_DIGESTS[name]
    if len(spec.classes) > 1:  # the relabellings move every multi-class row
        assert all({c.members for c in s.classes} != {c.members for c in spec.classes}
                   for s in specs[1:])


def test_rows_are_built_only_at_the_spec_prime():
    # a fresh interpreter, so no earlier test has built the rows at p = 3 or 5
    import os
    import subprocess
    import sys
    from pathlib import Path

    code = (
        "from p3fusion.fusion import (FusionSystemSpec, _builtin_rows, fusion_system,\n"
        "                             realizing_group_name)\n"
        "spec = FusionSystemSpec.from_json({'prime': 7, 'name': 'custom', 'classes': [\n"
        "    {'lines': [0, 1, 4, 5], 'r': 2}, {'lines': [2, 3, 6, 7], 'r': 2}]})\n"
        "fusion_system(spec)\n"
        "print(realizing_group_name(spec))\n"
        "info = _builtin_rows.cache_info()\n"
        "print(info.currsize, info.misses)\n"
        "print(len(_builtin_rows(7)), _builtin_rows.cache_info().currsize)\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [v for v in [os.environ.get("PYTHONPATH")] if v]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True).stdout
    # one prime built, and it is p = 7: asking for its three rows builds nothing
    assert out.split() == ["None", "1", "1", "3", "1"]


@pytest.mark.parametrize("p", [3, 5])
def test_matrix_maps_each_line_vector_to_a_multiple_of_its_image(p):
    # the pinned vector of line i is (1, i) for i < p and (0, 1) for i = p
    def vector(i):
        return (1, i) if i < p else (0, 1)

    for m in gl2_elements(p):
        for i in range(p + 1):
            x, y = vector(i)
            lam = line_scaling(m, i)
            assert lam % p
            assert ((m.a * x + m.b * y) % p, (m.c * x + m.d * y) % p) == \
                tuple(lam * v % p for v in vector(act_on_line(m, i)))


def test_lift_matrix():
    g = ambient_group(3)
    ident = lift_matrix_to_aut(MatrixGL2(3, 1, 0, 0, 1))
    assert ident == identity_morphism(ident.source)
    m = MatrixGL2(3, 1, 0, 0, 2)
    alpha = lift_matrix_to_aut(m)
    assert alpha(g.z) == g.z**2
    assert alpha(g.x) == g.x
    with pytest.raises(ValueError):
        lift_matrix_to_aut(MatrixGL2(3, 1, 1, 1, 1))


# D16x3 with its classes relabelled: its outer matrices are not the row's
RELABELLED_D16X3 = FusionSystemSpec(7, "custom", (
    FusionClass(frozenset({0, 1, 4, 5}), 2), FusionClass(frozenset({2, 3, 6, 7}), 2)))


@pytest.mark.parametrize("p", [3, 5])
def test_lift_matches_the_reference_over_GL2(p):
    for m in gl2_elements(p):
        assert lift_matrix_to_aut(m) == reference_lift(m)


def test_lift_matches_the_reference_on_the_outer_matrices_at_p7():
    specs = [resolve_system(name) for name in ("D16x3", "6sq:2", "SD32x3")] + [RELABELLED_D16X3]
    assert build_out_F(RELABELLED_D16X3) != build_out_F(specs[0])
    for spec in specs:
        for m in build_out_F(spec):
            assert lift_matrix_to_aut(m) == reference_lift(m)


def _greedy_generators(mats):
    """The outer generators as realization picked them from the sorted
    matrices, before the system kept the ones its closure check picks."""
    gens, generated = [], {mats[0] * mats[0].inv()}
    for m in mats:
        if m not in generated:
            gens.append(m)
            generated = matrix_closure(mats[0].p, gens)
            if len(generated) == len(mats):
                break
    return tuple(gens)


@pytest.mark.parametrize("spec", builtin_systems() + (RELABELLED_D16X3,),
                         ids=lambda spec: spec.name)
def test_out_generators_generate_the_group_as_the_greedy_pick(spec):
    system = fusion.fusion_system(spec)
    assert matrix_closure(spec.p, system.out_generators) == system.out_matrices
    assert system.out_generators == _greedy_generators(system.sorted_out)


@pytest.mark.parametrize("name, products", [("4S4", 1714), ("SD32x3", 654)])
def test_cold_build_cost_is_pinned(monkeypatch, name, products):
    # a build with the rows not yet built, as in a fresh process: the
    # all-pairs closure check and lifts through morphism_from_images made
    # 12,528 and 10,680 products, and 96 calls to it at each system
    spec = resolve_system(name)
    monkeypatch.setattr(fusion, "_builtin_rows",
                        lru_cache(maxsize=None)(fusion._builtin_rows.__wrapped__))
    calls = Counter()
    plain_product, plain_images = MatrixGL2.__mul__, group.morphism_from_images
    monkeypatch.setattr(MatrixGL2, "__mul__", lambda self, other: (
        calls.update(["product"]) or plain_product(self, other)))
    for module in (fusion, group):
        monkeypatch.setattr(module, "morphism_from_images", lambda *args: (
            calls.update(["morphism_from_images"]) or plain_images(*args)))
    fusion.FusionSystem(spec)
    assert calls == {"product": products}


def test_lift_is_section_of_out_exhaustive_p3():
    # lift(M) lift(N) agrees with lift(MN) up to an inner automorphism
    g = ambient_group(3)
    mats = [m for m in build_out_F(resolve_system("sd16"))]
    for m in mats[:8]:
        for n in mats[:8]:
            comp = compose_morphisms(lift_matrix_to_aut(m), lift_matrix_to_aut(n))
            direct = lift_matrix_to_aut(m * n)
            assert matrix_of_automorphism(comp) == matrix_of_automorphism(direct)
            diff = compose_morphisms(comp, direct.inverse())
            # inner: acts trivially on S/Z
            assert matrix_of_automorphism(diff).is_identity()


def _normalized_iso(sys_, i, j):
    """An automorphism of S with z -> z and u_i -> u_j: the lift of an outer
    matrix that moves line i to line j with z fixed, composed with the inner
    map that corrects the central digit."""
    g = sys_.group
    for m, alpha in sys_.out_lifts.items():
        img = alpha(sys_.u[i])
        if alpha(g.z) != g.z or (img.a, img.b) != (sys_.u[j].a, sys_.u[j].b):
            continue
        s = next(s for s in g.elements if img.conj_by(s) == sys_.u[j])
        return compose_morphisms(conjugation_morphism(s, g.full), alpha)
    raise AssertionError(f"no F-automorphism takes u_{i} to u_{j} and fixes z")


def test_normalized_isos():
    # the normalized generators are matched exactly, not up to a power or the
    # centre, by F-automorphisms within each class of lines, and by none across
    for name in ("d8", "sd16", "th4s4", "rv48", "rv72", "rv96"):
        sys_ = builtin_fusion_system(name)
        isos = {(i, j): _normalized_iso(sys_, i, j) for cls in sys_.spec.classes
                for i in cls.members for j in cls.members}
        for (i, j), alpha in isos.items():
            assert alpha(sys_.group.z) == sys_.group.z
            assert alpha(sys_.u[i]) == sys_.u[j]
            assert (i == j or alpha != identity_morphism(alpha.source)
                    or sys_.u[i] == sys_.u[j])
        # compatibility: the isos compose along a class
        for cls in sys_.spec.classes:
            mem = sorted(cls.members)
            for i in mem:
                for j in mem:
                    for k in mem:
                        lhs = compose_morphisms(isos[(j, k)], isos[(i, j)])
                        assert lhs(sys_.group.z) == sys_.group.z
                        assert lhs(sys_.u[i]) == sys_.u[k]
        if len(sys_.spec.classes) > 1:
            first = min(sys_.spec.classes[0].members)
            other = min(sys_.spec.classes[1].members)
            assert all(act_on_line(m, first) != other for m in sys_.out_matrices)


def test_hom_class_counts():
    for name in ("d8", "sd16", "th4s4", "rv48", "rv72", "rv96"):
        sys_ = builtin_fusion_system(name)
        spec = sys_.spec
        p = spec.p
        out_order = spec.out_order
        assert len(sys_.aut_s_reps()) == out_order
        for i in range(p + 1):
            reps = sys_.v_source_reps(i)
            ext = [r for r in reps if r.extendable]
            non = [r for r in reps if r.extendable is False]
            # extendable classes out of V_i biject with Out_F(S)
            assert len(ext) == out_order
            r_i = spec.r_of_line(i)
            cls_size = len(spec.class_of_line(i).members)
            assert len(non) == cls_size * (p - 1) * r_i
        assert len(sys_.order_p_reps()) == (p + 2) * (p + 2) * (p - 1)


def test_extendability_shape_criterion():
    sys_ = builtin_fusion_system("rv72")
    for i in range(8):
        for rep in sys_.v_source_reps(i):
            assert rep.morphism(sys_.group.z).is_central() == rep.extendable


def test_out_reps_restrict_to_extendable():
    # restriction of every outer representative to every V_i is upper triangular
    # in the normalized bases: z stays central
    for name in ("d8", "th4s4", "rv96"):
        sys_ = builtin_fusion_system(name)
        for rep in sys_.aut_s_reps():
            assert rep.morphism(sys_.group.z).is_central()
