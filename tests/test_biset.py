import itertools
import operator
import random
from fractions import Fraction

import pytest

from p3fusion import biset
from p3fusion.biset import (
    FormalBiset,
    biset_class,
    brute_force_fixed_points,
    count_fixed_points,
    is_left_stable,
    is_right_stable,
    mark_table,
    opposite,
    restrict_left,
)
from p3fusion.errors import (
    ConditionAViolationError,
    MorphismError,
    PrimeMismatchError,
)
from p3fusion.fusion import FusionSystem
from p3fusion.group import (
    ExtraspecialGroup,
    GroupMorphism,
    ambient_group,
    conjugation_morphism,
    identity_morphism,
    morphism_from_images,
)
import oracles
from oracles import (
    ExplicitBiset,
    ResourceLimitError,
    all_graph_classes,
    biset_mark,
    builtin_fusion_system,
    compose,
    conjugate_minimum_class_key,
    decompose_by_marks,
    explicit_from_formal,
    left,
    mark_vector,
    restricted_orbit_decomposition,
    right,
    subconjugate_closure,
)


def transporters(psi, phi) -> list:
    """The coset reps x of C_S(R) that psi's prepared search passes for phi."""
    search, conjugates = biset._prepared_search(psi)
    return list(search.transporters(phi, conjugates))


def transporter_set(psi, phi) -> frozenset:
    """N_{psi,phi} = {x : xRx^-1 <= Q and phi o c_x|_R = c_y o psi for some y},
    elementwise: each transporter rep times C_S(R)."""
    cent = ambient_group(psi.p).centralizer(psi.source)
    return frozenset(x * c for x in transporters(psi, phi) for c in cent)


def test_n_set_identity():
    g = ambient_group(3)
    ident = identity_morphism(g.full)
    assert transporter_set(ident, ident) == frozenset(g.elements)


def test_n_set_nonextendable_is_source():
    for name in ("d8", "rv72"):
        sys_ = builtin_fusion_system(name)
        for i in (0, 1):
            for rep in sys_.v_source_reps(i):
                ns = transporter_set(rep.morphism, rep.morphism)
                if rep.extendable:
                    assert ns == frozenset(sys_.group.elements)
                else:
                    assert ns == frozenset(sys_.maximals[i])


def test_n_set_matches_brute_transporter():
    rng = random.Random(11)
    sys_ = builtin_fusion_system("d8")
    g = sys_.group
    reps = [r.morphism for r in sys_.all_class_reps()]
    for _ in range(100):
        psi = rng.choice(reps)
        phi = rng.choice(reps)
        fast = transporter_set(psi, phi)
        slow = set()
        r_sub, q_sub = psi.source, phi.source
        gens = r_sub.canonical_gens
        for x in g.elements:
            conj_ok = all(r.conj_by(x) in q_sub for r in gens)
            if not conj_ok:
                continue
            for y in g.elements:
                if all(phi(r.conj_by(x)) == psi(r).conj_by(y) for r in gens):
                    slow.add(x)
                    break
        assert fast == frozenset(slow)
        assert len(transporters(psi, phi)) * g.centralizer(psi.source).order == len(slow)


def test_count_fixed_points_examples():
    sys_ = builtin_fusion_system("d8")
    g = sys_.group
    ident_cls = biset_class(identity_morphism(g.full))
    # [S, id] fixed by its own graph: |Z(S)| = p
    assert count_fixed_points(ident_cls, ident_cls) == 3
    # nonextendable [V_i, phi] at the central-to-u graph: p^3
    rep = next(r for r in sys_.v_source_reps(0) if r.extendable is False)
    i, j, k, l = rep.meta
    xi_mor = morphism_from_images(g.cyclic(g.z), {g.z: sys_.u[j] ** k})
    assert count_fixed_points(biset_class(rep.morphism), biset_class(xi_mor)) == 27
    # order-p class on itself with both generators noncentral: p^3
    mor = morphism_from_images(g.cyclic(sys_.u[0]), {sys_.u[0]: sys_.u[1]})
    assert count_fixed_points(biset_class(mor), biset_class(mor)) == 27
    # trivial subgroup fixes every coset
    triv = biset_class(identity_morphism(g.trivial))
    assert count_fixed_points(ident_cls, triv) == 27


def test_brute_force_basics():
    g = ambient_group(3)
    ident_cls = biset_class(identity_morphism(g.full))
    triv = biset_class(identity_morphism(g.trivial))
    assert brute_force_fixed_points(ident_cls, triv) == 27


def test_oracle_equivalence_sampled_p3():
    rng = random.Random(3)
    sys_ = builtin_fusion_system("d8")
    reps = list(sys_.all_class_reps())
    for _ in range(150):
        a = rng.choice(reps)
        b = rng.choice(reps)
        ca, cb = biset_class(a.morphism), biset_class(b.morphism)
        assert count_fixed_points(ca, cb) == brute_force_fixed_points(ca, cb)


def _reference_oracle(cls, by):
    """The explicit coset count before the conjugation masks: for each coset
    tQ whose left condition holds, one list of booleans over every y per
    generator r, phi(q) * y * psi(r)**-1 == y, ANDed together."""
    phi, psi = cls.rep, by.rep
    grp = ambient_group(phi.p)
    mul = grp.product_table
    n = len(grp.elements)
    reps, pos = grp.coset_index(phi.source)
    # (code of r, col) with col[k] == code of elements[k] * psi(r)**-1
    pairs = [(r.code(), mul[psi(r).inv().code()::n])
             for r in psi.source.canonical_gens]
    ys = range(n)
    count = 0
    for idx, t in enumerate(reps):
        fixed = None
        for r, col in pairs:
            idx2, q = pos[mul[r * n + t]]
            if idx2 != idx:
                break
            row = phi.table[phi.source.position[q]] * n
            here = [col[mul[row + y]] == y for y in ys]
            fixed = here if fixed is None else list(map(operator.and_, fixed, here))
        else:
            count += n if fixed is None else sum(fixed)
    return count


def test_oracle_equivalence_all_graph_classes_p3():
    """The transporter formula, the oracle and the reference oracle agree on
    every pair of graph classes at p = 3."""
    classes = all_graph_classes(3)
    assert len(classes) == 227
    mismatches = [(a, b) for a in classes for b in classes
                  if not count_fixed_points(a, b) == brute_force_fixed_points(a, b)
                  == _reference_oracle(a, b)]
    assert mismatches == []


def test_oracle_calls_nothing_from_the_transporter_path(monkeypatch):
    rng = random.Random(47)
    classes = all_graph_classes(3)
    pairs = [(rng.choice(classes), rng.choice(classes)) for _ in range(300)]
    expected = [count_fixed_points(a, b) for a, b in pairs]
    assert any(expected)

    def forbidden(*args, **kwargs):
        raise AssertionError("the oracle reached the transporter path")

    monkeypatch.setattr(biset, "_TransporterSearch", forbidden)
    monkeypatch.setattr(biset, "_prepared_search", forbidden)
    monkeypatch.setattr(biset, "_may_fix", forbidden)
    monkeypatch.setattr(biset, "_cached_key", forbidden)
    monkeypatch.setattr(biset, "biset_class", forbidden)
    monkeypatch.setattr(ExtraspecialGroup, "conj_transversal", forbidden)
    monkeypatch.setattr(ExtraspecialGroup, "conjugates", forbidden)
    monkeypatch.setattr(ExtraspecialGroup, "centralizer", forbidden)
    assert [brute_force_fixed_points(a, b) for a, b in pairs] == expected


def test_one_search_per_test_morphism(monkeypatch):
    """A mark-table row, count_fixed_points and the transporters at one test morphism
    prepare its transporter search once, and keep it on the morphism."""
    system = FusionSystem(builtin_fusion_system("d8").spec)  # its own mark table
    table = mark_table(system)
    rep = system.order_p_reps()[0].morphism
    psi = GroupMorphism(rep.source, rep.table)  # no search prepared yet
    test = biset_class(psi)
    built = []

    class Counting(biset._TransporterSearch):
        def __init__(self, psi):
            built.append(psi)
            super().__init__(psi)

    monkeypatch.setattr(biset, "_TransporterSearch", Counting)
    row = table.row(test)
    assert row and row[table._column_of[test]] > 0
    assert [count_fixed_points(col, test) for col in table.columns] == [
        row.get(col, 0) for col in table.columns]
    assert [bool(transporters(psi, col.rep)) for col in table.columns] == [
        col in row for col in table.columns]
    assert built == [psi] and psi._search is not None


def test_order_p_rows_search_no_proper_column(monkeypatch):
    """Order-p rows at D16x3, built together as the solver builds them and one
    at a time, read their proper-source columns from the filed index: the
    per-pair search runs only for automorphism columns, and the rows are the
    reference rows."""
    system = FusionSystem(builtin_fusion_system("d16x3").spec)  # its own mark table
    table = mark_table(system)
    full = system.group.full
    searched = []
    mark = biset._TransporterSearch.mark

    def counting(self, phi, conjugates):
        searched.append(phi.source)
        return mark(self, phi, conjugates)

    monkeypatch.setattr(biset._TransporterSearch, "mark", counting)
    single = [table.row(biset_class(identity_morphism(q)))
              for q in system.group.all_subgroups if q.order == system.p]
    assert all(src is full for src in searched)
    tests = [biset_class(rep.morphism) for rep in system.order_p_reps()][::5]
    batch = table.rows(tests)
    assert searched and all(src is full for src in searched)
    assert batch == [_reference_row(table, test) for test in tests]
    assert all(single) and all(batch)


def test_left_sweep_sorts_no_class(monkeypatch):
    """Condition A is a membership test over the coefficients: the D16x3 left
    sweep compares no two classes."""
    from p3fusion.solver import minimal_biset
    system = builtin_fusion_system("d16x3")
    b = minimal_biset(system, certify=False).biset
    compared = []
    less = biset.BisetClass.__lt__

    def counting(self, other):
        compared.append(self)
        return less(self, other)

    monkeypatch.setattr(biset.BisetClass, "__lt__", counting)
    assert is_left_stable(system, b)
    assert compared == []


def test_oracle_equals_reference_oracle_sampled_4s4():
    """Seeded 4S4 pairs of class reps; every other test is the class's own
    rep restricted to a random subgroup of its source, a nonzero mark."""
    rng = random.Random(83)
    system = builtin_fusion_system("4s4")
    reps = [biset_class(r.morphism) for r in system.all_class_reps()]
    nonzero = 0
    for k in range(200):
        a = rng.choice(reps)
        if k % 2:
            r_sub = rng.choice([q for q in system.group.all_subgroups if q <= a.source])
            b = biset_class(a.rep.restrict(r_sub))
        else:
            b = rng.choice(reps)
        value = brute_force_fixed_points(a, b)
        assert value == _reference_oracle(a, b) == count_fixed_points(a, b)
        nonzero += value != 0
    assert nonzero >= 100


def test_conjugation_masks_p3():
    """Every mask of every element code: bit y is set in the mask of h
    exactly when g * y == y * h, and the masks of g partition S."""
    grp = ExtraspecialGroup(3)
    n = len(grp.elements)
    for g in grp.elements:
        masks = grp.conjugation_masks(g.code())
        assert grp.conjugation_masks(g.code()) is masks
        assert sum(mask.bit_count() for mask in masks.values()) == n
        for h in grp.elements:
            mask = masks.get(h.code(), 0)
            for y in grp.elements:
                assert bool(mask >> y.code() & 1) == (g * y == y * h)


@pytest.mark.parametrize("p", [3, 5])
def test_closed_form_solvability_matches_search_over_y(p):
    """For every injective psi: R -> S, the functionals the transporter search
    derives from psi accept exactly the central differences t that some
    y in S/Z realises, t_r = (y psi(r) y^-1).c - psi(r).c.  Neither side reads
    the central digits of the generator images, so those are 0 unless the
    image is central; every subgroup R is a source."""
    grp = ambient_group(p)
    pool = [g for g in grp.elements if not g.is_identity() and (g.c == 0 or g.is_central())]
    ys = [y for y in grp.elements if y.c == 0]
    checked = 0
    for r_sub in grp.all_subgroups:
        gens = r_sub.canonical_gens
        for images in itertools.product(pool, repeat=len(gens)):
            try:
                psi = morphism_from_images(r_sub, dict(zip(gens, images)))
            except MorphismError:
                continue
            functionals = biset._TransporterSearch(psi)._functionals
            reachable = {tuple((a.conj_by(y).c - a.c) % p for a in images) for y in ys}
            for t in itertools.product(range(p), repeat=len(gens)):
                closed = all(sum(l * v for l, v in zip(lam, t)) % p == 0 for lam in functionals)
                assert closed == (t in reachable), (psi, t)
            checked += 1
    assert checked > 0


def test_fixed_point_routines_refuse_mixed_primes():
    c3 = biset_class(identity_morphism(ambient_group(3).full))
    c5 = biset_class(identity_morphism(ambient_group(5).center))
    for routine in (count_fixed_points, brute_force_fixed_points):
        for cls, by in ((c3, c5), (c5, c3)):
            with pytest.raises(PrimeMismatchError):
                routine(cls, by)


def test_zero_iff_not_subconjugate():
    rng = random.Random(5)
    sys_ = builtin_fusion_system("sd16")
    reps = list(sys_.all_class_reps())
    for _ in range(100):
        a, b = rng.choice(reps), rng.choice(reps)
        fp = count_fixed_points(biset_class(a.morphism), biset_class(b.morphism))
        assert (fp > 0) == bool(transporters(b.morphism, a.morphism))


def test_are_conjugate():
    def are_conjugate(a, b):  # S x S conjugacy: mutual subconjugacy at equal order
        return (a.source.order == b.source.order and bool(transporters(a, b))
                and bool(transporters(b, a)))

    rng = random.Random(9)
    sys_ = builtin_fusion_system("d8")
    g = sys_.group
    v0 = sys_.maximals[0]
    rep = next(r for r in sys_.v_source_reps(0) if r.extendable is False)
    # conjugates are conjugate
    for _ in range(10):
        s, t = rng.choice(g.elements), rng.choice(g.elements)
        si = s.inv()
        mapping = {q.conj_by(s): rep.morphism(q).conj_by(t) for q in v0}
        src = conjugation_morphism(s, v0).image
        twisted = morphism_from_images(src, {q: mapping[q] for q in src.canonical_gens})
        assert are_conjugate(rep.morphism, twisted)
        assert biset_class(rep.morphism) == biset_class(twisted)
    # automorphisms differing by an inner map are conjugate
    alpha = sys_.aut_s_reps()[3].morphism
    inner = conjugation_morphism(g.x, g.full)
    assert are_conjugate(alpha, inner.compose(alpha))
    # extendable and nonextendable classes never meet
    ext = next(r for r in sys_.v_source_reps(0) if r.extendable)
    assert not are_conjugate(ext.morphism, rep.morphism)


def test_class_keys_separate_all_reps():
    for name in ("d8", "sd16"):
        sys_ = builtin_fusion_system(name)
        reps = sys_.all_class_reps()
        keys = {biset_class(r.morphism).key for r in reps}
        assert len(keys) == len(reps)


def _reference_class_key(mor, left):
    """The class key by enumeration: the least (sorted source codes, image
    codes of the canonical generators) over every conjugator s in `left` (one
    per coset of C_S(Q)) and t in S (one per coset of C_S(mor(Q)))."""
    p = mor.p
    grp = ambient_group(p)
    q = mor.source
    if q.order == p**3 and left.order == p**3:
        fx, fy = mor(grp.x), mor(grp.y)
        return (p, "auts", fx.a, fy.a, fx.b, fy.b)
    cent = grp.centralizer(q)
    s_reps, covered = [], set()
    for g in left:
        if g not in covered:
            s_reps.append(g)
            covered.update(g * h for h in cent if h in left)
    best = None
    for s in s_reps:
        si = s.inv()
        q_conj = conjugation_morphism(s, q).image
        src_code = tuple(e.code() for e in q_conj)
        base = [mor(g.conj_by(si)) for g in q_conj.canonical_gens]
        for t in grp.conj_transversal(mor.image):
            enc = (src_code, tuple(b.conj_by(t).code() for b in base))
            if best is None or enc < best:
                best = enc
    return (p, "gen", left.order, best)


def test_class_keys_match_enumeration_p3():
    """Every injective morphism out of every subgroup, over every lattice
    subgroup that contains its source; the reps of all_graph_classes(3) are
    among them, and so are the morphisms that are not the least of their
    class."""
    grp = ambient_group(3)
    checked = 0
    for q in grp.all_subgroups:
        for images in itertools.product(grp.elements[1:], repeat=len(q.canonical_gens)):
            try:
                mor = morphism_from_images(q, dict(zip(q.canonical_gens, images)))
            except MorphismError:
                continue
            for left in grp.all_subgroups:
                if q <= left:
                    assert biset._class_key(mor, left) == _reference_class_key(mor, left)
                    checked += 1
    assert checked == 3079


@pytest.mark.parametrize("name", ["4s4", "d16x3"])
def test_class_keys_match_enumeration_sampled(name):
    """Seeded samples of the system's class reps over S and of the pieces the
    realization's double-coset split yields, over their R."""
    from p3fusion.fusion import lift_matrix_to_aut
    from p3fusion.realize import _out_generator_matrices, essential_generators
    from p3fusion.solver import minimal_biset

    system = builtin_fusion_system(name)
    full = system.group.full
    reps = [rep.morphism for rep in system.all_class_reps()]
    rng = random.Random(71)
    for mor in rng.sample(reps, 300):
        assert biset._class_key(mor, full) == _reference_class_key(mor, full)
    items = minimal_biset(system, certify=False).biset.items()
    psis = [rep.morphism for rep in essential_generators(system)]
    psis += [identity_morphism(psi.source) for psi in psis]
    psis += [lift_matrix_to_aut(m).inverse() for m in _out_generator_matrices(system)]
    grp = system.group
    memo = {}
    found = {}  # id of a piece -> (psi, phi, t) of every orbit that found it
    for psi in psis:
        _restriction, grouped = biset._restriction_split(items, psi, memo)
        for cls, _tracked, orbits in (entry for entries in grouped.values() for entry in entries):
            phi = cls.rep
            reps = grp.coset_index(phi.source)[0]
            for positions, piece in orbits:
                found.setdefault(id(piece), []).append((psi, phi, grp.elements[reps[positions[0]]]))
    assert len(memo) > 2000
    for (r_id, a_id, gen_images), (piece_cls, piece) in rng.sample(list(memo.items()), 1000):
        left = grp.all_subgroups[r_id]
        assert piece_cls.key == _reference_class_key(piece, left)
        # the generator images fix the piece: every orbit that found it under
        # its key has the piece's compact table a -> phi(t^-1 psi(a) t), one
        # tuple entry per code of A in order
        a_sub = piece.source
        assert a_sub.id == a_id
        assert type(piece.table) is tuple and len(piece.table) == a_sub.order
        assert gen_images == tuple(piece(g).code() for g in a_sub.canonical_gens)
        for psi, phi, t in found[id(piece)]:
            assert piece.table == tuple(phi(t.inv() * psi(a) * t).code() for a in a_sub)


def _key_or_error(key_of, mor, left):
    try:
        return key_of(mor, left)
    except Exception as exc:  # the two routes must fail alike, too
        return type(exc), str(exc)


def test_maximal_source_keys_match_conjugate_minimum_p3():
    """Every injective map out of every maximal subgroup at p = 3, over its
    source and over S: the key read at one conjugate of the generators is
    the least over all p of them."""
    grp = ambient_group(3)
    checked = 0
    for q in grp.maximal_subgroups:
        for images in itertools.product(grp.elements, repeat=2):
            try:
                mor = morphism_from_images(q, dict(zip(q.canonical_gens, images)))
            except MorphismError:
                continue
            for left in (q, grp.full):
                assert (_key_or_error(biset._class_key, mor, left)
                        == _key_or_error(conjugate_minimum_class_key, mor, left))
                checked += 1
    assert checked == 2 * 4 * 192  # 192 injective maps out of each of the 4 sources


@pytest.mark.parametrize("p", [5, 7])
def test_maximal_source_keys_match_conjugate_minimum_sampled(p):
    """Seeded injective maps out of maximal subgroups at p = 5 and 7, with a
    central and with a noncentral image of z, over S."""
    rng = random.Random(p)
    grp = ambient_group(p)
    central_z = []
    while len(central_z) < 300:
        q = rng.choice(grp.maximal_subgroups)
        images = [rng.choice(grp.elements) for _ in q.canonical_gens]
        if rng.random() < 0.5:  # an image of z on the line of the other image
            images[0] = images[1] ** rng.randrange(1, p) * grp.z ** rng.randrange(p)
        try:
            mor = morphism_from_images(q, dict(zip(q.canonical_gens, images)))
        except MorphismError:
            continue
        central_z.append(images[0].is_central())
        assert (_key_or_error(biset._class_key, mor, grp.full)
                == _key_or_error(conjugate_minimum_class_key, mor, grp.full))
    assert 0 < sum(central_z) < len(central_z)


def test_opposite_involution_and_classes():
    rng = random.Random(13)
    sys_ = builtin_fusion_system("d8")
    g = sys_.group
    ident_cls = biset_class(identity_morphism(g.full))
    b = FormalBiset(3, {ident_cls: 2})
    assert opposite(b) == b
    reps = list(sys_.all_class_reps())
    for _ in range(20):
        cls = biset_class(rng.choice(reps).morphism)
        b = FormalBiset(3, {cls: rng.randint(1, 5)})
        assert opposite(opposite(b)) == b
    # the opposite of a nonextendable class is again nonextendable
    rep = next(r for r in sys_.v_source_reps(0) if r.extendable is False)
    opp = opposite(FormalBiset(3, {biset_class(rep.morphism): 1}))
    opp_cls = opp.support[0]
    assert not opp_cls.rep(g.z).is_central()


def test_restrict_left_top_piece():
    sys_ = builtin_fusion_system("d8")
    g = sys_.group
    alpha = sys_.aut_s_reps()[2].morphism
    beta = sys_.aut_s_reps()[5].morphism
    res = restrict_left(FormalBiset(3, {biset_class(alpha): 1}), beta)
    assert len(res.coeffs) == 1
    cls, mult = res.items()[0]
    assert mult == 1
    assert cls.source == g.full
    assert biset_class(cls.rep) == biset_class(alpha.compose(beta))


def test_restrict_left_v_block_piece_count():
    sys_ = builtin_fusion_system("d8")
    v0 = sys_.maximals[0]
    rep = next(r for r in sys_.v_source_reps(0) if r.extendable is False)
    res = restrict_left(FormalBiset(3, {biset_class(rep.morphism): 1}), identity_morphism(v0))
    # p pieces indexed by the transversal of V_0
    assert res.transitive_count() == 3
    assert all(cls.source == v0 for cls in res.support)


def test_restrict_left_matches_explicit_orbits():
    # restriction of support classes of the minimal biset, along the inclusion
    # of V_0 and along a nonextendable automorphism, checked against the
    # explicit-set orbit decomposition: every class at p = 3, a seeded sample
    # at p = 5, where realization runs the same double-coset split
    from p3fusion.realize import essential_generators
    from p3fusion.solver import minimal_biset

    for name, sample in (("d8", None), ("4S4", 12)):
        sys_ = builtin_fusion_system(name)
        g = sys_.group
        v0 = sys_.maximals[0]
        incl = identity_morphism(v0)
        phi = essential_generators(sys_)[0].morphism
        support = minimal_biset(sys_, certify=False).biset.support
        if sample is not None:
            support = random.Random(20100501).sample(support, sample)
        for cls in support:
            one = FormalBiset(sys_.p, {cls: 1})
            explicit = explicit_from_formal(one)
            for psi in (incl, phi):
                fast = restrict_left(one, psi)
                slow = restricted_orbit_decomposition(explicit, psi)
                assert fast == slow
            # coset-count conservation
            res = restrict_left(one, incl)
            total = sum(mult * (v0.order // c.source.order) for c, mult in res.items())
            assert total == g.full.order // cls.rep.source.order


def _check_double_cosets(g, psi, classes):
    """Each orbit of the shared split, recomputed from its first coset t with
    element arithmetic: t is the least element of psi(R) t Q, the tracked v
    has psi(v) t in the orbit's coset, the orbit has |R:A| cosets, and the
    piece is a -> phi(t^-1 psi(a) t) on A."""
    r_sub = psi.source
    _restriction, grouped = biset._restriction_split([(cls, 1) for cls in classes], psi, {})
    covered = {cls: [] for cls in classes}
    for piece_cls, entries in grouped.items():
        for cls, tracked, orbits in entries:
            phi = cls.rep
            q = phi.source
            reps = g.coset_index(q)[0]
            for positions, piece in orbits:
                assert list(positions) == sorted(positions)
                t = g.elements[reps[positions[0]]]
                ti = t.inv()
                assert min((psi(r) * t * h).code() for r in r_sub for h in q) == t.code()
                for k in positions:
                    coset = {g.elements[reps[k]] * h for h in q}
                    assert psi(g.elements[tracked[k]]) * t in coset
                a_elems = {a for a in r_sub if ti * psi(a) * t in q}
                assert frozenset(piece.source) == a_elems
                assert all(piece(a) == phi(ti * psi(a) * t) for a in a_elems)
                assert len(positions) * len(a_elems) == r_sub.order
                assert piece_cls == biset_class(piece, left=r_sub)
                covered[cls].extend(positions)
    for cls, positions in covered.items():
        assert sorted(positions) == list(range(len(g.coset_index(cls.source)[0])))


def _split_psis(sys_):
    v0 = sys_.maximals[0]
    moves = [r.morphism for r in sys_.v_source_reps(0) if r.meta[1] != 0]
    return [identity_morphism(v0), moves[0], moves[-1], sys_.aut_s_reps()[3].morphism]


def test_double_cosets_orbits_and_pieces():
    # every support class of the D8 minimal biset in one call, and a seeded
    # 4S4 sample of 40 (phi, psi) pairs: five sources with two classes each,
    # passed together so the second class of a source reuses its split
    from p3fusion.solver import minimal_biset

    sys_ = builtin_fusion_system("d8")
    classes = minimal_biset(sys_, certify=False).biset.support
    for psi in _split_psis(sys_):
        _check_double_cosets(sys_.group, psi, classes)
    sys_ = builtin_fusion_system("4s4")
    by_source = {}
    for cls in minimal_biset(sys_, certify=False).biset.support:
        by_source.setdefault(cls.source.id, []).append(cls)
    rng = random.Random(1997)
    shared = sorted(q for q, reps in by_source.items() if len(reps) > 1)
    classes = [cls for q in rng.sample(shared, 5) for cls in rng.sample(by_source[q], 2)]
    assert len({cls.source.id for cls in classes}) == 5
    for psi in _split_psis(sys_):
        _check_double_cosets(sys_.group, psi, classes)


def test_restrict_left_biset_linear():
    sys_ = builtin_fusion_system("d8")
    v0 = sys_.maximals[0]
    incl = identity_morphism(v0)
    a = biset_class(sys_.aut_s_reps()[1].morphism)
    b = biset_class(next(r for r in sys_.v_source_reps(0) if not r.extendable).morphism)
    combo = FormalBiset(3, {a: 2, b: 3})
    expanded = (2 * restrict_left(FormalBiset(3, {a: 1}), incl)
                + 3 * restrict_left(FormalBiset(3, {b: 1}), incl))
    assert restrict_left(combo, incl) == expanded


def test_restrict_left_refuses_a_biset_over_a_proper_subgroup():
    # the split reads S/Q for each source Q, so an R-S biset has no meaning there
    sys_ = builtin_fusion_system("d8")
    incl = identity_morphism(sys_.maximals[0])
    once = restrict_left(FormalBiset(3, {biset_class(sys_.aut_s_reps()[1].morphism): 1}), incl)
    with pytest.raises(ValueError, match="S-S bisets"):
        restrict_left(once, incl)


def test_restrict_left_of_the_minimal_biset_matches_explicit_orbits():
    # the whole biset in one split, so classes that share a source and hits
    # in the piece memo are checked against the explicit-set oracle too
    from p3fusion.fusion import lift_matrix_to_aut
    from p3fusion.realize import essential_generators
    from p3fusion.solver import minimal_biset

    sys_ = builtin_fusion_system("d8")
    x = minimal_biset(sys_, certify=False).biset
    explicit = explicit_from_formal(x)
    psis = (identity_morphism(sys_.maximals[0]), essential_generators(sys_)[0].morphism,
            lift_matrix_to_aut(sys_.sorted_out[1]))
    for psi in psis:
        assert restrict_left(x, psi) == restricted_orbit_decomposition(explicit, psi)


@pytest.mark.parametrize("name", ["d8", "sd16", "4s4"])
def test_restriction_to_each_v_keeps_every_point(name):
    # an R-S piece over A has |R:A| |S| points, so restriction along any
    # inclusion keeps all points of X; at D8 the explicit oracle agrees
    from p3fusion.solver import minimal_biset

    sys_ = builtin_fusion_system(name)
    x = minimal_biset(sys_, certify=False).biset
    explicit = explicit_from_formal(x) if name == "d8" else None
    for v in sys_.maximals:
        incl = identity_morphism(v)
        assert restrict_left(x, incl).size() == x.size()
        if explicit is not None:
            assert restricted_orbit_decomposition(explicit, incl).size() == explicit.size \
                == x.size() == 26136


def test_mark_vector_zero_and_truncation():
    sys_ = builtin_fusion_system("d8")
    g = sys_.group
    empty = FormalBiset(3, {})
    assert all(v == 0 for v in mark_vector(empty, classes=all_graph_classes(3)).values())
    # layer truncation: marks at a layer-r class only see layers <= r
    ident_cls = biset_class(identity_morphism(g.full))
    rep = next(r for r in sys_.v_source_reps(1) if r.extendable is False)
    vcls = biset_class(rep.morphism)
    b = FormalBiset(3, {ident_cls: 2, vcls: 5})
    for test in subconjugate_closure(b):
        upto = b.layer(0)
        for r in range(1, test.layer + 1):
            upto = upto + b.layer(r)
        assert biset_mark(b, test) == biset_mark(upto, test)


def test_mark_vector_separates_formal_bisets():
    rng = random.Random(31)
    classes = all_graph_classes(3)
    for _ in range(20):
        a = FormalBiset(3, {cls: rng.randint(1, 3) for cls in rng.sample(classes, k=2)})
        b = FormalBiset(3, {cls: rng.randint(1, 3) for cls in rng.sample(classes, k=2)})
        ma = tuple(biset_mark(a, c) for c in classes)
        mb = tuple(biset_mark(b, c) for c in classes)
        assert (ma == mb) == (a == b)


def test_burnside_injectivity_random_recovery():
    rng = random.Random(17)
    classes = all_graph_classes(3)
    full = identity_morphism(ambient_group(3).full)
    for _ in range(25):
        support = rng.sample(classes, k=rng.randint(1, 3))
        b = FormalBiset(3, {cls: rng.randint(1, 2) for cls in support})
        x = explicit_from_formal(b)
        back = decompose_by_marks(x)
        assert back == b
        # independent orbit-stabilizer route agrees
        assert restricted_orbit_decomposition(x, full) == b


def test_fixed_point_count_matches_pointwise_count():
    rng = random.Random(53)
    classes = all_graph_classes(3)
    for _ in range(3):
        support = rng.sample(classes, k=2)
        x = explicit_from_formal(FormalBiset(3, {cls: rng.randint(1, 2) for cls in support}))
        for cls in classes:
            psi = cls.rep
            gens = psi.source.canonical_gens
            slow = sum(1 for i in range(x.size)
                       if all(left(x, r, i) == right(x, i, psi(r)) for r in gens))
            assert x.fixed_point_count(psi) == slow


def _coset_biset(q):
    """S/q x S with S acting on the cosets from the left and on S by right
    multiplication: free on the right, not free on the left unless q = 1."""
    g = ambient_group(3)
    n = len(g.elements)
    reps, pos = g.coset_index(q)
    size = len(reps) * n
    left_gen, right_gen = {}, {}
    for s in (g.x, g.y, g.z):
        on_cosets = [pos[(s * g.elements[t]).code()][0] for t in reps]
        left_gen[s] = [on_cosets[i // n] * n + i % n for i in range(size)]
        right_gen[s] = [i - i % n + (g.elements[i % n] * s).code() for i in range(size)]
    return ExplicitBiset(3, size, left_gen, right_gen)


def test_verify_free_rejects_non_free_sets():
    g = ambient_group(3)
    # x*y fixes the coset <x*y> while x, y and z fix no point
    x = _coset_biset(g.cyclic(g.x * g.y))
    assert not any(perm[i] == i for perm in x.left_gen.values() for i in range(x.size))
    with pytest.raises(ValueError, match="left action is not free"):
        x.verify_free()
    swapped = ExplicitBiset(3, x.size, x.right_gen, x.left_gen)
    with pytest.raises(ValueError, match="right action is not free"):
        swapped.verify_free()
    _coset_biset(g.trivial).verify_free()


def test_compose_identity_and_convention():
    sys_ = builtin_fusion_system("d8")
    g = sys_.group
    ident_cls = biset_class(identity_morphism(g.full))
    one = FormalBiset(3, {ident_cls: 1})
    alpha = sys_.aut_s_reps()[2].morphism
    beta = sys_.aut_s_reps()[7].morphism
    a_cls = biset_class(alpha)
    b_cls = biset_class(beta)
    ba = FormalBiset(3, {a_cls: 1})
    assert compose(one, ba) == ba
    assert compose(ba, one) == ba
    # composition convention fixed by the explicit-set product:
    # [S, alpha] o [S, beta] = [S, beta o alpha]
    prod = compose(FormalBiset(3, {a_cls: 1}), FormalBiset(3, {b_cls: 1}))
    assert prod.transitive_count() == 1
    assert prod.support[0] == biset_class(beta.compose(alpha))


def test_compose_associative_small():
    rng = random.Random(23)
    sys_ = builtin_fusion_system("d8")
    reps = [r.morphism for r in sys_.aut_s_reps()]
    picks = [biset_class(rng.choice(reps)) for _ in range(3)]
    a, b, c = (FormalBiset(3, {cls: 1}) for cls in picks)
    assert compose(compose(a, b), c) == compose(a, compose(b, c))


def test_explicit_biset_over_the_point_limit_is_refused_before_building(monkeypatch):
    from p3fusion.solver import minimal_biset

    x = minimal_biset(builtin_fusion_system("d16x3"), certify=False).biset
    assert x.size() == 46_115_664

    def built(*_args):
        raise AssertionError("points were allocated")

    monkeypatch.setattr(oracles, "_regular_biset", built)
    monkeypatch.setattr(oracles, "_product_explicit", built)
    with pytest.raises(ResourceLimitError) as info:
        explicit_from_formal(x)
    assert str(info.value) == "explicit biset would have 46115664 > 2000000 points"


def test_composite_over_the_point_limit_is_refused():
    # X has 26,136 points, within the limit; X x_S X has 968 * 26,136
    from p3fusion.solver import minimal_biset

    x = minimal_biset(builtin_fusion_system("d8"), certify=False).biset
    assert explicit_from_formal(x).size == 26_136
    with pytest.raises(ResourceLimitError) as info:
        compose(x, x)
    assert str(info.value) == "composite would have 25299648 > 2000000 points"


def test_all_graph_classes_is_refused_above_p5():
    with pytest.raises(ResourceLimitError,
                       match=r"^full graph-class enumeration is limited to p <= 5$"):
        all_graph_classes(7)


def test_stability_of_identity_for_trivial_like_sum():
    # [S, id] alone is stable for the class enumeration restricted to inner maps;
    # against a full fusion system it fails at some outer class, with a witness
    sys_ = builtin_fusion_system("d8")
    g = sys_.group
    ident_cls = biset_class(identity_morphism(g.full))
    b = FormalBiset(3, {ident_cls: 1})
    res = is_left_stable(sys_, b)
    assert not res.ok
    rep, lhs, rhs = res.witness
    assert lhs != rhs


def test_condition_a_violation():
    sys_ = builtin_fusion_system("d8")
    g = ambient_group(3)
    # u_0 -> u_0 * z is S-conjugate to the inclusion, hence inside the system;
    # build instead a morphism between order-9 groups that is NOT in F for d8:
    # D8 classes are {0,3} and {1,2}, so V_0 -> V_1 maps are outside
    v0, v1 = sys_.maximals[0], sys_.maximals[1]
    z = g.z
    mor = morphism_from_images(v0, {z: z, sys_.u[0]: sys_.u[1]})
    bad = FormalBiset(3, {biset_class(mor): 1})
    with pytest.raises(ConditionAViolationError) as info:
        is_left_stable(sys_, bad)
    assert info.value.biset_class == biset_class(mor)
    assert str(info.value) == f"support class outside the fusion system: {biset_class(mor)}"


def test_identity_biset_stable_for_inner_classes():
    # [S, id] alone is characteristic for the system of inner maps: marks at
    # every conjugation graph match both identity-side marks
    g = ambient_group(3)
    ident_cls = biset_class(identity_morphism(g.full))
    b = FormalBiset(3, {ident_cls: 1})
    for q in g.all_subgroups:
        for x in g.elements[:9]:
            phi = conjugation_morphism(x, q)
            lhs = biset_mark(b, biset_class(phi))
            left_rhs = biset_mark(b, biset_class(identity_morphism(phi.image)))
            right_rhs = biset_mark(b, biset_class(identity_morphism(q)))
            assert lhs == left_rhs == right_rhs


def test_graph_class_size_against_explicit_orbit():
    # orbit-stabilizer on the S x S orbit of a graph subgroup: the stabilizer
    # is N_{phi,phi} x C_S(phi(Q)), so this checks the transporters on the diagonal
    rng = random.Random(41)
    sys_ = builtin_fusion_system("d8")
    g = sys_.group
    for rep in rng.sample(list(sys_.all_class_reps()), 12):
        mor = rep.morphism
        seen = set()
        for s in g.elements:
            si = s.inv()
            for t in g.elements:
                src = tuple(sorted(e.conj_by(s).code() for e in mor.source))
                gens = conjugation_morphism(s, mor.source).image.canonical_gens
                imgs = tuple(mor(e.conj_by(si)).conj_by(t).code() for e in gens)
                seen.add((src, imgs))
        stabilizer = len(transporter_set(mor, mor)) * g.centralizer(mor.image).order
        assert len(seen) * stabilizer == g.full.order**2


def test_mark_vector_entries_are_class_functions():
    sys_ = builtin_fusion_system("d8")
    rep = next(r for r in sys_.v_source_reps(0) if r.extendable)
    cls = biset_class(rep.morphism)
    b = FormalBiset(3, {cls: 3})
    mv = mark_vector(b)
    assert mv[cls] == 3 * count_fixed_points(cls, cls)


def test_fraction_coefficients_supported():
    sys_ = builtin_fusion_system("d8")
    g = sys_.group
    ident_cls = biset_class(identity_morphism(g.full))
    b = FormalBiset(3, {ident_cls: Fraction(1, 8)})
    assert biset_mark(b, ident_cls) == Fraction(3, 8)
    assert b.denominators_coprime_to_p()


def test_json_roundtrip():
    rng = random.Random(29)
    sys_ = builtin_fusion_system("d8")
    reps = list(sys_.all_class_reps())
    coeffs = {}
    for _ in range(4):
        coeffs[biset_class(rng.choice(reps).morphism)] = Fraction(rng.randint(1, 9), 8)
    b = FormalBiset(3, coeffs)
    assert FormalBiset.from_json(b.to_json("d8")) == b


# -- the per-system sparse mark table ---------------------------------------------

def _dense_row(table, test):
    """Every nonzero count_fixed_points value over the table's columns.  The
    unfiltered transporter count must vanish on every other column."""
    out = {}
    for cls in table.columns:
        value = count_fixed_points(cls, test)
        if value:
            out[cls] = value
    assert {cls for cls in table.columns if transporters(test.rep, cls.rep)} == set(out)
    return out


def _dense_sweep(system, b, side):
    """The stability sweep evaluated with biset_mark over the whole support."""
    for rep in system.all_class_reps():
        lhs = biset_mark(b, biset_class(rep.morphism))
        anchor = rep.morphism.image if side == "left" else rep.morphism.source
        rhs = biset_mark(b, biset_class(identity_morphism(anchor)))
        if lhs != rhs:
            return rep, lhs, rhs
    return None


def test_mark_table_rows_match_dense_scan_p3():
    for name in ("d8", "sd16"):
        table = mark_table(builtin_fusion_system(name))
        for test in table.columns:
            assert table.row(test) == _dense_row(table, test)


def test_mark_table_sampled_rows_match_dense_scan():
    rng = random.Random(43)
    for name in ("4s4", "d16x3"):
        table = mark_table(builtin_fusion_system(name))
        for test in rng.sample(table.columns, 50):
            assert table.row(test) == _dense_row(table, test)


def _test_classes(system, table):
    """The classes a row is built for: each column, then the identity class
    of every subgroup (the stability sweeps' right-hand sides)."""
    ids = (biset_class(identity_morphism(q)) for q in system.group.all_subgroups)
    return list(dict.fromkeys([*table.columns, *ids]))


def test_mark_table_rows_match_oracle_p3():
    for name in ("d8", "sd16"):
        system = builtin_fusion_system(name)
        table = mark_table(system)
        for test in _test_classes(system, table):
            row = table.row(test)
            assert [row.get(col, 0) for col in table.columns] == \
                [brute_force_fixed_points(col, test) for col in table.columns]


def test_mark_table_sampled_pairs_match_oracle():
    """200 seeded (test, column) pairs per system; every other column is drawn
    from the row's nonzero entries, since a row at p >= 5 is mostly zeros."""
    rng = random.Random(61)
    for name in ("4s4", "d16x3"):
        system = builtin_fusion_system(name)
        table = mark_table(system)
        tests = _test_classes(system, table)
        nonzero = 0
        for k in range(200):
            test = rng.choice(tests)
            row = table.row(test)
            col = rng.choice(sorted(row) if k % 2 and row else table.columns)
            value = brute_force_fixed_points(col, test)
            assert row.get(col, 0) == value
            nonzero += value != 0
        assert nonzero >= 50


def _reference_row(table, test):
    """The row loop before any column was skipped: every column that the
    subconjugacy matrix allows, scanned over every coset rep of C_S(R) that
    conjugates R into its source, with the mark formula applied by hand to
    the plain count of transporters."""
    psi = test.rep
    grp = ambient_group(psi.p)
    fits = grp.subconjugacy
    search = biset._TransporterSearch(psi)
    conjugates = [(x, tuple(r.conj_by(x).code() for r in psi.source.canonical_gens))
                  for x in grp.conj_transversal(psi.source)]
    scale = grp.centralizer(psi.source).order * grp.centralizer(psi.image).order
    row = {}
    for cls in table.columns:
        phi = cls.rep
        if fits[psi.source.id][phi.source.id] and fits[psi.image.id][phi.image.id]:
            here = [pair for pair in conjugates if all(c in phi.source.position for c in pair[1])]
            hits = sum(1 for _ in search.transporters(phi, here))
            value, rest = divmod(hits * scale, phi.source.order)
            assert rest == 0
            if value:
                row[cls] = value
    return row


@pytest.mark.parametrize("name", ["d8", "sd16", "4s4", "d16x3"])
def test_mark_table_rows_equal_reference_row(name):
    """Every row of the table, and the row of each column's graph taken over
    its own source (a class whose key differs from the column's S x S class),
    equals the row that visits every column with every conjugate."""
    system = builtin_fusion_system(name)
    table = mark_table(system)
    for test in _test_classes(system, table):
        assert table.row(test) == _reference_row(table, test)
    for col in [cls for cls in table.columns if cls.source is not system.group.full][::7]:
        test = biset_class(col.rep, left=col.source)
        assert test != col
        assert table.row(test) == _reference_row(table, test) != {}


def test_marks_at_automorphism_and_equal_order_columns_match_oracle_p5():
    """Seeded 4S4 pairs on the columns a row decides without a scan, against
    the explicit coset count: automorphism columns at restrictions of an
    automorphism, and columns of the test's order, with the test also taken
    over its own source, whose key is not its S x S class."""
    rng = random.Random(71)
    system = builtin_fusion_system("4s4")
    table = mark_table(system)
    grp = system.group
    auts = [cls for cls in table.columns if cls.source is grp.full]
    proper = [cls for cls in table.columns if cls.source is not grp.full]
    pairs = []
    for k in range(80):
        aut = rng.choice(auts)
        test = biset_class(aut.rep.restrict(rng.choice(grp.all_subgroups)))
        pairs.append(("automorphism", aut if k % 2 else rng.choice(auts), test))
    for _ in range(60):
        test = rng.choice(proper)
        col = rng.choice([cls for cls in proper
                          if cls.source.order == test.source.order and cls != test])
        pairs.append(("equal order", col, test))
        pairs.append(("own source", test, biset_class(test.rep, left=test.source)))
    nonzero = {kind: 0 for kind, _, _ in pairs}
    for kind, col, test in pairs:
        value = brute_force_fixed_points(col, test)
        assert count_fixed_points(col, test) == value
        assert table.row(test).get(col, 0) == value
        nonzero[kind] += value != 0
    assert nonzero["automorphism"] >= 40
    assert nonzero["equal order"] == 0
    assert nonzero["own source"] == 60


def test_mark_table_mark_equals_biset_mark():
    from p3fusion.idempotent import omega_upto2
    from p3fusion.solver import minimal_biset

    for name in ("d8", "sd16"):
        sys_ = builtin_fusion_system(name)
        table = mark_table(sys_)
        for b in (minimal_biset(sys_, certify=False).biset, omega_upto2(sys_)):
            for test in table.columns:
                assert table.mark(b, test) == biset_mark(b, test)


def test_mark_table_sweep_witness_matches_dense_sweep():
    from p3fusion.idempotent import omega_upto2

    sys_ = builtin_fusion_system("d8")
    grp = sys_.group
    zz = biset_class(morphism_from_images(grp.cyclic(grp.z), {grp.z: grp.z}))
    bad = omega_upto2(sys_) + FormalBiset(3, {zz: Fraction(1, 3)})
    for side, sweep in (("left", is_left_stable), ("right", is_right_stable)):
        res = sweep(sys_, bad)
        assert not res.ok
        assert res.witness == _dense_sweep(sys_, bad, side)


def test_all_graph_classes_p3_matches_full_closure():
    """Skipping the closure of an automorphism whose images modulo Z were
    already seen keeps every class and the first representative of each."""
    grp = ambient_group(3)
    first = {}
    for r_sub in grp.all_subgroups:
        gens = r_sub.canonical_gens
        for images in itertools.product(grp.elements[1:], repeat=len(gens)):
            try:
                mor = morphism_from_images(r_sub, dict(zip(gens, images)))
            except MorphismError:
                continue
            first.setdefault(biset_class(mor), mor)
    classes = all_graph_classes(3)
    assert list(classes) == sorted(first)
    assert all(cls.rep == first[cls] for cls in classes)


def test_public_names_resolve():
    import p3fusion
    import p3fusion.biset

    for module in (p3fusion, p3fusion.biset):
        assert [name for name in module.__all__ if not hasattr(module, name)] == []
