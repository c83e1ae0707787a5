import itertools
import random

import pytest

from oracles import compose_morphisms, conjugation_morphism
from p3fusion.errors import MorphismError, PrimeMismatchError
from p3fusion.group import (
    GroupElement,
    GroupMorphism,
    ambient_group,
    identity_morphism,
    line_index,
    morphism_from_images,
    require_odd_prime,
)


def test_require_odd_prime():
    assert require_odd_prime(3) == 3
    assert require_odd_prime(7) == 7
    assert require_odd_prime(11) == 11
    for bad in (1, 2, 4, 9, 15, -3):
        with pytest.raises(ValueError):
            require_odd_prime(bad)


def test_defining_relation():
    g = ambient_group(3)
    assert g.x * g.y == GroupElement(3, 1, 1, 1)
    assert g.y * g.x == GroupElement(3, 1, 1, 0)
    assert g.x * g.y * g.x.inv() * g.y.inv() == g.z


def test_group_axioms_exhaustive_p3():
    g = ambient_group(3)
    e = g.identity
    for a in g.elements:
        assert a * a.inv() == e
        assert a.inv() * a == e
    for a in g.elements:
        for b in g.elements:
            ab = a * b
            assert ab in frozenset(g.elements)
            for c in g.elements:
                assert (ab) * c == a * (b * c)


def test_exponent_p():
    for p in (3, 5, 7):
        g = ambient_group(p)
        for a in g.elements:
            x = a
            for _ in range(p - 1):
                x = x * a
            assert x == g.identity
            assert a**p == g.identity


def test_x_power_p_is_identity_at_5():
    g = ambient_group(5)
    acc = g.identity
    for _ in range(5):
        acc = acc * g.x
    assert acc == g.identity


def test_prime_mismatch():
    with pytest.raises(PrimeMismatchError):
        GroupElement(3, 1, 0, 0) * GroupElement(5, 1, 0, 0)


def test_center_and_sizes():
    for p in (3, 5, 7):
        g = ambient_group(p)
        assert len(g.elements) == p**3
        assert g.center.order == p
        assert all(z.is_central() for z in g.center)
        assert g.centralizer(g.full) == g.center
        assert g.centralizer(g.center) == g.full


def test_arbitrary_odd_prime_accepted():
    g = ambient_group(11)
    assert len(g.elements) == 11**3
    assert len(g.maximal_subgroups) == 12
    assert (g.x * g.y) * g.z == g.x * (g.y * g.z)
    assert g.x**11 == g.identity


def test_maximal_subgroups():
    for p in (3, 5, 7):
        g = ambient_group(p)
        vs = g.maximal_subgroups
        assert len(vs) == p + 1
        for v in vs:
            assert v.order == p * p
            assert g.z in v
            # elementary abelian: every pair commutes
            gens = v.canonical_gens
            assert (gens[0] * gens[1] * gens[0].inv() * gens[1].inv()).is_identity()
            assert g.centralizer(v) == v
        # pairwise intersections are exactly the center
        for i in range(len(vs)):
            for j in range(i + 1, len(vs)):
                assert frozenset(vs[i]) & frozenset(vs[j]) == frozenset(g.center)


def test_commutator_subgroup_is_frattini_p3():
    g = ambient_group(3)
    comms = {a * b * a.inv() * b.inv() for a in g.elements for b in g.elements}
    assert comms == set(g.center)
    # Frattini = intersection of maximals
    inter = set(g.elements)
    for v in g.maximal_subgroups:
        inter &= frozenset(v)
    assert inter == set(g.center)


def test_conjugation_morphism():
    g = ambient_group(3)
    for q in g.maximal_subgroups:
        cz = conjugation_morphism(g.z, q)
        assert cz == identity_morphism(cz.source)
    # c_v(u0) = z * u0 for a v with [v, u0] = z
    p = 5
    g5 = ambient_group(p)
    u0 = g5.x
    v = g5.y.inv()
    assert v * u0 * v.inv() * u0.inv() == g5.z
    c = conjugation_morphism(v, g5.generated([g5.z, u0]))
    assert c(u0) == g5.z * u0


def test_conjugation_functorial_exhaustive_p3():
    g = ambient_group(3)
    v0 = g.maximal_subgroups[0]
    for a in g.elements:
        ca = conjugation_morphism(a, v0)
        for b in g.elements:
            cb = conjugation_morphism(b, v0)
            cab = conjugation_morphism(a * b, v0)
            assert compose_morphisms(ca, cb) == cab


@pytest.mark.parametrize("p", [3, 5])
def test_morphism_table_must_cover_the_source(p):
    """A table shorter or longer than the source's order is refused with a
    package error, not an assert that -O would drop."""
    g = ambient_group(p)
    for q in g.all_subgroups:
        assert GroupMorphism(q, q.codes).table is q.codes
        for bad in (q.codes[:-1], q.codes + (0,)):
            with pytest.raises(MorphismError, match="images for a source of order"):
                GroupMorphism(q, bad)


def test_morphism_construction_and_rejection():
    g = ambient_group(3)
    v0 = g.maximal_subgroups[0]
    z, u = v0.canonical_gens
    ok = morphism_from_images(v0, {z: z, u: u * g.z})
    assert ok(u) == u * g.z
    with pytest.raises(PrimeMismatchError):
        ok(GroupElement(5, 0, 0, 1))
    # an element outside the source
    with pytest.raises(MorphismError, match="outside the source"):
        identity_morphism(g.center)(g.x)
    with pytest.raises(MorphismError):
        ok(g.y)
    # non-injective assignment
    with pytest.raises(MorphismError):
        morphism_from_images(v0, {z: g.identity, u: u})
    # relation-breaking assignment on S: x,y must have commutator of z-shape
    with pytest.raises(MorphismError):
        morphism_from_images(g.full, {g.x: g.x, g.y: g.identity})


def _reference_closure(source, generator_images):
    """The image table by GroupElement products, or the message of the
    MorphismError the checked constructor must raise."""
    identity = ambient_group(source.p).identity
    images = {0: 0}
    frontier = [(identity, identity)]
    while frontier:
        g, fg = frontier.pop()
        for s, fs in generator_images.items():
            h, fh = g * s, fg * fs
            known = images.get(h.code())
            if known is None:
                images[h.code()] = fh.code()
                frontier.append((h, fh))
            elif known != fh.code():
                return "generator images are inconsistent with the group law"
    if len(images) != source.order:
        return "generators do not generate the source subgroup"
    if len(set(images.values())) != len(images):
        return "generator images do not define an injective map"
    return images


def test_morphism_closure_matches_element_products_p3():
    """Every assignment of generator images, on every subgroup, gives the
    table or the error that the closure over GroupElement products gives."""
    g = ambient_group(3)
    accepted = 0
    for q in g.all_subgroups:
        for images in itertools.product(g.elements, repeat=len(q.canonical_gens)):
            assignment = dict(zip(q.canonical_gens, images))
            want = _reference_closure(q, assignment)
            if isinstance(want, dict):
                want = tuple(want[c] for c in q.codes)
            try:
                got = morphism_from_images(q, assignment).table
                accepted += 1
            except MorphismError as exc:
                got = str(exc)
            assert got == want
    assert accepted == 1539


def test_morphism_closure_matches_element_products_sampled_p5():
    """Seeded p = 5 assignments on canonical and on drawn generators give the
    table, in the order of the source's codes, or the error of the closure over
    GroupElement products.  The walk is kept per tuple of generator codes,
    so a failing assignment on a kept walk is followed by a passing one."""
    rng = random.Random(5)
    g = ambient_group(5)
    outcomes = set()
    for _ in range(400):
        q = rng.choice(g.all_subgroups[1:])
        gens = q.canonical_gens
        if rng.random() < 0.5:
            gens = tuple(rng.sample(list(q)[1:], len(gens)))
        x, k = rng.choice(g.elements), rng.randrange(5)
        assignment = rng.choice([{s: rng.choice(g.elements) for s in gens},
                                 {s: s.conj_by(x) for s in gens}, {s: s**k for s in gens}])
        want = _reference_closure(q, assignment)
        try:
            got = morphism_from_images(q, assignment).table
            want = tuple(want[c] for c in q.codes)
        except MorphismError as exc:
            got = str(exc)
        assert got == want
        outcomes.add(got if isinstance(got, str) else "accepted")
    assert len(outcomes) == 4  # every error, and some accepted tables
    v = g.maximal_subgroups[2]
    z, u = v.canonical_gens
    walk = g.closure_walk((z.code(), u.code()))  # kept from here on
    for bad, message in (({z: u, u: g.x}, "inconsistent"), ({z: g.z, u: g.z}, "injective")):
        with pytest.raises(MorphismError, match=message):
            morphism_from_images(v, bad)
    good = {z: g.z, u: u * g.z}
    want = _reference_closure(v, good)
    assert morphism_from_images(v, good).table == tuple(want[c] for c in v.codes)
    assert g.closure_walk((z.code(), u.code())) is walk


def test_relation_check_on_every_minimal_generating_set_p3():
    """Every generating tuple as short as its subgroup's rank (1 for order p,
    2 for order p^2 or S), ordered, at p = 3, each with 6 seeded tuples of
    images: the one relation check gives the table, or the error, of the
    closure over GroupElement products.  The canonical generators with every
    tuple of images are test_morphism_closure_matches_element_products_p3."""
    rng = random.Random(3)
    g = ambient_group(3)
    outcomes = {}
    for q in g.all_subgroups[1:]:
        rank = 1 if q.order == 3 else 2
        for gens in itertools.permutations(list(q)[1:], rank):
            if g.generated(gens) is not q:
                continue
            for _ in range(6):
                images = [rng.choice(g.elements) for _ in gens]
                if rng.random() < 0.5:  # images on one line, so they commute
                    images[-1] = images[0] ** rng.randrange(3) * g.z ** rng.randrange(3)
                assignment = dict(zip(gens, images))
                want = _reference_closure(q, assignment)
                try:
                    got = morphism_from_images(q, assignment).table
                    want = tuple(want[c] for c in q.codes)
                except MorphismError as exc:
                    got = str(exc)
                assert got == want
                kind = got if isinstance(got, str) else "accepted"
                outcomes[q.order, kind] = outcomes.get((q.order, kind), 0) + 1
    assert sorted(outcomes) == [
        (3, "accepted"), (3, "generator images do not define an injective map"),
        (9, "accepted"), (9, "generator images are inconsistent with the group law"),
        (9, "generator images do not define an injective map"),
        (27, "accepted"), (27, "generator images do not define an injective map")]


def test_morphism_random_rejection_property():
    rng = random.Random(7)
    g = ambient_group(3)
    v0 = g.maximal_subgroups[0]
    z, u = v0.canonical_gens
    accepted = 0
    for _ in range(200):
        imgs = {z: rng.choice(g.elements), u: rng.choice(g.elements)}
        try:
            mor = morphism_from_images(v0, imgs)
        except MorphismError:
            continue
        accepted += 1
        # accepted maps really are injective homomorphisms
        seen = set()
        for a in v0:
            for b in v0:
                assert mor(a * b) == mor(a) * mor(b)
            assert mor(a) not in seen
            seen.add(mor(a))
    assert 0 < accepted < 200


def test_morphism_compose_inverse_restrict():
    g = ambient_group(5)
    v0 = g.maximal_subgroups[0]
    idm = identity_morphism(v0)
    assert compose_morphisms(idm, idm) == idm
    c = conjugation_morphism(g.y, g.full)
    cc = compose_morphisms(c, c.inverse())
    assert cc == identity_morphism(cc.source)
    r = c.restrict(v0)
    assert r.source == v0
    assert all(r(a) == c(a) for a in v0)


def test_construction_paths_give_one_morphism_p3():
    g = ambient_group(3)
    xs = (g.identity, g.x, g.y, g.x * g.y * g.z, g.y.inv())
    for q in g.all_subgroups:
        codes = {e.code() for e in q}
        ident = identity_morphism(q)
        for x in xs:
            f = conjugation_morphism(x, q)
            assert len(f.table) == len(codes)
            assert {f(e).code() for e in q} == set(f.table) and len(set(f.table)) == len(codes)
            same = (morphism_from_images(q, {u: u.conj_by(x) for u in q.canonical_gens}),
                    conjugation_morphism(x, g.full).restrict(q))
            for h in same:
                assert h == f and hash(h) == hash(f)
            back = compose_morphisms(f.inverse(), f)
            assert back == ident and hash(back) == hash(ident)
            there = compose_morphisms(f, f.inverse())
            assert there == identity_morphism(f.image)
            assert hash(there) == hash(identity_morphism(f.image))
        if q is not g.full:
            assert identity_morphism(g.full).restrict(q) == ident
            assert conjugation_morphism(g.x, q) != conjugation_morphism(g.x, g.full)


def test_subgroup_registry_deterministic():
    g = ambient_group(3)
    subs = g.all_subgroups
    # 1 + (p^2+p+1) + (p+1) + 1 subgroups
    assert len(subs) == 1 + (9 + 3 + 1) + 4 + 1
    orders = [s.order for s in subs]
    assert orders == sorted(orders)
    assert g.trivial.id == 0
    assert g.full.id == len(subs) - 1


@pytest.mark.parametrize("p", [3, 5])
def test_subgroup_lattice_is_interned(p):
    g = ambient_group(p)
    subs = g.all_subgroups
    assert len(subs) == p * p + 2 * p + 4
    assert len({frozenset(q) for q in subs}) == len(subs)
    keys = [(q.order, [e.code() for e in q]) for q in subs]
    assert keys == sorted(keys)
    for i, q in enumerate(subs):
        assert q.id == i
        assert q.codes == tuple(e.code() for e in q)
        assert g.subgroup(frozenset(q)) is q
        assert g.subgroup(reversed(tuple(q))) is q
        assert g.generated(q.canonical_gens) is q
        commuting = [h for h in g.elements if all(h * k == k * h for k in q)]
        assert g.centralizer(q) is g.subgroup(commuting)
        assert identity_morphism(q).image is q
    for h in g.elements:
        assert g.cyclic(h) is g.generated([h])
    assert g.maximal_subgroups == tuple(g.generated([g.z, u]) for u in g.pinned_line_generators)
    assert g.center is g.cyclic(g.z)


def test_lattice_paths_return_lattice_objects_p3():
    g = ambient_group(3)
    # every subgroup of S is generated by two elements, so this covers them all
    assert {g.generated([a, b]).id for a in g.elements for b in g.elements} == set(
        range(len(g.all_subgroups)))
    for q in g.all_subgroups:
        for x in g.elements:
            conj = g.subgroup(h.conj_by(x) for h in q)
            assert conjugation_morphism(x, q).image is conj
    mor = morphism_from_images(g.cyclic(g.x), {g.x: g.y * g.z})
    assert mor.image is g.cyclic(g.y * g.z)


@pytest.mark.parametrize("p", [3, 5])
def test_class_representative_names_the_conjugacy_class(p):
    g = ambient_group(p)
    for q in g.all_subgroups:
        conjugates = {conjugation_morphism(x, q).image for x in g.elements}
        assert q.is_normal == (conjugates == {q})
        rep = g.class_representative(q)
        assert rep in conjugates
        assert all(g.class_representative(r) is rep for r in conjugates)


def test_subgroup_lookup_rejects_non_subgroups():
    g = ambient_group(3)
    for bad in ({g.identity, g.x}, {g.x, g.x**2}, frozenset(ambient_group(5).center),
                [GroupElement(5, 0, 0, 0)]):
        with pytest.raises(ValueError):
            g.subgroup(bad)


def test_codes_collide_across_primes_but_membership_does_not():
    # (0, 0, 1) over p = 5 has code 1, the code of z over p = 3
    g = ambient_group(3)
    stranger = GroupElement(5, 0, 0, 1)
    assert stranger.code() == g.z.code()
    assert g.z in g.center
    assert stranger not in g.center
    assert stranger not in g.full
    assert not ambient_group(5).center <= g.full
    with pytest.raises(ValueError):
        g.subgroup([g.identity, stranger, GroupElement(5, 0, 0, 2)])
    with pytest.raises(ValueError):
        g.subgroup(ambient_group(5).trivial)
    with pytest.raises(PrimeMismatchError):
        g.generated([stranger])


def test_line_numbering():
    g = ambient_group(5)
    for i, u in enumerate(g.pinned_line_generators):
        assert g.line_of(u) == i
        assert g.line_of(u**3 * g.z) == i
        assert line_index(5, 3 * u.a, 3 * u.b) == i
    with pytest.raises(ValueError, match="every line"):
        g.line_of(g.z)
    with pytest.raises(ValueError, match="zero vector"):
        line_index(5, 5, 0)


def test_transversals():
    g = ambient_group(3)
    for q in g.all_subgroups:
        reps = g.transversal(q)
        assert len(reps) == g.full.order // q.order
        seen = set()
        for t in reps:
            coset = {t * h for h in q}
            assert not (coset & seen)
            seen |= coset
        assert len(seen) == g.full.order


# -- integer-coded tables -----------------------------------------------------------

def _check_products(g, pairs):
    n = len(g.elements)
    mul = g.product_table
    assert len(mul) == n * n
    for i, j in pairs:
        a, b = g.elements[i], g.elements[j]
        assert mul[i * n + j] == (a * b).code()


def test_product_table_matches_group_law_p3():
    g = ambient_group(3)
    n = len(g.elements)
    assert all(g.elements[e.code()] == e for e in g.elements)
    _check_products(g, [(i, j) for i in range(n) for j in range(n)])


@pytest.mark.parametrize("p", [5, 7])
def test_product_table_matches_group_law_sampled(p):
    g = ambient_group(p)
    n = len(g.elements)
    rng = random.Random(100 + p)
    assert all(g.elements[e.code()] == e for e in g.elements)
    _check_products(g, [(rng.randrange(n), rng.randrange(n)) for _ in range(3000)])


@pytest.mark.parametrize("p", [3, 5])
def test_coset_index_partitions_the_group(p):
    g = ambient_group(p)
    n = len(g.elements)
    for q in g.all_subgroups:
        reps, pos = g.coset_index(q)
        assert reps == tuple(t.code() for t in g.transversal(q))
        assert len(pos) == n
        assert len(set(pos)) == n
        for code, (i, h) in enumerate(pos):
            assert g.elements[h] in q
            assert g.elements[reps[i]] * g.elements[h] == g.elements[code]
        assert g.coset_index(q) is g.coset_index(q)


def test_fixed_coset_table_p3():
    """For every pair (Q, R): the cosets tQ with r*t in t*Q for each canonical
    generator r of R, in coset order, each with the positions in Q.codes of q = t^-1 r t;
    checked in element arithmetic, with the inverse codes beside it."""
    g = ambient_group(3)
    assert all(g.elements[i] * g.elements[j] == g.identity
               for i, j in enumerate(g.inverse_codes))
    for q in g.all_subgroups:
        cosets = [(t, {t * h for h in q}) for t in g.transversal(q)]
        for r in g.all_subgroups:
            gens = r.canonical_gens
            expected = tuple(tuple(q.codes.index((t.inv() * s * t).code()) for s in gens)
                             for t, coset in cosets if all(s * t in coset for s in gens))
            assert g.fixed_cosets(q, r) == expected
            assert g.fixed_cosets(q, r) is g.fixed_cosets(q, r)
        assert len(g.fixed_cosets(q, g.trivial)) == len(cosets)


def test_tables_not_built_by_group_or_system_construction():
    # a fresh interpreter, so no earlier test has asked for the tables
    import os
    import subprocess
    import sys
    from pathlib import Path

    code = (
        "from p3fusion.fusion import fusion_system, resolve_system\n"
        "from p3fusion.group import ambient_group\n"
        "for p, name in ((3, 'd8'), (7, 'd16x3')):\n"
        "    ambient_group(p)\n"
        "    fusion_system(resolve_system(name))\n"
        "    g = ambient_group(p)\n"
        "    print(g._product_table is None, g._coset_indices == {})\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [v for v in [os.environ.get("PYTHONPATH")] if v]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True).stdout
    assert out.split() == ["True"] * 4
