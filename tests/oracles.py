"""Explicit-set oracles that only the tests read: the pointwise actions of an
ExplicitBiset and the orbit decomposition of its restriction along a
morphism, which restrict_left is checked against."""

from p3fusion.biset import ExplicitBiset, FormalBiset, biset_class
from p3fusion.group import GroupElement, GroupMorphism, ambient_group


def _word(x: ExplicitBiset, g: GroupElement) -> tuple:
    # g = x**a * y**b * z**(c - a*b)
    return g.a, g.b, (g.c - g.a * g.b) % x.p


def left(x: ExplicitBiset, g: GroupElement, i: int) -> int:
    """The point g.i, one generator step at a time."""
    a, b, k = _word(x, g)
    grp = ambient_group(x.p)
    for gen, times in ((grp.z, k), (grp.y, b), (grp.x, a)):
        for _ in range(times):
            i = x.left_gen[gen][i]
    return i


def right(x: ExplicitBiset, i: int, g: GroupElement) -> int:
    """The point i.g, one generator step at a time."""
    a, b, k = _word(x, g)
    grp = ambient_group(x.p)
    for gen, times in ((grp.x, a), (grp.y, b), (grp.z, k)):
        for _ in range(times):
            i = x.right_gen[gen][i]
    return i


def restricted_orbit_decomposition(x: ExplicitBiset, psi: GroupMorphism) -> FormalBiset:
    """Orbit split of x with the left action pulled back along psi: R -> S.

    Each biorbit of (psi(R), S) is a transitive R-S-piece whose graph is read
    off the right-regular coordinates of a seed point.  Along the identity of
    S it is the orbit decomposition of the S-S-set, independent of marks."""
    grp = ambient_group(x.p)
    r_sub = psi.source
    psi_gen_elems = [psi(r) for r in r_sub.canonical_gens]
    unassigned = set(range(x.size))
    coeffs = {}
    while unassigned:
        seed = min(unassigned)
        orbit = {seed}
        frontier = [seed]
        while frontier:
            i = frontier.pop()
            moved = [left(x, m, i) for m in psi_gen_elems]
            moved.extend(x.right_gen[g][i] for g in (grp.x, grp.y, grp.z))
            for j in moved:
                if j not in orbit:
                    orbit.add(j)
                    frontier.append(j)
        unassigned -= orbit
        right_orbit = {right(x, seed, g): g.code() for g in grp.elements}
        held = [(r.code(), right_orbit.get(left(x, psi(r), seed))) for r in r_sub]
        codes, table = zip(*[(r, y) for r, y in held if y is not None])
        mor = GroupMorphism(grp.by_codes(codes), table)
        cls = biset_class(mor, left=r_sub)
        coeffs[cls] = coeffs.get(cls, 0) + 1
    return FormalBiset(x.p, coeffs, left=r_sub)
