import random
from array import array

import pytest

from p3fusion import realize
from p3fusion.biset import biset_class
from p3fusion.errors import StabilityViolationError, TheoremViolationError
from p3fusion.fusion import builtin_fusion_system, lift_matrix_to_aut
from p3fusion.group import ambient_group, identity_morphism
from p3fusion.realize import (
    BisetIndex,
    _conjugation_witness,
    _join_orbits,
    _pieces_by_class,
    check_transitivity,
    essential_generators,
    j0_class_action_checks,
    perm_from_morphism,
    perm_image_of_essential,
    perm_image_of_out,
)
from p3fusion.solver import minimal_biset


def _index(name):
    sys_ = builtin_fusion_system(name)
    x = minimal_biset(sys_, certify=False).biset
    return sys_, BisetIndex(sys_, x)


def test_index_set_shape():
    sys_, index = _index("d8")
    assert index.size == 968
    assert len(index.j0) == 8
    # block counts per layer match the d-values
    by_size = {}
    for b in index.blocks:
        by_size[b.size] = by_size.get(b.size, 0) + 1
    assert by_size == {1: 8, 3: 32, 9: 96}
    # singleton blocks are exactly the automorphism summands
    for b in index.blocks:
        if b.size == 1:
            assert b.cls.rep.source.order == 27


def test_index_set_rejects_virtual():
    from p3fusion.idempotent import omega_upto2

    sys_ = builtin_fusion_system("d8")
    with pytest.raises(ValueError):
        BisetIndex(sys_, omega_upto2(sys_))


def test_out_perm_bijective_and_class_respecting():
    sys_, index = _index("d8")
    for m in sys_.sorted_out:
        alpha = lift_matrix_to_aut(m)
        perm = perm_image_of_out(index, alpha)
        assert sorted(perm) == list(range(index.size))
        # block-to-block, preserving block sizes
        label_block = {}
        for b in index.blocks:
            for pos in range(b.size):
                label_block[b.offset + pos] = b
        for i, j in enumerate(perm):
            assert label_block[i].size == label_block[j].size


def test_out_perm_singleton_rule():
    # the singleton block [S, sigma] goes to the block of [S, sigma o alpha]
    sys_, index = _index("sd16")
    for m in sys_.sorted_out[:5]:
        alpha = lift_matrix_to_aut(m)
        perm = perm_image_of_out(index, alpha)
        for b in index.blocks:
            if b.size != 1:
                continue
            target_label = perm[b.offset]
            target_block = next(tb for tb in index.blocks
                                if tb.offset == target_label and tb.size == 1)
            expect = biset_class(b.cls.rep.compose(alpha))
            assert target_block.cls == expect


def test_identity_perm_is_identity():
    sys_, index = _index("d8")
    ident = lift_matrix_to_aut(sys_.sorted_out[0] * sys_.sorted_out[0].inv())
    perm = perm_image_of_out(index, ident)
    assert list(perm) == list(range(index.size))


def test_essential_perm_merges_block_sizes():
    sys_, index = _index("d8")
    phi = essential_generators(sys_)[0]
    perm = perm_image_of_essential(index, phi)
    assert sorted(perm) == list(range(index.size))
    label_block = {}
    for b in index.blocks:
        for pos in range(b.size):
            label_block[b.offset + pos] = b
    sizes_mixed = any(label_block[i].size != label_block[j].size
                      for i, j in enumerate(perm))
    assert sizes_mixed  # singleton labels flow into p-sized blocks
    with pytest.raises(ValueError):
        ext = next(r for r in sys_.v_source_reps(0) if r.extendable)
        perm_image_of_essential(index, ext)


def test_double_application_respects_block_classes():
    # applying phi then its inverse stabilises every class's label set
    sys_, index = _index("d8")
    phi = essential_generators(sys_)[0]
    perm = perm_image_of_essential(index, phi)
    inv_mor = phi.morphism.inverse()
    perm_inv = perm_from_morphism(index, inv_mor)
    combined = [perm_inv[perm[i]] for i in range(index.size)]
    labels_by_class = {}
    for b in index.blocks:
        labels_by_class.setdefault(b.cls, set()).update(
            range(b.offset, b.offset + b.size))
    for labels in labels_by_class.values():
        assert {combined[i] for i in labels} == labels


def test_j0_class_action():
    for name in ("d8", "sd16", "th4s4", "rv48", "rv72", "rv96"):
        ok, reason = j0_class_action_checks(builtin_fusion_system(name))
        assert ok, reason


def test_transitivity_p3_both_systems():
    # the generator counts depend on how restriction pieces are matched, so
    # they are pinned as well as the orbit count
    rep = check_transitivity(builtin_fusion_system("d8"))
    assert rep.j_size == 968 and rep.orbit_count == 1 and rep.ok
    assert rep.generator_count == 10 and rep.extra_essential_generators == 0
    rep = check_transitivity(builtin_fusion_system("sd16"))
    assert rep.j_size == 1936 and rep.orbit_count == 1 and rep.ok
    assert rep.generator_count == 17 and rep.extra_essential_generators == 0


def _bfs_orbit_count(n, perms):
    seen = [False] * n
    count = 0
    for start in range(n):
        if seen[start]:
            continue
        count += 1
        seen[start] = True
        stack = [start]
        while stack:
            i = stack.pop()
            for perm in perms:
                if not seen[perm[i]]:
                    seen[perm[i]] = True
                    stack.append(perm[i])
    return count


def test_join_orbits_matches_bfs_after_each_generator():
    # the count after each generator decides the early break and the
    # generator count, so it is checked after every one; sparse permutations
    # (a few random cycles) make the count fall slowly
    rng = random.Random(2010)
    for n in (1, 2, 9, 120, 700):
        parent = list(range(n))
        orbits = n
        perms = []
        for _ in range(8):
            perm = array("l", range(n))
            cycle = rng.sample(range(n), rng.randint(1, min(n, 6)))
            for i, j in zip(cycle, cycle[1:] + cycle[:1]):
                perm[i] = j
            perms.append(perm)
            orbits -= _join_orbits(parent, perm)
            assert orbits == _bfs_orbit_count(n, perms)
        perms.append(array("l", rng.sample(range(n), n)))
        orbits -= _join_orbits(parent, perms[-1])
        assert orbits == _bfs_orbit_count(n, perms)


def _wrap_out_perms(monkeypatch, change):
    """Make check_transitivity see every outer permutation after `change`,
    which must leave it a bijection of J."""
    plain = realize.perm_image_of_out

    def wrapped(index, alpha):
        perm = plain(index, alpha)
        change(index, perm)
        assert sorted(perm) == list(range(index.size))
        return perm

    monkeypatch.setattr(realize, "perm_image_of_out", wrapped)


def test_outer_permutation_fixing_a_singleton_label_is_refused(monkeypatch):
    def fix_j0(index, perm):
        for label in index.j0:
            perm[label] = label

    _wrap_out_perms(monkeypatch, fix_j0)
    with pytest.raises(TheoremViolationError, match="fixes a singleton label"):
        check_transitivity(builtin_fusion_system("d8"))


def test_outer_permutation_leaving_the_singleton_labels_is_refused(monkeypatch):
    def swap_out(index, perm):
        label = index.j0[0]
        other = next(b.offset for b in index.blocks if b.size > 1)
        perm[label], perm[other] = perm[other], perm[label]

    _wrap_out_perms(monkeypatch, swap_out)
    with pytest.raises(TheoremViolationError, match="leaves the singleton labels"):
        check_transitivity(builtin_fusion_system("d8"))


def test_report_json():
    rep = check_transitivity(builtin_fusion_system("d8"))
    data = rep.to_json()
    assert data["J_size"] == 968
    assert data["orbit_count"] == 1
    assert data["J0_regular"] is True
    assert data["ok"] is True


def test_stability_violation_for_wrong_biset():
    # a lopsided biset is not stable: the permutation construction must fail
    sys_ = builtin_fusion_system("d8")
    from p3fusion.biset import FormalBiset
    from p3fusion.solver import layer0

    x0 = layer0(sys_, 1)
    bad = FormalBiset(3, dict(list(x0.coeffs.items())[:3]))
    index = BisetIndex(sys_, bad)
    phi = essential_generators(sys_)[0]
    with pytest.raises(StabilityViolationError):
        perm_image_of_essential(index, phi)


def test_wrong_witness_is_refused_as_not_a_permutation(monkeypatch):
    # the identity in place of the conjugation witness sends two labels of
    # some orbit to one label
    sys_, index = _index("d8")
    monkeypatch.setattr(realize, "_conjugation_witness",
                        lambda r_sub, a_mor, b_mor: r_sub.sorted_elements[0])
    alpha = lift_matrix_to_aut(sys_.sorted_out[1])
    with pytest.raises(StabilityViolationError, match="not a permutation"):
        perm_image_of_out(index, alpha)


def _elementwise_witness(r_sub, a_mor, b_mor):
    """Reference: the first a in R, in sorted order, with a^-1 A a <= A' and
    kappa'(a^-1 g a) == b kappa(g) b^-1 on the generators g of A for one b in S."""
    gens = a_mor.source.canonical_gens
    for a in r_sub.sorted_elements:
        ai = a.inv()
        moved = [ai * g * a for g in gens]
        if any(m not in b_mor.source for m in moved):
            continue
        if any(all(b_mor(m) == a_mor(g).conj_by(b) for g, m in zip(gens, moved))
               for b in ambient_group(r_sub.p).elements):
            return a
    return None


@pytest.mark.parametrize("name", ["d8", "sd16"])
def test_witness_matches_elementwise_search(name):
    sys_, index = _index(name)
    morphisms = [rep.morphism for rep in essential_generators(sys_)]
    morphisms += [lift_matrix_to_aut(m).inverse() for m in sys_.sorted_out]
    pairs = 0
    moved = 0
    for psi in morphisms:
        r_sub = psi.source
        sources = _pieces_by_class(index, identity_morphism(r_sub))
        targets = _pieces_by_class(index, psi)
        for cls, src in sources.items():
            for s_piece, t_piece in zip(src, targets[cls]):
                s_mor, t_mor = s_piece[-1], t_piece[-1]
                witness = _conjugation_witness(r_sub, s_mor, t_mor)
                assert witness == _elementwise_witness(r_sub, s_mor, t_mor)
                pairs += 1
                moved += not witness.is_identity()
    assert pairs and moved  # some witness is not the identity
