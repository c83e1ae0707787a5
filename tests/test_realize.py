import gc
import hashlib
import random
import tracemalloc
import weakref
from array import array
from collections import Counter
from itertools import accumulate, combinations
from types import SimpleNamespace

import pytest

from oracles import (
    builtin_fusion_system,
    cached_system,
    compose_morphisms,
    reference_candidates,
    reference_conjugation_witness,
)
from p3fusion import biset, fusion, realize
from p3fusion.biset import FormalBiset, biset_class, restrict_left
from p3fusion.cli import main
from p3fusion.errors import (
    ConditionAViolationError,
    PrimeMismatchError,
    StabilityViolationError,
    TheoremViolationError,
)
from p3fusion.fusion import (
    FusionClass,
    FusionSystemSpec,
    act_on_line,
    builtin_systems,
    gl2_elements,
    lift_matrix_to_aut,
)
from p3fusion.group import ExtraspecialGroup, GroupMorphism, ambient_group, identity_morphism
from p3fusion.realize import (
    BisetIndex,
    _conjugation_witness,
    _join_orbits,
    check_transitivity,
    essential_generators,
    j0_class_action_checks,
    perm_from_morphism,
)
from p3fusion.solver import minimal_biset


def _index(name):
    sys_ = builtin_fusion_system(name)
    x = minimal_biset(sys_, certify=False).biset
    return sys_, BisetIndex(sys_, x)


def _blocks(index):
    """(class, offset, size) of each block of J, in block order."""
    return [(cls, offset + k * size, size)
            for cls, (offset, size, copies) in index.classes.items() for k in range(copies)]


def test_index_set_shape():
    sys_, index = _index("d8")
    assert index.size == 968
    assert len(index.j0) == 8
    # block counts per layer match the d-values
    by_size = {}
    for _cls, _offset, size in _blocks(index):
        by_size[size] = by_size.get(size, 0) + 1
    assert by_size == {1: 8, 3: 32, 9: 96}
    # singleton blocks are exactly the automorphism summands
    for cls, _offset, size in _blocks(index):
        if size == 1:
            assert cls.rep.source.order == 27
    # blocks tile J in order, and J0 is the singleton blocks
    assert [offset for _, offset, _ in _blocks(index)] == \
        [0] + list(accumulate(size for _, _, size in _blocks(index)))[:-1]
    assert index.j0 == tuple(offset for _, offset, size in _blocks(index) if size == 1)


def test_index_set_rejects_virtual():
    from p3fusion.idempotent import omega_upto2

    sys_ = builtin_fusion_system("d8")
    with pytest.raises(ValueError):
        BisetIndex(sys_, omega_upto2(sys_))


def test_index_set_refuses_a_biset_over_another_prime():
    x = minimal_biset(builtin_fusion_system("4s4"), certify=False).biset
    with pytest.raises(PrimeMismatchError, match="p=5"):
        check_transitivity(builtin_fusion_system("d8"), biset=x)


def test_index_set_refuses_a_biset_of_another_system():
    x = minimal_biset(builtin_fusion_system("sd16"), certify=False).biset
    with pytest.raises(ConditionAViolationError):
        check_transitivity(builtin_fusion_system("d8"), biset=x)


@pytest.mark.parametrize("name", ["d8", "sd16"])
def test_one_witness_search_per_pair_of_pieces(name, monkeypatch):
    # pieces and witnesses are memoised per R, so a pair met again, by a copy
    # or by a later generator over the same R, reuses its witness
    asked = []

    def recording(conjugates, a_mor, b_mor):
        asked.append((a_mor, b_mor))  # holding the pieces keeps their ids apart
        return _conjugation_witness(conjugates, a_mor, b_mor)

    monkeypatch.setattr(realize, "_conjugation_witness", recording)
    check_transitivity(builtin_fusion_system(name))
    assert asked
    assert len({(id(a), id(b)) for a, b in asked}) == len(asked)


@pytest.mark.parametrize("name, searches, conjugate_sets", [
    ("d8", 72, 6), ("sd16", 256, 10), ("4s4", 1584, 12)])
def test_witness_work_is_pinned(name, searches, conjugate_sets, monkeypatch):
    # a piece matched with itself takes the identity with no search, and A's
    # conjugates by R's candidates are built once per A of each R.  A search
    # per pair, each with its own conjugates, made 234, 425 and 2,401 of both
    system = builtin_fusion_system(name)
    x = minimal_biset(system, certify=False).biset
    check_transitivity(system, biset=x)  # the group's own memos, filled once
    calls = Counter()
    plain_witness, plain_conjugates = realize._conjugation_witness, ExtraspecialGroup.conjugates_by
    monkeypatch.setattr(realize, "_conjugation_witness",
                        lambda *args: calls.update(["search"]) or plain_witness(*args))
    monkeypatch.setattr(ExtraspecialGroup, "conjugates_by", lambda self, *args: (
        calls.update(["conjugates"]) or plain_conjugates(self, *args)))
    check_transitivity(system, biset=x)
    assert calls == {"search": searches, "conjugates": conjugate_sets}


@pytest.mark.parametrize("name", ["d8", "sd16"])
def test_blocks_are_their_own_pieces_along_the_identity(name, monkeypatch):
    sys_, index = _index(name)
    keyed = []
    plain = biset._class_key
    monkeypatch.setattr(biset, "_class_key", lambda mor, left: keyed.append(mor) or plain(mor, left))
    perm = perm_from_morphism(index, identity_morphism(sys_.group.full))
    assert list(perm) == list(range(index.size))
    _r_id, memo, (restriction, pieces), _witnesses, _conjugates = index._state
    assert not keyed
    assert {piece for _cls, piece in memo.values()} == {cls.rep for cls in index.classes}
    assert len(pieces) == len(index.classes)
    for cls, blocks in index.classes.items():
        (entry_cls, _tracked, orbits), = pieces[cls]
        (positions, piece), = orbits
        assert index.classes[entry_cls] is blocks and piece is cls.rep
        _offset, size, _copies = blocks
        assert list(positions) == list(range(size))
    # along id_S the restriction is the biset itself
    assert restriction == minimal_biset(sys_, certify=False).biset


def test_out_perm_bijective_and_class_respecting():
    sys_, index = _index("d8")
    for m in sys_.sorted_out:
        alpha = lift_matrix_to_aut(m)
        perm = perm_from_morphism(index, alpha.inverse())
        assert sorted(perm) == list(range(index.size))
        # block-to-block, preserving block sizes
        label_size = {}
        for _cls, offset, size in _blocks(index):
            for pos in range(size):
                label_size[offset + pos] = size
        for i, j in enumerate(perm):
            assert label_size[i] == label_size[j]


def test_out_perm_singleton_rule():
    # the singleton block [S, sigma] goes to the block of [S, sigma o alpha]
    sys_, index = _index("sd16")
    for m in sys_.sorted_out[:5]:
        alpha = lift_matrix_to_aut(m)
        perm = perm_from_morphism(index, alpha.inverse())
        for cls, offset, size in _blocks(index):
            if size != 1:
                continue
            target_label = perm[offset]
            target_cls = next(t_cls for t_cls, t_offset, t_size in _blocks(index)
                              if t_offset == target_label and t_size == 1)
            expect = biset_class(compose_morphisms(cls.rep, alpha))
            assert target_cls == expect


def test_identity_perm_is_identity():
    sys_, index = _index("d8")
    ident = lift_matrix_to_aut(sys_.sorted_out[0] * sys_.sorted_out[0].inv())
    perm = perm_from_morphism(index, ident.inverse())
    assert list(perm) == list(range(index.size))


def test_essential_perm_merges_block_sizes():
    sys_, index = _index("d8")
    phi = essential_generators(sys_)[0]
    perm = perm_from_morphism(index, phi.morphism)
    assert sorted(perm) == list(range(index.size))
    label_size = {}
    for _cls, offset, size in _blocks(index):
        for pos in range(size):
            label_size[offset + pos] = size
    sizes_mixed = any(label_size[i] != label_size[j] for i, j in enumerate(perm))
    assert sizes_mixed  # singleton labels flow into p-sized blocks


def test_only_nonextendable_essentials_are_realized(monkeypatch):
    # every morphism out of some V_i that check_transitivity realizes is a
    # nonextendable pick; with no picks the outer generators alone leave more
    # than one orbit, and nothing else is added to make J one
    sys_ = builtin_fusion_system("d8")
    reps = {id(r.morphism): r for i in range(sys_.p + 1) for r in sys_.v_source_reps(i)}
    assert any(r.extendable for r in reps.values())
    realized = []
    plain = realize._label_maps

    def recording(index, psi):
        realized.append(psi)
        return plain(index, psi)

    monkeypatch.setattr(realize, "_label_maps", recording)
    check_transitivity(sys_)
    on_lines = [psi for psi in realized if psi.source.order == sys_.p ** 2]
    assert on_lines and all(reps[id(psi)].extendable is False for psi in on_lines)
    monkeypatch.setattr(realize, "essential_generators", lambda system: [])
    realized.clear()
    with pytest.raises(TheoremViolationError, match="orbits remain on J"):
        check_transitivity(sys_)
    assert realized and all(psi.source.order == sys_.p ** 3 for psi in realized)


def _accepted_specs():
    """Every distinct description at p = 3 and 5 that the package accepts:
    the classes of each built-in row there, carried by every g in GL_2(p)."""
    specs = {}
    for row in builtin_systems():
        for g in gl2_elements(row.p) if row.p <= 5 else ():
            key = frozenset((frozenset(act_on_line(g, i) for i in cls.members), cls.r)
                            for cls in row.classes)
            specs.setdefault(key, FusionSystemSpec(row.p, row.name, tuple(sorted(
                (FusionClass(members, r) for members, r in key),
                key=lambda cls: min(cls.members)))))
    return list(specs.values())


ACCEPTED = _accepted_specs()


@pytest.mark.parametrize("spec", ACCEPTED, ids=[
    f"{spec.name}-{'-'.join(''.join(map(str, sorted(cls.members))) for cls in spec.classes)}"
    for spec in ACCEPTED])
def test_every_accepted_spec_at_p_3_and_5_realizes(spec):
    # the essential and outer generators make J one orbit at every relabelling
    # of the rows at p = 3 and 5 (three at D8, one each at SD16 and 4S4)
    assert len(ACCEPTED) == 5
    check_transitivity(cached_system(spec))


def test_double_application_respects_block_classes():
    # applying phi then its inverse stabilises every class's label set
    sys_, index = _index("d8")
    phi = essential_generators(sys_)[0]
    perm = perm_from_morphism(index, phi.morphism)
    inv_mor = phi.morphism.inverse()
    perm_inv = perm_from_morphism(index, inv_mor)
    combined = [perm_inv[perm[i]] for i in range(index.size)]
    labels_by_class = {}
    for cls, offset, size in _blocks(index):
        labels_by_class.setdefault(cls, set()).update(range(offset, offset + size))
    for labels in labels_by_class.values():
        assert {combined[i] for i in labels} == labels


def test_j0_class_action():
    for name in ("d8", "sd16", "th4s4", "rv48", "rv72", "rv96"):
        system = builtin_fusion_system(name)
        j0_class_action_checks(system, minimal_biset(system, certify=False).biset)
    # a top layer that lacks an outer class is refused
    system = builtin_fusion_system("d8")
    x = minimal_biset(system, certify=False).biset
    dropped = x.layer(0).items()[0][0]
    with pytest.raises(TheoremViolationError, match="do not biject"):
        j0_class_action_checks(system, FormalBiset(x.p, {cls: c for cls, c in x.coeffs.items()
                                                         if cls != dropped}))


def test_transitivity_p3_both_systems():
    # the generator counts depend on how restriction pieces are matched, so
    # they are pinned as well as the orbit count
    rep = check_transitivity(builtin_fusion_system("d8"))
    assert rep.j_size == 968
    assert rep.generator_count == 10
    rep = check_transitivity(builtin_fusion_system("sd16"))
    assert rep.j_size == 1936
    assert rep.generator_count == 17


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


def _whole(perm):
    """A permutation of J as one label map."""
    return ((0, range(len(perm)), 0, perm),)


def _perm_of_maps(size, maps):
    """The permutation of range(size) that the label maps describe."""
    perm = array("l", [-1]) * size
    for s_offset, positions, t_offset, images in maps:
        for pos, image in zip(positions, images):
            perm[s_offset + pos] = t_offset + image
    return perm


def _perm_of(size, runs):
    """The permutation of range(size) that the runs from _label_maps
    describe: each run, copy by copy, as one label map."""
    return _perm_of_maps(size, (
        (s_offset + (s_k + k) * s_size, positions, t_offset + (t_k + k) * t_size, images)
        for ((s_offset, s_size, _), s_k), ((t_offset, t_size, _), t_k), copies, positions, images
        in runs for k in range(copies)))


def test_join_orbits_matches_bfs_after_each_generator():
    # the count is checked after every generator; sparse permutations (a few
    # random cycles) make it fall slowly.  The last generator comes as one
    # map per block of a random tiling
    rng = random.Random(2010)
    for n in (1, 2, 9, 120, 700):
        parent = [-1] * n
        orbits = n
        perms = []
        for _ in range(8):
            perm = array("l", range(n))
            cycle = rng.sample(range(n), rng.randint(1, min(n, 6)))
            for i, j in zip(cycle, cycle[1:] + cycle[:1]):
                perm[i] = j
            perms.append(perm)
            orbits = _join_orbits(parent, _whole(perm), orbits)
            assert orbits == _bfs_orbit_count(n, perms)
        perms.append(array("l", rng.sample(range(n), n)))
        cuts = sorted(rng.sample(range(1, n), min(n - 1, 5))) if n > 1 else []
        maps = [(a, range(b - a), 0, perms[-1][a:b]) for a, b in zip([0] + cuts, cuts + [n])]
        assert _perm_of_maps(n, maps) == perms[-1]
        orbits = _join_orbits(parent, maps, orbits)
        assert orbits == _bfs_orbit_count(n, perms)


def test_join_orbits_stops_at_one_orbit():
    # the images 1, 2, ..., n - 1 of the labels 0, ..., n - 2 leave one orbit
    # at label n - 2, so no image past it is read, nor any image of a later
    # map; with one orbit given, no image is read at all.  The maps themselves
    # are read to their end, so the checks made while they are read all run
    n = 50

    def images_then_raise(images):
        yield from images
        raise AssertionError("read past the label that leaves one orbit")

    def maps(*entries):
        yield from entries
        ended.append(True)

    ended = []
    parent = [-1] * n
    assert _join_orbits(parent, maps((0, range(n), 0, images_then_raise(range(1, n))),
                                     (0, range(n), 0, images_then_raise(()))), n) == 1
    assert _join_orbits(parent, maps((0, range(n), 0, images_then_raise(()))), 1) == 1
    assert ended == [True, True]


def test_join_orbits_forest_makes_no_int_per_label():
    # every root holds the one marker -1, so a fresh forest is a pointer a
    # label; a forest of list(range(n)) measures about 40 bytes a label
    n = 100_000
    perm = array("l", random.Random(2010).sample(range(n), n))
    cycles = _bfs_orbit_count(n, [perm])
    tracemalloc.start()
    try:
        orbits = _join_orbits([-1] * n, _whole(perm), n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert orbits == cycles
    assert peak < 28 * n


def test_lockstep_pairs_as_the_zip_of_the_copies():
    # a against c runs over three copies, a's last copy over one; b's two
    # orbits a copy against d's one split both fronts into their orbits.  The
    # runs, copy by copy, are the pairs of the zip
    index = SimpleNamespace(classes={"a": (0, 4, 4), "b": (16, 4, 2), "c": (24, 4, 3),
                                     "d": (36, 4, 5)})
    sources = [("a", "tracked a", ("a0",)), ("b", "tracked b", ("b0", "b1"))]
    targets = [("c", None, ("c0",)), ("d", None, ("d0",))]

    def copies(entries):
        return [(cls, k, orbit) for cls, _tracked, orbits in entries
                for k in range(index.classes[cls][2]) for orbit in orbits]

    runs = list(realize._lockstep(index, sources, targets))
    assert sorted(((s_cls, s_k + k, s_orbit), (t_cls, t_k + k, t_orbit))
                  for (s_cls, s_k, s_orbit, _), (t_cls, t_k, t_orbit), n in runs
                  for k in range(n)) == sorted(zip(copies(sources), copies(targets)))
    assert all(tracked == f"tracked {cls}" for (cls, _, _, tracked), _, _ in runs)
    assert [n for _, _, n in runs] == [3, 1, 1, 1, 1, 1]


@pytest.mark.parametrize("name, subsets", [("d8", 66), ("sd16", 55), ("4s4", 28)])
def test_orbit_count_matches_bfs_on_generator_subsets(name, subsets):
    # every one- and two-element subset of the essential generators, the
    # first six outer generators and the first three nonextendable
    # automorphisms of the lines: the count on the copy quotient is the count
    # of the permutations' orbits on J
    sys_, index = _index(name)
    out = sys_.sorted_out if sys_.p <= 3 else sys_.out_generators
    extras = [rep.morphism for cls in sys_.spec.classes for i in sorted(cls.members)
              for rep in sys_.v_source_reps(i)
              if rep.extendable is False and rep.meta[0] == rep.meta[1] == i][:3]
    gens = ([rep.morphism for rep in essential_generators(sys_)]
            + [sys_.out_lifts[m].inverse() for m in out[:6]] + extras)
    runs = [list(realize._label_maps(index, psi)) for psi in gens]
    perms = [perm_from_morphism(index, psi) for psi in gens]
    chosen = [c for k in (1, 2) for c in combinations(range(len(gens)), k)]
    assert len(chosen) == subsets
    kept = 0
    for c in chosen:
        orbits = realize._Orbits(index)
        for g in c:
            orbits.join(iter(runs[g]))
        assert orbits.count() == _bfs_orbit_count(index.size, [perms[g] for g in c])
        kept += bool(orbits.deferred)
    assert 0 < kept < len(chosen)  # some subsets join runs on the copy quotient only


def test_partial_and_shifted_runs_count_as_bfs():
    # classes a and b of 2-label blocks with 3 copies each (labels 0-5 and
    # 6-11) and c with 1 copy (labels 12-13).  swap_late pairs copies 1..2 of
    # a and b, leaving copy 0 fixed, and swap_early copies 0..1; shift sends
    # copy k of a to copy k + 1; to_a swaps c's one copy with a's copy 1.
    # None of these is a whole-class run, so joining one in the forest over T
    # would merge copies that stay apart
    a, b, c = (0, 2, 3), (6, 2, 3), (12, 2, 1)
    index = SimpleNamespace(classes={"a": a, "b": b, "c": c}, size=14)

    def fixed(block, k, copies):
        return (block, k), (block, k), copies, (0, 1), (0, 1)

    swap_late = [((a, 1), (b, 1), 2, (0, 1), (1, 0)), ((b, 1), (a, 1), 2, (0, 1), (1, 0)),
                 fixed(a, 0, 1), fixed(b, 0, 1), fixed(c, 0, 1)]
    swap_early = [((a, 0), (b, 0), 2, (0, 1), (1, 0)), ((b, 0), (a, 0), 2, (0, 1), (1, 0)),
                  fixed(a, 2, 1), fixed(b, 2, 1), fixed(c, 0, 1)]
    shift = [((a, 0), (a, 1), 2, (0, 1), (0, 1)), ((a, 2), (a, 0), 1, (0, 1), (0, 1)),
             fixed(b, 0, 3), fixed(c, 0, 1)]
    to_a = [((c, 0), (a, 1), 1, (0, 1), (1, 0)), ((a, 1), (c, 0), 1, (0, 1), (1, 0)),
            fixed(a, 0, 1), fixed(a, 2, 1), fixed(b, 0, 3)]
    for gens in ([swap_late], [swap_early], [shift], [to_a], [swap_late, shift],
                 [shift, swap_late], [swap_early, shift], [to_a, swap_late]):
        perms = [_perm_of(index.size, runs) for runs in gens]
        assert all(sorted(perm) == list(range(index.size)) for perm in perms)
        orbits = realize._Orbits(index)
        counts = [orbits.join(iter(runs)) or orbits.count() for runs in gens]
        assert counts == [_bfs_orbit_count(index.size, perms[:k + 1]) for k in range(len(gens))]
    assert [_bfs_orbit_count(index.size, [_perm_of(index.size, runs)])
            for runs in (swap_late, swap_early, shift, to_a)] == [10, 10, 10, 12]


def _wrap_out_perms(monkeypatch, change):
    """Make check_transitivity read every outer generator's permutation after
    `change`, which must leave it a bijection of J, as one run per label."""
    plain = realize._label_maps

    def wrapped(index, psi):
        if psi.source is not index.system.group.full:
            return plain(index, psi)
        perm = _perm_of(index.size, plain(index, psi))
        change(index, perm)
        assert sorted(perm) == list(range(index.size))
        block_of = {offset + k * size + pos: ((entry, k), pos)
                    for entry in index.classes.values() for offset, size, copies in (entry,)
                    for k in range(copies) for pos in range(size)}
        return ((block_of[label][0], block_of[image][0], 1, (block_of[label][1],),
                 (block_of[image][1],)) for label, image in enumerate(perm))

    monkeypatch.setattr(realize, "_label_maps", wrapped)


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
        other = next(offset for _, offset, size in _blocks(index) if size > 1)
        perm[label], perm[other] = perm[other], perm[label]

    _wrap_out_perms(monkeypatch, swap_out)
    with pytest.raises(TheoremViolationError, match="leaves the singleton labels"):
        check_transitivity(builtin_fusion_system("d8"))


def _without_the_last_outer_generator(monkeypatch, system):
    monkeypatch.setattr(system, "out_generators", system.out_generators[:-1])
    return system


@pytest.mark.parametrize("name, j0_orbits", [("th4s4", 3), ("d16x3", 2)])
def test_outer_generators_short_of_one_singleton_orbit_are_refused(monkeypatch, name, j0_orbits):
    # the singleton labels are counted before J, so the short generating set
    # is named by its orbits there, not by the hundreds it leaves on J
    system = _without_the_last_outer_generator(monkeypatch, builtin_fusion_system(name))
    with pytest.raises(TheoremViolationError, match=(
            f"^{j0_orbits} orbits remain on the singleton labels with the outer generators$")):
        check_transitivity(system)


def test_realize_command_exits_1_on_a_refused_realization(monkeypatch, capsys):
    # the command reads the session's system (conftest.py)
    _without_the_last_outer_generator(monkeypatch, builtin_fusion_system("th4s4"))
    assert main(["realize", "--system", "th4s4"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "3 orbits remain on the singleton labels with the outer generators\n"


def test_checks_run_for_every_generator_after_one_orbit(monkeypatch):
    # J is one orbit after 4 of D8's 10 generators; the last outer generator,
    # given wrong witnesses alone, is still refused: its maps are read to the
    # end although J is already one orbit
    maps_asked, counts = [], []
    plain_maps, plain_join = realize._label_maps, realize._Orbits.join

    def maps_wrong_at_the_last(index, psi):
        maps_asked.append(psi)
        if len(maps_asked) == 10:
            assert psi.source is index.system.group.full
            index._state[3].clear()  # the witnesses, so that each is asked for again
            monkeypatch.setattr(realize, "_conjugation_witness",
                                lambda conjugates, a_mor, b_mor: conjugates[0][0])
        return plain_maps(index, psi)

    def counting(orbits, runs):
        plain_join(orbits, runs)
        counts.append(orbits.count())

    monkeypatch.setattr(realize, "_label_maps", maps_wrong_at_the_last)
    monkeypatch.setattr(realize._Orbits, "join", counting)
    with pytest.raises(StabilityViolationError, match="not a permutation"):
        check_transitivity(builtin_fusion_system("d8"))
    assert len(maps_asked) == 10 and counts.index(1) == 3


def test_pieces_of_the_lines_are_gone_before_the_outer_generators(monkeypatch):
    # no piece serves two R, so the pieces split over each V_i, with their
    # witnesses, are dropped before the split over S begins
    class Tracked(GroupMorphism):
        __slots__ = ("__weakref__",)

    monkeypatch.setattr(biset, "GroupMorphism", Tracked)
    plain = realize._restriction_split
    refs, alive_at_s = [], []

    def split(items, psi, memo):
        if psi.source.order == psi.p ** 3:
            alive_at_s.append(sum(ref() is not None for ref in refs))
        found = plain(items, psi, memo)
        if psi.source.order < psi.p ** 3:
            refs.extend(weakref.ref(piece) for entries in found[1].values()
                        for _cls, _tracked, orbits in entries for _positions, piece in orbits)
        return found

    monkeypatch.setattr(realize, "_restriction_split", split)
    check_transitivity(builtin_fusion_system("d8"))
    assert refs and alive_at_s and set(alive_at_s) == {0}


class _TrackedPair:
    """An (x, codes) pair of conjugates_by that a weak reference can follow."""

    __slots__ = ("pair", "__weakref__")

    def __init__(self, pair):
        self.pair = pair

    def __iter__(self):
        return iter(self.pair)


def test_conjugates_and_witnesses_of_the_lines_are_gone_before_the_outer_generators(monkeypatch):
    # A's conjugates and the witnesses, whose keys hold their pieces, live in
    # the state of their R: none built over a V_i is left when the split over
    # S begins.  With gc off, no piece and no conjugate that realization
    # builds outlives check_transitivity, so none is kept by a cycle
    class Tracked(GroupMorphism):
        __slots__ = ("__weakref__",)

    system = builtin_fusion_system("d8")
    x = minimal_biset(system, certify=False).biset
    check_transitivity(system, biset=x)  # the group's own memos, filled once
    monkeypatch.setattr(biset, "GroupMorphism", Tracked)
    plain_split, plain_conjugates = realize._restriction_split, ExtraspecialGroup.conjugates_by
    refs, kinds, alive_at_s = [], Counter(), []

    def conjugates_by(self, q, xs):
        for pair in plain_conjugates(self, q, xs):
            tracked = _TrackedPair(pair)
            refs.append(weakref.ref(tracked))
            kinds["conjugate"] += 1
            yield tracked

    def split(items, psi, memo):
        if psi.source.order == psi.p ** 3 and not alive_at_s:
            alive_at_s.append(sum(ref() is not None for ref in refs))
        found = plain_split(items, psi, memo)
        for entries in found[1].values():
            for _cls, _tracked, orbits in entries:
                for _positions, piece in orbits:
                    if isinstance(piece, Tracked):
                        refs.append(weakref.ref(piece))
                        kinds["piece"] += 1
        return found

    monkeypatch.setattr(ExtraspecialGroup, "conjugates_by", conjugates_by)
    monkeypatch.setattr(realize, "_restriction_split", split)
    gc.disable()
    try:
        check_transitivity(system, biset=x)
        left = sum(ref() is not None for ref in refs)
    finally:
        gc.enable()
    assert kinds["conjugate"] and kinds["piece"]
    assert alive_at_s == [0] and left == 0


def test_realization_memory_at_4s4():
    # one restriction group's pieces at a time, no whole permutation and no
    # forest over J: the warm check peaks at 2.7-3.0 MB, where the forest
    # over J peaked at 3.5 MB and index-lifetime memos with a permutation
    # array per generator at 5.1 MB
    system = builtin_fusion_system("4s4")
    x = minimal_biset(system, certify=False).biset
    check_transitivity(system, biset=x)  # the system's own caches, filled once
    tracemalloc.start()
    try:
        check_transitivity(system, biset=x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3.3e6


def test_report_json():
    rep = check_transitivity(builtin_fusion_system("d8"))
    data = rep.to_json()
    assert data["J_size"] == 968
    assert data["orbit_count"] == 1
    assert data["J0_regular"] is True
    assert data["ok"] is True
    assert data["extra_essential_generators"] == 0


def test_stability_violation_for_wrong_biset():
    # a lopsided biset is not stable: the permutation construction must fail
    sys_ = builtin_fusion_system("d8")
    from p3fusion.solver import assemble, minimal_coefficients

    x0 = assemble(sys_, minimal_coefficients(sys_)).layer(0)
    bad = FormalBiset(3, dict(list(x0.coeffs.items())[:3]))
    index = BisetIndex(sys_, bad)
    phi = essential_generators(sys_)[0]
    with pytest.raises(StabilityViolationError) as caught:
        perm_from_morphism(index, phi.morphism)
    # the witness: the first piece class whose two multiplicities differ
    along_incl = restrict_left(bad, identity_morphism(phi.morphism.source))
    along_phi = restrict_left(bad, phi.morphism)
    cls = next(c for c in sorted(along_incl.coeffs.keys() | along_phi.coeffs.keys())
               if along_incl.coefficient(c) != along_phi.coefficient(c))
    m, n = along_incl.coefficient(cls), along_phi.coefficient(cls)
    assert m != n
    assert str(caught.value) == (
        f"restrictions along the inclusion and along psi differ on {cls!r}: "
        f"multiplicity {m} against {n}")


def test_wrong_witness_is_refused_as_not_a_permutation(monkeypatch):
    # the identity (the first candidate) in place of the conjugation witness
    # sends two labels of some orbit to one label
    sys_, index = _index("d8")
    monkeypatch.setattr(realize, "_conjugation_witness",
                        lambda conjugates, a_mor, b_mor: conjugates[0][0])
    alpha = lift_matrix_to_aut(sys_.sorted_out[1])
    with pytest.raises(StabilityViolationError, match="not a permutation"):
        perm_from_morphism(index, alpha.inverse())


def _elementwise_witness(r_sub, a_mor, b_mor):
    """Reference: the first a in R, in sorted order, with a^-1 A a <= A' and
    kappa'(a^-1 g a) == b kappa(g) b^-1 on the generators g of A for one b in S."""
    gens = a_mor.source.canonical_gens
    for a in r_sub:
        ai = a.inv()
        moved = [ai * g * a for g in gens]
        if any(m not in b_mor.source for m in moved):
            continue
        if any(all(b_mor(m) == a_mor(g).conj_by(b) for g, m in zip(gens, moved))
               for b in ambient_group(r_sub.p).elements):
            return a
    return None


@pytest.mark.parametrize("name", ["d8", "sd16", "4s4"])
def test_witness_matches_elementwise_search(name, monkeypatch):
    """Every witness perm_from_morphism asks for, tried only at one candidate
    per coset of the centre, is the first a of all of R that the elementwise
    search accepts.  At 4S4 a seeded sample of morphisms and of their pairs."""
    sys_, index = _index(name)
    morphisms = [rep.morphism for rep in essential_generators(sys_)]
    morphisms += [lift_matrix_to_aut(m).inverse() for m in sys_.sorted_out]
    rng = random.Random(29)
    sample = 4 if name == "4s4" else None
    if sample:
        morphisms = rng.sample(morphisms, sample)
    asked = []

    def recording(candidates, a_mor, b_mor):
        witness = _conjugation_witness(candidates, a_mor, b_mor)
        asked.append((a_mor, b_mor, witness))
        return witness

    monkeypatch.setattr(realize, "_conjugation_witness", recording)
    pairs = 0
    moved = 0
    for psi in morphisms:
        asked.clear()
        perm_from_morphism(index, psi)
        for s_mor, t_mor, witness in rng.sample(asked, min(len(asked), 10)) if sample else asked:
            assert witness == _elementwise_witness(psi.source, s_mor, t_mor)
            pairs += 1
            moved += not witness.is_identity()
    assert pairs and moved  # some witness is not the identity


@pytest.mark.parametrize("name, share", [("d8", 1), ("sd16", 1), ("4s4", 0.1), ("d16x3", 0.02)])
def test_witnesses_match_a_search_per_pair(name, share, monkeypatch):
    """Every pair of pieces that the label maps of check_transitivity meet at
    D8 and SD16, and a seeded share of them at 4S4 and D16x3, maps its labels
    as the witness w of a fresh search per call does: the label k of the
    source orbit goes to the coset of psi(v_k w) t, v_k the tracked element
    and t the target orbit's first coset.  The pairs of a piece with itself,
    which take the identity with no search, are among them."""
    system = builtin_fusion_system(name)
    grp = system.group
    mul, n = grp.product_table, len(grp.elements)
    rng = random.Random(35)
    met, checked = [], Counter()
    plain_lockstep, plain_maps = realize._lockstep, realize._label_maps

    def lockstep(index, sources, targets):
        for pair in plain_lockstep(index, sources, targets):
            met.append(pair)
            yield pair

    def maps(index, psi):
        candidates, where = reference_candidates(psi.source), psi.source.position
        for run in plain_maps(index, psi):
            (_, _, (s_positions, s_mor), s_tracked), (t_cls, _, (t_positions, t_mor)), _ = \
                met.pop()
            if rng.random() < share:
                w = reference_conjugation_witness(candidates, s_mor, t_mor).code()
                t_reps, t_pos = grp.coset_index(t_cls.rep.source)
                t = t_reps[t_positions[0]]
                assert list(run[-1]) == [
                    t_pos[mul[psi.table[where[mul[s_tracked[k] * n + w]]] * n + t]][0]
                    for k in s_positions]
                checked[s_mor is t_mor, w != 0] += 1
            yield run

    monkeypatch.setattr(realize, "_lockstep", lockstep)
    monkeypatch.setattr(realize, "_label_maps", maps)
    check_transitivity(system)
    assert not met
    # pairs of a piece with itself, and other pairs whose witness is not 1
    assert checked[True, False] and checked[False, True] and not checked[True, True]


# SHA-256 of each permutation whose label maps check_transitivity reads, in
# the order read, each written as its images joined by commas
PERMUTATION_DIGESTS = {
    "d8": [
        "1d98aa7fbfabeb7baff6b3603f5dc77fbf25485c5ce1ebdca955601f3a8cf2ed",
        "3faab82024366e1e51d4999213872826c23eb296acaf31f716dc66f0661554c4",
        "d4c446b04e1f534e3f288fe814c620d4e0753ab8d569e4f5891ae8e0530fc727",
        "ae7c26d569b77da2911ebc4ecde0e66921c981017a5ea233d868d65dec3607f7",
        "ff114a3a7d8f4943504e73fb569d6a381ba356706e66050178eb44800a0ae0cc",
        "d9881cb39a85e0564c04199b03858d7552f2f2a004ef74c3b7c2f7f36efd0135",
        "7483d525c7e59bda4183dd805b37811bc4524147f978e548caf76455bbd3f721",
        "29478216769c4cadae25b415fa1ced92d16d43710554eb49ef6978b357fd2cf2",
        "759fc07ae3fc13bded3df8cde4d19d03a9223a5a4c88564cfcdad6ca82d52a28",
        "ed5e240d227a856156eea508f036c8092b92e1545afe1ce1362773d034aadb89",
    ],
    "sd16": [
        "48dce5b8a9cb518c07543d03883278e4042f19de2dfaa38fb198c9017c59d9c6",
        "74c46f4b796ebdd3be1de17aed48c57f2286d33c25cfd4d788c7aa19920bf9fa",
        "15385f0d4a120b10aca1507634fcc03d363f7973390fcd5624725342a161dc6b",
        "db3f16e7e0251c589704761333a7a0bfa9f1abc4d87fa5cc356822cedd9774e9",
        "850bd2dbdf8a9452c6348904cfa2e9822c57a460bbf734d2399da1b944af9e3b",
        "f4438932680286f752f0a998d235b14d7643988604f6b97ad02129de7ed1955a",
        "2a31ab99a207ddab3add5d63fb157a9a916235815f0a598099aaa0d82432cd28",
        "b6d8b0761e23f6242349fb4ec96637668bda60e1e1d95b3d5d52ce06d577719b",
        "8dfecfd30fc610f77423541d2ec166858ccb68cc2253da249baadb66035a072b",
        "abdba9d832703a48965b9b172d1660c858b0be0a73d9031f4093d6d1ce956500",
        "f9c8fa62a9fec3da1fda17df6d8e5260adfc5746f325c624c4104d6df8dca609",
        "ff3445a84fdf407ad0502fa4e69303db3dfcf64dc792d6c51f1fd5b5d6a20020",
        "e83a6b6c4c1800600fed40a38708d8e46dbf6b61d7aa488e3b6e7741ef1f8302",
        "73c6325330244482a7547d45e67041f5d81c489eba32ef320b0242d5510fe556",
        "10751783b158dabaaa199606edd2cf142a843805ba6ce01948da2277d8023763",
        "0361c742444a4f4d47d861a11e68a0d339db09992a98a3260e5f8aa7e28d6db2",
        "91171fe0ffc6ebf8c1e6190bdace7bf9c57391a730eaa8e8c8f47c266ac3ced6",
    ],
    "4s4": [
        "8a5758c0db54485fcca92f256849ee96c238227e03e84db904e0f12ab9fabd39",
        "c600946f7ed10faa864c32e31e5857f8f001137edf3b136da8c193133de77de9",
        "971dad1db7825f99e702086d45b090af2f340b4a99a37a3793beab2e3c942bfe",
        "2f2b31ffb9166763ed0645afdf28709d2d17d4391922342f77d8f7e5ce8c412e",
    ],
}


@pytest.mark.parametrize("name", sorted(PERMUTATION_DIGESTS))
def test_realization_permutations_are_pinned(name, monkeypatch):
    built, asked = [], []
    plain = realize._label_maps

    def digest(perm):
        return hashlib.sha256(",".join(map(str, perm)).encode()).hexdigest()

    def recording(index, psi):
        maps = list(plain(index, psi))
        built.append(digest(_perm_of(index.size, maps)))
        asked.append(psi)
        return iter(maps)

    monkeypatch.setattr(realize, "_label_maps", recording)
    check_transitivity(builtin_fusion_system(name))
    assert built == PERMUTATION_DIGESTS[name]
    # perm_from_morphism reads the same maps into the same permutations
    monkeypatch.undo()
    index = _index(name)[1]
    assert [digest(perm_from_morphism(index, psi)) for psi in asked] == built


@pytest.mark.parametrize("name", ["d8", "th4s4"])
def test_each_outer_matrix_lifted_once(monkeypatch, name):
    calls = []
    real = fusion.lift_matrix_to_aut

    def counting(m):
        calls.append(m)
        return real(m)

    # wherever the lift is imported, each call is counted
    for module in (fusion, realize):
        monkeypatch.setattr(module, "lift_matrix_to_aut", counting, raising=False)
    system = fusion.FusionSystem(fusion.resolve_system(name))
    system.all_class_reps()
    check_transitivity(system)
    assert sorted(calls) == list(system.sorted_out)
