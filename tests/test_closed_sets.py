import random
from itertools import islice

import pytest
from oracles import (
    close_bfs,
    relabel,
    relabelling,
    scan_down_sets,
    scan_subuniverses,
    scan_up_sets,
    subuniverses_bfs,
)

from srlkit import cones, duality
from srlkit.catalog import (
    brouwerian_chain, brouwerian_diamond, c4, crystal, heyting_chain, sugihara,
)
from srlkit.cones import _close, _generated, all_subuniverses, subuniverse_closure
from srlkit.core import _bits, _members, classify, closed_sets, direct_product
from srlkit.duality import all_up_sets, dual_space
from srlkit.enumeration import _down_sets, enumerate_posets
from srlkit.errors import VerificationFailure
from srlkit.varieties import VarietySpec, decide_es


def products():
    """The generators of the benchmark's `products` workload, and c4×crystal."""
    pairs = [
        (c4(), c4()),
        (brouwerian_diamond(), brouwerian_diamond()),
        (brouwerian_chain(4), brouwerian_chain(4)),
        (heyting_chain(4), heyting_chain(4)),
        (crystal(), sugihara(3)),
        (c4(), sugihara(5)),
        (c4(), crystal()),
    ]
    return [direct_product(a, b) for a, b in pairs]


def test_closed_sets_of_a_chain_are_its_up_sets():
    # the closure s | {a, ..., n-1} on 0..3 closes exactly the final segments
    sets = closed_sets(4, 0, lambda s, a: s | 0b1111 >> a << a)
    assert [_bits(s) for s in sets] == [[], [3], [2, 3], [1, 2, 3], [0, 1, 2, 3]]


def test_closed_sets_keeps_only_canonical_closures():
    # closures that never give up early: every non-canonical one must be
    # dropped by closed_sets itself
    for n in range(6):
        for leq in enumerate_posets(n):
            down = [sum(1 << b for b in range(n) if leq[b][a]) for a in range(n)]
            masks = closed_sets(n, 0, lambda s, a: s | down[a])
            assert [_members(m) for m in masks] == scan_down_sets(leq)


def test_closed_sets_rejects_a_closure_that_is_not_extensive():
    with pytest.raises(VerificationFailure, match=r"extend\(\[\], 0\) misses \[0\]"):
        list(closed_sets(3, 0, lambda s, a: s))
    # drops s: the heap pops {0} after the empty set, and extend({0}, 1) = {1}
    with pytest.raises(VerificationFailure, match=r"extend\(\[0\], 1\) misses \[0\]"):
        list(closed_sets(3, 0, lambda s, a: 1 << a))


def test_closed_sets_makes_only_what_a_consumer_takes():
    # the first k masks taken are the k least closed sets, and the nodes
    # past them are not extended (chain(4)², 130 subuniverses)
    algebra = products()[2]
    calls = []

    def extend(s, a):
        calls.append(s)
        return _close(algebra, s, (a,), ((1 << a) - 1) & ~s)

    full = list(closed_sets(algebra.size, _generated(algebra, ()), extend))
    assert full == sorted(full) and len(full) > 20
    whole = len(calls)
    for k in (1, 5, 20):
        calls.clear()
        taken = list(islice(closed_sets(algebra.size, _generated(algebra, ()), extend), k))
        assert taken == full[:k]
        assert len(calls) < whole


def test_each_closed_set_is_reached_once(monkeypatch, suite):
    # every closure that is not dropped early yields a new closed set
    kept = []

    def counting(size, least, extend):
        def counted(s, a):
            t = extend(s, a)
            kept[-1] += t is not None
            return t
        kept.append(0)
        result = list(closed_sets(size, least, counted))
        assert kept[-1] == len(result) - 1
        return result

    monkeypatch.setattr(cones, "closed_sets", counting)
    monkeypatch.setattr(duality, "closed_sets", counting)
    for algebra in products() + suite[:40]:
        all_subuniverses(algebra)
    for n in range(6):
        for leq in enumerate_posets(n):
            _down_sets(leq)
    assert len(kept) > 100 and max(kept) > 100


def test_subuniverses_match_the_breadth_first_oracle():
    rng = random.Random(20190219)
    for algebra in products():
        for variant in (algebra, relabel(algebra, rng)):
            assert all_subuniverses(variant) == subuniverses_bfs(variant)


def test_subuniverse_closure_matches_the_breadth_first_oracle(suite):
    rng = random.Random(20190220)
    for algebra in suite:
        constants = {algebra.e} if algebra.bottom is None else {algebra.e, algebra.bottom}
        for _ in range(3):
            generators = rng.sample(range(algebra.size), rng.randint(0, min(3, algebra.size)))
            expected = close_bfs(algebra, frozenset(), constants | set(generators))
            assert subuniverse_closure(algebra, generators) == expected


def test_subuniverses_follow_a_relabelling():
    rng = random.Random(20190221)
    for algebra in products():
        relabelled, perm = relabelling(algebra, rng)
        moved = sorted(sum(1 << perm[a] for a in s) for s in all_subuniverses(algebra))
        assert [_members(m) for m in moved] == all_subuniverses(relabelled)


def test_subuniverses_match_scan(suite):
    rng = random.Random(20190214)
    for algebra in suite:
        for variant in (algebra, relabel(algebra, rng)):
            assert all_subuniverses(variant) == scan_subuniverses(variant)


def test_up_sets_match_scan(suite):
    spaces = [dual_space(a) for a in suite if classify(a).brouwerian]
    assert len(spaces) > 20
    for space in spaces:
        for include_empty in (False, True):
            assert all_up_sets(space, include_empty) == scan_up_sets(space, include_empty)


def test_down_sets_match_scan():
    for n in range(7):
        for leq in enumerate_posets(n):
            assert _down_sets(leq) == scan_down_sets(leq)


def test_subuniverses_of_a_24_element_product():
    # 2^24 subsets were out of reach for a subset scan
    assert len(all_subuniverses(direct_product(c4(), crystal()))) == 5


def test_decide_es_on_a_24_element_product():
    decision = decide_es(VarietySpec((direct_product(c4(), crystal()),)))
    assert decision.surjective is False
    assert len(decision.spectrum.algebras) == 3
