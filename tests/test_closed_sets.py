import random

from oracles import relabel, scan_down_sets, scan_subuniverses, scan_up_sets

from srlkit.catalog import c4, crystal
from srlkit.cones import all_subuniverses
from srlkit.core import classify, closed_sets, direct_product
from srlkit.duality import all_up_sets, dual_space
from srlkit.enumeration import _down_sets, enumerate_posets
from srlkit.varieties import VarietySpec, decide_es


def test_closed_sets_of_a_chain_are_its_up_sets():
    # the closure s | {a, ..., n-1} on 0..3 closes exactly the final segments
    sets = closed_sets(4, frozenset(), lambda s, a: s | frozenset(range(a, 4)))
    assert [sorted(s) for s in sets] == [[], [3], [2, 3], [1, 2, 3], [0, 1, 2, 3]]


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
