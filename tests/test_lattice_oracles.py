"""The routines that read filters, congruences and FSI off the lattice,
against the scans they replaced (`tests/oracles.py`)."""

import random
from dataclasses import replace
from itertools import combinations

import pytest
from oracles import (
    cone_join_irreducibles,
    is_deductive_filter_scan,
    is_fsi_pairwise,
    least,
    leibniz_congruence_scan,
    prime_space_scan,
    reflection_meet_by_order,
    relabel,
)

from srlkit.core import Signature, _join_irreducible, classify
from srlkit.duality import _prime_space
from srlkit.enumeration import enumerate_models
from srlkit.filters import (
    DeductiveFilter,
    all_deductive_filters,
    generated_filter,
    is_deductive_filter,
    is_fsi,
    leibniz_congruence,
)
from srlkit.reflection import reflect


@pytest.fixture(scope="module")
def inputs(catalog_algebras, srl5, sirl5):
    """The catalog, Brouwerian algebras to size 8 and S[I]RLs to size 5, each
    as given and relabelled."""
    rng = random.Random(15)
    base = catalog_algebras + list(enumerate_models("brouwerian", 8, bound=8))
    base += list(srl5) + list(sirl5)
    return [image for algebra in base for image in (algebra, relabel(algebra, rng))]


def test_leibniz_congruence_matches_the_iff_scan(inputs):
    checked = 0
    for algebra in inputs:
        flts = all_deductive_filters(algebra) + [DeductiveFilter(algebra, frozenset())]
        for flt in flts:
            assert leibniz_congruence(flt) == leibniz_congruence_scan(flt), algebra.name
            checked += 1
    assert checked == 1014 + 296  # the filters, and an empty member set each


def test_is_fsi_matches_the_pairwise_scan(inputs):
    assert [is_fsi(a) for a in inputs] == [is_fsi_pairwise(a) for a in inputs]
    assert sum(map(is_fsi, inputs)) == 252


def test_cone_join_irreducibles_match_the_cone_scan(inputs):
    for algebra in inputs:
        found = {c for c in algebra.below_e if _join_irreducible(algebra.meet, algebra.join, c)}
        assert found == cone_join_irreducibles(algebra), algebra.name


def test_reflection_meet_matches_the_order(inputs):
    bases = [a for a in inputs if not (a.signature.has_involution or a.signature.has_bottom)]
    for algebra in bases:
        assert reflect(algebra).algebra.meet == reflection_meet_by_order(algebra), algebra.name
    assert len(bases) == 232


def test_prime_space_matches_the_prime_filter_scan(inputs):
    # pointed mode on the Brouwerian inputs; proper mode on the Heyting ones
    # and on each unbounded Brouwerian one with its least element marked
    cases = []
    for algebra in inputs:
        flags = classify(algebra)
        if flags.brouwerian:
            cases.append((algebra, "pointed"))
            if not flags.heyting:
                algebra = replace(algebra, bottom=least(algebra), signature=Signature(False, True))
            cases.append((algebra, "proper"))
    for algebra, mode in cases:
        points, members, space = _prime_space(algebra, mode)
        assert (members, space) == prime_space_scan(algebra, mode), (algebra.name, mode)
        assert members == tuple(generated_filter(algebra, (c,)).members for c in points)
    assert len(cases) == 2 * 102


def test_is_deductive_filter_matches_the_closure_scan(inputs):
    checked = found = 0
    for algebra in inputs:
        if algebra.size > 5:
            continue
        for k in range(algebra.size + 1):
            for subset in combinations(algebra.elements, k):
                verdict = is_deductive_filter(algebra, subset)
                assert verdict == is_deductive_filter_scan(algebra, frozenset(subset)), algebra.name
                checked += 1
                found += verdict
    assert (checked, found) == (6072, 598)
