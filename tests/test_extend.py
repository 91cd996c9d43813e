"""`core._extend`, the homomorphism fixed by its values on a generating set,
against two oracles: the map search, and the witness terms of
`oracles.generate_subalgebra` evaluated with the distinguished generator
sent to the identity."""

import random
from itertools import combinations

from oracles import eval_term, generate_subalgebra, relabel

from srlkit.cones import all_subuniverses, is_negatively_generated, subuniverse_closure
from srlkit.core import _covers, _extend, homomorphisms
from srlkit.enumeration import enumerate_models
from srlkit.filters import is_fsi
from srlkit.varieties import separating_retraction


def _given_and_relabelled(suite):
    rng = random.Random(20190216)
    return [image for algebra in suite for image in (algebra, relabel(algebra, rng))]


def test_extend_matches_the_map_search(suite):
    # the identity on the negative cone with one element x sent to v: a
    # homomorphism when the cone generates, and then the only one
    cases = refused = 0
    for algebra in _given_and_relabelled(suite):
        cone = algebra.below_e
        generated = is_negatively_generated(algebra)
        for x in cone:
            for v in algebra.elements:
                values = {y: y for y in cone} | {x: v}
                extended = _extend(algebra, algebra, values)
                if generated:
                    homs = [h.mapping for h in homomorphisms(algebra, algebra, partial=values)]
                    assert len(homs) <= 1
                    assert extended == (homs[0] if homs else None)
                else:
                    assert extended is None
                cases += 1
                refused += extended is None
    assert (cases, refused) == (3092, 2710)


def test_extend_matches_the_witness_terms(suite):
    # the separating retraction's setting: C a proper negatively generated
    # subuniverse of an FSI, negatively generated algebra, and c a cover of
    # the identity outside C such that C's cone and c generate
    cases = 0
    for algebra in _given_and_relabelled(suite):
        if not (is_fsi(algebra) and is_negatively_generated(algebra)):
            continue
        e, everything = algebra.e, frozenset(algebra.elements)
        for sub in all_subuniverses(algebra):
            sub_neg = frozenset(x for x in sub if algebra.leq(x, e))
            if sub == everything or subuniverse_closure(algebra, sub_neg) != sub:
                continue
            for c in algebra.below_e:
                if c in sub or not _covers(algebra.leq, algebra.elements, c, e):
                    continue
                if subuniverse_closure(algebra, sub_neg | {c}) != everything:
                    continue
                generated = generate_subalgebra(algebra, sub_neg | {c}, distinguished=c)
                assignment = dict(generated.assignment, x=e)
                by_terms = tuple(
                    eval_term(algebra, generated.witnesses[a], assignment)
                    for a in algebra.elements
                )
                assert _extend(algebra, algebra, {x: x for x in sub_neg} | {c: e}) == by_terms
                assert separating_retraction(algebra, sub, c)[0].mapping == by_terms
                cases += 1
    assert cases == 48


def test_extend_of_the_identity_on_a_generating_set_is_the_identity():
    # the residual is not commutative: some elements are reached from these
    # generators only as b -> a with b valued in a round before a, so a
    # closure that skips those pairs stops short of the whole carrier
    cases = 0
    for algebra in enumerate_models("brouwerian", 7, bound=7):
        everything = frozenset(algebra.elements)
        for k in range(4):
            for generators in combinations(algebra.elements, k):
                if subuniverse_closure(algebra, generators) != everything:
                    continue
                identity = _extend(algebra, algebra, {g: g for g in generators})
                assert identity == tuple(algebra.elements), (algebra, generators)
                cases += 1
    assert cases == 67
