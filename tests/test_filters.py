import pytest
from oracles import enumerate_congruences_bruteforce, lattice_filters

from srlkit.catalog import brouwerian_chain, brouwerian_diamond, c4, trivial
from srlkit.cones import subuniverse_closure
from srlkit.core import direct_product, find_isomorphism, is_homomorphism, is_subuniverse
from srlkit.errors import NotAFilter, NotASubalgebra
from srlkit.filters import (
    Congruence,
    all_congruences,
    all_deductive_filters,
    congruence_filter,
    deductive_filter,
    generated_filter,
    is_deductive_filter,
    is_fsi,
    is_prime_filter,
    leibniz_congruence,
    prime_deductive_filters,
    quotient,
    restrict_quotient_embedding,
)


def members(flt):
    return sorted(flt.members)


def test_generated_filter_bottom_of_c4_is_everything():
    algebra = c4()
    assert members(generated_filter(algebra, {0})) == [0, 1, 2, 3]


def test_generated_filter_empty_set_gives_least():
    algebra = c4()
    assert members(generated_filter(algebra, set())) == [1, 2, 3]


def test_generated_filter_is_intersection_of_filters(suite):
    # oracle: the smallest deductive filter containing X is the intersection
    # of all deductive filters containing X
    for algebra in suite:
        if algebra.size > 5:
            continue
        filters = all_deductive_filters(algebra)
        for x in algebra.elements:
            generated = generated_filter(algebra, {x}).members
            oracle = frozenset(algebra.elements)
            for f in filters:
                if x in f.members:
                    oracle &= f.members
            assert generated == oracle


def test_leibniz_least_filter_is_identity():
    algebra = c4()
    least = deductive_filter(algebra, {1, 2, 3})
    assert leibniz_congruence(least).is_identity


def test_leibniz_improper_filter_is_total():
    algebra = c4()
    assert leibniz_congruence(deductive_filter(algebra, set(range(4)))).is_total


def test_leibniz_four_chain_upper():
    algebra = brouwerian_chain(4)
    theta = leibniz_congruence(deductive_filter(algebra, {2, 3}))
    assert theta.blocks == (0, 1, 2, 2)


def test_congruence_filter_round_trip(suite):
    for algebra in suite:
        for flt in all_deductive_filters(algebra):
            theta = leibniz_congruence(flt)
            assert congruence_filter(theta).members == flt.members
        for theta in all_congruences(algebra):
            assert leibniz_congruence(congruence_filter(theta)) == theta


def test_filter_congruence_lattices_match_bruteforce(suite):
    for algebra in suite:
        if algebra.size > 6:
            continue
        filters = all_deductive_filters(algebra)
        brute = enumerate_congruences_bruteforce(algebra)
        assert len(filters) == len(brute)
        assert {leibniz_congruence(f).blocks for f in filters} == {
            c.blocks for c in brute
        }
        # order isomorphism both ways
        for f in filters:
            for g in filters:
                finer = set(zip(leibniz_congruence(f).blocks, leibniz_congruence(g).blocks))
                refines = len(finer) == len(set(leibniz_congruence(f).blocks))
                assert (f.members <= g.members) == refines


def test_all_filters_counts():
    assert len(all_deductive_filters(c4())) == 2
    assert len(all_deductive_filters(trivial())) == 1
    for n in (2, 3, 5):
        assert len(all_deductive_filters(brouwerian_chain(n))) == n


def test_prime_filters_c4_pointed():
    algebra = c4()
    primes = prime_deductive_filters(algebra, "pointed")
    assert [members(f) for f in primes] == [[0, 1, 2, 3], [1, 2, 3]]


def test_prime_filters_trivial_proper_empty():
    assert prime_deductive_filters(trivial(), "proper") == []


def test_prime_filters_diamond():
    # the filter above the identity is not prime: the two middle elements
    # join to the identity from outside it
    algebra = brouwerian_diamond()
    primes = prime_deductive_filters(algebra, "pointed")
    assert [members(f) for f in primes] == [[0, 1, 2, 3], [1, 3], [2, 3]]
    assert not is_prime_filter(algebra, frozenset({3}))


def test_prime_filter_mode_is_explicit():
    with pytest.raises(ValueError):
        prime_deductive_filters(c4(), "default")


def test_filter_primality_pair_law(suite):
    # for lattice filters with a prime one above an intersection, one of the
    # two factors already sits inside the prime
    for algebra in suite:
        if algebra.size > 5:
            continue
        filters = lattice_filters(algebra)
        primes = [h for h in filters if is_prime_filter(algebra, h)]
        for f in filters:
            for g in filters:
                for h in primes:
                    if f & g <= h:
                        assert f <= h or g <= h


def test_prime_filter_extension(suite):
    # distributive case: primes of a sublattice are exactly the non-empty
    # traces of primes of the parent
    from srlkit.core import classify
    from srlkit.cones import all_subuniverses

    for algebra in suite:
        if algebra.size > 5 or not classify(algebra).distributive:
            continue
        parent_primes = [
            f for f in lattice_filters(algebra) if is_prime_filter(algebra, f)
        ]
        for mask in all_subuniverses(algebra):
            sub_sorted = sorted(mask)
            from srlkit.core import subalgebra

            sub, inclusion = subalgebra(algebra, mask)
            sub_primes = {
                frozenset(inclusion.mapping[i] for i in f)
                for f in lattice_filters(sub)
                if is_prime_filter(sub, f)
            }
            traces = {
                frozenset(mask & f) for f in parent_primes if mask & f
            }
            assert sub_primes == traces


def test_quotient_least_filter_is_isomorphic():
    algebra = c4()
    q, cover = quotient(algebra, deductive_filter(algebra, {1, 2, 3}))
    assert q.size == 4 and cover.is_bijective


def test_quotient_improper_filter_is_trivial():
    algebra = c4()
    q, _ = quotient(algebra, deductive_filter(algebra, set(range(4))))
    assert q.size == 1


def test_quotient_four_chain_merges_top_pair():
    algebra = brouwerian_chain(4)
    q, cover = quotient(algebra, deductive_filter(algebra, {2, 3}))
    assert q.size == 3
    assert find_isomorphism(q, brouwerian_chain(3)) is not None


def test_quotient_order_reflects_filter_membership(suite):
    # a -> b lands in the filter exactly when the classes are ordered
    for algebra in suite:
        if algebra.size > 5:
            continue
        for flt in all_deductive_filters(algebra):
            q, cover = quotient(algebra, flt)
            for a in algebra.elements:
                for b in algebra.elements:
                    in_filter = algebra.residual[a][b] in flt.members
                    ordered = q.leq(cover.mapping[a], cover.mapping[b])
                    assert in_filter == ordered


def test_correspondence_along_surjections(suite):
    # preimages of deductive filters biject onto the filters above the
    # kernel, and image-then-preimage is the identity there
    for algebra in suite:
        if algebra.size > 5:
            continue
        for flt in all_deductive_filters(algebra):
            q, cover = quotient(algebra, flt)
            above = [f for f in all_deductive_filters(algebra) if flt.members <= f.members]
            target_filters = all_deductive_filters(q)
            preimages = {
                frozenset(a for a in algebra.elements if cover.mapping[a] in g.members)
                for g in target_filters
            }
            assert preimages == {f.members for f in above}
            for g_members in [f.members for f in above]:
                image = frozenset(cover.mapping[a] for a in g_members)
                back = frozenset(
                    a for a in algebra.elements if cover.mapping[a] in image
                )
                assert back == g_members
            # primes correspond to primes
            for g in target_filters:
                pre = frozenset(
                    a for a in algebra.elements if cover.mapping[a] in g.members
                )
                assert is_prime_filter(q, g.members) == is_prime_filter(algebra, pre)


def test_is_fsi_examples():
    assert is_fsi(c4())
    assert not is_fsi(trivial())
    assert not is_fsi(direct_product(c4(), c4()))


def test_is_fsi_matches_congruence_meet_irreducibility(suite):
    for algebra in suite:
        if algebra.size > 6:
            continue
        congruences = enumerate_congruences_bruteforce(algebra)
        identity_blocks = tuple(range(algebra.size))

        def meet_blocks(x, y):
            pairs = list(zip(x, y))
            seen = {}
            out = []
            for p in pairs:
                if p not in seen:
                    seen[p] = len(seen)
                out.append(seen[p])
            return tuple(out)

        meet_irreducible = algebra.size > 1 and all(
            x.blocks == identity_blocks or y.blocks == identity_blocks
            for x in congruences
            for y in congruences
            if meet_blocks(x.blocks, y.blocks) == identity_blocks
        )
        assert is_fsi(algebra) == meet_irreducible, algebra.name


def test_subalgebras_of_fsi_are_fsi(suite):
    from srlkit.cones import all_subuniverses
    from srlkit.core import subalgebra

    for algebra in suite:
        if algebra.size > 5 or not is_fsi(algebra):
            continue
        for mask in all_subuniverses(algebra):
            sub, _ = subalgebra(algebra, mask)
            if sub.size > 1:
                assert is_fsi(sub)


def test_restrict_quotient_embedding_examples():
    algebra = brouwerian_chain(4)
    theta = leibniz_congruence(deductive_filter(algebra, {2, 3}))
    qe = restrict_quotient_embedding(algebra, [0, 2, 3], theta)
    assert qe.sub_quotient.size == 2 and qe.quotient.size == 3
    assert qe.embedding.is_injective
    assert is_homomorphism(qe.sub_quotient, qe.quotient, qe.embedding.mapping)

    identity = Congruence(algebra, tuple(range(4)))
    qe = restrict_quotient_embedding(algebra, [0, 2, 3], identity)
    assert qe.embedding.mapping == (0, 2, 3)

    total = Congruence(algebra, (0, 0, 0, 0))
    qe = restrict_quotient_embedding(algebra, [0, 2, 3], total)
    assert qe.sub_quotient.size == 1 and qe.quotient.size == 1


def test_restrict_quotient_embedding_rejects_a_non_subuniverse():
    # the check lives on the public entry; the private one takes a checked
    # subalgebra
    algebra = brouwerian_diamond()
    theta = leibniz_congruence(deductive_filter(algebra, {1, 3}))
    with pytest.raises(NotASubalgebra, match=r"^\[1, 2, 3\] is not a subuniverse$"):
        restrict_quotient_embedding(algebra, [1, 2, 3], theta)


def test_deductive_filter_rejects_non_filters():
    with pytest.raises(NotAFilter):
        deductive_filter(c4(), {0})
    assert not is_deductive_filter(c4(), {2, 3})  # misses e


def test_deductive_filters_closed_under_fusion_and_modus_ponens(suite):
    # consequences of the definition, but checked rather than assumed
    for algebra in suite:
        for flt in all_deductive_filters(algebra):
            for a in flt.members:
                for b in flt.members:
                    assert algebra.fusion[a][b] in flt.members
                for b in algebra.elements:
                    if algebra.residual[a][b] in flt.members:
                        assert b in flt.members


def test_elements_outside_the_carrier_are_rejected():
    # -1 used to be read as the last element, and 5 to raise IndexError
    algebra = brouwerian_chain(3)
    assert not is_deductive_filter(algebra, {2, -1})
    assert not is_deductive_filter(algebra, {2, 5})
    for outside in (-1, 3):
        with pytest.raises(NotAFilter, match=rf"element {outside} is outside 0\.\.2"):
            generated_filter(algebra, {outside})


@pytest.mark.parametrize("x", [True, 1.0])
def test_elements_must_be_ints_that_are_not_bools(x):
    # True used to stand for 1: `generated_filter` returned ↑1 and both
    # predicates said yes; 1.0 raised a bare TypeError.  Constructors raise,
    # predicates return False.
    algebra = brouwerian_chain(3)
    with pytest.raises(NotAFilter, match=rf"element {x!r} is outside 0\.\.2"):
        generated_filter(algebra, [x])
    with pytest.raises(NotASubalgebra, match=rf"element {x!r} is outside 0\.\.2"):
        subuniverse_closure(algebra, [x])
    assert is_deductive_filter(algebra, [x, 2]) is False
    assert is_subuniverse(algebra, [x, 2, 0]) is False
    assert is_deductive_filter(algebra, [1, 2]) and is_subuniverse(algebra, [1, 2, 0])
