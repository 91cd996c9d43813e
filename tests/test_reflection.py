import random

import pytest
from oracles import reflect_cells, reflection_meet_by_order, relabel

from srlkit.catalog import brouwerian_chain, c4, heyting_chain, trivial
from srlkit.cones import all_subuniverses, subuniverse_closure
from srlkit.core import Signature, classify, find_isomorphism, subalgebra, validate
from srlkit.enumeration import enumerate_models
from srlkit.errors import NotASubalgebra, WrongSignature
from srlkit.filters import Congruence, all_congruences, is_fsi
from srlkit.reflection import (
    congruence_census_matches,
    reflect,
    reflect_congruence,
    reflect_subalgebra,
    reflection_epic_transfer,
    subalgebra_census_matches,
)


def test_reflect_trivial_is_c4():
    refl = reflect(trivial())
    assert validate(refl.algebra).ok
    assert find_isomorphism(refl.algebra, c4()) is not None


def test_reflect_two_chain():
    refl = reflect(brouwerian_chain(2))
    assert refl.algebra.size == 6
    assert validate(refl.algebra).ok
    flags = classify(refl.algebra)
    assert flags.de_morgan_monoid


def test_reflect_matches_the_cell_oracle(srl5, catalog_algebras):
    # meet and fusion are built a block row at a time; the oracle forms each
    # cell by cases, and the meet is also the order's greatest lower bound
    rng = random.Random(2502)
    bases = [a for a in catalog_algebras if a.signature == Signature(False, False)]
    assert len(bases) == 5
    for base in bases + [b for a in srl5 for b in (a, relabel(a, rng))]:
        algebra = reflect(base).algebra
        assert (algebra.meet, algebra.fusion) == reflect_cells(base)
        assert algebra.meet == reflection_meet_by_order(base)


def test_reflect_rejects_wrong_signature():
    with pytest.raises(WrongSignature):
        reflect(c4())
    with pytest.raises(WrongSignature):
        reflect(heyting_chain(2))


def test_reflection_extremes_are_term_definable():
    refl = reflect(brouwerian_chain(3))
    algebra = refl.algebra
    f = algebra.neg[algebra.e]
    assert algebra.fusion[f][f] == refl.top_index
    assert algebra.neg[algebra.fusion[f][f]] == refl.bottom_index


def test_reflection_cone_is_base_plus_bottom():
    refl = reflect(brouwerian_chain(2))
    closure = subuniverse_closure(refl.algebra, refl.algebra.below_e)
    cone = set(refl.algebra.below_e)
    assert cone == {refl.bottom_index} | {refl.base_index(a) for a in range(2) if brouwerian_chain(2).leq(a, 1)}
    # reflections are generated by the base block, not by their cone alone
    base_block = {refl.base_index(a) for a in range(2)}
    assert subuniverse_closure(refl.algebra, base_block) == frozenset(range(6))
    assert closure == frozenset(
        {refl.bottom_index, refl.top_index}
        | base_block
        | {refl.primed_index(a) for a in range(2)}
    )


def test_reflect_subalgebra_examples():
    base = brouwerian_chain(2)
    refl = reflect(base)
    whole, _ = reflect_subalgebra(refl, {0, 1})
    assert whole == frozenset(range(6))
    small, iso = reflect_subalgebra(refl, {1})
    assert len(small) == 4
    from srlkit.core import subalgebra

    sub, _ = subalgebra(refl.algebra, small)
    assert find_isomorphism(sub, c4()) is not None
    with pytest.raises(NotASubalgebra):
        reflect_subalgebra(refl, {0})  # misses the identity


def test_reflect_congruence_examples():
    base = brouwerian_chain(2)
    refl = reflect(base)
    ident = Congruence(base, (0, 1))
    lifted = reflect_congruence(refl, ident)
    assert lifted.is_identity
    total = Congruence(base, (0, 0))
    lifted = reflect_congruence(refl, total)
    assert lifted.block_count == 4
    quotient_of_total = None
    from srlkit.filters import quotient_by_congruence

    q, _ = quotient_by_congruence(refl.algebra, lifted)
    assert find_isomorphism(q, c4()) is not None


def test_congruence_count_is_base_plus_one():
    base = brouwerian_chain(2)
    refl = reflect(base)
    assert len(all_congruences(refl.algebra)) == len(all_congruences(base)) + 1


def test_censuses_for_all_small_bases():
    from srlkit.enumeration import enumerate_models

    for base in enumerate_models("srl", 4):
        refl = reflect(base)
        assert validate(refl.algebra).ok
        assert classify(base).dunn_monoid == classify(refl.algebra).de_morgan_monoid
        if base.size > 1:
            assert is_fsi(base) == is_fsi(refl.algebra)
        assert subalgebra_census_matches(refl)
        assert congruence_census_matches(refl)


def test_trivial_base_is_the_only_fsi_transfer_exception():
    refl = reflect(trivial())
    assert not is_fsi(trivial()) and is_fsi(refl.algebra)


def test_base_block_is_srl_reduct_subalgebra():
    # the base embeds into the involution-free reduct of its reflection
    from srlkit.enumeration import enumerate_models

    for base in enumerate_models("srl", 3):
        refl = reflect(base)
        lift = [refl.base_index(a) for a in range(base.size)]
        for table_name in ("meet", "join", "fusion", "residual"):
            base_table = getattr(base, table_name)
            big_table = getattr(refl.algebra, table_name)
            for a in range(base.size):
                for b in range(base.size):
                    assert big_table[lift[a]][lift[b]] == lift[base_table[a][b]]
        assert refl.algebra.e == lift[base.e]


def test_reflection_generated_by_base_block():
    from srlkit.enumeration import enumerate_models

    for base in enumerate_models("srl", 4):
        refl = reflect(base)
        block = {refl.base_index(a) for a in range(base.size)}
        assert subuniverse_closure(refl.algebra, block) == frozenset(
            range(refl.algebra.size)
        )


def test_reflection_cone_generates_lifted_base_cone():
    # the closure of the reflection's cone is the lift of the closure of the
    # base cone; in particular the reflection is negatively generated
    # exactly when the base is
    from srlkit.cones import is_negatively_generated
    from srlkit.enumeration import enumerate_models
    from srlkit.reflection import reflect_subalgebra

    for base in enumerate_models("srl", 4):
        refl = reflect(base)
        assert set(refl.algebra.below_e) == {refl.bottom_index} | {
            refl.base_index(a) for a in base.below_e
        }
        base_closure = subuniverse_closure(base, base.below_e)
        lifted, _ = reflect_subalgebra(refl, base_closure)
        assert subuniverse_closure(refl.algebra, refl.algebra.below_e) == lifted
        assert is_negatively_generated(base) == is_negatively_generated(refl.algebra)


def test_epic_transfer_agreement():
    three = brouwerian_chain(3)
    assert reflection_epic_transfer(three, {0, 2}, [three]) == (False, False)
    assert reflection_epic_transfer(three, {0, 1, 2}, [three]) == (True, True)
    four = brouwerian_chain(4)
    assert reflection_epic_transfer(four, {0, 2, 3}, [four]) == (False, False)


def test_reflected_subalgebra_map_is_the_least_isomorphism():
    # the layout makes the reflection copy and the lifted subalgebra equal;
    # the identity map returned for it must be what isomorphism search finds
    rng = random.Random(11)
    checked = 0
    for base in enumerate_models("srl", 4):
        for algebra in (base, relabel(base, rng)):
            refl = reflect(algebra)
            for mask in all_subuniverses(algebra):
                lifted, iso = reflect_subalgebra(refl, mask)
                sub, _ = subalgebra(refl.algebra, lifted)
                base_sub, _ = subalgebra(algebra, mask)
                found = find_isomorphism(reflect(base_sub).algebra, sub)
                assert iso == found
                checked += 1
    assert checked == 94  # 47 subuniverses over the SRLs of size <= 4, twice
