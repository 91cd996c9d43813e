import random

import pytest
from oracles import (
    BinOp,
    Const,
    UnboundVariable,
    Var,
    eval_term,
    generate_subalgebra,
    lattice_filters,
    negative_cone_cells,
    relabel,
    term_size,
    term_variables,
)

from srlkit.catalog import brouwerian_chain, c4, crystal, sugihara, trivial
from srlkit.cones import (
    all_subuniverses,
    cone_quotient_iso,
    is_negatively_generated,
    negative_cone,
    subuniverse_closure,
)
from srlkit.core import classify, find_isomorphism, validate
from srlkit.errors import NotASubalgebra
from srlkit.filters import (
    all_deductive_filters,
    deductive_filter,
    quotient,
)


def test_negative_cone_c4_is_two_chain():
    cone, carrier = negative_cone(c4())
    assert carrier == (0, 1)
    assert cone.size == 2
    assert validate(cone).ok and classify(cone).brouwerian
    assert find_isomorphism(cone, brouwerian_chain(2)) is not None


def test_negative_cone_crystal_is_two_chain():
    cone, carrier = negative_cone(crystal())
    assert carrier == (0, 1)
    assert classify(cone).brouwerian


def test_negative_cone_of_brouwerian_is_everything():
    algebra = brouwerian_chain(4)
    cone, carrier = negative_cone(algebra)
    assert carrier == tuple(range(4))
    assert cone.meet == algebra.meet and cone.residual == algebra.residual


def test_negative_cone_validates_on_suite(suite):
    for algebra in suite:
        cone, _ = negative_cone(algebra)
        assert validate(cone).ok
        flags = classify(cone)
        assert flags.integral
        if algebra.signature.has_bottom:
            assert flags.heyting


def test_negative_cone_matches_the_cell_oracle(suite):
    # the cone's tables are restricted a row at a time; the oracle forms
    # each cell, on the suite as given and relabelled
    rng = random.Random(2501)
    for algebra in suite:
        for image in (algebra, relabel(algebra, rng)):
            assert negative_cone(image) == negative_cone_cells(image)


def test_generate_c4_from_cone():
    algebra = c4()
    gen = generate_subalgebra(algebra, [0, 1])
    assert gen.members == frozenset(range(4))
    assert gen.witnesses[0] == Var("y0") and gen.witnesses[1] == Var("y1")


def test_generate_crystal_cone_is_proper():
    algebra = crystal()
    gen = generate_subalgebra(algebra, [0, 1])
    assert gen.members == frozenset({0, 1, 4, 5})


def test_generate_whole_carrier_gives_variables():
    algebra = brouwerian_chain(3)
    gen = generate_subalgebra(algebra, range(3))
    assert all(isinstance(gen.witnesses[a], Var) for a in range(3))


def test_generate_witnesses_re_evaluate(suite):
    for algebra in suite:
        if algebra.size > 5:
            continue
        gen = generate_subalgebra(algebra, algebra.below_e)
        for member, term in gen.witnesses.items():
            assert eval_term(algebra, term, gen.assignment) == member


def test_generate_witnesses_minimal_against_exhaustion():
    # oracle: breadth-first enumeration of all terms by size
    algebra = c4()
    gen = generate_subalgebra(algebra, [1])
    best = {1: 1}  # generator: bare variable
    level = {1: 1}
    sizes = {1: [1]}
    s = 1
    while len(best) < 4:
        s += 1
        found = []
        for op, table in (
            ("meet", algebra.meet), ("join", algebra.join),
            ("fusion", algebra.fusion), ("residual", algebra.residual),
        ):
            for ls in list(sizes):
                rs = s - 1 - ls
                if rs in sizes:
                    for a in sizes[ls]:
                        for b in sizes[rs]:
                            v = table[a][b]
                            if v not in best:
                                found.append(v)
                                best[v] = s
        for a in sizes.get(s - 1, []):
            v = algebra.neg[a]
            if v not in best:
                found.append(v)
                best[v] = s
        if found:
            sizes[s] = found
    for member, term in gen.witnesses.items():
        assert term_size(term) == best[member]


def test_distinguished_generator_gets_x():
    algebra = brouwerian_chain(3)
    gen = generate_subalgebra(algebra, [0, 1, 2], distinguished=1)
    assert gen.witnesses[1] == Var("x")
    assert gen.assignment["x"] == 1


def test_witness_variables_are_bound():
    algebra = crystal()
    gen = generate_subalgebra(algebra, [2], distinguished=2)
    for term in gen.witnesses.values():
        assert term_variables(term) <= set(gen.assignment)


def test_is_negatively_generated_examples(suite):
    assert is_negatively_generated(c4())
    assert not is_negatively_generated(crystal())
    for algebra in suite:
        if classify(algebra).integral:
            assert is_negatively_generated(algebra)


def test_eval_term_basics():
    algebra = c4()
    assert eval_term(algebra, Const("e"), {}) == 1
    three = brouwerian_chain(3)
    t = BinOp("residual", Var("y0"), Var("y0"))
    for v in range(3):
        assert eval_term(three, t, {"y0": v}) == three.e
    square = BinOp("fusion", Var("x"), Var("x"))
    assert eval_term(algebra, square, {"x": 2}) == 3  # f*f is the top
    with pytest.raises(UnboundVariable):
        eval_term(algebra, Var("z"), {})


def test_surjections_restrict_to_cone_surjections(suite):
    # a surjective image's cone is the image of the cone
    for algebra in suite:
        if algebra.size > 5:
            continue
        for flt in all_deductive_filters(algebra):
            q, cover = quotient(algebra, flt)
            image_cone = {cover.mapping[a] for a in algebra.below_e}
            assert image_cone == set(q.below_e)


def test_negative_generation_passes_to_images(suite):
    for algebra in suite:
        if algebra.size > 5 or not is_negatively_generated(algebra):
            continue
        for flt in all_deductive_filters(algebra):
            q, _ = quotient(algebra, flt)
            assert is_negatively_generated(q)


def test_cone_trace_of_generated_filter(suite):
    # generating a cone filter in the full algebra and tracing back is the
    # identity
    from srlkit.filters import generated_filter

    for algebra in suite:
        if algebra.size > 5:
            continue
        cone, carrier = negative_cone(algebra)
        back = {x: i for i, x in enumerate(carrier)}
        for f_members in lattice_filters(cone):
            lifted = generated_filter(algebra, [carrier[i] for i in f_members])
            # the lift is exactly the up-closure of the cone filter
            expected = frozenset(
                a for a in algebra.elements
                if any(algebra.leq(carrier[i], a) for i in f_members)
            )
            assert lifted.members == expected
            trace = frozenset(back[x] for x in lifted.members if x in back)
            assert trace == frozenset(f_members)


def test_cone_quotient_iso_examples():
    algebra = brouwerian_chain(4)
    iso = cone_quotient_iso(algebra, deductive_filter(algebra, {2, 3}))
    assert iso.quotient_cone.size == 3 == iso.cone_quotient.size

    algebra = c4()
    iso = cone_quotient_iso(algebra, deductive_filter(algebra, {1, 2, 3}))
    assert iso.quotient_cone.size == 2
    iso = cone_quotient_iso(algebra, deductive_filter(algebra, {0, 1, 2, 3}))
    assert iso.quotient_cone.size == 1


def test_cone_quotient_iso_suite(suite):
    for algebra in suite:
        if algebra.size > 5:
            continue
        for flt in all_deductive_filters(algebra):
            cone_quotient_iso(algebra, flt)  # raises on any failure


def test_all_subuniverses_crystal():
    assert [sorted(m) for m in all_subuniverses(crystal())] == [
        [0, 1, 4, 5],
        [0, 1, 2, 4, 5],
        [0, 1, 3, 4, 5],
        [0, 1, 2, 3, 4, 5],
    ]


def test_subuniverse_closure_constants():
    # the identity alone generates all of c4 through negation and fusion
    assert subuniverse_closure(c4(), set()) == frozenset(range(4))
    assert subuniverse_closure(trivial(), set()) == frozenset({0})
    assert subuniverse_closure(sugihara(3), {0}) == frozenset(range(3))


def test_subuniverse_closure_rejects_elements_outside_the_carrier():
    # -1 used to be closed over as the last element
    algebra = brouwerian_chain(3)
    for outside in (-1, 3):
        with pytest.raises(NotASubalgebra, match=rf"element {outside} is outside 0\.\.2"):
            subuniverse_closure(algebra, {outside})
