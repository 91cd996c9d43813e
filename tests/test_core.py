import dataclasses
import hashlib
import itertools
import random

import pytest
from oracles import (
    greatest,
    least,
    relabel,
    residual_from_fusion_pairwise,
    residuation_failure_scan,
)

from srlkit import core
from srlkit.catalog import brouwerian_chain, c4, crystal, heyting_chain, trivial
from srlkit.core import (
    FiniteAlgebra,
    classify,
    compose,
    derive_order,
    derived_laws,
    direct_product,
    find_isomorphism,
    homomorphisms,
    identity_homomorphism,
    is_homomorphism,
    residual_from_fusion,
    subalgebra,
    validate,
)
from srlkit.errors import (
    DerivedLawFailure, MalformedTable, NotResiduated, SrlkitError, VerificationFailure,
)
from srlkit.reflection import reflect


def replace_cell(algebra, table_name, i, j, value):
    table = [list(r) for r in getattr(algebra, table_name)]
    table[i][j] = value
    kwargs = dict(
        size=algebra.size, meet=algebra.meet, join=algebra.join,
        fusion=algebra.fusion, residual=algebra.residual, e=algebra.e,
        neg=algebra.neg, bottom=algebra.bottom,
    )
    kwargs[table_name] = tuple(tuple(r) for r in table)
    return FiniteAlgebra.build(**kwargs)


def test_derive_order_two_chain():
    two = brouwerian_chain(2)
    assert derive_order(two) == frozenset({(0, 0), (0, 1), (1, 1)})


def test_derive_order_c4_total():
    order = derive_order(c4())
    assert order == frozenset((a, b) for a in range(4) for b in range(4) if a <= b)


def test_derive_order_crystal_matches_cover_closure():
    # oracle: transitive-reflexive closure of the Hasse cover pairs
    covers = {(0, 1), (1, 2), (1, 3), (2, 4), (3, 4), (4, 5)}
    reach = {(a, a) for a in range(6)} | set(covers)
    changed = True
    while changed:
        changed = False
        for (a, b) in list(reach):
            for (c, d) in list(reach):
                if b == c and (a, d) not in reach:
                    reach.add((a, d))
                    changed = True
    assert derive_order(crystal()) == frozenset(reach)
    # the two middle elements are the only incomparable pair
    assert (2, 3) not in reach and (3, 2) not in reach


def test_derive_order_rejects_bad_meet():
    broken = replace_cell(brouwerian_chain(3), "meet", 1, 1, 0)
    with pytest.raises(MalformedTable):
        derive_order(broken)


def test_order_has_table_meets_and_joins(suite):
    # greatest lower / least upper bounds of the derived relation are the
    # table entries
    for algebra in suite:
        if algebra.size > 5:
            continue
        order = derive_order(algebra)
        leq = lambda a, b: (a, b) in order
        for a in algebra.elements:
            for b in algebra.elements:
                lowers = [c for c in algebra.elements if leq(c, a) and leq(c, b)]
                m = algebra.meet[a][b]
                assert m in lowers and all(leq(c, m) for c in lowers)
                uppers = [c for c in algebra.elements if leq(a, c) and leq(b, c)]
                j = algebra.join[a][b]
                assert j in uppers and all(leq(j, c) for c in uppers)


def test_validate_rejects_join_disagreeing_with_meet():
    broken = replace_cell(brouwerian_chain(3), "join", 0, 1, 2)
    report = validate(broken)
    assert not report.ok
    assert any(v.axiom == "lattice" for v in report.failures())


def test_validate_catalog_and_suite(suite):
    for algebra in suite:
        report = validate(algebra)
        assert report.ok, (algebra.name, report.failures())


def test_validate_broken_fusion_fails_with_witness():
    broken = replace_cell(c4(), "fusion", 1, 1, 2)  # identity cell rewired
    report = validate(broken)
    assert not report.ok
    failing = {v.axiom for v in report.failures()}
    assert failing & {"monoid", "residuation"}
    assert all(v.witness is not None for v in report.failures())


def test_validate_shape_errors_are_distinguished():
    algebra = c4()
    bad = FiniteAlgebra(
        size=4, meet=algebra.meet, join=algebra.join, fusion=algebra.fusion,
        residual=algebra.residual[:3], e=1, neg=algebra.neg,
        signature=algebra.signature,
    )
    with pytest.raises(MalformedTable):
        validate(bad)


def test_derived_laws_hold_on_suite(suite):
    for algebra in suite:
        assert derived_laws(algebra).ok


def test_derived_laws_raise_on_broken_input():
    broken = replace_cell(brouwerian_chain(3), "residual", 2, 0, 2)
    with pytest.raises(DerivedLawFailure):
        derived_laws(broken)


@pytest.mark.parametrize(
    "cells, message",
    [
        ({(0, 0): 1}, "meet not idempotent at 0"),
        ({(0, 1): 1}, "meet not commutative at (0, 1)"),
        ({(0, 2): 2, (2, 0): 2}, "meet not associative at (0, 1, 2)"),
    ],
)
def test_derive_order_names_the_first_failing_semilattice_law(cells, message):
    # the 3-chain's meet with cells rewired: the first failing law, and its
    # first witness in lexicographic order
    meet = [list(row) for row in brouwerian_chain(3).meet]
    for (i, j), value in cells.items():
        meet[i][j] = value
    broken = dataclasses.replace(brouwerian_chain(3), meet=tuple(map(tuple, meet)))
    with pytest.raises(MalformedTable) as exc:
        derive_order(broken)
    assert str(exc.value) == message


def _law_lines(suite):
    """One line per law-check answer, as the result or as the exception's
    type and message: `validate`, `derive_order`, `derived_laws` and
    `classify` on each suite algebra and on seeded corruptions of it.  A
    corruption rewires one cell of one table, or that cell and its mirror
    image, moves the identity or the bottom, or rewires one entry of the
    involution."""

    def answer(ask):
        try:
            return repr(ask())
        except SrlkitError as exc:
            return f"{type(exc).__name__}: {exc}"

    rng = random.Random(17)
    other = lambda n, value: rng.choice([x for x in range(n) if x != value])
    cases = []
    for algebra in suite:
        n = algebra.size
        cases.append(algebra)
        if n == 1:
            continue
        for name in ("meet", "join", "fusion", "residual"):
            i, j = rng.randrange(n), rng.randrange(n)
            rows = [list(row) for row in getattr(algebra, name)]
            value = other(n, rows[i][j])
            rows[i][j] = value
            cases.append(dataclasses.replace(algebra, **{name: tuple(map(tuple, rows))}))
            rows[j][i] = value
            cases.append(dataclasses.replace(algebra, **{name: tuple(map(tuple, rows))}))
        cases.append(dataclasses.replace(algebra, e=other(n, algebra.e)))
        if algebra.bottom is not None:
            cases.append(dataclasses.replace(algebra, bottom=other(n, algebra.bottom)))
        if algebra.neg is not None:
            neg = list(algebra.neg)
            a = rng.randrange(n)
            neg[a] = other(n, neg[a])
            cases.append(dataclasses.replace(algebra, neg=tuple(neg)))
    for algebra in cases:
        yield answer(lambda: validate(algebra))
        yield answer(lambda: sorted(derive_order(algebra)))
        yield answer(lambda: derived_laws(algebra))
        yield answer(lambda: classify(algebra))


def test_law_checks_match_the_recorded_digest(suite):
    # recorded from the law checks that wrote out each law's loop in place
    lines = list(_law_lines(suite))
    assert len(lines) == 4 * 1245
    assert sum(line.startswith("MalformedTable") for line in lines) == 220
    assert sum(line.startswith("DerivedLawFailure") for line in lines) == 1048
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == (
        "6d5df91c06a71ad752dc0535b7d46958743af8c76ca6ca636d018d48c436cb05"
    )


def test_brouwerian_fusion_is_meet(suite):
    # integral algebras multiply by meet
    for algebra in suite:
        if classify(algebra).integral:
            assert algebra.fusion == algebra.meet


def test_trivial_laws_vacuous():
    assert derived_laws(trivial()).ok


def test_residual_from_fusion_two_chain():
    two = brouwerian_chain(2)
    table = residual_from_fusion(2, two.meet, two.fusion)
    assert table[1][0] == 0 and table[0][0] == 1
    assert table == two.residual


def test_residual_from_fusion_c4():
    algebra = c4()
    assert residual_from_fusion(4, algebra.meet, algebra.fusion) == algebra.residual
    assert algebra.residual[2][2] == algebra.e  # f -> f = e


def test_residual_reconstruction_on_suite(suite):
    for algebra in suite:
        rebuilt = residual_from_fusion(algebra.size, algebra.meet, algebra.fusion)
        assert rebuilt == algebra.residual, algebra.name


def test_residual_from_fusion_failure():
    # 2-chain with the identity at the bottom and x*y = max: the set
    # {a : a*1 <= 0} is empty, so no residual exists
    meet = ((0, 0), (0, 1))
    fusion = ((0, 1), (1, 1))
    with pytest.raises(NotResiduated) as exc:
        residual_from_fusion(2, meet, fusion)
    assert (exc.value.b, exc.value.c) == (1, 0)


def test_residual_from_fusion_matches_the_pairwise_oracle(srl5):
    # the SRL tables, and seeded random tables on the same lattices, most of
    # them not residuated: the same residual or the same first failing pair
    def outcome(derive, n, meet, fusion):
        try:
            return ("residual", derive(n, meet, fusion))
        except NotResiduated as exc:
            return ("not residuated", exc.b, exc.c)

    rng = random.Random(20)
    cases = [(a.size, a.meet, a.fusion) for a in srl5]
    for n, meet, _ in rng.choices(cases, k=1000):
        fusion = tuple(tuple(rng.randrange(n) for _ in range(n)) for _ in range(n))
        cases.append((n, meet, fusion))
    failures = 0
    for n, meet, fusion in cases:
        expected = outcome(residual_from_fusion_pairwise, n, meet, fusion)
        assert outcome(residual_from_fusion, n, meet, fusion) == expected, (meet, fusion)
        failures += expected[0] == "not residuated"
    assert 0 < failures < len(cases)


def test_validate_residuation_matches_the_triple_scan(suite):
    # the suite, then seeded random changes to it: a whole random fusion or
    # residual table, or one random cell of one; the same verdict and the
    # same first witness
    rng = random.Random(21)
    cases = list(suite)
    for algebra in rng.choices(suite, k=1000):
        n, name = algebra.size, rng.choice(("fusion", "residual"))
        if rng.random() < 0.5:
            table = tuple(tuple(rng.randrange(n) for _ in range(n)) for _ in range(n))
            cases.append(dataclasses.replace(algebra, **{name: table}))
        else:
            i, j, value = (rng.randrange(n) for _ in range(3))
            cases.append(replace_cell(algebra, name, i, j, value))
    failures = 0
    for algebra in cases:
        (verdict,) = (v for v in validate(algebra).verdicts if v.axiom == "residuation")
        expected = residuation_failure_scan(algebra)
        assert (verdict.passed, verdict.witness) == (expected is None, expected), algebra
        failures += expected is not None
    assert 0 < failures < len(cases)


_TABLES = ("meet", "join", "fusion", "residual")


def _row_passes_and_scans(algebra):
    """(law, the row pass's answer, the cell scan) for each law that has a
    row pass, on each table or pair of tables the pass is given."""
    m, j, f, r = (getattr(algebra, name) for name in _TABLES)
    rng = algebra.elements
    for t in (m, j, f, r):
        yield "commutativity", core._commutative_rows(t), core._commutative(t, rng)
        yield "associativity", core._associative_rows(t), core._associative(t, rng)
    for outer, inner in ((f, j), (r, m), (m, j), (j, m)):
        yield "distributivity", core._distributes_rows(outer, inner), core._distributes(outer, inner, rng)
    for outer, inner in ((m, j), (j, m)):
        yield "absorption", core._absorbs_rows(outer, inner), core._absorbs(outer, inner, rng)
    yield "residuation", core._residuation_rows(m, f, r), core._residuation_failures(algebra)


def test_row_passes_agree_with_the_cell_scans(suite, monkeypatch):
    # every generator hands back its bare cell scan, the oracle for its row
    # pass: on the suite, relabelled copies, copies whose tables are lists,
    # and seeded corruptions of one cell, then of its mirror too, per table
    monkeypatch.setattr(core, "_unless_rows_hold", lambda law, n, rows_hold, scan: scan)
    rng = random.Random(22)
    other = lambda n, value: rng.choice([x for x in range(n) if x != value])
    cases = list(suite)
    for algebra in suite[::2]:
        cases.append(relabel(algebra, rng))
        cases.append(dataclasses.replace(
            algebra, **{name: [list(row) for row in getattr(algebra, name)] for name in _TABLES}))
        n = algebra.size
        for name in _TABLES if n > 1 else ():
            rows = [list(row) for row in getattr(algebra, name)]
            i, j = rng.randrange(n), rng.randrange(n)
            rows[i][j] = other(n, rows[i][j])
            cases.append(dataclasses.replace(algebra, **{name: tuple(map(tuple, rows))}))
            rows[j][i] = rows[i][j]
            cases.append(dataclasses.replace(algebra, **{name: tuple(map(tuple, rows))}))
    outcomes = set()
    for algebra in cases:
        for law, holds, scan in _row_passes_and_scans(algebra):
            assert holds == (next(scan, None) is None), (law, algebra)
            outcomes.add((law, holds))
    laws = {law for law, _, _ in _row_passes_and_scans(c4())}
    assert outcomes == {(law, holds) for law in laws for holds in (True, False)}


def test_row_passes_decline_above_256_elements():
    # a byte holds 0..255, so a 257-element table is left to the cell scans;
    # the tuple comparison of commutativity needs no bytes and still runs
    t = tuple(tuple((a + b) % 257 for b in range(257)) for a in range(257))
    assert core._associative_rows(t) is None
    assert core._distributes_rows(t, t) is None
    assert core._absorbs_rows(t, t) is None
    assert core._residuation_rows(t, t, t) is None
    assert core._commutative_rows(t) is True


def test_a_row_pass_without_a_witness_raises(monkeypatch):
    # a failing row whose cell scan finds nothing is a bug, not a verdict
    monkeypatch.setattr(core, "_associative_rows", lambda t: False)
    with pytest.raises(VerificationFailure, match="associativity failing on 4 elements"):
        validate(c4())


@pytest.mark.parametrize("table", _TABLES)
@pytest.mark.parametrize("convert", [float, bool])
def test_validate_names_a_table_entry_that_is_not_an_int(table, convert):
    rows = [list(row) for row in getattr(c4(), table)]
    rows[1][2] = convert(rows[1][2])
    broken = dataclasses.replace(c4(), **{table: tuple(map(tuple, rows))})
    with pytest.raises(MalformedTable) as exc:
        validate(broken)
    assert str(exc.value) == f"{table} table row 1 column 2 is {rows[1][2]!r}, not an int"


@pytest.mark.parametrize("algebra, field, value, message", [
    (c4(), "neg", (3, 2.0, 1, 0), "involution entry 1 is 2.0, not an int"),
    (c4(), "neg", (3, 2, True, 0), "involution entry 2 is True, not an int"),
    (c4(), "e", 1.0, "identity element is 1.0, not an int"),
    (c4(), "e", True, "identity element is True, not an int"),
    (heyting_chain(2), "bottom", False, "bottom element is False, not an int"),
])
def test_validate_names_a_constant_or_involution_entry_that_is_not_an_int(
    algebra, field, value, message
):
    with pytest.raises(MalformedTable) as exc:
        validate(dataclasses.replace(algebra, **{field: value}))
    assert str(exc.value) == message


@pytest.mark.parametrize("field, value, message", [
    ("meet", [[0, 0], [0, 1.7]], "meet table row 1 column 1 is 1.7, not an int"),
    ("e", True, "identity element is True, not an int"),
])
def test_build_keeps_entries_for_validate_to_name(field, value, message):
    # `build` stores entries as given: it once stored 1.7 and True as 1,
    # and `validate` then passed
    meet = ((0, 0), (0, 1))
    fields = dict(
        size=2, meet=meet, join=((0, 1), (1, 1)), fusion=meet,
        residual=((1, 1), (0, 1)), e=1,
    )
    assert validate(FiniteAlgebra.build(**fields)).ok
    fields[field] = value
    with pytest.raises(MalformedTable) as exc:
        validate(FiniteAlgebra.build(**fields))
    assert str(exc.value) == message


def test_one_element_subalgebra():
    # a restriction to one element reads its one cell without itemgetter,
    # which returns a bare entry for a single index
    sub, inclusion = subalgebra(brouwerian_chain(3), [2])
    assert sub.size == 1 and inclusion.mapping == (2,)
    assert sub.meet == sub.join == sub.fusion == sub.residual == ((0,),)


def test_classify_catalog_expectations():
    flags = classify(c4())
    assert flags.de_morgan_monoid and not flags.idempotent and not flags.integral
    flags = classify(crystal())
    assert flags.de_morgan_monoid and not flags.sugihara_monoid
    for n in (2, 3, 5):
        flags = classify(brouwerian_chain(n))
        assert flags.brouwerian and flags.idempotent and flags.distributive


def test_homomorphisms_c4_endomorphisms_exactly_identity():
    algebra = c4()
    found = homomorphisms(algebra, algebra)
    assert [h.mapping for h in found] == [(0, 1, 2, 3)]
    # oracle: exhaustive scan over all 4^4 maps
    oracle = [
        m
        for m in itertools.product(range(4), repeat=4)
        if is_homomorphism(algebra, algebra, m)
    ]
    assert oracle == [(0, 1, 2, 3)]


def test_homomorphisms_collapse_to_trivial():
    found = homomorphisms(brouwerian_chain(2), trivial())
    assert len(found) == 1 and found[0].mapping == (0, 0)


def test_homomorphisms_three_chain_with_partial():
    three = brouwerian_chain(3)
    found = homomorphisms(three, three, partial={0: 0})
    mappings = [h.mapping for h in found]
    assert (0, 1, 2) in mappings
    assert (0, 2, 2) in mappings
    # lexicographic order by map array
    assert mappings == sorted(mappings)


def test_homomorphisms_conflicting_partial_is_empty():
    three = brouwerian_chain(3)
    assert homomorphisms(three, three, partial={2: 0}) == []  # moves the identity
    assert homomorphisms(three, three, partial={0: 1, 1: 0}) == []


def test_homomorphisms_reject_pins_outside_the_carriers():
    three = brouwerian_chain(3)
    for partial in ({7: 0}, {0: -1}, {1: True}, {1: 2.0}):
        with pytest.raises(ValueError, match="partial pin"):
            homomorphisms(three, three, partial=partial)


def test_homomorphism_composition_validates(suite):
    three = brouwerian_chain(3)
    two = brouwerian_chain(2)
    for first in homomorphisms(three, two):
        for second in homomorphisms(two, two):
            composite = compose(second, first)
            assert is_homomorphism(three, two, composite.mapping)


def test_find_isomorphism_self(suite):
    for algebra in suite[:8]:
        iso = find_isomorphism(algebra, algebra)
        assert iso is not None and iso.is_bijective


def test_find_isomorphism_sizes_differ():
    assert find_isomorphism(c4(), crystal()) is None


def test_find_isomorphism_reflection_of_trivial_is_c4():
    refl = reflect(trivial())
    iso = find_isomorphism(refl.algebra, c4())
    assert iso is not None
    inverse = [0] * 4
    for a, b in enumerate(iso.mapping):
        inverse[b] = a
    assert is_homomorphism(c4(), refl.algebra, inverse)


def _bruteforce_iso(a, b):
    if a.size != b.size:
        return None
    for perm in itertools.permutations(range(a.size)):
        if is_homomorphism(a, b, perm):
            return perm
    return None


def test_find_isomorphism_matches_bruteforce(srl5, sirl5, brouwerian6):
    small = [x for x in list(srl5) + list(sirl5) + list(brouwerian6) if x.size <= 4]
    for a in small:
        for b in small:
            if a.signature != b.signature:
                continue
            fast = find_isomorphism(a, b)
            slow = _bruteforce_iso(a, b)
            assert (fast is None) == (slow is None)
            if fast is not None:
                assert fast.mapping == slow  # both are lexicographically least


def test_find_isomorphism_bruteforce_all_size5(srl5, sirl5, brouwerian6):
    for family in (srl5, sirl5, brouwerian6):
        five = [x for x in family if x.size == 5]
        for a in five:
            for b in five:
                fast = find_isomorphism(a, b)
                slow = _bruteforce_iso(a, b)
                assert (fast is None) == (slow is None)
                if fast is not None:
                    assert fast.mapping == slow


def test_injective_search_and_relabelled_isomorphism(suite):
    # the injective and the invariant-filtered searches share one driver with
    # the plain homomorphism search; check both against it
    from srlkit.cones import all_subuniverses

    rng = random.Random(20190215)
    for algebra in suite:
        for mask in all_subuniverses(algebra):
            sub, _ = subalgebra(algebra, mask)
            injective = homomorphisms(sub, algebra, injective=True)
            assert injective == [h for h in homomorphisms(sub, algebra) if h.is_injective]
        assert find_isomorphism(algebra, relabel(algebra, rng)) is not None


def test_injective_search_rejects_colliding_pins():
    # the pin 1 -> 3 collides with the identity's image 3, so no map is injective
    three, four = brouwerian_chain(3), brouwerian_chain(4)
    assert homomorphisms(three, four, partial={1: 3}, injective=True) == []
    assert homomorphisms(three, four, partial={1: 3}) != []


def test_subalgebra_restriction_roundtrip():
    algebra = crystal()
    sub, inclusion = subalgebra(algebra, [0, 1, 4, 5])
    assert validate(sub).ok
    assert is_homomorphism(sub, algebra, inclusion.mapping)
    assert find_isomorphism(sub, c4()) is not None


def test_direct_product_and_identity():
    algebra = c4()
    prod = direct_product(algebra, algebra)
    assert validate(prod).ok
    ident = identity_homomorphism(algebra)
    assert is_homomorphism(algebra, algebra, ident.mapping)


def test_distinguished_element_accessors():
    from srlkit.catalog import heyting_chain
    from srlkit.errors import WrongSignature

    algebra = c4()
    assert algebra.f() == 2
    assert greatest(algebra) == 3 and least(algebra) == 0
    with pytest.raises(WrongSignature):
        algebra.top()  # no marked bottom in this signature
    bounded = heyting_chain(4)
    assert bounded.top() == 3  # computed from the marked bottom, not stored
    with pytest.raises(WrongSignature):
        bounded.f()
    assert greatest(crystal()) == 5
    square = direct_product(brouwerian_chain(2), brouwerian_chain(2))
    assert greatest(square) == 3 and least(square) == 0


def test_derived_algebra_names():
    from srlkit.cones import negative_cone
    from srlkit.filters import deductive_filter, quotient

    sub, _ = subalgebra(crystal(), {5, 0, 1, 4})
    assert sub.name == "crystal|[0, 1, 4, 5]"
    algebra = c4()
    assert quotient(algebra, deductive_filter(algebra, {1, 2, 3}))[0].name == "c4/θ"
    assert negative_cone(algebra)[0].name == "c4⁻"
    # an unnamed parent gives an unnamed derived algebra
    unnamed = relabel(algebra, random.Random(1))
    assert unnamed.name is None
    assert subalgebra(unnamed, unnamed.elements)[0].name is None
    assert quotient(unnamed, deductive_filter(unnamed, unnamed.elements))[0].name is None
    assert negative_cone(unnamed)[0].name is None
