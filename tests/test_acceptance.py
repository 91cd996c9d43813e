"""Acceptance criteria, one test per criterion, each printing a verdict line.

The enumerated verification suite is: every catalog entry, all Brouwerian
algebras to size 6, and all subidempotent algebras (with and without
involution) to size 5; criterion 3 extends the Brouwerian sweep to size 8
and criterion 8 sweeps pairs over algebras to size 6.
"""

import time

import pytest
from oracles import enumerate_congruences_bruteforce, posets_with_top

from srlkit.catalog import c4, crystal, trivial
from srlkit.cones import all_subuniverses, is_negatively_generated
from srlkit.core import classify, derived_laws, find_isomorphism, subalgebra, validate
from srlkit.duality import PointedPoset, canonical_iso, depth, poset_round_trip
from srlkit.enumeration import enumerate_models
from srlkit.filters import (
    all_deductive_filters,
    is_fsi,
    leibniz_congruence,
)
from srlkit.reflection import (
    congruence_census_matches,
    reflect,
    subalgebra_census_matches,
)
from srlkit.varieties import (
    VarietySpec,
    decide_es,
    epi_analysis,
    fsi_spectrum,
    hypotheses_gate,
    is_epic_subalgebra,
    refute_epic,
    verify_certificate,
)


def report(criterion: str, ok: bool) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}")
    assert ok


def test_criterion_1_axioms_and_derived_laws(suite):
    started = time.time()
    failures = []
    for algebra in suite:
        if not validate(algebra).ok:
            failures.append((algebra.name, "validate"))
            continue
        if not derived_laws(algebra).ok:
            failures.append((algebra.name, "derived"))
    elapsed = time.time() - started
    print(f"criterion 1 checked {len(suite)} algebras in {elapsed:.1f}s")
    report("1 (axioms and derived laws)", not failures and elapsed < 60)


def test_criterion_2_filter_congruence_correspondence(suite):
    ok = True
    for algebra in suite:
        filters = all_deductive_filters(algebra)
        brute = enumerate_congruences_bruteforce(algebra)
        images = [leibniz_congruence(f) for f in filters]
        ok = ok and len(filters) == len(brute)
        ok = ok and {c.blocks for c in images} == {c.blocks for c in brute}
        from srlkit.filters import congruence_filter

        ok = ok and all(
            congruence_filter(theta).members == f.members
            for f, theta in zip(filters, images)
        )
        for f in filters:
            for g in filters:
                lf, lg = leibniz_congruence(f), leibniz_congruence(g)
                refines = len(set(zip(lf.blocks, lg.blocks))) == len(set(lf.blocks))
                ok = ok and (f.members <= g.members) == refines
    report("2 (filter/congruence correspondence)", ok)


def test_criterion_3_duality_round_trips():
    for algebra in enumerate_models("brouwerian", 8, bound=8):
        canonical_iso(algebra)  # raises unless a verified isomorphism
    count = 0
    for size in range(1, 7):
        for leq in posets_with_top(size):
            top = next(
                t for t in range(size) if all(leq[a][t] for a in range(size))
            )
            poset_round_trip(PointedPoset(size, leq, top))
            count += 1
    print(f"criterion 3 verified 36 algebras and {count} posets")
    report("3 (duality round trips)", True)


def test_criterion_4_fsi_oracle(suite):
    def meet_blocks(x, y):
        seen, out = {}, []
        for p in zip(x, y):
            if p not in seen:
                seen[p] = len(seen)
            out.append(seen[p])
        return tuple(out)

    ok = True
    for algebra in suite:
        congruences = enumerate_congruences_bruteforce(algebra)
        identity = tuple(range(algebra.size))
        oracle = algebra.size > 1 and all(
            x.blocks == identity or y.blocks == identity
            for x in congruences
            for y in congruences
            if meet_blocks(x.blocks, y.blocks) == identity
        )
        ok = ok and is_fsi(algebra) == oracle
    report("4 (FSI oracle agreement)", ok)


def test_criterion_5_c4_facts():
    algebra = c4()
    spec = VarietySpec((algebra,))
    spectrum = fsi_spectrum(spec)
    ok = depth(algebra) == 1
    ok = ok and len(all_deductive_filters(algebra)) == 2  # simple
    ok = ok and is_negatively_generated(algebra)
    ok = ok and len(spectrum.algebras) == 1
    ok = ok and find_isomorphism(spectrum.algebras[0], algebra) is not None
    ok = ok and hypotheses_gate(spec).passed
    ok = ok and decide_es(spec).surjective
    report("5 (c4 facts)", ok)


def test_criterion_6_crystal_facts():
    algebra = crystal()
    spec = VarietySpec((algebra,))
    flags = classify(algebra)
    ok = flags.de_morgan_monoid
    ok = ok and not is_negatively_generated(algebra)
    witness_mask = frozenset({0, 1, 2, 4, 5})
    ok = ok and is_epic_subalgebra(algebra, witness_mask, spec)
    ok = ok and len(witness_mask) < algebra.size
    decision = decide_es(spec)
    ok = ok and not decision.surjective
    member, mask = decision.witness
    ok = ok and member.size == 6 and len(mask) == 5
    sub, _ = subalgebra(member, mask)
    expected, _ = subalgebra(algebra, witness_mask)
    ok = ok and find_isomorphism(sub, expected) is not None
    report("6 (crystal facts)", ok)


def test_criterion_7_reflection_transport():
    ok = True
    for base in enumerate_models("srl", 4):
        refl = reflect(base)
        ok = ok and validate(refl.algebra).ok
        ok = ok and classify(base).dunn_monoid == classify(refl.algebra).de_morgan_monoid
        if base.size > 1:
            ok = ok and is_fsi(base) == is_fsi(refl.algebra)
        else:
            # under the trivial-not-FSI convention the one-element base is
            # the unique transfer exception: its reflection is FSI
            ok = ok and not is_fsi(base) and is_fsi(refl.algebra)
        ok = ok and subalgebra_census_matches(refl)
        ok = ok and congruence_census_matches(refl)
    ok = ok and find_isomorphism(reflect(trivial()).algebra, c4()) is not None
    report("7 (reflection transport)", ok)


@pytest.fixture(scope="module")
def sweep_suite():
    return (
        list(enumerate_models("brouwerian", 6))
        + list(enumerate_models("srl", 6, bound=6))
        + list(enumerate_models("sirl", 6, bound=6))
    )


def test_criterion_8_main_theorem_mechanized(sweep_suite):
    started = time.time()
    pairs = 0
    for algebra in sweep_suite:
        if not (is_fsi(algebra) and is_negatively_generated(algebra)):
            continue
        spec = VarietySpec((algebra,))
        spectrum = None
        for mask in all_subuniverses(algebra):
            if len(mask) == algebra.size:
                continue
            sub, _ = subalgebra(algebra, mask)
            if not is_negatively_generated(sub):
                continue
            pairs += 1
            analysis = epi_analysis(algebra, mask)  # verifies every claim
            assert analysis.case in ("nested", "incomparable")
            cert = refute_epic(algebra, mask)
            assert verify_certificate(cert, mask)
            if spectrum is None:
                spectrum = fsi_spectrum(spec)
            assert not is_epic_subalgebra(algebra, mask, spec)
    elapsed = time.time() - started
    print(f"criterion 8 swept {pairs} pairs in {elapsed:.1f}s")
    report("8 (main theorem mechanized)", pairs > 0 and elapsed < 600)


def test_criterion_9_es_decision_consistency(suite):
    checked = 0
    ok = True
    for algebra in suite:
        spec = VarietySpec((algebra,))
        if not hypotheses_gate(spec).passed:
            continue
        checked += 1
        ok = ok and decide_es(spec).surjective
    ok = ok and not decide_es(VarietySpec((crystal(),))).surjective
    print(f"criterion 9 decided {checked} gate-passing varieties")
    report("9 (es decision consistency)", ok and checked > 0)
