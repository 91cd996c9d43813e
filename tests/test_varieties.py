import dataclasses
import gc
import hashlib
import itertools
import json
import random
import sys
import weakref

import pytest
from answers import benchmark_varieties, moved
from oracles import (
    decide_es_per_mask,
    epic_refutation_scan,
    fsi_spectrum_loop,
    fsi_spectrum_pairwise,
    refute_epic_public,
    relabel,
    relabelling,
)

from srlkit import cli, duality, varieties
from srlkit.catalog import brouwerian_chain, brouwerian_diamond, c4, crystal, sugihara, trivial
from srlkit.cones import all_subuniverses, is_negatively_generated
from srlkit.core import (
    FiniteAlgebra,
    classify,
    direct_product,
    find_isomorphism,
    homomorphisms,
    subalgebra,
    validate,
)
from srlkit.duality import depth
from srlkit.enumeration import canonical_form
from srlkit.errors import HypothesesNotMet, VerificationFailure
from srlkit.filters import (
    all_congruences,
    all_deductive_filters,
    generated_filter,
    is_fsi,
    quotient,
)
from srlkit.varieties import (
    VarietySpec,
    decide_es,
    epi_analysis,
    fsi_spectrum,
    hypotheses_gate,
    is_epic_subalgebra,
    refute_epic,
    separating_retraction,
    variety_depth,
    verify_certificate,
)


def spec_of(*algebras):
    return VarietySpec(tuple(algebras))


def test_fsi_spectrum_c4():
    spectrum = fsi_spectrum(spec_of(c4()))
    assert len(spectrum.algebras) == 1
    assert find_isomorphism(spectrum.algebras[0], c4()) is not None


def test_fsi_spectrum_two_chain():
    spectrum = fsi_spectrum(spec_of(brouwerian_chain(2)))
    assert len(spectrum.algebras) == 1
    assert spectrum.algebras[0].size == 2


def test_fsi_spectrum_trivial_is_empty():
    assert fsi_spectrum(spec_of(trivial())).algebras == ()


def test_fsi_spectrum_crystal():
    spectrum = fsi_spectrum(spec_of(crystal()))
    assert sorted(m.size for m in spectrum.algebras) == [4, 5, 6]


def test_fsi_spectrum_members_pairwise_non_isomorphic(suite):
    for algebra in suite:
        if algebra.size > 5:
            continue
        spectrum = fsi_spectrum(spec_of(algebra))
        members = spectrum.algebras
        for i in range(len(members)):
            assert is_fsi(members[i])
            for j in range(i + 1, len(members)):
                assert find_isomorphism(members[i], members[j]) is None


def test_fsi_spectrum_matches_pairwise_oracle(suite):
    # same members, tables, names and order as quotienting by every filter
    # and deduplicating by pairwise isomorphism search; the two-generator
    # specs share one subalgebra key set across generators
    rng = random.Random(20261018)
    specs = [spec_of(g) for algebra in suite for g in (algebra, relabel(algebra, rng))]
    specs += [
        spec_of(c4(), sugihara(7)),
        spec_of(crystal(), c4()),
        spec_of(crystal(), sugihara(5)),
        spec_of(brouwerian_chain(4), brouwerian_diamond()),
    ]
    for spec in specs:
        members, expected = fsi_spectrum(spec).algebras, fsi_spectrum_pairwise(spec)
        assert members == expected
        assert [m.name for m in members] == [m.name for m in expected]


def _spectrum_oracle_specs(pairs, seed):
    # each spec as given, then with its generators relabelled
    rng = random.Random(seed)
    for name, generators in pairs:
        yield name, VarietySpec(tuple(generators))
        yield f"{name}, relabelled", VarietySpec(tuple(relabel(g, rng) for g in generators))


def _assert_the_stopped_build_is_the_full_one(name, spec):
    members, expected = fsi_spectrum(spec).algebras, fsi_spectrum_loop(spec)
    assert members == expected, name
    assert [m.name for m in members] == [m.name for m in expected], name
    wanted = varieties._key_set(spec.generators)
    if wanted is None:
        assert all(is_fsi(g) for g in spec.generators), name
    else:
        assert wanted == {canonical_form(m) for m in expected}, name


def test_spectrum_stopped_at_the_key_set_matches_the_full_build():
    # the members, tables, names and order of the build that stops once the
    # key set of the top SI quotients is met are those of the full loop, and
    # the key set is the full loop's
    pairs = [(name, generators) for _, name, generators in benchmark_varieties()]
    pairs += [
        ("crystal^2", (direct_product(crystal(), crystal()),)),
        ("c4*sugihara(3)", (direct_product(c4(), sugihara(3)),)),
        ("sugihara(5)^2", (direct_product(sugihara(5), sugihara(5)),)),
        ("crystal+c4*sugihara(3)", (crystal(), direct_product(c4(), sugihara(3)))),
    ]
    for name, spec in _spectrum_oracle_specs(pairs, 20261020):
        _assert_the_stopped_build_is_the_full_one(name, spec)


@pytest.mark.slow
def test_spectrum_stopped_at_the_key_set_matches_the_full_build_on_large_squares():
    pairs = [(f"sugihara({n})^2", (direct_product(sugihara(n), sugihara(n)),)) for n in (7, 9)]
    for name, spec in _spectrum_oracle_specs(pairs, 20261021):
        _assert_the_stopped_build_is_the_full_one(name, spec)


def _with_key_set(monkeypatch, change):
    real = varieties._key_set
    monkeypatch.setattr(varieties, "_key_set", lambda generators: change(real(generators), real))


@pytest.mark.parametrize(
    "change, message",
    [
        (lambda keys, _: keys | {("no such key",)}, "ended with 1 of the 3 keys"),
        (lambda keys, _: keys - {canonical_form(c4())}, "met a 4-element member outside"),
        (
            lambda keys, key_set: keys | key_set((direct_product(crystal(), c4()),)),
            "ended with 2 of the 4 keys",
        ),
    ],
    ids=["an extra key", "a missing key met before the stop", "the keys of a larger variety"],
)
def test_spectrum_build_refuses_a_wrong_key_set(monkeypatch, change, message):
    # V(c4×sugihara(3)) has two members, c4 and then sugihara(3).  A key set
    # that is too large leaves keys unmet; one that lacks c4's key meets c4
    # before it can stop.  (One that lacks only the last member's key would
    # stop before meeting it, which is why the full loop stays the oracle.)
    spec = spec_of(direct_product(c4(), sugihara(3)))
    assert [m.size for m in fsi_spectrum_loop(spec)] == [4, 3]
    _with_key_set(monkeypatch, change)
    with pytest.raises(VerificationFailure, match=message):
        fsi_spectrum(spec)


def test_es_decide_exits_3_on_a_key_set_left_unmet(monkeypatch, capsys):
    _with_key_set(monkeypatch, lambda keys, _: keys | {("no such key",)})
    code = cli.main(["es-decide", "--variety", "catalog:brouwerian_diamond"])
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert code == 3
    assert report["kind"] == "VerificationFailure"
    assert "unmet" in report["error"]
    assert "verdicts" not in report and "witness" not in report
    assert "VerificationFailure" in captured.err


def test_spectra_match_the_recorded_family():
    # recorded before the build stopped at the key set of the top SI
    # quotients; `pytest -m slow` checks every group, `decide` and the
    # enumerated models included
    changed = moved("spectra", groups=("catalog", "products", "sugihara(7)^2"))
    assert not changed, f"{len(changed)} spectra moved, the first at {changed[0]}"


@pytest.mark.slow
def test_every_spectrum_matches_the_recorded_family():
    changed = moved("spectra")
    assert not changed, f"{len(changed)} spectra moved, the first at {changed[0]}"


def test_quotient_is_fsi_iff_cone_join_irreducible(suite):
    # A/↑c is FSI exactly when c has one lower cover in the negative cone
    for algebra in suite:
        cone = algebra.below_e
        below = lambda a, c: a != c and algebra.leq(a, c)
        for c in cone:
            covers = [
                a for a in cone
                if below(a, c) and not any(below(a, b) and below(b, c) for b in cone)
            ]
            flt = generated_filter(algebra, [c])
            assert is_fsi(quotient(algebra, flt)[0]) == (len(covers) == 1), (algebra.name, c)


def test_spectrum_build_makes_no_isomorphism_search(monkeypatch):
    spec = spec_of(crystal(), c4())
    expected = fsi_spectrum_pairwise(spec)

    def refuse(*args):
        raise AssertionError("the spectrum build searched for an isomorphism")

    for name, module in list(sys.modules.items()):
        if name.startswith("srlkit") and hasattr(module, "find_isomorphism"):
            monkeypatch.setattr(module, "find_isomorphism", refuse)
    assert fsi_spectrum(spec).algebras == expected


def test_spectrum_closure_soundness(suite):
    # every FSI quotient of a subalgebra of a member is again a member
    for algebra in suite:
        if algebra.size > 4:
            continue
        spectrum = fsi_spectrum(spec_of(algebra))
        for member in spectrum.algebras:
            for mask in all_subuniverses(member):
                sub, _ = subalgebra(member, mask)
                for flt in all_deductive_filters(sub):
                    q, _ = quotient(sub, flt)
                    if is_fsi(q):
                        assert any(
                            find_isomorphism(q, m) is not None
                            for m in spectrum.algebras
                        )


def test_variety_depth_examples():
    assert variety_depth(spec_of(c4())) == 1
    assert variety_depth(spec_of(brouwerian_chain(4))) == 3
    assert variety_depth(spec_of(trivial())) == 0


def test_hypotheses_gate_examples():
    assert hypotheses_gate(spec_of(c4())).passed
    assert hypotheses_gate(spec_of(brouwerian_chain(4))).passed
    report = hypotheses_gate(spec_of(crystal()))
    assert not report.passed
    failing = [e for e in report.entries if not e.negatively_generated]
    assert [e.size for e in failing] == [5, 6]


def test_is_epic_improper_subalgebra():
    algebra = brouwerian_chain(3)
    assert is_epic_subalgebra(algebra, {0, 1, 2}, spec_of(algebra))


def test_is_epic_crystal_five_element_witness():
    algebra = crystal()
    assert is_epic_subalgebra(algebra, {0, 1, 2, 4, 5}, spec_of(algebra))
    assert is_epic_subalgebra(algebra, {0, 1, 3, 4, 5}, spec_of(algebra))
    # the reflection-copy inside the crystal is not epic: the two middle
    # elements can be swapped
    assert not is_epic_subalgebra(algebra, {0, 1, 4, 5}, spec_of(algebra))


def test_is_epic_three_chain_gap():
    algebra = brouwerian_chain(3)
    refutation = []
    assert not is_epic_subalgebra(
        algebra, {0, 2}, spec_of(algebra), refutation=refutation
    )
    codomain, first, second = refutation[0]
    assert first.mapping != second.mapping
    assert first.mapping[0] == second.mapping[0]
    assert first.mapping[2] == second.mapping[2]


def test_epic_refutations_match_the_pairwise_scan(catalog_algebras):
    # verdict and first separating triple on every subuniverse of every
    # catalog entry and of a relabelled copy
    rng = random.Random(20261018)
    triple = lambda found: None if found is None else (found[0].name, found[1].mapping, found[2].mapping)
    checked = 0
    for algebra in catalog_algebras:
        for copy in (algebra, relabel(algebra, rng)):
            spec = spec_of(copy)
            for mask in all_subuniverses(copy):
                refutation = []
                verdict = is_epic_subalgebra(copy, mask, spec, refutation=refutation)
                expected = epic_refutation_scan(copy, sorted(mask), fsi_spectrum(spec))
                assert verdict == (expected is None)
                assert triple(refutation[0] if refutation else None) == triple(expected)
                checked += 1
    assert checked > 2 * len(catalog_algebras)


def test_decide_es_positive_examples():
    assert decide_es(spec_of(c4())).surjective
    assert decide_es(spec_of(brouwerian_chain(4))).surjective
    assert decide_es(spec_of(sugihara(3))).surjective


def test_decide_es_crystal_negative_with_witness():
    decision = decide_es(spec_of(crystal()))
    assert not decision.surjective
    member, mask = decision.witness
    assert member.size == 6 and len(mask) == 5


def test_epi_analysis_four_chain_worked_example():
    algebra = brouwerian_chain(4)
    analysis = epi_analysis(algebra, {0, 2, 3})
    assert analysis.case == "nested"
    assert sorted(analysis.first_filter) == [1, 2, 3]
    assert sorted(analysis.second_filter) == [2, 3]
    assert analysis.first_witness == 1
    assert analysis.congruence.blocks == (0, 1, 2, 2)
    assert analysis.quotient.size == 3
    assert sorted(analysis.gap) == [analysis.quotient_map.mapping[1]]
    # the collision set contains the two filters in both orders
    pairs = {(tuple(sorted(x)), tuple(sorted(y))) for x, y in analysis.collisions}
    assert ((1, 2, 3), (2, 3)) in pairs and ((2, 3), (1, 2, 3)) in pairs


def test_epi_analysis_incomparable_case():
    # diamond with a stem above: 0 < 1,2 < 3 < 4(=e); the subalgebra {0, 4}
    # traces both middle prime filters to the same set
    meet = (
        (0, 0, 0, 0, 0),
        (0, 1, 0, 1, 1),
        (0, 0, 2, 2, 2),
        (0, 1, 2, 3, 3),
        (0, 1, 2, 3, 4),
    )
    join = tuple(
        tuple(
            next(
                u for u in range(5)
                if meet[a][u] == a and meet[b][u] == b
                and all(meet[a][v] != a or meet[b][v] != b or meet[u][v] == u for v in range(5))
            )
            for b in range(5)
        )
        for a in range(5)
    )
    from srlkit.core import residual_from_fusion, validate

    residual = residual_from_fusion(5, meet, meet)
    algebra = FiniteAlgebra.build(5, meet, join, meet, residual, 4)
    assert validate(algebra).ok
    analysis = epi_analysis(algebra, {0, 4})
    assert analysis.case == "incomparable"
    assert len(analysis.gap) == 2
    assert analysis.second_witness != algebra.e
    cert = refute_epic(algebra, {0, 4})
    assert verify_certificate(cert, {0, 4})


def test_epi_analysis_hypotheses_errors():
    algebra = brouwerian_chain(3)
    with pytest.raises(HypothesesNotMet, match="proper"):
        epi_analysis(algebra, {0, 1, 2})
    with pytest.raises(HypothesesNotMet, match="subalgebra"):
        epi_analysis(algebra, {0, 1})  # not closed: misses the identity
    square = direct_product(brouwerian_chain(2), brouwerian_chain(2))
    with pytest.raises(HypothesesNotMet, match="FSI"):
        epi_analysis(square, {0, 3})
    with pytest.raises(HypothesesNotMet, match="negatively generated"):
        epi_analysis(crystal(), {0, 1, 4, 5})


def test_epi_analysis_subalgebra_must_be_negatively_generated():
    # the five-element subalgebra of the crystal is not negatively generated
    algebra = crystal()
    with pytest.raises(HypothesesNotMet):
        epi_analysis(algebra, {0, 1, 2, 4, 5})


def test_separating_retraction_three_chain():
    algebra = brouwerian_chain(3)
    retraction, ident = separating_retraction(algebra, {0, 2}, 1)
    assert retraction.mapping == (0, 2, 2)
    assert ident.mapping == (0, 1, 2)


def test_separating_retraction_after_quotient():
    algebra = brouwerian_chain(4)
    analysis = epi_analysis(algebra, {0, 2, 3})
    quotient_algebra = analysis.quotient
    image = frozenset(analysis.embedding.mapping)
    pivot = analysis.quotient_map.mapping[analysis.first_witness]
    retraction, _ = separating_retraction(quotient_algebra, image, pivot)
    assert retraction.mapping[pivot] == quotient_algebra.e


def test_separating_retraction_rejects_member():
    algebra = brouwerian_chain(3)
    with pytest.raises(HypothesesNotMet):
        separating_retraction(algebra, {0, 1, 2}, 1)


@pytest.mark.parametrize(
    "algebra, members, element, message",
    [
        # brouwerian_chain(n) is the chain 0 < ... < n-1 with e = n-1
        (brouwerian_chain(3), {0, 1}, 1, "C is not a subalgebra"),
        (brouwerian_chain(3), {0, 2}, 3, "distinguished element out of range"),
        (brouwerian_chain(3), {0, 2}, -1, "distinguished element out of range"),
        (crystal(), {0, 1, 4, 5}, 2, "distinguished element is not strictly below the identity"),
        (brouwerian_chain(4), {0, 3}, 1, "distinguished element is not covered by the identity"),
        # sugihara(3) x crystal: (0, e) is covered by e = (1, e); the subalgebra
        # is the crystal's five-element one over sugihara(3)'s middle element
        (
            direct_product(sugihara(3), crystal()), {6, 7, 8, 10, 11}, 1,
            "C is not generated by its negative cone",
        ),
        (
            brouwerian_chain(4), {0, 3}, 2,
            "C's cone plus the distinguished element does not generate",
        ),
        # True used to stand for the element 1
        (brouwerian_chain(3), {0, 2}, True, "distinguished element out of range"),
        (brouwerian_chain(3), {0, 2}, 1.0, "distinguished element out of range"),
    ],
)
def test_separating_retraction_refusals(algebra, members, element, message):
    # each hypothesis, checked in order, names itself
    with pytest.raises(HypothesesNotMet) as exc:
        separating_retraction(algebra, members, element)
    assert str(exc.value) == message


def test_refute_epic_four_chain():
    algebra = brouwerian_chain(4)
    cert = refute_epic(algebra, {0, 2, 3})
    assert cert.target.size == 3
    assert verify_certificate(cert, {0, 2, 3})
    assert cert.first_map.mapping[cert.witness] != cert.second_map.mapping[cert.witness]


def test_refute_epic_three_chain():
    algebra = brouwerian_chain(3)
    cert = refute_epic(algebra, {0, 2})
    assert verify_certificate(cert, {0, 2})
    # consistent with the epicity scan
    assert not is_epic_subalgebra(algebra, {0, 2}, spec_of(algebra))


def test_refute_epic_cross_validates_on_suite(suite):
    for algebra in suite:
        if algebra.size > 5 or not (is_fsi(algebra) and is_negatively_generated(algebra)):
            continue
        spec = spec_of(algebra)
        spectrum = fsi_spectrum(spec)
        for mask in all_subuniverses(algebra):
            if len(mask) == algebra.size:
                continue
            sub, _ = subalgebra(algebra, mask)
            if not is_negatively_generated(sub):
                continue
            cert = refute_epic(algebra, mask)
            assert verify_certificate(cert, mask)
            assert not is_epic_subalgebra(algebra, mask, spec)


def _tables(algebra):
    return (algebra.meet, algebra.join, algebra.fusion, algebra.residual, algebra.neg)


def _analysis_answer(analysis):
    return (
        analysis.case,
        analysis.collisions,
        analysis.first_filter,
        analysis.second_filter,
        analysis.gap,
        analysis.congruence.blocks,
        (analysis.first_witness, analysis.second_witness),
        _tables(analysis.quotient),
        _tables(analysis.sub_quotient),
        (analysis.quotient_map.mapping, analysis.embedding.mapping),
    )


def _refutation_answer(algebra, mask, analyse=False):
    """What `refute_epic` answers on the pair, or what `epi_analysis`
    answers when `analyse` is set; the refusal when hypotheses fail."""
    try:
        if analyse:
            return _analysis_answer(epi_analysis(algebra, mask))
        cert = refute_epic(algebra, mask)
    except HypothesesNotMet as exc:
        return str(exc)
    maps = (cert.first_map.mapping, cert.second_map.mapping, cert.witness)
    return _analysis_answer(cert.analysis), _tables(cert.target), maps


def _plain(value):
    """`value` with frozensets as sorted lists and tuples as lists, for JSON."""
    if isinstance(value, frozenset):
        return sorted(_plain(v) for v in value)
    if isinstance(value, (tuple, list)):
        return [_plain(v) for v in value]
    return value


def _suite_certificates(algebras):
    """`refute_epic` on every (algebra, proper subuniverse) pair that it
    accepts, in list and bitmask order, as (algebra, mask, certificate)."""
    for algebra in algebras:
        for mask in all_subuniverses(algebra):
            if len(mask) == algebra.size:
                continue
            try:
                yield algebra, mask, refute_epic(algebra, mask)
            except HypothesesNotMet:
                continue


def test_certificates_match_the_recorded_digest(suite):
    # recorded before the kernel side was kept per (algebra, kernel)
    lines = [
        json.dumps(_plain((
            cert.first_map.mapping, cert.witness, cert.second_map.mapping,
            _analysis_answer(cert.analysis),
        )))
        for _, _, cert in _suite_certificates(suite)
    ]
    assert len(lines) == 186
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == (
        "934e0e4101fcf96e426b4df4991731e0c8b35bbc7f4fdae26184e1a6138f9723"
    )


def _certificate_answer(cert):
    maps = (cert.first_map.mapping, cert.second_map.mapping, cert.witness)
    analysis = cert.analysis
    return maps, _tables(cert.target), _analysis_answer(analysis), analysis.sub_quotient_map.mapping


def test_certificates_match_the_recorded_family():
    # recorded before the up-set algebras were kept per parent
    changed = moved("certificates", sizes=(("brouwerian", 7), ("srl", 5), ("sirl", 5)))
    assert not changed, f"{len(changed)} certificates moved, the first at {changed[0]}"


@pytest.mark.slow
def test_every_certificate_matches_the_recorded_family():
    changed = moved("certificates")
    assert not changed, f"{len(changed)} certificates moved, the first at {changed[0]}"


def test_refute_epic_matches_the_public_rebuild(suite):
    # θ, A/θ and the cone identification are kept per (algebra, kernel), and
    # the retraction skips the hypotheses `epi_analysis` has checked; the
    # public entries rebuild each certificate and check every hypothesis
    rng = random.Random(1318)
    images = list(suite) + [relabel(algebra, rng) for algebra in suite]
    count = 0
    for algebra, mask, cert in _suite_certificates(images):
        assert _certificate_answer(cert) == _certificate_answer(refute_epic_public(algebra, mask))
        count += 1
    assert count == 372


def test_epi_answers_do_not_depend_on_earlier_calls(suite):
    # each call reuses what the previous call derived from the same algebra
    # object; the answers must match calls on a fresh copy when the calls
    # on one algebra are consecutive, interleaved with another algebra's,
    # and after a refusal on a third
    rng = random.Random(1303)
    pairs = [
        (image, mask)
        for algebra in suite
        for image in (algebra, relabel(algebra, rng))
        for mask in all_subuniverses(image)
        if len(mask) < image.size
    ]
    refusing = (crystal(), {0, 1, 4, 5})
    refused = 0
    for k, (algebra, mask) in enumerate(pairs):
        fresh = _refutation_answer(dataclasses.replace(algebra), mask)
        analysed = fresh if isinstance(fresh, str) else fresh[0]
        refused += isinstance(fresh, str)
        assert _refutation_answer(algebra, mask, analyse=True) == analysed
        with pytest.raises(HypothesesNotMet, match="A is not negatively generated"):
            epi_analysis(*refusing)
        assert _refutation_answer(algebra, mask) == fresh
        _refutation_answer(*pairs[k - 1])
        assert _refutation_answer(algebra, mask, analyse=True) == analysed
    assert (len(pairs), refused) == (950, 578)


def test_epi_analysis_gives_each_parent_its_own_verdict():
    # the FSI and negative-generation verdicts are kept with the latest
    # parent: a non-FSI algebra, an FSI one, then the non-FSI one again
    diamond, chain = brouwerian_diamond(), brouwerian_chain(3)
    fresh = _refutation_answer(brouwerian_chain(3), {0, 2}, analyse=True)
    assert not isinstance(fresh, str)
    for _ in range(2):
        assert _refutation_answer(diamond, {0, 3}, analyse=True) == "A is not FSI"
        assert _refutation_answer(diamond, {0, 3}, analyse=True) == "A is not FSI"
        assert _refutation_answer(chain, {0, 2}, analyse=True) == fresh
        assert _refutation_answer(crystal(), {0, 1, 4, 5}) == "A is not negatively generated"
    # the B-side checks still run on every call
    assert _refutation_answer(chain, {0, 1}) == "B is not a subalgebra"
    assert _refutation_answer(chain, {0, 1, 2}) == "B is not proper"
    assert _refutation_answer(chain, {0, 2}, analyse=True) == fresh


def test_kept_up_set_algebras_match_fresh_builds(suite, monkeypatch):
    # each parent side keeps the up-set algebra of every e-subspace poset it
    # meets; on a sweep that alternates parents, each one taken from the
    # store equals a fresh build, and a move to another algebra empties it
    reused = []
    build = varieties._e_subspace

    def checked(algebra, least, space, flt, up_sets, *message):
        kept = dict(up_sets)
        subspace = build(algebra, least, space, flt, up_sets, *message)
        if subspace.poset in kept:
            target, index = kept[subspace.poset]
            assert (target, index) == duality._up_set_algebra(subspace.poset, "pointed")
            assert subspace.iso.target is target
            reused.append(subspace.poset)
        return subspace

    monkeypatch.setattr(varieties, "_e_subspace", checked)
    rng = random.Random(2503)
    parents = [
        image for algebra in suite if algebra.size == 6 and is_fsi(algebra)
        for image in (algebra, relabel(algebra, rng))
    ]
    # each parent's pairs in runs of four, the runs of all parents in turn
    masks = [[m for m in all_subuniverses(a) if len(m) < a.size] for a in parents]
    runs = [[(a, ms[k:k + 4]) for k in range(0, len(ms), 4)] for a, ms in zip(parents, masks)]
    calls = 0
    for algebra, run in filter(None, itertools.chain(*itertools.zip_longest(*runs))):
        for mask in run:
            try:
                refute_epic(algebra, mask)
            except HypothesesNotMet:
                continue
            calls += 1
    assert (len(parents), calls, len(reused)) == (8, 130, 132)

    assert varieties._last_parent[1].up_sets
    with pytest.raises(HypothesesNotMet, match="A is not negatively generated"):
        epi_analysis(crystal(), {0, 1, 4, 5})
    assert varieties._last_parent[1].up_sets == {}


def test_epi_analysis_keeps_no_algebra_but_the_latest():
    first, second = brouwerian_chain(4), brouwerian_chain(3)
    refute_epic(first, {0, 2, 3})
    alive = weakref.ref(first)
    del first
    refute_epic(second, {0, 2})
    gc.collect()
    assert alive() is None


def test_variety_spec_rejects_mixed_signatures():
    from srlkit.errors import WrongSignature

    with pytest.raises(WrongSignature):
        VarietySpec((c4(), brouwerian_chain(2)))
    with pytest.raises(ValueError):
        VarietySpec(())


def test_bounded_pipeline_heyting_chain():
    # the surjectivity machinery runs unchanged over bounded signatures
    from srlkit.catalog import heyting_chain

    algebra = heyting_chain(4)
    analysis = epi_analysis(algebra, {0, 2, 3})
    assert analysis.case == "nested"
    assert analysis.quotient.bottom is not None
    cert = refute_epic(algebra, {0, 2, 3})
    assert verify_certificate(cert, {0, 2, 3})
    spec = spec_of(algebra)
    assert not is_epic_subalgebra(algebra, {0, 2, 3}, spec)
    assert hypotheses_gate(spec).passed
    assert decide_es(spec).surjective


def test_bounded_pipeline_sweeps_all_heyting_subalgebras():
    from srlkit.catalog import heyting_chain

    for n in (2, 3, 4, 5):
        algebra = heyting_chain(n)
        spec = spec_of(algebra)
        spectrum = fsi_spectrum(spec)
        for mask in all_subuniverses(algebra):
            if len(mask) == algebra.size:
                continue
            cert = refute_epic(algebra, mask)
            assert verify_certificate(cert, mask)
            assert not is_epic_subalgebra(algebra, mask, spec)


def test_bounded_involutive_variety():
    # a bounded De Morgan monoid: mark the least element of the four-element
    # catalog algebra
    from dataclasses import replace

    from srlkit.core import Signature, validate

    bounded = replace(
        c4(), bottom=0, signature=Signature(True, True), name="bounded_c4"
    )
    assert validate(bounded).ok
    spec = spec_of(bounded)
    assert hypotheses_gate(spec).passed
    assert decide_es(spec).surjective


def test_spectrum_is_built_once_per_spec(monkeypatch):
    built = []
    real = varieties.quotient
    monkeypatch.setattr(varieties, "quotient", lambda *args: built.append(1) or real(*args))
    spec = spec_of(crystal())
    gate = hypotheses_gate(spec)
    one_build = len(built)
    decision = decide_es(spec)
    assert one_build > 0 and len(built) == one_build
    assert fsi_spectrum(spec).algebras is fsi_spectrum(spec).algebras is decision.spectrum.algebras
    assert fsi_spectrum(spec) == decision.spectrum
    assert variety_depth(spec) == max(entry.depth for entry in gate.entries)
    least = all_subuniverses(crystal())[0]
    assert not is_epic_subalgebra(crystal(), least, spec)
    assert len(built) == one_build
    assert len(gate.entries) == len(decision.spectrum.algebras)
    # a new spec builds anew
    assert fsi_spectrum(spec_of(crystal())).algebras is not decision.spectrum.algebras
    assert len(built) == 2 * one_build


def test_decide_es_matches_per_mask_oracle(suite):
    # maximal subuniverses first, shared hom sets: same verdict and witness
    # as testing every proper subuniverse in bitmask order
    rng = random.Random(20260418)
    outcome = lambda d: (d.surjective, d.witness and (d.witness[0].name, d.witness[1]))
    for algebra in suite:
        for generator in (algebra, relabel(algebra, rng)):
            spec = spec_of(generator)
            assert outcome(decide_es(spec)) == outcome(decide_es_per_mask(spec))


@pytest.mark.parametrize("algebra", [crystal(), brouwerian_chain(6)], ids=["crystal", "chain6"])
def test_decide_es_searches_each_hom_set_once(monkeypatch, algebra):
    searched, closure_checks = [], []
    real_homs, real_check = varieties.homomorphisms, varieties.is_subuniverse
    monkeypatch.setattr(
        varieties,
        "homomorphisms",
        lambda a, b, *args: searched.append((id(a), id(b))) or real_homs(a, b, *args),
    )
    monkeypatch.setattr(
        varieties, "is_subuniverse", lambda *args: closure_checks.append(1) or real_check(*args)
    )
    decision = decide_es(spec_of(algebra))
    assert searched
    assert len(searched) == len(set(searched))  # one search per (member, codomain)
    members = {id(m) for m in decision.spectrum.algebras}
    assert all(a in members and b in members for a, b in searched)
    assert not closure_checks


def test_first_epic_subuniverse_does_not_depend_on_codomain_order(suite):
    # a mask is epic only when no codomain separates it, so the order in
    # which the codomains are tried cannot change the first epic mask.
    # `_first_epic_subuniverse` tries the member first whatever the order
    # given, so a member-first order is the spectrum order's own search;
    # reversing the others makes a different search once there are two.
    # The members are relabelled themselves, sparing a second spectrum build
    rng = random.Random(20261020)
    for algebra in suite:
        given = fsi_spectrum(spec_of(algebra)).algebras
        if len(given) < 3:
            continue
        for members in (given, tuple(relabel(m, rng) for m in given)):
            for member in members:
                first = varieties._first_epic_subuniverse(member, members)
                reversed_ = varieties._first_epic_subuniverse(member, members[::-1])
                assert first == reversed_, (algebra.name, member.name)


@pytest.mark.parametrize(
    "algebra, searches", [(brouwerian_chain(6), 5), (sugihara(7), 3)], ids=["chain6", "sugihara7"]
)
def test_decide_es_separates_by_maps_into_the_member_first(monkeypatch, algebra, searches):
    # every proper subuniverse of these chains is separated by two
    # endomorphisms, so each member's own hom set is the only one searched
    # (in spectrum order, 15 and 6 hom sets would be searched)
    searched = []
    real_homs = varieties.homomorphisms
    monkeypatch.setattr(
        varieties,
        "homomorphisms",
        lambda a, b, *args: searched.append((a, b)) or real_homs(a, b, *args),
    )
    decision = decide_es(spec_of(algebra))
    assert decision.surjective
    assert len(searched) == searches == len(decision.spectrum.algebras)
    assert all(a is b for a, b in searched)


def test_queries_are_relabelling_invariant(suite):
    # every query must give the same answer after the carrier is relabelled;
    # hom sets must transport along the permutation
    rng = random.Random(20190216)
    targets = [c4(), crystal(), sugihara(3), brouwerian_chain(3)]
    for algebra in suite:
        relabelled, perm = relabelling(algebra, rng)
        assert validate(relabelled).ok == validate(algebra).ok
        assert classify(relabelled) == classify(algebra)
        assert is_fsi(relabelled) == is_fsi(algebra)
        assert depth(relabelled) == depth(algebra)
        assert canonical_form(relabelled) == canonical_form(algebra)
        assert len(all_deductive_filters(relabelled)) == len(all_deductive_filters(algebra))
        assert len(all_congruences(relabelled)) == len(all_congruences(algebra))
        spec, spec_r = spec_of(algebra), spec_of(relabelled)
        assert len(fsi_spectrum(spec_r).algebras) == len(fsi_spectrum(spec).algebras)
        assert decide_es(spec_r).surjective == decide_es(spec).surjective
        for target in targets:
            if target.signature != algebra.signature:
                continue
            moved = {
                tuple(h.mapping[perm[a]] for a in algebra.elements)
                for h in homomorphisms(relabelled, target)
            }
            assert moved == {h.mapping for h in homomorphisms(algebra, target)}
