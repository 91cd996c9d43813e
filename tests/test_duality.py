import dataclasses
import hashlib
import random

import pytest
from oracles import (
    check_poset,
    is_up_set,
    poset_from_pairs,
    posets_with_top,
    relabelling,
    up_set_algebra_by_sets,
)

from srlkit.catalog import (
    brouwerian_chain,
    brouwerian_diamond,
    c4,
    heyting_chain,
    trivial,
)
from srlkit.cones import all_subuniverses
from srlkit.core import (
    Homomorphism,
    brouwerian_reduct,
    classify,
    find_isomorphism,
    homomorphisms,
    subalgebra,
    validate,
)
from srlkit import duality
from srlkit.duality import (
    PointedPoset,
    _point_depths,
    _up_set_algebra,
    all_up_sets,
    canonical_iso,
    depth,
    depth_of_point,
    depth_of_poset,
    dual_algebra,
    dual_space,
    dualize_morphism,
    e_subspace,
    is_esakia_morphism,
    poset_round_trip,
)
from srlkit.documents import save
from srlkit.enumeration import enumerate_models, enumerate_posets
from srlkit.errors import NoTop, NotAFilter, NotBrouwerian, SrlkitError, VerificationFailure
from srlkit.filters import (
    DeductiveFilter,
    all_deductive_filters,
    deductive_filter,
    prime_deductive_filters,
    quotient,
)
from srlkit.varieties import refute_epic


def psets_with_top(n):
    out = []
    for leq in posets_with_top(n):
        size = len(leq)
        top = next(t for t in range(size) if all(leq[a][t] for a in range(size)))
        out.append(PointedPoset(size, leq, top))
    return out


def test_dual_space_two_chain():
    space = dual_space(brouwerian_chain(2))
    assert space.size == 2 and space.top is not None
    check_poset(space)


def test_dual_space_one_element_proper_is_empty():
    space = dual_space(heyting_chain(1), "proper")
    assert space.size == 0 and space.top is None


def test_dual_space_diamond():
    space = dual_space(brouwerian_diamond())
    assert space.size == 3
    below_top = [x for x in range(3) if x != space.top]
    a, b = below_top
    assert not space.leq[a][b] and not space.leq[b][a]
    assert space.leq[a][space.top] and space.leq[b][space.top]


def test_dual_space_rejects_wrong_class():
    with pytest.raises(NotBrouwerian):
        dual_space(c4())
    with pytest.raises(NotBrouwerian):
        dual_space(brouwerian_chain(3), "proper")


def test_dual_algebra_point():
    point = poset_from_pairs(1, [], top=0)
    algebra = dual_algebra(point)
    assert algebra.size == 1 and validate(algebra).ok


def test_dual_algebra_two_chain():
    chain = poset_from_pairs(2, [(0, 1)], top=1)
    algebra = dual_algebra(chain)
    assert find_isomorphism(algebra, brouwerian_chain(2)) is not None


def test_dual_algebra_antichain_plus_top_proper():
    poset = poset_from_pairs(3, [(1, 0), (2, 0)], top=0)
    algebra = dual_algebra(poset, "proper")
    assert algebra.size == 5  # empty, {top}, two slanted ones, everything
    assert validate(algebra).ok and classify(algebra).heyting


def test_dual_algebra_needs_top_in_pointed_mode():
    with pytest.raises(NoTop):
        dual_algebra(poset_from_pairs(2, []), "pointed")


def test_canonical_iso_examples():
    for algebra in (brouwerian_chain(2), brouwerian_diamond(), trivial()):
        iso = canonical_iso(algebra)
        assert iso.is_bijective
    # the diamond has four elements and four up-sets of its 3-point dual
    assert dual_algebra(dual_space(brouwerian_diamond())).size == 4


def test_canonical_iso_heyting_proper(suite):
    for algebra in suite:
        if classify(algebra).heyting:
            canonical_iso(algebra, "proper")


def test_round_trip_brouwerian_size_8():
    from srlkit.enumeration import enumerate_models

    for algebra in enumerate_models("brouwerian", 8, bound=8):
        canonical_iso(algebra)  # verified internally, raises on failure


def test_poset_round_trip_size_6():
    for poset in psets_with_top(6):
        poset_round_trip(poset)


def test_dualize_identity():
    algebra = brouwerian_chain(3)
    ident = homomorphisms(algebra, algebra, partial={0: 0, 1: 1, 2: 2})[0]
    m = dualize_morphism(ident)
    assert m.mapping == tuple(range(3))


def test_dualize_inclusion_collides():
    algebra = brouwerian_chain(4)
    sub, inclusion = subalgebra(algebra, [0, 2, 3])
    m = dualize_morphism(inclusion)
    assert len(set(m.mapping)) < len(m.mapping)  # two prime filters trace equally


def test_dual_surjective_iff_injective(suite):
    # quotient covers dualize to injections; inclusions dualize to surjections
    from srlkit.cones import all_subuniverses

    for algebra in suite:
        if algebra.size > 5 or not classify(algebra).brouwerian or algebra.bottom is not None:
            continue
        for flt in all_deductive_filters(algebra):
            q, cover = quotient(algebra, flt)
            m = dualize_morphism(cover)
            assert len(set(m.mapping)) == m.source.size  # injective
            # image is an up-set of the codomain
            image = frozenset(m.mapping)
            assert is_up_set(m.target, image)
        for mask in all_subuniverses(algebra):
            sub, inclusion = subalgebra(algebra, mask)
            m = dualize_morphism(inclusion)
            assert set(m.mapping) == set(range(m.target.size))  # surjective


def test_esakia_condition_on_dualized_morphisms(suite):
    for algebra in suite:
        if algebra.size > 4 or not classify(algebra).brouwerian or algebra.bottom is not None:
            continue
        for codomain in (brouwerian_chain(2), brouwerian_chain(3)):
            for hom in homomorphisms(algebra, codomain):
                m = dualize_morphism(hom)
                assert is_esakia_morphism(m.source, m.target, m.mapping)


def test_is_esakia_morphism_rejects_non_bounded_maps():
    # isotone but the image's up-set is not covered: 2-chain into 3-chain
    # bottom, skipping the middle
    two = poset_from_pairs(2, [(0, 1)], top=1)
    three = poset_from_pairs(3, [(0, 1), (0, 2), (1, 2)], top=2)
    assert not is_esakia_morphism(two, three, (0, 2))
    assert is_esakia_morphism(two, three, (1, 2))


@pytest.mark.parametrize("mapping", [(0,), (0, 1, 7), (0, 1, -1), (0, True, 2), (0, "1", 2)])
def test_is_esakia_morphism_is_false_on_a_non_map(mapping):
    # a wrong length or a non-point image used to raise IndexError or TypeError
    space = dual_space(brouwerian_chain(3))
    assert not is_esakia_morphism(space, space, mapping)
    assert is_esakia_morphism(space, space, tuple(range(space.size)))


def test_e_subspace_least_filter_is_whole_space():
    algebra = brouwerian_chain(4)
    es = e_subspace(algebra, deductive_filter(algebra, {3}))
    assert es.poset.size == dual_space(algebra).size
    assert es.quotient.size == 4


def test_e_subspace_upper_filter():
    algebra = brouwerian_chain(4)
    es = e_subspace(algebra, deductive_filter(algebra, {2, 3}))
    assert es.poset.size == 3 and es.quotient.size == 3


def test_e_subspace_improper_filter_is_point():
    algebra = brouwerian_chain(4)
    es = e_subspace(algebra, deductive_filter(algebra, set(range(4))))
    assert es.poset.size == 1 and es.quotient.size == 1


def test_e_subspace_tower_square(suite):
    for algebra in suite:
        if algebra.size > 5 or not classify(algebra).brouwerian or algebra.bottom is not None:
            continue
        filters = all_deductive_filters(algebra)
        for f in filters:
            for g in filters:
                if f.members <= g.members:
                    e_subspace(algebra, f, chain_filter=g)  # raises on failure


def test_tower_square_rejects_a_corrupted_upper_subspace(monkeypatch):
    # one point set of the upper e-subspace, rewired: the tower square fails
    # through `e_subspace` and, with the retract square's message, `_tower`
    algebra = brouwerian_diamond()
    lower_filter, upper_filter = deductive_filter(algebra, {3}), deductive_filter(algebra, {1, 3})
    lower, upper = e_subspace(algebra, lower_filter), e_subspace(algebra, upper_filter)
    assert lower.points != upper.points and len(upper.points) > 1
    arrow = duality._tower(lower, upper, "inner subspace square does not commute")
    assert [arrow[c] for c in lower.quotient_map.mapping] == list(upper.quotient_map.mapping)

    sets = list(upper.point_sets)
    sets[upper.quotient.e] ^= {upper.points[0]}
    corrupted = dataclasses.replace(upper, point_sets=tuple(sets))
    with pytest.raises(VerificationFailure, match="^inner subspace square does not commute$"):
        duality._tower(lower, corrupted, "inner subspace square does not commute")

    build = duality._e_subspace
    monkeypatch.setattr(
        duality, "_e_subspace",
        lambda a, least, space, flt, *message: (
            corrupted if flt == upper_filter else build(a, least, space, flt, *message)
        ),
    )
    with pytest.raises(VerificationFailure, match="^tower square does not commute$"):
        e_subspace(algebra, lower_filter, chain_filter=upper_filter)


def test_e_subspace_rejects_non_filter():
    algebra = brouwerian_chain(4)
    with pytest.raises(NotAFilter):
        e_subspace(algebra, DeductiveFilter(algebra, frozenset({0})))
    with pytest.raises(NotAFilter):
        # an extension chain must actually extend
        e_subspace(
            algebra,
            deductive_filter(algebra, {1, 2, 3}),
            chain_filter=deductive_filter(algebra, {3}),
        )


def test_e_subspace_checks_each_filter_once(monkeypatch):
    # the chain filter's check gives the tower message and is not repeated
    # when the upper subspace is built; the lower subspace comes first
    algebra = brouwerian_diamond()
    checked = []
    check = duality.is_deductive_filter
    monkeypatch.setattr(
        duality, "is_deductive_filter",
        lambda a, members: checked.append(sorted(members)) or check(a, members),
    )
    e_subspace(
        algebra, deductive_filter(algebra, {3}), chain_filter=deductive_filter(algebra, {1, 3})
    )
    assert checked == [[3], [1, 3]]

    checked.clear()
    lower = deductive_filter(algebra, {1, 3})
    not_a_filter = DeductiveFilter(algebra, frozenset({0}))
    with pytest.raises(NotAFilter, match="^tower verification needs a deductive filter$"):
        e_subspace(algebra, lower, chain_filter=not_a_filter)  # neither a filter nor above
    assert checked == [[1, 3], [0]]
    with pytest.raises(NotAFilter, match="^e_subspace needs a deductive filter$"):
        e_subspace(algebra, not_a_filter, chain_filter=lower)
    with pytest.raises(NotAFilter, match="^tower verification needs a filter extending the first$"):
        e_subspace(algebra, lower, chain_filter=deductive_filter(algebra, {3}))


def test_depth_point_of_top_is_zero():
    for poset in psets_with_top(4):
        assert depth_of_point(poset, poset.top) == 0


@pytest.mark.parametrize("point", [-1, 4, True, 1.0, "1"])
def test_depth_of_point_rejects_points_outside_the_poset(point):
    # -1 used to read the last point's depth, True point 1's, and 4 an
    # IndexError
    poset = dual_space(brouwerian_chain(4))
    for ask in (depth_of_point, depth):
        with pytest.raises(ValueError, match=rf"0\.\.3, got {point!r}"):
            ask(poset, point)
    assert [depth(poset, x) for x in range(poset.size)] == [0, 1, 2, 3]


@pytest.mark.parametrize("point", [0, 99, "x"])
def test_depth_of_an_algebra_rejects_a_point(point):
    # the point used to be ignored, giving the algebra's depth 3
    with pytest.raises(ValueError, match=rf"got {point!r}$"):
        depth(brouwerian_chain(4), point)


def test_depth_examples():
    assert depth(c4()) == 1
    for n in (1, 2, 4, 6):
        assert depth(brouwerian_chain(n)) == n - 1
    assert depth(trivial()) == 0
    assert depth(brouwerian_diamond()) == 1


def test_depth_heyting_matches_reduct(suite):
    # bounded algebras take their depth from the unbounded reduct; the
    # proper-mode dual (no top) counts chains by points and agrees
    for algebra in suite:
        if not classify(algebra).heyting:
            continue
        reduct = brouwerian_reduct(algebra)
        pointed = depth_of_poset(dual_space(reduct, "pointed"))
        proper = depth_of_poset(dual_space(algebra, "proper"))
        assert depth(algebra) == pointed == proper
        # the pointed space counted by points exceeds the pointed depth by 1
        space = dual_space(reduct, "pointed")
        as_unpointed = PointedPoset(space.size, space.leq, None)
        assert depth_of_poset(as_unpointed) == pointed + 1


def test_depth_antitone_along_quotients(suite):
    for algebra in suite:
        if algebra.size > 5:
            continue
        for flt in all_deductive_filters(algebra):
            q, _ = quotient(algebra, flt)
            assert depth(q) <= depth(algebra)


def test_enumeration_closed_under_duality(brouwerian6):
    for algebra in brouwerian6:
        double = dual_algebra(dual_space(algebra))
        assert find_isomorphism(algebra, double) is not None


def test_up_sets_deterministic():
    poset = poset_from_pairs(3, [(1, 0), (2, 0)], top=0)
    ups = all_up_sets(poset, include_empty=True)
    assert ups[0] == frozenset()
    assert ups == sorted(ups, key=lambda s: sum(1 << x for x in s))


def test_up_set_algebra_matches_the_set_oracle(suite):
    # every poset with at most 6 points in proper mode, every one with a top
    # in pointed mode, and the suite's dual spaces as given and relabelled:
    # equal algebras and equal index dicts
    cases = [
        (PointedPoset(n, leq), "proper") for n in range(7) for leq in enumerate_posets(n)
    ]
    cases += [(poset, "pointed") for n in range(1, 7) for poset in psets_with_top(n)]
    rng = random.Random(1404)
    for algebra in suite:
        flags = classify(algebra)
        if flags.brouwerian:
            mode = "proper" if flags.heyting else "pointed"
            for image in (algebra, relabelling(algebra, rng)[0]):
                cases.append((dual_space(image, mode), mode))
    for poset, mode in cases:
        fast, index = _up_set_algebra(poset, mode)
        slow, slow_index = up_set_algebra_by_sets(poset, mode)
        assert fast == slow and index == slow_index, (poset, mode)
        assert list(index) == list(slow_index)
    assert len(cases) == 406 + 88 + 2 * 28  # posets, posets with a top, suite spaces


def test_dualize_morphism_proper_mode():
    algebra = heyting_chain(3)
    q, cover = quotient(algebra, deductive_filter(algebra, {1, 2}))
    m = dualize_morphism(cover, "proper")
    assert is_esakia_morphism(m.source, m.target, m.mapping, pointed=False)
    assert len(set(m.mapping)) == m.source.size  # dual of a surjection embeds


def test_e_subspace_on_bounded_input_requires_reduct():
    with pytest.raises(NotBrouwerian):
        e_subspace(heyting_chain(3), deductive_filter(heyting_chain(3), {2}))
    reduct = brouwerian_reduct(heyting_chain(3))
    es = e_subspace(reduct, deductive_filter(reduct, {1, 2}))
    assert es.quotient.size == 2


def test_duality_is_relabelling_invariant(suite):
    # depth, the dual space's depths, the prime count and both round trips
    # must not depend on how the carrier is labelled
    rng = random.Random(20190214)
    for algebra in suite:
        flags = classify(algebra)
        if not flags.brouwerian:
            continue
        mode = "proper" if flags.heyting else "pointed"
        relabelled, perm = relabelling(algebra, rng)
        assert depth(relabelled) == depth(algebra)
        assert sorted(_point_depths(dual_space(relabelled, mode))) == sorted(
            _point_depths(dual_space(algebra, mode))
        )
        assert len(prime_deductive_filters(relabelled, mode)) == len(
            prime_deductive_filters(algebra, mode)
        )
        assert canonical_iso(relabelled, mode).is_bijective
        assert canonical_iso(algebra, mode).is_bijective
        dual = dualize_morphism(Homomorphism(algebra, relabelled, perm), mode)
        assert sorted(dual.mapping) == list(range(dual.target.size))


def test_mode_checks_agree_with_classify(suite):
    for algebra in suite:
        flags = classify(algebra)
        for mode, member in (("pointed", flags.brouwerian), ("proper", flags.heyting)):
            try:
                dual_space(algebra, mode)
                refused = False
            except NotBrouwerian:
                refused = True
            assert refused == (not member), (algebra.name, mode)
        try:
            e_subspace(algebra, all_deductive_filters(algebra)[0])
            wants_reduct = False
        except NotBrouwerian as exc:
            wants_reduct = "pass the unbounded reduct" in str(exc)
        assert wants_reduct == flags.heyting, algebra.name


def _duality_lines(srl5, sirl5):
    """One line per duality answer: `dual_space` in both modes, the
    `canonical_iso` mappings, every filter's `e_subspace`, and `refute_epic`
    on every proper subuniverse of the S[I]RLs to size 5, each as its result
    or as its exception's type and message."""

    def answer(ask):
        try:
            return repr(ask())
        except SrlkitError as exc:
            return f"{type(exc).__name__}: {exc}"

    def subspace(algebra, flt):
        es = e_subspace(algebra, flt)
        return es.points, es.poset, [sorted(s) for s in es.point_sets], es.iso.mapping

    def certificate(algebra, mask):
        cert = refute_epic(algebra, mask)
        return save(cert.target), cert.first_map.mapping, cert.second_map.mapping, cert.witness

    heyting = [heyting_chain(n) for n in (2, 3, 4, 5)]
    for algebra in list(enumerate_models("brouwerian", 8, bound=8)) + heyting:
        for mode in ("pointed", "proper"):
            yield answer(lambda: dual_space(algebra, mode))
            yield answer(lambda: canonical_iso(algebra, mode).mapping)
        reduct = brouwerian_reduct(algebra)
        for flt in all_deductive_filters(reduct):
            yield answer(lambda: subspace(reduct, flt))
    for algebra in list(srl5) + list(sirl5):
        for mask in all_subuniverses(algebra)[:-1]:  # the carrier sorts last
            yield answer(lambda: certificate(algebra, mask))


def test_duality_answers_match_the_recorded_digest(srl5, sirl5):
    # recorded from the duality that selected its points with
    # `prime_deductive_filters` and ordered them by filter inclusion.  It
    # refused proper mode to a Brouwerian algebra without a bottom with
    # NotBrouwerian; the subclass NoBottom now names the missing bound.
    # Those 72 lines are read back as recorded, so every byte of the rest
    # is still checked
    lines = list(_duality_lines(srl5, sirl5))
    no_bottom = (
        "NoBottom: proper-mode duality needs a designated bottom; "
        "this Brouwerian algebra has none"
    )
    assert lines.count(no_bottom) == 72
    recorded = "NotBrouwerian: proper-mode duality needs a Heyting algebra"
    lines = [recorded if line == no_bottom else line for line in lines]
    assert len(lines) == 718
    assert sum(line.startswith("('{") for line in lines) == 69  # certificates
    assert sum(line.startswith("HypothesesNotMet") for line in lines) == 240
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == (
        "7ae3e766832523758ac67b6240f2a2c972cbb2f8e7c65430dce27b0299999708"
    )
