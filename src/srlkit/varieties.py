"""FSI spectra of finitely generated varieties, epicity testing, the
epimorphism-surjectivity decision, and the mechanized epi-refutation
pipeline.

For finitely many finite generators every ultraproduct is isomorphic to a
factor, so the FSI members of the generated variety are, up to isomorphism,
exactly the FSI quotients of subalgebras of generators; and two
homomorphisms into any member stay distinct after projecting onto some
subdirectly irreducible (hence FSI) factor, so epicity only needs checking
against the spectrum.  `_refutation` makes that check for both
`is_epic_subalgebra` and `decide_es`.

The spectrum build rests on two more facts.

- Isomorphic subalgebras have isomorphic quotients.  An isomorphism
  h: B -> B' carries each filter ↑c of B onto the filter ↑h(c) of B', and
  the congruences they determine correspond under h, so h induces
  B/↑c ≅ B'/↑h(c).  Only the first subalgebra of each isomorphism type needs
  its quotients taken, so each subuniverse is keyed first, in place on the
  generator's own tables by `enumeration._subuniverse_key`, and built only
  when its key is new.
- A/↑c is FSI iff c is join-irreducible in the negative cone A⁻.  Negative
  elements are idempotent, so ↑d is closed under fusion for every d in A⁻;
  and a filter of a finite algebra is the up-set of its least element, which
  lies below e.  So the filters are the ↑d with d in A⁻, and those that
  contain ↑c are the ↑d with d ≤ c.  By the correspondence theorem they
  match the congruences of A/↑c, which is FSI when its least congruence is
  not the intersection of two larger ones: when ↑c is meet-irreducible
  among the ↑d with d ≤ c.  As ↑a ∩ ↑b = ↑(a∨b), with a∨b in A⁻, ↑c is the
  intersection of two larger such filters exactly when c = a∨b for some
  a, b < c.  The least element of A, whose quotient is trivial, is the
  empty join and so not join-irreducible.  Everything below c lies in A⁻,
  so c is join-irreducible in A⁻ exactly when it is in A's lattice.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import permutations
from operator import itemgetter
from typing import Iterable, Optional

from .cones import (
    _identify_cones,
    all_subuniverses,
    is_negatively_generated,
    negative_cone,
    subuniverse_closure,
)
from .core import (
    FiniteAlgebra,
    Homomorphism,
    _covers,
    _extend,
    _is_element,
    _join_irreducible,
    _subalgebra,
    brouwerian_reduct,
    compose,
    homomorphisms,
    identity_homomorphism,
    is_homomorphism,
    is_subuniverse,
    validate,
)
from .duality import ESubspace, _e_subspace, _lookup, _point_depths, _prime_space, _tower, depth
from .enumeration import _subuniverse_key, canonical_form
from .errors import (
    HypothesesNotMet,
    NotASubalgebra,
    ValidationError,
    VerificationFailure,
    WrongSignature,
)
from .filters import (
    Congruence,
    DeductiveFilter,
    _least,
    _restrict_quotient_embedding,
    all_deductive_filters,
    congruence_filter,
    generated_filter,
    is_fsi,
    leibniz_congruence,
    quotient,
    quotient_by_congruence,
)


@dataclass(frozen=True)
class VarietySpec:
    """A finitely generated variety, given by its generators."""

    generators: tuple[FiniteAlgebra, ...]

    def __post_init__(self):
        if not self.generators:
            raise ValueError("a variety spec needs at least one generator")
        sig = self.generators[0].signature
        for g in self.generators:
            if g.signature != sig:
                raise WrongSignature("variety generators must share a signature")
            report = validate(g)
            if not report.ok:
                raise ValidationError(report, "variety generator fails validation")

    @property
    def signature(self):
        return self.generators[0].signature

    @cached_property
    def _fsi_members(self) -> tuple[FiniteAlgebra, ...]:
        # the members only: a cached FsiSpectrum would point back at the spec,
        # a reference cycle that outlives the spec until the next collection
        return _build_spectrum_members(self)


@dataclass(frozen=True)
class FsiSpectrum:
    """All FSI members of the variety up to isomorphism."""

    spec: VarietySpec
    algebras: tuple[FiniteAlgebra, ...]


def fsi_spectrum(spec: VarietySpec) -> FsiSpectrum:
    """Quotients of subalgebras of generators, filtered to the FSI ones and
    deduplicated up to isomorphism, in deterministic order: generators in
    turn, subuniverses in bitmask order, filters in `all_deductive_filters`
    order.  The first quotient of each isomorphism type is the member, named
    `fsi0`, `fsi1`, ... in that order.  Built once per spec and kept on it.

    Two facts (proved in the module docstring) cut the work without changing
    the members.  Isomorphic subalgebras have isomorphic quotients, since an
    isomorphism h carries ↑c to ↑h(c); so a subalgebra isomorphic to an
    earlier one, of any generator, is skipped.  B/↑c is FSI iff c is
    join-irreducible in B⁻, since the filters above ↑c are the ↑d with
    d ≤ c and ↑a ∩ ↑b = ↑(a∨b); so only those quotients are built.
    Both dedupes compare `canonical_form` keys; neither searches for an
    isomorphism.  A subuniverse is keyed before it is built, in place on the
    generator's tables by `_subuniverse_key`, so only the subalgebras of new
    isomorphism types are built."""
    return FsiSpectrum(spec=spec, algebras=spec._fsi_members)


def _build_spectrum_members(spec: VarietySpec) -> tuple[FiniteAlgebra, ...]:
    members: list[FiniteAlgebra] = []
    seen_subs: set[tuple] = set()
    seen_members: set[tuple] = set()
    for gen in spec.generators:
        subuniverse_key = _subuniverse_key(gen)
        for mask in all_subuniverses(gen):
            carrier = sorted(mask)
            key = subuniverse_key(carrier)
            if key in seen_subs:
                continue
            seen_subs.add(key)
            sub, _ = _subalgebra(gen, carrier)
            for flt in all_deductive_filters(sub):
                c = _least(sub, flt.members)
                if not _join_irreducible(sub.meet, sub.join, c):
                    continue
                candidate, _ = quotient(sub, flt)
                if not is_fsi(candidate):
                    raise VerificationFailure(
                        f"quotient by ↑{c} of a {sub.size}-element subalgebra is not FSI, "
                        f"though {c} is join-irreducible in the negative cone"
                    )
                key = canonical_form(candidate)
                if key in seen_members:
                    continue
                seen_members.add(key)
                members.append(replace(candidate, name=f"fsi{len(members)}"))
    return tuple(members)


def variety_depth(spec: VarietySpec) -> int:
    """Depth of the variety: the maximum over its FSI spectrum (finitely
    generated varieties attain it there)."""
    spectrum = fsi_spectrum(spec)
    return max((depth(m) for m in spectrum.algebras), default=0)


@dataclass(frozen=True)
class GateEntry:
    name: str
    size: int
    depth: int
    negatively_generated: bool


@dataclass(frozen=True)
class GateReport:
    """Per-FSI-member hypotheses of the surjectivity theorem: finite depth
    (always finite here, reported numerically) and negative generation."""

    entries: tuple[GateEntry, ...]

    @property
    def passed(self) -> bool:
        return all(entry.negatively_generated for entry in self.entries)


def hypotheses_gate(spec: VarietySpec) -> GateReport:
    spectrum = fsi_spectrum(spec)
    entries = tuple(
        GateEntry(
            name=m.name or f"member{i}",
            size=m.size,
            depth=depth(m),
            negatively_generated=is_negatively_generated(m),
        )
        for i, m in enumerate(spectrum.algebras)
    )
    return GateReport(entries)


def _refutation(algebra, mask, codomains, hom_sets):
    """The first (codomain, map, map) whose maps i < j in Hom(algebra,
    codomain) agree on the non-empty `mask`: codomains in order, then
    the least such j (the maps before it differ on the mask, so i is
    unique); None when the mask is epic.  `hom_sets[k]` holds the map
    arrays of Hom(algebra, codomains[k]), appended when codomain k is first
    reached, so a caller testing many masks searches each hom set once."""
    restrict = itemgetter(*mask)
    for k, codomain in enumerate(codomains):
        if k == len(hom_sets):
            hom_sets.append([h.mapping for h in homomorphisms(algebra, codomain)])
        maps = hom_sets[k]
        seen: dict = {}
        for j, mapping in enumerate(maps):
            i = seen.setdefault(restrict(mapping), j)
            if i != j:
                first, second = (Homomorphism(algebra, codomain, maps[x]) for x in (i, j))
                return codomain, first, second
    return None


def is_epic_subalgebra(
    algebra: FiniteAlgebra,
    members: Iterable[int],
    spec: VarietySpec,
    refutation: Optional[list] = None,
) -> bool:
    """Does the subalgebra determine every homomorphism from the algebra
    into the variety?  Checked against the FSI spectrum; when `refutation`
    is a list, the first separating triple (codomain, map, map) is appended
    on a negative verdict."""
    mask = sorted(set(members))
    if not is_subuniverse(algebra, mask):
        raise NotASubalgebra(f"{mask} is not a subuniverse")
    found = _refutation(algebra, mask, fsi_spectrum(spec).algebras, [])
    if found is not None and refutation is not None:
        refutation.append(found)
    return found is None


@dataclass(frozen=True)
class EsDecision:
    """Outcome of the surjectivity decision, with the witnessing pair
    (FSI member, proper epic subuniverse) when it fails."""

    surjective: bool
    witness: Optional[tuple[FiniteAlgebra, frozenset[int]]]
    spectrum: FsiSpectrum


def decide_es(spec: VarietySpec) -> EsDecision:
    """Epimorphisms in the variety are surjective iff no FSI spectrum member
    has an epic proper subalgebra.

    Epicity is upward closed: if B is inside B' and B is epic, so is B',
    because maps that agree on B' agree on B (Isbell, "Epimorphisms and
    dominions", 1966).  So a member has an epic proper subuniverse exactly
    when one of its maximal proper subuniverses is epic; those are tested
    first, and a member with no epic maximal one is done.  The witness is
    the first member, in spectrum order, that has an epic proper
    subuniverse, with its first epic one in `all_subuniverses` (bitmask)
    order.  Only a mask inside an epic maximal one can be epic, so only
    such masks are tested on the way to it.

    Each member's masks are tried against the member itself first, then
    against the other members in spectrum order.  A mask is epic only when
    no codomain separates it, so the order of the codomains cannot change
    a verdict, and so neither the decision nor the witness; it changes only
    how many hom sets are searched.  Two endomorphisms often separate a
    mask, as on chains."""
    spectrum = fsi_spectrum(spec)
    for member in spectrum.algebras:
        mask = _first_epic_subuniverse(member, spectrum.algebras)
        if mask is not None:
            return EsDecision(False, (member, mask), spectrum)
    return EsDecision(True, None, spectrum)


def _first_epic_subuniverse(
    member: FiniteAlgebra, codomains: tuple[FiniteAlgebra, ...]
) -> Optional[frozenset[int]]:
    """The first epic proper subuniverse of `member` in bitmask order, or
    None.  The codomains are tried with `member` first and the others in
    the order given: whether a mask is epic does not depend on that order,
    since it is epic exactly when no codomain separates it.  Hom(member, C)
    is searched at most once per codomain C, when a mask first needs it;
    the masks come from `all_subuniverses`, so they are not checked for
    closure again."""
    codomains = (member, *(c for c in codomains if c is not member))
    hom_sets: list[list[tuple[int, ...]]] = []
    epic = lambda mask: _refutation(member, mask, codomains, hom_sets) is None

    full = frozenset(member.elements)
    proper = [s for s in all_subuniverses(member) if s != full]
    maximal: list[frozenset[int]] = []
    # largest first: a mask inside a larger proper one is inside a maximal
    # one that is already listed
    for s in sorted(proper, key=len, reverse=True):
        if not any(s < m for m in maximal):
            maximal.append(s)
    epic_maximal = [s for s in maximal if epic(s)]
    if not epic_maximal:
        return None
    return next(s for s in proper if any(s <= m for m in epic_maximal) and epic(s))


@dataclass
class EpiAnalysis:
    """The data extracted from a proper negatively generated subalgebra of a
    negatively generated FSI algebra on the way to refuting epicity.

    `collisions` holds the pairs of distinct prime cone filters with equal
    traces on the subalgebra; the two selected filters are depth-minimal
    (first over all pairs, then among the first one's partners).  The case
    is "nested" when the second filter sits directly below the first, and
    "incomparable" otherwise.  `gap` lists the quotient-cone elements
    missing from the embedded subalgebra quotient; each is covered by the
    identity's class."""

    algebra: FiniteAlgebra
    sub_mask: frozenset[int]
    collisions: tuple[tuple[frozenset[int], frozenset[int]], ...]
    first_filter: frozenset[int]
    second_filter: frozenset[int]
    case: str
    congruence: Congruence
    first_witness: int
    second_witness: int
    gap: frozenset[int]
    quotient: FiniteAlgebra
    quotient_map: Homomorphism
    sub_quotient: FiniteAlgebra
    sub_quotient_map: Homomorphism
    embedding: Homomorphism


def _cone_prime_data(algebra: FiniteAlgebra):
    """The unbounded cone, its carrier injection, its prime filters (in
    dual-space point order) both by their least elements in the cone and as
    sets of parent indices, and its dual space."""
    cone, carrier = negative_cone(algebra)
    cone = brouwerian_reduct(cone)
    least, cone_primes, space = _prime_space(cone, "pointed")
    primes = tuple(frozenset(carrier[i] for i in f) for f in cone_primes)
    return cone, carrier, least, primes, space


class _ParentSide:
    """What `epi_analysis` derives from the parent algebra alone: whether it
    is FSI and then whether it is negatively generated; when both hold, the
    `_cone_prime_data`, the index of each cone element by parent element,
    the depth of each dual point, the e-subspaces already built and verified
    on the cone, by cone-filter members, and the `_KernelSide` of each
    kernel already met, by its members."""

    def __init__(self, algebra: FiniteAlgebra):
        self.fsi = is_fsi(algebra)
        self.negatively_generated = self.fsi and is_negatively_generated(algebra)
        if self.negatively_generated:
            data = _cone_prime_data(algebra)
            self.cone, self.carrier, self.cone_least, self.primes, self.space = data
            self.cone_local = {x: i for i, x in enumerate(self.carrier)}
            self.depths = tuple(_point_depths(self.space))
        self._subspaces: dict[frozenset[int], ESubspace] = {}
        self._kernels: dict[frozenset[int], _KernelSide] = {}

    def subspace(self, members: frozenset[int]) -> ESubspace:
        found = self._subspaces.get(members)
        if found is None:
            flt = DeductiveFilter(self.cone, members)
            found = _e_subspace(self.cone, self.cone_least, self.space, flt)
            self._subspaces[members] = found
        return found

    def kernel_side(self, algebra: FiniteAlgebra, kernel: frozenset[int]) -> _KernelSide:
        found = self._kernels.get(kernel)
        if found is None:
            found = _KernelSide(algebra, self, kernel)
            self._kernels[kernel] = found
        return found


class _KernelSide:
    """What `epi_analysis` derives from the parent and a kernel alone, the
    meet of the two chosen prime filters: θ, generated by the kernel, the
    members of θ's filter, A/θ with its quotient map, the kernel's
    e-subspace `sub_x`, and the verified identification `i1` of A/θ's cone
    with `sub_x`'s quotient, by element of A/θ."""

    def __init__(self, algebra: FiniteAlgebra, parent: _ParentSide, kernel: frozenset[int]):
        self.theta = leibniz_congruence(generated_filter(algebra, kernel))
        self.filter_members = congruence_filter(self.theta).members
        self.quotient = quotient_by_congruence(algebra, self.theta)
        self.sub_x = parent.subspace(frozenset(parent.cone_local[x] for x in kernel))
        _, q_carrier, i1 = _identify_cones(
            self.quotient[1], parent.cone_local, self.sub_x.quotient_map,
            "cone of the quotient does not match the cone quotient",
            "cone identification is not a homomorphism",
        )
        self.i1 = dict(zip(q_carrier, i1))


# The parent side of the latest `epi_analysis` call, as (algebra, side).  One
# entry, matched by identity, keeps at most one algebra alive and serves a
# sweep over one algebra's subuniverses; the subalgebra side changes with
# every call, so it is never kept.
_last_parent: Optional[tuple[FiniteAlgebra, _ParentSide]] = None


def _parent_side(algebra: FiniteAlgebra) -> _ParentSide:
    global _last_parent
    if _last_parent is None or _last_parent[0] is not algebra:
        _last_parent = (algebra, _ParentSide(algebra))
    return _last_parent[1]


def epi_analysis(algebra: FiniteAlgebra, members: Iterable[int]) -> EpiAnalysis:
    """Run the construction behind the surjectivity theorem and verify every
    step: colliding prime pair, depth-minimal choices, the case split, the
    generated congruence, the embedded quotient, the missing cone elements
    and their cover property, and the commuting retract square.

    Consecutive calls on one algebra object reuse what depends on the
    algebra alone: whether it is FSI and negatively generated, its cone with
    the cone's prime filters, dual space and point depths, and each
    e-subspace of the cone that the retract square has already built and
    verified, by filter.  They also reuse what depends on the algebra and
    the kernel (the meet of the two chosen filters) alone, by kernel: the
    congruence θ it generates, A/θ with its quotient map, the kernel's
    e-subspace and the identification of A/θ's cone with that subspace's
    quotient.  That is sound because an algebra is immutable and these are
    functions of it and of the filter or kernel: every check still runs
    once on each distinct input, and a build that fails its checks raises
    before it is stored.  Every check on the subalgebra side runs on every
    call.  A call on another algebra replaces them all.

    `refute_epic` relies on the gap and cover checks here when it takes its
    retraction from `_separating_retraction`, which skips re-proving them."""
    sub_mask = frozenset(members)
    if not is_subuniverse(algebra, sub_mask):
        raise HypothesesNotMet("B is not a subalgebra")
    if len(sub_mask) == algebra.size:
        raise HypothesesNotMet("B is not proper")
    parent = _parent_side(algebra)
    if not parent.fsi:
        raise HypothesesNotMet("A is not FSI")
    if not parent.negatively_generated:
        raise HypothesesNotMet("A is not negatively generated")
    sub_neg = frozenset(x for x in algebra.below_e if x in sub_mask)
    if subuniverse_closure(algebra, sub_neg) != sub_mask:
        raise HypothesesNotMet("B is not negatively generated")

    primes, depths = parent.primes, parent.depths

    traces = [p & sub_neg for p in primes]
    pairs = [
        (i, j) for i, j in permutations(range(len(primes)), 2) if traces[i] == traces[j]
    ]
    collisions = tuple((primes[i], primes[j]) for i, j in pairs)
    if not collisions:
        raise HypothesesNotMet("no colliding prime-filter pair (cones coincide)")

    # depth-minimal; a tie goes to the least point, whose sorted members come
    # first: `_prime_space` orders points so, and the cone carrier ascends
    first_idx = min((depths[i], i) for i, _ in pairs)[1]
    second_idx = min((depths[j], j) for i, j in pairs if i == first_idx)[1]
    first, second = primes[first_idx], primes[second_idx]

    if first < second:
        raise VerificationFailure("first filter properly inside the second")
    for g in primes:
        if first < g and not (second < g):
            raise VerificationFailure("strict bound of the first filter misses the second")
        if second < g and not (first <= g):
            raise VerificationFailure("strict bound of the second filter misses the first")

    # The loop settles the case split.  Nested, `first` covers `second` and
    # is its least strict bound.  Otherwise the two (distinct) filters are
    # incomparable with the same strict bounds, and hence the same depth.
    case = "nested" if second < first else "incomparable"

    side = parent.kernel_side(algebra, first & second)
    sub, inclusion = _subalgebra(algebra, sorted(sub_mask))
    qe = _restrict_quotient_embedding(
        sub, inclusion, side.theta, side.filter_members, side.quotient
    )
    quot, q_map = qe.quotient, qe.quotient_map
    sub_quot, j_hom = qe.sub_quotient, qe.embedding

    j_cone_image = frozenset(j_hom.mapping[u] for u in sub_quot.below_e)
    gap = frozenset(quot.below_e) - j_cone_image

    first_witness = min(first - second)
    second_witness = algebra.e if case == "nested" else min(second - first)
    expected_gap = {q_map.mapping[first_witness]}
    if case == "incomparable":
        expected_gap.add(q_map.mapping[second_witness])
    if gap != frozenset(expected_gap):
        raise VerificationFailure("missing cone elements differ from the expected ones")
    for u in gap:
        e_q = quot.e
        if u == e_q or not quot.leq(u, e_q):
            raise VerificationFailure("missing element is not strictly below the identity")
        if not _covers(quot.leq, quot.elements, u, e_q):
            raise VerificationFailure("missing element is not covered by the identity")

    _verify_retract_square(parent, side, traces, first, qe)

    return EpiAnalysis(
        algebra=algebra,
        sub_mask=sub_mask,
        collisions=collisions,
        first_filter=first,
        second_filter=second,
        case=case,
        congruence=side.theta,
        first_witness=first_witness,
        second_witness=second_witness,
        gap=gap,
        quotient=quot,
        quotient_map=q_map,
        sub_quotient=sub_quot,
        sub_quotient_map=qe.sub_quotient_map,
        embedding=j_hom,
    )


def _verify_retract_square(parent, side, traces, first, qe):
    """Compose the retract square elementwise: going through the subalgebra
    quotient, its cone quotient, and the subspace isomorphisms agrees with
    going through the full quotient.  The kernel's subspace and the cone
    identification on A/θ come from the kernel side; everything on the
    subalgebra side is built and checked here."""
    sub_y = parent.subspace(frozenset(parent.cone_local[x] for x in first))

    inclusion = qe.inclusion
    b_cone, b_carrier, b_least, b_primes_sub, b_space = _cone_prime_data(qe.sub_algebra)
    trace_local = frozenset(
        i for i, x in enumerate(b_carrier)
        if inclusion.mapping[x] in first
    )
    sub_z = _e_subspace(b_cone, b_least, b_space, DeductiveFilter(b_cone, trace_local))

    # i_* on dual points: intersect with the subalgebra's cone; B's primes
    # are distinct sets, so a trace matches at most one of them
    b_index = {frozenset(inclusion.mapping[x] for x in p): i for i, p in enumerate(b_primes_sub)}
    istar = _lookup(b_index, traces, "prime trace is not a unique prime of the subcone")

    restricted = [istar[p] for p in sub_y.points]
    if len(set(restricted)) != len(restricted) or set(restricted) != set(sub_z.points):
        raise VerificationFailure("trace map is not a bijection on the subspace")

    # the subcone identification; A/θ's is the kernel side's `i1`
    b_local = {x: i for i, x in enumerate(b_carrier)}
    _, bq_carrier, i2 = _identify_cones(
        qe.sub_quotient_map, b_local, sub_z.quotient_map,
        "subcone of the quotient does not match its cone quotient",
        "subcone identification is not a homomorphism",
    )

    # the connecting quotient map between the two cone quotients, checked
    # against the inner square
    arrow = _tower(side.sub_x, sub_y, "inner subspace square does not commute")

    # outer square, one element of the subquotient cone at a time
    for u, image in zip(bq_carrier, i2):
        z_set = sub_z.point_sets[image]
        left = frozenset(p for p in sub_y.points if istar[p] in z_set)
        via_j = qe.embedding.mapping[u]
        right = sub_y.point_sets[arrow[side.i1[via_j]]]
        if left != right:
            raise VerificationFailure("retract square does not commute")


def separating_retraction(
    algebra: FiniteAlgebra, members: Iterable[int], coatom: int
) -> tuple[Homomorphism, Homomorphism]:
    """The endomorphism extending the identity on C⁻ and c ↦ e, paired with
    the identity map, where C is the subalgebra on `members` and c the
    distinguished element `coatom`.  It fixes C, moves c, which the identity
    covers, into C, and lands inside C."""
    sub_mask = frozenset(members)
    if not is_subuniverse(algebra, sub_mask):
        raise HypothesesNotMet("C is not a subalgebra")
    if not _is_element(algebra.size, coatom):
        raise HypothesesNotMet("distinguished element out of range")
    if coatom in sub_mask:
        raise HypothesesNotMet("distinguished element already lies in C")
    e = algebra.e
    if coatom == e or not algebra.leq(coatom, e):
        raise HypothesesNotMet("distinguished element is not strictly below the identity")
    if not _covers(algebra.leq, algebra.elements, coatom, e):
        raise HypothesesNotMet("distinguished element is not covered by the identity")
    sub_neg = frozenset(x for x in sub_mask if algebra.leq(x, e))
    if subuniverse_closure(algebra, sub_neg) != sub_mask:
        raise HypothesesNotMet("C is not generated by its negative cone")
    if subuniverse_closure(algebra, sub_neg | {coatom}) != frozenset(algebra.elements):
        raise HypothesesNotMet("C's cone plus the distinguished element does not generate")
    retraction = _separating_retraction(algebra, sub_mask, sub_neg, coatom)
    return retraction, identity_homomorphism(algebra)


def _separating_retraction(
    algebra: FiniteAlgebra, sub_mask: frozenset[int], sub_neg: frozenset[int], coatom: int
) -> Homomorphism:
    """`separating_retraction`'s endomorphism without its hypothesis checks,
    given C, its negative cone and c, for a caller that has already
    established them.  The built map is still checked; a failure there,
    hypotheses included, raises `VerificationFailure`."""
    mapping = _extend(algebra, algebra, {x: x for x in sub_neg} | {coatom: algebra.e})
    ok = mapping is not None and (
        is_homomorphism(algebra, algebra, mapping)
        and all(mapping[c] == c for c in sub_mask)
        and mapping[coatom] != coatom
        and set(mapping) <= sub_mask
    )
    if not ok:
        raise VerificationFailure("retraction construction failed its checks")
    return Homomorphism(algebra, algebra, mapping)


@dataclass(frozen=True)
class EpiCertificate:
    """Two distinct homomorphisms out of the algebra that agree on the
    subalgebra: a concrete refutation of epicity."""

    target: FiniteAlgebra
    first_map: Homomorphism
    second_map: Homomorphism
    witness: int
    analysis: EpiAnalysis = field(compare=False)


def refute_epic(algebra: FiniteAlgebra, members: Iterable[int]) -> EpiCertificate:
    """Produce a certificate that the subalgebra is not epic in the algebra
    relative to any variety containing the quotient (in particular the one
    the algebra generates).  The retraction comes from
    `_separating_retraction`, whose hypotheses `epi_analysis` has checked;
    the built map is checked again."""
    analysis = epi_analysis(algebra, members)
    quot = analysis.quotient
    q_map = analysis.quotient_map
    image = frozenset(analysis.embedding.mapping)
    a1q = q_map.mapping[analysis.first_witness]
    a2q = q_map.mapping[analysis.second_witness]
    negative = lambda carrier: frozenset(u for u in carrier if quot.leq(u, quot.e))

    target_sub, target_neg, pivot = image, negative(image), a1q
    if analysis.case == "incomparable":
        closure = subuniverse_closure(quot, target_neg | {a1q})
        if a2q not in closure:
            target_sub, target_neg, pivot = closure, negative(closure), a2q

    retraction = _separating_retraction(quot, target_sub, target_neg, pivot)
    g = compose(retraction, q_map)
    h = q_map
    witness = q_map.mapping.index(pivot)
    ok = (
        g.mapping != h.mapping
        and g.mapping[witness] != h.mapping[witness]
        and all(g.mapping[x] == h.mapping[x] for x in analysis.sub_mask)
    )
    if not ok:
        raise VerificationFailure("certificate construction failed its checks")
    return EpiCertificate(
        target=quot, first_map=g, second_map=h, witness=witness, analysis=analysis
    )


def verify_certificate(cert: EpiCertificate, members: Iterable[int]) -> bool:
    """Independent check: both maps are homomorphisms to the target, they
    agree on the subalgebra, and they differ at the witness."""
    sub = frozenset(members)
    g, h = cert.first_map, cert.second_map
    return (
        g.source == h.source
        and g.target == cert.target
        and h.target == cert.target
        and is_homomorphism(g.source, g.target, g.mapping)
        and is_homomorphism(h.source, h.target, h.mapping)
        and all(g.mapping[x] == h.mapping[x] for x in sub)
        and g.mapping[cert.witness] != h.mapping[cert.witness]
    )
