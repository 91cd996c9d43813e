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

The spectrum build rests on four more facts.

- Isomorphic subalgebras have isomorphic quotients.  An isomorphism
  h: B -> B' carries each filter ↑c of B onto the filter ↑h(c) of B', and
  the congruences they determine correspond under h, so h induces
  B/↑c ≅ B'/↑h(c).  Only the first subalgebra of each isomorphism type needs
  its quotients taken, so each subuniverse is keyed, in place on the
  generator's own tables by `enumeration._subuniverse_key`, and its
  quotients are taken only when its key is new.  That key reads meet,
  fusion, neg and the constants alone: meet fixes the order and so the
  join, and x->y is the largest z with z·x <= y.
- B/↑c is read on B's own elements.  For c <= e, c·c = c, so x ↦ c·x is
  idempotent; its kernel is the congruence of ↑c (`leibniz_congruence`),
  so each class of B/↑c holds exactly one element c·x of
  R = {c·x : x in B}, and each operation of the quotient reads as
  x, y ↦ c·op(x, y) on R.  So the quotient is keyed in place, with the
  value map fusion[c], and built, straight from the generator's tables,
  only when its key is new.
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
- V(A) is generated by A's top SI quotients, the A/↑c with c maximal among
  the join-irreducibles of A⁻.  Residuated lattices have lattice reducts,
  so every variety of them is congruence-distributive, and by Jónsson's
  lemma (B. Jónsson, "Algebras whose congruence lattices are distributive",
  Math. Scand. 21, 1967) the FSI members of V(K), for a finite set K of
  finite algebras, lie in HS(K), up to isomorphism.  The ↑c with c
  join-irreducible meet in ↑e, the filter of the least congruence, because
  e is the join of the join-irreducibles below it; so A is a subdirect
  product of its quotients A/↑c.  When c ≤ c', ↑c contains ↑c', so A/↑c
  is a quotient of A/↑c'.  So A lies in SP of its top quotients, which lie
  in H(A), and V(A) and V(top quotients) have the same FSI spectrum up to
  isomorphism.  An FSI A has e as its one maximal join-irreducible, so it
  stands for itself.  The build first learns the spectrum's key set from
  the full build on the top quotients, which are small; the build on the
  generators then stops as soon as it has met every key of that set.  The
  full build would meet no key outside it, so what the stopped build has
  emitted by then, members, order and names, is what the full build emits.
  A key outside the set, or a set left partly unmet, raises
  VerificationFailure.  When every generator is FSI, there is nothing to
  learn, and the build runs once, to its end.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property, reduce
from itertools import permutations
from operator import itemgetter
from typing import Iterable, Iterator, Optional, Sequence

from .cones import (
    _identify_cones,
    _subuniverse_masks,
    all_subuniverses,
    is_negatively_generated,
    negative_cone,
    subuniverse_closure,
)
from .core import (
    FiniteAlgebra,
    Homomorphism,
    _bits,
    _covers,
    _forced_map,
    _induced,
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
from .enumeration import _subuniverse_key
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

    Three facts (proved in the module docstring) cut the work without
    changing the members.  Isomorphic subalgebras have isomorphic quotients,
    since an isomorphism h carries ↑c to ↑h(c); so a subalgebra isomorphic
    to an earlier one, of any generator, is skipped.  B/↑c is FSI iff c is
    join-irreducible in B⁻, since the filters above ↑c are the ↑d with
    d ≤ c and ↑a ∩ ↑b = ↑(a∨b); so only those quotients are keyed.  And
    x ↦ c·x picks one element of each class of B/↑c, so the quotient is
    read on those elements, in place on the generator's tables.  Neither
    dedupe searches for an isomorphism.  Subalgebras compare keys that
    read meet, fusion, neg and the constants, which fix the rest;
    quotients compare `canonical_form` keys, found in place by
    `_subuniverse_key`.  No subalgebra is built, and a quotient is built,
    from the generator's tables, only when its key is new: only the
    members are built.  The FSI check still runs, in place, on every
    quotient keyed: the build keeps quotients on the strength of the
    join-irreducibility fact and of the in-place reading, and the check is
    what would catch a fault in either before a wrong member is kept.

    A fourth fact, Jónsson's lemma, stops the build early.  The generators'
    top SI quotients, A/↑c with c maximal among the join-irreducibles of
    A⁻ (an FSI generator standing for itself), generate the same variety;
    the key set of their spectrum is learned first, and the build above
    stops once it has met every key, which leaves the members, their order
    and names as the full build gives them.  A key outside the set, or one
    left unmet, raises VerificationFailure.  Subuniverses are closed only as
    the build asks for them, in ascending bitmask order."""
    return FsiSpectrum(spec=spec, algebras=spec._fsi_members)


def _build_spectrum_members(spec: VarietySpec) -> tuple[FiniteAlgebra, ...]:
    wanted = _key_set(spec.generators)
    found = _spectrum_scan(spec.generators)
    if wanted is None:
        return tuple(replace(_subquotient(*at), name=f"fsi{i}") for i, (_, at) in enumerate(found))
    members: list[FiniteAlgebra] = []
    unmet = set(wanted)
    while unmet:
        key, at = next(found, (None, None))
        if at is None:
            raise VerificationFailure(
                f"the spectrum build ended with {len(unmet)} of the {len(wanted)} keys "
                "of the generators' top SI quotients unmet"
            )
        if key not in unmet:
            raise VerificationFailure(
                f"the spectrum build met a {key[0]}-element member outside the "
                "key set of the generators' top SI quotients"
            )
        unmet.remove(key)
        members.append(replace(_subquotient(*at), name=f"fsi{len(members)}"))
    return tuple(members)


def _key_set(generators: tuple[FiniteAlgebra, ...]) -> Optional[set[tuple]]:
    """The `canonical_form` keys of the FSI spectrum, from the full build on
    the generators' top SI quotients, an FSI generator standing for itself;
    None when every generator is FSI, when that build is the build itself."""
    if all(map(is_fsi, generators)):
        return None
    tops = [q for gen in generators for q in _top_si_quotients(gen)]
    return {key for key, _ in _spectrum_scan(tops)}


def _top_si_quotients(algebra: FiniteAlgebra) -> list[FiniteAlgebra]:
    """A/↑c for each c maximal among the join-irreducibles of A⁻, in
    `all_deductive_filters` order; an FSI algebra, whose one such c is e,
    stands for itself."""
    if is_fsi(algebra):
        return [algebra]
    meet, join = algebra.meet, algebra.join
    irreducible = [c for c in algebra.below_e if _join_irreducible(meet, join, c)]
    tops = []
    for flt in all_deductive_filters(algebra):
        c = _least(algebra, flt.members)
        if c in irreducible and not any(d != c and meet[c][d] == c for d in irreducible):
            tops.append(quotient(algebra, flt)[0])
    return tops


def _spectrum_scan(
    generators: Iterable[FiniteAlgebra],
) -> Iterator[tuple[tuple, tuple[FiniteAlgebra, list[int], Sequence[int]]]]:
    """(key, (generator, carrier, fusion[c])) for the first FSI quotient
    B/↑c of each isomorphism type, in spectrum order, each found only when
    the one before it has been taken; `_subquotient` builds it from the
    three.  Nothing is built here: the subuniverse's meet-and-fusion key,
    its filters ↑c, the join-irreducibility of c, the FSI check on the
    quotient and the quotient's key all run in place on the generator's
    tables."""
    seen_subs: set[tuple] = set()
    seen_members: set[tuple] = set()
    for gen in generators:
        subuniverse_key, quotient_key = _subuniverse_key(gen, full=False), _subuniverse_key(gen)
        meet, join, fusion, e, identity = gen.meet, gen.join, gen.fusion, gen.e, gen.elements
        for mask in _subuniverse_masks(gen):
            carrier = _bits(mask)
            key = subuniverse_key(carrier)
            if key in seen_subs:
                continue
            seen_subs.add(key)
            # the filters ↑c, c in B⁻, in `all_deductive_filters` order: the
            # carrier ascends, so its members sort as the subalgebra's would
            ups = sorted(
                ([y for y in carrier if meet[c][y] == c], c) for c in carrier if meet[c][e] == c
            )
            for _, c in ups:
                if not _join_irreducible_among(carrier, c, meet, join, identity):
                    continue
                value = fusion[c]
                classes = set(map(value.__getitem__, carrier))  # R, one element per class
                if not _join_irreducible_among(classes, c, meet, join, value):
                    raise VerificationFailure(
                        f"quotient by ↑{c} of a {len(carrier)}-element subalgebra is not FSI, "
                        f"though {c} is join-irreducible in the negative cone"
                    )
                key = quotient_key(carrier, value)
                if key not in seen_members:
                    seen_members.add(key)
                    yield key, (gen, carrier, value)


def _join_irreducible_among(elements: Iterable[int], c: int, meet, join, value) -> bool:
    """c is join-irreducible in the order `meet` gives `elements`, whose join
    of x and y is value[join[x][y]]: some element lies strictly below c, and
    their join is still below c.  Read on R = {c·x : x in B} with value
    fusion[c], that is e's class join-irreducible in B/↑c, whose e sits at
    c·e = c and whose join sends x, y to c·(x∨y)."""
    meet_c = meet[c]
    below = [a for a in elements if meet_c[a] == a != c]
    return bool(below) and reduce(lambda a, b: value[join[a][b]], below) != c


def _subquotient(gen: FiniteAlgebra, carrier: list[int], value: Sequence[int]) -> FiniteAlgebra:
    """B/↑c, built straight from the generator's tables, for the ascending
    subuniverse `carrier` of B and `value` = fusion[c]: the classes are
    the values' first occurrences over the carrier, and each class stands
    at its first carrier element, as `filters.quotient` numbers them on the
    built subalgebra, so the tables are the same."""
    classes: dict[int, int] = {}  # by element of B
    first: dict[int, int] = {}  # the class of each value
    reps = []
    for x in carrier:
        k = first.setdefault(value[x], len(reps))
        if k == len(reps):
            reps.append(x)
        classes[x] = k
    return _induced(gen, reps, classes, f"|{carrier}/θ")


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


class _Cone:
    """An algebra's unbounded negative cone and what the retract square reads
    off it: the carrier injection, the index of each cone element by element
    of the algebra, the prime filters (in dual-space point order) both by
    their least elements in the cone and as sets of the algebra's indices,
    the dual space, and the e-subspaces built and verified so far, by
    cone-filter members.  Each e-subspace's up-set algebra is taken from, or
    added to, `up_sets`."""

    def __init__(self, algebra: FiniteAlgebra, up_sets: dict):
        cone, self.carrier = negative_cone(algebra)
        self.cone = brouwerian_reduct(cone)
        self.least, cone_primes, self.space = _prime_space(self.cone, "pointed")
        self.primes = tuple(frozenset(self.carrier[i] for i in f) for f in cone_primes)
        self.local = {x: i for i, x in enumerate(self.carrier)}
        self._up_sets = up_sets
        self._subspaces: dict[frozenset[int], ESubspace] = {}

    def subspace(self, members: frozenset[int]) -> ESubspace:
        found = self._subspaces.get(members)
        if found is None:
            flt = DeductiveFilter(self.cone, members)
            found = _e_subspace(self.cone, self.least, self.space, flt, self._up_sets)
            self._subspaces[members] = found
        return found


class _ParentSide:
    """What `epi_analysis` derives from the parent algebra alone: whether it
    is FSI and then whether it is negatively generated; when both hold, its
    `_Cone` and the depth of each dual point.  It also keeps the
    `_KernelSide` of each kernel already met, by its members, and the
    `_Cone` of each subalgebra already met, by the subalgebra's value, whose
    e-subspaces are kept by the first filter's trace on its cone.  `up_sets`
    holds the pointed up-set algebra, with its index, of each e-subspace
    poset met so far on any of these cones, by poset.  Each is a pure
    function of its key, and every map that depends on how a subalgebra sits
    in the parent is still built and checked on every call."""

    def __init__(self, algebra: FiniteAlgebra):
        self.fsi = is_fsi(algebra)
        self.negatively_generated = self.fsi and is_negatively_generated(algebra)
        self.up_sets: dict = {}
        if self.negatively_generated:
            self.cone = _Cone(algebra, self.up_sets)
            self.depths = tuple(_point_depths(self.cone.space))
        self._kernels: dict[frozenset[int], _KernelSide] = {}
        self._sub_cones: dict[FiniteAlgebra, _Cone] = {}

    def kernel_side(self, algebra: FiniteAlgebra, kernel: frozenset[int]) -> _KernelSide:
        found = self._kernels.get(kernel)
        if found is None:
            found = _KernelSide(algebra, self.cone, kernel)
            self._kernels[kernel] = found
        return found

    def sub_cone(self, sub: FiniteAlgebra) -> _Cone:
        # keyed by value: `FiniteAlgebra` equality ignores the name, and
        # equal subalgebras of different masks have the same cone
        found = self._sub_cones.get(sub)
        if found is None:
            found = _Cone(sub, self.up_sets)
            self._sub_cones[sub] = found
        return found


class _KernelSide:
    """What `epi_analysis` and `refute_epic` derive from the parent and a
    kernel alone, the meet of the two chosen prime filters: θ, generated by
    the kernel, the members of θ's filter, A/θ with its quotient map, the
    kernel's e-subspace `sub_x`, the verified identification `i1` of A/θ's
    cone with `sub_x`'s quotient, by element of A/θ, and the certificate's
    first maps built so far, by (target subuniverse, pivot)."""

    def __init__(self, algebra: FiniteAlgebra, cone: _Cone, kernel: frozenset[int]):
        self.theta = leibniz_congruence(generated_filter(algebra, kernel))
        self.filter_members = congruence_filter(self.theta).members
        self.quotient = quotient_by_congruence(algebra, self.theta)
        self.sub_x = cone.subspace(frozenset(cone.local[x] for x in kernel))
        _, q_carrier, i1 = _identify_cones(
            self.quotient[1], cone.local, self.sub_x.quotient_map,
            "cone of the quotient does not match the cone quotient",
            "cone identification is not a homomorphism",
        )
        self.i1 = dict(zip(q_carrier, i1))
        self._first_maps: dict[tuple[frozenset[int], int], Homomorphism] = {}

    def first_map(self, target_sub: frozenset[int], pivot: int) -> Homomorphism:
        """The separating retraction of A/θ onto `target_sub` that moves
        `pivot`, after the quotient map."""
        key = (target_sub, pivot)
        found = self._first_maps.get(key)
        if found is None:
            quot, q_map = self.quotient
            target_neg = frozenset(u for u in target_sub if quot.leq(u, quot.e))
            retraction = _separating_retraction(quot, target_sub, target_neg, pivot)
            found = compose(retraction, q_map)
            self._first_maps[key] = found
        return found


# The parent side of the latest `epi_analysis` call, as (algebra, side).  One
# entry, matched by identity, keeps at most one algebra alive and serves a
# sweep over one algebra's subuniverses; every store of the sweep hangs off
# it, so a call on another algebra frees them all.
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
    the cone's prime filters, dual space and point depths, each e-subspace
    of the cone that the retract square has already built and verified, by
    filter, and the up-set algebra of each e-subspace poset met so far, on
    its cone or on a subalgebra's, by poset.  They also reuse what depends
    on the algebra and the kernel (the meet of the two chosen filters)
    alone, by kernel: the congruence θ it generates, A/θ with its quotient
    map, the kernel's e-subspace and the identification of A/θ's cone with
    that subspace's quotient.  On the subalgebra side they reuse the cone
    of each subalgebra, with its prime filters and dual space, by the
    subalgebra's value, and the e-subspace above the first filter's trace
    on that cone, by subalgebra and trace.  That is sound because an
    algebra is immutable and these are functions of it and of the filter,
    kernel, subalgebra, trace or poset: every check still runs once on each
    distinct input, and a build that fails its checks raises before it is
    stored.  So the checks on the subalgebra side run once per distinct
    subalgebra and trace, the isomorphism onto a kept up-set algebra
    included; what depends on how the subalgebra sits in the algebra (the
    trace map on dual points, the subcone identification, the tower and
    the outer square) is checked on every call.  A call on another algebra
    replaces them all.

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

    primes, depths = parent.cone.primes, parent.depths

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
    identification on A/θ come from the kernel side, and the subalgebra's
    cone and its e-subspace above the first filter's trace from the parent
    side; every map between the two sides is built and checked here."""
    cone = parent.cone
    sub_y = cone.subspace(frozenset(cone.local[x] for x in first))

    inclusion = qe.inclusion
    b_cone = parent.sub_cone(qe.sub_algebra)
    sub_z = b_cone.subspace(frozenset(
        i for i, x in enumerate(b_cone.carrier)
        if inclusion.mapping[x] in first
    ))

    # i_* on dual points: intersect with the subalgebra's cone; B's primes
    # are distinct sets, so a trace matches at most one of them
    b_index = {frozenset(inclusion.mapping[x] for x in p): i for i, p in enumerate(b_cone.primes)}
    istar = _lookup(b_index, traces, "prime trace is not a unique prime of the subcone")

    restricted = [istar[p] for p in sub_y.points]
    if len(set(restricted)) != len(restricted) or set(restricted) != set(sub_z.points):
        raise VerificationFailure("trace map is not a bijection on the subspace")

    # the subcone identification; A/θ's is the kernel side's `i1`
    _, bq_carrier, i2 = _identify_cones(
        qe.sub_quotient_map, b_cone.local, sub_z.quotient_map,
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
    covers, into C, and lands inside C.  As C⁻ and c generate, these values
    force the map (`core._forced_map`); `is_homomorphism` then checks it."""
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
    established them.  The map that the identity on C⁻ and c ↦ e force is
    built with no conflict check; `is_homomorphism` is that check.  When
    these values do not generate the algebra, so force no map, or the map
    they force is not a homomorphism that fixes C and moves c into C, this
    raises `VerificationFailure`."""
    mapping = _forced_map(algebra, algebra, {x: x for x in sub_neg} | {coatom: algebra.e})
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
    `_separating_retraction`, whose hypotheses `epi_analysis` has checked,
    and `is_homomorphism` checks the map there; the first map, the
    retraction after the quotient map, is kept on the kernel side by target
    subuniverse and pivot.  The maps' agreement on the subalgebra and their
    difference at the witness are checked on every call."""
    analysis = epi_analysis(algebra, members)
    quot = analysis.quotient
    q_map = analysis.quotient_map
    image = frozenset(analysis.embedding.mapping)
    a1q = q_map.mapping[analysis.first_witness]
    a2q = q_map.mapping[analysis.second_witness]

    target_sub, pivot = image, a1q
    if analysis.case == "incomparable":
        image_neg = frozenset(u for u in image if quot.leq(u, quot.e))
        closure = subuniverse_closure(quot, image_neg | {a1q})
        if a2q not in closure:
            target_sub, pivot = closure, a2q

    kernel = analysis.first_filter & analysis.second_filter
    side = _parent_side(algebra).kernel_side(algebra, kernel)
    g = side.first_map(target_sub, pivot)
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
    agree on the subalgebra, and they differ at the witness, which must be
    an element of their source.  A member that is not an element of the
    source raises ValueError."""
    sub = frozenset(members)
    g, h = cert.first_map, cert.second_map
    n = g.source.size
    for x in sub:
        if not _is_element(n, x):
            raise ValueError(f"subalgebra member must be an integer in 0..{n - 1}, got {x!r}")
    return (
        g.source == h.source
        and g.target == cert.target
        and h.target == cert.target
        and is_homomorphism(g.source, g.target, g.mapping)
        and is_homomorphism(h.source, h.target, h.mapping)
        and all(g.mapping[x] == h.mapping[x] for x in sub)
        and _is_element(n, cert.witness)
        and g.mapping[cert.witness] != h.mapping[cert.witness]
    )
