"""Negative cones, generation closures and subuniverses, and the
cone/quotient isomorphism, whose map `_identify_cones` builds and checks
for `cone_quotient_iso` and for the retract square of `epi_analysis`.

Closures run on int bitmasks (bit a set when a is a member).
`_subuniverse_masks` enumerates the subuniverses close-by-one through
`core.closed_sets`, lazily and in ascending order, and `all_subuniverses`
lists them as sets; the closure by a gives up at the first element below a
that the closed set lacks, since the result could not be canonical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

from .core import (
    FiniteAlgebra, Signature, _bits, _is_element, _members, _restricted, brouwerian_reduct,
    closed_sets, is_homomorphism,
)
from .errors import NotASubalgebra, VerificationFailure
from .filters import (
    DeductiveFilter,
    deductive_filter,
    generated_filter,
    quotient,
)


def _close(algebra: FiniteAlgebra, closed: int, new: Iterable[int], below: int = 0) -> Optional[int]:
    """The mask of the subuniverse generated by the closed mask `closed` and
    some new elements, or None as soon as a product lands in the mask
    `below`, which must miss both.

    Each round forms only the products that involve an element added in the
    round before, so pairs inside `closed` are never revisited; each
    (fresh, member) pair reads every table in both orientations."""
    members = closed
    for a in new:
        members |= 1 << a
    fresh = _bits(members & ~closed)
    tables = (algebra.meet, algebra.join, algebra.fusion, algebra.residual)
    neg = algebra.neg
    while fresh:
        listed = _bits(members)
        found = 0
        if neg is not None:
            for a in fresh:
                found |= 1 << neg[a]
        for t in tables:
            for a in fresh:
                row = t[a]
                for b in listed:
                    found |= 1 << row[b] | 1 << t[b][a]
            if found & below:
                return None
        found &= ~members
        members |= found
        fresh = _bits(found)
    return members


def subuniverse_closure(algebra: FiniteAlgebra, generators: Iterable[int]) -> frozenset[int]:
    """Closure of a set (plus constants) under all operations."""
    generators = list(generators)
    for a in generators:
        if not _is_element(algebra.size, a):
            raise NotASubalgebra(f"element {a!r} is outside 0..{algebra.size - 1} (size {algebra.size})")
    return _members(_generated(algebra, generators))


def _generated(algebra: FiniteAlgebra, generators: Iterable[int]) -> int:
    """The mask of the subuniverse generated by elements and the constants."""
    constants = (algebra.e,) if algebra.bottom is None else (algebra.e, algebra.bottom)
    return _close(algebra, 0, (*generators, *constants))


def all_subuniverses(algebra: FiniteAlgebra) -> list[frozenset[int]]:
    """Every subuniverse, ordered by subset bitmask."""
    return [_members(m) for m in _subuniverse_masks(algebra)]


def _subuniverse_masks(algebra: FiniteAlgebra) -> Iterator[int]:
    """Every subuniverse as an int bitmask, ascending, each closed only when
    the one before it has been taken."""
    return closed_sets(
        algebra.size,
        _generated(algebra, ()),
        lambda s, a: _close(algebra, s, (a,), ((1 << a) - 1) & ~s),
    )


def negative_cone(algebra: FiniteAlgebra) -> tuple[FiniteAlgebra, tuple[int, ...]]:
    """The Brouwerian algebra on the elements below the identity, with the
    relativized residual; returns it with the carrier injection.

    On negatives fusion coincides with meet, so the cone's monoid operation
    is the restricted meet.  A bounded input yields a Heyting cone.
    """
    carrier = algebra.below_e
    back = {x: i for i, x in enumerate(carrier)}
    k = len(carrier)
    meet = _restricted(algebra.meet, carrier, back)
    join = _restricted(algebra.join, carrier, back)
    # the residual relativized: (a -> b) meet e
    residual = _restricted(algebra.residual, carrier, [back[row[algebra.e]] for row in algebra.meet])
    cone = FiniteAlgebra(
        size=k,
        meet=meet,
        join=join,
        fusion=meet,
        residual=residual,
        e=back[algebra.e],
        neg=None,
        bottom=None if algebra.bottom is None else back[algebra.bottom],
        signature=Signature(False, algebra.signature.has_bottom),
        name=None if algebra.name is None else f"{algebra.name}⁻",
    )
    return cone, carrier


def is_negatively_generated(algebra: FiniteAlgebra) -> bool:
    """Does the negative cone generate the whole algebra?"""
    return _generated(algebra, algebra.below_e) == (1 << algebra.size) - 1


@dataclass(frozen=True)
class ConeQuotientIso:
    """Mutually inverse isomorphisms between the cone of a quotient and the
    quotient of the cone."""

    quotient_cone: FiniteAlgebra         # (A/F)^- as an algebra
    quotient_cone_carrier: tuple[int, ...]
    cone_quotient: FiniteAlgebra         # A^- / (A^- ∩ F)
    forward: tuple[int, ...]             # (A/F)^- index -> cone-quotient index
    backward: tuple[int, ...]


def cone_quotient_iso(algebra: FiniteAlgebra, flt: DeductiveFilter) -> ConeQuotientIso:
    """Build and verify the isomorphism (A/F)^- = A^-/(A^- ∩ F) given by
    a/F -> (a meet e)/(A^- ∩ F), with inverse a -> a/F.

    Also verifies that the trace on the cone of the filter generated in the
    full algebra by a cone filter is that cone filter again.  Failures raise
    VerificationFailure: both facts are theorems.
    """
    cone, carrier = negative_cone(algebra)
    back = {x: i for i, x in enumerate(carrier)}

    trace = frozenset(back[x] for x in flt.members if x in back)
    cone_filter = deductive_filter(cone, trace)

    # trace of the generated filter equals the original cone filter
    regenerated = generated_filter(algebra, [carrier[i] for i in trace])
    if frozenset(back[x] for x in regenerated.members if x in back) != trace:
        raise VerificationFailure("cone trace of the generated filter changed")

    _, q = quotient(algebra, flt)
    cone_q, cone_q_map = quotient(cone, cone_filter)
    failed = "cone/quotient isomorphism check failed"
    q_cone, q_carrier, forward = _identify_cones(q, back, cone_q_map, failed, failed)
    q_back = {x: i for i, x in enumerate(q_carrier)}
    backward = [-1] * cone_q.size
    for i, x in enumerate(carrier):
        backward[cone_q_map.mapping[i]] = q_back[q.mapping[x]]
    # `forward` is a bijective homomorphism, so this makes `backward` its
    # inverse, and a homomorphism too
    if any(backward[v] != u for u, v in enumerate(forward)):
        raise VerificationFailure(failed)
    return ConeQuotientIso(
        quotient_cone=q_cone,
        quotient_cone_carrier=q_carrier,
        cone_quotient=cone_q,
        forward=forward,
        backward=tuple(backward),
    )


def _identify_cones(quotient_map, cone_local, cone_quotient_map, not_onto, not_hom):
    """The map (A/F)^- -> A^-/(A^- ∩ F) sending the class u to the class of
    (a meet e) for any a in u, by (A/F)^- index, with (A/F)^- and its
    carrier in A/F.  `quotient_map` is A -> A/F, `cone_quotient_map` is
    A^- -> A^-/(A^- ∩ F), and `cone_local` indexes A^- by element of A.  A
    map that is not a bijection raises `not_onto`, one that is not a
    homomorphism `not_hom`; the bottom counts when the cone quotient has one."""
    meet, e = quotient_map.source.meet, quotient_map.source.e
    target = cone_quotient_map.target
    q_cone, q_carrier = negative_cone(quotient_map.target)
    if target.bottom is None:
        q_cone = brouwerian_reduct(q_cone)
    forward = tuple(
        cone_quotient_map.mapping[cone_local[meet[quotient_map.mapping.index(u)][e]]]
        for u in q_carrier
    )
    if sorted(forward) != list(target.elements):
        raise VerificationFailure(not_onto)
    if not is_homomorphism(q_cone, target, forward):
        raise VerificationFailure(not_hom)
    return q_cone, q_carrier, forward
