"""The reflection construction: embed an unbounded, involution-free algebra
into an involutive one on a disjoint primed copy plus new extremes.

Layout of the result's carrier is fixed: index 0 is the new bottom, indices
1..n are the base block (in base order), n+1..2n the primed block, 2n+1 the
new top.  The new extremes are term-definable (the square of the negated
identity, and its negation), so every subalgebra of a reflection contains
them.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable

from .core import (
    FiniteAlgebra,
    Homomorphism,
    Signature,
    _subalgebra,
    is_subuniverse,
    subalgebra,
)
from .cones import all_subuniverses
from .errors import NotASubalgebra, VerificationFailure, WrongSignature
from .filters import (
    Congruence,
    all_congruences,
    is_congruence,
    quotient_by_congruence,
    _normalize_blocks,
)
from .varieties import VarietySpec, is_epic_subalgebra


@dataclass(frozen=True)
class ReflectionAlgebra:
    """A reflected algebra with its base and the tag of every result index."""

    base: FiniteAlgebra
    algebra: FiniteAlgebra
    tags: tuple[tuple, ...]

    def base_index(self, a: int) -> int:
        return 1 + a

    def primed_index(self, a: int) -> int:
        return self.base.size + 1 + a

    @property
    def bottom_index(self) -> int:
        return 0

    @property
    def top_index(self) -> int:
        return 2 * self.base.size + 1


def reflect(base: FiniteAlgebra) -> ReflectionAlgebra:
    """Build the reflection of an unbounded involution-free algebra."""
    if base.signature != Signature(False, False):
        raise WrongSignature("reflection needs an involution-free unbounded algebra")
    n = base.size
    size = 2 * n + 2
    bot, top = 0, 2 * n + 1
    based, primed = tuple(range(1, n + 1)), tuple(range(n + 1, 2 * n + 1))  # index of a
    tags = (
        ("bot",), *(("base", a) for a in range(n)), *(("primed", a) for a in range(n)), ("top",)
    )
    neg = (top, *primed, *based, bot)

    # each table row by blocks (bottom, base, primed, top), from base rows
    lift = lambda block, row: tuple(map(block.__getitem__, row))
    # the ordinal sum bottom < base < primed (reversed) < top
    meet = (
        (bot,) * size,
        *((bot, *lift(based, base.meet[a]), *(based[a],) * (n + 1)) for a in range(n)),
        *((bot, *based, *lift(primed, base.join[a]), primed[a]) for a in range(n)),
        tuple(range(size)),
    )
    # a * b' = b' * a = (a -> b)', and the product of two primed elements is the top
    columns = tuple(zip(*base.residual))
    fusion = (
        (bot,) * size,
        *((bot, *lift(based, base.fusion[a]), *lift(primed, base.residual[a]), top)
          for a in range(n)),
        *((bot, *lift(primed, columns[a]), *(top,) * (n + 1)) for a in range(n)),
        (bot, *(top,) * (size - 1)),
    )
    # neg reverses the order, so it turns meets into joins (De Morgan), and
    # x -> y = (x * y')'; the row of x is read at neg[y] and negated
    at_neg = itemgetter(*neg)
    dual = lambda row: lift(neg, at_neg(row))
    join = tuple(dual(meet[x]) for x in neg)
    residual = tuple(map(dual, fusion))
    result = FiniteAlgebra(
        size=size,
        meet=meet,
        join=join,
        fusion=fusion,
        residual=residual,
        e=based[base.e],
        neg=neg,
        signature=Signature(True, False),
        name=None if base.name is None else f"reflection({base.name})",
    )
    return ReflectionAlgebra(base=base, algebra=result, tags=tags)


def reflect_subalgebra(
    refl: ReflectionAlgebra, members: Iterable[int]
) -> tuple[frozenset[int], Homomorphism]:
    """The subuniverse of the reflection induced by a base subuniverse,
    verified isomorphic to the reflection of the subalgebra."""
    base_mask = sorted(set(members))
    if not is_subuniverse(refl.base, base_mask):
        raise NotASubalgebra(f"{base_mask} is not a subuniverse of the base")
    lifted = frozenset(
        {refl.bottom_index, refl.top_index}
        | {refl.base_index(a) for a in base_mask}
        | {refl.primed_index(a) for a in base_mask}
    )
    sub, _ = subalgebra(refl.algebra, lifted)
    base_sub, _ = _subalgebra(refl.base, base_mask)
    copy = reflect(base_sub).algebra
    # sorted, the lifted carrier is bottom, B, B', top: the copy's own layout
    if copy != sub:
        raise VerificationFailure("lifted subalgebra is not a reflection copy")
    return lifted, Homomorphism(copy, sub, tuple(copy.elements))


def subalgebra_census_matches(refl: ReflectionAlgebra) -> bool:
    """Every subuniverse of the reflection arises from a base subuniverse."""
    expected = set()
    for mask in all_subuniverses(refl.base):
        lifted, _ = reflect_subalgebra(refl, mask)
        expected.add(lifted)
    return set(all_subuniverses(refl.algebra)) == expected


def reflect_congruence(refl: ReflectionAlgebra, congruence: Congruence) -> Congruence:
    """Duplicate a base congruence onto the primed block, keeping the new
    extremes in singleton classes; verified to be a congruence whose
    quotient is the reflection of the base quotient."""
    n = refl.base.size
    raw = [0] * (2 * n + 2)
    shift = congruence.block_count
    raw[refl.bottom_index] = 2 * shift
    raw[refl.top_index] = 2 * shift + 1
    for a in range(n):
        raw[refl.base_index(a)] = congruence.blocks[a]
        raw[refl.primed_index(a)] = shift + congruence.blocks[a]
    blocks = _normalize_blocks(raw)
    if not is_congruence(refl.algebra, blocks):
        raise VerificationFailure("reflected relation is not a congruence")
    lifted = Congruence(refl.algebra, blocks)
    base_quotient, _ = quotient_by_congruence(refl.base, congruence)
    big_quotient, _ = quotient_by_congruence(refl.algebra, lifted)
    # first-occurrence block ids run bottom, base blocks, primed blocks, top
    if reflect(base_quotient).algebra != big_quotient:
        raise VerificationFailure("reflected quotient is not a reflection copy")
    return lifted


def congruence_census_matches(refl: ReflectionAlgebra) -> bool:
    """Every proper congruence of the reflection is a reflected base
    congruence; the only extra one is the total relation."""
    expected = {
        reflect_congruence(refl, theta).blocks
        for theta in all_congruences(refl.base)
    }
    expected.add(tuple(0 for _ in range(refl.algebra.size)))
    return {c.blocks for c in all_congruences(refl.algebra)} == expected


def reflection_epic_transfer(
    algebra: FiniteAlgebra, members: Iterable[int], generators: Iterable[FiniteAlgebra]
) -> tuple[bool, bool]:
    """Evaluate epicity of a subalgebra on the base side and on the
    reflected side; the verdicts provably agree, so disagreement raises."""
    gens = tuple(generators)
    base_verdict = is_epic_subalgebra(algebra, members, VarietySpec(gens))
    refl = reflect(algebra)
    lifted, _ = reflect_subalgebra(refl, members)
    lifted_spec = VarietySpec(tuple(reflect(g).algebra for g in gens))
    refl_verdict = is_epic_subalgebra(refl.algebra, lifted, lifted_spec)
    if base_verdict != refl_verdict:
        raise VerificationFailure("epicity transfer verdicts disagree")
    return base_verdict, refl_verdict
