"""Deductive filters, the filter-congruence correspondence, filter
generation, prime filters, quotients, and the FSI test.

Filters are stored as frozensets of element indices.  In a finite algebra
every deductive filter is the principal up-set of its minimum, which lies in
the negative cone; the enumeration and the filter test exploit this, and
`_least` is the one fold for that minimum.  The scans that check them are
test oracles (`tests/oracles.py`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Iterable

from .core import FiniteAlgebra, Homomorphism, _induced, _is_element, _join_irreducible, subalgebra
from .errors import NotAFilter, VerificationFailure


@dataclass(frozen=True)
class DeductiveFilter:
    """An upward-closed, meet-closed subset containing the identity."""

    algebra: FiniteAlgebra
    members: frozenset[int]

    @property
    def is_improper(self) -> bool:
        return len(self.members) == self.algebra.size

    def sorted_members(self) -> tuple[int, ...]:
        return tuple(sorted(self.members))


@dataclass(frozen=True)
class Congruence:
    """A partition compatible with every operation, as a block id per
    element; block ids are normalized to first-occurrence order."""

    algebra: FiniteAlgebra
    blocks: tuple[int, ...]

    @property
    def block_count(self) -> int:
        return max(self.blocks) + 1

    def classes(self) -> tuple[tuple[int, ...], ...]:
        out: list[list[int]] = [[] for _ in range(self.block_count)]
        for a, b in enumerate(self.blocks):
            out[b].append(a)
        return tuple(tuple(c) for c in out)

    def related(self, a: int, b: int) -> bool:
        return self.blocks[a] == self.blocks[b]

    @property
    def is_identity(self) -> bool:
        return self.block_count == self.algebra.size

    @property
    def is_total(self) -> bool:
        return self.block_count == 1


def _normalize_blocks(raw: Iterable[int]) -> tuple[int, ...]:
    seen: dict[int, int] = {}
    out = []
    for b in raw:
        if b not in seen:
            seen[b] = len(seen)
        out.append(seen[b])
    return tuple(out)


def is_deductive_filter(algebra: FiniteAlgebra, members: Iterable[int]) -> bool:
    """Equal to the filter it generates, the up-set of its meet with e, and
    so holding e, upward closed and meet closed.  False when a member is not
    an element: an int, not a bool, in 0..size-1."""
    mask = frozenset(members)
    return all(_is_element(algebra.size, a) for a in mask) and (
        mask == _up(algebra, _least(algebra, mask)).members
    )


def deductive_filter(algebra: FiniteAlgebra, members: Iterable[int]) -> DeductiveFilter:
    mask = frozenset(members)
    if not is_deductive_filter(algebra, mask):
        raise NotAFilter(f"{sorted(mask)} is not a deductive filter")
    return DeductiveFilter(algebra, mask)


def generated_filter(algebra: FiniteAlgebra, elements: Iterable[int]) -> DeductiveFilter:
    """Smallest deductive filter containing the given set: the principal
    up-set of the meet of the set and the identity."""
    elements = list(elements)
    for a in elements:
        if not _is_element(algebra.size, a):
            raise NotAFilter(f"element {a!r} is outside 0..{algebra.size - 1} (size {algebra.size})")
    return _up(algebra, _least(algebra, elements))


def _up(algebra: FiniteAlgebra, c: int) -> DeductiveFilter:
    """The filter ↑c of an element c <= e, unchecked."""
    return DeductiveFilter(algebra, frozenset(b for b in algebra.elements if algebra.leq(c, b)))


def _least(algebra: FiniteAlgebra, members: Iterable[int]) -> int:
    """The meet of the members and e: the least element of the filter they generate."""
    return reduce(lambda a, b: algebra.meet[a][b], members, algebra.e)


def all_deductive_filters(algebra: FiniteAlgebra) -> list[DeductiveFilter]:
    """Every deductive filter: the principal up-sets of negative-cone
    elements, ordered by sorted member tuples."""
    filters = [_up(algebra, c) for c in algebra.below_e]
    return sorted(filters, key=DeductiveFilter.sorted_members)


def is_prime_filter(algebra: FiniteAlgebra, members: frozenset[int]) -> bool:
    """Prime: the complement is closed under join."""
    outside = [a for a in algebra.elements if a not in members]
    return all(algebra.join[a][b] not in members for a in outside for b in outside)


def prime_deductive_filters(algebra: FiniteAlgebra, mode: str) -> list[DeductiveFilter]:
    """Prime deductive filters.

    pointed: includes the improper filter (the whole carrier);
    proper:   proper primes only (may be empty for the 1-element algebra).
    """
    if mode not in ("pointed", "proper"):
        raise ValueError(f"unknown mode {mode!r}")
    primes = [f for f in all_deductive_filters(algebra) if is_prime_filter(algebra, f.members)]
    if mode == "proper":
        primes = [f for f in primes if not f.is_improper]
    return primes


def leibniz_congruence(flt: DeductiveFilter) -> Congruence:
    """The congruence identifying a and b exactly when (a->b) meet (b->a)
    lies in the filter: the kernel of x |-> c*x, where c is the filter's
    least element (the meet of its members and e, so that an empty member
    set gives the identity).  The filter holds (a->b) meet (b->a) iff c <= a->b and
    c <= b->a, iff c*a <= b and c*b <= a.  Multiplied by c, as c*c = c,
    these give c*a = c*b; conversely c*a = c*b <= b and c*b <= a, as c <= e."""
    algebra = flt.algebra
    return Congruence(algebra, _normalize_blocks(algebra.fusion[_least(algebra, flt.members)]))


def congruence_filter(congruence: Congruence) -> DeductiveFilter:
    """Inverse direction of the correspondence: all a with a meet e congruent
    to e."""
    algebra = congruence.algebra
    members = frozenset(
        a for a in algebra.elements
        if congruence.related(algebra.meet[a][algebra.e], algebra.e)
    )
    return DeductiveFilter(algebra, members)


def is_congruence(algebra: FiniteAlgebra, blocks: tuple[int, ...]) -> bool:
    n = algebra.size
    if len(blocks) != n:
        return False
    same = lambda a, b: blocks[a] == blocks[b]
    for a in range(n):
        for b in range(a + 1, n):
            if not same(a, b):
                continue
            if algebra.neg is not None and not same(algebra.neg[a], algebra.neg[b]):
                return False
            for table in (algebra.meet, algebra.join, algebra.fusion, algebra.residual):
                for c in range(n):
                    if not same(table[a][c], table[b][c]):
                        return False
                    if not same(table[c][a], table[c][b]):
                        return False
    return True


def all_congruences(algebra: FiniteAlgebra) -> list[Congruence]:
    """Production enumeration through the filter correspondence."""
    return [leibniz_congruence(f) for f in all_deductive_filters(algebra)]


def quotient_by_congruence(
    algebra: FiniteAlgebra, congruence: Congruence
) -> tuple[FiniteAlgebra, Homomorphism]:
    """The quotient algebra and the canonical surjection."""
    reps = [members[0] for members in congruence.classes()]
    quotient = _induced(algebra, reps, congruence.blocks, "/θ")
    return quotient, Homomorphism(algebra, quotient, congruence.blocks)


def quotient(
    algebra: FiniteAlgebra, flt: DeductiveFilter
) -> tuple[FiniteAlgebra, Homomorphism]:
    """Quotient by the congruence paired with the filter."""
    return quotient_by_congruence(algebra, leibniz_congruence(flt))


def is_fsi(algebra: FiniteAlgebra) -> bool:
    """Finitely subdirectly irreducible: the identity is join-irreducible in
    the lattice reduct.  The 1-element algebra is not FSI, since its e is
    the empty join."""
    return _join_irreducible(algebra.meet, algebra.join, algebra.e)


def restrict_congruence(congruence: Congruence, carrier: list[int], sub: FiniteAlgebra) -> Congruence:
    """The restriction of a congruence to a subalgebra (given by its carrier
    in the parent's indices, ascending)."""
    return Congruence(sub, _normalize_blocks(congruence.blocks[x] for x in carrier))


@dataclass(frozen=True)
class QuotientEmbedding:
    """The injective map B/(mu|B) -> A/mu induced by a subalgebra inclusion,
    together with both quotients and their canonical surjections."""

    sub_algebra: FiniteAlgebra
    inclusion: Homomorphism
    sub_quotient: FiniteAlgebra
    sub_quotient_map: Homomorphism
    quotient: FiniteAlgebra
    quotient_map: Homomorphism
    embedding: Homomorphism


def restrict_quotient_embedding(
    algebra: FiniteAlgebra, members: Iterable[int], congruence: Congruence
) -> QuotientEmbedding:
    """For a subalgebra B and congruence mu of A, build the injective
    homomorphism B/(mu|B) -> A/mu sending b's class to b's class.

    Cross-checks that the restricted congruence is the one paired with the
    restricted filter (a theorem; failure means a bug)."""
    sub, inclusion = subalgebra(algebra, members)
    full = quotient_by_congruence(algebra, congruence)
    return _restrict_quotient_embedding(
        sub, inclusion, congruence, congruence_filter(congruence).members, full
    )


def _restrict_quotient_embedding(
    sub: FiniteAlgebra,
    inclusion: Homomorphism,
    congruence: Congruence,
    filter_members: frozenset[int],
    full: tuple[FiniteAlgebra, Homomorphism],
) -> QuotientEmbedding:
    """`restrict_quotient_embedding` on a subalgebra already built and
    checked, with the members of the congruence's filter and the parent's
    quotient by it, as a caller that keeps them per congruence passes them.
    The filter cross-check and the injectivity check still run."""
    carrier = list(inclusion.mapping)
    restricted = restrict_congruence(congruence, carrier, sub)
    trace = frozenset(i for i, x in enumerate(carrier) if x in filter_members)
    if leibniz_congruence(DeductiveFilter(sub, trace)) != restricted:
        raise VerificationFailure(
            "restricted congruence does not match the restricted filter"
        )

    sub_quotient, sub_map = quotient_by_congruence(sub, restricted)
    full_quotient, full_map = full
    embedding_map = [-1] * sub_quotient.size
    for i, x in enumerate(carrier):
        embedding_map[sub_map.mapping[i]] = full_map.mapping[x]
    embedding = Homomorphism(sub_quotient, full_quotient, tuple(embedding_map))
    if not embedding.is_injective:
        raise VerificationFailure("quotient embedding is not injective")
    return QuotientEmbedding(
        sub_algebra=sub,
        inclusion=inclusion,
        sub_quotient=sub_quotient,
        sub_quotient_map=sub_map,
        quotient=full_quotient,
        quotient_map=full_map,
        embedding=embedding,
    )
