"""Negative cones, subalgebra generation with witness terms, and the
cone/quotient isomorphism, whose map `_identify_cones` builds and checks
for `cone_quotient_iso` and for the retract square of `epi_analysis`.

Witness terms are minimal-size and first-found in a deterministic closure
order; ties break by operation order meet < join < fusion < residual < neg.
Generators always receive bare-variable witnesses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from .core import FiniteAlgebra, Signature, brouwerian_reduct, closed_sets, is_homomorphism
from .errors import NotASubalgebra, UnboundVariable, VerificationFailure
from .filters import (
    DeductiveFilter,
    deductive_filter,
    generated_filter,
    quotient,
)


@dataclass(frozen=True)
class Var:
    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Const:
    kind: str  # "e" or "bot"

    def __str__(self) -> str:
        return "e" if self.kind == "e" else "bot"


@dataclass(frozen=True)
class BinOp:
    op: str  # "meet" | "join" | "fusion" | "residual"
    left: "Term"
    right: "Term"

    def __str__(self) -> str:
        sym = {"meet": "∧", "join": "∨", "fusion": "·", "residual": "→"}[self.op]
        return f"({self.left} {sym} {self.right})"


@dataclass(frozen=True)
class NegOp:
    child: "Term"

    def __str__(self) -> str:
        return f"¬{self.child}"


Term = Var | Const | BinOp | NegOp

_BINARY_ORDER = ("meet", "join", "fusion", "residual")


def term_size(term: Term) -> int:
    if isinstance(term, (Var, Const)):
        return 1
    if isinstance(term, NegOp):
        return 1 + term_size(term.child)
    return 1 + term_size(term.left) + term_size(term.right)


def term_variables(term: Term) -> frozenset[str]:
    if isinstance(term, Var):
        return frozenset((term.name,))
    if isinstance(term, Const):
        return frozenset()
    if isinstance(term, NegOp):
        return term_variables(term.child)
    return term_variables(term.left) | term_variables(term.right)


def eval_term(algebra: FiniteAlgebra, term: Term, assignment: dict[str, int]) -> int:
    """Standard bottom-up evaluation."""
    if isinstance(term, Var):
        if term.name not in assignment:
            raise UnboundVariable(f"variable {term.name} is unbound")
        return assignment[term.name]
    if isinstance(term, Const):
        if term.kind == "e":
            return algebra.e
        if algebra.bottom is None:
            raise UnboundVariable("bot constant outside a bounded signature")
        return algebra.bottom
    if isinstance(term, NegOp):
        if algebra.neg is None:
            raise UnboundVariable("negation outside an involutive signature")
        return algebra.neg[eval_term(algebra, term.child, assignment)]
    table = getattr(algebra, term.op)
    return table[eval_term(algebra, term.left, assignment)][eval_term(algebra, term.right, assignment)]


@dataclass
class GeneratedSubalgebra:
    """Generation closure of a set, with a minimal witness term per member
    and the generator assignment under which every witness evaluates."""

    parent: FiniteAlgebra
    generators: tuple[int, ...]
    members: frozenset[int]
    assignment: dict[str, int]
    witnesses: dict[int, Term] = field(default_factory=dict)

    def witness(self, element: int) -> Term:
        return self.witnesses[element]


def _close(algebra: FiniteAlgebra, closed: frozenset[int], new: Iterable[int]) -> frozenset[int]:
    """The subuniverse generated by a closed set and some new elements.

    Each round forms only the products that involve an element added in the
    round before, so pairs inside `closed` are never revisited."""
    members = set(closed)
    fresh = set(new) - members
    tables = (algebra.meet, algebra.join, algebra.fusion, algebra.residual)
    while fresh:
        members |= fresh
        listed = list(members)  # a list is faster to walk than a set
        found = set()
        if algebra.neg is not None:
            for a in fresh:
                if algebra.neg[a] not in members:
                    found.add(algebra.neg[a])
        for t in tables:
            for a in fresh:
                row = t[a]
                for b in listed:
                    if row[b] not in members:
                        found.add(row[b])
                    if t[b][a] not in members:
                        found.add(t[b][a])
        fresh = found
    return frozenset(members)


def subuniverse_closure(algebra: FiniteAlgebra, generators: Iterable[int]) -> frozenset[int]:
    """Closure of a set (plus constants) under all operations."""
    generators = list(generators)
    for a in generators:
        if not 0 <= a < algebra.size:
            raise NotASubalgebra(f"element {a} is outside 0..{algebra.size - 1} (size {algebra.size})")
    constants = (algebra.e,) if algebra.bottom is None else (algebra.e, algebra.bottom)
    return _close(algebra, frozenset(), (*generators, *constants))


def all_subuniverses(algebra: FiniteAlgebra) -> list[frozenset[int]]:
    """Every subuniverse, ordered by subset bitmask."""
    return closed_sets(
        algebra.size, subuniverse_closure(algebra, ()), lambda s, a: _close(algebra, s, (a,))
    )


def generate_subalgebra(
    algebra: FiniteAlgebra,
    generators: Iterable[int],
    distinguished: Optional[int] = None,
) -> GeneratedSubalgebra:
    """Closure with witness terms.

    Generators get bare variables y0, y1, ... in ascending element order; a
    distinguished generator gets the variable x instead.  Witnesses for the
    remaining members are found in order of term size.
    """
    gens = sorted(set(generators))
    assignment: dict[str, int] = {}
    witnesses: dict[int, Term] = {}
    j = 0
    for g in gens:
        if distinguished is not None and g == distinguished:
            name = "x"
        else:
            name = f"y{j}"
            j += 1
        assignment[name] = g
        witnesses.setdefault(g, Var(name))

    members = subuniverse_closure(algebra, gens)

    # size-1 constants for anything not already a generator
    if algebra.e not in witnesses:
        witnesses[algebra.e] = Const("e")
    if algebra.bottom is not None and algebra.bottom not in witnesses:
        witnesses[algebra.bottom] = Const("bot")

    by_size: dict[int, list[int]] = {1: [v for v in witnesses]}
    size = 1
    while len(witnesses) < len(members):
        size += 1
        found: list[int] = []

        def record(value: int, term: Term) -> None:
            if value not in witnesses:
                witnesses[value] = term
                found.append(value)

        realized = sorted(by_size)
        splits = [
            (ls, size - 1 - ls)
            for ls in realized
            if ls <= size - 2 and (size - 1 - ls) in by_size
        ]
        for op in _BINARY_ORDER:
            table = getattr(algebra, op)
            for left_size, right_size in splits:
                for a in by_size[left_size]:
                    for b in by_size[right_size]:
                        record(table[a][b], BinOp(op, witnesses[a], witnesses[b]))
        if algebra.neg is not None:
            for a in by_size.get(size - 1, ()):
                record(algebra.neg[a], NegOp(witnesses[a]))
        if found:
            by_size[size] = found
        # any still-missing member combines two witnessed ones, so it appears
        # at size <= 2*max(realized)+1
        if size > 2 * max(by_size) + 1:
            raise VerificationFailure("witness search failed to converge")

    return GeneratedSubalgebra(
        parent=algebra,
        generators=tuple(gens),
        members=members,
        assignment=assignment,
        witnesses=witnesses,
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
    meet = tuple(tuple(back[algebra.meet[a][b]] for b in carrier) for a in carrier)
    join = tuple(tuple(back[algebra.join[a][b]] for b in carrier) for a in carrier)
    residual = tuple(
        tuple(back[algebra.meet[algebra.residual[a][b]][algebra.e]] for b in carrier)
        for a in carrier
    )
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
    return subuniverse_closure(algebra, algebra.below_e) == frozenset(algebra.elements)


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
