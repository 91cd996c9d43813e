"""Finite subidempotent residuated lattices: representation, validation,
classification, and homomorphism search.

Elements of an algebra are the indices 0..n-1.  The lattice order is always
derived from the meet table; the join table is validated against it, so the
meet table is the single source of truth for the order.  The residual table
is stored, not recomputed: `residual_from_fusion` is both the
constructor-time deriver and the consistency oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable, Iterable, Optional, Sequence

from .errors import (
    DerivedLawFailure, MalformedTable, NotASubalgebra, NotResiduated, WrongSignature,
)

Table = tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class Signature:
    """Which optional pieces an algebra carries: an involution and/or a
    distinguished least element."""

    has_involution: bool = False
    has_bottom: bool = False


@dataclass(frozen=True)
class FiniteAlgebra:
    """A finite S[I]RL (optionally bounded) given by operation tables.

    `meet`, `join`, `fusion`, `residual` are n x n tables of element indices;
    `e` is the monoid identity; `neg` is the involution table when the
    signature has one; `bottom` is the distinguished least element when the
    signature is bounded.
    """

    size: int
    meet: Table
    join: Table
    fusion: Table
    residual: Table
    e: int
    neg: Optional[tuple[int, ...]] = None
    bottom: Optional[int] = None
    signature: Signature = Signature()
    name: Optional[str] = field(default=None, compare=False)

    @staticmethod
    def build(size, meet, join, fusion, residual, e, neg=None, bottom=None, name=None):
        """Construct from possibly-nested lists, deriving the signature."""
        to_table = lambda t: tuple(tuple(int(x) for x in row) for row in t)
        return FiniteAlgebra(
            size=size,
            meet=to_table(meet),
            join=to_table(join),
            fusion=to_table(fusion),
            residual=to_table(residual),
            e=int(e),
            neg=None if neg is None else tuple(int(x) for x in neg),
            bottom=None if bottom is None else int(bottom),
            signature=Signature(neg is not None, bottom is not None),
            name=name,
        )

    @property
    def elements(self) -> range:
        return range(self.size)

    def leq(self, a: int, b: int) -> bool:
        return self.meet[a][b] == a

    @cached_property
    def below_e(self) -> tuple[int, ...]:
        """The negative cone carrier: all elements <= e, ascending."""
        return tuple(a for a in self.elements if self.leq(a, self.e))

    @cached_property
    def _schedules(self) -> dict:
        """`_constraint_schedule` results of maps out of this algebra, by
        pinned set."""
        return {}

    def top(self) -> int:
        """In bounded mode the greatest element is bottom -> bottom; it is
        computed, never stored."""
        if self.bottom is None:
            raise WrongSignature("top() requires a bounded algebra")
        return self.residual[self.bottom][self.bottom]

    def f(self) -> int:
        """The negation of the identity (only in involutive signatures)."""
        if self.neg is None:
            raise WrongSignature("f() requires an involution")
        return self.neg[self.e]

    def iff(self, a: int, b: int) -> int:
        """(a -> b) meet (b -> a)."""
        return self.meet[self.residual[a][b]][self.residual[b][a]]


@dataclass(frozen=True)
class AxiomVerdict:
    axiom: str
    passed: bool
    law: Optional[str] = None
    witness: Optional[tuple[int, ...]] = None


@dataclass(frozen=True)
class AxiomReport:
    """Per-axiom-group verdicts; a failing verdict carries the violated law
    and the first witnessing tuple in row-major scan order."""

    verdicts: tuple[AxiomVerdict, ...]

    @property
    def ok(self) -> bool:
        return all(v.passed for v in self.verdicts)

    def failures(self) -> tuple[AxiomVerdict, ...]:
        return tuple(v for v in self.verdicts if not v.passed)

    def as_dict(self) -> dict:
        return {
            v.axiom: {
                "passed": v.passed,
                **({} if v.passed else {"law": v.law, "witness": list(v.witness or ())}),
            }
            for v in self.verdicts
        }


@dataclass(frozen=True)
class ClassFlags:
    integral: bool
    square_increasing: bool
    idempotent: bool
    distributive: bool
    brouwerian: bool
    dunn_monoid: bool
    de_morgan_monoid: bool
    sugihara_monoid: bool
    heyting: bool

    def as_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__dataclass_fields__}


@dataclass(frozen=True)
class Homomorphism:
    """A structure-preserving map given by `mapping[a] = image of a`."""

    source: FiniteAlgebra
    target: FiniteAlgebra
    mapping: tuple[int, ...]

    def __call__(self, a: int) -> int:
        return self.mapping[a]

    @property
    def is_injective(self) -> bool:
        return len(set(self.mapping)) == len(self.mapping)

    @property
    def is_surjective(self) -> bool:
        return len(set(self.mapping)) == self.target.size

    @property
    def is_bijective(self) -> bool:
        return self.is_injective and self.is_surjective

    def image(self) -> frozenset[int]:
        return frozenset(self.mapping)


def _covers(leq: Callable[[int, int], bool], elements: Iterable[int], a: int, b: int) -> bool:
    """b covers a under `leq`: a < b with no element strictly between."""
    return a != b and leq(a, b) and not any(
        z != a and z != b and leq(a, z) and leq(z, b) for z in elements
    )


def _check_shape(algebra: FiniteAlgebra) -> None:
    n = algebra.size
    if n < 1:
        raise MalformedTable("size must be positive")
    for label, table in (
        ("meet", algebra.meet),
        ("join", algebra.join),
        ("fusion", algebra.fusion),
        ("residual", algebra.residual),
    ):
        if len(table) != n or any(len(row) != n for row in table):
            raise MalformedTable(f"{label} table is not {n}x{n}")
        if any(not (0 <= x < n) for row in table for x in row):
            raise MalformedTable(f"{label} table has an out-of-range entry")
    if not (0 <= algebra.e < n):
        raise MalformedTable("identity element out of range")
    if algebra.signature.has_involution != (algebra.neg is not None):
        raise MalformedTable("signature and involution table disagree")
    if algebra.signature.has_bottom != (algebra.bottom is not None):
        raise MalformedTable("signature and bottom marker disagree")
    if algebra.neg is not None:
        if len(algebra.neg) != n or any(not (0 <= x < n) for x in algebra.neg):
            raise MalformedTable("involution table malformed")
    if algebra.bottom is not None and not (0 <= algebra.bottom < n):
        raise MalformedTable("bottom element out of range")


def _check_semilattice(table: Table, n: int, label: str) -> None:
    for a in range(n):
        if table[a][a] != a:
            raise MalformedTable(f"{label} not idempotent at {a}")
    for a in range(n):
        for b in range(n):
            if table[a][b] != table[b][a]:
                raise MalformedTable(f"{label} not commutative at ({a}, {b})")
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if table[table[a][b]][c] != table[a][table[b][c]]:
                    raise MalformedTable(f"{label} not associative at ({a}, {b}, {c})")


def derive_order(algebra: FiniteAlgebra) -> frozenset[tuple[int, int]]:
    """The partial order a <= b iff meet(a, b) = a.

    Raises MalformedTable if the meet table is not a semilattice table; the
    join table is checked by `validate`, not here.
    """
    _check_shape(algebra)
    _check_semilattice(algebra.meet, algebra.size, "meet")
    return frozenset(
        (a, b)
        for a in algebra.elements
        for b in algebra.elements
        if algebra.meet[a][b] == a
    )


def _first_failure(checks) -> Optional[tuple[str, tuple[int, ...]]]:
    """Run (law, witness-iterator) pairs; return the first failing witness."""
    for law, witnesses in checks:
        for w in witnesses:
            return (law, w)
    return None


def validate(algebra: FiniteAlgebra) -> AxiomReport:
    """Check every defining axiom; shape and range violations raise
    MalformedTable, axiom violations are reported with witnesses."""
    _check_shape(algebra)
    n = algebra.size
    rng = range(n)
    meet, join = algebra.meet, algebra.join
    fus, res = algebra.fusion, algebra.residual
    e = algebra.e
    leq = lambda a, b: meet[a][b] == a

    verdicts = []

    def add(axiom: str, checks) -> None:
        failure = _first_failure(checks)
        if failure is None:
            verdicts.append(AxiomVerdict(axiom, True))
        else:
            law, witness = failure
            verdicts.append(AxiomVerdict(axiom, False, law, witness))

    add(
        "lattice",
        [
            ("meet idempotent", ((a,) for a in rng if meet[a][a] != a)),
            ("join idempotent", ((a,) for a in rng if join[a][a] != a)),
            ("meet commutative", ((a, b) for a in rng for b in rng if meet[a][b] != meet[b][a])),
            ("join commutative", ((a, b) for a in rng for b in rng if join[a][b] != join[b][a])),
            (
                "meet associative",
                ((a, b, c) for a in rng for b in rng for c in rng
                 if meet[meet[a][b]][c] != meet[a][meet[b][c]]),
            ),
            (
                "join associative",
                ((a, b, c) for a in rng for b in rng for c in rng
                 if join[join[a][b]][c] != join[a][join[b][c]]),
            ),
            ("absorption meet-join", ((a, b) for a in rng for b in rng if meet[a][join[a][b]] != a)),
            ("absorption join-meet", ((a, b) for a in rng for b in rng if join[a][meet[a][b]] != a)),
        ],
    )
    add(
        "monoid",
        [
            ("fusion commutative", ((a, b) for a in rng for b in rng if fus[a][b] != fus[b][a])),
            (
                "fusion associative",
                ((a, b, c) for a in rng for b in rng for c in rng
                 if fus[fus[a][b]][c] != fus[a][fus[b][c]]),
            ),
            ("identity neutral", ((a,) for a in rng if fus[e][a] != a)),
        ],
    )
    add(
        "residuation",
        [
            (
                "a*b <= c iff a <= b->c",
                ((a, b, c) for a in rng for b in rng for c in rng
                 if leq(fus[a][b], c) != leq(a, res[b][c])),
            ),
        ],
    )
    add(
        "subidempotence",
        [
            ("a <= e implies a*a = a", ((a,) for a in rng if leq(a, e) and fus[a][a] != a)),
        ],
    )
    if algebra.neg is not None:
        neg = algebra.neg
        add(
            "involution",
            [
                ("neg involutive", ((a,) for a in rng if neg[neg[a]] != a)),
                (
                    "contraposition a->~b = b->~a",
                    ((a, b) for a in rng for b in rng if res[a][neg[b]] != res[b][neg[a]]),
                ),
            ],
        )
    if algebra.bottom is not None:
        bot = algebra.bottom
        add("bound", [("bottom least", ((a,) for a in rng if not leq(bot, a)))])
    return AxiomReport(tuple(verdicts))


# The postulates every valid algebra satisfies (a consistency oracle, not a
# filter): failures raise DerivedLawFailure because they indicate a bug.
_DERIVED_LAW_NAMES = (
    "fusion distributes over join",
    "residual distributes over meet (2nd argument)",
    "residual turns join into meet (1st argument)",
    "a <= b iff e <= a->b",
    "a = b iff e <= (a->b) meet (b->a)",
    "e <= a->a and e->a = a",
    "negatives: a,b <= e implies a meet b = a*b",
)


def derived_laws(algebra: FiniteAlgebra) -> AxiomReport:
    """Exhaustively check the postulates that follow from the axioms.

    Requires `validate(algebra).ok`.  Any failure raises DerivedLawFailure,
    since these laws are theorems.
    """
    n = algebra.size
    rng = range(n)
    meet, join = algebra.meet, algebra.join
    fus, res = algebra.fusion, algebra.residual
    e = algebra.e
    leq = lambda a, b: meet[a][b] == a

    checks = [
        (
            _DERIVED_LAW_NAMES[0],
            ((a, b, c) for a in rng for b in rng for c in rng
             if fus[a][join[b][c]] != join[fus[a][b]][fus[a][c]]),
        ),
        (
            _DERIVED_LAW_NAMES[1],
            ((a, b, c) for a in rng for b in rng for c in rng
             if res[a][meet[b][c]] != meet[res[a][b]][res[a][c]]),
        ),
        (
            _DERIVED_LAW_NAMES[2],
            ((a, b, c) for a in rng for b in rng for c in rng
             if res[join[a][b]][c] != meet[res[a][c]][res[b][c]]),
        ),
        (
            _DERIVED_LAW_NAMES[3],
            ((a, b) for a in rng for b in rng if leq(a, b) != leq(e, res[a][b])),
        ),
        (
            _DERIVED_LAW_NAMES[4],
            ((a, b) for a in rng for b in rng if (a == b) != leq(e, algebra.iff(a, b))),
        ),
        (
            _DERIVED_LAW_NAMES[5],
            ((a,) for a in rng if not leq(e, res[a][a]) or res[e][a] != a),
        ),
        (
            _DERIVED_LAW_NAMES[6],
            ((a, b) for a in rng for b in rng
             if leq(a, e) and leq(b, e) and meet[a][b] != fus[a][b]),
        ),
    ]
    verdicts = []
    for law, witnesses in checks:
        witness = next(iter(witnesses), None)
        if witness is not None:
            raise DerivedLawFailure(f"derived law failed: {law} at {witness}")
        verdicts.append(AxiomVerdict(law, True))
    return AxiomReport(tuple(verdicts))


def residual_from_fusion(size: int, meet: Table, fusion: Table) -> Table:
    """Derive the residual table: residual(b, c) is the maximum a with
    fusion(a, b) <= c.  Raises NotResiduated at the first pair (row-major)
    with no maximum witness."""
    rng = range(size)
    rows = []
    for b in rng:
        products = [fusion[a][b] for a in rng]
        row = []
        for c in rng:
            candidates = [a for a in rng if meet[products[a]][c] == products[a]]
            best = None
            for a in candidates:  # the maximum, when there is one, ends here
                if best is None or meet[best][a] == best:
                    best = a
            if best is None or not all(meet[a][best] == a for a in candidates):
                raise NotResiduated(b, c)
            row.append(best)
        rows.append(tuple(row))
    return tuple(rows)


def classify(algebra: FiniteAlgebra) -> ClassFlags:
    """Compute class membership flags by exhaustive checks of the defining
    conditions.  Requires `validate(algebra).ok`."""
    n = algebra.size
    rng = range(n)
    meet, join, fus = algebra.meet, algebra.join, algebra.fusion
    e = algebra.e
    leq = lambda a, b: meet[a][b] == a

    integral = all(leq(a, e) for a in rng)
    square_increasing = all(leq(a, fus[a][a]) for a in rng)
    idempotent = all(fus[a][a] == a for a in rng)
    distributive = all(
        meet[a][join[b][c]] == join[meet[a][b]][meet[a][c]]
        for a in rng
        for b in rng
        for c in rng
    )
    invol = algebra.signature.has_involution
    brouwerian = integral and not invol
    return ClassFlags(
        integral=integral,
        square_increasing=square_increasing,
        idempotent=idempotent,
        distributive=distributive,
        brouwerian=brouwerian,
        dunn_monoid=distributive and square_increasing and not invol,
        de_morgan_monoid=distributive and square_increasing and invol,
        sugihara_monoid=distributive and square_increasing and invol and idempotent,
        heyting=brouwerian and algebra.signature.has_bottom,
    )


def _binary_tables(algebra: FiniteAlgebra) -> tuple[Table, ...]:
    return (algebra.meet, algebra.join, algebra.fusion, algebra.residual)


def is_homomorphism(source: FiniteAlgebra, target: FiniteAlgebra, mapping: Sequence[int]) -> bool:
    """Validator: does the map preserve every operation of the common
    signature, including the constants?"""
    if source.signature != target.signature or len(mapping) != source.size:
        return False
    if mapping[source.e] != target.e:
        return False
    if source.bottom is not None and mapping[source.bottom] != target.bottom:
        return False
    if source.neg is not None:
        for a in source.elements:
            if mapping[source.neg[a]] != target.neg[mapping[a]]:
                return False
    for s_table, t_table in zip(_binary_tables(source), _binary_tables(target)):
        for a in source.elements:
            for b in source.elements:
                if mapping[s_table[a][b]] != t_table[mapping[a]][mapping[b]]:
                    return False
    return True


def identity_homomorphism(algebra: FiniteAlgebra) -> Homomorphism:
    return Homomorphism(algebra, algebra, tuple(algebra.elements))


def compose(outer: Homomorphism, inner: Homomorphism) -> Homomorphism:
    """outer after inner."""
    if inner.target != outer.source:
        raise WrongSignature("composition endpoints do not match")
    return Homomorphism(
        inner.source, outer.target, tuple(outer.mapping[x] for x in inner.mapping)
    )


def _constraint_schedule(source: FiniteAlgebra, pinned: frozenset[int]) -> tuple:
    """The constraints of a map out of `source`, filed for `_map_search`.

    A constraint is `(t, a, b, r)` with `r = table_t[a][b]` for each of the
    four binary tables (t indexes `_binary_tables`), or `(a, neg[a])` for the
    involution.  Each is filed under the largest unpinned element it
    mentions, or in the pre-check when all of its elements are pinned.
    Returns `(pre, slots)`: `pre` and each `slots[x]` is a pair (table
    constraints, involution constraints).  Built once per pinned set and
    kept on the source."""
    schedule = source._schedules.get(pinned)
    if schedule is not None:
        return schedule
    n = source.size
    rank = [-1 if y in pinned else y for y in range(n)]
    checks = [[] for _ in range(n + 1)]  # index -1, the last, is the pre-check
    negs = [[] for _ in range(n + 1)]
    tables = _binary_tables(source)
    for t in (3, 2, 1, 0):  # residual first: it rejects a partial map most often
        table = tables[t]
        for a in range(n):
            row, rank_a = table[a], rank[a]
            for b in range(n):
                r = row[b]
                checks[max(rank_a, rank[b], rank[r])].append((t, a, b, r))
    if source.neg is not None:
        for a, na in enumerate(source.neg):
            negs[max(rank[a], rank[na])].append((a, na))
    slots = [(tuple(c), tuple(v)) for c, v in zip(checks, negs)]
    schedule = source._schedules[pinned] = (slots.pop(), slots)
    return schedule


def _map_search(source, target, pins, candidates, injective):
    """Every map source -> target that sends each pinned element to its pin,
    each other element a to a value in `candidates[a]` (no value used twice
    when `injective`), and preserves every operation, in lexicographic order
    by map array.

    The unpinned elements are assigned in ascending order, so every
    constraint becomes fully assigned at one known element: the largest
    unpinned element it mentions.  `_constraint_schedule` files each
    constraint there, and a search node checks only the constraints of the
    element it has just assigned.  Constraints among pinned elements alone
    are checked once, before the search.  Every constraint is thus checked
    exactly once on every path, as soon as all of its elements have values."""
    mapping = [-1] * source.size
    for k, v in pins.items():
        mapping[k] = v
    pre, slots = _constraint_schedule(source, frozenset(pins))
    tables = _binary_tables(target)
    tneg = target.neg
    free = [a for a in source.elements if mapping[a] < 0]

    def holds(slot) -> bool:
        checks, negs = slot
        for t, a, b, r in checks:
            if tables[t][mapping[a]][mapping[b]] != mapping[r]:
                return False
        for a, na in negs:
            if tneg[mapping[a]] != mapping[na]:
                return False
        return True

    if not holds(pre):
        return
    if not free:
        yield Homomorphism(source, target, tuple(mapping))
        return
    # Depth-first, one candidate iterator per assigned level.  A loop, not
    # recursion: a self-referencing closure would be a reference cycle that
    # keeps the source, and its schedules, alive until the next collection.
    levels = [iter(candidates[free[0]])]
    while levels:
        i = len(levels) - 1
        x = free[i]
        for v in levels[i]:
            if injective and v in mapping:
                continue
            mapping[x] = v
            if holds(slots[x]):
                break
            mapping[x] = -1
        else:  # level i is exhausted: go on with level i - 1's next candidate
            levels.pop()
            if i:
                mapping[free[i - 1]] = -1
            continue
        if i + 1 < len(free):
            levels.append(iter(candidates[free[i + 1]]))
        else:
            yield Homomorphism(source, target, tuple(mapping))
            mapping[x] = -1


def _homomorphism_search(source, target, partial=None, injective=False):
    """The maps of `homomorphisms`, lazily, in the same order."""
    if source.signature != target.signature:
        raise WrongSignature("homomorphism search requires a common signature")
    pins = {source.e: target.e}
    if source.bottom is not None:
        pins[source.bottom] = target.bottom
    for k, v in (partial or {}).items():
        if pins.get(k, v) != v:
            return
        pins[k] = v
    for k, v in pins.items():
        if not (0 <= k < source.size and 0 <= v < target.size):
            return
    if injective and len(set(pins.values())) < len(pins):
        return
    candidates = [target.elements] * source.size
    yield from _map_search(source, target, pins, candidates, injective)


def homomorphisms(
    source: FiniteAlgebra,
    target: FiniteAlgebra,
    partial: Optional[dict[int, int]] = None,
    injective: bool = False,
) -> list[Homomorphism]:
    """All total homomorphisms extending `partial`, in lexicographic order by
    map array.  Backtracking prunes on every operation table."""
    return list(_homomorphism_search(source, target, partial, injective))


def find_isomorphism(a: FiniteAlgebra, b: FiniteAlgebra) -> Optional[Homomorphism]:
    """The first bijective homomorphism a -> b in lexicographic order by map
    array, or None when there is none."""
    if a.signature != b.signature:
        raise WrongSignature("isomorphism search requires a common signature")
    if a.size != b.size:
        return None
    return next(_homomorphism_search(a, b, injective=True), None)


def is_subuniverse(algebra: FiniteAlgebra, members: Iterable[int]) -> bool:
    """Closed under all operations and containing every constant."""
    mask = set(members)
    if not mask or algebra.e not in mask:
        return False
    if algebra.bottom is not None and algebra.bottom not in mask:
        return False
    if any(not (0 <= x < algebra.size) for x in mask):
        return False
    if algebra.neg is not None and any(algebra.neg[a] not in mask for a in mask):
        return False
    for table in _binary_tables(algebra):
        for a in mask:
            for b in mask:
                if table[a][b] not in mask:
                    return False
    return True


def closed_sets(
    size: int, least: frozenset[int], extend: Callable[[frozenset[int], int], frozenset[int]]
) -> list[frozenset[int]]:
    """Every closed set of a closure system on 0..size-1, ordered by subset
    bitmask.  `least` is the least closed set and `extend(s, a)` the least
    closed set containing the closed set `s` and the element `a`.

    Every closed set is reached from `least` by adding missing elements one
    at a time, so the cost follows the number of closed sets, not 2^size."""
    found = [least]
    seen = {least}
    for s in found:  # `found` grows while it is walked: a breadth-first search
        for a in range(size):
            if a not in s:
                t = extend(s, a)
                if t not in seen:
                    seen.add(t)
                    found.append(t)
    return sorted(found, key=lambda s: sum(1 << a for a in s))


def subalgebra(algebra: FiniteAlgebra, members: Iterable[int]) -> tuple[FiniteAlgebra, Homomorphism]:
    """Restrict to a subuniverse; returns the subalgebra (re-indexed in
    ascending carrier order) and the inclusion homomorphism."""
    carrier = sorted(set(members))
    if not is_subuniverse(algebra, carrier):
        raise NotASubalgebra(f"{carrier} is not a subuniverse")
    return _subalgebra(algebra, carrier)


def _subalgebra(algebra: FiniteAlgebra, carrier: list[int]) -> tuple[FiniteAlgebra, Homomorphism]:
    """`subalgebra` on an ascending carrier already known to be a
    subuniverse, such as a mask from `closed_sets`: no closure check."""
    sub = _induced(algebra, carrier, {x: i for i, x in enumerate(carrier)}, f"|{carrier}")
    return sub, Homomorphism(sub, algebra, tuple(carrier))


def _induced(algebra: FiniteAlgebra, reps: Sequence[int], cls, suffix: str) -> FiniteAlgebra:
    """The algebra on `reps`, whose element i stands for `reps[i]` and each
    operation's value x for `cls[x]`: a subalgebra when `cls` gives positions
    in a subuniverse, a quotient when `reps` holds one element per block and
    `cls` the blocks.  Named by `suffix` after the parent, if that is named."""
    table = lambda t: tuple(tuple(cls[t[a][b]] for b in reps) for a in reps)
    return FiniteAlgebra(
        size=len(reps),
        meet=table(algebra.meet),
        join=table(algebra.join),
        fusion=table(algebra.fusion),
        residual=table(algebra.residual),
        e=cls[algebra.e],
        neg=None if algebra.neg is None else tuple(cls[algebra.neg[a]] for a in reps),
        bottom=None if algebra.bottom is None else cls[algebra.bottom],
        signature=algebra.signature,
        name=None if algebra.name is None else algebra.name + suffix,
    )


def direct_product(a: FiniteAlgebra, b: FiniteAlgebra) -> FiniteAlgebra:
    """Componentwise product (used by tests for join-irreducibility checks)."""
    if a.signature != b.signature:
        raise WrongSignature("product requires a common signature")
    pairs = [(x, y) for x in a.elements for y in b.elements]
    index = {p: i for i, p in enumerate(pairs)}
    prod_table = lambda ta, tb: tuple(
        tuple(index[(ta[x1][x2], tb[y1][y2])] for (x2, y2) in pairs) for (x1, y1) in pairs
    )
    return FiniteAlgebra(
        size=len(pairs),
        meet=prod_table(a.meet, b.meet),
        join=prod_table(a.join, b.join),
        fusion=prod_table(a.fusion, b.fusion),
        residual=prod_table(a.residual, b.residual),
        e=index[(a.e, b.e)],
        neg=None if a.neg is None else tuple(index[(a.neg[x], b.neg[y])] for (x, y) in pairs),
        bottom=None if a.bottom is None else index[(a.bottom, b.bottom)],
        signature=a.signature,
    )


def brouwerian_reduct(algebra: FiniteAlgebra) -> FiniteAlgebra:
    """Forget the bottom marker (the duality modes differ only in it)."""
    if algebra.bottom is None:
        return algebra
    return replace(
        algebra,
        bottom=None,
        signature=Signature(algebra.signature.has_involution, False),
    )
