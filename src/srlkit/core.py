"""Finite subidempotent residuated lattices: representation, validation,
classification, and homomorphism search.

Elements of an algebra are the indices 0..n-1.  The lattice order is always
derived from the meet table; the join table is validated against it, so the
meet table is the single source of truth for the order.  The residual table
is stored, not recomputed: `residual_from_fusion` is both the
constructor-time deriver and the consistency oracle.

Each table law shared by several checks has one failure generator, which
yields the witnesses of its failures in lexicographic order: `validate`
reports the first, `derive_order` and `derived_laws` raise on it, and
`classify` reads a flag off it.  A generator first runs the law's row pass,
which compares whole table rows in C (as `bytes`, up to 256 elements) and
decides whether any row fails.  Only then does its cell scan run, to find
the first witness; the tuple tables stay the one source of truth.
`validate` joins one private check per axiom group, so that a caller which
makes the tables a layer at a time can run each group once, at its layer.
`residual_from_fusion` finds each maximum witness on int bitmasks.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property, reduce
from heapq import heappop, heappush
from itertools import chain
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .errors import (
    DerivedLawFailure, MalformedTable, NotASubalgebra, NotResiduated, VerificationFailure,
    WrongSignature,
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
        """Construct from possibly-nested lists, deriving the signature; the
        entries are kept as given, for `validate` to check."""
        to_table = lambda t: tuple(map(tuple, t))
        return FiniteAlgebra(
            size=size,
            meet=to_table(meet),
            join=to_table(join),
            fusion=to_table(fusion),
            residual=to_table(residual),
            e=e,
            neg=None if neg is None else tuple(neg),
            bottom=bottom,
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


def _is_element(size: int, x) -> bool:
    """x is an element of a carrier of `size` elements: an int, not a bool, in 0..size-1."""
    return isinstance(x, int) and not isinstance(x, bool) and 0 <= x < size


def _join_irreducible(meet: Table, join: Table, c: int) -> bool:
    """Some element lies strictly below c, and their join is still below c."""
    below = [a for a, m in enumerate(meet[c]) if m == a != c]
    return bool(below) and reduce(lambda a, b: join[a][b], below) != c


def _first_non_element(n: int, entries: Sequence) -> Optional[int]:
    """The index of the first entry that is not an element by `_is_element`'s
    rule, or None.  Plain ints in range, the common case, pass in C."""
    if set(map(type, entries)) <= {int} and 0 <= min(entries) and max(entries) < n:
        return None
    return next((i for i, x in enumerate(entries) if not _is_element(n, x)), None)


def _entry_error(x, where: str, out_of_range: str) -> MalformedTable:
    """The error for x, which is not an element: named by `where` when it is
    not an int."""
    if isinstance(x, int) and not isinstance(x, bool):
        return MalformedTable(out_of_range)
    return MalformedTable(f"{where} is {x!r}, not an int")


def _check_shape(algebra: FiniteAlgebra) -> None:
    n = algebra.size
    if n < 1:
        raise MalformedTable("size must be positive")
    _check_tables(n, ("meet", "join", "fusion", "residual"), _binary_tables(algebra))
    if not _is_element(n, algebra.e):
        raise _entry_error(algebra.e, "identity element", "identity element out of range")
    if algebra.signature.has_involution != (algebra.neg is not None):
        raise MalformedTable("signature and involution table disagree")
    if algebra.signature.has_bottom != (algebra.bottom is not None):
        raise MalformedTable("signature and bottom marker disagree")
    if algebra.neg is not None:
        _check_neg(n, algebra.neg)
    if algebra.bottom is not None and not _is_element(n, algebra.bottom):
        raise _entry_error(algebra.bottom, "bottom element", "bottom element out of range")


def _check_tables(n: int, labels: Sequence[str], tables: Sequence[Table]) -> None:
    """MalformedTable, naming the first table that is not n x n, else the
    first entry (by table, then row-major) that is not an element."""
    for label, table in zip(labels, tables):
        if len(table) != n or set(map(len, table)) != {n}:
            raise MalformedTable(f"{label} table is not {n}x{n}")
    every = lambda: chain.from_iterable(chain(*tables))
    if set(map(type, every())) <= {int} and 0 <= min(every()) and max(every()) < n:
        return  # three passes, no tuple of every entry: made per call, it fragments the heap
    entries = tuple(every())
    i = _first_non_element(n, entries)
    label = labels[i // (n * n)]
    raise _entry_error(entries[i], f"{label} table row {i // n % n} column {i % n}",
                       f"{label} table has an out-of-range entry")


def _check_neg(n: int, neg: Sequence[int]) -> None:
    if len(neg) != n:
        raise MalformedTable("involution table malformed")
    a = _first_non_element(n, neg)
    if a is not None:
        raise _entry_error(neg[a], f"involution entry {a}", "involution table malformed")


def _idempotent(t: Table, rng: range):
    return ((a,) for a in rng if t[a][a] != a)


def _commutative(t: Table, rng: range):
    return _unless_rows_hold(
        "commutativity", len(t), lambda: _commutative_rows(t),
        ((a, b) for a in rng for b in rng if t[a][b] != t[b][a]),
    )


def _associative(t: Table, rng: range):
    return _unless_rows_hold(
        "associativity", len(t), lambda: _associative_rows(t),
        ((a, b, c) for a in rng for b in rng for c in rng if t[t[a][b]][c] != t[a][t[b][c]]),
    )


def _distributes(outer: Table, inner: Table, rng: range):
    """`outer` distributes over `inner` from the left."""
    return _unless_rows_hold(
        "distributivity", len(outer), lambda: _distributes_rows(outer, inner),
        ((a, b, c) for a in rng for b in rng for c in rng
         if outer[a][inner[b][c]] != inner[outer[a][b]][outer[a][c]]),
    )


def _absorbs(outer: Table, inner: Table, rng: range):
    """outer(a, inner(a, b)) = a."""
    return _unless_rows_hold(
        "absorption", len(outer), lambda: _absorbs_rows(outer, inner),
        ((a, b) for a in rng for b in rng if outer[a][inner[a][b]] != a),
    )


def _unless_rows_hold(law: str, n: int, rows_hold: Callable[[], Optional[bool]], scan):
    """The failures of `law` that the cell scan `scan` yields, in its
    order, unless the row pass `rows_hold()` finds that every row holds.

    A row pass answers True (no row fails), False (some row fails) or None
    (it declines, above 256 elements); it runs when the first witness is
    asked for.  A failing row whose scan finds no witness raises
    VerificationFailure: the two disagree, so there is no verdict to give."""
    verdict = rows_hold()
    if verdict:
        return
    first = next(scan, None)
    if first is None:
        if verdict is False:
            raise VerificationFailure(
                f"the row pass finds {law} failing on {n} elements, but no cell does")
        return
    yield first
    yield from scan


# The row passes.  Each builds its tables' rows as `bytes`, drops them when
# it returns, and compares whole rows in C.  Write L(x) for the row of x:
# `flat.translate(_pad(L(a)))`, where `flat` is a table's rows end to end,
# is the table (b, c) -> L(a)[t(b, c)], n^2 cells in one call.

def _byte_rows(t: Table) -> Optional[list[bytes]]:
    """The rows of `t` as `bytes`, or None above 256 elements, where a row
    no longer serves as a `translate` table."""
    return None if len(t) > 256 else [bytes(row) for row in t]


def _pad(row: bytes) -> bytes:
    """`row` zero-padded to a 256-byte `translate` table."""
    return row.ljust(256, b"\0")


def _commutative_rows(t: Table) -> bool:
    return tuple(map(tuple, t)) == tuple(zip(*t))


def _associative_rows(t: Table) -> Optional[bool]:
    """L(a*b) = L(a) after L(b), for each a, over all b."""
    rows = _byte_rows(t)
    if rows is None:
        return None
    flat, row_of = b"".join(rows), rows.__getitem__
    return all(b"".join(map(row_of, t_a)) == flat.translate(_pad(row))
               for t_a, row in zip(t, rows))


def _distributes_rows(outer: Table, inner: Table) -> Optional[bool]:
    """For each a: outer(a, inner(b, c)) = inner(outer(a, b), outer(a, c))."""
    rows, inner_rows = _byte_rows(outer), _byte_rows(inner)
    if rows is None:
        return None
    flat, padded = b"".join(inner_rows), [_pad(row) for row in inner_rows]
    return all(flat.translate(_pad(row)) == b"".join([row.translate(padded[x]) for x in outer_a])
               for outer_a, row in zip(outer, rows))


def _absorbs_rows(outer: Table, inner: Table) -> Optional[bool]:
    """For each a: L_outer(a) after L_inner(a) is constantly a."""
    rows, inner_rows = _byte_rows(outer), _byte_rows(inner)
    if rows is None:
        return None
    n = len(rows)
    return all(inner_row.translate(_pad(row)) == bytes((a,)) * n
               for a, (row, inner_row) in enumerate(zip(rows, inner_rows)))


def _residuation_rows(meet: Table, fus: Table, res: Table) -> Optional[bool]:
    """With up[x][c] = 1 when x <= c: up(a*b) = up(a) after L_res(b), for
    each a, over all b."""
    rows, res_rows = _byte_rows(meet), _byte_rows(res)
    if rows is None:
        return None
    up = [row.translate(bytes(x) + b"\1" + bytes(255 - x)) for x, row in enumerate(rows)]
    flat, up_of = b"".join(res_rows), up.__getitem__
    return all(b"".join(map(up_of, fus_a)) == flat.translate(_pad(up_a))
               for fus_a, up_a in zip(fus, up))


def derive_order(algebra: FiniteAlgebra) -> frozenset[tuple[int, int]]:
    """The partial order a <= b iff meet(a, b) = a.

    Raises MalformedTable if the meet table is not a semilattice table; the
    join table is checked by `validate`, not here.
    """
    _check_shape(algebra)
    meet, rng = algebra.meet, algebra.elements
    verdict = _verdict("semilattice", [
        ("idempotent", _idempotent(meet, rng)),
        ("commutative", _commutative(meet, rng)),
        ("associative", _associative(meet, rng)),
    ])
    if not verdict.passed:
        witness = verdict.witness
        raise MalformedTable(f"meet not {verdict.law} at {witness[0] if len(witness) == 1 else witness}")
    return frozenset((a, b) for a in rng for b in rng if meet[a][b] == a)


def _residuation_failures(algebra: FiniteAlgebra):
    """The triples (a, b, c) in lexicographic order where a*b <= c and
    a <= b->c disagree."""
    meet, fus, res = algebra.meet, algebra.fusion, algebra.residual
    return _unless_rows_hold(
        "residuation", algebra.size, lambda: _residuation_rows(meet, fus, res),
        _residuation_scan(algebra),
    )


def _residuation_scan(algebra: FiniteAlgebra):
    """`_residuation_failures`' cell scan, read off the meet rows of a*b and
    of a."""
    meet, fus, res = algebra.meet, algebra.fusion, algebra.residual
    for a in algebra.elements:
        meet_a, fus_a = meet[a], fus[a]
        for b in algebra.elements:
            ab = fus_a[b]
            meet_ab = meet[ab]
            for c, r in enumerate(res[b]):
                if (meet_ab[c] == ab) != (meet_a[r] == a):
                    yield (a, b, c)


def validate(algebra: FiniteAlgebra) -> AxiomReport:
    """Check every defining axiom; shape and range violations raise
    MalformedTable, axiom violations are reported with witnesses, one
    verdict per axiom group."""
    _check_shape(algebra)
    verdicts = [_lattice_laws(algebra.meet, algebra.join),
                *(g(algebra) for g in (_monoid_laws, _residuation_laws, _subidempotence_laws))]
    if algebra.neg is not None:
        verdicts.append(_involution_laws(algebra.neg, algebra.residual))
    if algebra.bottom is not None:
        verdicts.append(_bound_laws(algebra))
    return AxiomReport(tuple(verdicts))


def _verdict(axiom: str, checks) -> AxiomVerdict:
    """The group's verdict on (law, witness-iterator) pairs: failing at the
    first law with a witness, and its first witness."""
    for law, witnesses in checks:
        for witness in witnesses:
            return AxiomVerdict(axiom, False, law, witness)
    return AxiomVerdict(axiom, True)


def _lattice_laws(meet: Table, join: Table) -> AxiomVerdict:
    rng = range(len(meet))
    return _verdict("lattice", [
        ("meet idempotent", _idempotent(meet, rng)),
        ("join idempotent", _idempotent(join, rng)),
        ("meet commutative", _commutative(meet, rng)),
        ("join commutative", _commutative(join, rng)),
        ("meet associative", _associative(meet, rng)),
        ("join associative", _associative(join, rng)),
        ("absorption meet-join", _absorbs(meet, join, rng)),
        ("absorption join-meet", _absorbs(join, meet, rng)),
    ])


def _monoid_laws(algebra: FiniteAlgebra) -> AxiomVerdict:
    fus, e, rng = algebra.fusion, algebra.e, algebra.elements
    return _verdict("monoid", [
        ("fusion commutative", _commutative(fus, rng)),
        ("fusion associative", _associative(fus, rng)),
        ("identity neutral", ((a,) for a in rng if fus[e][a] != a)),
    ])


def _residuation_laws(algebra: FiniteAlgebra) -> AxiomVerdict:
    return _verdict("residuation", [("a*b <= c iff a <= b->c", _residuation_failures(algebra))])


def _subidempotence_laws(algebra: FiniteAlgebra) -> AxiomVerdict:
    meet, fus, e = algebra.meet, algebra.fusion, algebra.e
    return _verdict("subidempotence", [(
        "a <= e implies a*a = a",
        ((a,) for a in algebra.elements if meet[a][e] == a and fus[a][a] != a),
    )])


def _involution_laws(neg: Sequence[int], res: Table) -> AxiomVerdict:
    rng = range(len(neg))
    return _verdict("involution", [
        ("neg involutive", ((a,) for a in rng if neg[neg[a]] != a)),
        ("contraposition a->~b = b->~a",
         ((a, b) for a in rng for b in rng if res[a][neg[b]] != res[b][neg[a]])),
    ])


def _bound_laws(algebra: FiniteAlgebra) -> AxiomVerdict:
    meet, bot = algebra.meet, algebra.bottom
    return _verdict("bound", [("bottom least", ((a,) for a in algebra.elements if meet[bot][a] != bot))])


def derived_laws(algebra: FiniteAlgebra) -> AxiomReport:
    """Exhaustively check the postulates that follow from the axioms.

    Requires `validate(algebra).ok`.  Any failure raises DerivedLawFailure:
    these laws are theorems, so a failure is a bug.
    """
    rng = algebra.elements
    meet, join = algebra.meet, algebra.join
    fus, res = algebra.fusion, algebra.residual
    e = algebra.e
    leq = lambda a, b: meet[a][b] == a

    checks = [
        ("fusion distributes over join", _distributes(fus, join, rng)),
        ("residual distributes over meet (2nd argument)", _distributes(res, meet, rng)),
        (
            "residual turns join into meet (1st argument)",
            ((a, b, c) for a in rng for b in rng for c in rng
             if res[join[a][b]][c] != meet[res[a][c]][res[b][c]]),
        ),
        (
            "a <= b iff e <= a->b",
            ((a, b) for a in rng for b in rng if leq(a, b) != leq(e, res[a][b])),
        ),
        (
            "a = b iff e <= (a->b) meet (b->a)",
            ((a, b) for a in rng for b in rng if (a == b) != leq(e, algebra.iff(a, b))),
        ),
        (
            "e <= a->a and e->a = a",
            ((a,) for a in rng if not leq(e, res[a][a]) or res[e][a] != a),
        ),
        (
            "negatives: a,b <= e implies a meet b = a*b",
            ((a, b) for a in rng for b in rng
             if leq(a, e) and leq(b, e) and meet[a][b] != fus[a][b]),
        ),
    ]
    verdict = _verdict("derived laws", checks)
    if not verdict.passed:
        raise DerivedLawFailure(f"derived law failed: {verdict.law} at {verdict.witness}")
    return AxiomReport(tuple(AxiomVerdict(law, True) for law, _ in checks))


def residual_from_fusion(size: int, meet: Table, fusion: Table) -> Table:
    """Derive the residual table: residual(b, c) is the maximum a with
    fusion(a, b) <= c.  Raises NotResiduated at the first pair (row-major)
    with no maximum witness.  `meet` is a lattice's and `fusion`'s entries
    are elements, as `validate` checks.

    On bitmasks whose bits hold the elements by ascending down-set size, so
    that an element's bit lies above those of the elements below it: the
    candidates for b->c are the union over v <= c of `making[v]`, the a with
    a*b = v, and the maximum, if any, is the highest candidate."""
    rng = range(size)
    below = [[a for a in rng if meet[a][c] == a] for c in rng]
    order = sorted(rng, key=lambda c: len(below[c]))
    bit = [1 << order.index(a) for a in rng]
    down = [sum(map(bit.__getitem__, below_c)) for below_c in below]
    rows = []
    for b in rng:
        making = [0] * size
        for a in rng:
            making[fusion[a][b]] |= bit[a]
        row = []
        for below_c in below:
            candidates = 0
            for v in below_c:
                candidates |= making[v]
            best = order[candidates.bit_length() - 1]
            if not candidates or candidates & ~down[best]:
                raise NotResiduated(b, len(row))
            row.append(best)
        rows.append(tuple(row))
    return tuple(rows)


def classify(algebra: FiniteAlgebra) -> ClassFlags:
    """Compute class membership flags by exhaustive checks of the defining
    conditions.  Requires `validate(algebra).ok`."""
    rng = algebra.elements
    meet, join, fus = algebra.meet, algebra.join, algebra.fusion
    e = algebra.e
    leq = lambda a, b: meet[a][b] == a

    integral = all(leq(a, e) for a in rng)
    square_increasing = all(leq(a, fus[a][a]) for a in rng)
    idempotent = next(_idempotent(fus, rng), None) is None
    distributive = next(_distributes(meet, join, rng), None) is None
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
    elements = source.elements
    if source.neg is not None:
        for a in elements:
            if mapping[source.neg[a]] != target.neg[mapping[a]]:
                return False
    for s_table, t_table in zip(_binary_tables(source), _binary_tables(target)):
        for a in elements:
            s_row, t_row = s_table[a], t_table[mapping[a]]
            for b in elements:
                if mapping[s_row[b]] != t_row[mapping[b]]:
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


def _closure_order(source: FiniteAlgebra, pinned: frozenset[int]) -> tuple[list, list]:
    """The assignment order of the unpinned elements of a map out of
    `source`, and for each the constraint `(t, a, b)` that forces its value
    from earlier ones, or None at a branch position.  The closure grows
    breadth first; each element it takes in is read, against itself and
    every element taken in before it, in meet, join and fusion once, since
    they commute, in the residual both ways, and in the involution.

    `_map_search` branches at the None positions.  `_forced_map` relies on
    there being none when the pinned set generates the source: a branch
    position is the least element outside the closure so far."""
    n = source.size
    meet, join, fus, res = _binary_tables(source)
    col = tuple(zip(*res))
    done, forces, cells = sorted(pinned), [], []
    seen, q, least = set(done), 0, 0
    while True:
        while q < len(done):
            x = done[q]
            q += 1
            row = meet[x] + join[x] + fus[x] + res[x] + col[x] + (source.neg or ())
            cells += range(x, len(row), n)  # x's place in each read
            if seen.issuperset(map(row.__getitem__, cells)):
                continue
            for i in cells:
                r = row[i]
                if r not in seen:  # name the filed one of a commuted pair
                    k, y = divmod(i, n)
                    twin = k == 4 or k < 3 and y < x and (meet, join, fus)[k][y][x] == r
                    seen.add(r)
                    done.append(r)
                    forces.append((4, y, y) if k == 5 else (min(k, 3), y, x) if twin else (k, x, y))
        while least in seen:
            least += 1
        if least == n:
            return done[len(pinned):], forces
        seen.add(least)
        done.append(least)
        forces.append(None)


def _forced_map(source: FiniteAlgebra, target: FiniteAlgebra, values: dict[int, int]):
    """The map source -> target that `values` and the constants force
    through `_closure_order`'s constraints, as a map array, or None when
    they do not generate the source.  Conflicts are not checked: the map is
    a homomorphism exactly when one extends `values`, as `is_homomorphism`
    decides."""
    pins = {source.e: target.e}
    if source.bottom is not None:
        pins[source.bottom] = target.bottom
    pins |= values
    order, forces = _closure_order(source, frozenset(pins))
    if None in forces:
        return None
    mapping = [-1] * source.size
    for k, v in pins.items():
        mapping[k] = v
    tables = (*_binary_tables(target), (target.neg,) * target.size)
    for x, (t, a, b) in zip(order, forces):
        mapping[x] = tables[t][mapping[a]][mapping[b]]
    return tuple(mapping)


def _constraint_schedule(source: FiniteAlgebra, pinned: frozenset[int]) -> tuple:
    """The assignment order of a map out of `source` and its constraints,
    filed for `_map_search`.

    The order (`_closure_order`) is the closure of the pinned set, then the
    least element not yet assigned (a branch position) followed at once by
    all that the closure gains from it (each a forced position), and so on.
    A forced position holds the constraint that gives its value.

    A constraint is `(t, a, b, r)` with `r = table_t[a][b]`, t indexing the
    four binary tables of `_binary_tables` and, as t = 4, the involution
    read as the table whose every row is `neg`, at (a, a).  Each is filed at
    the position of its latest element, or in the pre-check when all of its
    elements are pinned; a forced position's own constraint is met by its
    value and not filed.  One is dropped when the target's laws imply it
    from one filed at the same position, checked on the source cell:
    - (t, a, b), b < a, in meet, join or fusion when that table commutes:
      the target's commutes too;
    - (meet, a, a) = a: meet is idempotent;
    - (join, a, b) when meet[a][b] is a and the join b, or the other way
      round: x ∧ y = x iff x ∨ y = y, as (meet, a, b) says (a = b is the
      join's idempotent diagonal);
    - (fusion, a, b), a <= b both below a pinned e, when the cell is
      meet[a][b]: their images lie below the target's e, where
      subidempotence makes fusion the meet: x·y <= x ∧ y = (x ∧ y)² <= x·y.
    In an involutive source every residual and join constraint is dropped,
    but for a forced position's own.  Contraposition at b = e gives
    ¬a = a->f, so ¬ reverses the order, x ∨ y = ¬(¬x ∧ ¬y), and
    z <= x->y iff x·z·¬y <= f, so x->y = ¬(x·¬y): a map that keeps neg,
    meet and fusion keeps join and residual.  Their implying constraints
    may be filed at a later position, so a partial map may go on further
    before it fails; the maps found and their order stay the same.
    So both algebras must pass `validate`, and a pin on e send it to the
    target's e.

    Returns `(pre, head, segments)`: the pre-check, the forced positions
    `(x, t, a, b, checks)` of the pinned set's closure, and per branch
    position `(x, checks, forced positions after it, their elements and
    x)`.  Built once per pinned set and kept on the source."""
    schedule = source._schedules.get(pinned)
    if schedule is not None:
        return schedule
    n = source.size
    order, forces = _closure_order(source, pinned)
    rank = [-1] * n
    for p, x in enumerate(order):
        rank[x] = p
    checks = [[] for _ in range(len(order) + 1)]  # index -1, the last, is the pre-check
    tables = _binary_tables(source)
    meet = tables[0]
    below = set(source.below_e) if source.e in pinned else set()
    dropped = (1, 3) if source.neg is not None else ()
    for t in (3, 2, 1, 0):  # residual first: it rejects a partial map most often
        if t in dropped:
            continue
        table = tables[t]
        half = t < 3 and table == tuple(zip(*table))  # so each (t, a, b), b < a, has its twin
        for a in range(n):
            row, rank_a, meet_row = table[a], rank[a], meet[a]
            low = t == 2 and a in below
            for b in range(a if half else 0, n):
                r = row[b]
                if t == 0 and r == a == b or low and b in below and r == meet_row[b]:
                    continue
                if t == 1 and (meet_row[b] == a and r == b or meet_row[b] == b and r == a):
                    continue
                checks[max(rank_a, rank[b], rank[r])].append((t, a, b, r))
    for a, na in enumerate(source.neg or ()):
        checks[max(rank[a], rank[na])].append((4, a, a, na))
    head, segments = [], []
    for x, force, c in zip(order, forces, checks):
        if force:
            if force[0] not in dropped:
                c.remove((*force, x))
            (segments[-1][2] if segments else head).append((x, *force, tuple(c)))
        else:
            segments.append((x, tuple(c), []))
    segments = [(x, c, tuple(run), (x, *(f[0] for f in run))) for x, c, run in segments]
    schedule = source._schedules[pinned] = (tuple(checks[-1]), tuple(head), segments)
    return schedule


def _map_search(source, target, pins, injective):
    """Every map source -> target that sends each pinned element to its pin
    (no value used twice when `injective`) and preserves every operation, in
    lexicographic order by map array, for algebras that pass `validate` and
    a pin on e, if any, to the target's e.

    Elements are assigned in `_constraint_schedule`'s order: a branch
    position tries every value in ascending order, a forced position the
    one value its constraint gives.  A search node checks only the
    constraints filed at its position, and those among pinned elements are
    checked once, before the search, so each constraint is checked once on
    every path, as soon as all of its elements have values.

    The order is lexicographic because each branch element is the least one
    outside the closure of the positions before it: every element of lower
    index is a function of the earlier branch values, so two maps first
    differ at a branch element, where values ascend."""
    mapping = [-1] * source.size
    for k, v in pins.items():
        mapping[k] = v
    pre, head, segments = _constraint_schedule(source, frozenset(pins))
    tables = (*_binary_tables(target), (target.neg,) * target.size)

    def holds(checks) -> bool:
        for t, a, b, r in checks:
            if tables[t][mapping[a]][mapping[b]] != mapping[r]:
                return False
        return True

    def settle(run) -> bool:
        """Assign each forced position of `run`: False at the first whose
        value is taken (when `injective`) or fails its checks."""
        for x, t, a, b, checks in run:
            mapping[x] = v = tables[t][mapping[a]][mapping[b]]
            if injective and mapping.count(v) > 1 or not holds(checks):
                return False
        return True

    if not (holds(pre) and settle(head)):
        return
    if not segments:
        yield Homomorphism(source, target, tuple(mapping))
        return
    # Depth-first, one candidate iterator per branch position.  A loop, not
    # recursion: a self-referencing closure would be a reference cycle that
    # keeps the source, and its schedules, alive until the next collection.
    # Only an injective search reads unassigned elements (as -1), so only
    # it clears a segment's elements, before each candidate and on leaving.
    levels = [iter(target.elements)]
    while levels:
        i = len(levels) - 1
        x, checks, run, members = segments[i]
        for v in levels[i]:
            if injective:
                for y in members:
                    mapping[y] = -1
                if v in mapping:
                    continue
            mapping[x] = v
            if holds(checks) and (not run or settle(run)):
                break
        else:  # level i is exhausted: go on with level i - 1's next candidate
            levels.pop()
            for y in members if injective else ():
                mapping[y] = -1
            continue
        if i + 1 < len(segments):
            levels.append(iter(target.elements))
        else:
            yield Homomorphism(source, target, tuple(mapping))


def _homomorphism_search(source, target, partial=None, injective=False):
    """The maps of `homomorphisms`, lazily, in the same order."""
    if source.signature != target.signature:
        raise WrongSignature("homomorphism search requires a common signature")
    pins = {source.e: target.e}
    if source.bottom is not None:
        pins[source.bottom] = target.bottom
    for k, v in (partial or {}).items():
        if not (_is_element(source.size, k) and _is_element(target.size, v)):
            raise ValueError(f"partial pin {k!r}: {v!r} does not map 0..{source.size - 1} "
                             f"into 0..{target.size - 1}")
        if pins.get(k, v) != v:
            return
        pins[k] = v
    if injective and len(set(pins.values())) < len(pins):
        return
    yield from _map_search(source, target, pins, injective)


def homomorphisms(
    source: FiniteAlgebra,
    target: FiniteAlgebra,
    partial: Optional[dict[int, int]] = None,
    injective: bool = False,
) -> list[Homomorphism]:
    """All total homomorphisms extending `partial`, in lexicographic order by
    map array.  Backtracking prunes on every operation table.  Both algebras
    must pass `validate`: the search leaves out checks that the laws imply."""
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
    """Closed under all operations and containing every constant.  False
    when a member is not an element: an int, not a bool, in 0..size-1."""
    mask = set(members)
    if algebra.e not in mask or not all(_is_element(algebra.size, x) for x in mask):
        return False
    if algebra.bottom is not None and algebra.bottom not in mask:
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
    size: int, least: int, extend: Callable[[int, int], Optional[int]]
) -> Iterator[int]:
    """Every closed set of a closure system on 0..size-1, as ascending int
    bitmasks (bit a set when a is a member), made as they are asked for.
    `least` is the least closed set and `extend(s, a)` the least closed set
    containing the closed set `s` and the element `a`, or None once that
    closure is known to take in an element below a that is not in `s`.

    Close-by-one (S. O. Kuznetsov, 1993; Outrata and Vychodil, Inf. Sci.
    185, 2012): a set reached by adding y is extended only by elements
    a >= y, and its extension by a is kept only when it agrees with it
    below a.  So each closed set is reached once, from one parent, with no
    record of the sets seen, and the cost follows the number of closed
    sets, not 2^size.  A child's mask exceeds its parent's, so the nodes
    come out of a min-heap ascending; each is yielded before it is extended.
    `extend` must be extensive: one missing s or a raises VerificationFailure."""
    heap = [(least, 0)]
    while heap:
        s, y = heappop(heap)
        yield s
        for a in range(y, size):
            bit = 1 << a
            if s & bit:
                continue
            t = extend(s, a)
            if t is None:
                continue
            if t & (s | bit) != s | bit:
                raise VerificationFailure(f"extend({_bits(s)}, {a}) misses {_bits((s | bit) & ~t)}")
            if not t & (bit - 1) & ~s:
                heappush(heap, (t, a + 1))


def _bits(mask: int) -> list[int]:
    """The set bits of `mask`, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _members(mask: int) -> frozenset[int]:
    """The set bits of `mask` as a frozenset.  Made from a set, which sizes
    the table for its final count; one made from a list grows it in steps
    and can end twice as large (728 against 472 bytes for 5 to 7 members)."""
    return frozenset(set(_bits(mask)))


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
    return FiniteAlgebra(
        size=len(reps),
        meet=_restricted(algebra.meet, reps, cls),
        join=_restricted(algebra.join, reps, cls),
        fusion=_restricted(algebra.fusion, reps, cls),
        residual=_restricted(algebra.residual, reps, cls),
        e=cls[algebra.e],
        neg=None if algebra.neg is None else tuple(cls[algebra.neg[a]] for a in reps),
        bottom=None if algebra.bottom is None else cls[algebra.bottom],
        signature=algebra.signature,
        name=None if algebra.name is None else algebra.name + suffix,
    )


def _restricted(t: Table, reps: Sequence[int], cls) -> Table:
    """The table whose cell (i, j) is `cls[t[reps[i]][reps[j]]]`."""
    if len(reps) == 1:  # itemgetter of one index returns the entry, not a tuple
        (r,) = reps
        return ((cls[t[r][r]],),)
    columns, value = itemgetter(*reps), cls.__getitem__
    return tuple(tuple(map(value, columns(t[a]))) for a in reps)


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
