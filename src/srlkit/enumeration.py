"""Exhaustive small-model enumeration up to isomorphism.

Posets grow one maximal point at a time, over each down-set of a smaller
poset.  Brouwerian algebras come from posets of join-irreducibles (their
down-set lattices), so the enumeration is complete by the finite
representation theorem for distributive lattices; their growth stops at a
cap on down-sets, counted from the parent's.  General subidempotent algebras
come from a fusion-table search over all small lattices.  Every lattice is a
poset with a least point plus a top, so only those posets are grown for the
lattices (as in Heitzig & Reinhold, "Counting finite lattices", Algebra
Universalis 48, 2002).  The fusion search branches on the cells between
join-irreducibles, checks each new cell only against the associativity
instances it completes, and propagates join-distributivity, which forces
every other cell and makes every complete table isotone.  Involutive
algebras expand each SRL by every involution (which is always the residual
into the negation of the identity).  Canonical forms are the least
relabelled tables over the leaves of one colour-refinement and
individualisation search, shared by algebras and posets; an algebra's search
runs on a carrier inside its tables, so a subuniverse is keyed without its
subalgebra being built.
"""

from __future__ import annotations

from dataclasses import replace
from functools import lru_cache
from typing import Optional, Sequence

from .core import (
    FiniteAlgebra, Signature, _join_irreducible, brouwerian_reduct, residual_from_fusion,
    validate,
)
from .duality import PointedPoset, all_up_sets, dual_algebra
from .errors import BoundExceeded, NotResiduated, VerificationFailure

DEFAULT_ENUMERATION_BOUND = 6

LeqMatrix = tuple[tuple[bool, ...], ...]


# ---------------------------------------------------------------------------
# canonical labelling


def _rank(values: list) -> list[int]:
    index = {v: i for i, v in enumerate(sorted(set(values)))}
    return [index[v] for v in values]


def _canonical_labelling(colours: list, signatures, key_of) -> tuple:
    """The least `key_of(perm)` over the discrete colourings, `perm[a]`
    being a's colour, at the leaves of a refine-and-individualise search
    (McKay & Piperno, "Practical graph isomorphism, II", J. Symbolic
    Computation 60, 2014).  Colours are re-ranked by each element's
    `(colour, signature)`, `signatures(colour)` giving every element's in
    order, until no class splits; then each element of the first class with
    several elements gets a colour of its own in turn.
    Every step is label-free, so isomorphic inputs get equal keys.  A leaf
    whose key equals the best differs from it by an automorphism, which
    maps the best leaf's finished branch onto the branch where their paths
    part, so the rest of that branch is dropped.  A discrete seed colouring
    is the one leaf, and its key is returned at once.
    """
    n = len(colours)
    seed = _rank(colours)
    if len(set(seed)) == n:
        return key_of(tuple(seed))

    def refine(colour: list[int]) -> list[int]:
        while len(set(colour)) < n:
            refined = _rank(list(zip(colour, signatures(colour))))
            if refined == colour:  # no class split
                break
            colour = refined
        return colour

    best: Optional[tuple] = None
    best_path: list[int] = []
    path: list[int] = []

    def search(colour: list[int]) -> int:
        """Search below the node at `path`; return the depth of the node
        whose branching continues."""
        nonlocal best, best_path
        depth = len(path)
        colour = refine(colour)
        split = min((c for c in set(colour) if colour.count(c) > 1), default=None)
        if split is None:
            key = key_of(tuple(colour))
            if best is None or key < best:
                best, best_path = key, list(path)
            elif key == best:
                return next(i for i, (a, b) in enumerate(zip(path, best_path)) if a != b)
            return depth - 1
        for a in (x for x in range(n) if colour[x] == split):
            path.append(a)
            back = search([
                c + (c > split or (c == split and x != a))
                for x, c in enumerate(colour)
            ])
            path.pop()
            if back < depth:
                return back
        return depth - 1

    search(seed)
    return best


# ---------------------------------------------------------------------------
# posets


def canonical_poset_key(leq: LeqMatrix) -> tuple:
    n = len(leq)
    counts = [
        (sum(leq[b][a] for b in range(n)), sum(leq[a][b] for b in range(n)))
        for a in range(n)
    ]

    def signatures(colour: list[int]) -> list[tuple]:
        return [
            tuple(sorted((colour[b], leq[a][b], leq[b][a]) for b in range(n)))
            for a in range(n)
        ]

    def key_of(perm: tuple[int, ...]) -> tuple:
        at = sorted(range(n), key=perm.__getitem__)  # the point labelled i
        return tuple([leq[a][b] for a in at for b in at])

    return (n, _canonical_labelling(counts, signatures, key_of))


def _down_sets(leq: LeqMatrix) -> list[frozenset[int]]:
    """Every down-set, the empty one included: the up-sets of the reversed order."""
    return all_up_sets(PointedPoset(len(leq), tuple(zip(*leq))), include_empty=True)


def enumerate_posets(size: int, down_set_cap: Optional[int] = None) -> tuple[LeqMatrix, ...]:
    """All posets with `size` points up to isomorphism, grown by repeatedly
    attaching a maximal point over each down-set; optionally pruned to keep
    at most `down_set_cap` down-sets.  Both must be non-negative ints (not
    bools), or ValueError names the one that is not."""
    _require_size("size", size)
    if down_set_cap is not None:
        _require_size("down_set_cap", down_set_cap)
    return _grown_posets(size, down_set_cap, False)


@lru_cache(maxsize=None)
def _grown_posets(
    size: int, down_set_cap: Optional[int], least: bool
) -> tuple[LeqMatrix, ...]:
    """`enumerate_posets`, or with `least` its posets with a least point
    (and the empty poset at size 0).

    Removing a maximal point from a poset of two or more points with a
    least point leaves a poset with a least point, so those posets grow from
    their own kind over the non-empty down-sets alone.  The parents and their down-sets come in
    the same relative order either way, so each class keeps the same
    labelled representative.  A grown poset's down-sets are its parent's,
    and each parent down-set that holds the new point's down-set with the
    new point added: that counts them for the cap."""
    if size == 0:
        return ((),)  # the empty poset
    seen: dict[tuple, LeqMatrix] = {}
    for leq in _grown_posets(size - 1, down_set_cap, least):
        n = len(leq)
        ds_list = _down_sets(leq)
        for ds in ds_list:
            if least and n and not ds:
                continue
            if down_set_cap is not None and (
                len(ds_list) + sum(1 for d in ds_list if ds <= d) > down_set_cap
            ):
                continue
            new = [list(row) + [a in ds] for a, row in enumerate(leq)]
            new.append([False] * n + [True])
            grown = tuple(tuple(row) for row in new)
            key = canonical_poset_key(grown)
            if key not in seen:
                seen[key] = grown
    return tuple(seen[k] for k in sorted(seen))


def _lattices(size: int) -> list[LeqMatrix]:
    """The lattices among `enumerate_posets(size)` for size >= 1, in its
    order and with its labelling.  A lattice has one maximal point, its top,
    so the growth reaches it only by attaching the top over the whole of the
    poset below it, which has a least point: only those posets are grown."""
    lattices = []
    for below in _grown_posets(size - 1, None, True):
        leq = tuple(row + (True,) for row in below) + ((False,) * (size - 1) + (True,),)
        if is_lattice(leq):
            lattices.append(leq)
    return sorted(lattices, key=canonical_poset_key)


def is_lattice(leq: LeqMatrix) -> bool:
    return _lattice_tables(leq) is not None


def _lattice_tables(leq: LeqMatrix) -> Optional[tuple[tuple, tuple]]:
    """The meet and join tables, or None when some pair has no meet or no
    join."""
    n = len(leq)
    meet = [[0] * n for _ in range(n)]
    join = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            lowers = [c for c in range(n) if leq[c][a] and leq[c][b]]
            greatest = next((u for u in lowers if all(leq[v][u] for v in lowers)), None)
            uppers = [c for c in range(n) if leq[a][c] and leq[b][c]]
            least = next((u for u in uppers if all(leq[u][v] for v in uppers)), None)
            if greatest is None or least is None:
                return None
            meet[a][b], join[a][b] = greatest, least
    return tuple(tuple(r) for r in meet), tuple(tuple(r) for r in join)


# ---------------------------------------------------------------------------
# canonical forms for algebras


def _iso_invariant(algebra: FiniteAlgebra, a: int, below: int, above: int) -> tuple:
    """The label-free facts that seed the labelling search, given the
    numbers of elements below and above `a`: is it e, is it the bottom, the
    two counts, is it idempotent, is it fixed by `neg`."""
    return (
        a == algebra.e,
        algebra.bottom is not None and a == algebra.bottom,
        below,
        above,
        algebra.fusion[a][a] == a,
        algebra.neg is not None and algebra.neg[a] == a,
    )


def _labelled_key(algebra: FiniteAlgebra, at: list[int], label: Sequence[int]) -> tuple:
    """The tables on the elements `at`, element `at[i]` read as `label[at[i]]
    == i`: meet, join, fusion, residual, then neg, e and bottom."""
    parts = [
        tuple([label[t[a][b]] for a in at for b in at])
        for t in (algebra.meet, algebra.join, algebra.fusion, algebra.residual)
    ]
    if algebra.neg is not None:
        parts.append(tuple(label[algebra.neg[a]] for a in at))
    parts.append((label[algebra.e],))
    if algebra.bottom is not None:
        parts.append((label[algebra.bottom],))
    return tuple(parts)


def canonical_form(algebra: FiniteAlgebra) -> tuple:
    """A permutation-invariant key: isomorphic algebras of the same
    signature get equal keys, non-isomorphic ones distinct keys."""
    return _subuniverse_key(algebra)(algebra.elements)


def _subuniverse_key(algebra: FiniteAlgebra):
    """`key(carrier)`: the `canonical_form` of the subalgebra on the
    ascending subuniverse `carrier`, found in place on `algebra`'s tables.

    Position i of the carrier stands for the subalgebra's element i: the
    invariants are counted inside the carrier, and the labelling search
    reads `algebra`'s rows with each value's colour or label kept at the
    value itself, so the key is the built subalgebra's, byte for byte."""
    meet, fusion, neg = algebra.meet, algebra.fusion, algebra.neg
    head = (algebra.signature.has_involution, algebra.signature.has_bottom)
    painted = [0] * algebra.size  # painted[x]: the colour or label of x's position

    def key(carrier: Sequence[int]) -> tuple:
        def signatures(colour: list[int]) -> list[tuple]:
            # order and fusion determine join and residual
            for x, c in zip(carrier, colour):
                painted[x] = c
            rows = []
            for x in carrier:
                meet_x, fusion_x = meet[x], fusion[x]
                row = tuple(sorted(
                    (painted[y], meet_x[y] == x, meet_x[y] == y, painted[fusion_x[y]])
                    for y in carrier
                ))
                rows.append(row if neg is None else (painted[neg[x]], row))
            return rows

        def key_of(perm: tuple[int, ...]) -> tuple:
            # perm[i] is position i's label, so the element labelled i comes i-th
            for x, c in zip(carrier, perm):
                painted[x] = c
            at = [carrier[i] for i in sorted(range(len(carrier)), key=perm.__getitem__)]
            return _labelled_key(algebra, at, painted)

        invariants = []
        for x in carrier:
            meet_x = meet[x]
            below = above = 0
            for y in carrier:
                m = meet_x[y]
                below += m == y
                above += m == x
            invariants.append(_iso_invariant(algebra, x, below, above))
        return (len(carrier), *head, _canonical_labelling(invariants, signatures, key_of))

    return key


# ---------------------------------------------------------------------------
# Brouwerian algebras (down-set lattices of posets)


def _brouwerian_from_poset(leq: LeqMatrix, size_label: int) -> FiniteAlgebra:
    """The down-set algebra of the poset: the up-set algebra of its
    opposite, without the empty set's bottom marker."""
    opposite = PointedPoset(len(leq), tuple(zip(*leq)))
    algebra = brouwerian_reduct(dual_algebra(opposite, "proper"))
    return replace(algebra, name=f"brouwerian#{size_label}")


def _enumerate_brouwerian(max_size: int) -> list[FiniteAlgebra]:
    found: dict[tuple, FiniteAlgebra] = {}
    # a poset with more points than max_size-1 has too many down-sets already
    for pts in range(0, max_size):
        for leq in enumerate_posets(pts, down_set_cap=max_size):
            algebra = _brouwerian_from_poset(leq, pts)
            if algebra.size <= max_size:
                found.setdefault(canonical_form(algebra), algebra)
    return [found[k] for k in sorted(found)]


# ---------------------------------------------------------------------------
# SRLs (fusion search over lattices) and SIRLs (involution expansion)


def _fusion_search(meet, join, e: int) -> list[tuple]:
    """All commutative, associative, join-distributing (hence isotone),
    subidempotent fusion tables on the lattice with identity e and zero row
    at the bottom, in lexicographic order.

    Forward checking (Haralick & Elliott, "Increasing tree search efficiency
    for constraint satisfaction problems", AI 14, 1980): each assigned cell
    {x, y} is checked only against what it completes: the associativity
    instances holding it as (a, b) or (ab, c); by commutativity an instance
    read backwards holds it as (b, c) or (a, bc).  Join-distributivity is
    propagated, not checked: once a*b and a*c are set, a*(b v c) is assigned
    ab v ac on the trail, or compared when already set.  A join-preserving
    fusion is fixed by its values on join-irreducibles, so branching on
    those cells first leaves every other cell forced.
    """
    n = len(meet)
    rng = range(n)
    leq = [[meet[a][b] == a for b in rng] for a in rng]
    bottom = next(a for a in rng if all(leq[a]))
    irreducible = [_join_irreducible(meet, join, a) for a in rng]
    cells = sorted(
        ((x, y) for x in rng for y in range(x, n)),
        key=lambda cell: not (irreducible[cell[0]] and irreducible[cell[1]]),
    )
    table = [[-1] * n for _ in rng]
    made: list[list[tuple[int, int]]] = [[] for _ in rng]  # made[w]: (a, b) with a*b = w
    trail: list[tuple[int, int]] = []

    def assign(x: int, y: int, v: int) -> bool:
        w = table[x][y]
        if w >= 0:
            return w == v
        table[x][y] = table[y][x] = v
        made[v].append((x, y))
        if x != y:
            made[v].append((y, x))
        trail.append((x, y))
        return True

    def undo(mark: int) -> None:
        while len(trail) > mark:
            x, y = trail.pop()
            v = table[x][y]
            table[x][y] = table[y][x] = -1
            del made[v][-1 if x == y else -2:]

    def settle(mark: int) -> bool:
        """Check each cell assigned since `mark`, propagating as it goes."""
        i = mark
        while i < len(trail):
            x, y = trail[i]
            i += 1
            v = table[x][y]
            for p, q in ((x, y), (y, x)) if x != y else ((x, y),):
                row_p, row_q, row_v = table[p], table[q], table[v]
                for c in rng:  # (pq)c = p(qc)
                    qc = row_q[c]
                    if qc >= 0:
                        left, right = row_v[c], row_p[qc]
                        if left >= 0 and right >= 0 and left != right:
                            return False
                for a, b in made[p]:  # (ab)q = a(bq) with ab = p
                    bq = row_q[b]
                    if bq >= 0:
                        right = table[a][bq]
                        if right >= 0 and right != v:
                            return False
                join_q, join_v = join[q], join[v]
                for c in rng:  # p(q v c) = pq v pc
                    pc = row_p[c]
                    if pc >= 0 and not assign(p, join_q[c], join_v[pc]):
                        return False
        return True

    for x in rng:
        if not (
            assign(e, x, x)
            and assign(bottom, x, bottom)
            and (not leq[x][e] or assign(x, x, x))
        ):
            return []
    if not settle(0):
        return []
    results: list[tuple] = []

    def branch(k: int) -> None:
        while k < len(cells) and table[cells[k][0]][cells[k][1]] >= 0:
            k += 1
        if k == len(cells):
            results.append(tuple(tuple(row) for row in table))
            return
        x, y = cells[k]
        mark = len(trail)
        for v in rng:
            if assign(x, y, v) and settle(mark):
                branch(k + 1)
            undo(mark)

    branch(0)
    results.sort()
    return results


def _search_failure(fusion: tuple, e: int, what: str) -> VerificationFailure:
    """The search returns only SRLs, so a table that is not one is a bug."""
    return VerificationFailure(
        f"fusion search table {fusion} on {len(fusion)} elements with e = {e} {what}"
    )


def _enumerate_srl(max_size: int) -> list[FiniteAlgebra]:
    found: dict[tuple, FiniteAlgebra] = {}
    for n in range(1, max_size + 1):
        for leq in _lattices(n):
            meet, join = _lattice_tables(leq)
            for e in range(n):
                for fusion in _fusion_search(meet, join, e):
                    try:
                        residual = residual_from_fusion(n, meet, fusion)
                    except NotResiduated as exc:
                        raise _search_failure(fusion, e, f"is not residuated: {exc}") from exc
                    algebra = FiniteAlgebra(
                        size=n, meet=meet, join=join, fusion=fusion,
                        residual=residual, e=e, name=f"srl#{n}",
                    )
                    report = validate(algebra)
                    if not report.ok:
                        first = report.failures()[0]
                        raise _search_failure(fusion, e, f"fails {first.law} at {first.witness}")
                    found.setdefault(canonical_form(algebra), algebra)
    return [found[k] for k in sorted(found)]


def _enumerate_sirl(max_size: int) -> list[FiniteAlgebra]:
    found: dict[tuple, FiniteAlgebra] = {}
    for base in _enumerate_cached("srl", max_size):
        n = base.size
        for f0 in range(n):
            neg = tuple(base.residual[x][f0] for x in range(n))
            if any(neg[neg[x]] != x for x in range(n)):
                continue
            algebra = FiniteAlgebra(
                size=n, meet=base.meet, join=base.join, fusion=base.fusion,
                residual=base.residual, e=base.e, neg=neg,
                signature=Signature(True, False), name=f"sirl#{n}",
            )
            if validate(algebra).ok:
                found.setdefault(canonical_form(algebra), algebra)
    return [found[k] for k in sorted(found)]


_CLASS_ENUMERATORS = {
    "brouwerian": _enumerate_brouwerian,
    "srl": _enumerate_srl,
    "sirl": _enumerate_sirl,
}


@lru_cache(maxsize=None)
def _enumerate_cached(kind: str, max_size: int) -> tuple[FiniteAlgebra, ...]:
    return tuple(_CLASS_ENUMERATORS[kind](max_size))


def _require_size(label: str, value) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{label} must be an integer, got {value!r}")
    if value < 0:
        raise ValueError(f"{label} must not be negative, got {value}")
    return value


def enumerate_models(
    kind: str, max_size: int, bound: Optional[int] = None
) -> list[FiniteAlgebra]:
    """All algebras of the class up to isomorphism and up to `max_size`.

    `bound` overrides the default size guard (callers that can afford larger
    sweeps raise it explicitly).  Both must be non-negative ints (not bools),
    or ValueError names the one that is not."""
    if kind not in _CLASS_ENUMERATORS:
        raise ValueError(f"unknown class {kind!r}")
    _require_size("max_size", max_size)
    limit = DEFAULT_ENUMERATION_BOUND if bound is None else _require_size("bound", bound)
    if max_size > limit:
        raise BoundExceeded(f"max_size {max_size} exceeds the bound {limit}")
    return list(_enumerate_cached(kind, max_size))
