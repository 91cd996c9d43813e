"""Exhaustive small-model enumeration up to isomorphism.

Brouwerian algebras come from posets of join-irreducibles (their down-set
lattices), so the enumeration is complete by the finite representation
theorem for distributive lattices.  General subidempotent algebras come from
a backtracking fusion-table search over all small lattices; involutive ones
expand each result by every involution (which is always the residual into
the negation of the identity).  Canonical forms are minimal lexicographic
table tuples over carrier permutations that respect order-rank invariants.
"""

from __future__ import annotations

import itertools
from dataclasses import replace
from functools import lru_cache
from typing import Iterable, Optional

from .core import (
    FiniteAlgebra, Signature, _iso_invariant, brouwerian_reduct, closed_sets,
    residual_from_fusion, validate,
)
from .duality import PointedPoset, dual_algebra
from .errors import BoundExceeded, NotResiduated

DEFAULT_ENUMERATION_BOUND = 6

LeqMatrix = tuple[tuple[bool, ...], ...]


# ---------------------------------------------------------------------------
# posets


def _poset_invariants(leq: LeqMatrix) -> tuple:
    n = len(leq)
    inv = [
        (sum(leq[b][a] for b in range(n)), sum(leq[a][b] for b in range(n)))
        for a in range(n)
    ]
    for _ in range(2):
        inv = [
            (
                inv[a],
                tuple(sorted(inv[b] for b in range(n) if b != a and leq[b][a])),
                tuple(sorted(inv[b] for b in range(n) if b != a and leq[a][b])),
            )
            for a in range(n)
        ]
    return tuple(inv)


def _min_relabelled(n: int, perms: Iterable[tuple[int, ...]], key_of) -> tuple:
    best = None
    for perm in perms:
        cand = key_of(perm)
        if best is None or cand < best:
            best = cand
    return best


def _invariant_respecting_perms(invariants: list) -> Iterable[tuple[int, ...]]:
    """Permutations mapping each invariant class onto the slots the sorted
    class order assigns to it."""
    n = len(invariants)
    order = sorted(range(n), key=lambda a: repr(invariants[a]))
    groups: list[list[int]] = []
    for a in order:
        if groups and invariants[groups[-1][0]] == invariants[a]:
            groups[-1].append(a)
        else:
            groups.append([a])
    slot = 0
    slots_per_group = []
    for g in groups:
        slots_per_group.append(list(range(slot, slot + len(g))))
        slot += len(g)
    for arrangement in itertools.product(
        *[itertools.permutations(g) for g in groups]
    ):
        perm = [0] * n
        for g_slots, g_elems in zip(slots_per_group, arrangement):
            for s, a in zip(g_slots, g_elems):
                perm[a] = s
        yield tuple(perm)


def canonical_poset_key(leq: LeqMatrix) -> tuple:
    n = len(leq)
    inv = list(_poset_invariants(leq))

    def key_of(perm: tuple[int, ...]) -> tuple:
        out = [[False] * n for _ in range(n)]
        for a in range(n):
            for b in range(n):
                out[perm[a]][perm[b]] = leq[a][b]
        return tuple(x for row in out for x in row)

    return (n, _min_relabelled(n, _invariant_respecting_perms(inv), key_of))


def _down_sets(leq: LeqMatrix) -> list[frozenset[int]]:
    n = len(leq)
    down = [frozenset(b for b in range(n) if leq[b][a]) for a in range(n)]
    return closed_sets(n, frozenset(), lambda s, a: s | down[a])


@lru_cache(maxsize=None)
def enumerate_posets(size: int, down_set_cap: Optional[int] = None) -> tuple[LeqMatrix, ...]:
    """All posets with `size` points up to isomorphism, grown by repeatedly
    attaching a maximal point over each down-set; optionally pruned to keep
    at most `down_set_cap` down-sets."""
    if size == 0:
        return ((),)  # the empty poset
    if size == 1:
        return (((True,),),)
    smaller = enumerate_posets(size - 1, down_set_cap)
    seen: dict[tuple, LeqMatrix] = {}
    for leq in smaller:
        n = len(leq)
        for ds in _down_sets(leq):
            new = [list(row) + [a in ds] for a, row in enumerate(leq)]
            new.append([False] * n + [True])
            grown = tuple(tuple(row) for row in new)
            if down_set_cap is not None and len(_down_sets(grown)) > down_set_cap:
                continue
            key = canonical_poset_key(grown)
            if key not in seen:
                seen[key] = grown
    return tuple(seen[k] for k in sorted(seen))


def is_lattice(leq: LeqMatrix) -> bool:
    n = len(leq)
    for a in range(n):
        for b in range(n):
            uppers = [c for c in range(n) if leq[a][c] and leq[b][c]]
            if not _unique_extreme(leq, uppers, lower=True):
                return False
            lowers = [c for c in range(n) if leq[c][a] and leq[c][b]]
            if not _unique_extreme(leq, lowers, lower=False):
                return False
    return True


def _unique_extreme(leq: LeqMatrix, candidates: list[int], lower: bool) -> bool:
    """lower=True: a least element among candidates; else a greatest."""
    for u in candidates:
        if lower and all(leq[u][v] for v in candidates):
            return True
        if not lower and all(leq[v][u] for v in candidates):
            return True
    return False


def _lattice_tables(leq: LeqMatrix) -> tuple[tuple, tuple]:
    n = len(leq)
    meet = [[0] * n for _ in range(n)]
    join = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            lowers = [c for c in range(n) if leq[c][a] and leq[c][b]]
            meet[a][b] = next(u for u in lowers if all(leq[v][u] for v in lowers))
            uppers = [c for c in range(n) if leq[a][c] and leq[b][c]]
            join[a][b] = next(u for u in uppers if all(leq[u][v] for v in uppers))
    return tuple(tuple(r) for r in meet), tuple(tuple(r) for r in join)


# ---------------------------------------------------------------------------
# canonical forms for algebras


def canonical_form(algebra: FiniteAlgebra) -> tuple:
    """A permutation-invariant key: isomorphic algebras of the same
    signature get equal keys, non-isomorphic ones distinct keys."""
    n = algebra.size
    inv = [_iso_invariant(algebra, a) for a in algebra.elements]
    tables = [algebra.meet, algebra.join, algebra.fusion, algebra.residual]

    def key_of(perm: tuple[int, ...]) -> tuple:
        parts = []
        for t in tables:
            out = [[0] * n for _ in range(n)]
            for a in range(n):
                for b in range(n):
                    out[perm[a]][perm[b]] = perm[t[a][b]]
            parts.append(tuple(x for row in out for x in row))
        if algebra.neg is not None:
            out_n = [0] * n
            for a in range(n):
                out_n[perm[a]] = perm[algebra.neg[a]]
            parts.append(tuple(out_n))
        parts.append((perm[algebra.e],))
        if algebra.bottom is not None:
            parts.append((perm[algebra.bottom],))
        return tuple(parts)

    best = _min_relabelled(n, _invariant_respecting_perms(inv), key_of)
    return (n, algebra.signature.has_involution, algebra.signature.has_bottom, best)


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
        if pts == 0:
            algebras = [_brouwerian_from_poset(tuple(), 0)] if max_size >= 1 else []
        else:
            algebras = [
                _brouwerian_from_poset(leq, pts)
                for leq in enumerate_posets(pts, down_set_cap=max_size)
            ]
        for algebra in algebras:
            if algebra.size <= max_size:
                found.setdefault(canonical_form(algebra), algebra)
    return [found[k] for k in sorted(found)]


# ---------------------------------------------------------------------------
# SRLs (fusion search over lattices) and SIRLs (involution expansion)


def _fusion_search(meet, join, leq_fn, n: int, e: int) -> list[tuple]:
    """All commutative, associative, join-distributing, subidempotent fusion
    tables with identity e and zero row at the lattice bottom."""
    bottom = next(a for a in range(n) if all(leq_fn(a, b) for b in range(n)))
    table: list[list[Optional[int]]] = [[None] * n for _ in range(n)]

    def put(x: int, y: int, v: int) -> bool:
        if table[x][y] is not None:
            return table[x][y] == v
        table[x][y] = table[y][x] = v
        return True

    ok = True
    for x in range(n):
        ok = ok and put(e, x, x)
        ok = ok and put(bottom, x, bottom)
        if leq_fn(x, e):
            ok = ok and put(x, x, x)
    if not ok:
        return []

    cells = [
        (x, y)
        for x in range(n)
        for y in range(x, n)
        if table[x][y] is None
    ]
    results: list[tuple] = []

    def consistent_after(x: int, y: int) -> bool:
        v = table[x][y]
        # isotone in each argument against assigned cells
        for z in range(n):
            for (p, q) in ((x, y), (y, x)):
                w = table[p][z] if table[p][z] is not None else None
                if w is None:
                    continue
                if leq_fn(z, q) and not leq_fn(w, v):
                    return False
                if leq_fn(q, z) and not leq_fn(v, w):
                    return False
        # associativity and join-distributivity on fully assigned triples
        for a in range(n):
            for b in range(n):
                ab = table[a][b]
                if ab is None:
                    continue
                for c in range(n):
                    bc = table[b][c]
                    if bc is None or table[ab][c] is None or table[a][bc] is None:
                        continue
                    if table[ab][c] != table[a][bc]:
                        return False
                for c in range(n):
                    ac = table[a][c]
                    if ac is None:
                        continue
                    j = join[b][c]
                    if table[a][j] is not None and table[a][j] != join[ab][ac]:
                        return False
        return True

    def fill(idx: int) -> None:
        if idx == len(cells):
            results.append(tuple(tuple(row) for row in table))
            return
        x, y = cells[idx]
        for v in range(n):
            table[x][y] = table[y][x] = v
            if consistent_after(x, y):
                fill(idx + 1)
        table[x][y] = table[y][x] = None

    fill(0)
    return results


def _enumerate_srl(max_size: int) -> list[FiniteAlgebra]:
    found: dict[tuple, FiniteAlgebra] = {}
    for n in range(1, max_size + 1):
        for leq in enumerate_posets(n):
            if not is_lattice(leq):
                continue
            meet, join = _lattice_tables(leq)
            leq_fn = lambda a, b: leq[a][b]
            for e in range(n):
                for fusion in _fusion_search(meet, join, leq_fn, n, e):
                    try:
                        residual = residual_from_fusion(n, meet, fusion)
                    except NotResiduated:
                        continue
                    algebra = FiniteAlgebra(
                        size=n, meet=meet, join=join, fusion=fusion,
                        residual=residual, e=e, name=f"srl#{n}",
                    )
                    if validate(algebra).ok:
                        found.setdefault(canonical_form(algebra), algebra)
    return [found[k] for k in sorted(found)]


def _enumerate_sirl(max_size: int) -> list[FiniteAlgebra]:
    found: dict[tuple, FiniteAlgebra] = {}
    for base in _enumerate_srl(max_size):
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


def enumerate_models(
    kind: str, max_size: int, bound: Optional[int] = None
) -> list[FiniteAlgebra]:
    """All algebras of the class up to isomorphism and up to `max_size`.

    `bound` overrides the default size guard (callers that can afford larger
    sweeps raise it explicitly)."""
    if kind not in _CLASS_ENUMERATORS:
        raise ValueError(f"unknown class {kind!r}")
    limit = DEFAULT_ENUMERATION_BOUND if bound is None else bound
    if max_size > limit:
        raise BoundExceeded(f"max_size {max_size} exceeds the bound {limit}")
    return list(_enumerate_cached(kind, max_size))
