"""Brute-force reference implementations that the library's fast paths are
checked against, and helpers that only tests use.  Each scan tests every
subset of the carrier by bitmask, so its results come out in bitmask order by
construction."""

from __future__ import annotations

import random
from dataclasses import replace
from typing import Optional

from srlkit.catalog import crystal
from srlkit.cones import all_subuniverses
from srlkit.core import (
    FiniteAlgebra,
    Homomorphism,
    _binary_tables,
    classify,
    find_isomorphism,
    homomorphisms,
    is_subuniverse,
    subalgebra,
    validate,
)
from srlkit.duality import PointedPoset
from srlkit.enumeration import LeqMatrix, _fusion_search, enumerate_posets
from srlkit.errors import NotResiduated, VerificationFailure
from srlkit.filters import Congruence, all_deductive_filters, is_congruence, is_fsi, quotient
from srlkit.varieties import EsDecision, FsiSpectrum, VarietySpec, fsi_spectrum


def scan_subuniverses(algebra: FiniteAlgebra) -> list[frozenset[int]]:
    """Every subuniverse, ordered by subset bitmask."""
    n = algebra.size
    out = []
    for mask in range(1 << n):
        members = [a for a in range(n) if mask >> a & 1]
        if algebra.e not in members:
            continue
        if is_subuniverse(algebra, members):
            out.append(frozenset(members))
    return out


def _partial_consistent(source, target, mapping) -> bool:
    """Check all fully-assigned constraints of a partial map (-1 = unset)."""
    if source.neg is not None:
        for a in source.elements:
            v = mapping[a]
            if v < 0:
                continue
            w = mapping[source.neg[a]]
            if w >= 0 and w != target.neg[v]:
                return False
    for s_table, t_table in zip(_binary_tables(source), _binary_tables(target)):
        for a in source.elements:
            if mapping[a] < 0:
                continue
            for b in source.elements:
                if mapping[b] < 0:
                    continue
                r = mapping[s_table[a][b]]
                if r >= 0 and t_table[mapping[a]][mapping[b]] != r:
                    return False
    return True


def scan_homomorphisms(source, target, pins, candidates, injective) -> list[Homomorphism]:
    """`core._map_search` as a list, by rescanning every assigned table cell
    at every search node."""
    mapping = [-1] * source.size
    for k, v in pins.items():
        mapping[k] = v

    def extend(a: int):
        while a < source.size and mapping[a] >= 0:
            a += 1
        if a == source.size:
            yield Homomorphism(source, target, tuple(mapping))
            return
        for v in candidates[a]:
            if injective and v in mapping:
                continue
            mapping[a] = v
            if _partial_consistent(source, target, mapping):
                yield from extend(a + 1)
            mapping[a] = -1

    if _partial_consistent(source, target, mapping):
        return list(extend(0))
    return []


def scan_up_sets(poset: PointedPoset, include_empty: bool) -> list[frozenset[int]]:
    """All up-sets, ordered by subset bitmask (deterministic)."""
    n = poset.size
    out = []
    for mask in range(1 << n):
        members = frozenset(a for a in range(n) if mask >> a & 1)
        if not members and not include_empty:
            continue
        if is_up_set(poset, members):
            out.append(members)
    return out


def scan_down_sets(leq) -> list[frozenset[int]]:
    """All down-sets of a poset given by its order matrix, ordered by subset
    bitmask."""
    n = len(leq)
    out = []
    for mask in range(1 << n):
        members = frozenset(a for a in range(n) if mask >> a & 1)
        if all(leq[b][a] <= (b in members) for a in members for b in range(n)):
            out.append(members)
    return out


def is_up_set(poset: PointedPoset, members) -> bool:
    mask = frozenset(members)
    return all(
        b in mask
        for a in mask
        for b in range(poset.size)
        if poset.leq[a][b]
    )


def check_poset(poset: PointedPoset) -> None:
    """Reflexive, antisymmetric, transitive; pointed top greatest if set."""
    n = poset.size
    leq = poset.leq
    for a in range(n):
        if not leq[a][a]:
            raise VerificationFailure(f"not reflexive at {a}")
        for b in range(n):
            if a != b and leq[a][b] and leq[b][a]:
                raise VerificationFailure(f"not antisymmetric at ({a}, {b})")
            for c in range(n):
                if leq[a][b] and leq[b][c] and not leq[a][c]:
                    raise VerificationFailure(f"not transitive at ({a}, {b}, {c})")
    if poset.top is not None and not all(leq[a][poset.top] for a in range(n)):
        raise VerificationFailure("designated point is not greatest")


def poset_from_pairs(size: int, pairs, top: Optional[int] = None) -> PointedPoset:
    rel = frozenset(pairs)
    leq = tuple(
        tuple(a == b or (a, b) in rel for b in range(size)) for a in range(size)
    )
    return PointedPoset(size, leq, top)


def posets_with_top(size: int) -> tuple[LeqMatrix, ...]:
    """Posets with a greatest element; every one is a smaller poset plus a
    new top."""
    return tuple(
        leq
        for leq in enumerate_posets(size)
        if any(all(leq[a][t] for a in range(size)) for t in range(size))
    )


def lattice_filters(algebra: FiniteAlgebra) -> list[frozenset[int]]:
    """All filters of the lattice reduct (principal up-sets), deterministic."""
    out = []
    for c in algebra.elements:
        out.append(frozenset(b for b in algebra.elements if algebra.leq(c, b)))
    out.sort(key=sorted)
    return out


def greatest(algebra: FiniteAlgebra) -> Optional[int]:
    """The greatest element, if one exists."""
    for a in algebra.elements:
        if all(algebra.leq(b, a) for b in algebra.elements):
            return a
    return None


def least(algebra: FiniteAlgebra) -> Optional[int]:
    for a in algebra.elements:
        if all(algebra.leq(a, b) for b in algebra.elements):
            return a
    return None


def relabel(algebra: FiniteAlgebra, rng: random.Random) -> FiniteAlgebra:
    """The algebra carried over a random permutation of its carrier."""
    return relabelling(algebra, rng)[0]


def relabelling(
    algebra: FiniteAlgebra, rng: random.Random
) -> tuple[FiniteAlgebra, tuple[int, ...]]:
    """`relabel`, together with the permutation: element a of the algebra is
    element perm[a] of the relabelled one."""
    n = algebra.size
    perm = list(range(n))
    rng.shuffle(perm)
    inv = [0] * n
    for a, b in enumerate(perm):
        inv[b] = a
    table = lambda t: tuple(
        tuple(perm[t[inv[x]][inv[y]]] for y in range(n)) for x in range(n)
    )
    relabelled = FiniteAlgebra(
        size=n,
        meet=table(algebra.meet),
        join=table(algebra.join),
        fusion=table(algebra.fusion),
        residual=table(algebra.residual),
        e=perm[algebra.e],
        neg=None if algebra.neg is None else tuple(perm[algebra.neg[inv[x]]] for x in range(n)),
        bottom=None if algebra.bottom is None else perm[algebra.bottom],
        signature=algebra.signature,
    )
    return relabelled, tuple(perm)


def enumerate_congruences_bruteforce(algebra: FiniteAlgebra) -> list[Congruence]:
    """Oracle: scan every partition (restricted growth strings) and keep the
    ones compatible with all operations."""
    n = algebra.size
    found = []

    def grow(prefix: list[int], used: int) -> None:
        if len(prefix) == n:
            blocks = tuple(prefix)
            if is_congruence(algebra, blocks):
                found.append(Congruence(algebra, blocks))
            return
        for b in range(used + 1):
            prefix.append(b)
            grow(prefix, max(used, b + 1))
            prefix.pop()

    grow([0], 1)
    return found


def decide_es_per_mask(spec: VarietySpec) -> EsDecision:
    """`varieties.decide_es` by testing every proper subuniverse of every
    spectrum member in turn, each against every codomain's hom set searched
    afresh."""
    spectrum = fsi_spectrum(spec)
    for member in spectrum.algebras:
        full = frozenset(member.elements)
        for mask in all_subuniverses(member):
            if mask == full:
                continue
            if _is_epic_per_codomain(member, mask, spectrum):
                return EsDecision(False, (member, mask), spectrum)
    return EsDecision(True, None, spectrum)


def _is_epic_per_codomain(algebra: FiniteAlgebra, mask, spectrum: FsiSpectrum) -> bool:
    mask = sorted(mask)
    for codomain in spectrum.algebras:
        seen: dict[tuple[int, ...], Homomorphism] = {}
        for hom in homomorphisms(algebra, codomain):
            key = tuple(hom.mapping[b] for b in mask)
            if seen.setdefault(key, hom) is not hom:
                return False
    return True


def fsi_spectrum_pairwise(spec: VarietySpec) -> tuple[FiniteAlgebra, ...]:
    """`varieties.fsi_spectrum`'s members, by quotienting every subalgebra of
    every generator by every filter, keeping the FSI quotients, and dropping
    each one isomorphic to an earlier member by pairwise `find_isomorphism`."""
    members: list[FiniteAlgebra] = []
    for gen in spec.generators:
        for mask in all_subuniverses(gen):
            sub, _ = subalgebra(gen, mask)
            for flt in all_deductive_filters(sub):
                candidate, _ = quotient(sub, flt)
                if not is_fsi(candidate):
                    continue
                if any(find_isomorphism(m, candidate) is not None for m in members):
                    continue
                members.append(replace(candidate, name=f"fsi{len(members)}"))
    return tuple(members)


def fusion_search_rescan(meet, join, e: int) -> list[tuple]:
    """`enumeration._fusion_search` by rescanning every assigned triple after
    each cell, filling the cells in row-major order: all commutative,
    associative, join-distributing, subidempotent fusion tables with identity
    e and zero row at the lattice bottom."""
    n = len(meet)
    leq_fn = lambda a, b: meet[a][b] == a
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


def residual_from_fusion_pairwise(size: int, meet, fusion):
    """`core.residual_from_fusion` by testing each candidate against every
    other: residual(b, c) is the first a with fusion(a, b) <= c that lies
    above all such a.  Raises NotResiduated at the first pair (row-major)
    with no maximum witness."""
    rng = range(size)
    leq = lambda a, b: meet[a][b] == a
    rows = []
    for b in rng:
        row = []
        for c in rng:
            candidates = [a for a in rng if leq(fusion[a][b], c)]
            best = None
            for a in candidates:
                if all(leq(x, a) for x in candidates):
                    best = a
                    break
            if best is None:
                raise NotResiduated(b, c)
            row.append(best)
        rows.append(tuple(row))
    return tuple(rows)


def crystal_completion_search() -> list[tuple[tuple[int, ...], ...]]:
    """Every fusion table on the crystal order that, with the fixed involution
    and labels a*a = a, b*b = b, a*b = top, yields a valid De Morgan monoid.
    The completion is unique; kept as the oracle for the frozen table.

    Every such table satisfies the constraints `_fusion_search` imposes
    (residuation makes bottom absorbing, and square-increasing plus
    subidempotent makes the cone below e idempotent), so filtering its
    output loses none."""
    frozen = crystal()
    meet, join, neg = frozen.meet, frozen.join, frozen.neg
    rng = range(6)
    results = []
    for fusion in _fusion_search(meet, join, 1):
        if (fusion[2][2], fusion[3][3], fusion[2][3]) != (2, 3, 5):
            continue
        residual = [[neg[fusion[a][neg[b]]] for b in rng] for a in rng]
        candidate = FiniteAlgebra.build(6, meet, join, fusion, residual, 1, neg=neg)
        if validate(candidate).ok and classify(candidate).de_morgan_monoid:
            results.append(fusion)
    return results


def epic_refutation_scan(algebra: FiniteAlgebra, mask, spectrum: FsiSpectrum):
    """`varieties.is_epic_subalgebra`'s refutation by brute force: for each
    codomain in spectrum order, the first pair of maps i < j in its full hom
    list, ordered by j and then by i, that agree on every element of the
    mask, as (codomain, first map, second map); None when there is none."""
    for codomain in spectrum.algebras:
        homs = homomorphisms(algebra, codomain)
        for j, second in enumerate(homs):
            for first in homs[:j]:
                if all(first.mapping[b] == second.mapping[b] for b in mask):
                    return codomain, first, second
    return None
