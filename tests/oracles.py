"""Brute-force reference implementations that the library's fast paths are
checked against, and helpers that only tests use.  Each scan tests every
subset of the carrier by bitmask, so its results come out in bitmask order by
construction."""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from functools import reduce
from typing import Callable, Iterable, Optional

from srlkit.catalog import crystal
from srlkit.cones import all_subuniverses, subuniverse_closure
from srlkit.core import (
    FiniteAlgebra,
    Homomorphism,
    Signature,
    _binary_tables,
    _join_irreducible,
    _subalgebra,
    classify,
    compose,
    find_isomorphism,
    homomorphisms,
    is_subuniverse,
    residual_from_fusion,
    subalgebra,
    validate,
)
from srlkit.duality import PointedPoset, all_up_sets
from srlkit.enumeration import (
    LeqMatrix,
    _fusion_search,
    _lattice_tables,
    _lattices,
    _search_failure,
    _subuniverse_key,
    canonical_form,
    enumerate_posets,
    is_lattice,
)
from srlkit.errors import NotResiduated, SrlkitError, VerificationFailure
from srlkit.filters import (
    Congruence,
    DeductiveFilter,
    _least,
    _normalize_blocks,
    all_deductive_filters,
    generated_filter,
    is_congruence,
    is_fsi,
    leibniz_congruence,
    prime_deductive_filters,
    quotient,
    restrict_quotient_embedding,
)
from srlkit.varieties import (
    EpiCertificate,
    EsDecision,
    FsiSpectrum,
    VarietySpec,
    epi_analysis,
    fsi_spectrum,
    separating_retraction,
)


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


def closed_sets_bfs(
    size: int, least: frozenset[int], extend: Callable[[frozenset[int], int], frozenset[int]]
) -> list[frozenset[int]]:
    """`core.closed_sets` on sets, breadth first: `extend(s, a)` for every
    closed set s and missing element a, with the repeats thrown away by a
    record of the sets seen."""
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


def close_bfs(algebra: FiniteAlgebra, closed: frozenset[int], new: Iterable[int]) -> frozenset[int]:
    """`cones._close` on sets, with no early exit: the subuniverse generated
    by a closed set and some new elements."""
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


def subuniverses_bfs(algebra: FiniteAlgebra) -> list[frozenset[int]]:
    """`cones.all_subuniverses` through the two breadth-first oracles."""
    constants = {algebra.e} if algebra.bottom is None else {algebra.e, algebra.bottom}
    least = close_bfs(algebra, frozenset(), constants)
    return closed_sets_bfs(algebra.size, least, lambda s, a: close_bfs(algebra, s, (a,)))


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


def lattices_by_filter(size: int) -> list[LeqMatrix]:
    """The lattices among all posets of `size` points, in their order."""
    return [leq for leq in enumerate_posets(size) if is_lattice(leq)]


def posets_with_least_point(size: int) -> list[LeqMatrix]:
    """The posets of `size` points with a least element, in their order."""
    return [
        leq
        for leq in enumerate_posets(size)
        if any(all(leq[b][a] for a in range(size)) for b in range(size))
    ]


def up_set_algebra_by_sets(
    poset: PointedPoset, mode: str
) -> tuple[FiniteAlgebra, dict[frozenset[int], int]]:
    """`duality._up_set_algebra` computed on frozensets, for valid modes."""
    ups = all_up_sets(poset, include_empty=(mode == "proper"))
    index = {u: i for i, u in enumerate(ups)}
    n = poset.size
    full = frozenset(range(n))

    def down_closure(s: frozenset[int]) -> frozenset[int]:
        return frozenset(a for a in range(n) if any(poset.leq[a][b] for b in s))

    def arrow(u: frozenset[int], v: frozenset[int]) -> frozenset[int]:
        return full - down_closure(u - v)

    k = len(ups)
    meet = tuple(tuple(index[ups[i] & ups[j]] for j in range(k)) for i in range(k))
    join = tuple(tuple(index[ups[i] | ups[j]] for j in range(k)) for i in range(k))
    residual = tuple(
        tuple(index[arrow(ups[i], ups[j])] for j in range(k)) for i in range(k)
    )
    algebra = FiniteAlgebra(
        size=k,
        meet=meet,
        join=join,
        fusion=meet,
        residual=residual,
        e=index[full],
        neg=None,
        bottom=index[frozenset()] if mode == "proper" else None,
        signature=Signature(False, mode == "proper"),
    )
    return algebra, index


def lattice_filters(algebra: FiniteAlgebra) -> list[frozenset[int]]:
    """All filters of the lattice reduct (principal up-sets), deterministic."""
    out = []
    for c in algebra.elements:
        out.append(frozenset(b for b in algebra.elements if algebra.leq(c, b)))
    out.sort(key=sorted)
    return out


def is_deductive_filter_scan(algebra: FiniteAlgebra, members: frozenset[int]) -> bool:
    """`filters.is_deductive_filter` on a set of elements, by scanning for e,
    upward closure and meet closure."""
    return (
        algebra.e in members
        and all(b in members for a in members for b in algebra.elements if algebra.leq(a, b))
        and all(algebra.meet[a][b] in members for a in members for b in members)
    )


def prime_space_scan(algebra: FiniteAlgebra, mode: str):
    """The member sets and the poset of `duality._prime_space`, from the
    prime filters that `prime_deductive_filters` finds by scanning each
    filter's complement, ordered by inclusion."""
    primes = prime_deductive_filters(algebra, mode)
    leq = tuple(tuple(f.members <= g.members for g in primes) for f in primes)
    top = next((i for i, f in enumerate(primes) if f.is_improper), None)
    return tuple(f.members for f in primes), PointedPoset(len(primes), leq, top)


def leibniz_congruence_scan(flt: DeductiveFilter) -> Congruence:
    """`filters.leibniz_congruence` by scanning the representatives found so
    far for one whose `iff` with each element lies in the filter."""
    algebra = flt.algebra
    raw = []
    reps: list[int] = []
    for a in algebra.elements:
        for i, r in enumerate(reps):
            if algebra.iff(a, r) in flt.members:
                raw.append(i)
                break
        else:
            raw.append(len(reps))
            reps.append(a)
    return Congruence(algebra, _normalize_blocks(raw))


def is_fsi_pairwise(algebra: FiniteAlgebra) -> bool:
    """`filters.is_fsi` by scanning every pair for two elements other than
    e whose join is e; the 1-element algebra is not FSI."""
    if algebra.size <= 1:
        return False
    e = algebra.e
    for a in algebra.elements:
        for b in algebra.elements:
            if algebra.join[a][b] == e and a != e and b != e:
                return False
    return True


def cone_join_irreducibles(algebra: FiniteAlgebra) -> set[int]:
    """The join-irreducible elements of the negative cone, scanned inside the
    cone: those with some cone element strictly below, whose join is still
    strictly below."""
    meet, join = algebra.meet, algebra.join
    cone = algebra.below_e
    out = set()
    for c in cone:
        below = [a for a in cone if a != c and meet[a][c] == a]
        if below and reduce(lambda a, b: join[a][b], below) != c:
            out.add(c)
    return out


def negative_cone_cells(algebra: FiniteAlgebra) -> tuple[FiniteAlgebra, tuple[int, ...]]:
    """`cones.negative_cone`, each cell on its own: meet and join restricted
    to the elements below e, and the residual relativized, (a -> b) meet e."""
    carrier = algebra.below_e
    back = {x: i for i, x in enumerate(carrier)}
    cells = lambda op: tuple(tuple(back[op(a, b)] for b in carrier) for a in carrier)
    meet = cells(lambda a, b: algebra.meet[a][b])
    cone = FiniteAlgebra(
        size=len(carrier),
        meet=meet,
        join=cells(lambda a, b: algebra.join[a][b]),
        fusion=meet,
        residual=cells(lambda a, b: algebra.meet[algebra.residual[a][b]][algebra.e]),
        e=back[algebra.e],
        bottom=None if algebra.bottom is None else back[algebra.bottom],
        signature=Signature(False, algebra.signature.has_bottom),
    )
    return cone, carrier


def reflect_cells(base: FiniteAlgebra):
    """The meet and fusion tables of `reflection.reflect(base)`, each cell
    by cases on the blocks of its row and column: bottom, base, primed,
    top."""
    n = base.size
    size = 2 * n + 2
    bot, top = 0, 2 * n + 1
    b = lambda a: 1 + a          # base block index
    p = lambda a: n + 1 + a      # primed block index
    kind = [("bot",)] + [("base", a) for a in range(n)] + [("primed", a) for a in range(n)]
    kind.append(("top",))

    def meet_op(x: int, y: int) -> int:
        """The ordinal sum bottom < base < primed (reversed) < top."""
        if x == bot or y == top:
            return x
        if y == bot or x == top:
            return y
        kx, ky = kind[x], kind[y]
        if kx[0] != ky[0]:  # each base element lies below every primed one
            return x if kx[0] == "base" else y
        if kx[0] == "base":
            return b(base.meet[kx[1]][ky[1]])
        return p(base.join[kx[1]][ky[1]])

    def fusion_op(x: int, y: int) -> int:
        if x == bot or y == bot:
            return bot
        if x == top or y == top:
            return top
        kx, ky = kind[x], kind[y]
        if kx[0] == "base" and ky[0] == "base":
            return b(base.fusion[kx[1]][ky[1]])
        if kx[0] == "primed" and ky[0] == "primed":
            return top
        if kx[0] == "primed":
            kx, ky = ky, kx
        return p(base.residual[kx[1]][ky[1]])  # a * b' = (a -> b)'

    table = lambda op: tuple(tuple(op(x, y) for y in range(size)) for x in range(size))
    return table(meet_op), table(fusion_op)


def reflection_meet_by_order(base: FiniteAlgebra):
    """The meet table of `reflection.reflect(base)`, as the greatest lower
    bound under the reflection order: bottom, the base block, the primed
    block in reversed base order, top."""
    n = base.size
    size = 2 * n + 2
    top = size - 1
    kind = [("bot",)] + [("base", a) for a in range(n)] + [("primed", a) for a in range(n)]
    kind.append(("top",))

    def leq(x: int, y: int) -> bool:
        if x == 0 or y == top or x == y:
            return True
        if y == 0 or x == top:
            return False
        (kx, ax), (ky, ay) = kind[x], kind[y]
        if kx != ky:
            return kx == "base"
        return base.leq(ax, ay) if kx == "base" else base.leq(ay, ax)

    # the meet of x and y is the element whose down-set is both down-sets'
    # intersection
    down = [sum(1 << z for z in range(size) if leq(z, x)) for x in range(size)]
    at = {d: z for z, d in enumerate(down)}
    return tuple(tuple(at[dx & dy] for dy in down) for dx in down)


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
                if not is_fsi_pairwise(candidate):
                    continue
                if any(find_isomorphism(m, candidate) is not None for m in members):
                    continue
                members.append(replace(candidate, name=f"fsi{len(members)}"))
    return tuple(members)


def fsi_spectrum_loop(spec: VarietySpec) -> tuple[FiniteAlgebra, ...]:
    """`varieties.fsi_spectrum`'s members by the full build, without the key
    set of the top SI quotients: every subuniverse of every generator in
    bitmask order, keyed in place and built when its key is new, each
    quotient by ↑c with c join-irreducible kept when its key is new."""
    members: list[FiniteAlgebra] = []
    seen_subs: set[tuple] = set()
    seen_members: set[tuple] = set()
    for gen in spec.generators:
        subuniverse_key = _subuniverse_key(gen)
        for mask in all_subuniverses(gen):
            carrier = sorted(mask)
            key = subuniverse_key(carrier)
            if key in seen_subs:
                continue
            seen_subs.add(key)
            sub, _ = _subalgebra(gen, carrier)
            for flt in all_deductive_filters(sub):
                c = _least(sub, flt.members)
                if not _join_irreducible(sub.meet, sub.join, c):
                    continue
                candidate, _ = quotient(sub, flt)
                if not is_fsi(candidate):
                    raise VerificationFailure(f"quotient by ↑{c} is not FSI")
                key = canonical_form(candidate)
                if key in seen_members:
                    continue
                seen_members.add(key)
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


def enumerate_srl_unreduced(max_size: int) -> list[FiniteAlgebra]:
    """`enumeration._enumerate_srl` without its orbit reduction: every table
    of every (lattice, e) search is residuated, validated and keyed, and the
    first of each isomorphism type is kept."""
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


def residuation_failure_scan(algebra: FiniteAlgebra) -> Optional[tuple[int, int, int]]:
    """`core.validate`'s residuation check as a triple scan through an order
    predicate: the first (a, b, c) in lexicographic order where a*b <= c
    and a <= b->c disagree, or None."""
    meet, fusion, residual = algebra.meet, algebra.fusion, algebra.residual
    leq = lambda a, b: meet[a][b] == a
    rng = algebra.elements
    return next(
        (
            (a, b, c) for a in rng for b in rng for c in rng
            if leq(fusion[a][b], c) != leq(a, residual[b][c])
        ),
        None,
    )


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


def refute_epic_public(algebra: FiniteAlgebra, mask) -> EpiCertificate:
    """`varieties.refute_epic` rebuilt from public pieces: the chosen filters
    from `epi_analysis`, then θ from `generated_filter` on their meet, the
    quotients and the embedding from `restrict_quotient_embedding`, the
    missing cone elements, and the public `separating_retraction` with all
    its hypothesis checks.  The analysis carries the rebuilt fields."""
    analysis = epi_analysis(algebra, mask)
    kernel = analysis.first_filter & analysis.second_filter
    theta = leibniz_congruence(generated_filter(algebra, kernel))
    qe = restrict_quotient_embedding(algebra, mask, theta)
    quot, q_map = qe.quotient, qe.quotient_map
    image = frozenset(qe.embedding.mapping)
    gap = frozenset(quot.below_e) - image
    a1q = q_map.mapping[analysis.first_witness]
    a2q = q_map.mapping[analysis.second_witness]
    target_sub, pivot = image, a1q
    if analysis.case == "incomparable":
        image_neg = frozenset(u for u in image if quot.leq(u, quot.e))
        closure = subuniverse_closure(quot, image_neg | {a1q})
        if a2q not in closure:
            target_sub, pivot = closure, a2q
    retraction, _ = separating_retraction(quot, target_sub, pivot)
    rebuilt = replace(
        analysis,
        congruence=theta,
        gap=gap,
        quotient=quot,
        quotient_map=q_map,
        sub_quotient=qe.sub_quotient,
        sub_quotient_map=qe.sub_quotient_map,
        embedding=qe.embedding,
    )
    return EpiCertificate(
        target=quot,
        first_map=compose(retraction, q_map),
        second_map=q_map,
        witness=q_map.mapping.index(pivot),
        analysis=rebuilt,
    )


# Witness terms: the term route to the separating retraction, the oracle for
# `core._forced_map`.  Witnesses are minimal-size and first-found in a
# deterministic closure order; ties break by operation order
# meet < join < fusion < residual < neg.  Generators always receive
# bare-variable witnesses.


class UnboundVariable(SrlkitError):
    """A term was evaluated under an assignment missing one of its variables."""


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
