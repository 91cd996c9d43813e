"""Brute-force reference implementations that the library's fast paths are
checked against.  Each tests every subset of the carrier by bitmask, so the
results come out in bitmask order by construction."""

from __future__ import annotations

from srlkit.core import FiniteAlgebra, is_subuniverse
from srlkit.duality import PointedPoset


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


def scan_up_sets(poset: PointedPoset, include_empty: bool) -> list[frozenset[int]]:
    """All up-sets, ordered by subset bitmask (deterministic)."""
    n = poset.size
    out = []
    for mask in range(1 << n):
        members = frozenset(a for a in range(n) if mask >> a & 1)
        if not members and not include_empty:
            continue
        if poset.up_set(members):
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
