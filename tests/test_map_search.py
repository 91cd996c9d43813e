"""The incremental map search (`core._map_search`) against its oracles: the
rescanning search it replaced, brute force over every map, and a census of
its constraint schedule."""

import random
from collections import Counter
from itertools import product

from srlkit.catalog import brouwerian_chain, crystal, heyting_chain, sugihara
from srlkit.core import (
    _binary_tables,
    _constraint_schedule,
    _map_search,
    direct_product,
    homomorphisms,
    is_homomorphism,
)
from oracles import relabel, scan_homomorphisms


def _distinct(algebras, max_size):
    out = []
    for algebra in algebras:
        if algebra.size <= max_size and algebra not in out:
            out.append(algebra)
    return out


def _constant_pins(source, target):
    pins = {source.e: target.e}
    if source.bottom is not None:
        pins[source.bottom] = target.bottom
    return pins


def test_map_search_matches_rescanning_oracle(suite):
    # Every same-signature pair of distinct suite algebras up to 6 elements
    # gets one call.  The calls cycle through plain, injective, one extra pin
    # {k: v}, and both, each on the algebras as given and on seeded
    # relabellings, so every kind of call meets every algebra without running
    # all eight on every pair.
    rng = random.Random(20190215)
    algebras = _distinct(suite, 6)
    images = {id(a): relabel(a, rng) for a in algebras}
    kinds = Counter()
    index = 0
    for a in algebras:
        for b in algebras:
            if a.signature != b.signature:
                continue
            injective, pinned, relabelled = index & 1, index >> 1 & 1, index >> 2 & 1
            index += 1
            source, target = (images[id(a)], images[id(b)]) if relabelled else (a, b)
            pins = _constant_pins(source, target)
            free = [k for k in source.elements if k not in pins]
            if pinned and free:
                pins[rng.choice(free)] = rng.randrange(target.size)
            candidates = [target.elements] * source.size
            fast = _map_search(source, target, pins, candidates, injective)
            slow = scan_homomorphisms(source, target, pins, candidates, injective)
            assert [h.mapping for h in fast] == [h.mapping for h in slow]
            kinds[injective, pinned, relabelled] += 1
    assert len(kinds) == 8 and min(kinds.values()) > 800


def test_homomorphisms_match_brute_force(suite):
    algebras = _distinct(suite, 4)
    pairs = 0
    for a in algebras:
        for b in algebras:
            if a.signature != b.signature:
                continue
            brute = [
                m for m in product(range(b.size), repeat=a.size) if is_homomorphism(a, b, m)
            ]
            assert [h.mapping for h in homomorphisms(a, b)] == brute
            injective = [m for m in brute if len(set(m)) == len(m)]
            assert [h.mapping for h in homomorphisms(a, b, injective=True)] == injective
            pairs += 1
    assert pairs > 100


def test_schedule_files_every_constraint_once():
    algebras = [
        brouwerian_chain(5),
        crystal(),
        sugihara(5),
        heyting_chain(4),
        direct_product(brouwerian_chain(2), brouwerian_chain(3)),
    ]
    rng = random.Random(7)
    for algebra in algebras:
        n = algebra.size
        constants = {algebra.e} | ({algebra.bottom} if algebra.bottom is not None else set())
        pin_sets = [
            constants,
            constants | {rng.randrange(n)},
            constants | set(rng.sample(range(n), n // 2)),
            set(range(n)),
        ]
        for pinned in map(frozenset, pin_sets):
            pre, slots = _constraint_schedule(algebra, pinned)
            assert _constraint_schedule(algebra, pinned)[1] is slots  # kept on the source
            assert len(slots) == n
            filed = Counter()
            for slot, (checks, negs) in [(None, pre)] + list(enumerate(slots)):
                for t, a, b, r in checks:
                    filed["table", t, a, b, r] += 1
                    assert _binary_tables(algebra)[t][a][b] == r
                    free = {a, b, r} - pinned
                    assert slot == (max(free) if free else None)
                for a, na in negs:
                    filed["neg", a, na] += 1
                    free = {a, na} - pinned
                    assert slot == (max(free) if free else None)
            expected = Counter(
                ("table", t, a, b, table[a][b])
                for t, table in enumerate(_binary_tables(algebra))
                for a in range(n)
                for b in range(n)
            )
            if algebra.neg is not None:
                expected.update(("neg", a, algebra.neg[a]) for a in range(n))
            assert filed == expected
