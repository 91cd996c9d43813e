"""The incremental map search (`core._map_search`) against its oracles: the
rescanning search it replaced, brute force over every map, the recorded
`hom_sets` answers, and a census of its constraint schedule."""

import random
from collections import Counter
from itertools import product

import pytest
from answers import benchmark_varieties, moved
from srlkit.catalog import brouwerian_chain, crystal, heyting_chain, sugihara
from srlkit.core import (
    _binary_tables,
    _constraint_schedule,
    _map_search,
    direct_product,
    find_isomorphism,
    homomorphisms,
    is_homomorphism,
)
from oracles import relabel, scan_homomorphisms

PRODUCTS = {name: gens[0] for group, name, gens in benchmark_varieties() if group == "products"}
PRODUCTS["sugihara(7)*sugihara(7)"] = direct_product(sugihara(7), sugihara(7))


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
            fast = _map_search(source, target, pins, injective)
            slow = scan_homomorphisms(
                source, target, pins, [target.elements] * source.size, injective
            )
            assert [h.mapping for h in fast] == [h.mapping for h in slow]
            kinds[injective, pinned, relabelled] += 1
    assert len(kinds) == 8 and min(kinds.values()) > 800


# The products of the `products` benchmark and sugihara(7)^2, where forced
# values do most of the search.  On a 2-core host the rescanning oracle
# takes about 0.01-0.07 s on each of the first three, 0.3-1.7 s on the next
# three, and 10 s on sugihara(7)^2 as given (31 s relabelled, left out).
@pytest.mark.parametrize("name, relabelled", [
    ("c4*c4", True),
    ("crystal*sugihara(3)", True),
    ("c4*sugihara(5)", True),
    pytest.param("heyting_chain(4)*heyting_chain(4)", True, marks=pytest.mark.slow),
    pytest.param("brouwerian_chain(4)*brouwerian_chain(4)", True, marks=pytest.mark.slow),
    pytest.param("brouwerian_diamond*brouwerian_diamond", True, marks=pytest.mark.slow),
    pytest.param("sugihara(7)*sugihara(7)", False, marks=pytest.mark.slow),
])
def test_map_search_on_products_matches_rescanning_oracle(name, relabelled):
    # self-maps with the constants pinned, as given and relabelled; the
    # isomorphism onto a relabelling is the least injective map
    algebra = PRODUCTS[name]
    image = relabel(algebra, random.Random(name))
    for source in (algebra, image) if relabelled else (algebra,):
        slow = scan_homomorphisms(
            source, source, _constant_pins(source, source), [source.elements] * source.size, False
        )
        assert [h.mapping for h in homomorphisms(source, source)] == [h.mapping for h in slow]
    injective = scan_homomorphisms(
        algebra, image, _constant_pins(algebra, image), [image.elements] * algebra.size, True
    )
    assert find_isomorphism(algebra, image).mapping == injective[0].mapping


def test_hom_sets_match_the_recorded_family():
    # recorded before the search took the closure order; `pytest -m slow`
    # checks the `decide` group too
    changed = moved("hom_sets", groups=("products", "lattices"))
    assert not changed, f"{len(changed)} hom sets moved, the first at {changed[0]}"


@pytest.mark.slow
def test_every_hom_set_matches_the_recorded_family():
    changed = moved("hom_sets")
    assert not changed, f"{len(changed)} hom sets moved, the first at {changed[0]}"


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


def _closure(algebra, members):
    """The least set holding `members` and closed under every operation."""
    closed = set(members)
    while True:
        new = {t[a][b] for t in _binary_tables(algebra) for a in closed for b in closed}
        if algebra.neg is not None:
            new |= {algebra.neg[a] for a in closed}
        if new <= closed:
            return closed
        closed |= new


def _drop_rule(algebra, pinned, constraint):
    """The rule under which the schedule may drop a table constraint, and
    the constraint that implies it there (None when a law of the target
    does), or None when no rule applies."""
    t, a, b, r = constraint
    meet, neg = algebra.meet, algebra.neg
    below = lambda x: meet[x][algebra.e] == x
    if neg is not None and t in (1, 3):
        # x->y = ¬(x·¬y) and x ∨ y = ¬(¬x ∧ ¬y), read on the source; the
        # neg, meet and fusion constraints on the right are each filed or
        # dropped in their own right, at positions that may come later
        if t == 3:
            assert r == neg[algebra.fusion[a][neg[b]]], constraint
        else:
            assert r == neg[meet[neg[a]][neg[b]]], constraint
        return "involutive join and residual", None
    if t < 3 and b < a and _binary_tables(algebra)[t][b][a] == r:
        return "commuted twin", (t, b, a, r)
    if t < 2 and a == b == r:
        return "idempotent diagonal", None
    if t == 1 and {meet[a][b], r} == {a, b}:
        return "comparable join", (0, a, b, meet[a][b])
    if t == 2 and algebra.e in pinned and a <= b and below(a) and below(b) and r == meet[a][b]:
        return "fusion below e", (0, a, b, r)
    return None


def test_schedule_files_every_constraint_once():
    # Each table and involution constraint is filed once, at the position of
    # its latest element (a forced position's own constraint counting as
    # filed there), or dropped under one rule whose implying constraint is
    # filed at the same position, or, in an involutive source, a join or a
    # residual constraint that neg, meet and fusion imply.  Each branch
    # element is the least element outside the closure of the positions
    # before it, and each forced position's constraint reads only earlier
    # positions.
    algebras = [
        brouwerian_chain(5),
        crystal(),
        sugihara(5),
        heyting_chain(4),
        direct_product(brouwerian_chain(2), brouwerian_chain(3)),
    ]
    rng = random.Random(7)
    rules = Counter()
    for algebra in algebras:
        n = algebra.size
        tables = (*_binary_tables(algebra), (algebra.neg,) * n)
        constants = {algebra.e} | ({algebra.bottom} if algebra.bottom is not None else set())
        pin_sets = [
            constants,
            constants | {rng.randrange(n)},
            constants | set(rng.sample(range(n), n // 2)),
            set(range(n)),
        ]
        for pinned in map(frozenset, pin_sets):
            schedule = _constraint_schedule(algebra, pinned)
            assert _constraint_schedule(algebra, pinned) is schedule  # kept on the source
            pre, head, segments = schedule
            steps = [(x, (t, a, b), slot) for x, t, a, b, slot in head]
            for x, slot, run, members in segments:
                assert members == (x, *(y for y, *_ in run))
                steps += [(x, None, slot)] + [(y, (t, a, b), s) for y, t, a, b, s in run]
            order = [x for x, _, _ in steps]
            assert sorted(order) == sorted(set(range(n)) - pinned)
            position = {x: p for p, x in enumerate(order)} | {x: None for x in pinned}
            latest = lambda xs: max((position[x] for x in set(xs) - pinned), default=None)
            filed = Counter()
            for p, (x, force, checks) in [(None, (None, None, pre))] + list(enumerate(steps)):
                if x is not None and force is None:
                    outside = set(range(n)) - _closure(algebra, pinned | set(order[:p]))
                    assert x == min(outside)
                elif x is not None:
                    t, a, b = force
                    assert latest({a, b}) is None or latest({a, b}) < p
                    assert tables[t][a][b] == x
                    filed[t, a, b, x, p] += 1
                for t, a, b, r in checks:
                    assert tables[t][a][b] == r
                    filed[t, a, b, r, p] += 1
            assert max(filed.values()) == 1
            filed_at = {c[:-1]: c[-1] for c in filed}
            constraints = [(t, a, b, tables[t][a][b]) for t in range(4)
                           for a in range(n) for b in range(n)]
            if algebra.neg is not None:  # the involution, read at (a, a)
                constraints += [(4, a, a, algebra.neg[a]) for a in range(n)]
            assert set(filed_at) <= set(constraints)
            for constraint in constraints:
                p = latest(constraint[1:])
                if constraint in filed_at:
                    assert filed_at[constraint] == p, constraint
                    continue
                implied = constraint
                while implied is not None and implied not in filed_at:
                    rule = _drop_rule(algebra, pinned, implied)
                    assert rule is not None, f"{constraint} is neither filed nor implied"
                    rules[rule[0]] += 1
                    implied = rule[1]
                assert implied is None or filed_at[implied] == p, constraint
    assert set(rules) == {
        "commuted twin", "idempotent diagonal", "comparable join", "fusion below e",
        "involutive join and residual",
    }
