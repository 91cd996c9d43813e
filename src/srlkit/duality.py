"""Finite duality for Brouwerian algebras (pointed mode) and Heyting
algebras (proper mode): dual spaces, up-set algebras, morphism duals,
subspaces of quotients, and depth.

Every space here is finite, so it carries the discrete topology: clopen
means arbitrary subset, and the separation axioms of the topological theory
hold automatically.  Modes are always explicit; nothing is inferred from the
presence of a bottom.

Points are read off the lattice.  A Brouwerian algebra's fusion is its meet,
so its lattice is distributive, and by Birkhoff's representation (G. Birkhoff,
"Rings of sets", Duke Math. J. 3, 1937) a proper filter ↑c is prime iff c is
join-irreducible, and ↑j ⊆ ↑k iff k ≤ j.  So a point is named by its least
element, and lies in a's point set iff it is below a.  An SRL's lattice need
not be distributive; `filters.is_prime_filter` serves those.

`_onto_up_sets` verifies every map onto an up-set algebra, and `_tower` every
square between the e-subspaces of nested filters, the retract square's too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .cones import negative_cone
from .core import (
    FiniteAlgebra,
    Homomorphism,
    Signature,
    _bits,
    _is_element,
    _join_irreducible,
    _members,
    brouwerian_reduct,
    closed_sets,
    is_homomorphism,
)
from .errors import (
    NoBottom,
    NoTop,
    NotAFilter,
    NotBrouwerian,
    VerificationFailure,
)
from .filters import DeductiveFilter, _least, is_deductive_filter, quotient


@dataclass(frozen=True)
class PointedPoset:
    """A finite poset, with a designated greatest element in pointed mode."""

    size: int
    leq: tuple[tuple[bool, ...], ...]
    top: Optional[int] = None


def all_up_sets(poset: PointedPoset, include_empty: bool) -> list[frozenset[int]]:
    """All up-sets, ordered by subset bitmask (deterministic)."""
    return [_members(m) for m in _up_masks(poset, include_empty)]


def _up_masks(poset: PointedPoset, include_empty: bool) -> list[int]:
    """`all_up_sets` as ascending int bitmasks.  A union of up-sets is one,
    so s | ↑a closes s and a; it is dropped as soon as ↑a meets the part of
    the order below a that lies outside s."""
    n = poset.size
    up = [sum(1 << b for b in range(n) if poset.leq[a][b]) for a in range(n)]
    ups = list(closed_sets(n, 0, lambda s, a: None if up[a] & ((1 << a) - 1) & ~s else s | up[a]))
    return ups if include_empty else ups[1:]  # the empty set sorts first


@dataclass(frozen=True)
class EsakiaMorphism:
    """An isotone map where everything above an image point is itself an
    image of something above."""

    source: PointedPoset
    target: PointedPoset
    mapping: tuple[int, ...]

    def __call__(self, x: int) -> int:
        return self.mapping[x]


def is_esakia_morphism(
    source: PointedPoset, target: PointedPoset, mapping: Sequence[int], pointed: bool = True
) -> bool:
    """False, not an error, when `mapping` is not a map of points."""
    n = source.size
    if len(mapping) != n or not all(_is_element(target.size, y) for y in mapping):
        return False
    for x in range(n):
        for y in range(n):
            if source.leq[x][y] and not target.leq[mapping[x]][mapping[y]]:
                return False
    for x in range(n):
        for y in range(target.size):
            if target.leq[mapping[x]][y]:
                if not any(source.leq[x][z] and mapping[z] == y for z in range(n)):
                    return False
    if pointed and source.top is not None:
        if mapping[source.top] != target.top:
            return False
    return True


def _is_brouwerian(algebra: FiniteAlgebra) -> bool:
    """`classify(algebra).brouwerian`: integral and involution-free."""
    return len(algebra.below_e) == algebra.size and not algebra.signature.has_involution


def _require_mode(algebra: FiniteAlgebra, mode: str) -> None:
    if mode not in ("pointed", "proper"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "pointed" and not _is_brouwerian(algebra):
        raise NotBrouwerian("pointed-mode duality needs a Brouwerian algebra")
    if mode == "proper" and not _is_brouwerian(algebra):
        raise NotBrouwerian("proper-mode duality needs a Heyting algebra")
    if mode == "proper" and not algebra.signature.has_bottom:
        raise NoBottom(
            "proper-mode duality needs a designated bottom; this Brouwerian algebra has none"
        )


def _prime_space(
    algebra: FiniteAlgebra, mode: str
) -> tuple[tuple[int, ...], tuple[frozenset[int], ...], PointedPoset]:
    """The prime filters, by least element and by members, in
    `all_deductive_filters` order, and their poset under inclusion.  The
    proper ones are the ↑c with c join-irreducible, by Birkhoff's reading of
    the distributive lattice (module docstring).  Pointed mode adds the
    improper filter, ↑ of the least element, as the designated top."""
    _require_mode(algebra, mode)
    meet, bottom = algebra.meet, _least(algebra, algebra.elements)
    ups = {
        c: tuple(b for b in algebra.elements if meet[c][b] == c) for c in algebra.elements
        if _join_irreducible(meet, algebra.join, c) or (mode == "pointed" and c == bottom)
    }
    least = sorted(ups, key=ups.__getitem__)
    leq = tuple(tuple(meet[k][j] == k for k in least) for j in least)
    top = least.index(bottom) if mode == "pointed" else None
    members = tuple(frozenset(ups[c]) for c in least)
    return tuple(least), members, PointedPoset(len(least), leq, top)


def dual_space(algebra: FiniteAlgebra, mode: str = "pointed") -> PointedPoset:
    """The poset of prime filters under inclusion."""
    return _prime_space(algebra, mode)[2]


def _up_set_algebra(
    poset: PointedPoset, mode: str
) -> tuple[FiniteAlgebra, dict[frozenset[int], int]]:
    """`dual_algebra`, with the element index of each up-set (keys in
    `all_up_sets` order)."""
    if mode not in ("pointed", "proper"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "pointed" and poset.top is None:
        raise NoTop("pointed-mode dual algebra needs a designated top")
    masks = _up_masks(poset, include_empty=(mode == "proper"))
    index = {_members(m): i for i, m in enumerate(masks)}
    at = {m: i for i, m in enumerate(masks)}
    n = poset.size
    # down[b] has bit a set when a <= b
    down = [sum(1 << a for a in range(n) if poset.leq[a][b]) for b in range(n)]
    full = (1 << n) - 1

    def arrow(u: int, v: int) -> int:
        """The complement of the down-set of u minus v."""
        below = 0
        for b in _bits(u & ~v):
            below |= down[b]
        return full & ~below

    k = len(masks)
    meet = tuple(tuple(at[u & v] for v in masks) for u in masks)
    join = tuple(tuple(at[u | v] for v in masks) for u in masks)
    residual = tuple(tuple(at[arrow(u, v)] for v in masks) for u in masks)
    algebra = FiniteAlgebra(
        size=k,
        meet=meet,
        join=join,
        fusion=meet,
        residual=residual,
        e=at[full],
        neg=None,
        bottom=at[0] if mode == "proper" else None,
        signature=Signature(False, mode == "proper"),
    )
    return algebra, index


def dual_algebra(poset: PointedPoset, mode: str = "pointed") -> FiniteAlgebra:
    """The algebra of up-sets: non-empty ones in pointed mode, all of them
    (with empty as bottom) in proper mode.  The residual of U, V is the
    complement of the down-set of U minus V."""
    return _up_set_algebra(poset, mode)[0]


def canonical_iso(algebra: FiniteAlgebra, mode: str = "pointed") -> Homomorphism:
    """The map sending a to the set of prime filters containing it, verified
    to be an isomorphism onto the double dual."""
    least, _, space = _prime_space(algebra, mode)
    if mode == "pointed" and algebra.signature.has_bottom:
        raise NotBrouwerian("pointed-mode round trip needs an unbounded algebra")
    images = [
        frozenset(i for i, c in enumerate(least) if algebra.leq(c, a)) for a in algebra.elements
    ]
    return _onto_up_sets(
        algebra, images, _up_set_algebra(space, mode),
        "canonical image is not an up-set", "canonical map is not an isomorphism",
    )


def _lookup(index: dict, keys, message: str) -> tuple[int, ...]:
    """`index[k]` for each key in turn; a key not in `index` raises `message`."""
    found = []
    for k in keys:
        if k not in index:
            raise VerificationFailure(message)
        found.append(index[k])
    return tuple(found)


def _onto_up_sets(source, images, up_set_algebra, not_up_set, not_iso) -> Homomorphism:
    """The map sending element i of `source` to the up-set `images[i]`,
    verified to be an isomorphism onto the up-set algebra, given with its
    index as `_up_set_algebra` returns them: `not_up_set` when an image is
    not one of its elements, else `not_iso`."""
    target, index = up_set_algebra
    hom = Homomorphism(source, target, _lookup(index, images, not_up_set))
    if not (hom.is_bijective and is_homomorphism(source, target, hom.mapping)):
        raise VerificationFailure(not_iso)
    return hom


def dualize_morphism(hom: Homomorphism, mode: str = "pointed") -> EsakiaMorphism:
    """The preimage map on prime filters, from the dual of the target to the
    dual of the source; verified to satisfy the morphism condition."""
    _, source_primes, source_space = _prime_space(hom.source, mode)
    _, target_primes, target_space = _prime_space(hom.target, mode)
    source_index = {f: i for i, f in enumerate(source_primes)}
    preimages = [
        frozenset(a for a in hom.source.elements if hom.mapping[a] in f) for f in target_primes
    ]
    mapping = _lookup(source_index, preimages, "preimage of a prime filter is not prime")
    morphism = EsakiaMorphism(target_space, source_space, mapping)
    if not is_esakia_morphism(
        morphism.source, morphism.target, morphism.mapping, pointed=(mode == "pointed")
    ):
        raise VerificationFailure("dualized map violates the morphism condition")
    return morphism


@dataclass(frozen=True)
class ESubspace:
    """The up-set of the dual space above a filter, together with the
    isomorphism from the quotient onto its up-set algebra."""

    poset: PointedPoset                 # the subspace, locally re-indexed
    points: tuple[int, ...]             # parent dual-space point ids
    quotient: FiniteAlgebra
    quotient_map: Homomorphism
    iso: Homomorphism                   # quotient -> up-set algebra of poset
    point_sets: tuple[frozenset[int], ...]  # per quotient element, parent ids


def e_subspace(
    algebra: FiniteAlgebra,
    flt: DeductiveFilter,
    chain_filter: Optional[DeductiveFilter] = None,
) -> ESubspace:
    """The subspace of prime filters above `flt`, with the verified
    isomorphism from the quotient by `flt` onto its up-set algebra.

    The first commuting square (restriction of the canonical map along the
    subspace inclusion equals the isomorphism after the quotient map) is
    always verified; when `chain_filter` extends `flt`, the tower square for
    the two quotients is verified as well."""
    # a bounded Brouwerian algebra is Heyting; `_prime_space` checks the rest
    if algebra.signature.has_bottom and _is_brouwerian(algebra):
        raise NotBrouwerian(
            "e_subspace works in pointed mode; pass the unbounded reduct"
        )
    least, _, space = _prime_space(algebra, "pointed")
    up_sets: dict = {}
    subspace = _e_subspace(algebra, least, space, flt, up_sets)
    if chain_filter is not None:
        upper = _e_subspace(
            algebra, least, space, chain_filter, up_sets,
            "tower verification needs a deductive filter",
        )
        if not flt.members <= chain_filter.members:
            raise NotAFilter("tower verification needs a filter extending the first")
        _tower(subspace, upper, "tower square does not commute")
    return subspace


def _e_subspace(
    algebra: FiniteAlgebra,
    least: tuple[int, ...],
    space: PointedPoset,
    flt: DeductiveFilter,
    up_sets: dict,
    not_a_filter: str = "e_subspace needs a deductive filter",
) -> ESubspace:
    """`e_subspace` without `chain_filter`, given the least elements of the
    prime filters and the dual space from `_prime_space(algebra, "pointed")`:
    the points above ↑c are the ↑j with j ≤ c.  `up_sets` maps each subspace
    poset met so far to its pointed `_up_set_algebra`, which a new poset
    joins; the isomorphism onto it is checked on every call.  A `flt` that
    is not a deductive filter raises `not_a_filter`."""
    if not is_deductive_filter(algebra, flt.members):
        raise NotAFilter(not_a_filter)
    c = _least(algebra, flt.members)
    parent_ids = tuple(p for p, j in enumerate(least) if algebra.leq(j, c))
    local = {p: i for i, p in enumerate(parent_ids)}
    leq = tuple(tuple(space.leq[p][q] for q in parent_ids) for p in parent_ids)
    sub_poset = PointedPoset(len(parent_ids), leq, local[space.top])

    # square one: restricting the canonical image of a to the subspace gives
    # the same point set for every member of a's class
    q_algebra, q_map = quotient(algebra, flt)
    point_sets: dict[int, frozenset[int]] = {}
    for a in algebra.elements:
        image = frozenset(p for p in parent_ids if algebra.leq(least[p], a))
        if point_sets.setdefault(q_map.mapping[a], image) != image:
            raise VerificationFailure("subspace square does not commute")

    by_class = tuple(point_sets[cls] for cls in q_algebra.elements)
    local_sets = [frozenset([local[p] for p in image]) for image in by_class]
    up_set_algebra = up_sets.get(sub_poset)
    if up_set_algebra is None:
        up_set_algebra = up_sets[sub_poset] = _up_set_algebra(sub_poset, "pointed")
    iso = _onto_up_sets(
        q_algebra, local_sets, up_set_algebra,
        "quotient image is not a non-empty up-set", "subspace map is not an isomorphism",
    )
    return ESubspace(sub_poset, parent_ids, q_algebra, q_map, iso, by_class)


def _tower(lower: ESubspace, upper: ESubspace, message: str) -> list[int]:
    """The quotient map from `lower`'s quotient onto that of `upper`, whose
    filter is larger, by class.  The tower square holds at each element: its
    point set in `upper` is its point set in `lower` cut to `upper`'s points;
    where it fails, `message` is raised."""
    upper_points = frozenset(upper.points)
    arrow = [-1] * lower.quotient.size
    for cls, up in zip(lower.quotient_map.mapping, upper.quotient_map.mapping):
        if lower.point_sets[cls] & upper_points != upper.point_sets[up]:
            raise VerificationFailure(message)
        arrow[cls] = up
    return arrow


def _point_depths(poset: PointedPoset) -> list[int]:
    """The longest chain up from each point: counted in steps to the top
    when the poset has a designated one, in points when it has none."""
    memo: dict[int, int] = {}

    def rec(a: int) -> int:
        if a == poset.top:
            return 0
        if a not in memo:
            memo[a] = 1 + max(
                (rec(b) for b in range(poset.size) if b != a and poset.leq[a][b]),
                default=0,
            )
        return memo[a]

    return [rec(x) for x in range(poset.size)]


def depth_of_point(poset: PointedPoset, x: int) -> int:
    """Longest chain from x up to the designated top, counted in steps."""
    if poset.top is None:
        raise NoTop("point depth needs a designated top")
    if not _is_element(poset.size, x):
        raise ValueError(f"point must be an integer in 0..{poset.size - 1}, got {x!r}")
    return _point_depths(poset)[x]


def depth_of_poset(poset: PointedPoset) -> int:
    """With a top: longest chain to it in steps.  Without one (proper-mode
    spaces): longest chain counted in points, which keeps a bounded algebra
    and its unbounded reduct at the same depth."""
    return max(_point_depths(poset), default=0)


def depth(target, point: Optional[int] = None) -> int:
    """Depth of a point in a pointed poset, of a poset, or of an algebra.

    For an algebra the depth is that of its negative cone's pointed dual
    (bounded algebras use their unbounded reduct, so marking a bottom never
    changes the depth)."""
    if isinstance(target, PointedPoset):
        if point is not None:
            return depth_of_point(target, point)
        return depth_of_poset(target)
    if isinstance(target, FiniteAlgebra):
        if point is not None:
            raise ValueError(f"an algebra's depth takes no point, got {point!r}")
        cone, _ = negative_cone(target)
        return depth_of_poset(dual_space(brouwerian_reduct(cone), "pointed"))
    raise TypeError(f"cannot take the depth of {type(target).__name__}")


def poset_round_trip(poset: PointedPoset, mode: str = "pointed") -> tuple[int, ...]:
    """Verify the point-side round trip: x maps to the set of up-sets
    containing it, which is a prime filter of the up-set algebra; the map is
    an order isomorphism onto the double dual's points."""
    upset_algebra, index = _up_set_algebra(poset, mode)
    _, primes, double = _prime_space(upset_algebra, mode)
    prime_index = {f: i for i, f in enumerate(primes)}
    images = [frozenset(i for u, i in index.items() if x in u) for x in range(poset.size)]
    mapping = _lookup(prime_index, images, "point image is not a prime filter")
    if len(set(mapping)) != len(primes):
        raise VerificationFailure("point round trip is not bijective")
    for x in range(poset.size):
        for y in range(poset.size):
            if poset.leq[x][y] != double.leq[mapping[x]][mapping[y]]:
                raise VerificationFailure("point round trip is not an order isomorphism")
    if double.top is not None and mapping[poset.top] != double.top:
        raise VerificationFailure("point round trip moves the top")
    return mapping
