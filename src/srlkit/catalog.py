"""Built-in example algebras.

The crystal lattice's fusion table was completed once by constraint search
from its defining labels (the two self-negating incomparable elements whose
product is the top) and frozen here.  The test oracle
`tests/oracles.py::crystal_completion_search` recovers it, and shows it is
the only completion, by filtering the enumerator's fusion-table search on
the crystal lattice.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .core import FiniteAlgebra
from .errors import BadParams, UnknownName


def trivial() -> FiniteAlgebra:
    t = ((0,),)
    return FiniteAlgebra.build(1, t, t, t, t, 0, name="trivial")


def brouwerian_chain(n: int) -> FiniteAlgebra:
    """The n-element chain 0 < 1 < ... < n-1 with identity on top."""
    if n < 1:
        raise BadParams("chain length must be positive")
    rng = range(n)
    meet = [[min(a, b) for b in rng] for a in rng]
    join = [[max(a, b) for b in rng] for a in rng]
    residual = [[n - 1 if a <= b else b for b in rng] for a in rng]
    return FiniteAlgebra.build(
        n, meet, join, meet, residual, n - 1, name=f"brouwerian_chain({n})"
    )


def brouwerian_diamond() -> FiniteAlgebra:
    """Four elements: bottom 0, incomparable 1 and 2, identity 3 on top."""
    meet = [[0, 0, 0, 0], [0, 1, 0, 1], [0, 0, 2, 2], [0, 1, 2, 3]]
    join = [[0, 1, 2, 3], [1, 1, 3, 3], [2, 3, 2, 3], [3, 3, 3, 3]]
    residual = [[3, 3, 3, 3], [2, 3, 2, 3], [1, 1, 3, 3], [0, 1, 2, 3]]
    return FiniteAlgebra.build(4, meet, join, meet, residual, 3, name="brouwerian_diamond")


def c4() -> FiniteAlgebra:
    """The four-element non-idempotent De Morgan monoid on the chain
    neg(f*f) < e < f < f*f (indices 0..3)."""
    rng = range(4)
    meet = [[min(a, b) for b in rng] for a in rng]
    join = [[max(a, b) for b in rng] for a in rng]
    fusion = [
        [0, 0, 0, 0],
        [0, 1, 2, 3],
        [0, 2, 3, 3],
        [0, 3, 3, 3],
    ]
    neg = [3, 2, 1, 0]
    residual = [[neg[fusion[a][neg[b]]] for b in rng] for a in rng]
    return FiniteAlgebra.build(4, meet, join, fusion, residual, 1, neg=neg, name="c4")


_CRYSTAL_MEET = (
    (0, 0, 0, 0, 0, 0),
    (0, 1, 1, 1, 1, 1),
    (0, 1, 2, 1, 2, 2),
    (0, 1, 1, 3, 3, 3),
    (0, 1, 2, 3, 4, 4),
    (0, 1, 2, 3, 4, 5),
)
_CRYSTAL_JOIN = (
    (0, 1, 2, 3, 4, 5),
    (1, 1, 2, 3, 4, 5),
    (2, 2, 2, 4, 4, 5),
    (3, 3, 4, 3, 4, 5),
    (4, 4, 4, 4, 4, 5),
    (5, 5, 5, 5, 5, 5),
)
_CRYSTAL_NEG = (5, 4, 2, 3, 1, 0)
_CRYSTAL_FUSION = (
    (0, 0, 0, 0, 0, 0),
    (0, 1, 2, 3, 4, 5),
    (0, 2, 2, 5, 5, 5),
    (0, 3, 5, 3, 5, 5),
    (0, 4, 5, 5, 5, 5),
    (0, 5, 5, 5, 5, 5),
)


def crystal() -> FiniteAlgebra:
    """The six-element De Morgan monoid with two incomparable self-negating
    elements between the identity and f; not negatively generated.

    Index layout: 0 = neg(f*f), 1 = e, 2 = a, 3 = b, 4 = f, 5 = f*f.
    """
    rng = range(6)
    residual = [
        [_CRYSTAL_NEG[_CRYSTAL_FUSION[a][_CRYSTAL_NEG[b]]] for b in rng] for a in rng
    ]
    return FiniteAlgebra.build(
        6, _CRYSTAL_MEET, _CRYSTAL_JOIN, _CRYSTAL_FUSION, residual, 1,
        neg=_CRYSTAL_NEG, name="crystal",
    )


def sugihara(n: int) -> FiniteAlgebra:
    """The odd Sugihara chain on n = 2k+1 elements; the identity sits in the
    middle and equals its own negation."""
    if n < 1 or n % 2 == 0:
        raise BadParams("sugihara chains need an odd positive size")
    k = n // 2
    rng = range(n)
    value = lambda i: i - k
    meet = [[min(a, b) for b in rng] for a in rng]
    join = [[max(a, b) for b in rng] for a in rng]
    fusion = []
    for a in rng:
        row = []
        for b in rng:
            if abs(value(a)) > abs(value(b)):
                row.append(a)
            elif abs(value(a)) < abs(value(b)):
                row.append(b)
            else:
                row.append(min(a, b))
        fusion.append(row)
    neg = [n - 1 - i for i in rng]
    residual = [
        [max(neg[a], b) if a <= b else min(neg[a], b) for b in rng] for a in rng
    ]
    return FiniteAlgebra.build(
        n, meet, join, fusion, residual, k, neg=neg, name=f"sugihara({n})"
    )


def heyting_chain(n: int) -> FiniteAlgebra:
    """Bounded n-element chain: a Heyting algebra."""
    base = brouwerian_chain(n)
    return FiniteAlgebra.build(
        n, base.meet, base.join, base.fusion, base.residual, base.e,
        bottom=0, name=f"heyting_chain({n})",
    )


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    arity: int                       # number of integer parameters
    constructor: Callable[..., FiniteAlgebra]


CATALOG: dict[str, CatalogEntry] = {
    "trivial": CatalogEntry("trivial", 0, trivial),
    "brouwerian_chain": CatalogEntry("brouwerian_chain", 1, brouwerian_chain),
    "brouwerian_diamond": CatalogEntry("brouwerian_diamond", 0, brouwerian_diamond),
    "c4": CatalogEntry("c4", 0, c4),
    "crystal": CatalogEntry("crystal", 0, crystal),
    "sugihara": CatalogEntry("sugihara", 1, sugihara),
    "heyting_chain": CatalogEntry("heyting_chain", 1, heyting_chain),
}


def builtin(name: str, *params: int) -> FiniteAlgebra:
    """Construct a catalog algebra by name."""
    entry = CATALOG.get(name)
    if entry is None:
        raise UnknownName(f"no catalog algebra named {name!r}")
    if len(params) != entry.arity:
        raise BadParams(f"{name} takes {entry.arity} parameter(s), got {len(params)}")
    return entry.constructor(*params)
