"""Inputs and queries of the benchmark's workloads.

A workload is a list of queries, each a (key, thunk) pair: the key names the
user-level question and indexes the expected-answers table, and calling the
thunk asks srlkit the question and returns a JSON-able answer. Building the
list is set-up; calling the thunks is the timed part.

Every input algebra is handed to srlkit under a seeded random relabelling of
its carrier. All expected answers are invariant under relabelling.
"""

from __future__ import annotations

import random
from collections import Counter

# Queries call srlkit through its modules, so that the tracer's rebinding
# of a module attribute also catches the benchmark's own calls.
from srlkit import cones, core, enumeration, filters, reflection, varieties
from srlkit.catalog import (
    brouwerian_chain,
    brouwerian_diamond,
    c4,
    crystal,
    heyting_chain,
    sugihara,
)
from srlkit.core import FiniteAlgebra

# (class, max_size, bound) of each enumerate query, in session order.
ENUMERATE_QUERIES = (("srl", 6, None), ("sirl", 6, None), ("brouwerian", 10, 10))


def relabel(algebra: FiniteAlgebra, rng: random.Random) -> FiniteAlgebra:
    """The algebra carried over a uniformly random permutation of its
    carrier: element a becomes perm[a], and e, neg and bottom follow."""
    n = algebra.size
    perm = list(range(n))
    rng.shuffle(perm)
    inv = [0] * n
    for a, b in enumerate(perm):
        inv[b] = a
    table = lambda t: tuple(
        tuple(perm[t[inv[x]][inv[y]]] for y in range(n)) for x in range(n)
    )
    return FiniteAlgebra(
        size=n,
        meet=table(algebra.meet),
        join=table(algebra.join),
        fusion=table(algebra.fusion),
        residual=table(algebra.residual),
        e=perm[algebra.e],
        neg=None if algebra.neg is None else tuple(perm[algebra.neg[inv[x]]] for x in range(n)),
        bottom=None if algebra.bottom is None else perm[algebra.bottom],
        signature=algebra.signature,
        name=algebra.name,
    )


def _product(a: tuple[str, FiniteAlgebra], b: tuple[str, FiniteAlgebra]):
    return f"{a[0]}*{b[0]}", core.direct_product(a[1], b[1])


def decide_varieties() -> list[tuple[str, tuple[FiniteAlgebra, ...]]]:
    """The 27 small varieties of `decide` (1 to 12 elements per generator)."""
    chain = lambda n: (f"brouwerian_chain({n})", brouwerian_chain(n))
    diamond = ("brouwerian_diamond", brouwerian_diamond())
    c4_ = ("c4", c4())
    crystal_ = ("crystal", crystal())
    sug = lambda n: (f"sugihara({n})", sugihara(n))
    singles = (
        [chain(n) for n in range(3, 10)]
        + [sug(n) for n in (3, 5, 7, 9, 11)]
        + [(f"heyting_chain({n})", heyting_chain(n)) for n in (3, 5, 7, 9)]
        + [crystal_, c4_, diamond]
        + [
            _product(chain(3), chain(3)),
            _product(chain(3), chain(4)),
            _product(diamond, chain(3)),
            _product(c4_, sug(3)),
        ]
    )
    pairs = [(c4_, sug(7)), (crystal_, c4_), (crystal_, sug(5)), (chain(4), diamond)]
    return [(key, (alg,)) for key, alg in singles] + [
        (f"{a[0]}+{b[0]}", (a[1], b[1])) for a, b in pairs
    ]


def product_varieties() -> list[tuple[str, tuple[FiniteAlgebra, ...]]]:
    """The six direct products of `products` (16 to 20 elements)."""
    c4_ = ("c4", c4())
    diamond = ("brouwerian_diamond", brouwerian_diamond())
    chain4 = ("brouwerian_chain(4)", brouwerian_chain(4))
    heyting4 = ("heyting_chain(4)", heyting_chain(4))
    products = [
        _product(c4_, c4_),
        _product(diamond, diamond),
        _product(chain4, chain4),
        _product(heyting4, heyting4),
        _product(("crystal", crystal()), ("sugihara(3)", sugihara(3))),
        _product(c4_, ("sugihara(5)", sugihara(5))),
    ]
    return [(key, (alg,)) for key, alg in products]


def es_query(generators: tuple[FiniteAlgebra, ...]) -> dict:
    """Gate, then decide: the ES question as a user asks it."""
    spec = varieties.VarietySpec(generators)
    gate = varieties.hypotheses_gate(spec)
    decision = varieties.decide_es(spec)
    return {
        "gate": gate.passed,
        "es": decision.surjective,
        "spectrum": len(decision.spectrum.algebras),
    }


def enumerate_query(kind: str, max_size: int, bound) -> list[int]:
    """Cumulative model counts for max sizes 1 .. max_size."""
    sizes = Counter(m.size for m in enumeration.enumerate_models(kind, max_size, bound=bound))
    counts, total = [], 0
    for n in range(1, max_size + 1):
        total += sizes[n]
        counts.append(total)
    return counts


def certify_query(algebra: FiniteAlgebra, mask: frozenset[int]) -> dict:
    cert = varieties.refute_epic(algebra, mask)
    return {"verified": varieties.verify_certificate(cert, mask)}


def reflect_query(base: FiniteAlgebra) -> dict:
    refl = reflection.reflect(base)
    return {
        "subalgebra_census": reflection.subalgebra_census_matches(refl),
        "congruence_census": reflection.congruence_census_matches(refl),
    }


def certify_inputs(rng: random.Random):
    """Relabelled (algebra, subuniverse) pairs of the certificate sweep, and
    the relabelled SRLs up to size 5 for the reflection census."""
    srl6 = enumeration.enumerate_models("srl", 6)
    algebras = (
        list(enumeration.enumerate_models("brouwerian", 9, bound=9))
        + list(srl6)
        + list(enumeration.enumerate_models("sirl", 6))
    )
    pairs = []
    for original in algebras:
        algebra = relabel(original, rng)
        if not (filters.is_fsi(algebra) and cones.is_negatively_generated(algebra)):
            continue
        for mask in cones.all_subuniverses(algebra):
            if len(mask) == algebra.size:
                continue
            sub, _ = core.subalgebra(algebra, mask)
            if cones.is_negatively_generated(sub):
                pairs.append((algebra, mask))
    bases = [relabel(m, rng) for m in srl6 if m.size <= 5]
    return pairs, bases


def build(workload: str, seed: int, round_index: int) -> list[tuple[str, object]]:
    """The workload's queries for one round, with inputs drawn from the
    seed and the round index."""
    rng = random.Random(f"{workload}:{seed}:{round_index}")
    if workload in ("decide", "products"):
        varieties = decide_varieties() if workload == "decide" else product_varieties()
        queries = []
        for key, generators in varieties:
            relabelled = tuple(relabel(g, rng) for g in generators)
            queries.append((key, lambda gens=relabelled: es_query(gens)))
        return queries
    if workload == "enumerate":
        return [
            (f"{kind}<={max_size}", lambda q=(kind, max_size, bound): enumerate_query(*q))
            for kind, max_size, bound in ENUMERATE_QUERIES
        ]
    if workload == "certify":
        pairs, bases = certify_inputs(rng)
        queries = [
            ("certificate", lambda a=algebra, m=mask: certify_query(a, m))
            for algebra, mask in pairs
        ]
        queries += [("reflection", lambda b=base: reflect_query(b)) for base in bases]
        return queries
    raise ValueError(f"unknown workload {workload!r}")
