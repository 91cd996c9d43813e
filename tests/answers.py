"""Recorded answers, one short hash per input, so that a test can name the
inputs whose answers moved.

A family is a function that yields (input id, answer) pairs in a fixed
order.  Its record, `answers/<family>.txt`, holds one line per input: the
id, a tab, and the first 16 hex digits of the sha256 of the answer's
canonical JSON.  Record a family from the tree whose answers are the
reference, before its source changes:

    PYTHONPATH=src python tests/answers.py --record canonical_keys
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import random
from pathlib import Path

from srlkit.catalog import (
    brouwerian_chain,
    brouwerian_diamond,
    c4,
    crystal,
    heyting_chain,
    sugihara,
    trivial,
)
from oracles import relabel

from srlkit.cones import all_subuniverses, is_negatively_generated
from srlkit.core import (
    _subalgebra, classify, derive_order, derived_laws, direct_product, homomorphisms, validate,
)
from srlkit.documents import save
from srlkit.enumeration import (
    _automorphisms, _lattice_tables, _lattices, canonical_form, enumerate_models,
)
from srlkit.errors import HypothesesNotMet, SrlkitError
from srlkit.filters import is_fsi
from srlkit.varieties import VarietySpec, decide_es, fsi_spectrum, refute_epic

RECORDS = Path(__file__).parent / "answers"


def catalog_algebras():
    """The eleven catalog algebras of the standing verification suite."""
    return [
        trivial(), brouwerian_chain(2), brouwerian_chain(3), brouwerian_chain(4),
        brouwerian_diamond(), c4(), crystal(), sugihara(3), sugihara(5),
        heyting_chain(2), heyting_chain(4),
    ]


def canonical_keys():
    """`canonical_form` of each model of SRL <= 5, SIRL <= 5 and Brouwerian
    <= 8, then of the built subalgebra on every subuniverse of nine catalog
    algebras and products."""
    for kind, size in (("srl", 5), ("sirl", 5), ("brouwerian", 8)):
        for index, model in enumerate(enumerate_models(kind, size, bound=size)):
            yield f"{kind}{size}#{index}", canonical_form(model)
    generators = {
        "trivial": trivial(),
        "brouwerian_chain(4)": brouwerian_chain(4),
        "brouwerian_diamond": brouwerian_diamond(),
        "c4": c4(),
        "crystal": crystal(),
        "sugihara(5)": sugihara(5),
        "heyting_chain(4)": heyting_chain(4),
        "c4*sugihara(3)": direct_product(c4(), sugihara(3)),
        "brouwerian_diamond*brouwerian_chain(3)": direct_product(
            brouwerian_diamond(), brouwerian_chain(3)
        ),
    }
    for name, algebra in generators.items():
        for mask in all_subuniverses(algebra):
            carrier = sorted(mask)
            sub, _ = _subalgebra(algebra, carrier)
            yield f"{name}|{','.join(map(str, carrier))}", canonical_form(sub)


def enumerated_models():
    """The saved document of each model of SRL <= 6, SIRL <= 6 and
    Brouwerian <= 10, in enumeration order: the bytes of `enumerate --dump`."""
    for kind, size in (("srl", 6), ("sirl", 6), ("brouwerian", 10)):
        for index, model in enumerate(enumerate_models(kind, size, bound=size)):
            yield f"{kind}{size}#{index}", save(model)


def certificates(sizes=(("brouwerian", 9), ("srl", 6), ("sirl", 6))):
    """`refute_epic` on each pair of the `certify` sweep, unrelabelled: every
    FSI, negatively generated model of each (class, largest size) in `sizes`
    with each proper subuniverse whose subalgebra is negatively generated.
    The id is the class, the model's size, its index among the models of
    that size, and the subuniverse; the answer is the target's tables, both
    maps, the witness, the case, both filters and the gap, or the refusal."""
    for kind, max_size in sizes:
        seen = {}
        for model in enumerate_models(kind, max_size, bound=max_size):
            index = seen[model.size] = seen.get(model.size, -1) + 1
            if not (is_fsi(model) and is_negatively_generated(model)):
                continue
            for mask in all_subuniverses(model):
                if len(mask) == model.size:
                    continue
                sub, _ = _subalgebra(model, sorted(mask))
                if not is_negatively_generated(sub):
                    continue
                id_ = f"{kind}{model.size}#{index}|{','.join(map(str, sorted(mask)))}"
                try:
                    cert = refute_epic(model, mask)
                except HypothesesNotMet as exc:
                    yield id_, str(exc)
                    continue
                target, analysis = cert.target, cert.analysis
                yield id_, [
                    [target.meet, target.join, target.fusion, target.residual, target.neg],
                    cert.first_map.mapping, cert.second_map.mapping, cert.witness,
                    analysis.case, sorted(analysis.first_filter),
                    sorted(analysis.second_filter), sorted(analysis.gap),
                ]


def law_checks():
    """`validate`, `derive_order`, `derived_laws` and `classify` on each
    algebra of the standing suite (the catalog, Brouwerian <= 6, SRL <= 5
    and SIRL <= 5) and on seeded corruptions of it, each answer being the
    result's repr or the exception's type and message.  A corruption
    rewires one cell of one table, then that cell and its mirror image,
    moves the identity or the bottom, or rewires one entry of the
    involution.  The id is the algebra's position in the suite, its name,
    and the corruption."""

    def answer(ask):
        try:
            return repr(ask())
        except SrlkitError as exc:
            return f"{type(exc).__name__}: {exc}"

    suite = catalog_algebras() + [
        m for kind, size in (("brouwerian", 6), ("srl", 5), ("sirl", 5))
        for m in enumerate_models(kind, size)
    ]
    rng = random.Random(17)
    other = lambda n, value: rng.choice([x for x in range(n) if x != value])
    for index, algebra in enumerate(suite):
        n, head = algebra.size, f"suite#{index} {algebra.name}"
        cases = [("given", algebra)]
        if n > 1:
            for name in ("meet", "join", "fusion", "residual"):
                i, j = rng.randrange(n), rng.randrange(n)
                rows = [list(row) for row in getattr(algebra, name)]
                value = other(n, rows[i][j])
                rows[i][j] = value
                cell = f"{name}[{i}][{j}]={value}"
                cases.append((cell, dataclasses.replace(algebra, **{name: tuple(map(tuple, rows))})))
                rows[j][i] = value
                cases.append((f"{cell} mirrored",
                              dataclasses.replace(algebra, **{name: tuple(map(tuple, rows))})))
            value = other(n, algebra.e)
            cases.append((f"e={value}", dataclasses.replace(algebra, e=value)))
            if algebra.bottom is not None:
                value = other(n, algebra.bottom)
                cases.append((f"bottom={value}", dataclasses.replace(algebra, bottom=value)))
            if algebra.neg is not None:
                neg = list(algebra.neg)
                a = rng.randrange(n)
                neg[a] = other(n, neg[a])
                cases.append((f"neg[{a}]={neg[a]}", dataclasses.replace(algebra, neg=tuple(neg))))
        for variant, case in cases:
            yield f"{head}|{variant}", [
                answer(lambda: validate(case)),
                answer(lambda: sorted(derive_order(case))),
                answer(lambda: derived_laws(case)),
                answer(lambda: classify(case)),
            ]


def spectrum_specs():
    """The 756 generator tuples of the `spectra` family, as (group, name,
    generators): the catalog algebras, the models of Brouwerian <= 8, SRL
    <= 6 and SIRL <= 6, and sugihara(7)^2, each alone; then
    `benchmark_varieties`."""
    specs = [("catalog", a.name, (a,)) for a in catalog_algebras()]
    for kind, size in (("brouwerian", 8), ("srl", 6), ("sirl", 6)):
        specs += [(f"{kind}{size}", None, (m,)) for m in enumerate_models(kind, size, bound=size)]
    specs.append(("sugihara(7)^2", None, (direct_product(sugihara(7), sugihara(7)),)))
    return specs + benchmark_varieties()


def benchmark_varieties():
    """The 27 varieties of the benchmark's `decide` workload and its six
    `products`, as (group, name, generators), copied here so that a record
    does not move with the benchmark."""
    chain, sug, diamond, heyting = brouwerian_chain, sugihara, brouwerian_diamond, heyting_chain
    product = lambda group, a, b: (group, f"{a.name}*{b.name}", (direct_product(a, b),))
    singles = (
        *map(chain, range(3, 10)), *map(sug, (3, 5, 7, 9, 11)),
        *map(heyting, (3, 5, 7, 9)), crystal(), c4(), diamond(),
    )
    specs = [("decide", a.name, (a,)) for a in singles]
    for a, b in ((chain(3), chain(3)), (chain(3), chain(4)), (diamond(), chain(3)), (c4(), sug(3))):
        specs.append(product("decide", a, b))
    for a, b in ((c4(), sug(7)), (crystal(), c4()), (crystal(), sug(5)), (chain(4), diamond())):
        specs.append(("decide", f"{a.name}+{b.name}", (a, b)))
    for a, b in (
        (c4(), c4()), (diamond(), diamond()), (chain(4), chain(4)),
        (heyting(4), heyting(4)), (crystal(), sug(3)), (c4(), sug(5)),
    ):
        specs.append(product("products", a, b))
    return specs


def spectra(groups=None):
    """The FSI spectrum and ES decision of each spec of `spectrum_specs`,
    first as given, then with its generators relabelled by one shared
    `random.Random(f"identity:{index}")`, index being the spec's position.
    The id is the group, the position in the group, the name if any and
    the variant; the answer is each member's name and tables in order, the
    verdict, and the witness's member name and mask.  `groups` keeps only
    the specs of those groups."""
    counts: dict = {}
    for index, (group, name, generators) in enumerate(spectrum_specs()):
        k = counts[group] = counts.get(group, -1) + 1
        if groups is not None and group not in groups:
            continue
        rng = random.Random(f"identity:{index}")
        head = f"{group}#{k}" if name is None else f"{group}#{k} {name}"
        for variant, gens in (("given", generators), ("relabelled", [relabel(g, rng) for g in generators])):
            decision = decide_es(VarietySpec(tuple(gens)))
            witness = decision.witness
            yield f"{head}|{variant}", {
                "members": [
                    [m.name, m.size, m.meet, m.join, m.fusion, m.residual, m.e, m.neg, m.bottom]
                    for m in decision.spectrum.algebras
                ],
                "es": decision.surjective,
                "witness": None if witness is None else [witness[0].name, sorted(witness[1])],
            }


def hom_sets(groups=None):
    """The map arrays, in order, of Hom(M, C) for each ordered pair (M, C)
    of FSI spectrum members of each spec of `benchmark_varieties`, first as
    given, then with its generators relabelled by one shared
    `random.Random(f"hom_sets:{index}")`; then `_automorphisms` of each
    lattice of at most 6 elements, in `_lattices` order.  The id is the
    group, the position in the group, the name and variant, and the pair's
    member positions; `groups` keeps only the specs of those groups
    (`lattices` being the automorphisms' group)."""
    counts: dict = {}
    for index, (group, name, generators) in enumerate(benchmark_varieties()):
        k = counts[group] = counts.get(group, -1) + 1
        if groups is not None and group not in groups:
            continue
        rng = random.Random(f"hom_sets:{index}")
        for variant, gens in (("given", generators), ("relabelled", [relabel(g, rng) for g in generators])):
            members = fsi_spectrum(VarietySpec(tuple(gens))).algebras
            for i, source in enumerate(members):
                for j, target in enumerate(members):
                    yield f"{group}#{k} {name}|{variant}|{i}>{j}", [
                        h.mapping for h in homomorphisms(source, target)
                    ]
    if groups is None or "lattices" in groups:
        index = 0
        for n in range(1, 7):
            for leq in _lattices(n):
                yield f"lattices#{index} size {n}", _automorphisms(*_lattice_tables(leq))
                index += 1


FAMILIES = {
    "canonical_keys": canonical_keys,
    "enumerated_models": enumerated_models,
    "certificates": certificates,
    "spectra": spectra,
    "law_checks": law_checks,
    "hom_sets": hom_sets,
}


def short_hash(answer) -> str:
    text = json.dumps(answer, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _lines(family: str, rows=None, **options) -> list[str]:
    rows = FAMILIES[family](**options) if rows is None else rows
    return [f"{id_}\t{short_hash(answer)}" for id_, answer in rows]


def moved(family: str, sizes=None, groups=None, rows=None) -> list[str]:
    """The ids whose answers differ from the record, in record order, plus
    any input that was added to or dropped from the family.  `sizes`, given
    to a family that takes it, checks only the recorded ids of models of
    those (class, largest size) pairs; `groups` likewise checks only the
    recorded ids of those groups; `rows`, given, are the whole family's
    (id, answer) pairs, already computed."""
    recorded = (RECORDS / f"{family}.txt").read_text().splitlines()
    if sizes is not None:
        heads = {f"{kind}{n}" for kind, top in sizes for n in range(top + 1)}
        recorded = [line for line in recorded if line.split("#")[0] in heads]
        current = _lines(family, sizes=sizes)
    elif groups is not None:
        recorded = [line for line in recorded if line.split("#")[0] in groups]
        current = _lines(family, groups=groups)
    else:
        current = _lines(family, rows)
    changed = [line.split("\t")[0] for line, now in zip(recorded, current) if line != now]
    extra = recorded[len(current):] + current[len(recorded):]
    return changed + [line.split("\t")[0] for line in extra]


def record(family: str) -> int:
    lines = _lines(family)
    RECORDS.mkdir(exist_ok=True)
    (RECORDS / f"{family}.txt").write_text("\n".join(lines) + "\n")
    return len(lines)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--record", choices=sorted(FAMILIES), required=True)
    args = parser.parse_args()
    print(f"{args.record}: {record(args.record)} inputs recorded")
