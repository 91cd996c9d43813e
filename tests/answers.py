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
import hashlib
import json
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
from srlkit.cones import all_subuniverses
from srlkit.core import _subalgebra, direct_product
from srlkit.enumeration import canonical_form, enumerate_models

RECORDS = Path(__file__).parent / "answers"


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


FAMILIES = {"canonical_keys": canonical_keys}


def short_hash(answer) -> str:
    text = json.dumps(answer, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _lines(family: str) -> list[str]:
    return [f"{id_}\t{short_hash(answer)}" for id_, answer in FAMILIES[family]()]


def moved(family: str) -> list[str]:
    """The ids whose answers differ from the record, in record order, plus
    any input that was added to or dropped from the family."""
    recorded = (RECORDS / f"{family}.txt").read_text().splitlines()
    current = _lines(family)
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
