"""Algebra documents: a single self-describing JSON text format, plus Hasse
diagram export.

Field names are fixed: signature{involution, bottom}, size, e,
tables{meet, join, fusion, residual?}, neg?, bottom?, name?.  Saving is
normalized (sorted keys, two-space indent, trailing newline) so that
load/save round-trips are byte-identical on normalized documents.
"""

from __future__ import annotations

import json

from .core import (
    AxiomReport, AxiomVerdict, FiniteAlgebra, _check_tables, _covers, _lattice_laws,
    residual_from_fusion, validate,
)
from .duality import PointedPoset
from .errors import MalformedTable, NotResiduated, ParseError, ValidationError


def save(algebra: FiniteAlgebra) -> str:
    doc: dict = {
        "signature": {
            "involution": algebra.signature.has_involution,
            "bottom": algebra.signature.has_bottom,
        },
        "size": algebra.size,
        "e": algebra.e,
        "tables": {
            "meet": [list(r) for r in algebra.meet],
            "join": [list(r) for r in algebra.join],
            "fusion": [list(r) for r in algebra.fusion],
            "residual": [list(r) for r in algebra.residual],
        },
    }
    if algebra.neg is not None:
        doc["neg"] = list(algebra.neg)
    if algebra.bottom is not None:
        doc["bottom"] = algebra.bottom
    if algebra.name is not None:
        doc["name"] = algebra.name
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


_KINDS = {int: "an integer", str: "a string", bool: "a boolean", dict: "an object"}


def _typed(value, kind: type, field: str):
    """`value` when its JSON type is exactly `kind` (a boolean is not an
    integer); anything else is a ParseError naming the field."""
    if type(value) is not kind:
        raise ParseError(f"{field} must be {_KINDS[kind]}, got {json.dumps(value)}")
    return value


def load(text: str) -> FiniteAlgebra:
    """Parse, derive a missing residual table, and validate.

    Raises ParseError for structural problems, including a size, e, bottom,
    neg entry or table entry that is not a JSON integer, a name that is not a
    string, and a signature that is not an object of booleans; ValidationError
    (carrying the axiom report) when the described algebra breaks an axiom.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError("document must be a JSON object")
    try:
        size = _typed(doc["size"], int, "size")
        e = _typed(doc["e"], int, "e")
        tables = doc["tables"]
        meet = tables["meet"]
        join = tables["join"]
        fusion = tables["fusion"]
    except (KeyError, TypeError) as exc:
        raise ParseError(f"missing or malformed field: {exc}") from exc
    residual = tables.get("residual")
    neg = doc.get("neg")
    bottom = doc.get("bottom")
    for label in ("meet", "join", "fusion", "residual"):
        rows = tables.get(label)
        for r, row in enumerate(rows if isinstance(rows, list) else ()):
            for c, x in enumerate(row if isinstance(row, list) else ()):
                _typed(x, int, f"tables.{label} row {r} column {c}")
    for i, x in enumerate(neg if isinstance(neg, list) else ()):
        _typed(x, int, f"neg entry {i}")
    if bottom is not None:
        _typed(bottom, int, "bottom")
    if "name" in doc:
        _typed(doc["name"], str, "name")
    sig = _typed(doc.get("signature", {}), dict, "signature")
    flags = [_typed(sig.get(k, False), bool, f"signature.{k}") for k in ("involution", "bottom")]
    if sig and flags != [neg is not None, bottom is not None]:
        raise ParseError("signature flags disagree with the present fields")
    if residual is None:  # derived from tables that pass validate's checks on them
        try:
            meet_t, join_t, fusion_t = (
                tuple(tuple(int(x) for x in row) for row in t) for t in (meet, join, fusion))
            if size < 1:
                raise MalformedTable("size must be positive")
            _check_tables(size, ("meet", "join", "fusion"), (meet_t, join_t, fusion_t))
            lattice = _lattice_laws(meet_t, join_t)
            if not lattice.passed:
                raise ValidationError(AxiomReport((lattice,)))
            residual = residual_from_fusion(size, meet_t, fusion_t)
        except (MalformedTable, TypeError, ValueError) as exc:
            raise ParseError(str(exc)) from exc
        except NotResiduated as exc:
            report = AxiomReport(
                (AxiomVerdict("residuation", False, "no maximum witness", (exc.b, exc.c)),)
            )
            raise ValidationError(report, str(exc)) from exc
    try:
        algebra = FiniteAlgebra.build(
            size, meet, join, fusion, residual, e,
            neg=neg, bottom=bottom, name=doc.get("name"),
        )
    except (TypeError, ValueError) as exc:
        raise ParseError(f"malformed table entry: {exc}") from exc
    try:
        report = validate(algebra)
    except MalformedTable as exc:
        raise ParseError(str(exc)) from exc
    if not report.ok:
        raise ValidationError(report)
    return algebra


def export_dot(obj) -> str:
    """Deterministic Hasse-diagram text (cover edges only) for an algebra's
    order or a poset.  Node labels carry the distinguished elements."""
    lines = ["digraph hasse {", "  rankdir=BT;"]
    if isinstance(obj, PointedPoset):
        size = obj.size
        leq = lambda a, b: obj.leq[a][b]
        for a in range(size):
            tag = " (m)" if obj.top == a else ""
            lines.append(f'  n{a} [label="{a}{tag}"];')
    elif isinstance(obj, FiniteAlgebra):
        size = obj.size
        leq = obj.leq
        for a in range(size):
            tags = []
            if a == obj.e:
                tags.append("e")
            if obj.neg is not None and a == obj.neg[obj.e]:
                tags.append("f")
            if obj.bottom is not None and a == obj.bottom:
                tags.append("bot")
            tag = f" ({','.join(tags)})" if tags else ""
            lines.append(f'  n{a} [label="{a}{tag}"];')
    else:
        raise TypeError(f"cannot export {type(obj).__name__}")
    for a in range(size):
        for b in range(size):
            if _covers(leq, range(size), a, b):
                lines.append(f"  n{a} -> n{b};")
    lines.append("}")
    return "\n".join(lines) + "\n"
