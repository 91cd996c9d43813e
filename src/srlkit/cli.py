"""Command-line surface: machine-readable JSON reports on stdout.

Exit codes: 0 = all verdicts pass (or the query answer is affirmative),
1 = negative verdict, 2 = input or validation error, 3 = internal error
(a failed self-check or any other unexpected exception).  Reports are
deterministic except for the `timings` field.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import time
import traceback
from typing import Optional

from . import catalog as catalog_mod
from .core import (
    FiniteAlgebra, _homomorphism_search, classify, derived_laws, is_subuniverse, validate,
)
from .documents import export_dot, load, save
from .duality import _prime_space, canonical_iso, depth
from .enumeration import enumerate_models
from .errors import (
    BadParams,
    BoundExceeded,
    HypothesesNotMet,
    MalformedTable,
    NotASubalgebra,
    NotBrouwerian,
    ParseError,
    UnknownName,
    ValidationError,
    WrongSignature,
)
from .filters import all_deductive_filters, is_prime_filter
from .reflection import reflect
from .varieties import (
    VarietySpec,
    decide_es,
    hypotheses_gate,
    is_epic_subalgebra,
    refute_epic,
)

_CATALOG_NAME = re.compile(r"(?:catalog:)?([a-z_0-9]+)(?:\((\d+)\))?")


def _catalog_algebra(name: str) -> FiniteAlgebra:
    """The catalog algebra `name` or `name(n)`, with or without the
    `catalog:` prefix."""
    m = _CATALOG_NAME.fullmatch(name)
    if m is None:
        raise UnknownName(f"cannot parse catalog name {name!r}")
    params = () if m.group(2) is None else (int(m.group(2)),)
    return catalog_mod.builtin(m.group(1), *params)


def _resolve(token: str) -> FiniteAlgebra:
    """A `catalog:` URI or a document path."""
    if token.startswith("catalog:"):
        return _catalog_algebra(token)
    with open(token, "r", encoding="utf-8") as fh:
        return load(fh.read())


def _resolve_sub(algebra: FiniteAlgebra, token: str) -> frozenset[int]:
    """Comma-separated element indices naming a subuniverse, or an algebra
    to embed."""
    if not token.strip():
        raise ParseError(f"--sub must be indices i,j,... or an algebra, got {token!r}")
    if re.fullmatch(r"\d+(,\d+)*", token):
        indices = [int(x) for x in token.split(",")]
        for i in indices:
            if i >= algebra.size:
                raise NotASubalgebra(f"element {i} is outside 0..{algebra.size - 1} (size {algebra.size})")
        members = frozenset(indices)
        if not is_subuniverse(algebra, members):
            raise NotASubalgebra(f"{sorted(members)} is not a subuniverse")
        return members
    sub = _resolve(token)
    embedding = next(_homomorphism_search(sub, algebra, injective=True), None)
    if embedding is None:
        raise NotASubalgebra(f"{token} does not embed into the main algebra")
    return embedding.image()


def _spec(args) -> VarietySpec:
    return VarietySpec(tuple(_resolve(t) for t in args.variety))


def _algebra_summary(algebra: FiniteAlgebra) -> dict:
    return {"name": algebra.name, "size": algebra.size}


# Each handler maps the parsed arguments to (report fields, exit code); `main`
# adds the command, the echoed inputs and the timings, and writes the report.


def _cmd_check(args) -> tuple[dict, int]:
    algebra = _resolve(args.file)
    report_v = validate(algebra)
    out = {"verdicts": {"validate": report_v.ok}, "axioms": report_v.as_dict()}
    if report_v.ok:
        out["verdicts"]["derived_laws"] = derived_laws(algebra).ok
        out["classify"] = classify(algebra).as_dict()
    return out, 0 if report_v.ok else 1


def _cmd_dual(args) -> tuple[dict, int]:
    algebra = _resolve(args.file)
    _, primes, space = _prime_space(algebra, args.mode)
    iso = canonical_iso(algebra, args.mode)
    out = {
        "mode": args.mode,
        "points": [sorted(f) for f in primes],
        "top": space.top,
        "verdicts": {"round_trip": iso.is_bijective},
    }
    if args.dot:
        out["dot"] = export_dot(space)
    return out, 0


def _cmd_depth(args) -> tuple[dict, int]:
    return {"depth": depth(_resolve(args.file))}, 0


def _cmd_filters(args) -> tuple[dict, int]:
    algebra = _resolve(args.file)
    rows = []
    for f in all_deductive_filters(algebra):
        prime = is_prime_filter(algebra, f.members)
        if args.prime and not prime:
            continue
        rows.append(
            {"members": sorted(f.members), "prime": prime, "improper": f.is_improper}
        )
    return {"count": len(rows), "filters": rows}, 0


def _cmd_reflect(args) -> tuple[dict, int]:
    refl = reflect(_resolve(args.file))
    document = save(refl.algebra)
    with open(args.output, "w", encoding="utf-8") as fh:
        fh.write(document)
    return {"output": args.output, "result": _algebra_summary(refl.algebra)}, 0


def _cmd_epic(args) -> tuple[dict, int]:
    algebra = _resolve(args.file)
    sub = _resolve_sub(algebra, args.sub)
    refutation: list = []
    verdict = is_epic_subalgebra(algebra, sub, _spec(args), refutation=refutation)
    out = {"subalgebra": sorted(sub), "verdicts": {"epic": verdict}}
    if not verdict:
        codomain, first, second = refutation[0]
        out["witness"] = {
            "codomain": _algebra_summary(codomain),
            "first_map": list(first.mapping),
            "second_map": list(second.mapping),
        }
    return out, 0 if verdict else 1


def _cmd_refute_epic(args) -> tuple[dict, int]:
    algebra = _resolve(args.file)
    sub = _resolve_sub(algebra, args.sub)
    out = {"subalgebra": sorted(sub)}
    try:
        cert = refute_epic(algebra, sub)
    except HypothesesNotMet as exc:
        return {**out, "verdicts": {"refuted": False}, "reason": str(exc)}, 1
    analysis = cert.analysis
    quotient_map = cert.second_map
    retraction = [
        cert.first_map.mapping[quotient_map.mapping.index(u)]
        for u in cert.target.elements
    ]
    return {
        **out,
        "verdicts": {"refuted": True},
        "case": analysis.case,
        "first_filter": sorted(analysis.first_filter),
        "second_filter": sorted(analysis.second_filter),
        "congruence": list(analysis.congruence.blocks),
        "target": _algebra_summary(cert.target),
        "retraction": retraction,
        "first_map": list(cert.first_map.mapping),
        "second_map": list(cert.second_map.mapping),
        "witness": cert.witness,
    }, 0


def _cmd_es_decide(args) -> tuple[dict, int]:
    decision = decide_es(_spec(args))
    out = {
        "spectrum": [_algebra_summary(m) for m in decision.spectrum.algebras],
        "verdicts": {"es": decision.surjective},
    }
    if decision.witness is not None:
        member, mask = decision.witness
        out["witness"] = {
            "algebra": _algebra_summary(member),
            "subalgebra": sorted(mask),
        }
    return out, 0 if decision.surjective else 1


def _cmd_gate(args) -> tuple[dict, int]:
    report = hypotheses_gate(_spec(args))
    members = [
        {
            "name": e.name,
            "size": e.size,
            "depth": e.depth,
            "negatively_generated": e.negatively_generated,
        }
        for e in report.entries
    ]
    return {"verdicts": {"gate": report.passed}, "members": members}, 0 if report.passed else 1


def _cmd_enumerate(args) -> tuple[dict, int]:
    models = enumerate_models(args.cls, args.max_size, bound=args.bound)
    counts: dict[int, int] = {}
    for m in models:
        counts[m.size] = counts.get(m.size, 0) + 1
    out = {
        "class": args.cls,
        "max_size": args.max_size,
        "counts": {str(k): v for k, v in sorted(counts.items())},
        "total": len(models),
    }
    if args.dump:
        out["models"] = [json.loads(save(m)) for m in models]
    return out, 0


def _cmd_catalog(args) -> tuple[None, int]:
    """Writes the raw document, not a report."""
    sys.stdout.write(save(_catalog_algebra(args.name)))
    return None, 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="srlkit",
        description="Finite-model workbench for subidempotent residuated lattices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="validate, derived laws, classification")
    p.add_argument("file")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("dual", help="dual space and round-trip verdict")
    p.add_argument("file")
    p.add_argument("--mode", choices=("pointed", "proper"), default="pointed")
    p.add_argument("--dot", action="store_true")
    p.set_defaults(func=_cmd_dual)

    p = sub.add_parser("depth", help="depth of the algebra (cone-based)")
    p.add_argument("file")
    p.set_defaults(func=_cmd_depth)

    p = sub.add_parser("filters", help="deductive filter lattice")
    p.add_argument("file")
    p.add_argument("--prime", action="store_true")
    p.set_defaults(func=_cmd_filters)

    p = sub.add_parser("reflect", help="write the reflection as a document")
    p.add_argument("file")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_reflect)

    p = sub.add_parser("epic", help="is the subalgebra epic in the variety?")
    p.add_argument("file")
    p.add_argument("--sub", required=True, help="indices i,j,... or a document to embed")
    p.add_argument("--variety", nargs="+", required=True)
    p.set_defaults(func=_cmd_epic)

    p = sub.add_parser("refute-epic", help="produce a non-epicity certificate")
    p.add_argument("file")
    p.add_argument("--sub", required=True)
    p.set_defaults(func=_cmd_refute_epic)

    p = sub.add_parser("es-decide", help="decide epimorphism surjectivity")
    p.add_argument("--variety", nargs="+", required=True)
    p.set_defaults(func=_cmd_es_decide)

    p = sub.add_parser("gate", help="hypotheses report for the main theorem")
    p.add_argument("--variety", nargs="+", required=True)
    p.set_defaults(func=_cmd_gate)

    p = sub.add_parser("enumerate", help="enumerate models up to isomorphism")
    p.add_argument("--class", dest="cls", choices=("brouwerian", "srl", "sirl"), required=True)
    p.add_argument("--max-size", type=int, required=True)
    p.add_argument("--bound", type=int, default=None, help="override the size guard")
    p.add_argument("--dump", action="store_true")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("catalog", help="emit a builtin algebra as a document")
    p.add_argument("name")
    p.set_defaults(func=_cmd_catalog)

    return parser


_INPUT_ERRORS = (
    ParseError,
    ValidationError,
    MalformedTable,
    UnknownName,
    BadParams,
    BoundExceeded,
    NotASubalgebra,
    NotBrouwerian,
    WrongSignature,
    OSError,
    ValueError,
)


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    started = time.time()
    try:
        fields, code = args.func(args)
        if fields is not None:
            report = {"command": args.command, **fields}
            if "file" in args:
                report["input"] = args.file
            if "variety" in args:
                report["variety"] = list(args.variety)
            report["timings"] = {"seconds": round(time.time() - started, 6)}
            # serialized inside the try, so a report that cannot be written exits 3
            print(json.dumps(report, indent=2, sort_keys=True))
        return code
    except Exception as exc:
        # anything but an input error is a bug, and must not read as a negative verdict
        code = 2 if isinstance(exc, _INPUT_ERRORS) else 3
        if code == 3:
            traceback.print_exc()
        print(
            json.dumps(
                {"command": args.command, "error": str(exc), "kind": type(exc).__name__},
                indent=2,
                sort_keys=True,
            )
        )
        return code


if __name__ == "__main__":
    sys.exit(main())
