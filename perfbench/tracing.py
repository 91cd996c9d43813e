"""Per-layer tracing of srlkit, recorded from outside the library.

`Tracer.install` wraps every public function of the traced modules and
rebinds the wrapper under every name that refers to the original in any
loaded srlkit module: `from .core import homomorphisms` copies the
reference, so patching `srlkit.core` alone would miss the calls that
`srlkit.varieties` makes.

Spans are aggregated per (query, function) into calls, busy time and self
time. Busy time counts only the outermost open span of a function (or of a
layer), so recursion is not counted twice. Self time is a span's duration
minus the time covered by its child spans.
"""

from __future__ import annotations

import functools
import sys
import time

# srlkit's modules that queries run; `catalog` is used only in set-up, and
# `documents`, `cli` and `errors` are not on the benchmark's path.
LAYERS = ("core", "filters", "cones", "duality", "reflection", "varieties", "enumeration")

# Functions whose results are counted too, as the row's `outcomes` column.
OUTCOMES = {
    "core.homomorphisms": len,
    "core.find_isomorphism": lambda result: result is not None,
    "cones.all_subuniverses": len,
    "filters.is_fsi": bool,
    "varieties.fsi_spectrum": lambda result: len(result.algebras),
    "enumeration.enumerate_models": len,
}

CALLS, BUSY, SELF, OUTCOME = range(4)


def _new_row() -> list:
    return [0, 0.0, 0.0, 0]


class Tracer:
    """Wraps srlkit's public functions while installed and aggregates their
    spans. Rows are keyed by "<layer>.<function>"; the row keyed by the bare
    layer name holds the layer's busy time."""

    def __init__(self) -> None:
        self.current: dict[str, list] = {}  # rows of the query in progress
        self.queries: list[tuple[str, dict[str, list]]] = []
        self._frames: list[list[float]] = []
        self._open: dict[str, int] = {}
        self._patches: list[tuple[object, str, object]] = []

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"srlkit.{layer}"]
            self._open[layer] = 0
            for attr, obj in vars(module).items():
                if (
                    attr.startswith("_")
                    or isinstance(obj, type)
                    or not callable(obj)
                    or getattr(obj, "__module__", None) != module.__name__
                ):
                    continue
                name = f"{layer}.{attr}"
                self._open[name] = 0
                wrappers[id(obj)] = self._wrap(name, layer, obj)
        for module_name, module in list(sys.modules.items()):
            if module_name != "srlkit" and not module_name.startswith("srlkit."):
                continue
            for attr, obj in list(vars(module).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._patches.append((module, attr, obj))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def end_query(self, key: str) -> None:
        self.queries.append((key, self.current))
        self.current = {}

    def totals(self) -> dict[str, list]:
        """Rows summed over every finished query."""
        total: dict[str, list] = {}
        for _, rows in self.queries:
            for name, row in rows.items():
                acc = total.setdefault(name, _new_row())
                for i, value in enumerate(row):
                    acc[i] += value
        return total

    def _wrap(self, name: str, layer: str, fn):
        tracer = self
        frames = self._frames
        opened = self._open
        outcome = OUTCOMES.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0]
            frames.append(frame)
            opened[name] += 1
            opened[layer] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                frames.pop()
                if frames:
                    frames[-1][0] += elapsed
                opened[name] -= 1
                opened[layer] -= 1
                rows = tracer.current
                row = rows.get(name)
                if row is None:
                    row = rows[name] = _new_row()
                row[CALLS] += 1
                row[SELF] += elapsed - frame[0]
                if not opened[name]:
                    row[BUSY] += elapsed
                if not opened[layer]:
                    layer_row = rows.get(layer)
                    if layer_row is None:
                        layer_row = rows[layer] = _new_row()
                    layer_row[BUSY] += elapsed
            if outcome is not None:
                row[OUTCOME] += outcome(result)
            return result

        return traced


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(totals: dict[str, list]) -> dict[str, float]:
    """The per-layer metrics of one traced round, from `Tracer.totals()`.

    Every ratio is listed next to its base: a `*_yield` or `hit_ratio`
    divides the two counters named in its comment."""
    row = lambda name: totals.get(name, _new_row())
    metrics: dict[str, float] = {}
    for layer in LAYERS:
        prefix = layer + "."
        rows = [r for name, r in totals.items() if name.startswith(prefix)]
        metrics[f"{layer}.calls"] = sum(r[CALLS] for r in rows)
        metrics[f"{layer}.busy_s"] = row(layer)[BUSY]
        metrics[f"{layer}.self_s"] = sum(r[SELF] for r in rows)
    for name in ("core.homomorphisms", "core.find_isomorphism", "cones.all_subuniverses",
                 "enumeration.canonical_form"):
        metrics[f"{name}.calls"] = row(name)[CALLS]
        metrics[f"{name}.self_s"] = row(name)[SELF]
    for name in ("core.is_subuniverse", "core.validate", "core.residual_from_fusion",
                 "core.classify", "filters.quotient", "filters.is_fsi",
                 "varieties.fsi_spectrum", "varieties.epi_analysis", "duality.e_subspace",
                 "duality.dual_space", "duality.all_up_sets"):
        metrics[f"{name}.calls"] = row(name)[CALLS]
    metrics["varieties.fsi_spectrum.busy_s"] = row("varieties.fsi_spectrum")[BUSY]
    metrics["enumeration.enumerate_models.self_s"] = row("enumeration.enumerate_models")[SELF]

    # outcome counters: the bases of the ratios below
    metrics["core.homomorphisms.maps"] = row("core.homomorphisms")[OUTCOME]
    metrics["core.find_isomorphism.hits"] = row("core.find_isomorphism")[OUTCOME]
    metrics["cones.all_subuniverses.found"] = row("cones.all_subuniverses")[OUTCOME]
    metrics["filters.is_fsi.true"] = row("filters.is_fsi")[OUTCOME]
    metrics["varieties.fsi_spectrum.members"] = row("varieties.fsi_spectrum")[OUTCOME]
    metrics["enumeration.enumerate_models.models"] = row("enumeration.enumerate_models")[OUTCOME]

    # find_isomorphism.hits / find_isomorphism.calls
    metrics["core.find_isomorphism.hit_ratio"] = _ratio(
        metrics["core.find_isomorphism.hits"], metrics["core.find_isomorphism.calls"])
    # all_subuniverses.found / is_subuniverse.calls
    metrics["cones.subuniverse_yield"] = _ratio(
        metrics["cones.all_subuniverses.found"], metrics["core.is_subuniverse.calls"])
    # is_fsi.true / quotient.calls
    metrics["filters.fsi_yield"] = _ratio(
        metrics["filters.is_fsi.true"], metrics["filters.quotient.calls"])
    # fsi_spectrum.members / is_fsi.true
    metrics["varieties.spectrum_dedupe_yield"] = _ratio(
        metrics["varieties.fsi_spectrum.members"], metrics["filters.is_fsi.true"])
    # enumerate_models.models / canonical_form.calls
    metrics["enumeration.dedupe_yield"] = _ratio(
        metrics["enumeration.enumerate_models.models"], metrics["enumeration.canonical_form.calls"])
    return metrics

