"""One round of a workload, in a fresh interpreter.

Run by `run.py`, from the root of a source checkout:

    python3 perfbench/worker.py <workload> <seed> <round> <mode> [trace_path]

`mode` is one of

- `scaled`: answer the queries while the speed probe samples the host;
- `setup`: set up under the speed probe, then exit;
- `plain`: answer the queries with no probe and no tracer;
- `traced`: answer the queries under the tracer (`tracing.py`).

The worker imports srlkit from `src/`, builds the round's inputs, prints one
line `{"ready": true}` when set-up is done, answers every query, and prints
one JSON line with the answers, per-query seconds, the round's wall time
(their sum), its peak RSS, the probe's samples, and in traced mode the
per-layer metrics. With `trace_path` it also writes the traced round's
per-(query, function) rows there.
"""

from __future__ import annotations

import json
import resource
import signal
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# The reference kernel: subset scans for closure under three fixed 8 x 8
# tables, the same kind of pure-Python work as srlkit's table searches.
_N = 8
_TABLES = [tuple(tuple((k * a + 5 * b + a * b) % _N for b in range(_N)) for a in range(_N))
           for k in (1, 3, 7)]


def reference_seconds() -> float:
    """Time one pass of the reference kernel (about 1.5 ms). It uses no
    srlkit code, so a change to srlkit cannot move it; only the speed of the
    host can."""
    start = time.perf_counter()
    for table in _TABLES:
        for mask in range(1 << _N):
            members = [a for a in range(_N) if mask >> a & 1]
            inside = set(members)
            all(table[a][b] in inside for a in members for b in members)
    return time.perf_counter() - start


class SpeedProbe:
    """Times the reference kernel every `interval` seconds of wall time,
    from a SIGALRM handler, so that samples land inside long queries too.

    The host this benchmark was defined on swings between fast and up to
    twice as slow within a second, and drifts over minutes; the probe's
    samples say how fast the host ran while the round ran."""

    def __init__(self, interval: float = 0.05) -> None:
        self.interval = interval
        self.samples: list[float] = []
        self.spent = 0.0  # seconds spent in the handler, to take out of query times

    def __enter__(self) -> "SpeedProbe":
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def _sample(self, *_) -> None:
        start = time.perf_counter()
        self.samples.append(reference_seconds())
        self.spent += time.perf_counter() - start

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    def take(self) -> list[float]:
        """The samples so far, at least one; the probe starts afresh."""
        samples, self.samples = self.samples or [reference_seconds()], []
        return samples


def run_queries(queries, tracer=None, probe=None) -> list[dict]:
    results = []
    clock = time.perf_counter
    for key, query in queries:
        spent = probe.spent if probe else 0.0
        t0 = clock()
        try:
            answer, error = query(), None
        except Exception as exc:  # a raising query is a failed query, never a verdict
            answer, error = None, f"{type(exc).__name__}: {exc}"
            traceback.print_exc(file=sys.stderr)
        seconds = clock() - t0 - (probe.spent - spent if probe else 0.0)
        results.append({"key": key, "seconds": seconds, "answer": answer, "error": error})
        if tracer is not None:
            tracer.end_query(key)
    return results


def main(argv: list[str]) -> int:
    workload, seed, round_index, mode = argv[:4]
    trace_path = argv[4] if len(argv) > 4 else None
    with SpeedProbe() as probe:
        sys.path.insert(0, str(ROOT / "src"))
        import srlkit

        if not Path(srlkit.__file__).resolve().is_relative_to(ROOT / "src"):
            print(f"srlkit imported from {srlkit.__file__}, not from {ROOT / 'src'}", file=sys.stderr)
            return 2
        import tracing
        import workloads

        queries = workloads.build(workload, int(seed), int(round_index))
        reference = {"setup": probe.take()}
        print(json.dumps({"ready": True}), flush=True)
        if mode == "setup":
            print(json.dumps({"reference_s": reference}), flush=True)
            return 0
        if mode == "scaled":
            results = run_queries(queries, probe=probe)
            reference["queries"] = probe.take()
    tracer = None
    if mode == "traced":
        tracer = tracing.Tracer()
        tracer.install()
        try:
            results = run_queries(queries, tracer=tracer)
        finally:
            tracer.uninstall()
    elif mode == "plain":
        results = run_queries(queries)

    out = {
        "results": results,
        "wall_s": sum(r["seconds"] for r in results),
        "reference_s": reference,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        out["layers"] = tracing.layer_metrics(tracer.totals())
        if trace_path:
            rows = [{"query": i, "key": key, "rows": rows} for i, (key, rows) in enumerate(tracer.queries)]
            Path(trace_path).write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
