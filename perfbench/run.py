"""srlkit's benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload decide --seed 1 --seconds 30 --trace 0

Run it from the root of a source checkout; it imports srlkit from `src/`.
Each round answers the workload's full query list in a fresh interpreter
(`worker.py`), so no cache survives from one round to the next. Rounds
repeat while another fits in `--seconds`, with at least two. Every answer
is checked against `expected.json`; a query that raises counts as failed,
never as a negative verdict. The last stdout line is the result:
{"correct", "attempted", "failed", "metrics"}.

With `--trace 0` the metrics are the end-to-end ones, medians over rounds
in reference seconds (see REFERENCE_S): wall_s, query_p50_s, query_p90_s,
setup_s (process start through import and input generation, at least three
set-ups) and peak_rss_mb.

With `--trace 1` every round gets the inputs of round 0. Traced rounds wrap
srlkit's public functions (`tracing.py`) and alternate with plain rounds.
The metrics are the per-layer ones (medians of the traced rounds, unscaled
seconds) and the tracing overhead. The run fails if a counter differs from
one traced round to the next, so a cache that outlived a round would show.
The per-(query, function) rows of the last traced round are written to
`.perfbench_out/`.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import select
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

from tracing import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("decide", "products", "enumerate", "certify")
MIN_ROUNDS = {False: 2, True: 3}  # traced runs need two traced rounds and a plain one
MIN_SETUPS = 3
DEADLINE_S = 170.0  # a run must end within 180 s
# End-to-end timings are reported in reference seconds: the seconds
# measured, times REFERENCE_S over the mean time the worker's reference
# kernel took while they were measured (`worker.SpeedProbe`). This factors
# the host's speed, which swings by up to 2x here, out of the figures.
# REFERENCE_S is about the kernel's mean time inside rounds on the host that
# defined the benchmark, so that there the figures read close to seconds.
REFERENCE_S = 0.002


class RoundFailed(Exception):
    pass


def run_worker(workload: str, seed: int, round_index: int, mode: str, timeout: float,
               trace_path: str | None = None) -> dict:
    """Run one round in a fresh interpreter; return its result with the
    set-up time measured from process start to the worker's ready line."""
    args = [sys.executable, str(HERE / "worker.py"), workload, str(seed), str(round_index), mode]
    if trace_path:
        args.append(trace_path)
    env = dict(os.environ, PYTHONHASHSEED="0")
    started = time.perf_counter()
    proc = subprocess.Popen(args, cwd=ROOT, env=env, stdout=subprocess.PIPE)
    chunks, ready_at = [], None
    try:
        fd = proc.stdout.fileno()
        while True:
            left = started + timeout - time.perf_counter()
            if left <= 0:
                raise RoundFailed(f"{workload} round {round_index} timed out after {timeout:.0f} s")
            readable, _, _ = select.select([fd], [], [], left)
            if not readable:
                continue
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                break
            chunks.append(chunk)
            if ready_at is None and b"\n" in chunk:
                ready_at = time.perf_counter()
        code = proc.wait(timeout=max(1.0, started + timeout - time.perf_counter()))
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    lines = b"".join(chunks).decode().splitlines()
    if code != 0 or ready_at is None or len(lines) < 2:
        raise RoundFailed(f"{workload} round {round_index} ({mode}) exited with code {code}")
    result = json.loads(lines[-1])
    result["setup_s"] = ready_at - started
    result["round_s"] = time.perf_counter() - started
    reference = result["reference_s"]
    result["setup_scale"] = REFERENCE_S / statistics.fmean(reference["setup"])
    if "queries" in reference:
        result["scale"] = REFERENCE_S / statistics.fmean(reference["queries"])
    return result


def run_rounds(workload: str, seed: int, seconds: float, trace: bool) -> tuple[list, list]:
    began = time.perf_counter()
    deadline = began + DEADLINE_S
    rounds, setups = [], []
    for index in itertools.count():
        mode = ("traced" if index % 2 == 0 else "plain") if trace else "scaled"
        trace_path = None
        if mode == "traced":
            out = ROOT / ".perfbench_out"
            out.mkdir(exist_ok=True)
            trace_path = str(out / f"trace_{workload}_seed{seed}.jsonl")
        result = run_worker(workload, seed, 0 if trace else index, mode,
                            deadline - time.perf_counter(), trace_path)
        result["mode"] = mode
        rounds.append(result)
        setups.append(result["setup_s"] * result["setup_scale"])
        typical = statistics.median(r["round_s"] for r in rounds)
        now = time.perf_counter()
        if len(rounds) >= MIN_ROUNDS[trace] and (now + typical > began + seconds or now + typical > deadline):
            break
    while len(setups) < MIN_SETUPS:
        probe = run_worker(workload, seed, 0, "setup", deadline - time.perf_counter())
        setups.append(probe["setup_s"] * probe["setup_scale"])
    return rounds, setups


def check_answers(workload: str, rounds: list, expected: dict) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) over every round. A query fails when it
    raised or its answer differs from the table; a query missing from a
    round counts as attempted and failed."""
    answers = expected[workload]["answers"]
    counts = expected[workload].get("counts", {})
    attempted = failed = 0
    problems: list[str] = []
    for index, rnd in enumerate(rounds):
        seen = Counter()
        for res in rnd["results"]:
            key = res["key"]
            seen[key] += 1
            attempted += 1
            if res["error"] is not None:
                failed += 1
                problems.append(f"round {index}: {key} raised {res['error']}")
            elif key not in answers or res["answer"] != answers[key]:
                failed += 1
                problems.append(f"round {index}: {key} answered {res['answer']!r}, "
                                f"expected {answers.get(key)!r}")
        for key in answers:
            missing = counts.get(key, 1) - seen[key]
            if missing:
                attempted += max(missing, 0)
                failed += abs(missing)
                problems.append(f"round {index}: {key} asked {seen[key]} times, "
                                f"expected {counts.get(key, 1)}")
    return attempted, failed, problems


def quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return f"{values[0]:.4g}"
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"median {q2:.4g} (q1 {q1:.4g}, q3 {q3:.4g}, n={len(values)})"


def end_to_end(workload: str, rounds: list, setups: list) -> dict:
    """Medians over rounds. The latency percentiles are taken per round, over
    the round's queries, so that they do not shift with the number of rounds
    that fit in the run; each round asks every query once."""
    walls = [r["wall_s"] * r["scale"] for r in rounds]
    p50s, p90s = [], []
    for r in rounds:
        latencies = [res["seconds"] * r["scale"] for res in r["results"]]
        p50s.append(statistics.median(latencies))
        p90s.append(statistics.quantiles(latencies, n=10, method="inclusive")[8])
    rss = [r["peak_rss_mb"] for r in rounds]
    print(f"{workload}: {len(rounds)} rounds of {len(rounds[0]['results'])} queries; "
          f"wall_s {quartiles(walls)}; unscaled {quartiles([r['wall_s'] for r in rounds])}")
    print(f"{workload}: query_p90_s {quartiles(p90s)}; setup_s over {len(setups)} set-ups "
          f"{quartiles(setups)}; peak_rss_mb {quartiles(rss)}")
    return {
        "wall_s": (statistics.median(walls), "s"),
        "query_p50_s": (statistics.median(p50s), "s"),
        "query_p90_s": (statistics.median(p90s), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
    }


def per_layer(workload: str, rounds: list) -> tuple[dict, list[str]]:
    traced = [r for r in rounds if r["mode"] == "traced"]
    plain = [r for r in rounds if r["mode"] == "plain"]
    problems = []
    metrics = {}
    for name in traced[0]["layers"]:
        values = [r["layers"][name] for r in traced]
        if name.endswith("_s"):
            metrics[name] = (statistics.median(values), "s")
        else:
            if len(set(values)) != 1:
                problems.append(f"{name} differs between traced rounds on identical inputs: {values}")
            metrics[name] = (values[0], "ratio" if name.endswith(("_yield", "_ratio")) else "count")
    traced_wall = statistics.median(r["wall_s"] for r in traced)
    plain_wall = statistics.median(r["wall_s"] for r in plain)
    attributed = statistics.median(
        sum(r["layers"][f"{layer}.self_s"] for layer in LAYERS) for r in traced)
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.plain_wall_s"] = (plain_wall, "s")
    metrics["trace.overhead_s"] = (traced_wall - plain_wall, "s")
    metrics["trace.attributed_s"] = (attributed, "s")
    metrics["trace.unattributed_s"] = (traced_wall - attributed, "s")
    print(f"{workload}: {len(traced)} traced and {len(plain)} plain rounds on the inputs of round 0; "
          f"tracing overhead {traced_wall - plain_wall:.3f} s on {plain_wall:.3f} s plain; "
          f"layer self times cover {attributed:.3f} of {traced_wall:.3f} s traced")
    return metrics, problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "srlkit" / "__init__.py").is_file():
        print(f"no srlkit source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    expected = json.loads((HERE / "expected.json").read_text())
    trace = bool(args.trace)
    try:
        rounds, setups = run_rounds(args.workload, args.seed, args.seconds, trace)
    except RoundFailed as exc:
        print(exc, file=sys.stderr)
        return 1
    attempted, failed, problems = check_answers(args.workload, rounds, expected)
    if trace:
        metrics, trace_problems = per_layer(args.workload, rounds)
        problems += trace_problems
    else:
        metrics = end_to_end(args.workload, rounds, setups)
    for problem in problems[:20]:
        print(f"{args.workload}: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
