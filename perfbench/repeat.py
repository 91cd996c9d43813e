"""Repeat the benchmark over several seeds and summarise each metric.

    python3 perfbench/repeat.py --seeds 1-10 [--workloads decide certify]
                                [--out summary.json]

For each workload, runs `run.py` once per seed (plain, `--trace 0`) with the
`run_seconds` of BENCHMARK.json, and prints every end-to-end metric's
median, quartiles and spread: the distance between the quartiles as a share
of the median. A spread wider than the metric's bound is flagged (setup_s
excepted, as its bound governs only the change of its median).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=200,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed} gave wrong answers:\n{proc.stderr}")
    return result


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"n": len(values), "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median, "values": values}


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--workloads", nargs="+", choices=names, default=names)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary, flagged = {}, 0
    for workload in args.workloads:
        runs = [run_once(workload, seed, bench["run_seconds"]) for seed in parse_seeds(args.seeds)]
        summary[workload] = {}
        for name, bound in bounds.items():
            stats = summarise([r["metrics"][name]["value"] for r in runs])
            summary[workload][name] = stats
            wide = name != "setup_s" and stats["spread"] > bound
            flagged += wide
            print(f"{workload:10} {name:12} median {stats['median']:.4g}  q1 {stats['q1']:.4g}  "
                  f"q3 {stats['q3']:.4g}  spread {stats['spread']:.3f}"
                  + (f"  SPREAD > bound {bound}" if wide else ""), flush=True)
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
