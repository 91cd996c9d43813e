"""Self-tests of the benchmark: python3 -m pytest perfbench -q"""

from __future__ import annotations

import copy
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import pytest  # noqa: E402

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from srlkit import catalog, core, find_isomorphism, validate  # noqa: E402

EXPECTED = json.loads((HERE / "expected.json").read_text())
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())

CATALOG = [
    catalog.trivial(),
    catalog.brouwerian_chain(4),
    catalog.brouwerian_diamond(),
    catalog.c4(),
    catalog.crystal(),
    catalog.sugihara(5),
    catalog.heyting_chain(4),
    core.direct_product(catalog.c4(), catalog.sugihara(3)),
]

# Cheap varieties of `decide`, for tests that answer real queries.
REDUCED = ["brouwerian_chain(3)", "brouwerian_chain(5)", "sugihara(5)", "heyting_chain(5)",
           "crystal", "c4", "brouwerian_chain(3)*brouwerian_chain(4)", "crystal+c4"]


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("algebra", CATALOG, ids=lambda a: a.name or f"size{a.size}")
def test_relabel_gives_a_valid_isomorphic_copy(algebra, seed):
    copy_ = workloads.relabel(algebra, random.Random(seed))
    assert validate(copy_).ok
    assert find_isomorphism(algebra, copy_) is not None
    assert find_isomorphism(copy_, algebra) is not None


def reduced_round(seed: int) -> list[dict]:
    """Worker-shaped results for the reduced decide list."""
    results = []
    for key, query in workloads.build("decide", seed, 0):
        if key in REDUCED:
            results.append({"key": key, "seconds": 0.0, "answer": query(), "error": None})
    return results


def reduced_expected(table: dict) -> dict:
    answers = {key: table["decide"]["answers"][key] for key in REDUCED}
    return {"decide": {"answers": answers}}


def test_two_seeds_give_identical_answers():
    first, second = reduced_round(1), reduced_round(2)
    assert [r["answer"] for r in first] == [r["answer"] for r in second]
    assert run.check_answers("decide", [{"results": first}], reduced_expected(EXPECTED)) == (
        len(REDUCED), 0, [])


def test_wrong_expected_answer_fails_the_check():
    results = reduced_round(1)
    wrong = copy.deepcopy(reduced_expected(EXPECTED))
    wrong["decide"]["answers"]["crystal"]["es"] = True  # crystal is not ES
    attempted, failed, problems = run.check_answers("decide", [{"results": results}], wrong)
    assert (attempted, failed) == (len(REDUCED), 1)
    assert "crystal" in problems[0]


def test_raised_and_missing_queries_count_as_failed():
    results = reduced_round(1)
    results[0] = dict(results[0], answer=None, error="VerificationFailure: check failed")
    del results[-1]
    attempted, failed, problems = run.check_answers(
        "decide", [{"results": results}], reduced_expected(EXPECTED))
    assert (attempted, failed) == (len(REDUCED), 2)
    assert len(problems) == 2


def test_tracer_sees_calls_across_modules_and_restores_them():
    from srlkit import varieties

    original = varieties.homomorphisms
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert varieties.homomorphisms is not original
        workloads.es_query((catalog.brouwerian_chain(4),))
        tracer.end_query("chain4")
    finally:
        tracer.uninstall()
    assert varieties.homomorphisms is original
    metrics = tracing.layer_metrics(tracer.totals())
    assert metrics["core.homomorphisms.calls"] > 0  # called from varieties
    assert metrics["varieties.fsi_spectrum.calls"] == 2  # gate, then decide


def test_speed_probe_samples_inside_a_query_and_is_taken_out():
    import time

    import worker

    started = time.perf_counter()
    with worker.SpeedProbe(interval=0.01) as probe:
        # a generator, so the loop runs bytecode and the handler can run within it
        results = worker.run_queries([("busy", lambda: sum(i for i in range(2_000_000)))],
                                     probe=probe)
    elapsed = time.perf_counter() - started
    assert len(probe.samples) >= 2  # the timer fired while the query ran
    assert results[0]["answer"] == sum(range(2_000_000))
    assert 0 < results[0]["seconds"] <= elapsed - probe.spent


def test_benchmark_json_names_every_printed_metric():
    traced = {"mode": "traced", "wall_s": 1.0, "layers": tracing.layer_metrics({})}
    plain = {"mode": "plain", "wall_s": 1.0}
    layer_names, problems = run.per_layer("decide", [traced, plain, traced])
    assert problems == []
    assert list(layer_names) == [m["name"] for m in BENCH["per_layer"]]
    rnd = {"wall_s": 1.0, "scale": 1.0, "peak_rss_mb": 20.0,
           "results": [{"seconds": 0.1 * i} for i in range(1, 4)]}
    e2e = run.end_to_end("decide", [rnd, rnd], [0.1, 0.2, 0.3])
    assert list(e2e) == [m["name"] for m in BENCH["end_to_end"]]


def test_srl7_cumulative_counts():
    # Too slow for the timed enumerate workload (about 25 s); checked here.
    assert workloads.enumerate_query("srl", 7, 7) == [1, 2, 4, 14, 75, 570, 5493]


def test_run_prints_one_result_line():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "enumerate", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 6
    assert set(result["metrics"]) == {m["name"] for m in BENCH["end_to_end"]}


def test_run_refuses_a_directory_without_the_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "decide", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
