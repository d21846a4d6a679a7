"""The benchmark's own tests: smoke runs of every workload and fault tests
showing the output checks are live.

    python3 -m pytest -q perfbench/bench_tests.py     # from the repo root, a few minutes

The file name keeps it out of the repository's default test collection.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import checks  # noqa: E402
from run import tail_percentile  # noqa: E402
from tracer import Tracer, self_times  # noqa: E402


def spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def bench(tmp_path, workload: str, trace: int, *extra: str) -> tuple[dict, dict]:
    """Run the benchmark; returns (last-line JSON, full result file)."""
    results = tmp_path / "results"
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload, "--seed", "1",
         "--seconds", "0", "--trace", str(trace), "--smoke", "--results-dir", str(results), *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    (path,) = results.iterdir()
    return json.loads(proc.stdout.strip().splitlines()[-1]), json.loads(path.read_text())


@pytest.mark.parametrize("workload", [w["name"] for w in spec()["workloads"]])
def test_smoke_workload_end_to_end(tmp_path, workload):
    last, full = bench(tmp_path, workload, 1)
    assert last["correct"] and last["failed"] == 0 and last["attempted"] > 0
    assert set(last["metrics"]) == {m["name"] for m in spec()["per_layer"]}
    assert set(full["end_to_end"]) == {m["name"] for m in spec()["end_to_end"]}
    assert all(v > 0 for v in full["end_to_end"].values())
    assert full["tracing_overhead"]
    assert "pipeline.stage_sum_over_untraced_build" in full["layer_extra"]


@pytest.mark.parametrize("artifact", ["roots", "verify_spinor"])
def test_wrong_golden_digest_is_an_error(tmp_path, artifact):
    with open(os.path.join(BENCH, "golden.json"), encoding="utf-8") as f:
        golden = json.load(f)
    golden["digests"][artifact] = "0" * 64
    bad = tmp_path / "golden.json"
    bad.write_text(json.dumps(golden))
    last, full = bench(tmp_path, "cli_cold", 0, "--golden", str(bad))
    assert not last["correct"] and last["failed"] == 1
    assert full["named"]["error_rate"]["value"] > 0
    assert full["checks"]["failures"][0].startswith(f"digest {artifact}")


def test_corrupted_adjoint_entry_fails_the_suite_checks():
    from e8lie import algebra as alg
    from e8lie.pipeline import build_pipeline

    pipe = build_pipeline()
    mats = [m.copy() for m in pipe.rep.mats]
    bad = mats[alg.vector_flat(1, 2)].tolil()
    bad[5, 200] += 1
    mats[alg.vector_flat(1, 2)] = bad.tocsr()
    reports = alg.verify_defining_relations(alg.AdjointRep(mats), pipe.tensor, strata=("vector-vector",))
    c = checks.Checks()
    checks.check_suites(c, [r.to_dict() for r in reports], checks.load_golden(os.path.join(BENCH, "golden.json")), 100_000)
    assert c.attempted > 0 and len(c.failures) >= 2  # not passed, and differs from its golden dict
    assert any(f.startswith("suite vector-vector passed") for f in c.failures)


def test_wrong_suite_count_is_an_error():
    golden = checks.load_golden(os.path.join(BENCH, "golden.json"))
    suites = [dict(d) for d in golden["suites"]]
    c = checks.Checks()
    checks.check_suites(c, suites, golden, 100_000)
    assert not c.failures
    suites[5]["checked"] -= 1
    checks.check_suites(c, suites, golden, 100_000)
    assert len(c.failures) == 2  # pinned count and golden dict


def test_tail_percentile_keeps_ten_samples_beyond():
    assert tail_percentile(list(range(10))) is None
    pct, value = tail_percentile([float(i) for i in range(200)])
    assert pct == 95 and sum(v > value for v in range(200)) == 10


def test_self_time_subtracts_children():
    t = Tracer()
    with t.span("outer"):
        with t.span("inner"):
            pass
    outer, inner = self_times(t.spans)
    assert inner == pytest.approx(t.spans[1]["end"] - t.spans[1]["start"])
    assert outer == pytest.approx(t.spans[0]["end"] - t.spans[0]["start"] - inner)
