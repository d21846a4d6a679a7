"""The interfaces the benchmark harness (perfbench/child.py) calls: the
staged build as staged_build and layer_probes perform it, and the chart
methods instrument_layers wraps and run_chart calls, so that a renamed
function, parameter or attribute fails here first."""

import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

from e8lie import algebra, chart, clifford, halfint, roots
from e8lie.pipeline import Pipeline

REPO = Path(__file__).resolve().parents[1]
CHILD = REPO / "perfbench" / "child.py"


def test_staged_build_interface(pipe):
    gammas = clifford.build_gamma_system(self_check=True)
    spinors = clifford.spinor_generators(gammas)
    tensor = algebra.StructureTensor.build(spinors)
    rep = algebra.AdjointRep.build(tensor)
    cartan = algebra.find_cartan(rep, tensor)
    root_system = roots.build_root_system(rep, cartan)
    staged = Pipeline(gammas, spinors, tensor, rep, cartan, root_system)

    a, b = staged.gammas.sigma[0], staged.gammas.sigma[1].T
    assert halfint.mat_mul(a, b) == halfint.mat_mul(pipe.gammas.sigma[0], pipe.gammas.sigma[1].T)
    assert sum(np.count_nonzero(s.doubled) for s in staged.gammas.sigma) == 16 * 128
    assert sum(m.nnz for m in staged.rep.mats) == sum(m.nnz for m in pipe.rep.mats)
    assert staged.cartan == pipe.cartan
    assert staged.engine is not None


def test_chart_interface(engine, region):
    wrapped = set(re.findall(r'\(chart\.ChartEngine, "(\w+)"', CHILD.read_text()))
    assert {"chart", "subgroup_element", "torus_element", "chart_jacobian", "chart_rank"} <= wrapped
    for name in wrapped:
        assert callable(getattr(chart.ChartEngine, name, None)), name
    rank, svals, threshold = engine.chart_rank(chart.random_euler_point(3, region, 0.6))
    assert isinstance(rank, int) and rank == 248
    assert svals.shape == (248,) and float(svals[247]) > threshold
    assert isinstance(threshold, float)


def test_traced_chart_child(tmp_path):
    # the traced benchmark path: instrument_layers wraps every attribute it
    # names, so a missing one makes the child exit nonzero before any check
    out = tmp_path / "trace.json"
    env = {**os.environ, "PYTHONPATH": str(REPO / "src"), "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run(
        [sys.executable, str(CHILD), "chart", "--trace", "--out", str(out), "--seed", "1",
         "--chart-calls", "5", "--region-samples", "1000", "--report-samples", "20000"],
        cwd=REPO, env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(out.read_text())
    assert result["checks"]["failed"] == 0, result["checks"]["failures"]
    block = re.search(r"BUILD_SPANS = \((.*?)\)", (REPO / "perfbench" / "run.py").read_text(), re.S)
    build_spans = set(re.findall(r'"([\w.]+)"', block.group(1)))
    assert len(build_spans) == 7
    assert build_spans <= {s["name"] for s in result["spans"]}


def test_traced_certify_child(tmp_path):
    # the traced certify process: every suite dict equals its golden dict,
    # and each relation stratum is called, and recorded, on its own
    out = tmp_path / "trace.json"
    env = {**os.environ, "PYTHONPATH": str(REPO / "src"), "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run(
        [sys.executable, str(CHILD), "certify", "--trace", "--out", str(out),
         "--golden", str(REPO / "perfbench" / "golden.json"), "--seed", "1", "--samples", "1000"],
        cwd=REPO, env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(out.read_text())
    assert result["checks"]["failed"] == 0, result["checks"]["failures"]
    spans = {s["name"] for s in result["spans"]}
    assert {f"algebra.relations.{s}" for s in algebra.ALL_RELATION_STRATA} <= spans


def test_traced_cli_child(tmp_path):
    # the process kind a traced cli_cold run spawns for each command: its
    # checks pass and the payload matches the pinned digest
    out, payload = tmp_path / "r.json", tmp_path / "v.json"
    env = {**os.environ, "PYTHONPATH": str(REPO / "src"), "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run(
        [sys.executable, str(CHILD), "cli", "--trace", "--out", str(out),
         "--", "verify", "--suite", "clifford", "--out", str(payload)],
        cwd=REPO, env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(out.read_text())
    assert result["checks"]["failed"] == 0, result["checks"]["failures"]
    golden = json.loads((REPO / "perfbench" / "golden.json").read_text())["digests"]
    assert hashlib.sha256(payload.read_bytes()).hexdigest() == golden["verify_clifford"]
