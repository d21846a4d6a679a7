"""One benchmark process: `python child.py KIND --out RESULT.json [options]`.

Kinds:
  setup      import + build_pipeline(), nothing else
  certify    set-up, then every exact suite at its pinned count
  chart      set-up, then chart() calls, one chart_rank, region sampling
  cli        `e8lie.cli.main(ARGV)` in-process; the exit code is its return
  artifacts  re-read and check what the CLI commands wrote

With --trace the set-up is done stage by stage through the public
functions `build_pipeline` calls, and each call into the e8lie layers is
recorded as a span (see tracer.py); an untraced `build_pipeline()` is then
timed in the same process, for comparison with the stages.  The result
JSON holds timings in seconds, exact counts, check outcomes, spans, peak
RSS and the thread count in effect after a BLAS call.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from checks import (
    ADJOINT_RANK,
    CENTRALIZER_DIM,
    CHART_MIN_GAP,
    CHART_RANK,
    CHART_TOL,
    GENERATED_BUNDLES,
    KILLING_TRUE,
    RANK_POINT_SEED,
    Checks,
    chain_fraction_ok,
    check_digest,
    check_suites,
    load_golden,
    sha256_file,
    tree_digest,
)
from tracer import Tracer

MATMUL_PROBE_CALLS = 200
CHART_CALLS_PER_REFERENCE = 25


def threads_in_effect() -> int:
    with open("/proc/self/status", encoding="ascii") as f:
        for line in f:
            if line.startswith("Threads:"):
                return int(line.split()[1])
    raise RuntimeError("no Threads line in /proc/self/status")


def blas_threads() -> int:
    import numpy as np

    a = np.ones((256, 256))
    a @ a
    return threads_in_effect()


def instrument_layers(tracer: Tracer) -> None:
    """Record a span around each call into the public e8lie functions."""
    import scipy.linalg

    from e8lie import algebra, chart, cli, clifford, halfint, io, pipeline, roots

    def relations_name(args, kwargs):
        strata = kwargs.get("strata", algebra.ALL_RELATION_STRATA)
        return "algebra.relations." + strata[0] if len(strata) == 1 else "algebra.relations"

    for owner, attr, name in (
        (halfint, "mat_mul", "halfint.mat_mul"),
        (clifford, "build_gamma_system", "clifford.build_gamma_system"),
        (clifford, "spinor_generators", "clifford.spinor_generators"),
        (algebra.StructureTensor, "build", "algebra.structure_tensor"),
        (algebra.AdjointRep, "build", "algebra.adjoint_rep"),
        (algebra, "find_cartan", "algebra.find_cartan"),
        (algebra, "verify_clifford_pairs", "algebra.verify_clifford"),
        (algebra, "verify_chirality_consistency", "algebra.verify_chirality"),
        (algebra, "verify_so16_on_spinors", "algebra.verify_so16"),
        (algebra, "verify_defining_relations", relations_name),
        (algebra, "verify_jacobi", "algebra.verify_jacobi"),
        (algebra, "killing_form", "algebra.killing_form"),
        (algebra, "adjoint_rank", "algebra.adjoint_rank"),
        (algebra, "centralizer_dimension", "algebra.centralizer"),
        (roots, "build_root_system", "roots.build_root_system"),
        (chart.ChartEngine, "chart", "chart.chart"),
        (chart.ChartEngine, "subgroup_element", "chart.subgroup_element"),
        (chart.ChartEngine, "torus_element", "chart.torus_element"),
        (chart.ChartEngine, "chart_jacobian", "chart.chart_jacobian"),
        (chart.ChartEngine, "chart_rank", "chart.chart_rank"),
        (scipy.linalg, "svdvals", "chart.svdvals"),
        (chart, "sample_region", "chart.sample_region"),
        (chart, "region_equivalence_report", "chart.region_equivalence"),
        (io, "write_bundle", "io.write_bundle"),
        (io, "read_bundle", "io.read_bundle"),
        (io, "write_json", "io.write_json"),
        (pipeline, "build_pipeline", "pipeline.build_pipeline"),
        (cli, "main", "cli.main"),
    ):
        tracer.instrument(owner, attr, name)


def staged_build(tracer: Tracer):
    """The pipeline, built stage by stage through the functions
    build_pipeline calls, under one parent span."""
    from e8lie import algebra, clifford, roots
    from e8lie.pipeline import Pipeline

    with tracer.span("pipeline.build_pipeline"):
        gammas = clifford.build_gamma_system(self_check=True)
        spinors = clifford.spinor_generators(gammas)
        tensor = algebra.StructureTensor.build(spinors)
        rep = algebra.AdjointRep.build(tensor)
        cartan = algebra.find_cartan(rep, tensor)
        root_system = roots.build_root_system(rep, cartan)
        return Pipeline(gammas, spinors, tensor, rep, cartan, root_system)


def layer_probes(tracer: Tracer, pipe, out: dict) -> None:
    """Second root-system build, chart engine, 128x128 products, sizes,
    and an untraced build_pipeline() in this process, to compare the
    staged build with: the host's speed drifts little in a few seconds."""
    import numpy as np

    from e8lie import halfint, pipeline, roots

    roots.build_root_system(pipe.rep, pipe.cartan)  # warm: second call in the process
    with tracer.span("chart.engine_init"):
        pipe.engine
    a, b = pipe.gammas.sigma[0], pipe.gammas.sigma[1].T
    for _ in range(MATMUL_PROBE_CALLS):
        halfint.mat_mul(a, b)
    out["counts"]["clifford.sigma_nnz"] = int(sum(np.count_nonzero(s.doubled) for s in pipe.gammas.sigma))
    out["counts"]["algebra.adjoint_nnz"] = int(sum(m.nnz for m in pipe.rep.mats))
    with tracer.paused():
        t0 = time.perf_counter()
        pipeline.build_pipeline()
        out["timings"]["untraced_build_s"] = [time.perf_counter() - t0]


def setup(tracer: Tracer | None, out: dict):
    """Import plus pipeline build, timed from before the first import.

    Returns the pipeline and the speed reference of this process."""
    t0 = time.perf_counter()
    from e8lie.pipeline import build_pipeline

    if tracer is not None:
        instrument_layers(tracer)
    t1 = time.perf_counter()
    pipe = build_pipeline() if tracer is None else staged_build(tracer)
    t2 = time.perf_counter()
    out["timings"].update(setup_s=[t2 - t0], import_s=[t1 - t0], build_s=[t2 - t1])
    from speed import Reference  # numpy and scipy load inside the timed set-up, not before it

    ref = Reference()
    ref.measure()
    out["timings"]["setup_norm_s"] = [ref.scale(t2 - t0)]
    if tracer is not None:
        layer_probes(tracer, pipe, out)
    return pipe, ref


def run_certify(args, tracer, out, checks):
    import numpy as np

    from e8lie import algebra

    pipe, ref = setup(tracer, out)
    golden = load_golden(args.golden)
    g, t, rep, cartan = pipe.gammas, pipe.tensor, pipe.rep, pipe.cartan
    times = out["timings"]
    spent, scaled = [], []

    def timed(name, fn, *a, **k):
        t0 = time.perf_counter()
        r = fn(*a, **k)
        spent.append(time.perf_counter() - t0)
        scaled.append(ref.scale(spent[-1]))
        times[name] = spent[-1:]
        return r

    clifford = timed("algebra.verify_clifford", algebra.verify_clifford_pairs, g)
    chirality = timed("algebra.verify_chirality", algebra.verify_chirality_consistency, g)
    so16 = timed("algebra.verify_so16", algebra.verify_so16_on_spinors, t)
    relations = []
    for stratum in algebra.ALL_RELATION_STRATA:
        relations += timed(f"algebra.relations.{stratum}", algebra.verify_defining_relations,
                           rep, t, strata=(stratum,))
    jacobi = timed("algebra.verify_jacobi", algebra.verify_jacobi,
                   rep, t, samples=args.samples, seed=args.seed, full_spinor=True)
    killing = timed("algebra.killing_form", algebra.killing_form, rep)
    rank = timed("algebra.adjoint_rank", algebra.adjoint_rank, rep)
    centralizer = timed("algebra.centralizer", algebra.centralizer_dimension, rep, cartan)
    times["certify_s"] = [sum(spent)]
    times["work_norm_s"] = [sum(scaled)]
    times["reference_s"] = ref.samples

    reports = clifford + [chirality, so16] + relations + jacobi
    out["checked"] = {"algebra.verify_clifford": sum(r.checked for r in clifford),
                      "algebra.verify_chirality": chirality.checked, "algebra.verify_so16": so16.checked}
    out["checked"].update({f"algebra.relations.{r.name}": r.checked for r in relations})
    for r in jacobi:  # one call runs all four Jacobi strata; their split is the program's own
        name = f"algebra.jacobi.{r.name.removeprefix('jacobi-').replace('*', '')}"
        times[name] = [r.elapsed_s]
        out["checked"][name] = r.checked
    out["suites"] = [dict(r.to_dict(), elapsed_s=r.elapsed_s) for r in reports]
    check_suites(checks, [r.to_dict() for r in reports], golden, args.samples)
    checks.check("killing form = -60 I", np.array_equal(killing.doubled, 2 * KILLING_TRUE * np.eye(248, dtype=np.int64)))
    checks.check("adjoint rank", rank == ADJOINT_RANK, str(rank))
    checks.check("centralizer dimension", centralizer == CENTRALIZER_DIM, str(centralizer))


def run_chart(args, tracer, out, checks):
    import numpy as np

    from e8lie import chart

    pipe, ref = setup(tracer, out)
    times = out["timings"]
    region = pipe.region
    t0 = time.perf_counter()
    engine = pipe.engine
    times["chart.engine_init"] = [time.perf_counter() - t0]
    scaled = [ref.scale(times["chart.engine_init"][0])]

    points = [chart.random_euler_point(args.seed + i, region, 0.6) for i in range(args.chart_calls)]
    eye = np.eye(248)
    lat = []
    worst = 0.0
    for i, p in enumerate(points):
        t0 = time.perf_counter()
        g = engine.chart(p)
        lat.append(time.perf_counter() - t0)
        if (i + 1) % CHART_CALLS_PER_REFERENCE == 0 or i + 1 == len(points):
            scaled.append(ref.scale(sum(lat[i - i % CHART_CALLS_PER_REFERENCE:])))
        err = float(np.abs(g.T @ g - eye).max())  # with K = -60 I, g^T K g - K = -60 (g^T g - I)
        checks.check("chart orthogonal", err < CHART_TOL, f"{err:.2e}")
        checks.check("chart preserves Killing", -KILLING_TRUE * err < CHART_TOL, f"{-KILLING_TRUE * err:.2e}")
        worst = max(worst, err)
    times["chart_call_s"] = lat
    out["chart_worst_orthogonality"] = worst

    # the rank gap bound holds at the pinned acceptance point; elsewhere a
    # point near a region wall can have full rank with a gap below 1e3
    p = chart.random_euler_point(RANK_POINT_SEED, region, 0.6)
    t0 = time.perf_counter()
    rank, svals, threshold = engine.chart_rank(p)
    times["jacobian_s"] = [time.perf_counter() - t0]
    scaled.append(ref.scale(times["jacobian_s"][0]))
    gap = float(svals[247] / threshold)
    checks.check("chart rank", rank == CHART_RANK, str(rank))
    checks.check("chart rank gap", gap >= CHART_MIN_GAP, f"{gap:.1f}")
    out["chart_rank_gap"] = gap

    t0 = time.perf_counter()
    ys = chart.sample_region(args.seed, region, args.region_samples)
    report = chart.region_equivalence_report(args.report_samples, args.seed, region)
    times["region_report_s"] = [time.perf_counter() - t0]
    scaled.append(ref.scale(times["region_report_s"][0]))
    times["work_norm_s"] = [sum(scaled)]
    times["reference_s"] = ref.samples
    checks.check("region samples in region", ys.shape == (args.region_samples, 8)
                 and bool(chart.in_region_roots_batch(ys, region).all()))
    checks.check("box agreement", report["agreements"] == report["samples"],
                 f"{report['agreements']} of {report['samples']}")
    frac = report["region_conditioned_chain_fraction"]
    checks.check("conditioned chain fraction within 3 sigma", chain_fraction_ok(frac, report["region_conditioned_samples"]), f"{frac}")


def run_cli(args, tracer, out, checks):
    if tracer is not None:
        instrument_layers(tracer)
    from e8lie import cli

    code = cli.main(args.argv)
    out["exit_code"] = code


def run_artifacts(args, tracer, out, checks):
    """Round-trip every bundle, check the element, compare digests."""
    import numpy as np

    if tracer is not None:
        instrument_layers(tracer)
    from e8lie import io

    golden = load_golden(args.golden)
    work = args.work
    bundles = os.path.join(work, "bundles")
    headers = sorted(n for n in os.listdir(bundles) if n.endswith(".json"))
    checks.check("bundles written", len(headers) == GENERATED_BUNDLES, str(len(headers)))
    for name in headers:
        _, m = io.read_bundle(os.path.join(bundles, name))
        with open(os.path.join(bundles, name[:-5] + ".bin"), "rb") as f:
            raw = f.read()
        checks.check(f"bundle {name} round-trip", m.doubled.astype("<i4").tobytes() == raw)
    out["counts"]["io.bundles_written"] = len(headers)
    out["counts"]["io.bytes_written"] = sum(os.path.getsize(os.path.join(bundles, n)) for n in os.listdir(bundles))
    check_digest(checks, "bundles", tree_digest(bundles), golden)
    check_digest(checks, "roots", sha256_file(os.path.join(work, "roots.json")), golden)
    check_digest(checks, "verify_clifford", sha256_file(os.path.join(work, "verify-clifford.json")), golden)
    check_digest(checks, "verify_spinor", sha256_file(os.path.join(work, "verify-spinor.json")), golden)
    check_digest(checks, "region_check", sha256_file(os.path.join(work, "region-check.out")), golden)

    _, g = io.read_bundle(os.path.join(work, "elem.json"))
    with open(os.path.join(work, "elem.bin"), "rb") as f:
        checks.check("element round-trip", g.astype("<f8").tobytes() == f.read())
    err = float(np.abs(g.T @ g - np.eye(248)).max())
    checks.check("element orthogonal", err < CHART_TOL, f"{err:.2e}")
    checks.check("element preserves Killing", -KILLING_TRUE * err < CHART_TOL, f"{-KILLING_TRUE * err:.2e}")


KINDS = {
    "setup": lambda args, tracer, out, checks: setup(tracer, out),
    "certify": run_certify,
    "chart": run_chart,
    "cli": run_cli,
    "artifacts": run_artifacts,
}


def main(argv: list[str]) -> int:
    # everything after "--" is the e8lie command line, for the cli kind
    cut = argv.index("--") if "--" in argv else len(argv)
    argv, cli_argv = argv[:cut], argv[cut + 1:]
    ap = argparse.ArgumentParser()
    ap.add_argument("kind", choices=sorted(KINDS))
    ap.add_argument("--out", required=True)
    ap.add_argument("--work", default=".")
    ap.add_argument("--golden", default=None)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--samples", type=int, default=100_000)
    ap.add_argument("--chart-calls", type=int, default=200)
    ap.add_argument("--region-samples", type=int, default=100_000)
    ap.add_argument("--report-samples", type=int, default=1_000_000)
    args = ap.parse_args(argv)
    args.argv = cli_argv

    tracer = Tracer() if args.trace else None
    out = {"kind": args.kind, "timings": {}, "counts": {}}
    checks = Checks()
    KINDS[args.kind](args, tracer, out, checks)

    import numpy
    import scipy

    out["versions"] = {"numpy": numpy.__version__, "scipy": scipy.__version__}
    out["threads"] = blas_threads()
    out["checks"] = checks.as_dict()
    out["spans"] = tracer.spans if tracer is not None else []
    with open(args.out, "w", encoding="utf-8") as f:
        json.dump(out, f)
    return out.get("exit_code", 0)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
