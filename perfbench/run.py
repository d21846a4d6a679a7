"""The e8lie benchmark.

    python3 perfbench/run.py --workload certify|chart|cli_cold --seed N \
        --seconds S --trace 0|1 [--smoke] [--golden PATH] [--results-dir DIR]

Run it from the root of a checkout: the program is imported from `src/`
there.  Every workload process is a fresh Python with `src` on PYTHONPATH
and its BLAS pinned to one thread through the environment, set before
numpy loads.  One closed-loop caller: each call waits for the previous
one, and child processes run one at a time.

A workload pass is repeated until --seconds have elapsed (at least once).
The last line of standard output is one JSON object: with --trace 0 the
end-to-end metrics of BENCHMARK.json (set-up and work time scaled to a
reference speed, see speed.py; peak RSS), with --trace 1 its per-layer
metrics.  Lines before it are the human-readable report; the full result
(every named metric, spans, environment) is also written to
perfbench/results/.  The exit code is 2 when there is no program to run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time

from checks import REGION_Y, Checks
from tracer import summarize

BENCH = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(BENCH, "child.py")
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_SAMPLES = 2  # fresh import + build_pipeline() processes per run, about 3.5 s each
IMPORT_SAMPLES = 7  # a 0.2 s process start jitters by tens of percent; take the median of more
CHILD_TIMEOUT_S = 170.0
ELEMENT_Y = "0.05,0.06,0.07,0.08,0.09,0.1,0.11,0.5"

FULL_LOAD = {"samples": 100_000, "chart_calls": 200, "region_samples": 100_000, "report_samples": 1_000_000}
SMOKE_LOAD = {"samples": 1_000, "chart_calls": 5, "region_samples": 1_000, "report_samples": 20_000}

SPEC = os.path.join(BENCH, os.pardir, "BENCHMARK.json")
BUILD_SPANS = (
    "pipeline.build_pipeline",
    "clifford.build_gamma_system",
    "clifford.spinor_generators",
    "algebra.structure_tensor",
    "algebra.adjoint_rep",
    "algebra.find_cartan",
    "chart.engine_init",
)


class ChildFailed(RuntimeError):
    pass


class Bench:
    """Spawns the workload processes of one run and collects what they report."""

    def __init__(self, root: str, args):
        self.root = root
        self.args = args
        self.load = SMOKE_LOAD if args.smoke else FULL_LOAD
        self.setup_samples = 1 if args.smoke else SETUP_SAMPLES
        self.import_samples = 1 if args.smoke else IMPORT_SAMPLES
        os.makedirs(os.path.join(BENCH, ".work"), exist_ok=True)
        self.work = tempfile.mkdtemp(prefix="run-", dir=os.path.join(BENCH, ".work"))

    def env(self, blas_cap: bool = True) -> dict:
        env = {k: v for k, v in os.environ.items() if k not in BLAS_ENV and k != "E8LIE_THREADS"}
        env["PYTHONPATH"] = os.path.join(self.root, "src")
        if blas_cap:
            env.update(BLAS_ENV)
        return env

    def spawn(self, argv: list[str], stdout_path: str | None = None, blas_cap: bool = True):
        """Run one process to its end; returns (exit code, wall seconds, resource usage)."""
        err_path = os.path.join(self.work, "stderr.txt")
        with open(stdout_path or os.devnull, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.root, env=self.env(blas_cap), stdout=out, stderr=err)
            killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            with open(err_path, "rb") as f:
                tail = f.read()[-2000:].decode(errors="replace")
            print(f"child {' '.join(argv[1:4])} exited {proc.returncode}:\n{tail}", file=sys.stderr)
        return proc.returncode, wall, usage

    def child(self, kind: str, *extra: str, trace: bool = False, stdout_path=None, blas_cap=True):
        """Run child.py KIND; returns its result dict with `rss_kb`, `exit_code` and `blas_cap` added."""
        out = os.path.join(self.work, f"{kind}-{time.monotonic_ns()}.json")
        argv = [sys.executable, CHILD, kind, "--out", out, "--work", self.work,
                "--golden", self.args.golden, "--seed", str(self.args.seed)]
        argv += [f"--{k.replace('_', '-')}={v}" for k, v in self.load.items()]
        if trace:
            argv.append("--trace")
        argv += extra
        code, _, usage = self.spawn(argv, stdout_path=stdout_path, blas_cap=blas_cap)
        if not os.path.exists(out):
            raise ChildFailed(f"{kind} child left no result (exit {code})")
        with open(out, encoding="utf-8") as f:
            res = json.load(f)
        res.update(rss_kb=usage.ru_maxrss, exit_code=code, blas_cap=blas_cap)
        return res

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)


class Pass:
    """What one pass of a workload measured."""

    def __init__(self):
        self.samples: dict[str, list[float]] = {}   # named metric -> samples
        self.units: dict[str, str] = {}
        self.counts: dict[str, int] = {}
        self.rss_kb: list[int] = []
        self.checks = Checks()
        self.children: list[dict] = []
        self.setup_children: list[dict] = []
        self.import_s: list[float] = []
        self.work_s = 0.0       # raw seconds
        self.work_norm_s = 0.0  # seconds at the reference speed (speed.py)

    def add(self, name: str, unit: str, values) -> None:
        self.samples.setdefault(name, []).extend(values)
        self.units[name] = unit

    def take(self, res: dict, setup: bool = False, program: bool = True) -> dict:
        """Merge a child's result.  Only program processes count toward
        peak RSS: not the ones that check outputs or observe threads."""
        if program:
            self.rss_kb.append(res["rss_kb"])
        self.checks.merge(res["checks"])
        self.checks.check(f"{res['kind']} child exit code", res["exit_code"] == 0, str(res["exit_code"]))
        for k, v in res["counts"].items():
            prev = self.counts.setdefault(k, v)
            self.checks.check(f"count {k} repeats", prev == v, f"{prev} != {v}")
        self.children.append(res)
        if setup:
            self.setup_children.append(res)
        return res


def setup_probes(bench: Bench, p: Pass, trace: bool, n: int) -> None:
    """Fresh processes that only import and build the pipeline."""
    for _ in range(n):
        p.take(bench.child("setup", trace=trace), setup=True)


def import_probes(bench: Bench, p: Pass, ref) -> list[float]:
    """Fresh `import e8lie.cli` processes; returns their times at the reference speed."""
    scaled = []
    for _ in range(bench.import_samples):
        code, wall, usage = bench.spawn([sys.executable, "-c", "import e8lie.cli"])
        p.checks.check("import e8lie.cli exit code", code == 0, str(code))
        p.import_s.append(wall)
        p.rss_kb.append(usage.ru_maxrss)
        scaled.append(ref.scale(wall))
    return scaled


def set_up(bench: Bench, p: Pass, kind: str, trace: bool) -> dict:
    """Set-up samples, then the workload process, whose own set-up is the last sample."""
    if trace:
        from speed import Reference

        ref = Reference()
        ref.measure()
        import_probes(bench, p, ref)
    setup_probes(bench, p, trace, bench.setup_samples - 1)
    res = p.take(bench.child(kind, trace=trace), setup=True)
    for name in ("setup_s", "setup_norm_s"):
        p.add(name, "s", [x for c in p.setup_children for x in c["timings"][name]])
    p.add("reference_s", "s", res["timings"]["reference_s"])
    p.work_norm_s = res["timings"]["work_norm_s"][0]
    return res


def workload_certify(bench: Bench, trace: bool) -> Pass:
    p = Pass()
    res = set_up(bench, p, "certify", trace)
    t = res["timings"]
    p.add("certify_s", "s", t["certify_s"])
    for name, v in t.items():
        if name.startswith("algebra."):
            p.add(name + "_s", "s", v)
    for d in res["suites"]:
        p.counts[f"suite.{d['name']}.checked"] = d["checked"]
    p.work_s = t["certify_s"][0]
    return p


def workload_chart(bench: Bench, trace: bool) -> Pass:
    p = Pass()
    res = set_up(bench, p, "chart", trace)
    t = res["timings"]
    p.add("chart_ms", "ms", [1e3 * v for v in t["chart_call_s"]])
    p.add("jacobian_s", "s", t["jacobian_s"])
    p.add("region_report_s", "s", t["region_report_s"])
    p.work_s = t["chart.engine_init"][0] + sum(t["chart_call_s"]) + t["jacobian_s"][0] + t["region_report_s"][0]
    return p


CLI_COMMANDS = (
    ("cli_generate_s", ["generate", "--out-dir", "{work}/bundles"], None),
    ("cli_roots_s", ["roots", "--out", "{work}/roots.json"], None),
    ("cli_region_check_s", ["region", "--check", REGION_Y], "region-check.out"),
    ("cli_verify_clifford_s", ["verify", "--suite", "clifford", "--out", "{work}/verify-clifford.json"], None),
    ("cli_element_s", ["element", "--y", ELEMENT_Y, "--x-random", "--z-random", "--seed", "3",
                       "--out", "{work}/elem"], None),
)


def workload_cli_cold(bench: Bench, trace: bool) -> Pass:
    """Fresh `python -m e8lie` processes, one after another, then their outputs checked."""
    from speed import Reference

    p = Pass()
    ref = Reference()
    ref.measure()
    p.add("setup_norm_s", "s", import_probes(bench, p, ref))
    p.add("setup_s", "s", p.import_s)
    if trace:
        setup_probes(bench, p, trace, bench.setup_samples)  # staged build layers, for the per-layer metrics
    work = tempfile.mkdtemp(prefix="cli-", dir=bench.work)
    for name, argv, stdout in CLI_COMMANDS:
        argv = [a.format(work=work) for a in argv]
        stdout_path = os.path.join(work, stdout) if stdout else None
        t0 = time.perf_counter()
        if trace:
            res = p.take(bench.child("cli", "--", *argv, trace=True, stdout_path=stdout_path))
            code = res["exit_code"]
        else:
            code, _, usage = bench.spawn([sys.executable, "-m", "e8lie", *argv], stdout_path=stdout_path)
            p.rss_kb.append(usage.ru_maxrss)
        wall = time.perf_counter() - t0
        p.checks.check(f"{argv[0]} exit code", code == 0, str(code))
        p.add(name, "s", [wall])
        p.work_s += wall
        p.work_norm_s += ref.scale(wall)
    p.add("reference_s", "s", ref.samples)
    # untimed: the `verify --suite spinor` payload for its golden digest, run
    # with the --threads flag alone, without the BLAS cap in the environment
    res = p.take(bench.child("cli", "--", "verify", "--suite", "spinor", "--out", f"{work}/verify-spinor.json",
                             "--threads", "1", blas_cap=False), program=False)
    p.threads_flag_1 = res["threads"]
    p.take(bench.child("artifacts", "--work", work, trace=trace), program=False)
    return p


WORKLOADS = {"certify": workload_certify, "chart": workload_chart, "cli_cold": workload_cli_cold}


def run_passes(bench: Bench, workload: str, trace: bool, seconds: float) -> list[Pass]:
    passes = []
    t0 = time.perf_counter()
    while not passes or time.perf_counter() - t0 < seconds:
        passes.append(WORKLOADS[workload](bench, trace))
    return passes


# ---------------------------------------------------------------------------
# statistics and the report

def tail_percentile(values: list[float]):
    """Highest whole percentile with at least ten samples beyond it (nearest rank)."""
    n = len(values)
    if n < 11:
        return None
    s = sorted(values)
    pct = max(q for q in range(1, 100) if -(-q * n // 100) <= n - 10)
    return pct, s[-(-pct * n // 100) - 1]


def describe(values: list[float], unit: str) -> str:
    text = f"median of n={len(values)}"
    tail = tail_percentile(values)
    return text + (f"; p{tail[0]} {tail[1]:.6g} {unit}" if tail else "; no percentile has 10 samples beyond it")


def merged(passes: list[Pass]):
    samples, units = {}, {}
    for p in passes:
        for k, v in p.samples.items():
            samples.setdefault(k, []).extend(v)
            units[k] = p.units[k]
    checks = Checks()
    for p in passes:
        checks.merge(p.checks.as_dict())
    return samples, units, checks


def end_to_end(passes: list[Pass]) -> dict[str, float]:
    samples, _, _ = merged(passes)
    return {
        "setup_s": statistics.median(samples["setup_norm_s"]),
        "work_s": statistics.median(p.work_norm_s for p in passes),
        "peak_rss_mb": max(max(p.rss_kb) for p in passes) / 1024.0,
    }


def named_metrics(workload: str, passes: list[Pass]) -> dict[str, tuple[float, str, str]]:
    """The workload's named metrics: name -> (value, unit, description)."""
    from speed import NOMINAL_S

    samples, units, checks = merged(passes)
    e2e = end_to_end(passes)
    out = {
        "setup_s": (e2e["setup_s"], "s", f"at reference speed; median of n={len(samples['setup_norm_s'])}"),
        "work_s": (e2e["work_s"], "s", f"at reference speed; median over {len(passes)} pass(es)"),
        "setup_raw_s": (statistics.median(samples["setup_s"]), "s", describe(samples["setup_s"], "s")),
        "work_raw_s": (statistics.median(p.work_s for p in passes), "s", f"median over {len(passes)} pass(es)"),
        "reference_s": (statistics.median(samples["reference_s"]), "s",
                        f"{describe(samples['reference_s'], 's')}; nominal {NOMINAL_S} s"),
    }
    keep = {"certify": ["certify_s"],
            "chart": ["chart_ms", "jacobian_s", "region_report_s"],
            "cli_cold": [c[0] for c in CLI_COMMANDS]}[workload]
    for name in keep:
        vals, unit = samples[name], units[name]
        if name == "chart_ms":
            out["chart_p50_ms"] = (statistics.median(vals), unit, describe(vals, unit))
            pct, v = tail_percentile(vals) or (100, max(vals))
            out[f"chart_p{pct}_ms"] = (v, unit, f"p{pct} of n={len(vals)} chart() calls")
        else:
            out[name] = (statistics.median(vals), unit, describe(vals, unit))
    out["peak_rss_mb"] = (e2e["peak_rss_mb"], "MB", "max ru_maxrss over the workload's processes")
    out["error_rate"] = (len(checks.failures) / max(checks.attempted, 1), "ratio",
                         f"{len(checks.failures)} failed / {checks.attempted} attempted checks")
    return out


def _child_sum(spans: list[dict], parent_name: str) -> tuple[float, float]:
    """(duration of the first span named parent_name, summed durations of its direct children)."""
    i = next(k for k, sp in enumerate(spans) if sp["name"] == parent_name)
    kids = sum(sp["end"] - sp["start"] for sp in spans if sp["parent"] == i)
    return spans[i]["end"] - spans[i]["start"], kids


def _durations(spans: list[dict], name: str) -> list[float]:
    return [sp["end"] - sp["start"] for sp in spans if sp["name"] == name]


def layer_metrics(passes: list[Pass]):
    """Per-layer results of a traced run.

    Returns the BENCHMARK.json per-layer metrics (medians over the staged
    set-up samples), the workload's own named layer metrics, and a span
    table: name -> calls, total, self and median seconds over all traced
    processes of the run.
    """
    per_sample: dict[str, list[float]] = {}
    matmul, builds, stage_sums, stage_ratios = [], [], [], []
    for p in passes:
        for res in p.setup_children:
            spans = res["spans"]
            summ = summarize(spans)
            for name in BUILD_SPANS:
                per_sample.setdefault(name + "_s", []).append(summ[name]["total_s"])
            build, stages = _child_sum(spans, "pipeline.build_pipeline")
            stage_ratios.append(stages / res["timings"]["untraced_build_s"][0])  # both in one process
            builds.append(build)
            stage_sums.append(stages)
            cold, warm = _durations(spans, "roots.build_root_system")[:2]
            per_sample.setdefault("roots.build_root_system_cold_s", []).append(cold)
            per_sample.setdefault("roots.build_root_system_warm_s", []).append(warm)
            matmul += [1e3 * d for d in _durations(spans, "halfint.mat_mul")]
    counts: dict[str, int] = {}
    for p in passes:
        counts.update(p.counts)
    common = {k: statistics.median(v) for k, v in per_sample.items()}
    common["halfint.matmul_128_ms"] = statistics.median(matmul)
    common["cli.import_s"] = statistics.median(x for p in passes for x in p.import_s)
    common["clifford.sigma_nnz"] = counts["clifford.sigma_nnz"]
    common["algebra.adjoint_nnz"] = counts["algebra.adjoint_nnz"]

    extra: dict[str, tuple[float, str]] = {k: (v, "count") for k, v in counts.items()
                                          if k not in common}
    extra["pipeline.stage_sum_s"] = (statistics.median(stage_sums), "s")
    extra["pipeline.build_pipeline_self_s"] = (statistics.median(b - s for b, s in zip(builds, stage_sums)), "s")
    extra["pipeline.stage_sum_over_untraced_build"] = (statistics.median(stage_ratios), "ratio")
    samples, units, _ = merged(passes)
    for name, vals in samples.items():
        if name.startswith("algebra."):
            extra[name] = (statistics.median(vals), units[name])
    for p in passes:
        for res in p.children:
            for name, checked in res.get("checked", {}).items():
                secs = statistics.median(samples[name + "_s"])
                extra[name + "_checked"] = (checked, "count")
                extra[name + "_per_s"] = (checked / secs, "1/s")
            if res["kind"] == "chart":
                jac = [k for k, sp in enumerate(res["spans"]) if sp["name"] == "chart.chart_jacobian"]
                extra["chart.jacobian_chart_calls"] = (
                    sum(1 for sp in res["spans"] if sp["name"] == "chart.chart" and sp["parent"] in jac), "count")

    table: dict[str, dict] = {}
    for p in passes:
        for res in p.children:
            for name, d in summarize(res["spans"]).items():
                t = table.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "medians": []})
                t["calls"] += d["calls"]
                t["total_s"] += d["total_s"]
                t["self_s"] += d["self_s"]
                t["medians"].append(d["median_s"])
    for t in table.values():
        t["median_s"] = statistics.median(t.pop("medians"))
    return common, extra, table


def environment(passes: list[Pass]) -> dict:
    def first_line(path, key):
        try:
            with open(path, encoding="ascii", errors="replace") as f:
                return next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith(key)), None)
        except OSError:
            return None

    first = next(c for c in passes[0].children if c["blas_cap"])
    env = {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": first_line("/proc/cpuinfo", "model name"),
        "mem_total": first_line("/proc/meminfo", "MemTotal"),
        "python": platform.python_version(),
        "versions": first.get("versions"),
        "blas_env": BLAS_ENV,
        "threads_in_effect": first.get("threads"),
    }
    if hasattr(passes[0], "threads_flag_1"):
        env["threads_with_cli_flag_1_uncapped"] = passes[0].threads_flag_1
    return env


def print_report(args, spec, e2e, named, checks, env, layers=None, overhead=None) -> None:
    print(f"# e8lie benchmark  workload={args.workload} seed={args.seed} trace={args.trace}"
          f" smoke={int(args.smoke)} seconds={args.seconds}")
    print("# env " + json.dumps(env, sort_keys=True))
    for name, (value, unit, how) in named.items():
        print(f"{name:28s} {value:.6g} {unit}   {how}")
    if checks.failures:
        print(f"# {len(checks.failures)} failed checks, first: " + "; ".join(checks.failures[:5]))
    if layers is not None:
        common, extra, table = layers
        print("# per-layer (traced run)")
        for name, value in common.items():
            print(f"{name:40s} {value:.6g} {spec['per_layer'][name]['unit']}")
        for name, (value, unit) in sorted(extra.items()):
            print(f"{name:40s} {value if unit == 'count' else f'{value:.6g}'} {unit}")
        print(f"# {'span':36s} {'calls':>7s} {'total_s':>10s} {'self_s':>10s} {'median_ms':>10s}")
        for name, t in sorted(table.items()):
            print(f"  {name:36s} {t['calls']:7d} {t['total_s']:10.4f} {t['self_s']:10.4f} {1e3 * t['median_s']:10.3f}")
    if overhead:
        print("# tracing overhead (traced - untraced)")
        for name, (untraced, traced, unit) in overhead.items():
            rel = (traced - untraced) / untraced if untraced else float("nan")
            print(f"{name:28s} {traced - untraced:+.4g} {unit}  ({rel:+.1%}; untraced {untraced:.6g}, traced {traced:.6g})")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny loads, one set-up sample")
    ap.add_argument("--golden", default=os.path.join(BENCH, "golden.json"))
    ap.add_argument("--results-dir", default=os.path.join(BENCH, "results"))
    args = ap.parse_args(argv)
    os.environ.update(BLAS_ENV)  # before numpy loads here: the reference load runs as in the children
    with open(SPEC, encoding="utf-8") as f:
        spec = json.load(f)
    spec = {k: {m["name"]: m for m in spec[k]} for k in ("end_to_end", "per_layer")}

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "e8lie", "__init__.py")):
        print(f"no e8lie package under {root}/src; run from the root of an e8lie checkout", file=sys.stderr)
        return 2
    args.golden = os.path.abspath(args.golden)
    if not os.path.isfile(args.golden):
        print(f"golden file {args.golden} not found", file=sys.stderr)
        return 2

    bench = Bench(root, args)
    try:
        untraced = run_passes(bench, args.workload, False, args.seconds)
        traced = run_passes(bench, args.workload, True, 0) if args.trace else None
    except ChildFailed as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1
    finally:
        bench.close()

    e2e = end_to_end(untraced)
    named = named_metrics(args.workload, untraced)
    _, _, checks = merged(untraced + (traced or []))
    env = environment(untraced)
    result = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "smoke": args.smoke,
              "seconds": args.seconds, "env": env, "end_to_end": e2e,
              "named": {k: {"value": v, "unit": u} for k, (v, u, _) in named.items()},
              "samples": merged(untraced)[0]}
    layers = overhead = None
    if traced:
        layers = layer_metrics(traced)
        t_named = named_metrics(args.workload, traced)
        overhead = {k: (v[0], t_named[k][0], v[1]) for k, v in named.items() if k != "error_rate"}
        common, extra, table = layers
        ratio, bound = extra["pipeline.stage_sum_over_untraced_build"][0], spec["end_to_end"]["setup_s"]["bound"]
        checks.check(f"stage spans account for an untraced build_pipeline() within {bound}",
                     abs(ratio - 1) <= bound, f"{ratio:.3f}")
        result.update(per_layer=common, layer_extra={k: {"value": v, "unit": u} for k, (v, u) in extra.items()},
                      spans=table, tracing_overhead={k: {"untraced": a, "traced": b, "unit": u}
                                                     for k, (a, b, u) in overhead.items()})
    result["checks"] = checks.as_dict()

    print_report(args, spec, e2e, named, checks, env, layers, overhead)
    os.makedirs(args.results_dir, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    path = os.path.join(args.results_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}.json")
    with open(path, "w", encoding="utf-8") as f:
        json.dump(result, f, indent=1)
    print(f"# full result: {os.path.relpath(path, root)}")

    kind, values = ("per_layer", layers[0]) if args.trace else ("end_to_end", e2e)
    metrics = {k: {"value": values[k], "unit": m["unit"]} for k, m in spec[kind].items()}
    print(json.dumps({"correct": not checks.failures, "attempted": checks.attempted,
                      "failed": len(checks.failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
