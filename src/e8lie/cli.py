"""Command-line entry point.

Subcommands: generate (gamma/spinor bundles), verify (relation suites with
JSON report), roots (root-system JSON), region (membership / sampling /
equivalence report), element (chart evaluation bundle), rank (chart rank
diagnostic).  Exit code 0 on success or all-pass, 1 on verification
failure, 2 on usage errors, an unwritable output path among them.

Every run echoes its configuration as one JSON line on stderr.  The seed
defaults to 0.  --threads N caps BLAS at N threads: it is read before
anything loads numpy, so BLAS starts with the cap; a caller that loaded
numpy first gets a warning on stderr, since the cap then has no effect.
The build and the queries need numpy only.  verify builds only what its
suites read.  The gamma blocks and both so(16) spinor families are checked
on their permutation arrays, so `verify --suite clifford` needs numpy
only; the other suites also build the bracket table and its adjoint rep,
and read every relation and Jacobi stratum off one exact scan of the
table's Jacobi identity over sorted triples, which loads scipy.sparse.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from . import FORMAT_VERSION, __version__


def _echo_config(args: argparse.Namespace) -> None:
    cfg = {k: v for k, v in sorted(vars(args).items()) if k != "func"}
    print(json.dumps({"config": cfg}), file=sys.stderr)


def _set_threads(threads: str) -> None:
    if threads != "auto":
        # BLAS reads its thread count once, when numpy loads it
        if "numpy" in sys.modules:
            print("e8lie: warning: --threads has no effect: numpy was loaded before it was read",
                  file=sys.stderr)
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            os.environ[var] = str(int(threads))


def _emit(payload: dict, out: str | None) -> None:
    from .io import write_json

    payload.setdefault("format_version", FORMAT_VERSION)
    if out:
        write_json(out, payload)
    else:
        print(json.dumps(payload, indent=2))


def _y_arg(text: str) -> tuple[float, ...]:
    """argparse type: eight finite comma-separated numbers."""
    try:
        vals = tuple(float(v) for v in text.split(","))
    except ValueError:
        vals = ()
    if len(vals) != 8 or not all(map(math.isfinite, vals)):
        raise argparse.ArgumentTypeError(f"expected 8 finite comma-separated numbers, got {text!r}")
    return vals


def _non_negative(cast, what: str):
    """argparse type: a finite non-negative number read by cast."""
    def parse(text: str):
        try:
            v = cast(text)
        except ValueError:
            v = -1
        if not 0 <= v < math.inf:  # also rejects nan
            raise argparse.ArgumentTypeError(f"expected {what}, got {text!r}")
        return v
    return parse


_count_arg = _non_negative(int, "a non-negative integer")
_spread_arg = _non_negative(float, "a finite non-negative number")


def cmd_generate(args) -> int:
    from .clifford import build_gamma_system, spinor_generators
    from .io import write_bundle

    gammas = build_gamma_system()
    spinors = spinor_generators(gammas)
    os.makedirs(args.out_dir, exist_ok=True)
    written = []
    for i, s in enumerate(gammas.sigma, start=1):
        base = os.path.join(args.out_dir, f"sigma_{i:02d}")
        written.append(write_bundle(base, f"sigma_{i}", s, fmt=args.format))
    for (i, j), d in sorted(spinors.delta.items()):
        base = os.path.join(args.out_dir, f"delta_{i:02d}_{j:02d}")
        written.append(write_bundle(base, f"delta_{i}_{j}", d, fmt=args.format))
    print(json.dumps({"written": len(written), "out_dir": args.out_dir}))
    return 0


def cmd_verify(args) -> int:
    from . import algebra as alg
    from .clifford import build_gamma_system, spinor_generators

    gammas = build_gamma_system()
    suites = []
    want = args.suite

    if want in ("clifford", "all"):
        suites += alg.verify_clifford_pairs(gammas)
        suites.append(alg.verify_chirality_consistency(gammas))
    if want != "clifford":
        tensor = alg.StructureTensor.build(spinor_generators(gammas))
        rep = alg.AdjointRep.build(tensor)
    if want in ("so16", "all"):
        suites.append(alg.verify_so16_on_spinors(tensor))
    strata = tuple(name for key, name in (("so16", "vector-vector"), ("mixed", "vector-spinor"),
                                          ("spinor", "spinor-spinor")) if want in (key, "all"))
    if strata:
        suites += alg.verify_defining_relations(rep, tensor, strata=strata)
    if want in ("jacobi", "all"):
        suites += alg.verify_jacobi(rep, tensor, samples=args.samples, seed=args.seed,
                                    full_spinor=args.jacobi_full)

    passed = all(s.passed for s in suites)
    payload = {
        "format_version": FORMAT_VERSION,
        "command": "verify",
        "suite": want,
        "seed": args.seed,
        "samples": args.samples,
        "jacobi_full": bool(args.jacobi_full),
        "suites": [s.to_dict() for s in suites],
        "passed": passed,
    }
    _emit(payload, args.out)
    for s in suites:
        print(json.dumps(s.to_dict(include_timing=True)), file=sys.stderr)
    return 0 if passed else 1


def cmd_roots(args) -> int:
    from .pipeline import build_pipeline

    pipe = build_pipeline()
    rs = pipe.root_system
    payload = {
        "format_version": FORMAT_VERSION,
        "command": "roots",
        "scale": str(rs.scale),
        "snap_residual_below": "1e-9",
        "cartan_spinor_indices": list(pipe.cartan.alphas),
        "labeling": {
            "axis_signs": rs.axis_sign[::-1].tolist(),  # per raw axis
            "axis_reversed": True,
            "conventional_labeling": rs.conventional_labeling,
            "literal_raw_match": rs.literal_raw_match,
        },
        "roots_doubled": sorted(rs.roots.tolist()),
        "positives_doubled": sorted(rs.positives.tolist()),
        "simples_doubled": rs.simples.tolist(),
        "highest_doubled": rs.highest.tolist(),
        "cartan_matrix": rs.cartan_matrix.tolist(),
        "marks": list(rs.marks),
    }
    _emit(payload, args.out)
    return 0


def cmd_region(args) -> int:
    import numpy as np

    from . import chart as ch
    from .pipeline import build_pipeline

    pipe = build_pipeline()
    region = pipe.region
    if args.check is not None:
        y = np.array(args.check)
        payload = {
            "command": "region-check",
            "y": y.tolist(),
            "in_region_roots": ch.in_region_roots(y, region),
            "in_region_solved": ch.in_region_solved(y),
        }
        _emit(payload, args.out)
        return 0
    if args.report_equivalence:
        rep = ch.region_equivalence_report(args.report_equivalence, args.seed, region)
        payload = {"command": "region-equivalence", **rep}
        _emit(payload, args.out)
        return 0
    ys = ch.sample_region(args.seed, region, args.sample)
    payload = {
        "command": "region-sample",
        "seed": args.seed,
        "samples": [list(map(float, row)) for row in np.atleast_2d(ys)],
    }
    _emit(payload, args.out)
    return 0


def cmd_element(args) -> int:
    import numpy as np

    from . import chart as ch
    from .io import write_bundle
    from .pipeline import build_pipeline

    pipe = build_pipeline()
    y = np.array(args.y)
    rng = np.random.default_rng(args.seed)
    x = rng.uniform(-0.5, 0.5, 120) if args.x_random else np.zeros(120)
    z = rng.uniform(-0.5, 0.5, 120) if args.z_random else np.zeros(120)
    g = pipe.engine.chart(ch.EulerPoint(x, y, z))
    header = write_bundle(args.out, "euler-chart-element", g)
    print(json.dumps({"written": header}))
    return 0


def cmd_rank(args) -> int:
    from . import chart as ch
    from .pipeline import build_pipeline

    pipe = build_pipeline()
    p = ch.random_euler_point(args.seed, pipe.region, spread=args.spread)
    rank, svals, threshold = pipe.engine.chart_rank(p)
    payload = {
        "command": "rank",
        "seed": args.seed,
        "step": args.step,
        "spread": args.spread,
        "rank": rank,
        "sigma_max": float(svals[0]),
        "sigma_248": float(svals[247]),
        "threshold": float(threshold),
        "gap_sigma248_over_threshold": float(svals[247] / threshold),
    }
    _emit(payload, args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="e8lie",
        description="exact E8 construction, verification, roots and Euler chart",
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"e8lie {__version__} (format {FORMAT_VERSION})",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    default_threads = os.environ.get("E8LIE_THREADS", "auto")

    def common(p):
        p.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
        p.add_argument(
            "--threads",
            default=default_threads,
            help="cap BLAS at this many threads, or auto "
            "(env override: E8LIE_THREADS)",
        )
        p.add_argument("--out", default=None, help="write the JSON payload here")

    p = sub.add_parser("generate", help="write gamma/spinor generator bundles")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--format", choices=("bin", "csv"), default="bin")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threads", default=default_threads)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("verify", help="run the exact verification suites")
    p.add_argument(
        "--suite",
        choices=("clifford", "so16", "mixed", "spinor", "jacobi", "all"),
        default="all",
    )
    p.add_argument("--jacobi-full", action="store_true", help="exhaustive spinor-triple stratum")
    p.add_argument("--samples", type=_count_arg, default=100_000)
    common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("roots", help="extract the root system")
    common(p)
    p.set_defaults(func=cmd_roots)

    p = sub.add_parser("region", help="torus fundamental-domain queries")
    p.add_argument("--check", type=_y_arg, default=None, help="y1,...,y8 membership check")
    p.add_argument("--sample", type=_count_arg, default=1)
    p.add_argument("--report-equivalence", type=_count_arg, default=0, metavar="N")
    common(p)
    p.set_defaults(func=cmd_region)

    p = sub.add_parser("element", help="evaluate a chart element to a bundle")
    p.add_argument("--y", type=_y_arg, required=True, help="y1,...,y8")
    p.add_argument("--x-random", action="store_true")
    p.add_argument("--z-random", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threads", default=default_threads)
    p.add_argument("--out", required=True, help="bundle path base (writes .json + .bin)")
    p.set_defaults(func=cmd_element)

    p = sub.add_parser("rank", help="numerical chart rank at a seeded generic point")
    p.add_argument("--step", type=float, default=1e-5,
                   help="unused (the Jacobian is exact); accepted and echoed")
    p.add_argument("--spread", type=_spread_arg, default=0.6)
    common(p)
    p.set_defaults(func=cmd_rank)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _set_threads(args.threads)
    _echo_config(args)
    try:
        return args.func(args)
    except BrokenPipeError:
        return 1
    except OSError as e:  # an unreadable or unwritable path: a usage error
        print(f"e8lie: error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
