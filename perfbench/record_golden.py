"""Record the golden outputs every benchmark run is checked against.

    python3 perfbench/record_golden.py        # from the root of a checkout

Writes perfbench/golden.json: the sha256 of the `roots`, `verify --suite
clifford`, `verify --suite spinor` and `region --check` payloads and of the
`generate` bundle directory, plus the timing-free SuiteReport dict of every
suite at its pinned count (Jacobi seed 0, exhaustive QQQ scan on).  Run it
only when an artifact is meant to change; the ROADMAP keeps them byte for
byte.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

from checks import REGION_Y, sha256_file, tree_digest
from run import BENCH, BLAS_ENV

SUITES_SCRIPT = """
import json, sys
from e8lie import algebra as alg
from e8lie.pipeline import build_pipeline
p = build_pipeline()
reports = alg.verify_clifford_pairs(p.gammas)
reports.append(alg.verify_chirality_consistency(p.gammas))
reports.append(alg.verify_so16_on_spinors(p.tensor))
reports += alg.verify_defining_relations(p.rep, p.tensor)
reports += alg.verify_jacobi(p.rep, p.tensor, samples=100_000, seed=0, full_spinor=True)
json.dump([r.to_dict() for r in reports], sys.stdout)
"""


def main() -> int:
    root = os.getcwd()
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"), **BLAS_ENV)
    os.makedirs(os.path.join(BENCH, ".work"), exist_ok=True)
    work = tempfile.mkdtemp(prefix="golden-", dir=os.path.join(BENCH, ".work"))
    try:
        def cli(*argv, stdout=None):
            with open(stdout or os.devnull, "wb") as out:
                subprocess.run([sys.executable, "-m", "e8lie", *argv], cwd=root, env=env, stdout=out, check=True)

        cli("generate", "--out-dir", os.path.join(work, "bundles"))
        cli("roots", "--out", os.path.join(work, "roots.json"))
        cli("verify", "--suite", "clifford", "--out", os.path.join(work, "verify-clifford.json"))
        cli("verify", "--suite", "spinor", "--out", os.path.join(work, "verify-spinor.json"))
        cli("region", "--check", REGION_Y, stdout=os.path.join(work, "region-check.out"))
        suites = json.loads(subprocess.run([sys.executable, "-c", SUITES_SCRIPT], cwd=root, env=env,
                                           capture_output=True, check=True).stdout)
        bundles = os.path.join(work, "bundles")
        golden = {
            "digests": {
                "roots": sha256_file(os.path.join(work, "roots.json")),
                "verify_clifford": sha256_file(os.path.join(work, "verify-clifford.json")),
                "verify_spinor": sha256_file(os.path.join(work, "verify-spinor.json")),
                "region_check": sha256_file(os.path.join(work, "region-check.out")),
                "bundles": tree_digest(bundles),
            },
            "bundle_bytes": sum(os.path.getsize(os.path.join(bundles, n)) for n in os.listdir(bundles)),
            "suites": suites,
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(os.path.join(BENCH, "golden.json"), "w", encoding="utf-8") as f:
        json.dump(golden, f, indent=1)
        f.write("\n")
    print(json.dumps(golden["digests"], indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
