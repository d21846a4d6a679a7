"""Output checks shared by the benchmark runner, its child processes and
the golden recorder.

Every check counts once toward `attempted`; a check that does not hold
counts toward `failed` and keeps a one-line reason.  `error_rate` is
failed / attempted.
"""

from __future__ import annotations

import hashlib
import json
import math
import os

# Checked-pair counts pinned by the acceptance criteria, per suite name.
EXPECTED_CHECKED = {
    "clifford-anticommutation": 136,
    "vector-vector": 14400,
    "vector-spinor": 15360,
    "spinor-spinor": 8128,
    "jacobi-JJ*-pairs": 7140,
    "jacobi-JQ*-pairs": 15360,
    "jacobi-QQQ-sampled": 100_000,
    "jacobi-QQQ-full": 8128,
}
ADJOINT_RANK = 248
CENTRALIZER_DIM = 8
KILLING_TRUE = -60
CHART_TOL = 1e-8
CHART_RANK = 248
CHART_MIN_GAP = 1e3
RANK_POINT_SEED = 3       # the pinned acceptance point of criterion 10
CHAIN_FRACTION = 0.57119  # archived region-conditioned chain fraction, seed 0
GENERATED_BUNDLES = 136   # 16 Sigma + 120 Delta
REGION_Y = "0.05,0.06,0.07,0.08,0.09,0.10,0.11,0.5"  # the `region --check` point, in the golden digest


class Checks:
    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}" if detail else name)
        return ok

    def merge(self, other: dict) -> None:
        self.attempted += other["attempted"]
        self.failures.extend(other["failures"])

    def as_dict(self) -> dict:
        return {"attempted": self.attempted, "failed": len(self.failures), "failures": self.failures}


def load_golden(path: str) -> dict:
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def sha256_file(path: str) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def tree_digest(directory: str) -> str:
    """sha256 over the sorted file names and contents of a flat directory."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(directory)):
        h.update(name.encode() + b"\0")
        with open(os.path.join(directory, name), "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def check_suites(checks: Checks, suites: list[dict], golden: dict, samples: int) -> None:
    """Each timing-free SuiteReport dict passes, has its pinned count and
    equals the golden dict recorded for its name."""
    want = {d["name"]: d for d in golden["suites"]}
    for d in suites:
        name = d["name"]
        checks.check(f"suite {name} passed", d["passed"], str(d["first_counterexample"]))
        expected = samples if name == "jacobi-QQQ-sampled" else EXPECTED_CHECKED.get(name)
        if expected is not None:
            checks.check(f"suite {name} count", d["checked"] == expected, f"{d['checked']} != {expected}")
        gold = dict(want.get(name, {}), checked=expected) if name == "jacobi-QQQ-sampled" else want.get(name)
        checks.check(f"suite {name} golden", d == gold, f"{d} != {gold}")
    missing = set(want) - {d["name"] for d in suites}
    checks.check("every golden suite ran", not missing, f"missing {sorted(missing)}")


def check_digest(checks: Checks, name: str, digest: str, golden: dict) -> None:
    want = golden["digests"][name]
    checks.check(f"digest {name}", digest == want, f"{digest[:16]} != {want[:16]}")


def chain_fraction_ok(fraction: float, samples: int) -> bool:
    """Within 3 sigma of the archived fraction (binomial sigma at `samples`)."""
    sigma = math.sqrt(CHAIN_FRACTION * (1 - CHAIN_FRACTION) / samples)
    return abs(fraction - CHAIN_FRACTION) < 3 * sigma
