import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from e8lie import cli
from e8lie.halfint import HalfIntMatrix
from e8lie.io import read_bundle, write_bundle

# the benchmark's pinned artifact digests (read only)
GOLDEN = Path(__file__).resolve().parents[1] / "perfbench" / "golden.json"


def test_bundle_roundtrip_bin(tmp_path):
    m = HalfIntMatrix(np.arange(-6, 6, dtype=np.int64).reshape(3, 4))
    base = str(tmp_path / "m")
    header = write_bundle(base, "test-matrix", m, fmt="bin")
    name, back = read_bundle(header)
    assert name == "test-matrix"
    assert back == m


def test_bundle_roundtrip_csv(tmp_path):
    m = HalfIntMatrix(np.array([[1, -2], [0, 7]], dtype=np.int64))
    header = write_bundle(str(tmp_path / "m"), "csv-matrix", m, fmt="csv")
    _, back = read_bundle(header)
    assert back == m


def test_bundle_roundtrip_f64(tmp_path):
    rng = np.random.default_rng(0)
    a = rng.normal(size=(5, 7))
    header = write_bundle(str(tmp_path / "f"), "float-matrix", a)
    _, back = read_bundle(header)
    assert np.array_equal(back, a)  # bit-exact


def test_bundle_int32_overflow_rejected(tmp_path):
    m = HalfIntMatrix(np.array([[2**40]], dtype=np.int64))
    with pytest.raises(ValueError):
        write_bundle(str(tmp_path / "m"), "big", m)


@pytest.mark.parametrize("payload", ["../x.bin", "ABSOLUTE"])
def test_bundle_payload_outside_header_dir_rejected(tmp_path, payload):
    sub = tmp_path / "sub"
    sub.mkdir()
    header = write_bundle(str(sub / "m"), "m", HalfIntMatrix.identity(2))
    outside = tmp_path / "x.bin"
    outside.write_bytes((sub / "m.bin").read_bytes())
    meta = json.loads(open(header).read())
    meta["payload"] = str(outside) if payload == "ABSOLUTE" else payload
    with open(header, "w") as f:
        json.dump(meta, f)
    with pytest.raises(ValueError, match="header's directory"):
        read_bundle(header)


@pytest.mark.parametrize("matrix", [HalfIntMatrix.identity(3), np.eye(3)])
@pytest.mark.parametrize("extra", [-1, 1, 4])
def test_bundle_payload_size_mismatch_rejected(tmp_path, matrix, extra):
    header = write_bundle(str(tmp_path / "m"), "m", matrix)
    payload = tmp_path / "m.bin"
    data = payload.read_bytes()
    payload.write_bytes(data[:extra] if extra < 0 else data + b"\0" * extra)
    with pytest.raises(ValueError, match="payload size does not match header dimensions"):
        read_bundle(header)


_DROP = object()


@pytest.mark.parametrize(
    "key, value",
    [
        ("payload", _DROP), ("encoding", _DROP), ("name", _DROP),
        ("rows", None), ("rows", [3]), ("rows", 3.7), ("rows", "3"), ("rows", True), ("cols", -1),
        ("payload", 5), ("name", 5), ("encoding", "f32"),
        (None, ["m.bin"]),  # a JSON list as the whole header
    ],
)
def test_bundle_malformed_header_rejected(tmp_path, key, value):
    header = write_bundle(str(tmp_path / "m"), "m", HalfIntMatrix.identity(3))
    meta = json.loads(open(header).read())
    if key is None:
        meta = value
    elif value is _DROP:
        del meta[key]
    else:
        meta[key] = value
    with open(header, "w") as f:
        json.dump(meta, f)
    with pytest.raises(ValueError):
        read_bundle(header)


def test_no_temp_files_left(tmp_path):
    m = HalfIntMatrix.identity(4)
    write_bundle(str(tmp_path / "m"), "id", m)
    leftovers = [f for f in os.listdir(tmp_path) if f.startswith(".tmp-")]
    assert leftovers == []


def _run_cli(args, **kw):
    return subprocess.run(
        [sys.executable, "-m", "e8lie", *args],
        capture_output=True,
        text=True,
        **kw,
    )


def test_cli_version():
    r = _run_cli(["--version"])
    assert r.returncode == 0
    assert "format 1" in r.stdout


def test_cli_usage_error_exit_2():
    r = _run_cli(["frobnicate"])
    assert r.returncode == 2


@pytest.mark.parametrize(
    "args",
    [
        ["region", "--check", "1,2,x"],
        ["region", "--check", "0,0,0,0,0,0,0,nan"],
        ["region", "--check", "0,0,0,0,0,0,0,0,0"],
        ["element", "--y", "0,0,0,0,0,0,0,inf", "--out", "unused"],
        ["region", "--sample", "-1"],
        ["verify", "--samples", "-5"],
        ["rank", "--spread", "nan"],
        ["rank", "--spread", "-1"],
        ["rank", "--spread", "inf"],
    ],
)
def test_cli_bad_argument_exit_2(args):
    r = _run_cli(args)
    assert r.returncode == 2
    assert "Traceback" not in r.stderr
    assert r.stdout == ""
    last = r.stderr.strip().splitlines()[-1]
    assert last.startswith(f"e8lie {args[0]}: error: argument {args[1]}")


@pytest.mark.parametrize(
    "args",
    [
        ["verify", "--suite", "clifford", "--out", "{missing}/v.json"],
        ["element", "--y", "0,0,0,0,0,0,0,0", "--out", "{missing}/e"],
        ["generate", "--out-dir", "{file}/g"],
    ],
)
def test_cli_unwritable_output_exit_2(tmp_path, args):
    (tmp_path / "file").write_text("")
    r = _run_cli([a.format(missing=tmp_path / "missing", file=tmp_path / "file") for a in args])
    assert r.returncode == 2
    assert "Traceback" not in r.stderr
    assert r.stderr.strip().splitlines()[-1].startswith("e8lie: error: ")


def test_cli_region_check():
    r = _run_cli(["region", "--check", "0,0,0,0,0,0,0,0"])
    assert r.returncode == 0
    out = json.loads(r.stdout)
    assert out["in_region_roots"] is True
    assert out["in_region_solved"] is True
    # config echo goes to stderr
    assert '"config"' in r.stderr


def test_cli_region_sample_deterministic():
    r1 = _run_cli(["region", "--sample", "3", "--seed", "5"])
    r2 = _run_cli(["region", "--sample", "3", "--seed", "5"])
    assert r1.stdout == r2.stdout
    out = json.loads(r1.stdout)
    assert len(out["samples"]) == 3


def test_cli_roots_reproducible(tmp_path):
    a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    assert _run_cli(["roots", "--out", a]).returncode == 0
    assert _run_cli(["roots", "--out", b]).returncode == 0
    assert open(a, "rb").read() == open(b, "rb").read()
    data = json.loads(open(a).read())
    assert len(data["roots_doubled"]) == 240
    assert data["marks"] == [2, 3, 4, 6, 5, 4, 3, 2]


def test_cli_artifacts_match_golden_digests(tmp_path, capsys):
    digests = json.loads(GOLDEN.read_text())["digests"]
    out = tmp_path / "roots.json"
    assert cli.main(["roots", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digests["roots"]
    capsys.readouterr()
    assert cli.main(["region", "--check", "0.05,0.06,0.07,0.08,0.09,0.10,0.11,0.5"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digests["region_check"]
    out = tmp_path / "verify-spinor.json"
    assert cli.main(["verify", "--suite", "spinor", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digests["verify_spinor"]


# sha256 of the `verify --suite all --jacobi-full --out` payload (seed 0,
# 1e5 samples), which golden.json does not pin
VERIFY_ALL_JACOBI_FULL_SHA256 = "a83884da460c272f71b18998ede29fb83372fcd2be04566ce25bc3fb0b5ff9d9"


def test_cli_verify_all_matches_its_digest(tmp_path):
    out = tmp_path / "verify-all.json"
    assert cli.main(["verify", "--suite", "all", "--jacobi-full", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == VERIFY_ALL_JACOBI_FULL_SHA256


def test_cli_verify_clifford():
    r = _run_cli(["verify", "--suite", "clifford"])
    assert r.returncode == 0
    out = json.loads(r.stdout)
    assert out["passed"] is True
    names = {s["name"] for s in out["suites"]}
    assert "clifford-anticommutation" in names


def test_verify_clifford_stays_small():
    # the clifford suites read the gamma blocks alone: no bracket table, no
    # sparse engine and no root system
    code = (
        "import json, sys\n"
        "from e8lie import cli\n"
        "code = cli.main(['verify', '--suite', 'clifford'])\n"
        "loaded = sorted(m for m in sys.modules if m.startswith('scipy')\n"
        "                or m in ('e8lie.roots', 'e8lie.chart'))\n"
        "print(json.dumps({'code': code, 'loaded': loaded}))\n"
    )
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    out = json.loads(r.stdout.strip().splitlines()[-1])
    assert out == {"code": 0, "loaded": []}


def test_cli_element_bundle(tmp_path):
    base = str(tmp_path / "elem")
    r = _run_cli(
        ["element", "--y", "0.05,0.06,0.07,0.08,0.09,0.1,0.11,0.5",
         "--x-random", "--z-random", "--seed", "3", "--out", base]
    )
    assert r.returncode == 0
    _, g = read_bundle(base + ".json")
    assert g.shape == (248, 248)
    assert np.abs(g.T @ g - np.eye(248)).max() < 1e-8


def test_cli_generate(tmp_path):
    out = str(tmp_path / "gen")
    r = _run_cli(["generate", "--out-dir", out, "--format", "csv"])
    assert r.returncode == 0
    headers = sorted(f for f in os.listdir(out) if f.endswith(".json"))
    assert len(headers) == 16 + 120
    name, sigma1 = read_bundle(os.path.join(out, "sigma_01.json"))
    assert name == "sigma_1"
    assert sigma1.rows == sigma1.cols == 128


def test_queries_load_no_scipy(tmp_path):
    # the build and the query commands, rank included, need numpy only:
    # scipy is loaded by the verify suites past clifford alone
    commands = [
        ["roots", "--out", str(tmp_path / "roots.json")],
        ["region", "--check", "0.05,0.06,0.07,0.08,0.09,0.10,0.11,0.5"],
        ["generate", "--out-dir", str(tmp_path / "gen")],
        ["element", "--y", "0.05,0.06,0.07,0.08,0.09,0.1,0.11,0.5",
         "--x-random", "--z-random", "--seed", "3", "--out", str(tmp_path / "elem")],
        ["rank", "--seed", "3"],
    ]
    code = (
        "import json, sys\n"
        "from e8lie import cli\n"
        "from e8lie.pipeline import build_pipeline\n"
        "build_pipeline()\n"
        f"codes = [cli.main(argv) for argv in {commands!r}]\n"
        "loaded = sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))\n"
        "print(json.dumps({'codes': codes, 'scipy': loaded}))\n"
    )
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    out = json.loads(r.stdout.strip().splitlines()[-1])
    assert out["codes"] == [0, 0, 0, 0, 0]
    assert out["scipy"] == []


def test_build_leaves_numpy_ma_unloaded():
    # root-key membership is a sorted search: np.isin and np.unique on the
    # wide keys would import numpy.ma
    code = (
        "import sys\n"
        "from e8lie.pipeline import build_pipeline\n"
        "build_pipeline()\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip().splitlines()[-1] == "False"
