"""Byte-for-byte pins on every artifact and stdout line of the bundled run.

The table below holds the sha256 of each file the six commands write on
the bundled data and config, and of each command's stdout with the output
directory replaced by OUT, and of the parser's help and usage-error
output. Any change to an output byte fails here; update a digest only for
a change that is meant to alter that output. The pins must not depend on
the SIMD kernels numpy picks for the host CPU, nor on the kernel OpenBLAS
picks, so the steps are also run with numpy's AVX-512 kernels disabled
and under two other OpenBLAS kernels, together with the scaled runs that
test_scaled_runs pins and test_fitting's kernel pin.
"""

import contextlib
import ctypes
import hashlib
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import child_env
from test_fitting import KERNEL_PIN
from test_scaled_runs import BENCH, SCALED_FILES, SCALED_INPUTS, SCALED_STDOUT
from ugap.cli import main

STEPS = (
    ("ingest",),
    ("fit",),
    ("gap",),
    ("sensitivity", "--implied-zeta"),
    ("report",),
    ("simulate",),
)
SIMULATE_FILES = {"synthetic_panel.csv", "simulation_report.json"}
# twelve power columns, as in the benchmark's long-history workload
TWELVE_ZETAS = ("sensitivity", "--zeta-list", "0,0.05,0.1,0.15,0.2,0.25,0.3,0.35,0.4,0.5,0.75,0.96")
# numpy's AVX-512 dispatch targets, which NPY_DISABLE_CPU_FEATURES can turn off
AVX512 = ("X86_V4", "AVX512_ICL", "AVX512_SPR")

GOLDEN_FILES = {
    "estimates.csv": "5d7054c4d6a8f7f2a6f88316df2832e70f43e59f2797873d373b86f43ca44598",
    "figures/fit_1951Q1-1959Q2.svg": "053074c53a57089bbb9660b841d242ffe93a81d6f04dafefe4d48828fecbecd4",
    "figures/fit_1959Q4-1971Q1.svg": "b7c4620b6f7ce546702f20c57aa5956631ff5f83607fff4085aa3ce994d9fa50",
    "figures/fit_1971Q3-1975Q1.svg": "ac7e8db5bec932368c06a20ebd7b6e5a7e9d34800ddb50391b0eea8a8bef83f5",
    "figures/fit_1975Q3-1987Q3.svg": "5c38f088725c349d3c37da90cb3e16b396d83dad164974cc0634165039d73a48",
    "figures/fit_1990Q1-1999Q1.svg": "9057f601d4feb32c35fdda3cabff14c93f85d99da958f404309979d99cb6b749",
    "figures/fit_2001Q1-2009Q3.svg": "5d9959031265c4c6843425b3c0c6b560bea609ced2f0d10073a3f63bdeb5d074",
    "figures/fit_2010Q1-2019Q4.svg": "475e0b2891dbcbdada305dfa5b198aadf82d118e433137a00c3313230b5ec8d6",
    "figures/gap_unemployment.svg": "2337a18a80c177d1241a14a524ed167e0f31e5790bca1eff7c78268668c23899",
    "figures/rates_timeseries.svg": "4e6ff7538cfa47450101136aedd3d379bee8522bac673b9102e43560efbc875f",
    "figures/sensitivity.svg": "3f0b27dbfb1fbf6aa2029c5a6146530de3374e2a00116851fef403216cd406c8",
    "gap.csv": "c4c23054cf0f25f19b2b22b018612577786f5ecfcc94dc78bbde05d919d02bf2",
    "implied_zeta.csv": "6c2a4c9b2ec55542ab4a55c29c1e6c439eccf75d1d2382e0644994c0a6220a07",
    "panel.csv": "467a0223e372fcaf3678e751aeef011107602d6ce35ceab3bcd236f974562417",
    "report.md": "c488af6439a59d75b6b60a8b8344a9cce9ee83a1f8c335eb00f9cbd450f94d3e",
    "sensitivity.csv": "7c0d8c43f8abdaae993026c4722ce7b1dbc08342b808d06e921d39e769fde2cf",
    "simulation_report.json": "25c1ff7cec22d5ce95e270da625a4efa8ea694316ab30b90e4c1d73048c653a0",
    "summary.json": "913fd56e18310d1598bb22a527a68657d0cdba44ca9d4e11c5b8a528e8d2be8f",
    "synthetic_panel.csv": "ab895f5e3d8572f779a3db2c71b14f2c3a7970c2fe286b2ecfc58bb586b8a540",
}

GOLDEN_STDOUT = {
    "ingest": "5c8b9623c12fb0a9e69e028b1ee37a6d0640d55a43e65e9e056f2f63a1d7c352",
    "fit": "9605aab75c9254d69e79b8953b4140e22f1b6d4e6438d10b7852eb399256a274",
    "gap": "e0cedba650be41a3da7feb8d1bcad9d625af1113cc25dd1ccb845146e3f6cf11",
    "sensitivity": "826bf0d9df121fc30a429b03475c06a4c35c569dd774949c1866be4785eab96a",
    "report": "a3cb91481f1be04adc63325b386569ecb9c01e65bf6526dbc372b4cb62e4314e",
    "simulate": "89fb1ccbdbc7881272778e5272e2f4c9dc3248a3b70ac3a8c7cff48cd0b1d088",
}

# argparse output at 80 columns: (argv, exit code, the stream written, its sha256);
# the other stream stays empty
GOLDEN_PARSER = {
    "help": (["--help"], 0, "out", "c62cdc36c16eabf367e38b88354cfe240737adf4b9094d3e042f0ff698e4723d"),
    "report help": (["report", "--help"], 0, "out", "d8824775d02954f44cbd8fd2fc1fa349b12559bd9901d89f0059564f426391ec"),
    "gap help": (["gap", "--help"], 0, "out", "d9469afbf72f0877018f02a57417b09efd81fc7941b3c73e7dddb25ce3ad3d75"),
    "option of another command": (["gap", "--recompute"], 2, "err", "5dfab0fce1923b7950e8a82ff422b322913daebd8c8a4730cdf3b9108d97c99d"),
    "unknown command": (["nope"], 2, "err", "a7158aeea5a1c8b1d76c305f50364099749f8a477feb09e95e5ba9c4e1673b34"),
    "no command": ([], 2, "err", "18d82eebb3d7d74e1570e2b5dba4bb9151deb4ae85ce646ff6af9b2c58543626"),
    "non-numeric option": (["gap", "--kappa", "x"], 2, "err", "58beb554dbf26385d772f9ce69057de679df9ebcec718d1a59f717eff1259201"),
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_steps(out, steps) -> tuple[dict[str, str], dict[str, str]]:
    """Run each step into `out`; (file digests by relative path, stdout by step)."""
    printed = {}
    for step in steps:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert main([*step, "--out", str(out)]) == 0
        printed[step[0]] = buf.getvalue().replace(str(out), "OUT")
    files = {
        p.relative_to(out).as_posix(): sha256(p.read_bytes())
        for p in sorted(out.rglob("*"))
        if p.is_file()
    }
    return files, printed


@pytest.fixture(scope="module")
def fresh(tmp_path_factory):
    with pytest.MonkeyPatch.context() as mp:
        mp.delenv("TOOLKIT_SEED", raising=False)
        return run_steps(tmp_path_factory.mktemp("fresh"), STEPS)


@pytest.fixture(scope="module")
def recomputed(tmp_path_factory):
    return run_steps(tmp_path_factory.mktemp("recompute"), [("report", "--recompute", "--implied-zeta")])


def test_artifact_set(fresh):
    files, printed = fresh
    assert sorted(files) == sorted(GOLDEN_FILES)
    assert sorted(printed) == sorted(GOLDEN_STDOUT)


@pytest.mark.parametrize("name", sorted(GOLDEN_FILES))
def test_artifact_bytes(fresh, name):
    assert fresh[0][name] == GOLDEN_FILES[name]


@pytest.mark.parametrize("command", sorted(GOLDEN_STDOUT))
def test_stdout_bytes(fresh, command):
    assert sha256(fresh[1][command].encode()) == GOLDEN_STDOUT[command]


def test_recompute_matches_the_commands_run_one_by_one(fresh, recomputed):
    files, printed = recomputed
    assert files == {k: v for k, v in GOLDEN_FILES.items() if k not in SIMULATE_FILES}
    steps = ("ingest", "fit", "gap", "sensitivity", "report")
    assert printed["report"] == "".join(fresh[1][s] for s in steps)


@pytest.mark.parametrize("case", sorted(GOLDEN_PARSER))
def test_parser_output_bytes(case, monkeypatch):
    argv, code, stream, digest = GOLDEN_PARSER[case]
    monkeypatch.setenv("COLUMNS", "80")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), pytest.raises(SystemExit) as exit_:
        main(argv)
    assert exit_.value.code == code
    written, empty = (out, err) if stream == "out" else (err, out)
    assert empty.getvalue() == ""
    assert sha256(written.getvalue().encode()) == digest


def dispatches_avx512(dispatch, features) -> bool:
    """Whether numpy runs an AVX-512 kernel: one of AVX512 is a dispatch target and is enabled on this CPU."""
    return any(target in dispatch and features.get(target, False) for target in AVX512)


def numpy_umath():
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    return umath


def numpy_dispatches_avx512() -> bool:
    umath = numpy_umath()
    return dispatches_avx512(umath.__cpu_dispatch__, umath.__cpu_features__)


def openblas_core() -> str | None:
    """The name of the OpenBLAS kernel numpy's BLAS runs, or None where numpy bundles no scipy-openblas library."""
    import numpy

    for path in sorted((Path(numpy.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas*.so")):
        lib = ctypes.CDLL(str(path))  # the library numpy has loaded, as dlopen hands out one copy
        for symbol in ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename"):
            if hasattr(lib, symbol):
                corename = getattr(lib, symbol)
                corename.argtypes, corename.restype = [], ctypes.c_char_p
                return corename().decode()
    return None


# run in a fresh interpreter: the golden steps, the twelve zetas and the scaled runs, each in its own directory
CHILD_RUN = """
import json, sys
from pathlib import Path
from test_fitting import kernel_pin_fit
from test_golden import STEPS, TWELVE_ZETAS, numpy_dispatches_avx512, openblas_core, run_steps
from test_planner import random_oracle_axes
from test_scaled_runs import scaled_runs
from ugap.planner import oracle_grid_check
out = Path(sys.argv[1])
oracles = [oracle_grid_check(), oracle_grid_check(*random_oracle_axes())]
print(json.dumps([
    run_steps(out / "golden", STEPS),
    run_steps(out / "zetas", [TWELVE_ZETAS]),
    scaled_runs(out / "scaled"),
    numpy_dispatches_avx512(),
    [max(r["u_error"] / r["u_star_formula"] for r in records) for records in oracles],
    [max(r["tangency_residual"] for r in records) for records in oracles],
    kernel_pin_fit(),
    openblas_core(),
]))
"""


@pytest.mark.parametrize(
    "dispatch,features,expected",
    [
        (["X86_V3", "X86_V4", "AVX512_ICL", "AVX512_SPR"], {"X86_V3": True, "X86_V4": True, "AVX512_ICL": True}, True),
        (["X86_V3", "X86_V4", "AVX512_ICL", "AVX512_SPR"], {"X86_V3": True, "X86_V4": False, "AVX512_ICL": False}, False),
        (["X86_V3"], {"X86_V3": True, "X86_V4": True}, False),
        (["ASIMD", "ASIMDHP"], {"ASIMD": True}, False),
        ([], {}, False),
    ],
)
def test_avx512_is_dispatched_only_when_built_and_enabled(dispatch, features, expected):
    assert dispatches_avx512(dispatch, features) is expected


def goldens_in_a_child(fresh, tmp_path, monkeypatch, **env: str) -> tuple[bool, str | None]:
    """Run CHILD_RUN with env added and check every pin it reports.

    Returns whether the child dispatched an AVX-512 kernel and the OpenBLAS kernel it ran.
    """
    monkeypatch.delenv("TOOLKIT_SEED", raising=False)
    done = subprocess.run(
        [sys.executable, "-c", CHILD_RUN, str(tmp_path / "child")],
        env=child_env(Path(__file__).resolve().parent, BENCH, **env),
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stderr
    (files, printed), zetas, scaled, avx512, u_errors, tangencies, pin, core = json.loads(done.stdout)
    # the oracle's bounds, relative u* error and tangency residual on the default and a random grid
    assert max(u_errors) < 1e-12 and max(tangencies) < 1e-12
    assert (files, printed) == fresh
    assert files == GOLDEN_FILES
    assert {step: sha256(text.encode()) for step, text in printed.items()} == GOLDEN_STDOUT
    assert zetas == list(run_steps(tmp_path / "default", [TWELVE_ZETAS]))
    assert scaled == [SCALED_INPUTS, SCALED_FILES, SCALED_STDOUT]
    assert pin == list(KERNEL_PIN)
    return avx512, core


def test_goldens_hold_with_numpy_avx512_disabled(fresh, tmp_path, monkeypatch):
    if not numpy_dispatches_avx512():
        pytest.skip("numpy dispatches no AVX-512 kernel here, so the default path is the only one")
    avx512, _core = goldens_in_a_child(fresh, tmp_path, monkeypatch, NPY_DISABLE_CPU_FEATURES=" ".join(AVX512))
    assert avx512 is False  # the variable took effect in the child


# OPENBLAS_CORETYPE, the name OpenBLAS then reports, and the numpy CPU feature the kernel needs
@pytest.mark.parametrize(
    ("coretype", "core", "feature"),
    [("Prescott", "Katmai", "SSE3"), ("Haswell", "Haswell", "AVX2")],
    ids=["Prescott", "Haswell"],
)
def test_goldens_hold_on_other_openblas_kernels(fresh, tmp_path, monkeypatch, coretype, core, feature):
    if openblas_core() is None:
        pytest.skip("numpy bundles no scipy-openblas library here")
    if not numpy_umath().__cpu_features__.get(feature, False):
        pytest.skip(f"this CPU lacks {feature}, which OpenBLAS's {coretype} kernel needs")
    assert goldens_in_a_child(fresh, tmp_path, monkeypatch, OPENBLAS_CORETYPE=coretype)[1] == core
