"""Byte-for-byte pins on the two scaled runs of the benchmark.

The goldens pin the bundled run only. These pin the seed-7 inputs of the
benchmark's long-history and verify workloads, generated by
bench/inputs.py, and every file and stdout line of a run on each:
`report --recompute --implied-zeta` with the twelve-zeta list over 1200
quarters, and `simulate` over an 8000-quarter shock path. Each holds
again when run a second time into the same directory, over the files of
the first. The inputs are pinned too, so a generator change is told
apart from a ugap change. The same pins are checked with numpy's AVX-512
kernels disabled, in the child process of test_golden.
"""

import contextlib
import hashlib
import io
from pathlib import Path

from ugap.cli import main
from ugap.config import bundled_data_dir

BENCH = Path(__file__).resolve().parents[1] / "bench"
SEED = 7

SCALED_INPUTS = {
    "long-history/calibration.cfg": "0795dc93809747021766d3dda5eaba1f72fd184d16ed83d25e38d65627f46762",
    "long-history/manifest.json": "236e597b40c0f51786dcdf4123feebbc845eccebfc309b2870e1e36563665f77",
    "long-history/recessions.csv": "27a58c0478b452dface94c4d6fc7e2f579eab7542e99df4808160d91153e8f40",
    "long-history/regimes.csv": "8a716350ce37a06a885118313c298af501f55569d67005e1bb1b89c2ef17909e",
    "long-history/run.cfg": "26df00c499dfaeaa7297274abd72f98665bc9892f992b269f58bc6f6311d2787",
    "long-history/u.csv": "51bdfc72206d75ea43771f434ad0a5256b23d918ca40e344cdb9fe0601907774",
    "long-history/v_post.csv": "0869492f15158055c4e8df5d81a4ff8ec5194d6fd5474af3340d823301db1303",
    "long-history/v_pre.csv": "d8c41464c92a8f689cba63bc0da4f6d0694aa9a36dd3be28bad190d8ef43889d",
    "verify/grid.json": "ad86bc9ae39e84cd935d84d111dac934e4f8953e188f603dfd5010b1121d98b5",
    "verify/manifest.json": "6b282096d894e6bff102a4d9e3e473ec3ec7b6d4b34776cb79427ccf2196eb6a",
    "verify/scenario.cfg": "46c96f5c16c7a4e6989cfa54f54a3f85ac77160a0317774d5d1742815db5c070",
    "verify/shocks.csv": "dacb55e733d57aaaa05c57f9b71c6c82fd53f7beebf027dace3d2f9d55cb9e39",
}
SCALED_FILES = {
    "long-history/estimates.csv": "067d7eccb3872cb5dbdbe2dc1a4a34cc38f7e0cc41e7bf108955c3eaf0127ce3",
    "long-history/figures/fit_R0000.svg": "b5b527244bce255c5d1b83c732e05febc83f61a107b6046a59d9b6c1431aaaf7",
    "long-history/figures/fit_R0001.svg": "930efa76b0e73fbb9c7a08e563a4188633f24f788c2f01a56ed7d97f40fca18a",
    "long-history/figures/fit_R0002.svg": "8d8901e5e52a8f9316ccc80db9f97f5a69d8d06e5b0c4a696d2a273b30f41aee",
    "long-history/figures/fit_R0003.svg": "86c3475a47c02d0582a39b6e723cc026b1ba415e0078f8a2a5235c8411d38a4c",
    "long-history/figures/fit_R0004.svg": "13dfe13f744ab240532105d408bfe69ed24b2f29b45c722045122bb1385debd9",
    "long-history/figures/fit_R0005.svg": "85dce3c35fc6859604e55247a7868d1720e51147edbbed8a2d5ca37ebd51d098",
    "long-history/figures/fit_R0006.svg": "4ad73034c446f73acd29c0564e19087d5881902200407741897e8ae32aa19239",
    "long-history/figures/fit_R0007.svg": "ec813581cb609e5a4fd407ac23c8abb453991187df9ad0b110cdfea68c99ca77",
    "long-history/figures/fit_R0008.svg": "be389ac699d6f081b7a27e49771fe70134904436b23abbc665ba799f78151cf5",
    "long-history/figures/fit_R0009.svg": "e675abe16da38356065b7c48c729e15b0c36fa587b56a61bae291d6ba6b23895",
    "long-history/figures/fit_R0010.svg": "91dcd3b7e5c1a0d284cd3d506d2d7f9cac3e3d3479056cd94b1e108137dd40c4",
    "long-history/figures/fit_R0011.svg": "9329403173595b85584ec3ac9af8f063bfed34979fd43c648d9c0f0039746f37",
    "long-history/figures/fit_R0012.svg": "98233ebc8ee5f4552651707a9739392118dac519870d657edd5e1a7de605050c",
    "long-history/figures/fit_R0013.svg": "33881e79ca2e2a3971d8cebe551784c5acb863e16066afb11995cf4871582db4",
    "long-history/figures/fit_R0014.svg": "b2a7c2e3a16d00cb4525df8296bed59c1048549855aa519e14c4fdc70d07d350",
    "long-history/figures/fit_R0015.svg": "93be190b71929d0a535f7c08070693f853047938c6323c20984f526cad72c12f",
    "long-history/figures/fit_R0016.svg": "cf1a79344fad9eefe120a94186506bd5901ff2f6ea1cef34a660b4b7ae230806",
    "long-history/figures/fit_R0017.svg": "081017b23872d558e4a1ba4dece9c8f3bb84c28a36755e6a7930fdb754a01d5d",
    "long-history/figures/fit_R0018.svg": "e8ba88394e7568694ebf17aceab5a13109cdeacbcc1ad7dc9e9aabdc3ebf1cd8",
    "long-history/figures/fit_R0019.svg": "4f0a2b53c759ed20a1cf712a11a4e122056ec6a200dc37176bd7d98a036aa4a6",
    "long-history/figures/fit_R0020.svg": "2ea2f76fced3b04187c0bbb2dd76ee9d74656b604889fea62cb42955a8504300",
    "long-history/figures/fit_R0021.svg": "4a3ced34ea45b1d29f1d93ace8b32745e1ccfb8b271ac5d39e220794bd27faa6",
    "long-history/figures/fit_R0022.svg": "117974a018cc5c0b23e9e13b0fa512450d033c683c781556e881262b7946125b",
    "long-history/figures/fit_R0023.svg": "62174a6005d4956ddf3b60f63db56375ce6aebca3f26b7a335ba85e7ce54d8bc",
    "long-history/figures/fit_R0024.svg": "7e4c13a760cf99aa66171a0670e65087a82e4f89145ca248695c2427afdfcc3a",
    "long-history/figures/fit_R0025.svg": "dc07431b9d335498c511e14316b427ba7e44edcb741e641aeb4b2b59f086b2db",
    "long-history/figures/fit_R0026.svg": "1bd36555a7fd975117252524b605667d300776482629c1d3e4244c0a98be7304",
    "long-history/figures/fit_R0027.svg": "95d5a5ea93843a5bd8220b77315e1127f93708469866e549174d004cb6d73583",
    "long-history/figures/fit_R0028.svg": "0ca2842bfdc283e2ebee4527cfbea891ccdcdb8210ca3d11f69ba2786938cf69",
    "long-history/figures/fit_R0029.svg": "eaa19a1f5a9b82135f2f3309030d51eb1fd9c3957321c6b5cd64885436f85245",
    "long-history/figures/gap_unemployment.svg": "8814a48c99b4abdda3acb087e704ed7b77873c1d544982ae67e63ffa0095f9c8",
    "long-history/figures/rates_timeseries.svg": "320275cf802d7106614974c4a5a7da537190c8f5b58baaaf251ca01d99cddfac",
    "long-history/figures/sensitivity.svg": "b7e51b3a7473d5539c5e4e1ff743e020d29c7414a3409414aff99b7300e7e1cb",
    "long-history/gap.csv": "353b303d53fc1acbf02bf360ed8892204c52a472b607e0fb4cefcedf6a96c11d",
    "long-history/implied_zeta.csv": "99ce0839400e051d4c37a7e6f78b093d4db7807c4d94d1908b117c9576408b9b",
    "long-history/panel.csv": "110e81e5c5737c006cb6f705ed5f04401b8896743345fc58d8d014197538917f",
    "long-history/report.md": "71c1357b1205c39125fb30a0899fcd76ff493b1358c0c06e633b80235bdac3fb",
    "long-history/sensitivity.csv": "2f20ac0bc901cb3da4b43c51f3afd92846c73eb02ec11b2226a75306ed8871d7",
    "long-history/summary.json": "06066c677acc5df33330ef9190e0b15f4c335cb7e9dc11dcbb12422010c1279e",
    "verify/simulation_report.json": "c3a09dea290ffb0a10e6743c9444ce853a059cfd45f4c3d0f537fa669028b10e",
    "verify/synthetic_panel.csv": "a250aa1e416350a4b21a20ca7d92dac1770ca829dc42865978d5490215ab5792",
}
SCALED_STDOUT = {
    "long-history": "72ce07e0b879c3d96e346660cc677b5893baaa6d7550b7ba212189dc17f9bf5e",
    "verify": "217b0736a25e69e7cdf0bb5167d4e2b226ff07b57fa12f4524c2555f7291e635",
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digests(root: Path) -> dict[str, str]:
    return {p.relative_to(root).as_posix(): sha256(p.read_bytes()) for p in sorted(root.rglob("*")) if p.is_file()}


def scaled_runs(root: Path) -> tuple[dict[str, str], dict[str, str], dict[str, str]]:
    """Generate both inputs under root/in and run both commands into root/out.

    (input digests, output digests, stdout digest by workload), each keyed
    by path relative to its root; stdout has the output directory as OUT.
    Imports the generator from bench/, which must be on sys.path.
    """
    import inputs

    inp, out = root / "in", root / "out"
    inputs.long_history(SEED, 1200, bundled_data_dir(), inp / "long-history")
    inputs.verify_inputs(SEED, 8, 8000, bundled_data_dir(), inp / "verify")
    zetas = ",".join(f"{z:g}" for z in inputs.ZETA_LIST)
    argv = {
        "long-history": [
            "report", "--recompute", "--implied-zeta", "--zeta-list", zetas,
            "--config", str(inp / "long-history" / "run.cfg"),
        ],
        "verify": ["simulate", "--scenario", str(inp / "verify" / "scenario.cfg")],
    }
    printed = {}
    for name, args in argv.items():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert main([*args, "--out", str(out / name)]) == 0
        printed[name] = sha256(buf.getvalue().replace(str(out / name), "OUT").encode())
    return digests(inp), digests(out), printed


def test_scaled_runs_hold_their_pins(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.delenv("TOOLKIT_SEED", raising=False)
    assert scaled_runs(tmp_path) == (SCALED_INPUTS, SCALED_FILES, SCALED_STDOUT)
    # again into the same directories: each output is rewritten in place over the first run's
    assert scaled_runs(tmp_path) == (SCALED_INPUTS, SCALED_FILES, SCALED_STDOUT)
