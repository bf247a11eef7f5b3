import contextlib
import io
import json

import pytest

import checker
import inputs
from conftest import ROOT

BUNDLED = ROOT / "src" / "ugap" / "data"


@pytest.fixture(scope="module")
def recomputed(tmp_path_factory):
    from ugap import cli

    base = tmp_path_factory.mktemp("lh")
    manifest = inputs.long_history(4, 200, BUNDLED, base / "in")
    out = base / "out"
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(["report", "--recompute", "--config", str(base / "in" / "run.cfg"), "--out", str(out)])
    assert rc == 0
    kappa, zeta = checker.read_calibration(base / "in" / "calibration.cfg")
    return out, manifest["design_epsilon"], kappa, zeta


def _copy(src, dst):
    dst.mkdir()
    for p in src.iterdir():
        if p.is_file():
            (dst / p.name).write_bytes(p.read_bytes())
    return dst


def test_unperturbed_outputs_pass(recomputed):
    out, design, kappa, zeta = recomputed
    assert checker.check_gap(out, kappa, zeta) == []
    assert checker.check_epsilon_recovery(out, design) == []


def test_perturbed_gap_csv_is_flagged(recomputed, tmp_path):
    out, _, kappa, zeta = recomputed
    bad = _copy(out, tmp_path / "bad")
    lines = (bad / "gap.csv").read_text().splitlines()
    cols = lines[10].split(",")
    cols[5] = f"{float(cols[5]) * 1.001:.8g}"  # u_star of one quarter, off by 0.1 %
    lines[10] = ",".join(cols)
    (bad / "gap.csv").write_text("\n".join(lines) + "\n")
    problems = checker.check_gap(bad, kappa, zeta)
    assert len(problems) == 1 and "gap.csv u_star" in problems[0]


def test_perturbed_summary_is_flagged(recomputed, tmp_path):
    out, _, kappa, zeta = recomputed
    bad = _copy(out, tmp_path / "bad")
    summary = json.loads((bad / "summary.json").read_text())
    summary["gap"]["excluding_gap_quarters"]["mean_gap"] += 1e-5
    (bad / "summary.json").write_text(json.dumps(summary))
    problems = checker.check_gap(bad, kappa, zeta)
    assert len(problems) == 1 and "excluding_gap_quarters.mean_gap" in problems[0]


def test_wrong_design_epsilon_is_flagged(recomputed):
    out, design, _, _ = recomputed
    shifted = dict(design)
    label = sorted(shifted)[0]
    shifted[label] += 0.3
    problems = checker.check_epsilon_recovery(out, shifted)
    assert len(problems) == 1 and label in problems[0]


def test_digest_comparison(tmp_path):
    (tmp_path / "a.txt").write_text("x")
    first = checker.digest_dir(tmp_path)
    (tmp_path / "a.txt").write_text("y")
    (tmp_path / "b.txt").write_text("z")
    later = checker.digest_dir(tmp_path)
    assert checker.compare_digests("r", first, later) == ["r: a.txt differs", "r: b.txt differs"]
    assert checker.compare_digests("r", first, later, common_only=True) == ["r: a.txt differs"]


def test_oracle_record_count():
    grid = {"epsilon": [1.0], "zeta": [0.1, 0.2], "kappa": [0.5], "v0": [1e-3]}
    rec = {"u_error": 1e-9, "boundary_warning": False}
    assert checker.check_oracle([rec, rec], grid) == []
    assert checker.check_oracle([rec], grid)
