from pathlib import Path

import pytest

import inputs
from conftest import ROOT

BUNDLED = ROOT / "src" / "ugap" / "data"


def _files(path: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())}


@pytest.mark.parametrize("make", [
    lambda seed, out: inputs.long_history(seed, 400, BUNDLED, out),
    lambda seed, out: inputs.verify_inputs(seed, 3, 100, BUNDLED, out),
])
def test_same_seed_same_bytes_other_seed_other_bytes(tmp_path, make):
    make(5, tmp_path / "a")
    make(5, tmp_path / "b")
    make(6, tmp_path / "c")
    a, b, c = (_files(tmp_path / x) for x in "abc")
    assert a == b
    assert a.keys() == c.keys()
    assert a != c


def test_long_history_density_and_sizes(tmp_path):
    manifest = inputs.long_history(3, 2000, BUNDLED, tmp_path)
    assert manifest["quarters"] == 2000
    assert 2000 / manifest["regimes"] == pytest.approx(inputs.REGIME_STRIDE, rel=0.15)
    assert 2000 / manifest["bands"] == pytest.approx(inputs.RECESSION_STRIDE, rel=0.15)
    assert len(manifest["design_epsilon"]) == manifest["regimes"]
    regimes = (tmp_path / "regimes.csv").read_text().splitlines()[1:]
    assert len(regimes) == manifest["regimes"]
    # two shift quarters between consecutive regimes
    first_end = regimes[0].split(",")[2]
    second_start = regimes[1].split(",")[1]
    idx = lambda label: int(label[:4]) * 4 + int(label[-1])  # noqa: E731
    assert idx(second_start) - idx(first_end) == inputs.SHIFT_QUARTERS + 1


def test_year_limit(tmp_path):
    with pytest.raises(ValueError):
        inputs.long_history(1, inputs.MAX_QUARTERS + 1, BUNDLED, tmp_path)
    assert inputs.quarter_label(inputs.MAX_QUARTERS - 1) == "9999Q4"


def test_verify_inputs_stay_in_ranges(tmp_path):
    import json

    manifest = inputs.verify_inputs(9, 4, 300, BUNDLED, tmp_path)
    assert manifest["grid_points"] == 256 and manifest["path_quarters"] == 300
    grid = json.loads((tmp_path / "grid.json").read_text())
    for name, (lo, hi) in inputs.GRID_RANGES.items():
        assert all(lo <= x <= hi for x in grid[name])
    rows = (tmp_path / "shocks.csv").read_text().splitlines()[1:]
    assert len(rows) == 300
    assert all(0.9 <= float(r.split(",")[1]) <= 1.1 and r.endswith(",1.0") for r in rows)
