"""The benchmark's span recorder wraps ugap names by module attribute.

bench/workloads.py::instrument looks each name up with vars(owner)[attr],
so renaming or moving a wrapped function breaks the traced benchmark
run. This test catches that without running the benchmark.
"""

from pathlib import Path

from ugap import calibration, cli, config, fitting, gap, ingest, planner, regimes, svgfig

BENCH = Path(__file__).resolve().parents[1] / "bench"
OWNERS = (
    calibration.CalibrationProfile, cli, config, fitting, gap, ingest,
    ingest.LaborMarketPanel, planner, regimes, regimes.RegimeTable, svgfig,
)


def test_instrument_binds_and_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import spans
    import workloads

    before = {owner: dict(vars(owner)) for owner in OWNERS}
    with spans.SpanRecorder() as recorder:
        workloads.instrument(recorder)
        assert gap.gap_series is not before[gap]["gap_series"]
        assert cli.build_schedule is not before[cli]["build_schedule"]
    assert {owner: dict(vars(owner)) for owner in OWNERS} == before
