"""The simulate path as columns against the per-quarter loop it replaced.

synth_panel and the round-trip error work on whole columns, with every
power and exponential taken through libm. The per-quarter loop they
replaced is kept here as the reference: on every drawn economy, shock
path, noise scale and seed the column synth_panel must return u and v
bit for bit, or raise the same exception type with the same message,
and the round-trip error must be the scalar loop's float.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scalar_formulas import SufficientStats, efficient_unemployment
from ugap.cli import _load_scenario, _round_trip_error, main
from ugap.config import bundled_data_dir, load_config
from ugap.errors import DomainError, InputError
from ugap.fitting import fit_elasticity
from ugap.ingest import LaborMarketPanel
from ugap.planner import (
    _BRACKET,
    _MAX_EXP,
    DmpCurve,
    DmpEconomy,
    dmp_beveridge,
    dmp_stats,
    solve_planner_numeric,
    synth_panel,
)
from ugap.quarters import parse_quarter, quarter_label

BASE_ECON = DmpEconomy(alpha=0.5, mu=2.055, s=0.105, p=1.0, z=0.25, c=0.72)
TINY = 5e-324
ALMOST_ONE = 1.0 - 2.0**-53  # the largest float below 1


# -- the per-quarter loop the columns replaced ---------------------------------


def reference_synth_panel(econ, shock_path, noise_scale=0.0, seed=0):
    if not 0.0 <= noise_scale < math.inf:
        raise DomainError(f"noise_scale must be nonnegative and finite, got {noise_scale}")
    if seed < 0:
        raise DomainError(f"seed must be nonnegative, got {seed}")
    if not shock_path:
        raise DomainError("shock path is empty")
    curve = DmpCurve(econ)
    ref = solve_planner_numeric(curve, *dmp_stats(econ))
    if ref.boundary_warning:
        raise DomainError(
            f"the economy's efficient unemployment {ref.u_star:.6g} is at the edge of "
            f"the planner's search bracket {_BRACKET}; no interior optimum to simulate around"
        )
    theta_ref = ref.theta_star
    finding = econ.mu * theta_ref ** (1.0 - econ.alpha)

    rng = np.random.default_rng(seed)
    shocks = rng.normal(0.0, noise_scale, size=len(shock_path)) if noise_scale > 0.0 else None

    us, vs = [], []
    for i, (quarter, s_mult, mu_mult) in enumerate(shock_path):
        if s_mult <= 0.0 or mu_mult <= 0.0:
            raise DomainError(f"{quarter_label(quarter)}: shock multipliers must be positive")
        s_t = econ.s * s_mult
        d = s_t + finding * mu_mult
        # deliberate change: 0 / 0 raised a raw ZeroDivisionError here
        u = s_t / d if d else math.nan
        if not 0.0 < u < 1.0:
            raise DomainError(f"{quarter_label(quarter)}: shock drives unemployment to {u}")
        v = curve.value(u)
        if v == math.inf:
            raise DomainError(f"{quarter_label(quarter)}: the vacancy rate on the curve overflows at u={u:g}")
        if shocks is not None:
            shock = float(shocks[i])
            v = v * math.exp(shock) if shock <= _MAX_EXP else math.inf
            if not v < math.inf:
                raise DomainError(
                    f"{quarter_label(quarter)}: the noisy vacancy rate is not finite "
                    f"(log shock {shock:g})"
                )
        # deliberate change: a tightness v/u that overflowed went into the panel as inf
        if not v / u < math.inf:
            raise DomainError(f"{quarter_label(quarter)}: the tightness v/u overflows at u={u:g}, v={v:g}")
        # deliberate change: a vacancy rate outside (0,1) went into the panel
        if not 0.0 < v < 1.0:
            raise DomainError(f"{quarter_label(quarter)}: the vacancy rate {v:g} is not a fraction")
        us.append(u)
        vs.append(v)
    return LaborMarketPanel([q for q, _, _ in shock_path], us, vs)


def reference_round_trip(panel, stats, u_star):
    return max(
        abs(efficient_unemployment(u, v, stats) - u_star) / u_star
        for u, v in zip(panel.u.tolist(), panel.v.tolist())
    )


def outcome(build, *args, **kwargs):
    """The u and v columns' bits, or the type and message of the InputError raised."""
    try:
        panel = build(*args, **kwargs)
    except InputError as exc:
        return type(exc), str(exc)
    return panel.quarters.tolist(), panel.u.view(np.int64).tolist(), panel.v.view(np.int64).tolist()


def bits(x: float) -> int:
    return int(np.float64(x).view(np.int64))


# -- strategies ----------------------------------------------------------------

SPECIAL = (0.0, -0.0, -1.0, math.nan, math.inf, -math.inf, TINY, 1e-320, 1e-300, 1e300, 1e308)
ECONOMIES = (
    BASE_ECON,
    DmpEconomy(alpha=0.5, mu=0.5, s=0.105, p=1.0, z=0.25, c=0.72),  # 0/0 unemployment with tiny multipliers
    DmpEconomy(alpha=0.9, mu=2.055, s=0.105, p=1.0, z=0.25, c=0.72),
    DmpEconomy(alpha=0.5, mu=2.055, s=1e308, p=1.0, z=0.25, c=0.72),  # the curve overflows
    DmpEconomy(alpha=0.5, mu=TINY, s=0.105, p=1.0, z=0.25, c=0.72),  # the denominator underflows
    DmpEconomy(alpha=0.5, mu=TINY, s=TINY, p=1.0, z=0.25, c=0.72),
)


economies = st.one_of(
    st.sampled_from(ECONOMIES),
    st.builds(
        DmpEconomy,
        alpha=st.floats(0.05, 0.95),
        mu=st.sampled_from([0.5, 1.0, 2.055, 5.0]),
        s=st.sampled_from([0.05, 0.105, 0.3]),
        p=st.just(1.0),
        z=st.sampled_from([0.0, 0.25, 0.5]),
        c=st.sampled_from([0.3, 0.72, 1.5]),
    ),
)


@st.composite
def shock_paths(draw):
    """Multipliers near 1, with a special value in up to three places; empty one time in twenty."""
    n = draw(st.integers(0, 19).flatmap(lambda i: st.just(0) if i == 0 else st.integers(1, 60)))
    s_mult = np.array(draw(st.lists(st.floats(0.5, 1.5), min_size=n, max_size=n)), dtype=np.float64)
    mu_mult = np.array(draw(st.lists(st.floats(0.5, 1.5), min_size=n, max_size=n)), dtype=np.float64)
    if n:
        for _ in range(draw(st.sampled_from([0, 0, 1, 2, 3]))):
            column = draw(st.sampled_from([s_mult, mu_mult]))
            column[draw(st.integers(0, n - 1))] = draw(st.sampled_from(SPECIAL))
    first = draw(st.integers(4 * 1990, 4 * 2010))
    return np.arange(first, first + n, dtype=np.int64), s_mult, mu_mult


# -- properties ----------------------------------------------------------------


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(
    economies,
    shock_paths(),
    st.sampled_from([0.0, 0.0, 0.0, 0.03, 1.0, 700.0, 1e3]),
    st.integers(0, 2**16),
)
def test_column_synth_panel_matches_per_quarter_loop(econ, path, noise_scale, seed):
    quarters, s_mult, mu_mult = path
    shock_path = list(zip(quarters.tolist(), s_mult.tolist(), mu_mult.tolist()))
    got = outcome(synth_panel, econ, quarters, s_mult, mu_mult, noise_scale=noise_scale, seed=seed)
    want = outcome(reference_synth_panel, econ, shock_path, noise_scale=noise_scale, seed=seed)
    assert got == want


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(
    st.one_of(
        economies,
        st.sampled_from([DmpEconomy(alpha=ALMOST_ONE, mu=TINY, s=TINY, p=1.0, z=0.25, c=0.72)]),
    ),
    st.lists(
        st.one_of(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True), st.sampled_from([TINY, 1e-300, 0.5])),
        min_size=1,
        max_size=40,
    ),
)
def test_curve_column_matches_scalar_curve(econ, rates):
    got = dmp_beveridge(econ, np.array(rates))
    assert got.view(np.int64).tolist() == [bits(dmp_beveridge(econ, u)) for u in rates]


def test_zero_over_zero_on_the_curve_is_an_overflow():
    # s (1 - u) and mu u^alpha both underflow to 0 at u = 0.5
    econ = DmpEconomy(alpha=ALMOST_ONE, mu=TINY, s=TINY, p=1.0, z=0.25, c=0.72)
    assert dmp_beveridge(econ, 0.5) == math.inf
    assert dmp_beveridge(econ, np.array([0.25, 0.5])).tolist() == [math.inf, math.inf]


def test_zero_over_zero_unemployment_is_a_domain_error(tmp_path, capsys):
    """Both flow terms underflow to 0; the per-quarter loop died on 0 / 0 with a raw ZeroDivisionError."""
    shocks = tmp_path / "shocks.csv"
    shocks.write_text("quarter,s_multiplier,mu_multiplier\n2000Q1,1,1\n2000Q2,5e-324,5e-324\n2000Q3,1,1\n")
    text = (bundled_data_dir() / "scenario_default.cfg").read_text()
    scenario = tmp_path / "scenario.cfg"
    scenario.write_text(text.replace("shocks_default.csv", str(shocks)).replace("mu = 2.055", "mu = 0.5"))
    assert main(["simulate", "--scenario", str(scenario), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err == "error: 2000Q2: shock drives unemployment to nan\n"


# -- the round trip keeps its bits ------------------------------------------------


def bundled_scenario(noise_scale=None, seed=None):
    return _load_scenario(load_config(None, {"noise_scale": noise_scale, "seed": seed}))


def long_path(n=8000, seed=7):
    """A seeded path inside the bundled file's separation range, matching efficiency fixed at 1."""
    s_mult = np.random.default_rng(seed).uniform(0.9, 1.1, n)
    return parse_quarter("1951Q1") + np.arange(n), s_mult, np.ones(n)


@pytest.mark.parametrize(
    "scenario",
    [
        pytest.param(lambda: bundled_scenario(), id="bundled"),
        pytest.param(lambda: bundled_scenario(noise_scale=0.03, seed=7), id="noisy"),
        pytest.param(lambda: (BASE_ECON, long_path(), 0.0, 0), id="long"),
    ],
)
def test_round_trip_error_is_the_scalar_loops(scenario, monkeypatch):
    monkeypatch.delenv("TOOLKIT_SEED", raising=False)
    econ, (quarters, s_mult, mu_mult), noise, seed = scenario()
    panel = synth_panel(econ, quarters, s_mult, mu_mult, noise_scale=noise, seed=seed)
    path = list(zip(quarters.tolist(), s_mult.tolist(), mu_mult.tolist()))
    assert outcome(lambda: panel) == outcome(reference_synth_panel, econ, path, noise, seed)
    zeta, kappa = dmp_stats(econ)
    stats = SufficientStats(fit_elasticity(panel.u, panel.v).epsilon, kappa, zeta)
    u_star = solve_planner_numeric(DmpCurve(econ), zeta, kappa).u_star
    got = _round_trip_error(panel, stats.epsilon, kappa, zeta, u_star)
    assert bits(got) == bits(reference_round_trip(panel, stats, u_star))
