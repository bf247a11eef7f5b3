import math

import numpy as np
import pytest

from ugap.errors import InputError
from ugap.fitting import dmp_elasticity, fit_all, fit_elasticity
from ugap.planner import IsoelasticCurve
from ugap.quarters import parse_quarter
from ugap.regimes import Regime, RegimeTable


def rows_on_curve(v0, epsilon, u_values, noise=None):
    """(u, v) columns on the curve v = v0 * u ** -epsilon, with optional log noise."""
    vs = []
    for i, u in enumerate(u_values):
        v = v0 * u ** (-epsilon)
        if noise is not None:
            v *= math.exp(noise[i])
        vs.append(v)
    return list(u_values), vs


def test_exact_isoelastic_data_recovered():
    u = np.linspace(0.03, 0.09, 24)
    est = fit_elasticity(*rows_on_curve(0.09, 1.2, u))
    assert est.epsilon == pytest.approx(1.2, rel=1e-10)
    assert math.exp(est.log_v0) == pytest.approx(0.09, rel=1e-10)
    assert est.r_squared == pytest.approx(1.0, abs=1e-12)
    assert est.se_epsilon == pytest.approx(0.0, abs=1e-8)


def test_fit_predict_roundtrip():
    u = np.linspace(0.02, 0.11, 17)
    us, vs = rows_on_curve(0.0021, 0.95, u)
    est = fit_elasticity(us, vs)
    for u_i, v_i in zip(us, vs):
        assert math.exp(est.log_v0) * u_i ** -est.epsilon == pytest.approx(v_i, rel=1e-12)


def test_noisy_fit_matches_textbook_ols_and_recovers_truth():
    rng = np.random.default_rng(42)
    u = np.exp(rng.uniform(math.log(0.03), math.log(0.10), size=40))
    noise = rng.normal(0.0, 0.08, size=40)
    us, vs = rows_on_curve(0.002, 1.0, u, noise)
    est = fit_elasticity(us, vs)

    # independent computation from the covariance formulas
    x = np.log(us)
    y = np.log(vs)
    slope = np.cov(x, y, ddof=1)[0, 1] / np.var(x, ddof=1)
    intercept = y.mean() - slope * x.mean()
    resid = y - intercept - slope * x
    se = math.sqrt(resid @ resid / (len(x) - 2) / ((x - x.mean()) @ (x - x.mean())))

    assert est.epsilon == pytest.approx(-slope, rel=1e-10)
    assert est.log_v0 == pytest.approx(intercept, rel=1e-10)
    assert est.se_epsilon == pytest.approx(se, rel=1e-10)
    assert abs(est.epsilon - 1.0) < 2.0 * est.se_epsilon


def test_scale_invariance_of_slope():
    rng = np.random.default_rng(7)
    u = np.exp(rng.uniform(math.log(0.03), math.log(0.10), size=30))
    noise = rng.normal(0.0, 0.05, size=30)
    us, vs = rows_on_curve(0.002, 1.1, u, noise)
    a, b = fit_elasticity(us, vs), fit_elasticity(us, [3.0 * v for v in vs])
    assert b.epsilon == pytest.approx(a.epsilon, abs=1e-10)
    assert b.se_epsilon == pytest.approx(a.se_epsilon, abs=1e-10)
    assert b.r_squared == pytest.approx(a.r_squared, abs=1e-10)
    assert b.log_v0 - a.log_v0 == pytest.approx(math.log(3.0), abs=1e-10)


def test_estimator_consistency_in_sample_size():
    def recovered(n):
        rng = np.random.default_rng(123)
        u = np.exp(rng.uniform(math.log(0.03), math.log(0.10), size=n))
        noise = rng.normal(0.0, 0.08, size=n)
        return fit_elasticity(*rows_on_curve(0.002, 1.0, u, noise)).epsilon

    assert abs(recovered(2000) - 1.0) < abs(recovered(20) - 1.0)


def test_small_sample_rejected():
    u = [0.04, 0.05]
    with pytest.raises(InputError, match=r"^need at least 3 rows to fit a curve, got 2 \(''\)$"):
        fit_elasticity(*rows_on_curve(0.002, 1.0, u))


def test_degenerate_regressor_rejected():
    with pytest.raises(InputError, match=r"^log unemployment has zero variance \(''\)$"):
        fit_elasticity([0.05, 0.05, 0.05], [0.030, 0.031, 0.032])


def test_upward_sloping_data_rejected():
    us, vs = rows_on_curve(0.002, 1.0, [0.03, 0.05, 0.08])
    with pytest.raises(InputError, match=r"^estimated elasticity must be positive, got -1.0 \(''\)$"):
        fit_elasticity(us, [0.002 / v for v in vs])


@pytest.mark.parametrize("rate", [0.0, -0.1, math.nan, math.inf])
@pytest.mark.parametrize("column", ["unemployment", "vacancy"])
def test_rate_outside_the_log_domain_is_named(column, rate):
    u, v = [0.05, 0.1, 0.2], [0.1, 0.2, 0.3]
    (u if column == "unemployment" else v)[0] = rate
    with pytest.raises(InputError, match=rf"^{column} rate {rate} is not positive and finite \('1990s'\)$"):
        fit_elasticity(u, v, label="1990s")


# epsilon, log_v0, se and r2 of kernel_pin_fit as hex floats. Summed with OpenBLAS's dot product, the Katmai
# kernel's four values differ from Haswell's and SkylakeX's, and all three differ from these in the last bit
KERNEL_PIN = ("0x1.1a12a1adff7c5p+0", "-0x1.7445fd156cc40p+2", "0x1.b3cfd9e38f0dfp-9", "0x1.fa760967c6c67p-1")


def kernel_pin_fit() -> list[str]:
    """The fit of 1203 seeded rows near v = 0.003 u ** -1.1, as in KERNEL_PIN."""
    rng = np.random.default_rng(2)
    u = rng.uniform(0.02, 0.1, 1203)
    noise = rng.normal(0.0, 0.05, 1203)
    # v through libm, so that numpy's SIMD kernels do not move the pin's inputs either
    v = [0.003 * a**-1.1 * math.exp(e) for a, e in zip(u.tolist(), noise.tolist())]
    est = fit_elasticity(u, v)
    return [x.hex() for x in (est.epsilon, est.log_v0, est.se_epsilon, est.r_squared)]


def test_fit_sums_do_not_depend_on_the_blas_kernel():
    # test_golden runs the fit again under OpenBLAS's Katmai and Haswell kernels
    assert kernel_pin_fit() == list(KERNEL_PIN)


class TestPredictedVacancy:
    """The fitted curve as simulate evaluates it: IsoelasticCurve(exp(log_v0), epsilon)."""

    def test_hand_evaluation(self):
        curve = IsoelasticCurve(math.exp(math.log(0.09)), 1.2)
        assert curve.value(0.05) == pytest.approx(3.2776, abs=5e-3)

    def test_u_one_returns_v0(self):
        assert IsoelasticCurve(math.exp(math.log(0.0123)), 7.7).value(1.0) == pytest.approx(0.0123)

    def test_nonpositive_u_rejected(self):
        with pytest.raises(InputError, match="^unemployment rate must be positive, got 0.0$"):
            IsoelasticCurve(0.09, 1.2).value(0.0)


class TestDmpElasticity:
    def test_midrange_calibration_value(self):
        assert dmp_elasticity(0.5, 0.058) == pytest.approx(1.12, abs=0.005)

    def test_limit_at_zero_unemployment(self):
        assert dmp_elasticity(0.5, 1e-12) == pytest.approx(1.0, abs=1e-9)

    def test_hand_arithmetic(self):
        assert dmp_elasticity(0.6, 0.05) == pytest.approx(1.6316, abs=5e-4)

    def test_strictly_increasing_in_u_and_alpha(self):
        alphas = np.linspace(0.2, 0.8, 7)
        us = np.linspace(0.01, 0.3, 9)
        for a in alphas:
            values = [dmp_elasticity(a, u) for u in us]
            assert all(x < y for x, y in zip(values, values[1:]))
        for u in us:
            values = [dmp_elasticity(a, u) for a in alphas]
            assert all(x < y for x, y in zip(values, values[1:]))

    @pytest.mark.parametrize("alpha,u", [(0.0, 0.05), (1.0, 0.05), (0.5, 0.0), (0.5, 1.0)])
    def test_domain(self, alpha, u):
        name, value = ("matching elasticity", alpha) if u == 0.05 else ("unemployment rate", u)
        with pytest.raises(InputError, match=rf"^{name} must be in \(0,1\), got {value}$"):
            dmp_elasticity(alpha, u)


class TestFitAll:
    def test_bundled_estimates(self, panel, regime_table, estimates):
        assert [e.label for e in estimates] == [r.label for r in regime_table]
        eps = [e.epsilon for e in estimates]
        assert 0.76 <= min(eps) and max(eps) <= 1.30
        assert sum(eps) / len(eps) == pytest.approx(1.03, abs=0.05)
        assert all(0.02 <= e.se_epsilon <= 0.10 for e in estimates)
        assert all(0.90 <= e.r_squared <= 0.97 for e in estimates)

    def test_error_carries_regime_label(self, panel):
        sparse = RegimeTable((Regime("tiny", parse_quarter("1951Q1"), parse_quarter("1951Q2")),))
        estimates, failures = fit_all(panel, sparse)
        assert estimates == []
        [(label, exc)] = failures
        assert label == "tiny" and isinstance(exc, InputError)
        assert str(exc) == "need at least 3 rows to fit a curve, got 2 ('tiny')"
