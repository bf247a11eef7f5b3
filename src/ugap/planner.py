"""Numerical planner: ground truth for the closed-form efficiency results.

A planner picks the point on a Beveridge curve that maximizes welfare
per unit of labor force, (1 - u) + zeta * u - kappa * v(u). On a convex
decreasing curve welfare peaks where the tangency residual
r(u) = -kappa * v'(u) - (1 - zeta) turns from positive to negative, so
both solvers search on the sign of r alone, with the curve's analytic
slope, and never touch the closed forms they are meant to verify. A
solve is interior exactly when r > 0 at the low end of the bracket and
r < 0 at the high end; otherwise it is a boundary hit.

There are two solvers of that one search. The scalar one serves single
solves and chains (the compensated-v0 halving, a synthetic economy's
reference optimum): it halves the bracket on the sign of r down to
adjacent floats. The oracle grid runs each point as a lane of
_isoelastic_lanes: lockstep halving to a coarse bracket, then lockstep
Newton steps on r, which reach machine precision in a few numpy passes.

A synthetic panel is built as columns, with numpy's + - * / (correctly
rounded, as Python's float arithmetic is) and with every power and
exponential taken through libm by libm_power, so each value is the float
a quarter-by-quarter evaluation gives.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import FirstFault, InputError, PropertyViolation
from .ingest import LaborMarketPanel
from .quarters import quarter_label

_BRACKET = (1e-4, 0.5)
# the bracket width at which the oracle's halving lanes hand over to Newton steps, and the most
# Newton passes, which only a lane that never settles would reach
_LANE_TOL = 3e-3
_NEWTON_STEPS = 100
# the perturbations comparative_statics_check applies: kappa, v0 and epsilon scaled up, zeta shifted up
_KAPPA_FACTOR = 1.25
_ZETA_SHIFT = 0.25
_V0_FACTOR = 1.5
_EPSILON_FACTOR = 1.25
# the largest theta* drift, relative to theta*, an outward shift of the curve may cause and still count as invariant
_THETA_INVARIANCE_TOL = 1e-8
# the largest |u* numeric - u* formula|, relative to u* formula, an oracle grid point may show
_ORACLE_U_TOL = 1e-12
# the largest relative gap between curve and isowelfare slope at an oracle grid point's optimum
_ORACLE_TANGENCY_TOL = 1e-12
# the largest argument math.exp takes without overflowing
_MAX_EXP = math.log(sys.float_info.max)


@dataclass(frozen=True)
class IsoelasticCurve:
    """v(u) = v0 * u ** (-epsilon); inf where the power overflows, as on DmpEconomy."""

    v0: float
    epsilon: float

    def __post_init__(self):
        if not (0.0 < self.v0 < math.inf and 0.0 < self.epsilon < math.inf):
            raise InputError("isoelastic curve needs positive finite v0 and epsilon")

    def value(self, u: float) -> float:
        if u <= 0.0:
            raise InputError(f"unemployment rate must be positive, got {u}")
        return self.v0 * _pow_or_inf(u, -self.epsilon)

    def slope(self, u: float) -> float:
        return -self.epsilon * self.value(u) / u


@dataclass(frozen=True)
class DmpEconomy:
    """Matching-model primitives.

    alpha is the unemployment elasticity of a Cobb-Douglas matching
    function with efficiency mu, s the job-separation rate, p and z the
    productivities of employed and unemployed workers (z < p), c the
    vacancy cost in units of p, and labor_force the population scale.
    """

    alpha: float
    mu: float
    s: float
    p: float
    z: float
    c: float
    labor_force: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise InputError(f"matching elasticity must be in (0,1), got {self.alpha}")
        for name in ("mu", "s", "p", "labor_force"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise InputError(f"{name} must be positive and finite, got {getattr(self, name)}")
        for name in ("c", "z"):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise InputError(f"{name} must be nonnegative and finite, got {getattr(self, name)}")
        if not self.z < self.p:
            raise InputError("unemployed productivity must be below employed productivity")

    def value(self, u):
        """The steady-state Beveridge curve v(u) = [s(1-u) / (mu u^alpha)] ** (1/(1-alpha)); inf where that overflows.

        u is a rate in (0,1), or a numpy column of rates that the caller has
        checked to lie in (0,1). A column takes its powers through libm_power,
        so each of its values is the float the call on that rate alone returns.
        """
        if isinstance(u, np.ndarray):
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                v = self._flow_balance(u, libm_power)
            # a denominator that underflows to 0: numpy's x / 0 is inf too, but its 0 / 0 is nan
            v[np.isnan(v)] = np.inf
            return v
        if not 0.0 < u < 1.0:
            raise InputError(f"unemployment rate must be in (0,1), got {u}")
        try:
            return self._flow_balance(u, pow)
        except (OverflowError, ZeroDivisionError):  # a denominator that underflows to 0 is an overflow too
            return math.inf

    def slope(self, u: float) -> float:
        # d ln v / d u = -(1/(1-alpha)) * (alpha/u + 1/(1-u))
        return -self.value(u) / (1.0 - self.alpha) * (self.alpha / u + 1.0 / (1.0 - u))

    def _flow_balance(self, u, power):
        return power(self.s * (1.0 - u) / (self.mu * power(u, self.alpha)), 1.0 / (1.0 - self.alpha))


def libm_power(x: np.ndarray, p: float) -> np.ndarray:
    """x ** p on each element of a column, through libm's pow as a Python float does; inf where that overflows.

    For x >= 0 or nan and p > 0. numpy's own power may differ from libm's
    pow in the last ulp (its AVX-512 kernel does), so a column that must
    hold the scalar formulas' floats bit for bit takes its powers here, as
    synth_panel takes its exponentials through math.exp.
    """
    values = x.tolist()
    try:
        return np.fromiter(map(pow, values, itertools.repeat(p)), np.float64, len(values))
    except OverflowError:  # raised partway through the map: redo it element by element
        return np.array([_pow_or_inf(a, p) for a in values], dtype=np.float64)


def _pow_or_inf(x: float, p: float) -> float:
    try:
        return x**p
    except OverflowError:
        return math.inf


def dmp_stats(econ: DmpEconomy) -> tuple[float, float]:
    """The statistics the economy implies: (zeta, kappa) = (z/p, c)."""
    return econ.z / econ.p, econ.c


@dataclass(frozen=True)
class PlannerSolution:
    u_star: float
    theta_star: float
    welfare: float
    boundary_warning: bool


def _isoelastic_lanes(epsilon, zeta, kappa, v0) -> tuple[np.ndarray, np.ndarray]:
    """u* and a boundary mask for the planner on v0 * u ** -epsilon, one lane per element of the aligned columns.

    Lockstep halving on the sign of the tangency residual
    r(u) = kappa epsilon v0 u^(-epsilon-1) - (1 - zeta) closes every lane's
    bracket [a, b] to the shared width _LANE_TOL. A lane is a boundary hit
    unless r goes from positive and finite at a to negative at b. Every
    other lane takes lockstep Newton steps on r from a until none moves by
    more than 1e-15 u: r is convex and decreasing, so the steps rise to its
    root and never overshoot it. A boundary lane returns its bracket's
    midpoint. _LANE_TOL = 3e-3 is measured on a random 8^4 grid in the
    oracle's default ranges (2-vCPU x86-64, medians of 101): 8 halving and
    6 Newton passes took 0.9 ms, 1e-3 took 1.0 ms, and 1e-2, with 16 Newton
    passes, 1.4 ms. On 20,000 wide draws (epsilon 0.05-20, zeta -1-0.95,
    kappa 0.01-10, v0 1e-8-1) its lanes start so far below the root that
    they need 18 Newton passes.
    """
    lo, hi = _BRACKET
    with np.errstate(all="ignore"):  # a lane whose residual is not finite at a is a boundary hit
        k, p, c = kappa * v0 * epsilon, epsilon + 1.0, 1.0 - zeta
        a, b = np.full(epsilon.shape, lo), np.full(epsilon.shape, hi)
        width = hi - lo
        while width > _LANE_TOL:
            mid = 0.5 * (a + b)
            rising = k * mid**-p > c
            a, b = np.where(rising, mid, a), np.where(rising, b, mid)
            width *= 0.5
        r = k * a**-p - c
        interior = (0.0 < r) & (r < np.inf) & (k * b**-p < c)
        u = np.where(interior, a, 0.5 * (a + b))
        for _ in range(_NEWTON_STEPS):
            # Newton on r, with r'(u) = -p (r + c) / u; a finite r > 0 at a keeps every step finite
            step = np.where(interior, r * u / (p * (r + c)), 0.0)
            u = u + step
            if not (step > 1e-15 * u).any():
                break
            r = k * u**-p - c
    return u, ~interior


def _check_planner_stats(zeta: float, kappa: float) -> None:
    if not -math.inf < zeta < 1.0:
        raise InputError(f"zeta must be finite and below 1, got {zeta}")
    if not 0.0 < kappa < math.inf:
        raise InputError(f"kappa must be positive and finite, got {kappa}")


def solve_planner_numeric(curve: IsoelasticCurve | DmpEconomy, zeta: float, kappa: float) -> PlannerSolution:
    """Maximize (1-u) + zeta u - kappa v(u) over _BRACKET.

    Welfare is normalized per unit labor force; population scale moves
    the level, never the argmax. The optimum is interior when the tangency
    residual r(u) = -kappa v'(u) - (1 - zeta), which is strictly decreasing
    on a convex curve, is positive at the low end of the bracket and
    negative at the high end; interval halving on its sign then runs to
    adjacent floats. Otherwise the solution carries a boundary_warning and
    sits at the end of the bracket that welfare rises toward.
    """
    _check_planner_stats(zeta, kappa)
    lo, hi = _BRACKET

    def foc(u: float) -> float:
        return -kappa * curve.slope(u) - (1.0 - zeta)

    rising = foc(lo) > 0.0
    boundary = not (rising and foc(hi) < 0.0)
    if boundary:
        u_star = hi if rising else lo
    else:
        u_star = _halve(lambda u: foc(u) > 0.0, lo, hi, 0.0)
    v = curve.value(u_star)
    return PlannerSolution(
        u_star=u_star,
        theta_star=v / u_star,
        welfare=(1.0 - u_star) + zeta * u_star - kappa * v,
        boundary_warning=boundary,
    )


def _halve(below: Callable[[float], bool], a: float, b: float, tol: float) -> float:
    """Interval halving for where below, true at a and false at b, turns false; the midpoint of the last bracket.

    Stops once b - a is at most tol or a and b are adjacent floats; a tol of 0 runs to adjacent floats, which
    takes ~56 passes from _BRACKET.
    """
    while b - a > tol:
        mid = 0.5 * (a + b)
        if mid <= a or mid >= b:
            break
        if below(mid):
            a = mid
        else:
            b = mid
    return 0.5 * (a + b)


def _compensated_v0(base_v0: float, target: float, new_epsilon: float, zeta: float, kappa: float) -> float:
    """v0 for the steeper curve whose maximized welfare equals target, the base curve's.

    Maximized welfare is strictly decreasing in v0, so interval halving
    on v0 is safe. Mirrors a compensated price change: elasticity rises,
    location adjusts to stay on the original isowelfare line. At base_v0
    the steeper curve lies above the base curve on (0, 1), so its peak
    is below target and base_v0 is the upper end of the bracket; the
    lower end halves v0 until the peak reaches target. A search that
    halves v0 to zero raises InputError.
    """

    def peak(v0: float) -> float:
        if v0 == 0.0:
            raise InputError(
                f"the compensated search for the v0 of the curve with epsilon {new_epsilon:g} reached v0 = {v0:g}"
            )
        return solve_planner_numeric(IsoelasticCurve(v0, new_epsilon), zeta, kappa).welfare

    lo = base_v0
    while peak(lo) < target:
        lo /= 2.0
    return _halve(lambda v0: peak(v0) > target, lo, base_v0, 1e-10)


def comparative_statics_check(curve: IsoelasticCurve, zeta: float, kappa: float) -> tuple[dict, ...]:
    """Verify the four comparative-statics sign patterns numerically; one {name, passed, details} dict per pattern.

    Raising kappa or zeta must raise u* and lower theta*; an outward
    shift (v0 up) must raise u* and leave theta* unchanged to a relative
    _THETA_INVARIANCE_TOL; a compensated elasticity increase must raise
    u* and lower theta*.
    """
    if not zeta + _ZETA_SHIFT < 1.0:
        raise InputError("zeta_shift pushes zeta to 1 or above")

    base = solve_planner_numeric(curve, zeta, kappa)

    def raises_u_star_lowers_theta_star(name: str, moved: PlannerSolution) -> dict:
        return dict(
            name=f"{name}_up_raises_u_star_lowers_theta_star",
            passed=moved.u_star > base.u_star and moved.theta_star < base.theta_star,
            details=f"u*: {base.u_star:.9g} -> {moved.u_star:.9g}, theta*: {base.theta_star:.9g} -> {moved.theta_star:.9g}",
        )

    kap = raises_u_star_lowers_theta_star("kappa", solve_planner_numeric(curve, zeta, kappa * _KAPPA_FACTOR))
    zet = raises_u_star_lowers_theta_star("zeta", solve_planner_numeric(curve, zeta + _ZETA_SHIFT, kappa))

    out = solve_planner_numeric(IsoelasticCurve(curve.v0 * _V0_FACTOR, curve.epsilon), zeta, kappa)
    theta_drift = abs(out.theta_star - base.theta_star)
    shift = dict(
        name="v0_up_raises_u_star_theta_star_invariant",
        passed=out.u_star > base.u_star and theta_drift < _THETA_INVARIANCE_TOL * base.theta_star,
        details=f"u*: {base.u_star:.9g} -> {out.u_star:.9g}, |theta* drift| = {theta_drift:.3g}",
    )

    new_eps = curve.epsilon * _EPSILON_FACTOR
    comp_v0 = _compensated_v0(curve.v0, base.welfare, new_eps, zeta, kappa)
    comp = raises_u_star_lowers_theta_star(
        "compensated_epsilon", solve_planner_numeric(IsoelasticCurve(comp_v0, new_eps), zeta, kappa)
    )
    return kap, zet, shift, comp


def synth_panel(
    econ: DmpEconomy,
    quarters: np.ndarray,
    s_mult: np.ndarray,
    mu_mult: np.ndarray,
    noise_scale: float = 0.0,
    seed: int = 0,
) -> tuple[LaborMarketPanel, PlannerSolution]:
    """Generate an on-curve synthetic panel from flow shocks; the panel and the economy's optimum it is built around.

    The aligned columns s_mult and mu_mult scale, in each of the given
    quarters, the separation rate and matching efficiency in the
    flow-balance identity u = s / (s + mu * theta^(1-alpha)), evaluated at
    the economy's efficient tightness. That displaces steady-state
    unemployment along the economy's Beveridge curve, on which the vacancy
    rate is then read off, so the panel traces the curve the way observed
    data do. With noise_scale > 0 the vacancy rate picks up multiplicative
    log-normal noise, deterministic for a given seed.

    Each quarter is checked for, in this order, a multiplier that is not
    positive, an unemployment rate outside (0,1), a vacancy rate on the
    curve that overflows, a noisy vacancy rate that is not finite, a
    tightness v/u that overflows and a vacancy rate outside (0,1); the
    first failing quarter raises InputError for its first failing check.
    """
    if not 0.0 <= noise_scale < math.inf:
        raise InputError(f"noise_scale must be nonnegative and finite, got {noise_scale}")
    if seed < 0:
        raise InputError(f"seed must be nonnegative, got {seed}")
    if not len(quarters):
        raise InputError("shock path is empty")
    ref = solve_planner_numeric(econ, *dmp_stats(econ))
    if ref.boundary_warning:
        raise InputError(
            f"the economy's efficient unemployment {ref.u_star:.6g} is at the edge of "
            f"the planner's search bracket {_BRACKET}; no interior optimum to simulate around"
        )
    finding = econ.mu * ref.theta_star ** (1.0 - econ.alpha)

    faults = FirstFault(lambda i: quarter_label(quarters[i]))
    faults.check((s_mult <= 0.0) | (mu_mult <= 0.0), lambda i: "shock multipliers must be positive")
    s_t = econ.s * s_mult
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        u = s_t / (s_t + finding * mu_mult)
    faults.check(~((0.0 < u) & (u < 1.0)), lambda i: f"shock drives unemployment to {u[i].item()}")
    # the later checks only look at quarters before the first fault found so far
    u = u[: faults.rows]
    v = econ.value(u)
    faults.check(v == np.inf, lambda i: f"the vacancy rate on the curve overflows at u={u[i]:g}")
    if noise_scale > 0.0:
        shocks = np.random.default_rng(seed).normal(0.0, noise_scale, size=len(quarters))[: len(v)]
        small = shocks <= _MAX_EXP
        growth = np.fromiter(map(math.exp, np.where(small, shocks, 0.0).tolist()), np.float64, len(v))
        with np.errstate(over="ignore", invalid="ignore"):
            v = np.where(small, v * growth, np.inf)
        faults.check(~(v < np.inf), lambda i: f"the noisy vacancy rate is not finite (log shock {shocks[i]:g})")
    with np.errstate(over="ignore"):
        overflow = ~(v / u < np.inf)
    faults.check(overflow, lambda i: f"the tightness v/u overflows at u={u[i]:g}, v={v[i]:g}")
    faults.check(~((0.0 < v) & (v < 1.0)), lambda i: f"the vacancy rate {v[i]:g} is not a fraction")
    faults.raise_first()
    return LaborMarketPanel(quarters, u, v), ref


def oracle_grid_check(
    epsilons: Sequence[float] = (0.8, 1.0, 1.25),
    zetas: Sequence[float] = (0.0, 0.25, 0.5),
    kappas: Sequence[float] = (0.3, 0.72, 1.0),
    v0s: Sequence[float] = (3e-4, 3e-3, 3e-2),
) -> list[dict]:
    """Planner-vs-formula agreement over the verification grid.

    For every parameter combination the planner optimum, found from the
    curve's slope alone, is compared against the sufficient-statistic formula evaluated at an
    arbitrary on-curve point, and the curve slope at the optimum against
    the isowelfare slope -(1-zeta)/kappa. Returns one record per grid
    point, in itertools.product order; raises InputError for the first
    invalid point and PropertyViolation on the first boundary hit or
    disagreement.

    All grid points are solved at once by _isoelastic_lanes, which never
    evaluates the formula. Its u* is good to about 1e-15 relative (worst
    6.6e-16, and tangency residual 1.5e-15, over 300 random 4^4 grids in
    the default ranges, with numpy's AVX-512 power on and off), far inside
    the relative _ORACLE_U_TOL. The formula side is gap._u_star, the u* formula that
    gap_series and sensitivity run, on columns. The records are built
    from whole columns; the first failing point in product order is then
    checked for, in this order, an overflowing formula, a boundary hit
    and a disagreement.
    """
    from .gap import _u_star

    axes = [np.asarray(x, dtype=float) for x in (epsilons, zetas, kappas, v0s)]
    eps, zeta, kappa, v0 = (x.ravel() for x in np.meshgrid(*axes, indexing="ij"))
    ok = (
        (0.0 < v0) & (v0 < np.inf) & (0.0 < eps) & (eps < np.inf)
        & (-np.inf < zeta) & (zeta < 1.0) & (0.0 < kappa) & (kappa < np.inf)
    )
    if not ok.all():
        # the scalar checks, run on the first bad point, raise its error
        i = int(np.argmin(ok))
        IsoelasticCurve(float(v0[i]), float(eps[i]))
        _check_planner_stats(float(zeta[i]), float(kappa[i]))

    u_pt = 0.08
    # a curve value that overflows is an infinite tangency residual, which
    # the checks below report
    u_star, boundary = _isoelastic_lanes(eps, zeta, kappa, v0)
    with np.errstate(over="ignore"):
        slope = -eps * (v0 * u_star ** (-eps)) / u_star
        # the formula's on-curve point; a power that overflows here is one the
        # scalar pow raises OverflowError for
        power = u_pt ** (-eps)
        u_formula = _u_star(u_pt, v0 * power, eps, kappa, zeta)
    iso_slope = -(1.0 - zeta) / kappa
    tangency = np.abs(slope - iso_slope) / np.abs(iso_slope)
    u_error = np.abs(u_star - u_formula)
    overflow = np.isinf(power)
    disagree = (u_error >= _ORACLE_U_TOL * u_formula) | (tangency >= _ORACLE_TANGENCY_TOL)

    # the grid values as given, in product order, then the computed columns
    columns = (u_star, u_formula, u_error, tangency, boundary)
    records = [
        {
            "epsilon": e,
            "zeta": z,
            "kappa": k,
            "v0": v,
            "u_star_numeric": u,
            "u_star_formula": u_f,
            "u_error": u_err,
            "tangency_residual": tang_err,
            "boundary_warning": hit,
        }
        for (e, z, k, v), u, u_f, u_err, tang_err, hit in zip(
            itertools.product(epsilons, zetas, kappas, v0s), *(c.tolist() for c in columns)
        )
    ]
    failed = overflow | boundary | disagree
    if failed.any():
        i = int(np.argmax(failed))
        rec = records[i]
        if overflow[i]:
            e, z, k, v = rec["epsilon"], rec["zeta"], rec["kappa"], rec["v0"]
            raise InputError(f"formula overflows at epsilon={e}, zeta={z}, kappa={k}, v0={v}")
        if boundary[i]:
            raise PropertyViolation(f"planner hit bracket boundary at {rec}")
        raise PropertyViolation(f"oracle disagreement at {rec}")
    return records
