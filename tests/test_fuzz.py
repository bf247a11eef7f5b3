"""Fuzzed run configs, scenarios, shock files, summary.json files and library arguments against the exit-code contract.

`cli.main` must never raise. It returns 0 or 2, and `simulate` may also
return 1, for a verified property that failed. Each file starts from the
bundled one, with a few values swapped for other valid ones, wrong ones
or junk text, or dropped, and maybe a junk line. A summary.json starts
from the one `report --recompute` writes, with values under its gap and
sensitivity sections swapped for arbitrary JSON: big integers, deep
nests, wrong types. The public numerical routines must return or raise
InputError for any float they are given.
"""

import contextlib
import io
import json
import shutil

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import run_python
from test_readers import MULTIPLIERS, SPECIAL_LINES, mostly, pick
from ugap.cli import main
from ugap.config import bundled_data_dir, parse_kv_text
from ugap.quarters import quarter_label

DATA_FILES = ("unemployment_monthly.csv", "vacancy_hwi_monthly.csv", "regimes_default.csv", "default.cfg")
# key: (valid values, wrong values)
CONFIG = {
    "data.u_series": (("unemployment_monthly.csv",), ("missing.csv", "", ".", *DATA_FILES[2:])),
    "data.v_pre": (("vacancy_hwi_monthly.csv",), ("missing.csv", "vacancy_jolts_monthly.csv", *DATA_FILES[2:])),
    "data.v_post": (("vacancy_jolts_monthly.csv",), ("vacancy_hwi_monthly.csv", "shocks_default.csv")),
    "data.unit": (("percent",), ("fraction", "bps", "")),
    # the bundled HWI series ends in 2000Q4 and JOLTS starts in 2001Q1, so any later cutover leaves a gap
    "data.cutover": (("2001Q1", "2001q1"), ("2001Q5", "1800Q1", "2030Q1", "", "x", "2005Q3")),
    "data.regimes": (("regimes_default.csv", "short_regimes.csv"), ("recessions_nber.csv", "missing.csv", "")),
    "data.recessions": (("recessions_nber.csv", ""), ("regimes_default.csv", "missing.csv", *DATA_FILES[:1])),
    "calibration.profile": (("calibration_default.cfg",), ("default.cfg", "missing.cfg", "", "scenario_default.cfg")),
    "gap.kappa": (("0.5", "1e-3"), ("0", "-1", "nan", "inf", "1e308", "abc", "")),
    "gap.kappa_file": (("", "kappa.csv"), ("bad_kappa.csv", "missing.csv", "regimes_default.csv")),
    "gap.zeta": (("0.25", "-1"), ("1", "nan", "-inf", "abc", "")),
    "gap.tolerance": (("0.01", "0"), ("-0.1", "nan", "abc", "")),
    "gap.exclude_gap_quarters": (("true", "false"), ("maybe", "")),
    "sensitivity.zeta_list": (("0 0.25 0.5", "0.1"), ("", "abc", "1", "0.25,0.25", "0.1,0.1000001", "-inf")),
    "sensitivity.implied_zeta": (("true", "false"), ("2",)),
    "simulate.scenario": (("scenario_default.cfg",), ("default.cfg", "missing.cfg", "", "shocks_default.csv")),
    "simulate.seed": (("1", "0"), ("-1", "1.5", "abc", "")),
    "simulate.noise_scale": (("0", "0.01"), ("-1", "nan", "1e308", "abc")),
}
SCENARIO = {
    "economy.alpha": (("0.5", "0.3", "0.987"), ("0", "1", "nan", "abc")),
    "economy.mu": (("2.055", "1.5", "200"), ("0", "-1", "nan", "inf", "1e308")),
    "economy.s": (("0.105", "0.2"), ("0", "nan", "1e308")),
    "economy.p": (("1.0",), ("0", "inf", "0.1")),
    "economy.z": (("0.25", "0"), ("-1", "1", "nan")),
    "economy.c": (("0.72", "0.01"), ("-1", "nan", "1e308")),
    "economy.labor_force": (("1.0", "100"), ("0", "nan")),
    "shocks.path": (("shocks.csv", "shocks_default.csv"), ("missing.csv", "", "regimes_default.csv")),
    "shocks.noise_scale": (("0.0", "0.02"), ("-1", "inf", "1e308", "abc")),
    "shocks.seed": (("1951", "0"), ("-1", "x", "1.5")),
}
COMMANDS = (["ingest"], ["fit"], ["gap"], ["sensitivity"], ["simulate"], ["report"], ["report", "--recompute"])
# stands in for a deep nest in the JSON text, which json.dumps would have to recurse through
DEEP = "\x00deep\x00"
JSON_SCALARS = st.one_of(
    st.just(DEEP),
    st.integers(-(10**1000), 10**1000),
    st.floats(),
    st.text(max_size=6),
    st.none(),
    st.booleans(),
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.one_of(st.lists(inner, max_size=3), st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=8,
)


@st.composite
def kv_file(draw, values, base):
    """The key = value text of base with up to three keys of values changed, and maybe a junk line.

    A changed key is dropped one time in five, else set to a valid, wrong
    or junk value; keys that base lacks are added that way.
    """
    entries = parse_kv_text(base)
    for key in draw(st.lists(st.sampled_from(sorted(values)), max_size=3, unique=True)):
        if draw(st.integers(0, 4)) == 0:
            entries.pop(key, None)
        else:
            entries[key] = draw(pick(*values[key]))
    lines = []
    for key, value in entries.items():
        section, name = key.split(".", 1)
        lines += [f"[{section}]", f"{name} = {value}"]
    if draw(st.integers(0, 9)) == 0:
        junk = draw(st.one_of(st.sampled_from(SPECIAL_LINES), st.text(max_size=8)))
        lines.insert(draw(st.integers(0, len(lines))), junk)
    return "\n".join(lines) + "\n"


@st.composite
def shocks_file(draw):
    q = draw(st.integers(4 * 1990, 4 * 2010))
    rows = ["quarter,s_multiplier,mu_multiplier"]
    for _ in range(draw(st.integers(0, 12))):
        q += draw(st.sampled_from([1, 1, 1, 1, 1, 1, 1, 1, 0, -1]))
        rows.append(f"{quarter_label(q)},{draw(mostly(*MULTIPLIERS))},{draw(mostly(*MULTIPLIERS))}")
    return "\n".join(rows) + "\n"


@pytest.fixture(scope="module")
def data(tmp_path_factory):
    """A copy of the bundled data, with a good and a bad kappa file and a table of two short regimes."""
    data = tmp_path_factory.mktemp("fuzz") / "data"
    shutil.copytree(bundled_data_dir(), data)
    (data / "kappa.csv").write_text("regime,kappa\n2010Q1-2019Q4,0.8\n")
    (data / "bad_kappa.csv").write_text("regime,kappa\n2010Q1-2019Q4,0.8\n1951Q1-1959Q2,x\n")
    (data / "short_regimes.csv").write_text("a,1990Q1,1999Q4\nb,2001Q1,2009Q4\n")
    return data


@st.composite
def summary_text(draw, base: dict) -> str:
    """The JSON text of base with one to three values under its gap and sensitivity keys swapped for arbitrary JSON.

    One time in ten it is arbitrary JSON alone. Each DEEP in it becomes a nest of a drawn depth.
    """
    if draw(st.integers(0, 9)) == 0:
        summary = draw(JSON_VALUES)
    else:
        summary = json.loads(json.dumps(base))
        for _ in range(draw(st.integers(1, 3))):
            node = summary
            path = [draw(st.sampled_from(["gap", "sensitivity"]))]
            while isinstance(node.get(path[-1]), dict) and node[path[-1]] and draw(st.booleans()):
                node = node[path[-1]]
                path.append(draw(st.sampled_from(sorted(node))))
            node[path[-1]] = draw(JSON_VALUES)
    depth = draw(st.sampled_from([1, 50, 99, 100, 400, 600, 900, 1200]))
    return json.dumps(summary).replace(json.dumps(DEEP), "[" * depth + "]" * depth)


def run(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        return main([str(a) for a in argv]), err.getvalue()


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(st.data())
def test_main_on_fuzzed_run_configs(data, fuzz):
    base = (bundled_data_dir() / "default.cfg").read_text()
    config = data / "fuzzed.cfg"
    config.write_text(fuzz.draw(kv_file(CONFIG, base)))
    out = data.parent / "out"
    shutil.rmtree(out, ignore_errors=True)
    command = fuzz.draw(st.sampled_from(COMMANDS))
    rc, err = run([*command, "--config", config, "--out", out])
    assert rc in ((0, 1, 2) if command == ["simulate"] else (0, 2)), err


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(st.data())
def test_simulate_on_fuzzed_scenarios_and_shocks(data, fuzz):
    base = (bundled_data_dir() / "scenario_default.cfg").read_text()
    scenario = data / "fuzzed_scenario.cfg"
    scenario.write_text(fuzz.draw(kv_file(SCENARIO, base)))
    (data / "shocks.csv").write_text(fuzz.draw(shocks_file()))
    rc, err = run(["simulate", "--scenario", scenario, "--out", data.parent / "sim"])
    assert rc in (0, 1, 2), err
    if rc == 1:
        assert err.startswith("property violation:"), err


@pytest.fixture(scope="module")
def recomputed(tmp_path_factory):
    out = tmp_path_factory.mktemp("fuzz") / "recomputed"
    assert run(["report", "--recompute", "--out", out])[0] == 0
    return out


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(st.data())
def test_main_on_fuzzed_summaries(recomputed, fuzz):
    base = json.loads((recomputed / "summary.json").read_text())
    out = recomputed.parent / "out"
    shutil.rmtree(out, ignore_errors=True)
    shutil.copytree(recomputed, out)
    (out / "summary.json").write_text(fuzz.draw(summary_text(base)))
    command = fuzz.draw(st.sampled_from([["ingest"], ["gap"], ["report"]]))
    rc, err = run([*command, "--out", out])
    assert rc in (0, 2), err


# Run in a child, so that a routine that never returns fails the test instead of stalling the suite.
PUBLIC_ROUTINES = """
import math
import warnings

from hypothesis import given, settings
from hypothesis import strategies as st

from ugap.errors import InputError
from ugap.fitting import fit_elasticity
from ugap.planner import IsoelasticCurve, comparative_statics_check, solve_planner_numeric
from ugap.svgfig import scatter_fit_svg, timeseries_svg

# the contract is on what a call returns or raises; numpy's warnings on inf and nan are not part of it
warnings.simplefilter("ignore", RuntimeWarning)
# log-uniform from 1e-300 to 1e300 nine times in ten, else 0, a negative, an infinity or nan
magnitude = st.floats(-300.0, 300.0).map(lambda e: 10.0 ** e)
number = st.integers(0, 9).flatmap(
    lambda i: st.sampled_from([0.0, -1.0, math.inf, -math.inf, math.nan]) if i == 0 else magnitude
)
signed = st.one_of(number, number.map(lambda x: -x))
column = st.lists(signed, min_size=1, max_size=6)
fuzz = settings(derandomize=True, database=None, deadline=None, max_examples=100)


def returns_or_input_error(call, *args):
    try:
        call(*args)
    except InputError:
        pass


for routine in (solve_planner_numeric, comparative_statics_check):
    @fuzz
    @given(number, number, signed, number)
    def planner(v0, epsilon, zeta, kappa):
        returns_or_input_error(lambda: routine(IsoelasticCurve(v0, epsilon), zeta, kappa))

    planner()


@fuzz
@given(column, column, signed, signed)
def figures(xs, ys, slope, intercept):
    returns_or_input_error(scatter_fit_svg, "t", xs, ys, slope, intercept)
    bands = [(slope, intercept)]
    returns_or_input_error(timeseries_svg, "t", xs, ["x"] * len(xs), [("a", ys), ("b", xs)], bands)


@fuzz
@given(column, column)
def fit(u, v):
    returns_or_input_error(fit_elasticity, u, (v + u)[: len(u)])


figures()
fit()
"""


def test_public_routines_return_or_raise_input_error():
    done = run_python(PUBLIC_ROUTINES, timeout=60)
    assert done.returncode == 0, done.stderr
