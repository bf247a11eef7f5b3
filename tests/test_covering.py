"""simulate on every triple of valid scenario values, the run commands on every pair of valid config values, and each wrong value alone.

The scenario cases come from a strength-3 covering array over the valid
values of test_fuzz's SCENARIO, so that any three values meet in some
case. A fault can need three: `ugap simulate` raised a raw OverflowError
on the steep economy of alpha 0.987 and mu 200 only with vacancy cost c
0.72, and the strength-2 cases meet those two values with c 0.01. Each
wrong value is run on its own against the bundled scenario. `main` must
never raise: a valid case exits 0, 1 for a failed property check, or 2,
and a wrong value exits 2.

The config cases come from a strength-2 covering array over the valid
values of test_fuzz's CONFIG, each run through `gap`, `sensitivity
--implied-zeta` and `report --recompute`; they exit 0 or 2. Each wrong
config value is run on its own against the bundled default.cfg, through
the command that reads its key, and exits 2; each valid config value
that default.cfg does not already hold is run the same way, and exits 0.
"""

import itertools
import shutil

import pytest

from covering import covering_cases
from test_fuzz import CONFIG, SCENARIO, run
from ugap.config import bundled_data_dir, parse_kv_text

CASES = covering_cases({key: valid for key, (valid, _wrong) in SCENARIO.items()}, strength=3)
WRONG = [(key, value) for key, (_valid, wrong) in SCENARIO.items() for value in wrong]
CONFIG_CASES = covering_cases({key: valid for key, (valid, _wrong) in CONFIG.items()})
CONFIG_WRONG = [(key, value) for key, (_valid, wrong) in CONFIG.items() for value in wrong]
DEFAULT_CONFIG = parse_kv_text((bundled_data_dir() / "default.cfg").read_text())
CONFIG_VALID = [
    (key, value) for key, (valid, _wrong) in CONFIG.items() for value in valid if DEFAULT_CONFIG.get(key) != value
]
CONFIG_COMMANDS = (["gap"], ["sensitivity", "--implied-zeta"], ["report", "--recompute"])
# the valid shocks.csv: separations swing by 10% over two years, as in the bundled path
SHOCKS = """quarter,s_multiplier,mu_multiplier
2000Q1,1.000000,1
2000Q2,1.070711,1
2000Q3,1.100000,1
2000Q4,1.070711,1
2001Q1,1.000000,1
2001Q2,0.929289,1
2001Q3,0.900000,1
2001Q4,0.929289,1
"""


# each table at a strength, and the most cases it may take: what the builder gives today
@pytest.mark.parametrize(
    ("table", "strength", "most"),
    [(SCENARIO, 2, 10), (SCENARIO, 3, 37), (CONFIG, 2, 13)],
    ids=["SCENARIO-2", "SCENARIO-3", "CONFIG-2"],
)
def test_every_combination_of_valid_values_meets_in_a_case(table, strength, most):
    valid = {key: values for key, (values, _wrong) in table.items()}
    cases = covering_cases(valid, strength)
    assert all(list(case) == list(valid) and all(case[k] in valid[k] for k in case) for case in cases)
    subsets = list(itertools.combinations(valid, strength))
    met = {tuple((k, case[k]) for k in subset) for case in cases for subset in subsets}
    every = {tuple(zip(subset, values)) for subset in subsets for values in itertools.product(*map(valid.get, subset))}
    assert met == every
    assert len(cases) <= most


def kv_text(entries: dict[str, str]) -> str:
    lines = []
    for key, value in entries.items():
        section, name = key.split(".", 1)
        lines += [f"[{section}]", f"{name} = {value}"]
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def data(tmp_path_factory):
    data = tmp_path_factory.mktemp("covering") / "data"
    shutil.copytree(bundled_data_dir(), data)
    (data / "shocks.csv").write_text(SHOCKS)
    # the tables test_fuzz's CONFIG names besides the bundled ones
    (data / "kappa.csv").write_text("regime,kappa\n2010Q1-2019Q4,0.8\n")
    (data / "bad_kappa.csv").write_text("regime,kappa\n2010Q1-2019Q4,0.8\n1951Q1-1959Q2,x\n")
    (data / "short_regimes.csv").write_text("a,1990Q1,1999Q4\nb,2001Q1,2009Q4\n")
    return data


def simulate(data, entries: dict[str, str]) -> tuple[int, str]:
    scenario = data / "scenario.cfg"
    scenario.write_text(kv_text(entries))
    out = data.parent / "out"
    shutil.rmtree(out, ignore_errors=True)
    return run(["simulate", "--scenario", scenario, "--out", out])


@pytest.mark.parametrize("case", CASES, ids=[f"case{i}" for i in range(len(CASES))])
def test_simulate_on_every_triple_of_valid_scenario_values(data, case):
    rc, err = simulate(data, case)
    assert rc in (0, 1, 2), err
    if rc == 1:
        assert err.startswith("property violation:"), err


@pytest.mark.parametrize(("key", "value"), WRONG, ids=[f"{key}={value!r}" for key, value in WRONG])
def test_simulate_on_each_wrong_scenario_value_alone(data, key, value):
    entries = parse_kv_text((bundled_data_dir() / "scenario_default.cfg").read_text())
    entries[key] = value
    rc, err = simulate(data, entries)
    assert rc == 2, err
    assert err.startswith("error: "), err


def run_config(data, entries: dict[str, str], command: list[str]) -> tuple[int, str]:
    config = data / "run.cfg"
    config.write_text(kv_text(entries))
    out = data.parent / "out"
    shutil.rmtree(out, ignore_errors=True)
    return run([*command, "--config", config, "--out", out])


@pytest.mark.parametrize("case", CONFIG_CASES, ids=[f"case{i}" for i in range(len(CONFIG_CASES))])
@pytest.mark.parametrize("command", CONFIG_COMMANDS, ids=" ".join)
def test_commands_on_every_pair_of_valid_config_values(data, case, command):
    rc, err = run_config(data, case, command)
    assert rc in (0, 2), err
    if rc == 2:
        assert err.startswith("error: "), err


@pytest.mark.parametrize(("key", "value"), CONFIG_WRONG, ids=[f"{key}={value!r}" for key, value in CONFIG_WRONG])
def test_the_command_that_reads_each_wrong_config_value_alone_exits_2(data, key, value):
    # simulate alone reads the simulate section; report --recompute runs every other step
    entries = parse_kv_text((bundled_data_dir() / "default.cfg").read_text())
    entries[key] = value
    rc, err = run_config(data, entries, ["simulate"] if key.startswith("simulate.") else ["report", "--recompute"])
    assert rc == 2, err
    assert err.startswith("error: "), err


@pytest.mark.parametrize(("key", "value"), CONFIG_VALID, ids=[f"{key}={value!r}" for key, value in CONFIG_VALID])
def test_the_command_that_reads_each_valid_config_value_alone_exits_0(data, key, value):
    entries = {**DEFAULT_CONFIG, key: value}
    rc, err = run_config(data, entries, ["simulate"] if key.startswith("simulate.") else ["report", "--recompute"])
    assert rc == 0, err
