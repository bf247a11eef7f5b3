"""Run configuration, and the two text grammars of ugap's inputs.

`key = value` files with section headers (the run config, the
calibration profile and the scenario) are read through KeyValues. Every
comma-separated table (the three monthly series, the regimes,
recessions, kappa file and shocks) is read through parse_table, whose
docstring states the grammar. Every config key can be overridden by a
CLI flag; flags win. Relative paths in a config file resolve against
the file's own directory, which is what lets the bundled default config
point at the bundled data.
"""

from __future__ import annotations

import math
import os
import sys
from array import array
from dataclasses import dataclass, fields, replace
from importlib import resources
from itertools import repeat
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

from .errors import FirstFault, InputError, quoted
from .quarters import parse_quarter

if TYPE_CHECKING:
    import numpy as np


def read_text(path) -> str:
    """The text of a UTF-8 file less any byte-order mark, the one way ugap reads a file; InputError if not UTF-8."""
    try:
        return Path(path).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise InputError(f"{path} is not UTF-8 text: {exc}") from None


def parse_kv_text(text: str) -> dict[str, str]:
    """Parse `key = value` lines into a flat dict keyed `section.key`."""
    values: dict[str, str] = {}
    section = ""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            continue
        if "=" not in line:
            raise InputError(f"config line {lineno}: expected 'key = value', got {quoted(raw)}")
        key, value = line.split("=", 1)
        full = f"{section}.{key.strip()}" if section else key.strip()
        values[full] = value.strip()
    return values


def parse_table(text: str, columns: Sequence[str], what: str, faults: FirstFault) -> tuple[array, list[list[str]]]:
    """The line numbers and the columns of the data rows of a small comma-separated table.

    This is the grammar of every CSV file ugap reads: blank lines and
    lines starting with `#` are skipped; the first remaining line is the
    header, and skipped, when its first field, stripped and in any case,
    is columns[0]; every other line has exactly len(columns) fields,
    comma-separated, each stripped of blanks; nothing is quoted. For the
    first row that does not, an InputError naming its line goes to
    faults, and the columns stop before the row. It loads no numpy, so a
    command that reads only tables starts without it.
    """
    lines = ["", *map(str.strip, text.splitlines())]  # a blank line 0, so each index is a line number
    kept = [i for i, line in enumerate(lines) if line and line[0] != "#"]
    if kept and lines[kept[0]].partition(",")[0].rstrip().lower() == columns[0]:
        del kept[0]
    rows = list(map(lines.__getitem__, kept))
    linenos = array("q", kept)  # 8 bytes a line, as a numpy column would take
    commas = list(map(str.count, rows, repeat(",")))
    if commas.count(len(columns) - 1) < len(rows):
        first = next(i for i, n in enumerate(commas) if n != len(columns) - 1)
        faults.at(first, lambda i: InputError(f"{what} line {linenos[i]}: expected '{','.join(columns)}'"))
    linenos = linenos[: faults.rows]
    # every row left has exactly len(columns) fields, so one split cuts them
    # all; the line strings go first, so that they and the fields never coexist
    joined = ",".join(rows[: faults.rows])
    del lines, rows
    fields = list(map(str.strip, joined.split(","))) if len(linenos) else []
    return linenos, [fields[j :: len(columns)] for j in range(len(columns))]


def parse_floats(texts: Sequence[str], faults: FirstFault, error) -> np.ndarray:
    """float() of each text, in one pass; at the first that is not a number, error(i) goes to faults.

    The values stop before that text.
    """
    import numpy as np

    values: list[float] = []
    try:
        values.extend(map(float, texts))  # a failing extend keeps what it appended
    except ValueError:
        faults.at(len(values), error)
    return np.array(values, dtype=np.float64)


def _parse_bool(text: str) -> bool:
    t = text.strip().lower()
    if t in ("true", "yes", "1", "on"):
        return True
    if t in ("false", "no", "0", "off"):
        return False
    raise InputError(f"expected a boolean, got {quoted(text)}")


def parse_zeta_list(text: str) -> tuple[float, ...]:
    try:
        values = tuple(float(tok) for tok in text.replace(",", " ").split())
    except ValueError:
        raise InputError(f"bad zeta list {quoted(text)}") from None
    if not values:
        raise InputError("zeta list is empty")
    for z in values:
        if not -math.inf < z < 1.0:
            raise InputError(f"zeta values must be finite and below 1, got {z}")
    return values


@dataclass(frozen=True)
class RunConfig:
    u_series: Path
    v_pre: Path
    v_post: Path
    cutover: int
    unit: str
    regimes: Path
    recessions: Path | None
    calibration: Path
    kappa: float | None
    kappa_file: Path | None
    zeta: float | None
    zeta_list: tuple[float, ...]
    tolerance: float
    exclude_gap_quarters: bool
    implied_zeta: bool
    scenario: Path | None
    seed: int | None
    noise_scale: float | None
    out_dir: Path


def bundled_data_dir() -> Path:
    return Path(str(resources.files("ugap").joinpath("data")))


def default_config_path() -> Path:
    return bundled_data_dir() / "default.cfg"


class KeyValues:
    """The `key = value` file at path, looked up by `section.key` with the type the caller needs.

    A key with no value and no default is None, or an InputError naming
    it when required. Relative paths resolve against the file's own
    directory.
    """

    def __init__(self, path: Path, what: str):
        self.values = parse_kv_text(read_text(path))
        self.base = Path(path).parent
        self.what = what

    def text(self, key: str, default: str | None = None, required: bool = False) -> str | None:
        value = self.values.get(key, default)
        if value is None and required:
            raise InputError(f"{self.what} is missing required key {key!r}")
        return value

    def number(self, key: str, kind=float, default: str | None = None, required: bool = False):
        raw = self.text(key, default, required)
        try:
            return None if raw is None else kind(raw)
        except ValueError:
            raise InputError(f"{self.what} key {key!r} is not a number: {quoted(raw)}") from None

    def path(self, key: str, required: bool = False) -> Path | None:
        raw = self.text(key, required=required)
        if not raw:
            if required:
                raise InputError(f"{self.what} key {key!r} is empty, not a path")
            return None
        return self.base / raw  # an absolute raw stays as it is


def load_config(path: Path | None, overrides: dict | None = None) -> RunConfig:
    """Build a RunConfig from a file (bundled default when None) plus overrides.

    Overrides use RunConfig field names and already-typed values; None
    entries are ignored so absent CLI flags fall through to the file.
    """
    kv = KeyValues(path if path is not None else default_config_path(), "config")
    unit = kv.text("data.unit", "fraction")
    if unit not in ("fraction", "percent"):
        raise InputError(f"data.unit must be fraction or percent, got {quoted(unit)}")

    cfg = RunConfig(
        u_series=kv.path("data.u_series", required=True),
        v_pre=kv.path("data.v_pre", required=True),
        v_post=kv.path("data.v_post", required=True),
        cutover=parse_quarter(kv.text("data.cutover", required=True)),
        unit=unit,
        regimes=kv.path("data.regimes", required=True),
        recessions=kv.path("data.recessions"),
        calibration=kv.path("calibration.profile", required=True),
        kappa=kv.number("gap.kappa"),
        kappa_file=kv.path("gap.kappa_file"),
        zeta=kv.number("gap.zeta"),
        zeta_list=parse_zeta_list(kv.text("sensitivity.zeta_list", "0 0.25 0.5 0.96")),
        tolerance=kv.number("gap.tolerance", default="0.01"),
        exclude_gap_quarters=_parse_bool(kv.text("gap.exclude_gap_quarters", "false")),
        implied_zeta=_parse_bool(kv.text("sensitivity.implied_zeta", "false")),
        scenario=kv.path("simulate.scenario"),
        seed=kv.number("simulate.seed", int),
        noise_scale=kv.number("simulate.noise_scale"),
        out_dir=kv.path("output.out_dir") or Path("out"),
    )

    if overrides:
        applied = {k: v for k, v in overrides.items() if v is not None}
        if applied:
            cfg = replace(cfg, **applied)
    if not cfg.tolerance >= 0.0:
        raise InputError(f"gap tolerance must be non-negative, got {cfg.tolerance}")
    for f in fields(cfg):
        if isinstance(getattr(cfg, f.name), Path):
            check_path(getattr(cfg, f.name), f.name)
    return cfg


def check_path(path: Path, what: str) -> Path:
    """path, unless it holds a NUL or a character the file system encoding cannot encode: then InputError."""
    if "\x00" in str(path):
        raise InputError(f"{what} is not a file name: {str(path)!r}")
    try:
        os.fsencode(path)
    except UnicodeEncodeError:
        raise InputError(f"{what}: the file system encoding {sys.getfilesystemencoding()} cannot name {str(path)!r}") from None
    return path
