import ast
import builtins
import re
from pathlib import Path

import reconstruction

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "ugap"
TOOLS = ROOT / "tools"

# Public names that stay without a caller in src/ugap: the calibration and
# fitting helpers are the evidence behind acceptance criteria, and the
# oracle grid check is run by the benchmark and the tests.
NO_CALLER_NEEDED = {
    "study_bounds",
    "zeta_from_midrange",
    "exact_benefit_offset",
    "dmp_elasticity",
    "oracle_grid_check",
}


def test_every_public_name_is_used_in_the_package():
    """Every public function, class and method has a code reference inside src/ugap.

    A reference is a name or an attribute in the syntax tree, so a mention
    in a docstring or a comment does not count, and an import is not a use.
    The scan matches names only: a function is taken as used when anything
    of the same name is, such as a field or a method of another class
    (RunConfig.implied_zeta would have hidden a gap.implied_zeta).
    """
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}
    defined = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((module, node.name, node.name))
            if isinstance(node, ast.ClassDef):
                methods = (item.name for item in node.body if isinstance(item, ast.FunctionDef))
                defined += [(module, f"{node.name}.{name}", name) for name in methods]
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    unused = [
        f"{module}: {qualname}"
        for module, qualname, name in defined
        if not name.startswith("_") and name not in used and name not in NO_CALLER_NEEDED
    ]
    assert unused == []


def reads_a_file(call: ast.Call) -> bool:
    """Whether call opens a file in a mode that is not w, a or x, or is a .read_text() or .read_bytes() method."""
    func = call.func
    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
    if name in ("read_text", "read_bytes"):
        # a bare read_text(...) or config.read_text(...) calls the UTF-8 gate
        return isinstance(func, ast.Attribute) and not (isinstance(func.value, ast.Name) and func.value.id == "config")
    if name != "open":
        return False
    args = [*call.args, *(k.value for k in call.keywords if k.arg == "mode")]
    modes = [a.value for a in args if isinstance(a, ast.Constant) and re.fullmatch(r"[rwaxbt+]+", str(a.value))]
    return not any(set(mode) & set("wax") for mode in modes)


def test_every_file_is_read_through_config_read_text():
    """Only config.read_text reads a file, so every input gets the one UTF-8 check and its exit 2."""
    reads = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        gate = {
            id(node)
            for fn in tree.body
            if path.name == "config.py" and isinstance(fn, ast.FunctionDef) and fn.name == "read_text"
            for node in ast.walk(fn)
        }
        reads += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Call) and id(node) not in gate and reads_a_file(node)
        ]
    assert reads == []


def test_only_key_values_parses_key_value_text():
    """Only config.KeyValues calls parse_kv_text, so the config, the scenario and the profile share one dialect."""
    calls = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        owner = {
            id(node)
            for cls in tree.body
            if path.name == "config.py" and isinstance(cls, ast.ClassDef) and cls.name == "KeyValues"
            for node in ast.walk(cls)
        }
        calls += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and id(node) not in owner
            and "parse_kv_text" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
        ]
    assert calls == []


def test_one_exception_class_per_exit_code():
    """InputError (exit 2) and PropertyViolation (exit 1) are the only exception classes under src/ugap.

    A class is an exception when one of its bases names a built-in
    exception or an exception class of the package, at any depth.
    """
    classes = [
        (path.name, node)
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ClassDef)
    ]
    known = {name for name, obj in vars(builtins).items() if isinstance(obj, type) and issubclass(obj, BaseException)}
    found = set()
    while True:
        new = {
            (module, node.name)
            for module, node in classes
            if {getattr(base, "id", None) or getattr(base, "attr", None) for base in node.bases} & known
        } - found
        if not new:
            break
        found |= new
        known |= {name for _, name in new}
    assert sorted(found) == [("errors.py", "InputError"), ("errors.py", "PropertyViolation")]


def test_the_package_imports_nothing_from_tools():
    """An installed ugap has no tools/ directory, so no module under src/ugap may import one of its scripts."""
    forbidden = {"tools"} | {path.stem for path in TOOLS.glob("*.py")}
    assert "reconstruction" in forbidden
    imports = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or "", *(alias.name for alias in node.names)]
            else:
                continue
            if any(set(name.split(".")) & forbidden for name in names):
                imports.append(f"{path.name}:{node.lineno}")
    assert imports == []


def test_reconstruction_main_writes_the_five_derived_files(tmp_path, capsys):
    names = [
        "unemployment_monthly.csv",
        "vacancy_hwi_monthly.csv",
        "vacancy_jolts_monthly.csv",
        "regimes_default.csv",
        "shocks_default.csv",
    ]
    assert reconstruction.main([str(tmp_path)]) == 0
    assert sorted(path.name for path in tmp_path.iterdir()) == sorted(names)
    assert capsys.readouterr().out == "".join(f"wrote {tmp_path / name}\n" for name in names)
