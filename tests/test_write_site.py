"""ugap writes files in one place: `Run.write` in ugap.cli.

Every module of the package is parsed, and each call that can write to
the file system, a write-mode `open`, `write_text`, `write_bytes`,
`mkdir` or `makedirs`, is listed with the function it sits in. Only
`Run.write` may hold one, as config.read_text is the one place ugap
reads a file.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "ugap"
WRITES = {"write_text", "write_bytes", "mkdir", "makedirs"}


def opens_for_writing(call: ast.Call, name: str, method: bool) -> bool:
    """Whether call is an open that may write: its mode is given and is not a constant of r, b and t only."""
    if name != "open":
        return False
    modes = call.args[0:1] if method else call.args[1:2]  # path.open(mode) or open(path, mode)
    modes += [k.value for k in call.keywords if k.arg == "mode"]
    return any(not (isinstance(m, ast.Constant) and set(str(m.value)) <= set("rbt")) for m in modes)


def write_sites(source: str) -> list[tuple[str, str]]:
    """(enclosing function or class path, called name) of each call in source that can write."""
    sites = []

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}".lstrip("."))
                continue
            if isinstance(child, ast.Call):
                func = child.func
                method = isinstance(func, ast.Attribute)
                name = func.attr if method else getattr(func, "id", None)
                if name in WRITES or opens_for_writing(child, name, method):
                    sites.append((scope, name))
            visit(child, scope)

    visit(ast.parse(source), "")
    return sites


@pytest.mark.parametrize(
    "source,found",
    [
        ("def f(p):\n    open(p, 'w')", [("f", "open")]),
        ("def f(p, m):\n    open(p, mode=m)", [("f", "open")]),
        ("class A:\n    def f(self, p):\n        p.open('a')", [("A.f", "open")]),
        ("p.write_text('x')\np.write_bytes(b'')", [("", "write_text"), ("", "write_bytes")]),
        ("def f(p):\n    os.makedirs(p)\n    p.parent.mkdir()", [("f", "makedirs"), ("f", "mkdir")]),
        ("def f(p):\n    open(p)\n    open(p, 'rb')\n    p.open()\n    p.read_text()", []),
    ],
)
def test_write_sites_finds_each_way_of_writing(source, found):
    assert write_sites(source) == found


def test_run_write_is_the_only_write_site():
    sites = [
        (path.stem, scope, name)
        for path in sorted(PACKAGE.glob("*.py"))
        for scope, name in write_sites(path.read_text(encoding="utf-8"))
    ]
    assert sites == [("cli", "Run.write", "mkdir"), ("cli", "Run.write", "write_text")]
