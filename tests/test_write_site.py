"""ugap writes files in one place: `Run.write` in ugap.cli.

Every module of the package is parsed, and each call that can write to
the file system, a write-mode `open`, an `os.open` whose flags may
write, `os.write`, `ftruncate`, `truncate`, `write_text`, `write_bytes`,
`mkdir` or `makedirs`, is listed with the function it sits in. Only
`Run.write` may hold one, as config.read_text is the one place ugap
reads a file.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "ugap"
WRITES = {"write_text", "write_bytes", "mkdir", "makedirs", "ftruncate", "truncate"}
# the os.open flags that let the descriptor change the file
WRITE_FLAGS = {"O_WRONLY", "O_RDWR", "O_CREAT", "O_TRUNC", "O_APPEND"}


def is_os_call(call: ast.Call, name: str) -> bool:
    """Whether call is os.<name>(...)."""
    func = call.func
    return isinstance(func, ast.Attribute) and func.attr == name and getattr(func.value, "id", None) == "os"


def os_open_writes(call: ast.Call) -> bool | None:
    """For an os.open call: True when its flags name a write flag, False when they name only other O_ flags, else None."""
    flags = [*call.args[1:2], *(k.value for k in call.keywords if k.arg == "flags")]
    names = {getattr(n, "attr", None) or getattr(n, "id", None) for f in flags for n in ast.walk(f)}
    named = {n for n in names if n and n.startswith("O_")}
    return bool(named & WRITE_FLAGS) if named else None


def opens_for_writing(call: ast.Call, name: str, method: bool) -> bool:
    """Whether call is an open that may write.

    An os.open may write unless its flags name only O_ flags that do not
    write; any other open, when its mode is given and is not a constant of
    r, b and t only.
    """
    if name != "open":
        return False
    if is_os_call(call, "open"):
        return os_open_writes(call) is not False
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
                if name in WRITES or is_os_call(child, "write") or opens_for_writing(child, name, method):
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
        (
            "def f(p):\n    fd = os.open(p, os.O_WRONLY | os.O_CREAT, 0o666)\n    os.write(fd, b'')\n    os.ftruncate(fd, 0)",
            [("f", "open"), ("f", "write"), ("f", "ftruncate")],
        ),
        (
            "os.open(p, os.O_RDWR)\nos.open(p, O_APPEND)\nos.open(p, flags=os.O_TRUNC)\nos.open(p, flags)",
            [("", "open")] * 4,
        ),
        ("f.truncate(0)\nos.truncate(p, 0)", [("", "truncate"), ("", "truncate")]),
        ("os.open(p, os.O_RDONLY)\nos.open(p, flags=os.O_RDONLY | os.O_CLOEXEC)\nos.read(fd, 1)\nf.write('')", []),
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
    assert sites == [
        ("cli", "Run.write", "mkdir"),
        ("cli", "Run.write", "open"),
        ("cli", "Run.write", "write"),
        ("cli", "Run.write", "ftruncate"),
    ]
