"""ugap names the faulty row of an input in one place: `FirstFault`.

A reader's column checks hand `FirstFault.check`, `FirstFault.at` and
`config.parse_floats` a message function that says only what is wrong
with row i, and `FirstFault.at` builds the InputError, prefixed with the
name its `where` gives the row. Every module of the package is parsed to
keep it that way: no message function builds an InputError, and the one
f-string that names a table row by its line is `parse_table`'s `where`.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "ugap"


def messages(source: str) -> list[ast.AST]:
    """The message argument of each `.check`, `.at` or `parse_floats` call: a lambda, or the def its name calls."""
    tree = ast.parse(source)
    defs = {node.name: node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    found = []
    for call in (node for node in ast.walk(tree) if isinstance(node, ast.Call) and node.args):
        func = call.func
        if isinstance(func, ast.Attribute) and func.attr in ("check", "at") or getattr(func, "id", None) == "parse_floats":
            message = call.args[-1]
            found.append(defs.get(message.id, message) if isinstance(message, ast.Name) else message)
    return found


def builds_input_error(node: ast.AST) -> bool:
    return any(isinstance(n, ast.Call) and getattr(n.func, "id", None) == "InputError" for n in ast.walk(node))


def line_prefixes(source: str) -> list[str]:
    """The enclosing function of each f-string in source with a " line {...}" in it."""
    found = []

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}".lstrip("."))
                continue
            if isinstance(child, ast.JoinedStr):
                parts = child.values
                if any(
                    isinstance(a, ast.Constant) and a.value.endswith(" line ") and isinstance(b, ast.FormattedValue)
                    for a, b in zip(parts, parts[1:])
                ):
                    found.append(scope)
            visit(child, scope)

    visit(ast.parse(source), "")
    return found


@pytest.mark.parametrize(
    "source,built",
    [
        ("faults.check(bad, lambda i: f'bad {i}')", [False]),
        ("faults.check(bad, lambda i: InputError(f'line {i}: bad'))", [True]),
        ("faults.at(0, lambda i: InputError('x'))\nparse_floats(t, faults, lambda i: 'y')", [True, False]),
        ("def bad(i):\n    return InputError('x')\n\nparse_floats(t, faults, bad)", [True]),
        ("def bad(i):\n    return 'x'\n\nfaults.check(b, bad)\nprint(bad)", [False]),
    ],
)
def test_messages_finds_each_message_function(source, built):
    assert list(map(builds_input_error, messages(source))) == built


def test_line_prefixes_finds_a_line_number_in_an_f_string():
    source = "def f(what, n):\n    g(f'{what} line {n}: x', f'line {n}', f'{what} line 7')\n    return f'{what} line {n}'"
    assert line_prefixes(source) == ["f", "f"]


def test_no_message_function_builds_an_input_error():
    found = [(path.stem, m) for path in sorted(PACKAGE.glob("*.py")) for m in messages(path.read_text(encoding="utf-8"))]
    assert len(found) >= 20
    assert [(stem, m.lineno) for stem, m in found if builds_input_error(m)] == []


def test_parse_table_is_the_one_place_a_table_row_is_named_by_its_line():
    found = [
        (path.stem, scope) for path in sorted(PACKAGE.glob("*.py")) for scope in line_prefixes(path.read_text(encoding="utf-8"))
    ]
    # a `key = value` file is read a line at a time and stops at its first
    # bad line, so parse_kv_text, which reads no table, names that line itself
    assert found == [("config", "parse_kv_text"), ("config", "parse_table")]
