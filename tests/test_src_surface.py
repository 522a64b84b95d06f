"""Every definition in ``src/promptopt`` is named by the code that runs.

The walk collects each module's top-level functions and classes, and the
public methods of those classes, and fails on any that nothing names outside
its own body. A name counts where it appears in ``src/promptopt`` or in
``perfbench/*.py``: as a name, an attribute, a ``from ... import`` alias, or a
string constant that is an identifier (``perfbench/tracing.py`` patches
functions by name). The re-exports of ``__init__.py`` do not count, so a
helper that only the tests call fails here and belongs in ``tests/``.
"""

from __future__ import annotations

import ast
from pathlib import Path

REPO = Path(__file__).parents[1]
SRC = REPO / "src" / "promptopt"

# Reference implementations kept beside the fast code that tests compare
# against them; each is named here with the reason it stays.
ALLOWED = {
    "gateway.transcript_line": "the one-line reference that tests pin Transcript.save's output to",
}


def _definitions(module: str, tree: ast.Module):
    """(qualified name, bare name, first line, last line) of each checked definition."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        yield f"{module}.{node.name}", node.name, node.lineno, node.end_lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not item.name.startswith("_"):
                    yield f"{module}.{node.name}.{item.name}", item.name, item.lineno, item.end_lineno


def _references(tree: ast.Module):
    """(name, line) of every name, attribute, import alias and identifier string."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.name, node.lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
            yield node.value, node.lineno


def unnamed_definitions() -> list[str]:
    sources = sorted(SRC.glob("*.py")) + sorted((REPO / "perfbench").glob("*.py"))
    trees = {path: ast.parse(path.read_text(encoding="utf-8"), str(path)) for path in sources}
    refs: dict[str, list[tuple[Path, int]]] = {}
    for path, tree in trees.items():
        if path.name == "__init__.py":
            continue
        for name, line in _references(tree):
            refs.setdefault(name, []).append((path, line))
    unnamed = []
    for path, tree in trees.items():
        if path.parent != SRC:
            continue
        for qualname, name, first, last in _definitions(path.stem, tree):
            outside = [ref for ref in refs.get(name, ()) if ref[0] != path or not first <= ref[1] <= last]
            if not outside:
                unnamed.append(qualname)
    return unnamed


def test_every_src_definition_is_named_by_run_code() -> None:
    unnamed = unnamed_definitions()
    extra = sorted(set(unnamed) - set(ALLOWED))
    assert not extra, f"named by nothing outside its own body: {', '.join(extra)}"
    # An entry that is named again, or was deleted, leaves the allow-list.
    assert sorted(set(ALLOWED) - set(unnamed)) == []
