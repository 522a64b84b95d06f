"""``src/promptopt`` writes a record's constructor once, in ``model.Checked``.

A record that checks its fields inherits from ``Checked`` and defines only
``_check``; its fields and defaults are declared once, by its ``NamedTuple``.
A hand-written ``__new__`` or ``_make`` repeats that field list, so the walk
fails on any class but ``Checked`` that defines either.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).parents[1] / "src" / "promptopt"

CONSTRUCTORS = ("__new__", "_make")
BASE = "model.Checked"


def defined_constructors() -> list[str]:
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and item.name in CONSTRUCTORS:
                        found.append(f"{path.stem}.{node.name}.{item.name}")
    return found


def test_only_the_base_defines_a_constructor() -> None:
    found = defined_constructors()
    extra = [name for name in found if not name.startswith(f"{BASE}.")]
    assert not extra, f"inherit from {BASE} and define _check instead: {', '.join(extra)}"
    # The walk still sees the base's own two.
    assert sorted(found) == [f"{BASE}.__new__", f"{BASE}._make"]
