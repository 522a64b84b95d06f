"""``src/promptopt`` declares a ``@dataclass`` only where a named tuple will not do.

A dataclass generates and compiles its methods each time its module is
imported, so every process start pays for each one. An immutable record is a
``typing.NamedTuple`` instead. The walk fails on any ``@dataclass`` that the
list below does not name with its reason: code walks its fields, it is
mutable state, or the per-request path reads its fields, where an attribute
read on a dataclass is cheaper than on a named tuple.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).parents[1] / "src" / "promptopt"

FIELDS_WALKED = "code walks its fields (dataclasses.fields, asdict or replace)"
MUTABLE = "mutable state"
PER_REQUEST = "the scorer and the scripted responder read its fields on every request"

ALLOWED = {
    "model.RunConfig": FIELDS_WALKED,
    "model.BanditConfig": FIELDS_WALKED,
    "data.DatasetSpec": FIELDS_WALKED,
    "gateway.LiveConfig": FIELDS_WALKED,
    "bandit.ArmState": MUTABLE,
    "model.GradientHistory": MUTABLE,
    "gateway.Transcript": MUTABLE,
    "data.Example": PER_REQUEST,
}


def _is_dataclass_decorator(node: ast.expr) -> bool:
    target = node.func if isinstance(node, ast.Call) else node
    if isinstance(target, ast.Attribute):
        return target.attr == "dataclass"
    return isinstance(target, ast.Name) and target.id == "dataclass"


def declared_dataclasses() -> list[str]:
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and any(map(_is_dataclass_decorator, node.decorator_list)):
                found.append(f"{path.stem}.{node.name}")
    return found


def test_every_dataclass_is_allowed_with_its_reason() -> None:
    found = declared_dataclasses()
    extra = sorted(set(found) - set(ALLOWED))
    assert not extra, f"declare as a typing.NamedTuple, or allow with a reason: {', '.join(extra)}"
    # An entry whose class is no longer a dataclass leaves the list.
    assert sorted(set(ALLOWED) - set(found)) == []
