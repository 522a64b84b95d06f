"""README's "Library use" example runs as written."""

from __future__ import annotations

import json
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_library_use_example_runs(tmp_path, monkeypatch, capsys) -> None:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library use\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    # The example writes its artifact under runs/, relative to the repository root.
    assert '"runs/lib-demo"' in code
    out = tmp_path / "lib-demo"
    monkeypatch.chdir(ROOT)
    exec(compile(code.replace('"runs/lib-demo"', repr(str(out))), "README.md", "exec"), {})
    result = json.loads((out / "result.json").read_text(encoding="utf-8"))
    printed = capsys.readouterr().out
    assert printed == f"{result['text']} {result['test_score']}\n"
