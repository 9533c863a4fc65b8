"""The README's library example runs as written."""

from __future__ import annotations

import json
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                        re.MULTILINE | re.DOTALL)
    assert len(blocks) == 2
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    printed = json.loads(capsys.readouterr().out)
    assert printed["c"] == 3.0 and printed["advisory"] is False
