"""The README's code examples run as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_quick_tour_runs():
    text = README.read_text(encoding="utf-8")
    block = re.search(r"^## Library quick tour\n\n```python\n(.*?)^```$", text, re.S | re.M)
    assert block is not None, "README has no Library quick tour code block"
    exec(compile(block.group(1), "README.md", "exec"), {})
