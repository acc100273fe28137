"""The Python example in README.md runs as written, on the bundled example."""

from __future__ import annotations

import re
from pathlib import Path

from conftest import DATA_DIR

README = Path(__file__).parent.parent / "README.md"


def test_readme_library_example_runs():
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert "assert" in block
    exec(block, {
        "schema_text": (DATA_DIR / "org-schema.ttl").read_text(),
        "instance_text": (DATA_DIR / "org-instance.ttl").read_text(),
    })
