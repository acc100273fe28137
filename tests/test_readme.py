"""The README's examples run as written, on the bundled example.

The Python example runs in this process. The command-line examples run
through `readme_examples.sh`, the script CI runs against the installed
console script; here an `rdfpg` on PATH runs `python -m rdfpg.cli` from the
checkout.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import DATA_DIR

README = Path(__file__).parent.parent / "README.md"
SRC = Path(__file__).parent.parent / "src"
EXAMPLES = Path(__file__).parent / "readme_examples.sh"


def test_readme_library_example_runs():
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert "assert" in block
    exec(block, {
        "schema_text": (DATA_DIR / "org-schema.ttl").read_text(),
        "instance_text": (DATA_DIR / "org-instance.ttl").read_text(),
    })


@pytest.mark.skipif(shutil.which("bash") is None or shutil.which("taskset") is None,
                    reason="the script runs under bash and pins one check to a CPU with taskset")
def test_readme_command_examples_run(tmp_path):
    shims = tmp_path / "bin"
    shims.mkdir()
    for name, command in (("rdfpg", "-m rdfpg.cli"), ("python", "")):
        shim = shims / name
        shim.write_text(f'#!/bin/sh\nexec "{sys.executable}" {command} "$@"\n')
        shim.chmod(0o755)
    env = dict(os.environ)
    env["PATH"] = os.pathsep.join((str(shims), env.get("PATH", "")))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    work = tmp_path / "work"
    work.mkdir()
    run = subprocess.run(["bash", str(EXAMPLES)], cwd=work, env=env,
                         stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    assert run.returncode == 0, run.stdout
