"""The test run's own configuration."""

import re
import subprocess
import sys
from pathlib import Path

from fedsim.experiment import _SCHEMA

PYPROJECT = Path(__file__).parent.parent / "pyproject.toml"


def test_failing_hypothesis_test_does_not_end_the_run(tmp_path):
    # hypothesis's failure report must not turn a warning into an internal
    # error under the configured ``filterwarnings``: the next test still runs
    (tmp_path / "test_pair.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\n"
        "def test_fails(x):\n"
        "    assert x < 0\n\n\n"
        "def test_passes():\n"
        "    pass\n"
    )
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_pair.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert "1 failed, 1 passed" in run.stdout, run.stdout + run.stderr


def test_readme_library_use_runs():
    # the README's Library use block runs as written
    readme = (PYPROJECT.parent / "README.md").read_text()
    start = readme.index("```python\n", readme.index("## Library use")) + len("```python\n")
    code = readme[start : readme.index("```", start)]
    # blank lines ahead of the block, so a traceback names README's own line
    exec(compile("\n" * readme.count("\n", 0, start) + code, "README.md", "exec"), {})


def test_readme_config_format_names_every_schema_key():
    # the documented config keeps to the one schema
    readme = (PYPROJECT.parent / "README.md").read_text()
    block = readme[readme.index("```jsonc", readme.index("## Config format")) :].split("```")[1]
    keys = [*_SCHEMA, *(key for entry in _SCHEMA.values() if isinstance(entry, dict) for key in entry)]
    assert [key for key in keys if not re.search(rf"\b{key}\b", block)] == []
