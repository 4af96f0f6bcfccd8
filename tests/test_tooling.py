"""The test run itself: a failing test leaves the rest of the run to run."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_PROPERTY = '''
from hypothesis import given, settings, strategies as st


@settings(max_examples=5, derandomize=True, database=None)
@given(st.integers(0, 10))
def test_fails(x):
    assert x < 0


def test_runs_after_the_failure():
    pass
'''


def test_failing_property_test_leaves_the_next_test_to_run(tmp_path):
    # reporting a failing @given test imports hypothesis.extra._patching,
    # whose import chain warns of a deprecation; under the project's
    # warning filters that must not abort the run
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_property.py"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout, proc.stdout[-2000:]
