"""The test run itself, and tools/parity.py's comparison of outputs.

A failing test leaves the rest of the run to run; the parity tool's
moved cells and command list are checked without running a command.
"""

import importlib.util
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PYPROJECT = ROOT / "pyproject.toml"


def load_parity():
    spec = importlib.util.spec_from_file_location("parity", ROOT / "tools" / "parity.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


parity = load_parity()

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


def test_moved_cells_gives_the_relative_move_of_a_numeric_cell():
    old = b"row_type,key,value,passed\neigenpair,0,2.0,True\neigenpair,1,4.0,True\n"
    new = b"row_type,key,value,passed\neigenpair,0,2.0,True\neigenpair,1,5.0,True\n"
    assert list(parity.moved_cells(old, new)) == [("eigenpair,1", "value", 4.0, 5.0, 0.2)]
    assert list(parity.moved_cells(old, old)) == []


def test_moved_cells_reports_a_flag_and_a_layout_change_as_infinite():
    old = b"row_type,key,passed\nbound,kappa,True\nbound,nu,True\n"
    new = b"row_type,key,passed\nbound,kappa,False\nbound,nu,True\n"
    assert list(parity.moved_cells(old, new)) == [
        ("bound,kappa", "passed", "True", "False", math.inf)
    ]
    shorter = b"row_type,key,passed\nbound,kappa,True\n"
    assert list(parity.moved_cells(old, shorter)) == [("(rows)", "", 2, 1, math.inf)]


def test_commands_are_distinct(tmp_path):
    # kept runs are keyed by their command line: a repeated one would
    # overwrite the other's outputs
    lines = [" ".join(cmd) for cmd in parity.commands(parity.random_models(tmp_path))]
    assert len(lines) == len(set(lines))
    assert "verify --alpha 0.9 --grid-points 20 --eta 0.3" in lines
