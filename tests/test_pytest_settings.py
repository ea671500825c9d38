"""The repository's pytest settings: warnings are errors, yet a failing
Hypothesis test reports as a failure and the run goes on."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

PROBES = '''
import warnings

from hypothesis import given, strategies as st


@given(st.integers())
def test_hypothesis_fails(x):
    assert x < 5


def test_passes():
    pass


def test_other_deprecation_is_an_error():
    warnings.warn("something else is deprecated", DeprecationWarning)


def test_same_message_elsewhere_is_an_error():
    warnings.warn("mypy_extensions.TypedDict is deprecated", DeprecationWarning)
'''


def test_failing_hypothesis_test_does_not_stop_the_run(tmp_path):
    (tmp_path / "test_probes.py").write_text(PROBES)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
         "--rootdir", str(tmp_path), "-p", "no:cacheprovider", "-rA",
         "test_probes.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    out = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in out, out
    assert "3 failed, 1 passed" in out, out
    for name in ("test_hypothesis_fails", "test_other_deprecation_is_an_error",
                 "test_same_message_elsewhere_is_an_error"):
        assert f"FAILED test_probes.py::{name}" in out, out
    assert "PASSED test_probes.py::test_passes" in out, out
