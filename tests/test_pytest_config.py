"""The repository's pytest configuration reports every test's outcome."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

PROBE = '''
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(derandomize=True, database=None)
@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
'''


def test_a_failing_hypothesis_test_is_reported_and_the_session_goes_on(tmp_path):
    # Every warning is an error, but reporting a hypothesis failure imports
    # libcst, which warns; the session must still report both outcomes.
    probe = tmp_path / "test_probe.py"
    probe.write_text(PROBE, encoding="utf-8")
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"), "-q",
         "-p", "no:cacheprovider", str(probe)],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    output = result.stdout + result.stderr
    assert result.returncode == 1, output
    assert "1 failed, 1 passed" in result.stdout, output
    assert "INTERNALERROR" not in output
