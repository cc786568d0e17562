"""The repository's pytest configuration survives a failing property.

Every warning is an error under ``filterwarnings``.  When a Hypothesis
property fails, its pytest plugin imports ``libcst`` to write a patch, and
that import can warn (``mypy_extensions.TypedDict is deprecated``); the
warning must not end the session before the other tests run.
"""

import subprocess
import sys
from pathlib import Path

CONFIG = Path(__file__).resolve().parent.parent / "pyproject.toml"

ONE_FAILING_PROPERTY = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 10


def test_passes():
    pass
'''


def test_failing_property_leaves_the_session_running(tmp_path):
    (tmp_path / "test_two.py").write_text(ONE_FAILING_PROPERTY)
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(CONFIG),
         "-p", "no:cacheprovider", "test_two.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert "INTERNALERROR" not in result.stdout + result.stderr
    assert "1 failed, 1 passed" in result.stdout
