"""The project's pytest settings keep a failing property test reportable under -W error."""

import re
import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0
'''


def test_failing_property_test_is_reported_under_w_error(tmp_path):
    (tmp_path / "test_failing.py").write_text(FAILING)
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "test_failing.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    output = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in output
    assert proc.returncode == 1, output


def test_no_test_carries_an_error_warnings_mark():
    # such a mark overrides pyproject's filter, so a failing @given test under
    # it ends the session with an INTERNALERROR; scope the filter to the call
    # under test with warnings.catch_warnings instead
    mark = re.compile(r"""mark\.filterwarnings\(\s*["']error""")
    tests = Path(__file__).resolve().parent
    assert [p.name for p in sorted(tests.rglob("*.py")) if mark.search(p.read_text())] == []
