import os
import subprocess
import sys
import textwrap
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_a_failing_hypothesis_test_reports_its_example(tmp_path):
    # Under the suite's own settings (every warning an error), a falsified
    # @given test must print its example and let the next test run, not end
    # the session with an INTERNALERROR from hypothesis's report.
    (tmp_path / "test_falsified.py").write_text(textwrap.dedent("""
        from hypothesis import given, strategies as st


        @given(st.integers())
        def test_falsified(n):
            assert n < 10


        def test_next():
            pass
    """))
    env = {k: v for k, v in os.environ.items() if k != "PYTEST_ADDOPTS"}
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "test_falsified.py"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert "INTERNALERROR" not in done.stdout + done.stderr
    assert "Falsifying example: test_falsified(" in done.stdout
    assert "1 failed, 1 passed" in done.stdout
    assert done.returncode == 1
