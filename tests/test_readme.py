"""The README's Python examples run as written and print estimates of pi."""

import contextlib
import io
import math
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_python_block_prints_estimates_of_pi():
    # The blocks run in order in one namespace, as in one session; every line
    # a block prints starts with a pi estimate.
    blocks = [part.split("```", 1)[0] for part in README.read_text(encoding="utf-8").split("```python\n")[1:]]
    assert len(blocks) >= 2
    namespace = {}
    for block in blocks:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            exec(compile(block, str(README), "exec"), namespace)
        lines = out.getvalue().splitlines()
        assert lines, f"the block prints nothing:\n{block}"
        for line in lines:
            assert abs(float(line.split()[0]) - math.pi) < 0.05, line
