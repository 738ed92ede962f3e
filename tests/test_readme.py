"""The README's Python examples run as written and print estimates of pi."""

import math
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def test_every_python_block_prints_estimates_of_pi():
    # The blocks run in order in one fresh interpreter, as in one session, so
    # an import that works only because another test imported a module first
    # fails here; every line they print starts with a pi estimate.
    blocks = [part.split("```", 1)[0] for part in README.read_text(encoding="utf-8").split("```python\n")[1:]]
    assert len(blocks) >= 2
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", "".join(blocks)],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert len(lines) >= len(blocks), done.stdout
    for line in lines:
        assert abs(float(line.split()[0]) - math.pi) < 0.05, line
