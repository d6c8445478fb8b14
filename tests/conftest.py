"""Test-session setup.

pyproject's `pythonpath` puts `src` on this process's import path; tests that
run `python -m lexifuse.cli` in a subprocess need it too, so it is added to
PYTHONPATH here.  An installed package works the same way either way.
"""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)
