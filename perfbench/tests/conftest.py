import os
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
SRC = str(BENCH.parent / "src")
sys.path[:0] = [str(BENCH), SRC]
# child interpreters started by the code under test import the package too
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
