"""Process set-up shared by the benchmark's entry points.

Importing this module pins every BLAS/OpenMP pool to one thread (before numpy
loads) and puts the checkout's ``src/`` first on ``sys.path``, so the package
under test is always the one in this checkout, never an installed copy.
"""
import os
import sys
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if not (SRC / "blprs" / "__init__.py").is_file():
    sys.exit(f"benchmark: no blprs package under {SRC}; run from a full checkout")
sys.path.insert(0, str(SRC))
