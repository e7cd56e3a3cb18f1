"""Entry point: ``python -m benchmarks.e2e`` or ``python3 benchmarks/e2e``.

Pins the BLAS thread pools to one thread before NumPy is imported, puts
the repository's ``src`` on the import path, and fails fast when the
library source is missing.
"""

import os
import sys
from pathlib import Path

for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_variable] = "1"

_ROOT = Path(__file__).resolve().parents[2]
if not __package__:
    # Run as a directory: sys.path[0] is this directory, whose module
    # names must not shadow anything; import the package from the root.
    sys.path[0] = str(_ROOT)
if not (_ROOT / "src" / "repro").is_dir():
    sys.exit(f"error: no library source at {_ROOT / 'src' / 'repro'}")
sys.path.insert(1, str(_ROOT / "src"))

from benchmarks.e2e.cli import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
