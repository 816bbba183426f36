"""Campaign benchmark for quantforecast: end-to-end training and forecast
metrics, per-module layer traces and correctness checks. Run it with
``python3 perfbench/run.py --workload <name>``; see README.md.

Importing the package pins BLAS to one thread, as tests/conftest.py does;
the entry points import it before numpy loads.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
