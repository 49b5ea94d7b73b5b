"""Pin BLAS to one thread before any test module imports numpy.

At the test suite's toy sizes one thread is as fast as the default of one
per core, and it does not collapse when other processes hold the cores.
A value already set in the environment wins.
"""

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
