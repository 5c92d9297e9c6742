"""Pin BLAS to one thread before numpy loads, so timing criteria measure
single-threaded runs as the harness assumes. An explicit setting in the
environment wins."""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ.setdefault(_var, "1")
