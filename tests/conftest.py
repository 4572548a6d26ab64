"""Pin BLAS to one thread before numpy loads: threaded BLAS slows the
dense eigvalsh calls of the tests sharply when another process holds a
core. A value already set in the environment wins."""

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
