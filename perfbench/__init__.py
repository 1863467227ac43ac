"""Benchmark harness for scgm; see run.py.

Importing the package pins OpenBLAS to one thread, before numpy loads.
With one BLAS thread per core, any other runnable process stalls every
BLAS barrier: on a 2-core machine an order-2655 ``lstsq`` took 26 s
beside one busy process instead of 3.7 s, while a single thread leaves a
core free and runs the small KKT solves of fit-sparse and search-planted
faster (a 1.5x shorter search).
"""

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"
