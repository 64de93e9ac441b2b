"""Pin BLAS to one thread for the whole test run.

numpy's OpenBLAS pool otherwise runs one thread per core, even on matrices
this small. Beside any other busy process that oversubscribes the cores:
100 desk-scale distillation iterations took 31 s unpinned against 8.6 s
pinned on a 2-vCPU machine, enough to push the acceptance rebuild past its
time budgets. The pin must be set before numpy is first imported, which
this file runs ahead of. The results are bit-identical either way.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
