"""parhodge: alcove arithmetic, relative degrees, stability verdicts and the
Higgs bundle / local system dictionary for parabolic G-Higgs bundles."""

import os

__version__ = "0.1.0"

# the thread-count variables of the BLAS builds numpy may load
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")


def one_blas_thread() -> None:
    """Give BLAS one thread unless the caller chose a count.

    The kernels work on matrices of a few dozen rows, where a thread pool
    costs more than it saves; BLAS reads these variables once, when numpy is
    imported, so this must run before that import.
    """
    for var in BLAS_THREAD_VARS:
        os.environ.setdefault(var, "1")


def main() -> int:
    """The ``parhodge`` console entry: one BLAS thread, then the CLI."""
    one_blas_thread()
    from .cli import main as cli_main

    return cli_main()
