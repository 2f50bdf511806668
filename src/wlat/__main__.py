"""The ``wlat`` command: ``python -m wlat`` and the console script both run :func:`main`."""

import os
import sys


def default_blas_threads() -> None:
    """Run BLAS on one thread unless ``OPENBLAS_NUM_THREADS`` or ``OMP_NUM_THREADS`` is
    set: BLAS sums in a thread-dependent order, so a run replays bit for bit only at a
    fixed thread count.  It takes effect only if called before numpy loads."""
    if "OPENBLAS_NUM_THREADS" not in os.environ and "OMP_NUM_THREADS" not in os.environ:
        os.environ["OPENBLAS_NUM_THREADS"] = os.environ["OMP_NUM_THREADS"] = "1"


def main() -> None:
    default_blas_threads()
    from .cli import run  # the first import of numpy

    sys.stdout.reconfigure(encoding="utf-8", errors="surrogateescape")  # as every file wlat writes
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
