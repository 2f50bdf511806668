"""The ``wlat`` command: ``python -m wlat`` and the console script both run :func:`main`."""

import os
import sys


def main() -> None:
    """Run the CLI with BLAS on one thread unless ``OPENBLAS_NUM_THREADS`` or
    ``OMP_NUM_THREADS`` is set: BLAS sums in a thread-dependent order, so a run
    replays bit for bit only at a fixed thread count.  The default must be set
    before numpy loads, which importing :mod:`wlat.cli` does."""
    if "OPENBLAS_NUM_THREADS" not in os.environ and "OMP_NUM_THREADS" not in os.environ:
        os.environ["OPENBLAS_NUM_THREADS"] = os.environ["OMP_NUM_THREADS"] = "1"
    from .cli import run

    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
