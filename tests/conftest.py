"""Fixtures shared by several test modules, and one BLAS thread for the whole suite.

BLAS sums in an order that depends on its thread count, so the pin below keeps
the suite's figures the same whatever the machine's core count.  It must take
effect before numpy loads, hence before any other import here.
"""

import os
import sys

if "numpy" in sys.modules:
    raise RuntimeError("numpy was imported before tests/conftest.py could pin BLAS to one thread")
if "OPENBLAS_NUM_THREADS" not in os.environ and "OMP_NUM_THREADS" not in os.environ:
    os.environ["OPENBLAS_NUM_THREADS"] = os.environ["OMP_NUM_THREADS"] = "1"

import pytest

from wlat import train as train_module
from wlat.nn import TRAIN


@pytest.fixture
def record_batches(monkeypatch):
    """Start logging each training batch ``fit`` draws, as indices into ``samples``."""

    def start(samples):
        index = {s.features.tobytes(): i for i, s in enumerate(samples)}
        batches = []
        real = train_module.forward_cached

        def recording(model, features, mode, *args, **kwargs):
            if mode == TRAIN:
                batches.append([index[clip.tobytes()] for clip in features])
            return real(model, features, mode, *args, **kwargs)

        monkeypatch.setattr(train_module, "forward_cached", recording)
        return batches

    return start


def pytest_collection_modifyitems(items):
    """Run the tests that wait for criterion 6's fits last: the fits start in worker
    processes as the session enters ``test_acceptance.py`` and overlap every other test."""
    items.sort(key=lambda item: "learning_results" in getattr(item, "fixturenames", ()))
