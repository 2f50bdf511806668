"""Fixtures shared by several test modules."""

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
