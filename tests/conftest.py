"""Fixtures shared by several test modules, and the ``wlat`` command's BLAS default.

BLAS sums in an order that depends on its thread count, so the suite runs on
the thread count ``wlat`` itself defaults to, and its figures stay the same
whatever the machine's core count.  The default must take effect before numpy
loads, hence before any other import here.
"""

import io
import sys
import time

if "numpy" in sys.modules:
    raise RuntimeError("numpy was imported before tests/conftest.py could pin BLAS to one thread")
from wlat.__main__ import default_blas_threads

default_blas_threads()

import numpy as np
import pytest

from wlat import model as model_module
from wlat import train as train_module
from wlat.data import SynthConfig, generate_synthetic
from wlat.model import PRESET_ARCHS, build_model, model_grad_check, parse_arch, save_weights
from wlat.nn import TRAIN
from wlat.rng import gaussian, new_rng
from wlat.train import TrainConfig, bce_loss, fit


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


@pytest.fixture
def record_attention(monkeypatch):
    """Log each attention head's weights, (n_clips, n_frames, n_classes), in call order: an
    infer-mode forward keeps none, so they are read where the model's forward gets them.  The
    mode argument the model passes is passed through."""
    weights = []
    real = model_module.forward_batch

    def recording(h, head, *args):
        y, att, frame_probs, denom = real(h, head, *args)
        weights.append(att)
        return y, att, frame_probs, denom

    monkeypatch.setattr(model_module, "forward_batch", recording)
    return weights


@pytest.fixture(scope="session")
def overfit_run():
    """Drive ten clips to near-zero loss once per session: (samples, fit result, checkpoint
    bytes).  Criterion 8 reads the log; a test that trains further loads its own copy."""
    cfg = SynthConfig(n_samples=10)
    samples, _ = generate_synthetic(cfg)
    spec = parse_arch("3-A", hidden_units=32, n_classes=cfg.n_classes)
    model = build_model(spec, cfg.n_features, init_seed=0)
    result = fit(model, samples, samples, TrainConfig(
        arch="3-A", epochs=500, batch_size=10, lr=0.1, dropout=0.0, seed=0, eval_every=100,
    ))
    checkpoint = io.BytesIO()
    save_weights(model, checkpoint)
    return samples, result, checkpoint.getvalue()


@pytest.fixture(scope="session")
def preset_grad_checks():
    """Finite-difference check every preset once per session at toy size (H=5, K=3,
    input 4, 3x2 clips): ({arch: (max rel error, parameters restored)}, seconds)."""
    start = time.monotonic()
    checks = {}
    for arch in PRESET_ARCHS:
        spec = parse_arch(arch, hidden_units=5, n_classes=3)
        model = build_model(spec, input_dim=4, init_seed=0)
        rng = new_rng(1)
        features = gaussian(rng, (3, 2, 4))
        targets = (rng.random((3, 3)) < 0.5).astype(np.float64)
        before = model.copy_state()
        error = model_grad_check(model, features, lambda z: bce_loss(z, targets))
        state = model.arrays
        checks[arch] = error, all(np.array_equal(state[name], arr) for name, arr in before.items())
    return checks, time.monotonic() - start


def pytest_collection_modifyitems(items):
    """Run the tests that wait for criterion 6's fits last: the fits start in worker
    processes as the session enters ``test_acceptance.py`` and overlap every other test."""
    items.sort(key=lambda item: "learning_results" in getattr(item, "fixturenames", ()))
