"""Print the traced memory of one training step, a save, a load and scoring at the paper's shape,
and of generating the benchmark workloads' synthetic clips.

Run from the repository root:

    PYTHONPATH=src python tools/step_peak.py

The step is a train-mode ``forward_cached``, ``bce_loss`` and ``backward`` on
``2-A-1-A`` with 600 hidden units and 527 classes, over a batch of 500 clips x
10 frames of 128-d float64 features at dropout 0.4.  tracemalloc starts once
the model and the batch exist.  The script prints what the forward pass
retains and the peak over the whole step, both in MiB.  It then prints the
peaks of ``save_weights`` of that model to a temporary file and of
``load_weights`` of that file, each traced on its own, beside the size of
the model's ``state``.  Then it prints the peak of ``predict_scores`` of that
model on 1000 clips x 10 frames of float32 features, as ``wlat evaluate``
reads them, the highest of five calls: its two threads' peaks coincide in
some calls only.  Last it prints the peak of ``generate_synthetic`` at the
clip shapes and counts of the ``synth-train`` (2500 clips of 10 x 32, 8
classes) and ``paper-eval`` (1000 clips of 10 x 128, 527 classes) benchmark
workloads, data seed 1.  They are tracked numbers with no bound: the figures
depend only on the code and numpy, not on the host.
"""

from __future__ import annotations

import tempfile
import tracemalloc

import numpy as np

from wlat.data import SynthConfig, generate_synthetic
from wlat.model import (
    backward, build_model, forward_cached, load_weights, parse_arch, predict_scores, save_weights
)
from wlat.nn import TRAIN
from wlat.rng import gaussian, new_rng
from wlat.train import bce_loss

MIB = 2**20


def traced_peak(call) -> int:
    """Peak bytes tracemalloc sees while ``call()`` runs."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def main() -> None:
    model = build_model(parse_arch("2-A-1-A", hidden_units=600, n_classes=527), 128, 0)
    rng = new_rng(1)
    features = gaussian(rng, (500, 10, 128))
    targets = (rng.random((500, 527)) < 0.05).astype(np.float64)
    tracemalloc.start()
    try:
        fwd = forward_cached(model, features, TRAIN, new_rng(2), 0.4)
        retained = tracemalloc.get_traced_memory()[0]
        _, grad_z = bce_loss(fwd.z, targets)
        backward(model, fwd, grad_z)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    print(f"train forward retains {retained / MIB:.1f} MiB")
    print(f"train step peaks at {peak / MIB:.1f} MiB")

    with tempfile.TemporaryFile() as checkpoint:
        saved = traced_peak(lambda: save_weights(model, checkpoint))
        checkpoint.seek(0)
        loaded = traced_peak(lambda: load_weights(checkpoint))
    print(f"model state holds {model.state.nbytes / MIB:.2f} MiB")
    print(f"save_weights peaks at {saved / MIB:.2f} MiB")
    print(f"load_weights peaks at {loaded / MIB:.2f} MiB")

    clips = gaussian(new_rng(3), (1000, 10, 128)).astype(np.float32)
    scored = max(traced_peak(lambda: predict_scores(model, clips)) for _ in range(5))
    print(f"predict_scores of 1000 clips peaks at {scored / MIB:.2f} MiB ({scored / 1e6:.2f} MB)")

    for workload, n_classes, n_samples, n_features in (("synth-train", 8, 2500, 32),
                                                       ("paper-eval", 527, 1000, 128)):
        cfg = SynthConfig(n_classes=n_classes, n_samples=n_samples, n_features=n_features, seed=1)
        generated = traced_peak(lambda: generate_synthetic(cfg))
        print(f"generate_synthetic of {workload}'s clips peaks at {generated / MIB:.2f} MiB")


if __name__ == "__main__":
    main()
