"""Loss, optimizer, and training-loop behavior."""

import io
import math
import tracemalloc

import numpy as np
import pytest

from wlat import train as train_module
from wlat.data import DatasetFormatError, Sample, SynthConfig, generate_synthetic
from wlat.metrics import evaluate
from wlat.model import (
    build_model, forward_cached, load_weights, parse_arch, predict_scores, save_weights
)
from wlat.nn import TRAIN
from wlat.rng import gaussian, new_rng
from wlat.train import AdamState, TrainConfig, adam_step, bce_loss, fit
from wlat.data import stack_features, stack_targets


class TestBceLoss:
    def test_matching_binary_targets_give_clamp_floor(self):
        targets = np.array([[0.0, 1.0], [1.0, 0.0]])
        loss, grad = bce_loss(targets.copy(), targets)
        assert loss < 2e-7
        assert not grad.any()

    def test_half_probabilities_give_log_two(self):
        z = np.full((3, 4), 0.5)
        targets = (gaussian(new_rng(0), (3, 4)) > 0).astype(float)
        loss, _ = bce_loss(z, targets)
        assert abs(loss - math.log(2.0)) < 1e-12

    def test_known_single_entry(self):
        loss, grad = bce_loss(np.array([0.8]), np.array([1.0]))
        assert abs(loss + math.log(0.8)) < 1e-12
        assert abs(grad[0] - (0.8 - 1.0) / (0.8 * 0.2)) < 1e-12

    def test_gradient_matches_finite_differences(self):
        rng = new_rng(1)
        z = 0.1 + 0.8 * rng.random((4, 3))
        targets = (gaussian(rng, (4, 3)) > 0).astype(float)
        _, grad = bce_loss(z, targets)
        step = 1e-6
        worst = 0.0
        for idx in np.ndindex(z.shape):
            bumped = z.copy()
            bumped[idx] += step
            up, _ = bce_loss(bumped, targets)
            bumped[idx] -= 2 * step
            down, _ = bce_loss(bumped, targets)
            fd = (up - down) / (2 * step)
            worst = max(worst, abs(fd - grad[idx]) / max(abs(fd), 1e-12))
        assert worst < 1e-8

    def test_exact_zero_and_one_are_clamped(self):
        z = np.array([0.0, 1.0, 0.5])
        targets = np.array([1.0, 0.0, 1.0])
        loss, grad = bce_loss(z, targets)
        assert np.isfinite(loss)
        assert grad[0] == 0.0 and grad[1] == 0.0
        assert grad[2] != 0.0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            bce_loss(np.zeros((2, 3)), np.zeros((3, 2)))


class TestAdam:
    def test_zero_gradient_is_exact_noop(self):
        params = {"w": gaussian(new_rng(2), (3, 2)), "b": gaussian(new_rng(3), 2)}
        before = {name: arr.copy() for name, arr in params.items()}
        state = AdamState.init(params, lr=0.1)
        grads = {name: np.zeros_like(arr) for name, arr in params.items()}
        adam_step(params, grads, state)
        assert state.t == 1
        for name in params:
            assert np.array_equal(params[name], before[name])

    def test_constant_gradient_moves_by_learning_rate(self):
        params = {"w": np.array([5.0])}
        state = AdamState.init(params, lr=0.01)
        previous = params["w"][0]
        for _ in range(10):
            adam_step(params, {"w": np.array([2.0])}, state)
            step_size = previous - params["w"][0]
            assert abs(step_size - 0.01) < 1e-6
            previous = params["w"][0]

    def test_gradient_sign_sets_direction(self):
        params = {"w": np.array([0.0, 0.0])}
        state = AdamState.init(params, lr=0.05)
        adam_step(params, {"w": np.array([1.0, -1.0])}, state)
        assert params["w"][0] < 0.0 < params["w"][1]

    def test_updates_are_deterministic(self):
        runs = []
        for _ in range(2):
            params = {"w": gaussian(new_rng(4), (4, 4))}
            state = AdamState.init(params, lr=0.003)
            for step in range(5):
                adam_step(params, {"w": gaussian(new_rng(step), (4, 4))}, state)
            runs.append(params["w"])
        assert np.array_equal(runs[0], runs[1])

    def test_key_mismatch_rejected(self):
        params = {"w": np.zeros(2)}
        state = AdamState.init(params, lr=0.001)
        with pytest.raises(ValueError):
            adam_step(params, {"v": np.zeros(2)}, state)

    def test_shape_mismatch_rejected(self):
        params = {"w": np.zeros(2)}
        state = AdamState.init(params, lr=0.001)
        with pytest.raises(ValueError):
            adam_step(params, {"w": np.zeros(3)}, state)


class TestTrainConfig:
    def test_defaults_are_valid(self):
        cfg = TrainConfig(arch="3-A", epochs=10)
        assert cfg.batch_size == 500
        assert cfg.lr == 0.001
        assert cfg.dropout == 0.4

    def test_zero_learning_rate_allowed(self):
        TrainConfig(arch="3-A", epochs=1, lr=0.0)

    def test_smallest_batch_size_allowed(self):
        assert TrainConfig(arch="3-A", epochs=1, batch_size=2).batch_size == 2

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(batch_size=1),
            dict(lr=-0.1),
            dict(epochs=0),
            dict(eval_every=0),
            dict(patience=-1),
            dict(arch="2-B"),
            dict(arch="0-A"),
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        base = dict(arch="3-A", epochs=3)
        base.update(kwargs)
        with pytest.raises(ValueError):
            TrainConfig(**base)

    @pytest.mark.parametrize("lr", [float("nan"), float("inf")])
    def test_non_finite_learning_rate_rejected(self, lr):
        with pytest.raises(ValueError, match=f"lr must be finite and >= 0, got {lr}"):
            TrainConfig(arch="3-A", epochs=3, lr=lr)

    @pytest.mark.parametrize("rate", [-0.5, 1.0, 1.5, float("nan")])
    def test_dropout_rate_outside_unit_interval_rejected(self, rate):
        with pytest.raises(ValueError, match=r"dropout rate must be in \[0, 1\)"):
            TrainConfig(arch="3-A", epochs=3, dropout=rate)


def small_split(seed=3):
    cfg = SynthConfig(
        n_classes=4, n_samples=30, n_frames=4, n_features=8,
        labels_per_sample_max=2, seed=seed,
    )
    samples, _ = generate_synthetic(cfg)
    return cfg, samples[:20], samples[20:]


def small_model(arch="1-A", hidden=8, init_seed=0):
    spec = parse_arch(arch, hidden_units=hidden, n_classes=4)
    return build_model(spec, input_dim=8, init_seed=init_seed)


def lone_clip_split(n_frames):
    """21 training clips, so batches of 10 leave one clip over, and 8 validation clips."""
    cfg = SynthConfig(n_classes=4, n_samples=29, n_frames=n_frames, n_features=8,
                      event_frames_max=1, seed=3)
    samples, _ = generate_synthetic(cfg)
    return samples[:21], samples[21:]


def held_arrays(model):
    """Every array ``model.blocks``, ``heads`` and ``out`` hold, by checkpoint name, walked
    from the structure itself."""
    held = {}
    for b, block in enumerate(model.blocks):
        for j, layer in enumerate(block):
            dense, bn = layer
            for name, arr in (("weight", dense.weight), ("bias", dense.bias), ("gamma", bn.gamma),
                              ("beta", bn.beta), ("running_mean", bn.running_mean),
                              ("running_var", bn.running_var)):
                held[f"block{b}.layer{j}.{name}"] = arr
    for l, head in enumerate(model.heads):
        for part, dense in (("att", head.att_dense), ("cls", head.cls_dense)):
            held[f"head{l}.{part}.weight"], held[f"head{l}.{part}.bias"] = dense.weight, dense.bias
    held["out.weight"], held["out.bias"] = model.out.weight, model.out.bias
    return held


class TestFit:
    @pytest.mark.parametrize("step", ["train-mode forward", "fit"])
    def test_state_views_stay_live(self, step):
        _, train, valid = small_split()
        model = small_model("2-A-1-A")
        initial = model.copy_state()
        views = dict(model.arrays)  # the entries as they stand before the step
        if step == "fit":
            fit(model, train, valid,
                TrainConfig(arch="2-A-1-A", epochs=2, batch_size=8, lr=0.01, seed=9))
        else:
            forward_cached(model, stack_features(train), TRAIN, new_rng(1), 0.4)
        fresh = model.arrays
        assert list(views) == list(fresh) == list(held_arrays(model))
        for name, arr in held_arrays(model).items():
            assert views[name] is arr and fresh[name] is arr, name
        running = [name for name in fresh if ".running_" in name]
        assert len(running) == 6  # three hidden layers, each with a mean and a variance
        for name in running:  # the step moved every running statistic, and the views saw it
            assert not np.array_equal(fresh[name], initial[name]), name
            assert views[name].tobytes() == fresh[name].tobytes(), name

    def test_logs_replay_byte_for_byte(self):
        _, train, valid = small_split()
        cfg = TrainConfig(arch="1-A", epochs=4, batch_size=8, lr=0.01, seed=9, eval_every=2)
        results = []
        models = []
        for _ in range(2):
            model = small_model()
            results.append(fit(model, train, valid, cfg))
            models.append(model)
        assert results[0].log_lines == results[1].log_lines
        for name, arr in models[0].arrays.items():
            assert np.array_equal(arr, models[1].arrays[name]), name

    def test_checkpoint_is_the_whole_model(self):
        # A model and its save/load round trip train identically under one
        # config, at a dropout rate other than the default: the weight file
        # leaves out nothing that shapes training.
        _, train, valid = small_split()
        cfg = TrainConfig(arch="1-A", epochs=3, batch_size=8, lr=0.01, dropout=0.2, seed=9)
        original = small_model()
        saved = io.BytesIO()
        save_weights(original, saved)
        saved.seek(0)
        runs = []
        for model in (original, load_weights(saved)):
            log_lines = fit(model, train, valid, cfg).log_lines
            weights = io.BytesIO()
            save_weights(model, weights)
            runs.append((log_lines, weights.getvalue()))
        assert runs[0] == runs[1]

    def test_log_line_shape_and_cadence(self):
        _, train, valid = small_split()
        cfg = TrainConfig(arch="1-A", epochs=5, batch_size=8, lr=0.01, seed=9, eval_every=2)
        result = fit(small_model(), train, valid, cfg)
        assert len(result.log_lines) == 5
        steps_per_epoch = math.ceil(20 / 8)
        for epoch, line in enumerate(result.log_lines, start=1):
            fields = line.split("\t")
            assert len(fields) == 6
            assert int(fields[0]) == epoch
            assert int(fields[1]) == epoch * steps_per_epoch
            assert float(fields[2]) >= 0.0  # a cross-entropy
            if epoch % 2 == 0 or epoch == 5:
                assert all(f != "nan" for f in fields[3:])
            else:
                assert fields[3:] == ["nan", "nan", "nan"]
        assert result.total_steps == 5 * steps_per_epoch

    def test_logged_loss_is_the_batch_loss(self, record_batches):
        # one batch, lr 0 and no dropout: the epoch's loss is bce_loss of that batch's forward
        _, train, valid = small_split()
        batches = record_batches(train)
        model = small_model("2-A-1-A")
        initial = model.copy_state()
        cfg = TrainConfig(arch="2-A-1-A", epochs=1, batch_size=len(train), lr=0.0, dropout=0.0,
                          seed=9)
        logged = float(fit(model, train, valid, cfg).log_lines[0].split("\t")[2])
        model.load_state(initial)
        [batch] = batches
        fwd = forward_cached(model, stack_features(train)[batch], TRAIN)
        expected, _ = bce_loss(fwd.z, stack_targets(train, 4)[batch])
        assert abs(logged - float(f"{expected:.8f}")) <= 1e-12

    def test_label_outside_the_model_classes_names_the_clip(self):
        _, train, _ = small_split()
        valid, _ = generate_synthetic(SynthConfig(n_classes=8, n_samples=10, n_frames=4,
                                                  n_features=8, seed=4))
        bad = next(s for s in valid if s.labels[-1] >= 4)
        cfg = TrainConfig(arch="1-A", epochs=1, batch_size=8)
        with pytest.raises(DatasetFormatError,
                           match=rf"sample {bad.id!r}: label outside \[0, 4\)"):
            fit(small_model(), train, valid, cfg)

    def test_evaluation_cadence_does_not_perturb_training(self):
        _, train, valid = small_split()
        losses = []
        for eval_every in (1, 5):
            cfg = TrainConfig(
                arch="1-A", epochs=5, batch_size=8, lr=0.01, seed=9, eval_every=eval_every
            )
            result = fit(small_model(), train, valid, cfg)
            losses.append([line.split("\t")[2] for line in result.log_lines])
        assert losses[0] == losses[1]

    def test_zero_learning_rate_freezes_trainables(self):
        _, train, valid = small_split()
        model = small_model()
        before = {name: arr.copy() for name, arr in model.trainable_params().items()}
        cfg = TrainConfig(arch="1-A", epochs=3, batch_size=8, lr=0.0, seed=9)
        result = fit(model, train, valid, cfg)
        for name, arr in model.trainable_params().items():
            assert np.array_equal(arr, before[name]), name
        # Batch-norm running statistics still move, so scores drift a little.
        maps = [float(line.split("\t")[3]) for line in result.log_lines]
        assert max(maps) - min(maps) < 0.02

    def test_best_checkpoint_is_restored(self):
        _, train, valid = small_split()
        model = small_model()
        cfg = TrainConfig(arch="1-A", epochs=4, batch_size=8, lr=0.01, seed=9)
        result = fit(model, train, valid, cfg)
        report = evaluate(
            predict_scores(model, stack_features(valid)), stack_targets(valid, 4)
        )
        assert abs(report.mean_ap - result.best_map) < 1e-12
        logged = [float(line.split("\t")[3]) for line in result.log_lines]
        assert abs(result.best_map - max(logged)) < 1e-7

    def test_shuffle_is_seeded(self, record_batches):
        _, train, valid = small_split()
        batches = record_batches(train)
        orders = []
        for seed in (8, 8, 9):
            cfg = TrainConfig(arch="1-A", epochs=2, batch_size=8, lr=0.0, seed=seed)
            fit(small_model(), train, valid, cfg)
            orders.append([i for batch in batches for i in batch])
            batches.clear()
        assert orders[0] == orders[1]
        assert orders[0] != orders[2]
        assert orders[0][:20] != orders[0][20:]

    def test_epoch_count_costs_nothing_before_the_first_step(self, monkeypatch):
        # Each epoch's shuffle seed is spawned as that epoch starts, so what
        # fit allocates before its first step does not grow with cfg.epochs.
        class FirstStep(Exception):
            pass

        def first_step(*args, **kwargs):
            raise FirstStep

        _, train, valid = small_split()
        model = small_model()
        monkeypatch.setattr(train_module, "forward_cached", first_step)
        cfg = TrainConfig(arch="1-A", epochs=10**5, batch_size=8, seed=9, patience=5)
        tracemalloc.start()
        try:
            with pytest.raises(FirstStep):
                fit(model, train, valid, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_consecutive_steps_never_hold_two_caches(self):
        # The unit is what one train forward of a batch retains.  backward
        # consumes its pass, so the pass fit still names while the next
        # forward runs holds no activation.  Less the stacked inputs, a fit
        # peaks at 1.40 units here, against 2.23 when each step's cache
        # lived on through the next step's forward.
        arch, hidden, n_classes, n_features, batch_size = "2-A-1-A", 64, 8, 32, 100
        samples, _ = generate_synthetic(SynthConfig(n_classes=n_classes, n_samples=400,
                                                    n_features=n_features, seed=3))
        train, valid = samples[:300], samples[300:]
        model, probe = (build_model(parse_arch(arch, hidden, n_classes), n_features, 0)
                        for _ in range(2))
        inputs = sum(a.nbytes for a in (stack_features(train), stack_targets(train, n_classes),
                                        stack_features(valid), stack_targets(valid, n_classes)))
        batch = stack_features(train[:batch_size])
        cfg = TrainConfig(arch=arch, epochs=1, batch_size=batch_size, lr=0.01, seed=1)
        tracemalloc.start()
        try:
            fwd = forward_cached(probe, batch, TRAIN, new_rng(1), 0.4)
            unit = tracemalloc.get_traced_memory()[0]
            del fwd
            tracemalloc.reset_peak()
            fit(model, train, valid, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (peak - inputs) / unit < 1.8, (peak - inputs) / unit

    def test_unscorable_validation_set_rejected_before_training(self, record_batches):
        _, train, valid = small_split()
        batches = record_batches(train)
        model = small_model()
        before = model.copy_state()
        cfg = TrainConfig(arch="1-A", epochs=2, batch_size=8)
        # one clip: every class is all-positive or all-negative
        with pytest.raises(ValueError, match="validation"):
            fit(model, train, valid[:1], cfg)
        assert batches == []
        for name, arr in model.arrays.items():
            assert np.array_equal(arr, before[name]), name

    def test_non_finite_loss_names_epoch_and_step(self, record_batches):
        _, train, valid = small_split()
        batches = record_batches(train)
        cfg = TrainConfig(arch="1-A", epochs=3, batch_size=8, lr=1e200, seed=9)
        with pytest.raises(ValueError, match="not finite at epoch 1, step 2$"):
            fit(small_model(), train, valid, cfg)
        assert len(batches) == 2

    def test_saturated_output_names_epoch_and_step(self, record_batches):
        # lr=1e6 saturates the output sigmoid after one step; the BCE clamp
        # then zeroes every gradient and the loss would stay at 6.044 forever
        _, train, valid = small_split()
        batches = record_batches(train)
        cfg = TrainConfig(arch="1-A", epochs=3, batch_size=8, lr=1e6, seed=9)
        with pytest.raises(ValueError, match="every gradient is zero at epoch 1, step 2:"):
            fit(small_model(), train, valid, cfg)
        assert len(batches) == 2

    def test_non_finite_gradient_stops_before_any_update(self, monkeypatch):
        _, train, valid = small_split()
        model = small_model()
        real = train_module.backward
        before_update = []

        def poisoned(model, fwd, grad_z):
            grads = real(model, fwd, grad_z)
            if len(before_update) == 1:  # the second step
                grads["head0.att.weight"][0, 0] = np.nan
            before_update.append(model.copy_state())
            return grads

        monkeypatch.setattr(train_module, "backward", poisoned)
        cfg = TrainConfig(arch="1-A", epochs=2, batch_size=8, lr=0.01, seed=9)
        with pytest.raises(ValueError,
                           match="gradient head0.att.weight is not finite at epoch 1, step 2$"):
            fit(model, train, valid, cfg)
        assert len(before_update) == 2
        for name, arr in model.arrays.items():
            assert np.array_equal(arr, before_update[1][name]), name

    def test_float32_features_train_as_their_float64_widening(self):
        _, train, valid = small_split()
        assert train[0].features.dtype == np.float32
        widened = [[Sample(s.id, s.features.astype(np.float64), s.labels) for s in part]
                   for part in (train, valid)]
        cfg = TrainConfig(arch="2-A-1-A", epochs=3, batch_size=8, lr=0.01, seed=9)
        runs = []
        for parts in ((train, valid), widened):
            model = small_model("2-A-1-A")
            log_lines = fit(model, *parts, cfg).log_lines
            weights = io.BytesIO()
            save_weights(model, weights)
            runs.append((log_lines, weights.getvalue()))
        assert runs[0] == runs[1]

    def test_arch_mismatch_rejected(self):
        _, train, valid = small_split()
        with pytest.raises(ValueError, match="arch"):
            fit(small_model("1-A"), train, valid, TrainConfig(arch="2-A", epochs=1, batch_size=8))

    def test_empty_sets_rejected(self):
        _, train, valid = small_split()
        cfg = TrainConfig(arch="1-A", epochs=1, batch_size=8)
        with pytest.raises(ValueError):
            fit(small_model(), [], valid, cfg)
        with pytest.raises(ValueError):
            fit(small_model(), train, [], cfg)

    def test_feature_dim_mismatch_rejected(self):
        _, train, valid = small_split()
        spec = parse_arch("1-A", hidden_units=8, n_classes=4)
        wrong = build_model(spec, input_dim=5, init_seed=0)
        with pytest.raises(ValueError, match="dim"):
            fit(wrong, train, valid, TrainConfig(arch="1-A", epochs=1, batch_size=8))

    def test_lone_single_frame_clip_rejected_before_training(self, record_batches):
        train, valid = lone_clip_split(n_frames=1)
        batches = record_batches(train)
        with pytest.raises(ValueError, match="n_train=21 with batch_size=10"):
            fit(small_model(), train, valid, TrainConfig(arch="1-A", epochs=1, batch_size=10))
        assert batches == []

    def test_lone_two_frame_clip_trains(self, record_batches):
        # two frames still give train-mode batch norm two rows
        train, valid = lone_clip_split(n_frames=2)
        batches = record_batches(train)
        fit(small_model(), train, valid, TrainConfig(arch="1-A", epochs=1, batch_size=10))
        assert [len(b) for b in batches] == [10, 10, 1]


class TestOverfit:
    def test_small_batch_reaches_near_zero_loss(self, overfit_run):
        _, result, _ = overfit_run
        hits = [
            int(line.split("\t")[1])
            for line in result.log_lines
            if float(line.split("\t")[2]) < 0.01
        ]
        assert hits and hits[0] <= 500

    def test_early_stopping_fires_once_map_saturates(self, overfit_run):
        samples, _, checkpoint = overfit_run
        model = load_weights(io.BytesIO(checkpoint))
        cfg = TrainConfig(
            arch="3-A", epochs=10, batch_size=10, lr=0.0, dropout=0.0, seed=1,
            eval_every=1, patience=1,
        )
        result = fit(model, samples, samples, cfg)
        assert result.best_map == 1.0
        assert result.stopped_early
        assert len(result.log_lines) == 2
        assert result.best_epoch == 1
