"""Architecture grammar, multi-level assembly, gradients, and weight files."""

import errno
import hashlib
import io
import itertools
import os
import re
import struct
import sys
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wlat.model
from wlat import nn
from wlat.model import (
    INFER_CHUNK_ROWS,
    INFER_CHUNK_VALUES,
    PRESET_ARCHS,
    WEIGHTS_MAGIC,
    ArchSpec,
    WeightFormatError,
    backward,
    build_model,
    forward_cached,
    load_weights,
    model_grad_check,
    parse_arch,
    predict_scores,
    save_weights,
)
from wlat.nn import INFER, TRAIN
from wlat.rng import gaussian, new_rng
from wlat.train import bce_loss

from oracles import checkpoint_with

TOY = dict(hidden_units=5, n_classes=3)
# clips per predict_scores chunk for six-frame clips
STEP = INFER_CHUNK_ROWS // 6


def toy_model(arch="2-A-1-A", input_dim=4, seed=0):
    return build_model(parse_arch(arch, **TOY), input_dim, init_seed=seed)


class TestParseArch:
    def test_single_level(self):
        spec = parse_arch("3-A", **TOY)
        assert spec.block_depths == (3,)
        assert spec.hidden_units == 5
        assert spec.n_classes == 3

    def test_two_levels(self):
        assert parse_arch("2-A-1-A", **TOY).block_depths == (2, 1)

    def test_three_levels(self):
        assert parse_arch("2-A-2-A-2-A", **TOY).block_depths == (2, 2, 2)

    @pytest.mark.parametrize("text", PRESET_ARCHS)
    def test_presets_all_parse(self, text):
        spec = parse_arch(text, **TOY)
        assert spec.n_levels == text.count("A")

    def test_error_reports_position(self):
        with pytest.raises(ValueError, match="position 2"):
            parse_arch("3-B", **TOY)

    @pytest.mark.parametrize("text", ["", "A", "3", "3-A-2", "3-A-A", "-3-A", "3--A"])
    def test_malformed_strings_rejected(self, text):
        with pytest.raises(ValueError):
            parse_arch(text, **TOY)

    @pytest.mark.parametrize("text,digit", [("²-A", "²"), ("٣-A", "٣"), ("1-A-٢-A", "٢")],
                             ids=["superscript-two", "arabic-indic-three", "second-depth"])
    def test_only_ascii_digits_are_depths(self, text, digit):
        pos = text.index(digit)
        with pytest.raises(ValueError) as err:
            parse_arch(text, **TOY)
        assert str(err.value) == f"arch {text!r}: expected integer at position {pos}, got {digit!r}"

    def test_zero_depth_rejected(self):
        with pytest.raises(ValueError):
            parse_arch("0-A", **TOY)

    def test_dimensions_are_required(self):
        # no silent paper shape (600 units, 527 classes) for a forgetful caller
        with pytest.raises(TypeError):
            parse_arch("3-A")

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            ArchSpec((), 600, 527)
        with pytest.raises(ValueError):
            ArchSpec((1,), 0, 527)
        with pytest.raises(ValueError):
            ArchSpec((1,), 600, 0)


class TestBuild:
    def test_single_level_structure(self):
        spec = parse_arch("3-A", hidden_units=600, n_classes=527)
        model = build_model(spec, input_dim=128, init_seed=0)
        assert len(model.blocks) == 1
        assert len(model.blocks[0]) == 3
        assert len(model.heads) == 1
        assert model.out.weight.shape == (527, 527)
        assert model.arrays["block0.layer0.weight"].shape == (128, 600)
        assert model.arrays["block0.layer1.weight"].shape == (600, 600)

    def test_multi_level_output_width(self):
        spec = parse_arch("2-A-1-A", hidden_units=600, n_classes=527)
        model = build_model(spec, input_dim=64, init_seed=0)
        assert model.out.weight.shape == (2 * 527, 527)
        assert model.arrays["block1.layer0.weight"].shape == (600, 600)

    def test_same_seed_is_bitwise_identical(self):
        a = toy_model(seed=7)
        b = toy_model(seed=7)
        for name, param in a.trainable_params().items():
            assert np.array_equal(param, b.trainable_params()[name]), name

    def test_different_seeds_differ(self):
        a = toy_model(seed=0)
        b = toy_model(seed=1)
        assert not np.array_equal(a.out.weight, b.out.weight)

    def test_biases_start_at_zero(self):
        model = toy_model()
        for name, param in model.trainable_params().items():
            if name.endswith(".bias") or name.endswith(".beta"):
                assert not param.any(), name
            if name.endswith(".gamma"):
                assert (param == 1.0).all(), name

    @pytest.mark.parametrize("arch", PRESET_ARCHS)
    def test_parameter_count_formula(self, arch):
        input_dim, hidden, n_classes = 4, 5, 3
        spec = parse_arch(arch, hidden_units=hidden, n_classes=n_classes)
        model = build_model(spec, input_dim, init_seed=0)
        n_layers = sum(spec.block_depths)
        levels = spec.n_levels
        expected = (
            input_dim * hidden + hidden + 2 * hidden
            + (n_layers - 1) * (hidden * hidden + hidden + 2 * hidden)
            + levels * 2 * (hidden * n_classes + n_classes)
            + levels * n_classes * n_classes + n_classes
        )
        total = sum(p.size for p in model.trainable_params().values())
        assert total == expected

    def test_bad_input_dim_rejected(self):
        with pytest.raises(ValueError):
            build_model(parse_arch("3-A", **TOY), input_dim=0, init_seed=0)

    def test_trainables_are_state_without_running_stats(self):
        model = toy_model()
        state = model.arrays
        trainable = model.trainable_params()
        expected = [n for n in state if not n.endswith(("running_mean", "running_var"))]
        assert list(trainable) == expected
        assert len(state) - len(trainable) == 2 * 3  # three hidden layers
        assert all(trainable[n] is state[n] for n in trainable)


class TestLoadState:
    def assert_unchanged(self, model, before):
        assert list(model.arrays) == list(before)
        for name, arr in model.arrays.items():
            assert arr.tobytes() == before[name].tobytes(), name

    @pytest.mark.parametrize("name,value,message", [
        ("out.weight", np.float64(2.0), "state out.weight has shape (), the model (3, 3)"),
        ("head0.cls.weight", np.full(3, 2.0), "state head0.cls.weight has shape (3,), the model (5, 3)"),
        ("head0.att.weight", np.full(5, 2.0), "state head0.att.weight has shape (5,), the model (5, 3)"),
    ], ids=["scalar", "broadcastable-row", "unbroadcastable-row"])
    def test_a_wrong_shape_is_refused_before_any_array_is_written(self, name, value, message):
        model = toy_model("1-A", seed=3)
        before = model.copy_state()
        # every other entry differs from the model, so a partial write would show
        state = {n: arr + 1.0 for n, arr in before.items()}
        state[name] = value
        with pytest.raises(ValueError) as err:
            model.load_state(state)
        assert str(err.value) == message
        self.assert_unchanged(model, before)

    @pytest.mark.parametrize("change", ["missing", "extra"])
    def test_a_wrong_name_is_refused_before_any_array_is_written(self, change):
        model = toy_model("1-A", seed=3)
        before = model.copy_state()
        state = {n: arr + 1.0 for n, arr in before.items()}
        if change == "missing":
            del state["out.bias"]
        else:
            state["out.scale"] = np.ones(3)
        with pytest.raises(ValueError) as err:
            model.load_state(state)
        assert str(err.value) == "state dict does not match model structure"
        self.assert_unchanged(model, before)


class TestForward:
    def test_single_level_concat_is_identity(self):
        model = toy_model("3-A")
        features = gaussian(new_rng(1), (4, 6, 4))
        fwd = forward_cached(model, features, TRAIN)
        _, _, weights, frame_probs, _ = fwd.levels[0]
        assert np.array_equal(fwd.u, (weights * frame_probs).sum(axis=1))

    def test_output_shapes_and_range(self):
        model = toy_model("2-A-1-A")
        features = gaussian(new_rng(2), (5, 6, 4))
        fwd = forward_cached(model, features, TRAIN)
        assert fwd.z.shape == (5, 3)
        assert fwd.u.shape == (5, 6)
        assert len(fwd.levels) == 2
        assert all(weights.shape == (5, 6, 3) for _, _, weights, _, _ in fwd.levels)
        assert ((fwd.z > 0.0) & (fwd.z < 1.0)).all()

    def test_infer_is_deterministic(self):
        model = toy_model()
        features = gaussian(new_rng(3), (4, 6, 4))
        first = forward_cached(model, features, INFER)
        second = forward_cached(model, features, INFER)
        assert np.array_equal(first.z, second.z)

    def test_frame_permutation_leaves_scores_unchanged(self):
        model = toy_model("2-A-1-A")
        features = gaussian(new_rng(4), (3, 8, 4))
        perm = new_rng(5).permutation(8)
        base = forward_cached(model, features, INFER)
        permuted = forward_cached(model, features[:, perm, :], INFER)
        assert np.max(np.abs(base.z - permuted.z)) < 1e-12

    def test_bad_feature_shape_rejected(self):
        model = toy_model()
        with pytest.raises(ValueError):
            forward_cached(model, np.zeros((4, 6)), INFER)
        with pytest.raises(ValueError):
            forward_cached(model, np.zeros((4, 6, 9)), INFER)

    @pytest.mark.parametrize("score", [lambda model, x: forward_cached(model, x, INFER).z,
                                       predict_scores], ids=["forward_cached", "predict_scores"])
    @pytest.mark.parametrize("shape, message", [
        ((0, 6, 4), "holds no clip or no frame"),
        ((4, 0, 4), "holds no clip or no frame"),
        ((0, 6, 9), "incompatible with input_dim=4"),
    ], ids=["no-clip", "no-frame", "wrong-width"])
    def test_empty_batch_rejected_in_wlats_words(self, score, shape, message):
        with pytest.raises(ValueError, match=f"^{re.escape(f'features shape {shape} {message}')}$"):
            score(toy_model(), np.zeros(shape))

    def test_dropout_needs_rng_in_train_mode(self):
        model = toy_model()
        features = gaussian(new_rng(7), (4, 6, 4))
        with pytest.raises(ValueError, match="rng"):
            forward_cached(model, features, TRAIN, dropout=0.4)

    def test_predict_scores_matches_unchunked_forward(self):
        model = toy_model()
        # two and a half chunks of frame rows, the last chunk partial
        n_clips = 5 * INFER_CHUNK_ROWS // (2 * 6) + 1
        features = gaussian(new_rng(8), (n_clips, 6, 4))
        scores = predict_scores(model, features)
        assert np.array_equal(scores, forward_cached(model, features, INFER).z)

    @pytest.mark.parametrize("n_clips", [1, STEP, 2 * STEP, 3 * STEP, 3 * STEP + 1])
    def test_predict_scores_equals_its_chunks_scored_in_turn(self, n_clips):
        # whole multiples of the step, odd and even, end on a full chunk and start no empty one
        model = toy_model()
        features = gaussian(new_rng(19), (n_clips, 6, 4))
        in_turn = [forward_cached(model, features[start : start + STEP], INFER).z
                   for start in range(0, n_clips, STEP)]
        assert predict_scores(model, features).tobytes() == np.concatenate(in_turn).tobytes()

    @pytest.mark.parametrize("hidden, n_classes, input_dim, wide", [
        (5, 3, 4, False), (500, 3, 4, True), (5, 600, 4, True), (5, 3, 1000, True),
    ], ids=["narrow", "wide-hidden", "wide-classes", "wide-input"])
    def test_predict_scores_chunks_by_the_widest_activation(self, monkeypatch, hidden,
                                                            n_classes, input_dim, wide):
        # a wide model's chunk rows are capped by its widest activation, a narrow one's by
        # the row cap alone
        width = max(hidden, n_classes, input_dim)
        assert wide == (width * INFER_CHUNK_ROWS > INFER_CHUNK_VALUES)
        step = (INFER_CHUNK_VALUES // width if wide else INFER_CHUNK_ROWS) // 6
        model = build_model(parse_arch("2-A-1-A", hidden, n_classes), input_dim, init_seed=0)
        features = gaussian(new_rng(22), (2 * step + 1, 6, input_dim))
        real, sizes = wlat.model.forward_cached, []

        def recording(model, chunk, *args, **kwargs):
            sizes.append(len(chunk))  # list.append is atomic under the GIL
            return real(model, chunk, *args, **kwargs)

        in_turn = [real(model, features[start : start + step], INFER).z
                   for start in range(0, len(features), step)]
        monkeypatch.setattr(wlat.model, "forward_cached", recording)
        scores = predict_scores(model, features)
        assert sorted(sizes) == [1, step, step]
        assert scores.tobytes() == np.concatenate(in_turn).tobytes()

    def test_predict_scores_takes_each_chunk_once_under_fast_switching(self, monkeypatch):
        # 400-frame clips make one-clip chunks; a thread switch every microsecond puts a lost
        # or repeated take of the shared queue within reach of one call
        model = toy_model()
        features = gaussian(new_rng(21), (300, INFER_CHUNK_ROWS, 4))
        features[:, 0, 0] = np.arange(300)  # each chunk's first value names it
        real, taken = wlat.model.forward_cached, []

        def recording(model, chunk, *args, **kwargs):
            taken.append(int(chunk[0, 0, 0]))  # list.append is atomic under the GIL
            return real(model, chunk, *args, **kwargs)

        in_turn = np.concatenate([real(model, clip[None], INFER).z for clip in features])
        monkeypatch.setattr(wlat.model, "forward_cached", recording)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            scores = predict_scores(model, features)
        finally:
            sys.setswitchinterval(interval)
        assert sorted(taken) == list(range(300))
        assert scores.tobytes() == in_turn.tobytes()

    def test_float32_features_score_as_their_float64_widening(self):
        model = toy_model()
        n_clips = 5 * INFER_CHUNK_ROWS // (2 * 6) + 1
        features = gaussian(new_rng(15), (n_clips, 6, 4)).astype(np.float32)
        scores = predict_scores(model, features)
        assert scores.tobytes() == predict_scores(model, features.astype(np.float64)).tobytes()

    def test_predict_scores_memory_is_one_chunk(self):
        hidden, n_frames = 32, 10
        model = build_model(parse_arch("2-A-1-A", hidden_units=hidden, n_classes=8), 16, 0)
        # the byte unit is a 1000-row layer output, a fixed size whatever the
        # chunk size; the data set holds eight units per activation
        unit = 1000 * hidden * 8
        features = gaussian(new_rng(14), (8 * 1000 // n_frames, n_frames, 16))
        # float32 features guard against widening the whole set at once
        for clips in (features, features.astype(np.float32)):
            peaks = []
            for _ in range(5):  # the two threads' peaks coincide in some calls only
                tracemalloc.start()
                try:
                    predict_scores(model, clips)
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
            # a few live activations of two chunks, not a cache of the whole set
            assert max(peaks) < 8 * unit, clips.dtype
            # ReLU runs in place on the batch-norm output and each activation is
            # freed once the next exists, so at most two per thread are live at a time;
            # 360-row chunks measured at most 2.24 units over 80 calls (400-row ones 2.39)
            assert max(peaks) < 2.3 * unit, clips.dtype

    def test_infer_memory_does_not_grow_with_the_levels(self):
        # The byte unit is one level's (rows x classes) attention weights.  An
        # infer-mode forward frees each level's weights with its other
        # temporaries, so a level adds only its (clips x classes) output.
        n_classes = 256
        unit = 1000 * n_classes * 8
        features = gaussian(new_rng(17), (100, 10, 16))
        peaks = {}
        for arch in ("3-A", "1-A-1-A-1-A"):
            model = build_model(parse_arch(arch, hidden_units=16, n_classes=n_classes), 16, 0)
            tracemalloc.start()
            try:
                forward_cached(model, features, INFER)
                peaks[arch] = tracemalloc.get_traced_memory()[1] / unit
            finally:
                tracemalloc.stop()
        assert peaks["1-A-1-A-1-A"] < 4.0, peaks
        assert peaks["1-A-1-A-1-A"] - peaks["3-A"] < 0.5, peaks

    def test_infer_forward_pools_each_head_in_place(self):
        # The byte unit is one (rows x classes) map of a 360-row chunk whose 256 classes
        # outnumber its 16 hidden units.  Each head makes its frame probabilities (whose
        # sigmoid briefly adds a unit and a boolean eighth), then its attention weights,
        # and writes their product over the frame probabilities: two maps, where a third
        # for the product measured 3.38 units.  2.38 are measured; the bound leaves 0.42.
        n_classes = 256
        unit = 360 * n_classes * 8
        features = gaussian(new_rng(23), (36, 10, 16))
        model = build_model(parse_arch("2-A-1-A", hidden_units=16, n_classes=n_classes), 16, 0)
        tracemalloc.start()
        try:
            forward_cached(model, features, INFER)
            peak = tracemalloc.get_traced_memory()[1] / unit
        finally:
            tracemalloc.stop()
        assert peak < 2.8, peak

    def test_train_memory_keeps_no_dropout_mask(self):
        # The byte unit is one hidden layer's (rows x width) output.  A
        # train-mode pass keeps each layer's dense output and its output after
        # ReLU and dropout; the next layer's input is that output, and the
        # dropout rate is one number, so each layer retains two units.  Every
        # architecture here has three hidden layers.
        hidden, n_clips, n_frames = 256, 40, 10
        unit = n_clips * n_frames * hidden * 8
        features = gaussian(new_rng(18), (n_clips, n_frames, 16))
        retained = {}
        for arch in ("2-A-1-A", "3-A", "1-A-1-A-1-A"):
            model = build_model(parse_arch(arch, hidden_units=hidden, n_classes=2), 16, 0)
            tracemalloc.start()
            try:
                fwd = forward_cached(model, features, TRAIN, new_rng(19), 0.4)
                retained[arch] = tracemalloc.get_traced_memory()[0] / (unit * 3)
                del fwd  # freed before the next model is built
            finally:
                tracemalloc.stop()
        assert max(retained.values()) < 2.5, retained

    def test_predict_scores_refuses_a_score_that_is_not_finite(self):
        model = toy_model()
        model.arrays["block0.layer0.weight"][...] = 1.7e308  # finite, so a valid checkpoint
        # clips of zeros score finitely; the first overflowing clip lies in the second chunk
        n_clips = INFER_CHUNK_ROWS // 6 + 20
        features = np.zeros((n_clips, 6, 4))
        features[n_clips - 5 :] = 1.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^clip {n_clips - 5} of {n_clips} has a score"
                                                 " that is not finite$"):
                predict_scores(model, features)
            assert np.isfinite(predict_scores(model, features[: n_clips - 5])).all()

    def test_predict_scores_leaves_no_thread_behind(self):
        model = toy_model()
        features = gaussian(new_rng(16), (INFER_CHUNK_ROWS // 6 + 20, 6, 4))  # two chunks
        before = threading.active_count()
        predict_scores(model, features)
        assert threading.active_count() == before
        model.arrays["block0.layer0.weight"][...] = 1.7e308  # every clip now scores NaN
        with pytest.raises(ValueError, match="^clip 0 of"):
            predict_scores(model, features)
        assert threading.active_count() == before

    def test_predict_scores_stops_within_a_chunk_of_an_error(self, monkeypatch):
        model = toy_model()
        features = gaussian(new_rng(18), (10 * (INFER_CHUNK_ROWS // 6), 6, 4))  # ten chunks
        real, calls, made = wlat.model.forward_cached, itertools.count(1), []

        def third_call_fails(*args, **kwargs):
            made.append(call := next(calls))
            if call == 3:
                raise MemoryError
            return real(*args, **kwargs)

        monkeypatch.setattr(wlat.model, "forward_cached", third_call_fails)
        before = threading.active_count()
        with pytest.raises(MemoryError):
            predict_scores(model, features)
        # the chunk the other thread holds may be scored, and no chunk is taken after the failure
        assert len(made) <= 4
        assert threading.active_count() == before

    def test_a_failure_on_the_helper_threads_chunk_reaches_the_caller(self, monkeypatch):
        model = toy_model()
        features = gaussian(new_rng(20), (10 * STEP, 6, 4))  # ten chunks
        real, caller, made = wlat.model.forward_cached, threading.current_thread(), []
        lock, error = threading.Lock(), MemoryError("helper chunk")
        holding, failed = threading.Event(), threading.Event()

        def helper_fails(*args, **kwargs):
            on_helper = threading.current_thread() is not caller
            with lock:
                made.append(on_helper)
            if on_helper:  # fails once the caller holds a chunk
                assert holding.wait(timeout=30)
                failed.set()
                raise error
            # the caller holds its chunk until the helper's has failed, and a while longer
            holding.set()
            assert failed.wait(timeout=30)
            time.sleep(0.2)
            return real(*args, **kwargs)

        monkeypatch.setattr(wlat.model, "forward_cached", helper_fails)
        before = threading.enumerate()
        with pytest.raises(MemoryError) as raised:
            predict_scores(model, features)
        assert raised.value is error
        # the caller finished the chunk it held, and neither thread took another
        assert sorted(made) == [False, True]
        assert threading.enumerate() == before

    def test_helper_thread_keeps_the_callers_error_handling(self):
        # the last head's classification map overflows to +-inf, on the helper thread too;
        # the sigmoid maps that to 0 or 1, so the scores are finite and nothing is warned of
        model = toy_model()
        weight = model.heads[1].cls_dense.weight
        weight[...] = 1.7e308
        weight[::2] *= -1.0
        checkpoint = io.BytesIO()
        save_weights(model, checkpoint)  # finite, so a valid checkpoint
        loaded = load_weights(io.BytesIO(checkpoint.getvalue()))
        features = gaussian(new_rng(17), (INFER_CHUNK_ROWS // 6 + 20, 6, 4))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.isfinite(predict_scores(loaded, features)).all()


class TestBackward:
    def test_infer_cache_retains_nothing_and_is_rejected(self):
        model = toy_model()
        fwd = forward_cached(model, gaussian(new_rng(9), (4, 6, 4)), INFER)
        assert fwd.u is None and fwd.levels == []
        with pytest.raises(ValueError, match="train-mode forward"):
            backward(model, fwd, np.zeros((4, 3)))

    @pytest.mark.parametrize("arch", PRESET_ARCHS)
    def test_gradients_come_in_parameter_order(self, arch):
        model = toy_model(arch)
        fwd = forward_cached(model, gaussian(new_rng(9), (4, 6, 4)), TRAIN)
        grads = backward(model, fwd, gaussian(new_rng(10), (4, 3)))
        params = model.trainable_params()
        assert list(grads) == list(params)
        assert [g.shape for g in grads.values()] == [p.shape for p in params.values()]

    def test_grad_z_of_another_shape_is_refused(self):
        model = toy_model()
        fwd = forward_cached(model, gaussian(new_rng(9), (4, 6, 4)), TRAIN)
        with pytest.raises(ValueError) as err:
            backward(model, fwd, np.zeros((4, 2)))
        assert str(err.value) == "grad_z shape (4, 2) != (4, 3)"

    def test_a_walked_pass_is_refused_as_consumed(self):
        model = toy_model()
        fwd = forward_cached(model, gaussian(new_rng(9), (4, 6, 4)), TRAIN)
        backward(model, fwd, np.ones((4, 3)))
        # the walk popped every level; the pass keeps its output and level outputs
        assert fwd.levels == [] and fwd.z.shape == (4, 3) and fwd.u.shape == (4, 6)
        with pytest.raises(ValueError) as err:
            backward(model, fwd, np.ones((4, 3)))
        assert str(err.value) == "forward pass holds 0 of 2 levels: a backward has consumed its cache"

    def test_a_pass_left_partial_by_a_failed_backward_is_refused(self, monkeypatch):
        model = toy_model("1-A-1-A-1-A")
        fwd = forward_cached(model, gaussian(new_rng(9), (4, 6, 4)), TRAIN)
        real, calls = wlat.model.backward_batch, itertools.count(1)

        def second_level_fails(*args):
            if next(calls) == 2:
                raise MemoryError
            return real(*args)

        monkeypatch.setattr(wlat.model, "backward_batch", second_level_fails)
        with pytest.raises(MemoryError):
            backward(model, fwd, np.ones((4, 3)))
        monkeypatch.undo()
        with pytest.raises(ValueError) as err:
            backward(model, fwd, np.ones((4, 3)))
        assert str(err.value) == "forward pass holds 1 of 3 levels: a backward has consumed its cache"

    def test_train_step_memory_frees_what_backward_has_used(self):
        # The byte unit is one level's (rows x classes) attention weights, at
        # eight classes per hidden unit, so the heads' maps and their backward
        # temporaries dominate.  A train forward retains 5.26 units here.
        # backward pops each level once used, and the head backward keeps
        # four of these arrays alive at once: the step peaks at 10.32 units,
        # against 12.83 when backward held every level to its end and the
        # head backward made one temporary per step.
        hidden, n_classes, n_clips, n_frames = 16, 128, 40, 10
        unit = n_clips * n_frames * n_classes * 8
        model = build_model(parse_arch("2-A-1-A", hidden, n_classes), 16, 0)
        features = gaussian(new_rng(22), (n_clips, n_frames, 16))
        targets = (new_rng(23).random((n_clips, n_classes)) < 0.3).astype(np.float64)
        tracemalloc.start()
        try:
            fwd = forward_cached(model, features, TRAIN, new_rng(24), 0.4)
            backward(model, fwd, bce_loss(fwd.z, targets)[1])
            peak = tracemalloc.get_traced_memory()[1] / unit
        finally:
            tracemalloc.stop()
        assert peak < 11.5, peak

    def test_zero_grad_gives_zero_everywhere(self):
        model = toy_model()
        features = gaussian(new_rng(9), (4, 6, 4))
        fwd = forward_cached(model, features, TRAIN)
        grads = backward(model, fwd, np.zeros((4, 3)))
        assert set(grads) == set(model.trainable_params())
        assert all(not g.any() for g in grads.values())

    def test_output_bias_gradient_is_column_sum(self):
        model = toy_model()
        features = gaussian(new_rng(10), (4, 6, 4))
        fwd = forward_cached(model, features, TRAIN)
        grad_z = gaussian(new_rng(11), (4, 3))
        grads = backward(model, fwd, grad_z)
        expected = (grad_z * fwd.z * (1.0 - fwd.z)).sum(axis=0)
        assert np.allclose(grads["out.bias"], expected, atol=1e-12)

    @pytest.mark.parametrize("arch", PRESET_ARCHS)
    def test_finite_differences_all_presets(self, preset_grad_checks, arch):
        checks, _ = preset_grad_checks
        error, restored = checks[arch]
        assert error < 1e-4, f"{arch}: {error:.3e}"
        assert restored

    @pytest.mark.parametrize(("arch", "rate"), [*((a, 0.4) for a in PRESET_ARCHS),
                                                 ("2-A-1-A", 0.9), ("3-A", 0.9)])
    def test_finite_differences_with_dropout(self, arch, rate):
        # every forward draws its masks from a fresh new_rng(7), so all of
        # them drop the same units and the loss is a function of the weights;
        # deep presets at rate 0.9 cross ReLU kinks at this width, so are left out
        model = toy_model(arch)
        rng = new_rng(1)
        features = gaussian(rng, (3, 2, 4))
        targets = (rng.random((3, 3)) < 0.5).astype(np.float64)

        def forward():
            return forward_cached(model, features, TRAIN, new_rng(7), rate)

        fwd = forward()
        analytic = backward(model, fwd, bce_loss(fwd.z, targets)[1])
        error = nn.grad_check(lambda: bce_loss(forward().z, targets)[0],
                              model.trainable_params(), analytic)
        assert error < 1e-4, f"{arch} at {rate}: {error:.3e}"

    @pytest.mark.parametrize("fails_on_call", [1, 5])
    def test_grad_check_restores_the_model_when_the_loss_raises(self, fails_on_call):
        # the first call scores the analytic pass; the fifth perturbs
        # block0.layer0.weight in the finite-difference loop
        model = toy_model()
        features = gaussian(new_rng(1), (3, 2, 4))
        before = model.copy_state()
        calls = []

        def loss_on_z(z):
            calls.append(None)
            if len(calls) == fails_on_call:
                raise ValueError("loss failed")
            return bce_loss(z, np.zeros_like(z))

        with pytest.raises(ValueError, match="^loss failed$"):
            model_grad_check(model, features, loss_on_z)
        for name, arr in before.items():
            assert model.arrays[name].tobytes() == arr.tobytes(), name


class TestWeightFiles:
    def test_round_trip_is_bitwise(self):
        model = toy_model(seed=21)
        forward_cached(model, gaussian(new_rng(22), (6, 4, 4)), TRAIN)
        buffer = io.BytesIO()
        save_weights(model, buffer)
        buffer.seek(0)
        loaded = load_weights(buffer, model.spec)
        for name, arr in model.arrays.items():
            assert np.array_equal(arr, loaded.arrays[name]), name

    def test_reserialization_is_identical(self):
        model = toy_model(seed=23)
        first = io.BytesIO()
        save_weights(model, first)
        first.seek(0)
        loaded = load_weights(first, model.spec)
        second = io.BytesIO()
        save_weights(loaded, second)
        assert first.getvalue() == second.getvalue()

    def test_bad_magic_rejected(self):
        blob = io.BytesIO(b"XXXX" + b"\x00" * 64)
        with pytest.raises(WeightFormatError, match="magic"):
            load_weights(blob, toy_model().spec)

    def test_spec_mismatch_rejected(self):
        model = toy_model(seed=24)
        buffer = io.BytesIO()
        save_weights(model, buffer)
        buffer.seek(0)
        other = parse_arch("2-A-1-A", hidden_units=6, n_classes=3)
        with pytest.raises(WeightFormatError, match="expected") as info:
            load_weights(buffer, other)
        assert "hidden_units=5" in str(info.value) and "hidden_units=6" in str(info.value)

    def test_truncated_stream_rejected(self):
        model = toy_model(seed=25)
        buffer = io.BytesIO()
        save_weights(model, buffer)
        blob = buffer.getvalue()
        with pytest.raises(WeightFormatError, match="truncated"):
            load_weights(io.BytesIO(blob[: len(blob) - 9]), model.spec)

    def test_trailing_bytes_rejected(self):
        model = toy_model(seed=26)
        buffer = io.BytesIO()
        save_weights(model, buffer)
        with pytest.raises(WeightFormatError, match="trailing"):
            load_weights(io.BytesIO(buffer.getvalue() + b"\x00"), model.spec)

    @pytest.mark.parametrize("arch", PRESET_ARCHS)
    def test_header_alone_describes_the_model(self, arch):
        model = toy_model(arch, input_dim=7, seed=29)
        buffer = io.BytesIO()
        save_weights(model, buffer)
        buffer.seek(0)
        loaded = load_weights(buffer)
        assert loaded.spec == model.spec
        assert loaded.input_dim == 7
        for name, arr in model.arrays.items():
            assert np.array_equal(arr, loaded.arrays[name]), name

    def test_bytes_match_the_version_one_layout(self):
        model = build_model(parse_arch("2-A-1-A", **TOY), 4, init_seed=3)
        buffer = io.BytesIO()
        assert save_weights(model, buffer) == 1936
        digest = hashlib.sha256(buffer.getvalue()).hexdigest()
        assert digest == "f47bf36ea6b0da62bc09ecc935e431a6325cf0b005776e2bdb90999705083f33"

    @pytest.mark.parametrize("arch", PRESET_ARCHS)
    def test_arrays_are_consecutive_views_of_state_and_state_is_the_payload(self, arch):
        built = toy_model(arch, input_dim=7, seed=36)
        sink = io.BytesIO()
        save_weights(built, sink)
        spec = built.spec
        header = WEIGHTS_MAGIC + struct.pack(f"<{spec.n_levels + 5}I", 1, spec.n_levels,
                                             *spec.block_depths, 5, 3, 7)
        assert sink.getvalue() == header + built.state.tobytes()
        for model in (built, load_weights(io.BytesIO(sink.getvalue()))):
            state = model.state
            assert state.dtype == np.dtype("<f8") and state.ndim == 1 and state.flags.owndata
            base, used = state.ctypes.data, 0
            for name, arr in model.arrays.items():
                assert arr.base is state and arr.flags.c_contiguous, name
                assert arr.ctypes.data == base + 8 * used, name
                used += arr.size
            assert used == state.size

    def test_load_peaks_near_one_state(self, tmp_path):
        # at the parent, the file's bytes were held beside the model: 2.02x
        model = build_model(parse_arch("2-A-1-A", hidden_units=128, n_classes=64), 32, 37)
        path = tmp_path / "model.wlam"
        with open(path, "wb") as sink:
            save_weights(model, sink)
        with open(path, "rb") as source:
            tracemalloc.start()
            try:
                loaded = load_weights(source)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert loaded.state.tobytes() == model.state.tobytes()
        assert peak < 1.3 * loaded.state.nbytes, peak / loaded.state.nbytes

    def test_save_peaks_below_a_quarter_of_the_largest_array(self):
        # at the parent, every array was copied to bytes before it was written
        model = build_model(parse_arch("2-A-1-A", hidden_units=128, n_classes=64), 32, 38)
        largest = max(arr.nbytes for arr in model.arrays.values())
        with open(os.devnull, "wb") as sink:
            tracemalloc.start()
            try:
                written = save_weights(model, sink)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert written == 32 + model.state.nbytes  # a two-level header is 8 u32s
        assert peak < largest / 4, peak / largest

    def test_a_short_read_is_a_truncated_stream(self):
        class ShrankWhileRead(io.BytesIO):
            def readinto(self, buffer):
                return super().readinto(memoryview(buffer).cast("B")[:-8])

        buffer = io.BytesIO()
        save_weights(toy_model(), buffer)
        with pytest.raises(WeightFormatError, match="^truncated weight stream: "):
            load_weights(ShrankWhileRead(buffer.getvalue()))

    def test_a_stream_that_cannot_seek_raises_its_own_error(self):
        buffer = io.BytesIO()
        save_weights(toy_model(), buffer)
        read_end, write_end = os.pipe()
        os.write(write_end, buffer.getvalue())  # 1936 bytes, well inside a pipe's buffer
        os.close(write_end)
        with open(read_end, "rb") as source, pytest.raises(OSError) as info:
            load_weights(source)
        assert info.value.errno == errno.ESPIPE

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_rejected_naming_its_array(self, value):
        model = toy_model(seed=30)
        buffer = io.BytesIO(checkpoint_with(model, "block1.layer0.running_var", 2, value))
        with pytest.raises(WeightFormatError) as info:
            load_weights(buffer)
        assert str(info.value) == "non-finite value in block1.layer0.running_var"

    @pytest.mark.parametrize("name,value,message", [
        ("out.bias", np.nan, "non-finite value in out.bias"),
        ("block0.layer0.running_var", -1.0,
         "negative batch-norm variance in block0.layer0.running_var"),
    ], ids=["nan", "negative-variance"])
    def test_save_refuses_what_load_refuses_before_writing(self, name, value, message):
        model = toy_model(seed=32)
        model.arrays[name][0] = value
        sink = io.BytesIO()
        with pytest.raises(WeightFormatError) as info:
            save_weights(model, sink)
        assert str(info.value) == message
        assert sink.getvalue() == b""

    # One value of one array: non-finite, a negative or a signed-zero variance, subnormal
    # and extreme values, or any float64.
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_a_saved_checkpoint_loads_back_bitwise_or_is_refused(self, data):
        model = toy_model(seed=31)
        params = model.arrays
        name = data.draw(st.sampled_from(sorted(params)), label="array")
        index = data.draw(st.integers(0, params[name].size - 1), label="index")
        params[name].flat[index] = data.draw(
            st.sampled_from([np.nan, np.inf, -np.inf, -1.0, -5e-324, -0.0, 5e-324, 1.8e308])
            | st.floats(), label="value")
        sink = io.BytesIO()
        try:
            save_weights(model, sink)
        except WeightFormatError as err:
            assert str(err).endswith(f" in {name}") and sink.getvalue() == b""
            return
        loaded = load_weights(io.BytesIO(sink.getvalue())).arrays
        for key, arr in params.items():
            assert loaded[key].tobytes() == arr.tobytes(), key

    def test_header_input_dim_zero_rejected(self):
        buffer = io.BytesIO()
        save_weights(toy_model(), buffer)
        blob = bytearray(buffer.getvalue())
        # header: magic, version, n_levels=2, two depths, hidden_units, n_classes, input_dim
        struct.pack_into("<I", blob, 28, 0)
        with pytest.raises(WeightFormatError, match="header input_dim must be >= 1"):
            load_weights(io.BytesIO(bytes(blob)))

    # header: magic, version, n_levels=2 (offset 8), two depths (12, 16), hidden_units (20),
    # n_classes (24), input_dim (28)
    @pytest.mark.parametrize("offset", [8, 12, 20, 24],
                             ids=["n-levels", "first-depth", "hidden-units", "n-classes"])
    def test_header_invalid_architecture_rejected(self, offset):
        buffer = io.BytesIO()
        save_weights(toy_model(), buffer)
        blob = bytearray(buffer.getvalue())
        struct.pack_into("<I", blob, offset, 0)
        with pytest.raises(WeightFormatError, match="bad architecture in header"):
            load_weights(io.BytesIO(bytes(blob)))

    # A loader that allocated before checking sizes would peak near 2 MB at
    # 300 units, so the bound catches it without risking a huge allocation.
    @pytest.mark.parametrize("hidden", [300, 2**31])
    def test_oversized_header_fails_before_allocating(self, hidden):
        buffer = io.BytesIO()
        save_weights(toy_model(), buffer)
        blob = bytearray(buffer.getvalue())
        # header: magic, version, n_levels=2, two depths, then hidden_units
        struct.pack_into("<I", blob, 20, hidden)
        tracemalloc.start()
        try:
            with pytest.raises(WeightFormatError, match="truncated"):
                load_weights(io.BytesIO(bytes(blob)))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_corrupted_bytes_raise_only_format_errors(self, data):
        buffer = io.BytesIO()
        save_weights(toy_model(), buffer)
        blob = bytearray(buffer.getvalue())
        if data.draw(st.booleans(), label="truncate"):
            blob = blob[: data.draw(st.integers(0, len(blob) - 1), label="length")]
        else:
            for bit in data.draw(st.lists(st.integers(0, 8 * 64 - 1), min_size=1, max_size=4)):
                blob[bit // 8] ^= 1 << (bit % 8)
        try:
            load_weights(io.BytesIO(bytes(blob)))
        except WeightFormatError:
            pass

    def test_zero_running_variance_is_accepted(self):
        model = toy_model(seed=33)
        model.arrays["block0.layer0.running_var"][0] = 0.0
        buffer = io.BytesIO()
        save_weights(model, buffer)
        loaded = load_weights(io.BytesIO(buffer.getvalue()))
        assert loaded.arrays["block0.layer0.running_var"][0] == 0.0

    def test_one_input_feature_builds_saves_loads_and_scores(self):
        model = toy_model(input_dim=1, seed=34)
        features = gaussian(new_rng(35), (5, 4, 1))
        buffer = io.BytesIO()
        save_weights(model, buffer)
        loaded = load_weights(io.BytesIO(buffer.getvalue()))
        assert loaded.input_dim == 1
        scores = predict_scores(loaded, features)
        assert scores.shape == (5, 3)
        assert scores.tobytes() == predict_scores(model, features).tobytes()

    def test_loaded_model_predicts_identically(self):
        model = toy_model(seed=27)
        features = gaussian(new_rng(28), (5, 4, 4))
        buffer = io.BytesIO()
        save_weights(model, buffer)
        buffer.seek(0)
        loaded = load_weights(buffer, model.spec)
        assert np.array_equal(predict_scores(model, features), predict_scores(loaded, features))
