"""Architecture grammar, multi-level assembly, gradients, and weight files."""

import hashlib
import io
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wlat import nn
from wlat.model import (
    PRESET_ARCHS,
    ArchSpec,
    WeightFormatError,
    backward,
    build_model,
    forward,
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

TOY = dict(hidden_units=5, n_classes=3)


def toy_model(arch="2-A-1-A", input_dim=4, seed=0, dropout_rate=0.0):
    spec = parse_arch(arch, **TOY)
    return build_model(spec, input_dim, init_seed=seed, dropout_rate=dropout_rate)


class TestParseArch:
    def test_single_level(self):
        spec = parse_arch("3-A")
        assert spec.block_depths == (3,)
        assert spec.hidden_units == 600
        assert spec.n_classes == 527

    def test_two_levels(self):
        assert parse_arch("2-A-1-A").block_depths == (2, 1)

    def test_three_levels(self):
        assert parse_arch("2-A-2-A-2-A").block_depths == (2, 2, 2)

    @pytest.mark.parametrize("text", PRESET_ARCHS)
    def test_presets_all_parse(self, text):
        spec = parse_arch(text)
        assert spec.n_levels == text.count("A")

    def test_error_reports_position(self):
        with pytest.raises(ValueError, match="position 2"):
            parse_arch("3-B")

    @pytest.mark.parametrize("text", ["", "A", "3", "3-A-2", "3-A-A", "-3-A", "3--A"])
    def test_malformed_strings_rejected(self, text):
        with pytest.raises(ValueError):
            parse_arch(text)

    def test_zero_depth_rejected(self):
        with pytest.raises(ValueError):
            parse_arch("0-A")

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            ArchSpec((), 600, 527)
        with pytest.raises(ValueError):
            ArchSpec((1,), 0, 527)
        with pytest.raises(ValueError):
            ArchSpec((1,), 600, 0)


class TestBuild:
    def test_single_level_structure(self):
        spec = parse_arch("3-A")
        model = build_model(spec, input_dim=128, init_seed=0)
        assert len(model.blocks) == 1
        assert len(model.blocks[0]) == 3
        assert len(model.heads) == 1
        assert model.out.weight.shape == (527, 527)
        assert model.blocks[0][0].dense.weight.shape == (128, 600)
        assert model.blocks[0][1].dense.weight.shape == (600, 600)

    def test_multi_level_output_width(self):
        spec = parse_arch("2-A-1-A")
        model = build_model(spec, input_dim=64, init_seed=0)
        assert model.out.weight.shape == (2 * 527, 527)
        assert model.blocks[1][0].dense.weight.shape == (600, 600)

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

    @pytest.mark.parametrize("rate", [-0.5, 1.0, 1.5, float("nan")])
    def test_dropout_rate_outside_unit_interval_rejected(self, rate):
        with pytest.raises(ValueError, match="dropout rate"):
            toy_model(dropout_rate=rate)

    def test_trainables_are_state_without_running_stats(self):
        model = toy_model()
        state = model.state_params()
        trainable = model.trainable_params()
        expected = [n for n in state if not n.endswith(("running_mean", "running_var"))]
        assert list(trainable) == expected
        assert len(state) - len(trainable) == 2 * 3  # three hidden layers
        assert all(trainable[n] is state[n] for n in trainable)


class TestForward:
    def test_single_level_concat_is_identity(self):
        model = toy_model("3-A")
        features = gaussian(new_rng(1), (4, 6, 4))
        pred = forward(model, features)
        assert np.array_equal(pred.u, pred.level_y[0])

    def test_output_shapes_and_range(self):
        model = toy_model("2-A-1-A")
        features = gaussian(new_rng(2), (5, 6, 4))
        pred = forward(model, features)
        assert pred.z.shape == (5, 3)
        assert pred.u.shape == (5, 6)
        assert pred.n_levels == 2
        assert all(y.shape == (5, 3) for y in pred.level_y)
        assert all(att.shape == (5, 6, 3) for att in pred.level_att)
        assert ((pred.z > 0.0) & (pred.z < 1.0)).all()

    def test_infer_is_deterministic(self):
        model = toy_model()
        features = gaussian(new_rng(3), (4, 6, 4))
        first = forward(model, features)
        second = forward(model, features)
        assert np.array_equal(first.z, second.z)

    def test_frame_permutation_leaves_scores_unchanged(self):
        model = toy_model("2-A-1-A")
        features = gaussian(new_rng(4), (3, 8, 4))
        perm = new_rng(5).permutation(8)
        base = forward(model, features)
        permuted = forward(model, features[:, perm, :])
        assert np.max(np.abs(base.z - permuted.z)) < 1e-12

    def test_bad_feature_shape_rejected(self):
        model = toy_model()
        with pytest.raises(ValueError):
            forward(model, np.zeros((4, 6)))
        with pytest.raises(ValueError):
            forward(model, np.zeros((4, 6, 9)))

    def test_dropout_needs_rng_in_train_mode(self):
        model = toy_model(dropout_rate=0.4)
        features = gaussian(new_rng(7), (4, 6, 4))
        with pytest.raises(ValueError, match="rng"):
            forward(model, features, TRAIN)

    def test_predict_scores_matches_unchunked_forward(self):
        model = toy_model()
        features = gaussian(new_rng(8), (7, 6, 4))
        scores = predict_scores(model, features, chunk_size=3)
        assert np.array_equal(scores, forward(model, features, INFER).z)


class TestBackward:
    def test_zero_grad_gives_zero_everywhere(self):
        model = toy_model()
        features = gaussian(new_rng(9), (4, 6, 4))
        _, cache = forward_cached(model, features, TRAIN, update_running=False)
        grads = backward(model, cache, np.zeros((4, 3)))
        assert set(grads) == set(model.trainable_params())
        assert all(not g.any() for g in grads.values())

    def test_output_bias_gradient_is_column_sum(self):
        model = toy_model()
        features = gaussian(new_rng(10), (4, 6, 4))
        pred, cache = forward_cached(model, features, TRAIN, update_running=False)
        grad_z = gaussian(new_rng(11), (4, 3))
        grads = backward(model, cache, grad_z)
        expected = (grad_z * pred.z * (1.0 - pred.z)).sum(axis=0)
        assert np.allclose(grads["out.bias"], expected, atol=1e-12)

    @pytest.mark.parametrize("arch", PRESET_ARCHS)
    def test_finite_differences_all_presets(self, arch):
        spec = parse_arch(arch, **TOY)
        model = build_model(spec, input_dim=4, init_seed=0, dropout_rate=0.0)
        features = gaussian(new_rng(12), (3, 2, 4))
        targets = (gaussian(new_rng(13), (3, 3)) > 0.0).astype(float)
        error = model_grad_check(model, features, lambda z: bce_loss(z, targets))
        assert error < 1e-4, f"{arch}: {error:.3e}"

    def test_grad_check_rejects_dropout(self):
        model = toy_model(dropout_rate=0.4)
        features = gaussian(new_rng(14), (3, 2, 4))
        with pytest.raises(ValueError, match="dropout"):
            model_grad_check(model, features, lambda z: bce_loss(z, np.zeros((3, 3))))


class TestWeightFiles:
    def test_round_trip_is_bitwise(self):
        model = toy_model(seed=21)
        rng = new_rng(22)
        forward(model, gaussian(rng, (6, 4, 4)), TRAIN, rng=rng)
        buffer = io.BytesIO()
        save_weights(model, buffer)
        buffer.seek(0)
        loaded = load_weights(buffer, model.spec, dropout_rate=0.0)
        for name, arr in model.state_params().items():
            assert np.array_equal(arr, loaded.state_params()[name]), name

    def test_reserialization_is_identical(self):
        model = toy_model(seed=23)
        first = io.BytesIO()
        save_weights(model, first)
        first.seek(0)
        loaded = load_weights(first, model.spec, dropout_rate=0.0)
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
        for name, arr in model.state_params().items():
            assert np.array_equal(arr, loaded.state_params()[name]), name

    def test_bytes_match_the_version_one_layout(self):
        model = build_model(parse_arch("2-A-1-A", **TOY), 4, init_seed=3)
        buffer = io.BytesIO()
        assert save_weights(model, buffer) == 1936
        digest = hashlib.sha256(buffer.getvalue()).hexdigest()
        assert digest == "f47bf36ea6b0da62bc09ecc935e431a6325cf0b005776e2bdb90999705083f33"

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

    def test_loaded_model_predicts_identically(self):
        model = toy_model(seed=27)
        features = gaussian(new_rng(28), (5, 4, 4))
        buffer = io.BytesIO()
        save_weights(model, buffer)
        buffer.seek(0)
        loaded = load_weights(buffer, model.spec, dropout_rate=0.0)
        assert np.array_equal(predict_scores(model, features), predict_scores(loaded, features))
