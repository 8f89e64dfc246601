import json
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from changepoint_rul.errors import ConfigError, IntegrityError, NumericError, ShapeError
from changepoint_rul.labeling import WindowedDataset
from changepoint_rul.lstm import (
    LstmLayer,
    TrainConfig,
    adam_step,
    _forward_batch,
    clip_gradients,
    init_regressor,
    iter_parameters,
    load_checkpoint,
    loss_and_gradients,
    predict,
    predict_batch,
    rmsprop_step,
    save_checkpoint,
    train,
)


def set_all(model, value):
    for _, arr in iter_parameters(model):
        arr[...] = value


def as_float32(model):
    layers = [
        LstmLayer(*(a.astype(np.float32) for a in (layer.wx, layer.wh, layer.b)))
        for layer in model.layers
    ]
    return replace(
        model,
        layers=layers,
        head_w=model.head_w.astype(np.float32),
        head_b=model.head_b.astype(np.float32),
    )


def linear_task(n=200, length=10, channels=3, seed=0, slope=20.0):
    """Learnable synthetic windows: target is a linear readout of the mean level."""
    rng = np.random.default_rng(seed)
    levels = rng.uniform(0.0, 1.0, size=n)
    windows = np.empty((n, length, channels))
    for i in range(n):
        base = np.linspace(levels[i], levels[i] + 0.2, length)[:, None]
        windows[i] = base + rng.normal(scale=0.05, size=(length, channels))
    targets = slope * levels
    return WindowedDataset(
        windows=windows,
        targets=targets,
        units=np.zeros(n, dtype=int),
        end_cycles=np.arange(n),
    )


class TestForward:
    def test_zero_parameters_emit_head_bias(self):
        model = init_regressor(3, (4, 2), (0.0,), seed=0)
        set_all(model, 0.0)
        model.head_b[0] = 7.5
        yhat = predict(model, np.ones((6, 3)))
        assert yhat == 7.5

    def test_zero_dropout_training_equals_inference(self):
        model = init_regressor(3, (5, 4), (0.0,), seed=1)
        window = np.random.default_rng(2).normal(size=(8, 3))
        y_train, _ = _forward_batch(model, window[None], True, np.random.default_rng(0))
        y_infer, _ = _forward_batch(model, window[None], False, None)
        assert y_train[0] == y_infer[0]

    def test_single_cell_hand_computed(self):
        model = init_regressor(1, (1,), (), seed=0)
        set_all(model, 0.5)
        x = 2.0
        gate = 1.0 / (1.0 + math.exp(-(0.5 * x + 0.5)))
        candidate = math.tanh(0.5 * x + 0.5)
        cell = gate * candidate
        hidden = gate * math.tanh(cell)
        expected = 0.5 * hidden + 0.5
        yhat = predict(model, np.array([[x]]))
        assert yhat == pytest.approx(expected, abs=1e-12)

    def test_two_step_hand_computed(self):
        model = init_regressor(1, (1,), (), seed=0)
        set_all(model, 0.25)
        h = c = 0.0
        for x in (1.0, -0.5):
            z = 0.25 * x + 0.25 * h + 0.25
            gate = 1.0 / (1.0 + math.exp(-z))
            cand = math.tanh(z)
            c = gate * c + gate * cand
            h = gate * math.tanh(c)
        expected = 0.25 * h + 0.25
        yhat = predict(model, np.array([[1.0], [-0.5]]))
        assert yhat == pytest.approx(expected, abs=1e-12)

    def test_shape_errors(self):
        model = init_regressor(3, (4,), (), seed=0)
        with pytest.raises(ShapeError):
            predict(model, np.ones((5, 2)))
        with pytest.raises(ShapeError):
            predict(model, np.ones(5))

    def test_dropout_expectation_matches_inference(self):
        # inverted scaling keeps the training-mode expectation at the
        # inference output; small weights keep the stack near-linear
        model = init_regressor(4, (16, 12), (0.2,), seed=3)
        for name, arr in iter_parameters(model):
            arr *= 0.2
        window = np.random.default_rng(4).normal(size=(6, 4))
        reference = _forward_batch(model, window[None], False, None)[0][0]
        rng = np.random.default_rng(5)
        draws = [_forward_batch(model, window[None], True, rng)[0][0] for _ in range(12000)]
        assert np.mean(draws) == pytest.approx(reference, rel=0.01)


class TestGradients:
    def test_perfect_predictions_zero_head_gradient(self):
        model = init_regressor(2, (3,), (), seed=6)
        windows = np.random.default_rng(7).normal(size=(4, 5, 2))
        targets = np.array([_forward_batch(model, w[None], False, None)[0][0] for w in windows])
        mse, grads = loss_and_gradients(model, windows, targets)
        assert mse == pytest.approx(0.0, abs=1e-20)
        assert np.allclose(grads["head.w"], 0.0)
        assert np.allclose(grads["head.b"], 0.0)

    def test_gradient_check_all_parameters(self):
        rng = np.random.default_rng(8)
        model = init_regressor(6, (4, 3), (0.0,), seed=9)
        windows = rng.normal(size=(3, 5, 6))
        targets = rng.normal(size=3) * 5
        _, grads = loss_and_gradients(model, windows, targets)
        eps = 1e-5
        for name, arr in iter_parameters(model):
            flat = arr.ravel()
            grad = grads[name].ravel()
            for idx in range(flat.size):
                orig = flat[idx]
                flat[idx] = orig + eps
                up, _ = loss_and_gradients(model, windows, targets)
                flat[idx] = orig - eps
                down, _ = loss_and_gradients(model, windows, targets)
                flat[idx] = orig
                fd = (up - down) / (2 * eps)
                denom = max(abs(fd), abs(grad[idx]), 1e-8)
                assert abs(fd - grad[idx]) / denom < 1e-4, f"{name}[{idx}]"

    def test_gradient_check_through_fixed_dropout(self):
        rng = np.random.default_rng(10)
        model = init_regressor(4, (4, 3), (0.3,), seed=11)
        windows = rng.normal(size=(3, 4, 4))
        targets = rng.normal(size=3)

        def evaluate():
            return loss_and_gradients(model, windows, targets, rng=np.random.default_rng(77))

        _, grads = evaluate()
        eps = 1e-5
        for name, arr in iter_parameters(model):
            flat = arr.ravel()
            grad = grads[name].ravel()
            for idx in range(0, flat.size, 5):
                orig = flat[idx]
                flat[idx] = orig + eps
                up, _ = evaluate()
                flat[idx] = orig - eps
                down, _ = evaluate()
                flat[idx] = orig
                fd = (up - down) / (2 * eps)
                denom = max(abs(fd), abs(grad[idx]), 1e-8)
                assert abs(fd - grad[idx]) / denom < 1e-4, f"{name}[{idx}]"

    def test_target_shift_moves_head_bias_gradient(self):
        model = init_regressor(2, (3,), (), seed=12)
        windows = np.random.default_rng(13).normal(size=(8, 4, 2))
        targets = np.random.default_rng(14).normal(size=8)
        _, g1 = loss_and_gradients(model, windows, targets)
        _, g2 = loss_and_gradients(model, windows, targets + 3.0)
        # d(mse)/d(bias) = 2*mean(residual); shifting targets by +3 lowers it by 6
        assert g2["head.b"][0] - g1["head.b"][0] == pytest.approx(-6.0, abs=1e-9)


class TestOptimizers:
    def test_rmsprop_zero_gradient_no_change(self):
        model = init_regressor(2, (3,), (), seed=15)
        params = iter_parameters(model)
        before = {n: a.copy() for n, a in params}
        grads = {n: np.zeros_like(a) for n, a in params}
        rmsprop_step(params, grads, {}, lr=0.1)
        for name, arr in params:
            np.testing.assert_array_equal(arr, before[name])

    def test_rmsprop_first_step_value(self):
        value = np.array([1.0])
        params = [("w", value)]
        grads = {"w": np.array([1.0])}
        rmsprop_step(params, grads, {}, lr=0.001)
        expected = 1.0 - 0.001 / math.sqrt(0.1 + 1e-8)
        assert value[0] == pytest.approx(expected, abs=1e-15)

    def test_rmsprop_constant_gradient_update_approaches_lr(self):
        value = np.array([0.0])
        params = [("w", value)]
        state = {}
        lr = 0.01
        prev = value[0]
        for _ in range(500):
            prev = value[0]
            rmsprop_step(params, grads={"w": np.array([2.0])}, state=state, lr=lr)
        assert abs(prev - value[0]) == pytest.approx(lr, rel=1e-3)

    def test_adam_moves_against_gradient(self):
        value = np.array([1.0])
        params = [("w", value)]
        adam_step(params, {"w": np.array([3.0])}, {}, lr=0.1)
        assert value[0] < 1.0

    def test_clip_gradients_scales_global_norm(self):
        grads = {"a": np.array([3.0, 4.0]), "b": np.array([0.0])}
        total = clip_gradients(grads, 1.0)
        assert total == pytest.approx(5.0)
        new_norm = np.sqrt(sum(np.sum(g * g) for g in grads.values()))
        assert new_norm == pytest.approx(1.0)

    def test_clip_gradients_norm_beyond_float32_squares(self):
        # 3e20**2 overflows float32; the norm is summed in float64
        grads = {"a": np.array([3e20, 4e20], dtype=np.float32), "b": np.ones(1, np.float32)}
        assert clip_gradients(grads, 1.0) == pytest.approx(5e20)
        assert grads["a"].dtype == np.float32
        np.testing.assert_allclose(grads["a"], [0.6, 0.8], rtol=1e-6)


class TestTraining:
    def test_learns_synthetic_linear_task(self):
        ds = linear_task(n=200, length=10)
        cfg = TrainConfig(
            sequence_length=10,
            hidden_sizes=(16, 8),
            dropout_ratios=(0.0,),
            learning_rate=0.01,
            epochs=30,
            batch_size=32,
            seed=0,
        )
        model, history = train(ds, cfg)
        final_rmse = math.sqrt(history[-1])
        target_range = ds.targets.max() - ds.targets.min()
        assert final_rmse < 0.2 * target_range
        assert history[0] > history[-1]

    def test_zero_epochs_returns_initial_model(self):
        ds = linear_task(n=20, length=6)
        cfg = TrainConfig(
            sequence_length=6, hidden_sizes=(4,), dropout_ratios=(), epochs=0, seed=3
        )
        model, history = train(ds, cfg)
        assert history == []
        fresh = init_regressor(3, (4,), (), seed=3, sequence_length=6)
        for (_, a), (_, b) in zip(iter_parameters(model), iter_parameters(fresh)):
            assert a.dtype == np.float32
            np.testing.assert_array_equal(a, b.astype(np.float32))

    def test_loss_decreases_first_epochs_across_seeds(self):
        ds = linear_task(n=100, length=8, seed=1)
        wins = 0
        for seed in range(10):
            cfg = TrainConfig(
                sequence_length=8,
                hidden_sizes=(8,),
                dropout_ratios=(),
                learning_rate=0.005,
                epochs=5,
                batch_size=16,
                seed=seed,
            )
            _, history = train(ds, cfg)
            if all(history[i + 1] < history[i] for i in range(4)):
                wins += 1
        assert wins >= 9

    def test_bitwise_reproducibility(self):
        ds = linear_task(n=60, length=6, seed=2)
        cfg = TrainConfig(
            sequence_length=6,
            hidden_sizes=(6, 4),
            dropout_ratios=(0.1,),
            epochs=3,
            batch_size=16,
            seed=7,
        )
        m1, h1 = train(ds, cfg)
        m2, h2 = train(ds, cfg)
        assert h1 == h2
        for (_, a), (_, b) in zip(iter_parameters(m1), iter_parameters(m2)):
            assert np.array_equal(a, b)

    def test_window_length_mismatch(self):
        ds = linear_task(n=20, length=6)
        cfg = TrainConfig(sequence_length=8, hidden_sizes=(4,), dropout_ratios=())
        with pytest.raises(IntegrityError):
            train(ds, cfg)

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            TrainConfig(optimizer="sgd").validate()
        with pytest.raises(ConfigError):
            TrainConfig(learning_rate=0.0).validate()
        with pytest.raises(ConfigError):
            init_regressor(3, (4, 4), (0.2, 0.1), seed=0)  # too many ratios
        with pytest.raises(ConfigError):
            init_regressor(3, (4,), (), seed=0).layers  # fine
            init_regressor(3, (), (), seed=0)

    def test_divergence_aborts(self):
        # targets of order 1e200 lie beyond float32's range, so the float32
        # training batch stops with a NumericError before its forward pass
        ds = linear_task(n=30, length=5, slope=1e200)
        cfg = TrainConfig(
            sequence_length=5,
            hidden_sizes=(4,),
            dropout_ratios=(),
            epochs=1,
            batch_size=8,
            grad_clip=None,
            seed=0,
        )
        with pytest.raises(NumericError):
            train(ds, cfg)

    def test_unclipped_gradients_beyond_float32_squares_move_every_parameter(self):
        # gradients near 1e22 square beyond float32's range; RMSProp keeps its
        # mean squares in float64, so no parameter freezes at an inf entry
        ds = linear_task(n=64, length=5, slope=1e22)
        cfg = TrainConfig(
            sequence_length=5,
            hidden_sizes=(4,),
            dropout_ratios=(),
            epochs=2,
            grad_clip=None,
            seed=0,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            model, _ = train(ds, cfg)
        fresh = init_regressor(3, (4,), (), seed=0, sequence_length=5)
        for (name, a), (_, b) in zip(iter_parameters(model), iter_parameters(fresh)):
            assert a.dtype == np.float32, name
            assert np.all(a != b.astype(np.float32)), name

    @pytest.mark.parametrize("what", ["windows", "targets"])
    def test_float32_overflow_named(self, what):
        ds = linear_task(n=30, length=5)
        if what == "windows":
            ds.windows[3, 2, 1] = -1e39
        else:
            ds.targets[7] = 1e39  # finite in float64, inf in float32
        cfg = TrainConfig(sequence_length=5, hidden_sizes=(4,), dropout_ratios=(), epochs=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no "overflow encountered in cast"
            with pytest.raises(NumericError, match=f"^{what} hold a finite value beyond"):
                train(ds, cfg)

    def test_float64_model_keeps_float64_range(self):
        # the same targets pass a float64 model's cast; the loss overflows instead
        model = init_regressor(3, (4,), (), seed=0)
        ds = linear_task(n=8, length=5, slope=1e200)
        with pytest.raises(NumericError, match="loss is non-finite"):
            loss_and_gradients(model, ds.windows, ds.targets)


def test_float32_gradients_stay_float32_and_match_float64():
    """Every gradient and prediction of a float32 model is float32, and the
    loss agrees with the float64 model's to 1e-6 and each gradient to 5e-6 of
    its largest entry (dropout on, both sides drawing the same masks; about
    3e-8 and 5e-7 measured)."""
    model64 = init_regressor(6, (12, 8, 5), (0.2, 0.1), seed=30)
    model32 = as_float32(model64)
    rng = np.random.default_rng(31)
    windows, targets = rng.normal(size=(9, 7, 6)), 40.0 * rng.random(9)
    mse64, grads64 = loss_and_gradients(model64, windows, targets, rng=np.random.default_rng(32))
    mse32, grads32 = loss_and_gradients(model32, windows, targets, rng=np.random.default_rng(32))
    assert isinstance(mse32, float)
    assert mse32 == pytest.approx(mse64, rel=1e-6)
    assert grads32.keys() == grads64.keys()
    for name, grad in grads32.items():
        assert grad.dtype == np.float32, name
        scale = np.abs(grads64[name]).max()
        np.testing.assert_allclose(grad, grads64[name], rtol=0, atol=5e-6 * scale, err_msg=name)
    estimates = predict_batch(model32, windows)
    assert estimates.dtype == np.float32
    np.testing.assert_allclose(estimates, predict_batch(model64, windows), rtol=1e-5)


class TestPredict:
    def test_clamps_to_cap_and_floor(self):
        model = init_regressor(2, (3,), (), seed=16)
        set_all(model, 0.0)
        window = np.zeros((4, 2))
        model.head_b[0] = 180.0
        assert predict(model, window, cap=130.0) == 130.0
        model.head_b[0] = -4.0
        assert predict(model, window, cap=130.0) == 0.0

    def test_inference_deterministic(self):
        model = init_regressor(3, (5, 4), (0.2,), seed=17)
        window = np.random.default_rng(18).normal(size=(6, 3))
        assert predict(model, window) == predict(model, window)

    def test_batch_matches_single_windows(self):
        model = init_regressor(3, (7, 5), (0.2,), seed=20)
        model.head_w *= 80.0  # spread the estimates past both clamps
        rng = np.random.default_rng(21)
        windows = np.concatenate([rng.normal(size=(5, 9, 3)), 40 * rng.normal(size=(3, 9, 3))])
        batch = predict_batch(model, windows, cap=4.0)
        single = np.array([predict(model, w, cap=4.0) for w in windows])
        assert batch.shape == (8,)
        assert np.any(batch == 0.0) and np.any(batch == 4.0)
        assert np.any((batch > 0.0) & (batch < 4.0))
        np.testing.assert_allclose(batch, single, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("shape", [(6, 3), (2, 6, 4), (2, 6, 3, 1), (3,)])
    def test_batch_shape_errors(self, shape):
        model = init_regressor(3, (4,), (), seed=0)
        with pytest.raises(ShapeError):
            predict_batch(model, np.ones(shape))


def test_checkpoint_round_trip(tmp_path):
    ds = linear_task(n=40, length=6, seed=4)
    cfg = TrainConfig(
        sequence_length=6, hidden_sizes=(6, 4), dropout_ratios=(0.1,), epochs=2, seed=5
    )
    model, _ = train(ds, cfg)
    path = tmp_path / "model.npz"
    save_checkpoint(model, path, meta={"dataset": "FD001", "kept_indices": [2, 3, 4]})
    loaded, meta = load_checkpoint(path)
    assert meta["dataset"] == "FD001"
    assert loaded.sequence_length == 6
    for (_, a), (_, b) in zip(iter_parameters(model), iter_parameters(loaded)):
        assert a.dtype == b.dtype == np.float32
        np.testing.assert_array_equal(a, b)
    windows = np.random.default_rng(19).normal(size=(5, 6, 3))
    np.testing.assert_array_equal(predict_batch(loaded, windows), predict_batch(model, windows))


def test_untrained_float64_checkpoint_loads_as_float64(tmp_path):
    model = init_regressor(3, (5, 4), (0.1,), seed=25, sequence_length=6)
    path = tmp_path / "model.npz"
    save_checkpoint(model, path)
    loaded, _ = load_checkpoint(path)
    for (name, a), (_, b) in zip(iter_parameters(model), iter_parameters(loaded)):
        assert b.dtype == np.float64, name
        np.testing.assert_array_equal(a, b, err_msg=name)


@pytest.mark.parametrize(
    "base,name,dtype",
    [
        (np.float64, "head.b", np.float32),
        (np.float64, "layer0.wx", np.int64),
        (np.float32, "layer1.wh", np.float16),
        (np.float64, "head.w", np.complex128),
    ],
    ids=["mixed", "int", "float16", "complex"],
)
def test_checkpoint_dtype_rejected(tmp_path, base, name, dtype):
    model = init_regressor(3, (5, 4), (0.1,), seed=26, sequence_length=6)
    path = tmp_path / "model.npz"
    save_checkpoint(model, path)
    with np.load(path) as stored:
        arrays = {key: stored[key] for key in stored.files}
    for key, _ in iter_parameters(model):
        arrays[key] = arrays[key].astype(dtype if key == name else base)
    np.savez(path, **arrays)
    with pytest.raises(IntegrityError, match=f"parameter {name} has dtype {np.dtype(dtype)}"):
        load_checkpoint(path)


def test_version_1_checkpoint_rejected(tmp_path):
    """Version 1 stored one array per gate, under layer{i}.{w,r,b}_{gate};
    only version 2 is read."""
    model = init_regressor(3, (5, 4), (0.1,), seed=22, label_cap=125.0, sequence_length=6)
    payload = {"head.w": model.head_w, "head.b": model.head_b}
    for idx, layer in enumerate(model.layers):
        h = layer.hidden_size
        rows = {"input": 0, "forget": 1, "output": 2, "candidate": 3}  # fused block order
        for gate, block in rows.items():
            sl = slice(block * h, (block + 1) * h)
            payload[f"layer{idx}.w_{gate}"] = layer.wx[sl]
            payload[f"layer{idx}.r_{gate}"] = layer.wh[sl]
            payload[f"layer{idx}.b_{gate}"] = layer.b[sl]
    header = {
        "version": 1,
        "input_dim": 3,
        "hidden_sizes": [5, 4],
        "dropout_ratios": [0.1],
        "seed": 22,
        "label_cap": 125.0,
        "sequence_length": 6,
        "meta": {"dataset": "FD001"},
    }
    payload["header"] = np.frombuffer(json.dumps(header).encode(), dtype=np.uint8)
    path = tmp_path / "v1.npz"
    np.savez(path, **payload)
    with pytest.raises(IntegrityError, match="unsupported checkpoint version 1") as info:
        load_checkpoint(path)
    assert info.value.exit_code == 2
