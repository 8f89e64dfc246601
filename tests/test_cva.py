import json

import numpy as np
import pytest

from changepoint_rul.cva import (
    CvaModel,
    LaggedMatrices,
    apply_standardizer,
    build_lagged_matrices,
    build_past_matrix,
    fit_cva,
    fit_standardizer,
    project,
)
from changepoint_rul.errors import ConfigError, InsufficientDataError, ShapeError


def standardized_lagged(seed=0, m=4, n=300, p=2, r=3):
    rng = np.random.default_rng(seed)
    # mildly autocorrelated channels so canonical correlations are nontrivial
    noise = rng.normal(size=(m, n))
    x = np.empty((m, n))
    x[:, 0] = noise[:, 0]
    for t in range(1, n):
        x[:, t] = 0.6 * x[:, t - 1] + noise[:, t]
    standardizer = fit_standardizer(x)
    xs = apply_standardizer(standardizer, x)
    lagged = build_lagged_matrices(xs, p)
    return fit_cva(lagged, r, standardizer=standardizer), lagged, xs


class TestLaggedMatrices:
    def test_stacking_order_pinned(self):
        # m=1, N=5, p=2: column at k=3 reads [x2, x1] past, [x3, x4] future
        x = np.arange(1.0, 6.0)[None, :]
        lagged = build_lagged_matrices(x, 2)
        assert lagged.n_effective == 2
        np.testing.assert_array_equal(lagged.xp, [[2.0, 3.0], [1.0, 2.0]])
        np.testing.assert_array_equal(lagged.xf, [[3.0, 4.0], [4.0, 5.0]])

    def test_fd001_shape_arithmetic(self):
        x = np.random.default_rng(1).normal(size=(14, 60))
        lagged = build_lagged_matrices(x, 2)
        assert lagged.xp.shape == (28, 57)
        assert lagged.xf.shape == (28, 57)

    def test_insufficient_data(self):
        with pytest.raises(InsufficientDataError):
            build_lagged_matrices(np.zeros((2, 3)), 2)

    def test_nonpositive_lag_count_rejected(self):
        with pytest.raises(ConfigError):
            build_lagged_matrices(np.zeros((2, 10)), 0)

    def test_past_matrix_reaches_final_cycle(self):
        x = np.arange(1.0, 8.0)[None, :]
        xp = build_past_matrix(x, 2)
        assert xp.shape == (2, 5)
        np.testing.assert_array_equal(xp[:, -1], [6.0, 5.0])  # cycle 7 sees x6, x5


class TestStandardizer:
    def test_training_data_becomes_unit_scale(self):
        x = np.random.default_rng(2).normal(loc=5.0, scale=3.0, size=(4, 200))
        s = fit_standardizer(x)
        xs = apply_standardizer(s, x)
        assert np.all(np.abs(xs.mean(axis=1)) < 1e-10)
        assert np.all(np.abs(xs.std(axis=1, ddof=1) - 1.0) < 1e-10)

    def test_constant_channel_floored_to_zeros(self):
        x = np.vstack([np.full(50, 7.0), np.random.default_rng(3).normal(size=50)])
        with pytest.warns(UserWarning, match="zero-variance"):
            s = fit_standardizer(x)
        xs = apply_standardizer(s, x)
        assert np.all(xs[0] == 0.0)

    def test_drift_shows_large_scores(self):
        rng = np.random.default_rng(4)
        normal = rng.normal(size=(3, 100))
        s = fit_standardizer(normal)
        drifted = normal.copy()
        drifted[0] += 25.0  # large shift on one channel
        z = apply_standardizer(s, drifted)
        assert np.mean(np.abs(z[0])) > 10.0
        assert np.mean(np.abs(z[1:])) < 2.0

    def test_reapplication_is_deterministic(self):
        x = np.random.default_rng(5).normal(size=(3, 80))
        s = fit_standardizer(x)
        np.testing.assert_array_equal(apply_standardizer(s, x), apply_standardizer(s, x))


class TestFitCva:
    def test_perfect_correlation_leading_value_one(self):
        xp = np.random.default_rng(6).normal(size=(3, 400))
        lagged = LaggedMatrices(xp=xp, xf=xp.copy(), p=1)
        model = fit_cva(lagged, r=2)
        assert abs(model.singular_values[0] - 1.0) < 1e-6

    def test_white_noise_correlations_vanish(self):
        x = np.random.default_rng(7).normal(size=(2, 10006))
        lagged = build_lagged_matrices(x, 2)
        model = fit_cva(lagged, r=4)
        assert model.singular_values.max() < 0.2

    def test_singular_values_bounded_and_sorted(self):
        model, _, _ = standardized_lagged(seed=8)
        sv = model.singular_values
        assert np.all(sv >= 0.0)
        assert np.all(sv <= 1.0 + 1e-6)
        assert np.all(np.diff(sv) <= 1e-12)

    def test_full_rank_retention_leaves_no_residual(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(3, 500))
        s = fit_standardizer(x)
        lagged = build_lagged_matrices(apply_standardizer(s, x), 2)
        model = fit_cva(lagged, r=6)  # r = m*p
        _, e = project(model, lagged.xp)
        assert np.max(np.sqrt(np.sum(e * e, axis=0))) < 1e-8

    def test_r_out_of_range(self):
        _, lagged, _ = standardized_lagged(seed=10)
        with pytest.raises(ConfigError):
            fit_cva(lagged, r=lagged.xp.shape[0] + 1)
        with pytest.raises(ConfigError):
            fit_cva(lagged, r=0)

    def test_determinism(self):
        m1, _, _ = standardized_lagged(seed=11)
        m2, _, _ = standardized_lagged(seed=11)
        assert np.array_equal(m1.w, m2.w)
        assert np.array_equal(m1.vr, m2.vr)
        assert np.array_equal(m1.singular_values, m2.singular_values)


class TestProject:
    def test_zero_column_maps_to_zero(self):
        model, lagged, _ = standardized_lagged(seed=12)
        z, e = project(model, np.zeros((lagged.xp.shape[0], 3)))
        assert np.all(z == 0.0)
        assert np.all(e == 0.0)

    def test_projection_reproduces_training_variates(self):
        model, lagged, _ = standardized_lagged(seed=13)
        z1, e1 = project(model, lagged.xp)
        z2, e2 = project(model, lagged.xp)
        np.testing.assert_allclose(z1, z2, atol=1e-10)
        np.testing.assert_allclose(e1, e2, atol=1e-10)

    def test_reconstruction_identity(self):
        model, lagged, _ = standardized_lagged(seed=14)
        x_new = np.random.default_rng(15).normal(size=(lagged.xp.shape[0], 40))
        z, e = project(model, x_new)
        lhs = model.w @ x_new
        rhs = model.vr @ z + e
        rel = np.max(np.abs(lhs - rhs)) / np.max(np.abs(lhs))
        assert rel < 1e-8

    def test_row_count_mismatch(self):
        model, _, _ = standardized_lagged(seed=16)
        with pytest.raises(ShapeError):
            project(model, np.zeros((3, 5)))


class TestModelProperties:
    def test_training_variates_uncorrelated(self):
        model, lagged, _ = standardized_lagged(seed=17, n=400)
        z, _ = project(model, lagged.xp)
        corr = np.corrcoef(z)
        assert np.max(np.abs(corr - np.eye(model.r))) < 0.05

    def test_retained_directions_orthonormal(self):
        model, _, _ = standardized_lagged(seed=18)
        gram = model.vr.T @ model.vr
        assert np.max(np.abs(gram - np.eye(model.r))) < 1e-8

    def test_serialization_round_trip(self):
        model, lagged, _ = standardized_lagged(seed=19)
        loaded = CvaModel.from_dict(json.loads(json.dumps(model.to_dict())))
        np.testing.assert_allclose(loaded.w, model.w)
        np.testing.assert_allclose(loaded.vr, model.vr)
        np.testing.assert_allclose(loaded.j, model.j)
        np.testing.assert_allclose(loaded.j_res, model.j_res)
        z1, e1 = project(model, lagged.xp[:, :5])
        z2, e2 = project(loaded, lagged.xp[:, :5])
        np.testing.assert_allclose(z1, z2)
        np.testing.assert_allclose(e1, e2)
