import io
import warnings

import numpy as np
import pytest

from changepoint_rul.cva import (
    CvaModel,
    LaggedMatrices,
    _whitener,
    apply_standardizer,
    build_lagged_matrices,
    build_past_matrix,
    fit_cva,
    fit_standardizer,
    project,
)
from changepoint_rul.errors import ConfigError, InsufficientDataError, NumericError, ShapeError


def autoregressive(seed, m, n):
    # mildly autocorrelated channels so canonical correlations are nontrivial
    noise = np.random.default_rng(seed).normal(size=(m, n))
    x = np.empty((m, n))
    x[:, 0] = noise[:, 0]
    for t in range(1, n):
        x[:, t] = 0.6 * x[:, t - 1] + noise[:, t]
    return x


def standardized_lagged(seed=0, m=4, n=300, p=2, r=3):
    x = autoregressive(seed, m, n)
    standardizer = fit_standardizer(x)
    xs = apply_standardizer(standardizer, x)
    lagged = build_lagged_matrices(xs, p)
    return fit_cva(lagged, r), lagged, xs


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

    def test_an_empty_stack_fits_to_empty_transforms(self):
        model = fit_cva(build_lagged_matrices(np.zeros((0, 3, 20)), 2), 2)
        assert model.w.shape == (0, 6, 6)
        assert model.vr.shape == (0, 6, 2)
        assert model.singular_values.shape == (0, 6)

    @pytest.mark.parametrize("shape", [(0, 3, 20), (2, 3, 40)])
    def test_unstack_gives_one_model_per_matrix(self, shape):
        x = np.random.default_rng(25).normal(size=shape)
        model = fit_cva(build_lagged_matrices(x, 2), 2)
        models = model.unstack()
        assert len(models) == shape[0]
        for i, single in enumerate(models):
            assert (single.p, single.r) == (model.p, model.r)
            for name in ("w", "vr", "singular_values", "j", "j_res"):
                np.testing.assert_array_equal(getattr(single, name), getattr(model, name)[i])


def autoregressive_case(seed, m, n, held_out=60, p=2):
    """Lag matrices of the first n cycles of m standardized AR(1) channels, and
    the past columns of the held_out cycles after them."""
    x = autoregressive(seed, m, n + held_out)
    xs = apply_standardizer(fit_standardizer(x[:, :n]), x)
    return build_lagged_matrices(xs[:, :n], p), build_past_matrix(xs, p)[:, n - p :]


def svd_reference(lagged, r, xp_new):
    """Singular values, and T2 and Q of xp_new's columns, from an SVD of the
    same whitened cross-covariance that fit_cva decomposes."""
    scale = 1.0 / (lagged.n_effective - 1)
    xp, xf = lagged.xp, lagged.xf
    w, w_f = _whitener(scale * xp @ xp.T), _whitener(scale * xf @ xf.T)
    _, singular_values, vt = np.linalg.svd(w_f @ (scale * xf @ xp.T) @ w.T)
    z = vt[:r] @ w @ xp_new
    e = w @ xp_new - vt[:r].T @ z
    return singular_values, (z * z).sum(axis=0), (e * e).sum(axis=0)


class TestGramEigensolve:
    @pytest.mark.parametrize(
        "seed, r, gap",
        [
            (0, 3, None),  # r < m*p
            (0, 12, None),  # r = m*p
            (4, 2, 1e-3),  # the r-th and (r+1)-th correlations lie within gap
        ],
    )
    def test_statistics_match_an_svd_of_the_whitened_cross_covariance(self, seed, r, gap):
        lagged, held_out = autoregressive_case(seed, m=6, n=300)
        model = fit_cva(lagged, r)
        singular_values, t2, q = svd_reference(lagged, r, held_out)
        if gap is not None:
            assert singular_values[r - 1] - singular_values[r] < gap
        np.testing.assert_allclose(model.singular_values, singular_values, rtol=0, atol=1e-10)
        z, e = project(model, held_out)
        np.testing.assert_allclose((z * z).sum(axis=0), t2, rtol=1e-10, atol=0)
        # Q is rounding noise when r = m*p, so it is compared on the scale of T2 + Q
        q_atol = 1e-10 * (t2 + q).max()
        np.testing.assert_allclose((e * e).sum(axis=0), q, rtol=1e-10, atol=q_atol)


def symmetric_reference_statistics(lagged, r, xp_new):
    """T2 and Q of xp_new's columns under CVA whitened by the symmetric inverse
    square root of each covariance, with null directions projected out."""
    scale = 1.0 / (lagged.n_effective - 1)

    def inverse_sqrt(s):
        eigvals, eigvecs = np.linalg.eigh(s)
        kept = eigvals > 1e-10 * eigvals[-1]
        inverse = np.zeros_like(eigvals)
        inverse[kept] = 1.0 / np.sqrt(eigvals[kept])
        return (eigvecs * inverse) @ eigvecs.T

    xp, xf = lagged.xp, lagged.xf
    w, w_f = inverse_sqrt(scale * xp @ xp.T), inverse_sqrt(scale * xf @ xf.T)
    _, _, vt = np.linalg.svd(w_f @ (scale * xf @ xp.T) @ w)
    z = vt[:r] @ w @ xp_new
    e = w @ xp_new - vt[:r].T @ z
    return (z * z).sum(axis=0), (e * e).sum(axis=0)


class TestWhitening:
    @pytest.mark.parametrize("constant_channel", [False, True])
    def test_statistics_do_not_depend_on_the_square_root(self, constant_channel):
        rng = np.random.default_rng(21)
        n, m, length, p, r = 5, 6, 90, 2, 4
        x = rng.normal(size=(n, m, length + 40))
        x[..., 1:] += 0.7 * x[..., :-1]  # lag-1 correlation, so the variates are not trivial
        if constant_channel:
            x[:, 2] = 3.0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the constant channel's floored scale
            standardizer = fit_standardizer(x[..., :length])
        xs = apply_standardizer(standardizer, x)
        lagged = build_lagged_matrices(xs[..., :length], p)
        model = fit_cva(lagged, r)
        xp_all = build_past_matrix(xs, p)
        for i in range(n):
            z, e = project(CvaModel.from_transforms(p, model.w[i], model.vr[i], None), xp_all[i])
            single = LaggedMatrices(xp=lagged.xp[i], xf=lagged.xf[i], p=p)
            t2, q = symmetric_reference_statistics(single, r, xp_all[i])
            np.testing.assert_allclose((z * z).sum(axis=0), t2, rtol=1e-8)
            np.testing.assert_allclose((e * e).sum(axis=0), q, rtol=1e-8)

    def test_whitener_whitens_the_past_covariance(self):
        model, lagged, _ = standardized_lagged(seed=22)
        covariance = lagged.xp @ lagged.xp.T / (lagged.n_effective - 1)
        np.testing.assert_allclose(model.w @ covariance @ model.w.T, np.eye(len(covariance)), atol=1e-8)

    @pytest.mark.parametrize("stacked", [False, True])
    def test_whitener_is_c_ordered_and_lower_triangular(self, stacked):
        # the layout the monitor store reloads, so both copies derive the same j and j_res
        x = np.random.default_rng(24).normal(size=(3, 4, 80))
        model = fit_cva(build_lagged_matrices(x if stacked else x[0], 2), 3)
        assert model.w.flags.c_contiguous
        assert np.all(np.triu(model.w, 1) == 0.0)

    def test_two_identical_channels_fit(self):
        x = np.random.default_rng(23).normal(size=(3, 60))
        x = np.vstack([x, x[:1]])  # channel 3 repeats channel 0
        standardizer = fit_standardizer(x)
        lagged = build_lagged_matrices(apply_standardizer(standardizer, x), 2)
        model = fit_cva(lagged, r=3)
        z, e = project(model, lagged.xp)
        assert np.all(np.isfinite(z)) and np.all(np.isfinite(e))

    @pytest.mark.parametrize("fill", [0.0, np.nan])
    def test_a_window_without_variance_or_finite_values_is_refused(self, fill):
        xp = np.full((4, 30), fill)
        with pytest.raises(NumericError):
            fit_cva(LaggedMatrices(xp=xp, xf=xp.copy(), p=2), r=2)


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
        # the monitor store keeps only the transforms; j and j_res are derived on load
        model, lagged, _ = standardized_lagged(seed=19)
        buffer = io.BytesIO()
        np.savez(buffer, w=model.w, vr=model.vr, singular_values=model.singular_values)
        buffer.seek(0)
        with np.load(buffer, allow_pickle=False) as stored:
            loaded = CvaModel.from_transforms(
                model.p, stored["w"], stored["vr"], stored["singular_values"]
            )
        for name in ("w", "vr", "singular_values", "j", "j_res"):
            np.testing.assert_array_equal(getattr(loaded, name), getattr(model, name))
        assert (loaded.p, loaded.r) == (model.p, model.r)
        z1, e1 = project(model, lagged.xp[:, :5])
        z2, e2 = project(loaded, lagged.xp[:, :5])
        np.testing.assert_array_equal(z1, z2)
        np.testing.assert_array_equal(e1, e2)
