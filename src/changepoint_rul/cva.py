"""Past/future lag embedding and canonical-variate transforms.

All arrays in this module are variable-major: a series is (m, N) with one
row per sensor channel. Every fit and transform also takes an (n, m, N)
stack of such series and treats each of its n matrices on its own, so a
fleet is fitted in one call of each; a single series is the case without
the leading axis. Channels are standardized before lagging, so every
lag copy of a channel shares the same scale parameters and the projection
transforms stay strictly linear (a zero input column maps to zero variates).

A covariance is whitened by W = L^-1, the inverse of the lower Cholesky factor
L of the covariance plus a small ridge, so W is lower-triangular. Any W with
W.T W = inverse covariance gives the same canonical variates up to a rotation
of the whitened past, so the T2 and Q statistics (squared norms) do not depend
on which square root is taken; only the stored transforms do.

The canonical directions are the eigenvectors of M.T M, M the whitened
cross-covariance: M's right singular vectors, each with the sign LAPACK's
eigensolver gives it, which T2 and Q do not depend on. The canonical
correlations are the square roots of its eigenvalues, clamped at 0.

Past and future vectors both hold p lags. Lag stacking convention, pinned
by tests: the past vector at cycle k stacks newest lag first
[x_{k-1}, x_{k-2}, ..., x_{k-p}]; the future vector stacks oldest first
[x_k, x_{k+1}, ..., x_{k+p-1}]. Columns run k = p+1 .. p+n_eff with
n_eff = N - 2p + 1.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack

from .errors import ConfigError, InsufficientDataError, NumericError, ShapeError

# Zero-variance channels get their scale floored instead of rejected so that
# constant sensors standardize to zero rather than NaN.
STD_FLOOR = 1e-8

# Ridge added to a lagged covariance's diagonal before it is factored, as a
# fraction of its largest variance: short normal-operation windows and floored
# constant channels make the covariances singular.
RIDGE_RATIO = 1e-12


@dataclass(frozen=True)
class LaggedMatrices:
    """Stacked past/future matrices, each of shape (m*p, n_eff), or (n, m*p, n_eff)."""

    xp: np.ndarray
    xf: np.ndarray
    p: int

    @property
    def n_effective(self) -> int:
        return self.xp.shape[-1]


@dataclass(frozen=True)
class Standardizer:
    """Per-variable location/scale fitted on normal-operation data."""

    mean: np.ndarray
    std: np.ndarray


def fit_standardizer(x: np.ndarray) -> Standardizer:
    """Fit per-row mean and (ddof=1) standard deviation of an (m, N) matrix,
    or of each matrix of an (n, m, N) stack.

    Rows with no variance are floored to STD_FLOOR, with one warning per
    matrix that has any, so they standardize to exactly zero.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim not in (2, 3) or x.shape[-1] < 2:
        raise InsufficientDataError("standardizer needs an (m, N) matrix with N >= 2")
    mean = x.mean(axis=-1)
    std = x.std(axis=-1, ddof=1)
    floored = std < STD_FLOOR
    for count in np.atleast_1d(floored.sum(axis=-1)):
        if count:
            warnings.warn(
                f"{int(count)} zero-variance channel(s), flooring scale at {STD_FLOOR}",
                stacklevel=2,
            )
    return Standardizer(mean=mean, std=np.where(floored, STD_FLOOR, std))


def apply_standardizer(standardizer: Standardizer, x: np.ndarray) -> np.ndarray:
    """Apply stored parameters to an (m, N) matrix, or to a stack of them."""
    x = np.asarray(x, dtype=float)
    if x.shape[-2] != standardizer.mean.shape[-1]:
        raise ShapeError(
            f"matrix has {x.shape[-2]} channels, standardizer was fit on "
            f"{standardizer.mean.shape[-1]}"
        )
    return (x - standardizer.mean[..., None]) / standardizer.std[..., None]


def build_past_matrix(x: np.ndarray, p: int) -> np.ndarray:
    """Past-lag matrix of an (m, N) series, or of each in a stack, newest lag first.

    Columns cover cycles p+1 .. N (no future truncation).
    """
    x = np.asarray(x, dtype=float)
    m, n = x.shape[-2:]
    if n <= p:
        raise InsufficientDataError(f"need more than p={p} observations, got {n}")
    n_cols = n - p
    xp = np.empty(x.shape[:-2] + (m * p, n_cols))
    for lag in range(1, p + 1):  # block j holds x_{k-j}
        xp[..., (lag - 1) * m : lag * m, :] = x[..., p - lag : p - lag + n_cols]
    return xp


def build_lagged_matrices(x: np.ndarray, p: int) -> LaggedMatrices:
    """Expand an (m, N) series, or each of an (n, m, N) stack, into stacked
    past/future matrices of p lags each.

    Requires p >= 1 and N >= 2p.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim not in (2, 3):
        raise ShapeError("expected an (m, N) matrix or an (n, m, N) stack")
    if p < 1:
        raise ConfigError(f"lag count must be >= 1, got p={p}")
    m, n = x.shape[-2:]
    n_eff = n - 2 * p + 1
    if n_eff < 1:
        raise InsufficientDataError(f"need N >= 2p = {2 * p} observations, got {n}")
    xp = build_past_matrix(x[..., : n - p + 1], p)
    xf = np.empty(x.shape[:-2] + (m * p, n_eff))
    for step in range(p):  # oldest first: block j holds x_{k+j}
        xf[..., step * m : (step + 1) * m, :] = x[..., p + step : p + step + n_eff]
    return LaggedMatrices(xp=xp, xf=xf, p=p)


def _whitener(s: np.ndarray) -> np.ndarray:
    """Inverse Cholesky factor W of each symmetric PSD matrix of a (..., k, k)
    stack, ridged, so that W s W.T is the identity to the ridge.

    Each factor is inverted by LAPACK's triangular inverse, so W is exactly
    zero above the diagonal, and W is C-ordered, the layout the monitor store
    reloads: BLAS rounds products differently by layout.
    """
    s = 0.5 * (s + s.swapaxes(-1, -2))
    if not np.all(np.isfinite(s)):
        raise NumericError("covariance matrix holds non-finite values")
    largest = np.diagonal(s, axis1=-2, axis2=-1).max(axis=-1)
    if np.any(largest <= 0):
        raise NumericError("covariance matrix is not positive semidefinite")
    k = s.shape[-1]
    factors = np.linalg.cholesky(s + (RIDGE_RATIO * largest)[..., None, None] * np.eye(k))
    w = np.empty(factors.shape)
    for out, factor in zip(w.reshape(-1, k, k), factors.reshape(-1, k, k)):
        out[...] = lapack.dtrtri(factor, lower=1)[0]
    return w


@dataclass(frozen=True)
class CvaModel:
    """Fitted canonical-variate transforms.

    ``w`` whitens the past space (the lower-triangular inverse Cholesky factor
    of its ridged covariance), ``vr`` holds the retained right singular
    vectors of the whitened cross-covariance (signs as LAPACK's eigensolver
    gives them), ``singular_values`` all m*p canonical correlations,
    descending and >= 0, ``j = vr.T @ w`` maps a past column to the r
    dominant variates and ``j_res = (I - vr vr.T) @ w`` to the residual
    space, so that w @ xp == vr @ z + e column by column. A model fitted on
    a stack holds each array with the stack's leading axis; ``unstack``
    splits it.
    """

    standardizer: Standardizer | None
    p: int
    r: int
    w: np.ndarray
    vr: np.ndarray
    singular_values: np.ndarray
    j: np.ndarray
    j_res: np.ndarray

    @classmethod
    def from_transforms(cls, standardizer, p: int, w, vr, singular_values) -> "CvaModel":
        """Model of the given transforms, with ``j`` and ``j_res`` derived from them;
        ``vr`` is taken in one layout, as BLAS rounds differently by layout."""
        vt = np.ascontiguousarray(vr.swapaxes(-1, -2))
        vr = vt.swapaxes(-1, -2)
        return cls(
            standardizer=standardizer,
            p=p,
            r=vt.shape[-2],
            w=w,
            vr=vr,
            singular_values=singular_values,
            j=vt @ w,
            j_res=(np.eye(w.shape[-1]) - vr @ vt) @ w,
        )

    def unstack(self) -> list["CvaModel"]:
        """One model per matrix of the stack this model was fitted on."""
        s = self.standardizer
        return [
            CvaModel(Standardizer(mean, std), self.p, self.r, *arrays)
            for mean, std, *arrays in zip(
                s.mean, s.std, self.w, self.vr, self.singular_values, self.j, self.j_res
            )
        ]


def fit_cva(lagged: LaggedMatrices, r: int, standardizer: Standardizer | None = None) -> CvaModel:
    """Fit the canonical-variate transforms from stacked lag matrices, or
    from each (m*p, n_eff) pair of an (n, m*p, n_eff) stack at once.

    One symmetric eigensolve of M.T M, M the whitened cross-covariance, gives
    M's right singular vectors, of which the r with the largest eigenvalues
    are retained, and its singular values, the square roots of the
    eigenvalues clamped at 0 (canonical correlations are at most 1, so
    squaring them costs little accuracy). Covariances use 1/(n_eff - 1)
    normalization without re-centering; the inputs are expected to come from
    standardized channels.
    """
    mp = lagged.xp.shape[-2]
    if not 1 <= r <= mp:
        raise ConfigError(f"retained variate count r={r} out of range 1..{mp}")
    n_eff = lagged.n_effective
    if n_eff < 2:
        raise InsufficientDataError("covariance estimation needs n_eff > 1")
    scale = 1.0 / (n_eff - 1)
    xp, xf = lagged.xp, lagged.xf
    # covariances as temporaries, each freed once used: a fleet's stacks are large
    w = _whitener(scale * (xp @ xp.swapaxes(-1, -2)))
    w_f = _whitener(scale * (xf @ xf.swapaxes(-1, -2)))
    cross = w_f @ (scale * (xf @ xp.swapaxes(-1, -2))) @ w.swapaxes(-1, -2)
    eigenvalues, v = np.linalg.eigh(cross.swapaxes(-1, -2) @ cross)
    v, eigenvalues = v[..., ::-1], eigenvalues[..., ::-1]  # eigh sorts ascending
    singular_values = np.sqrt(np.maximum(eigenvalues, 0.0))
    return CvaModel.from_transforms(standardizer, lagged.p, w, v[..., :r], singular_values)


def project(model: CvaModel, xp_new: np.ndarray):
    """Project standardized past-lag columns to (dominant, residual) variates.

    ``xp_new`` must already be built from channels standardized with the
    model's own Standardizer.
    """
    xp_new = np.asarray(xp_new, dtype=float)
    if xp_new.shape[0] != model.w.shape[0]:
        raise ShapeError(
            f"past vectors have {xp_new.shape[0]} rows, model expects {model.w.shape[0]}"
        )
    return model.j @ xp_new, model.j_res @ xp_new
