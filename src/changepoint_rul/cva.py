"""Past/future lag embedding and canonical-variate transforms.

All arrays in this module are variable-major: a series is (m, N) with one
row per sensor channel. Channels are standardized before lagging, so every
lag copy of a channel shares the same scale parameters and the projection
transforms stay strictly linear (a zero input column maps to zero variates).

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

from .errors import ConfigError, InsufficientDataError, NumericError, ShapeError

# Zero-variance channels get their scale floored instead of rejected so that
# constant sensors standardize to zero rather than NaN.
STD_FLOOR = 1e-8

# Eigenvalues of lagged covariances are floored at this fraction of the
# largest one; short normal-operation windows make them near-singular.
EIG_FLOOR_RATIO = 1e-8


@dataclass(frozen=True)
class LaggedMatrices:
    """Stacked past/future matrices, each of shape (m*p, n_eff)."""

    xp: np.ndarray
    xf: np.ndarray
    p: int

    @property
    def n_effective(self) -> int:
        return self.xp.shape[1]


@dataclass(frozen=True)
class Standardizer:
    """Per-variable location/scale fitted on normal-operation data."""

    mean: np.ndarray
    std: np.ndarray


def fit_standardizer(x: np.ndarray) -> Standardizer:
    """Fit per-row mean and (ddof=1) standard deviation of an (m, N) matrix.

    Rows with no variance are floored to STD_FLOOR with a warning so they
    standardize to exactly zero.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[1] < 2:
        raise InsufficientDataError("standardizer needs an (m, N) matrix with N >= 2")
    mean = x.mean(axis=1)
    std = x.std(axis=1, ddof=1)
    floored = std < STD_FLOOR
    if np.any(floored):
        warnings.warn(
            f"{int(floored.sum())} zero-variance channel(s), flooring scale at {STD_FLOOR}",
            stacklevel=2,
        )
        std = np.where(floored, STD_FLOOR, std)
    return Standardizer(mean=mean, std=std)


def apply_standardizer(standardizer: Standardizer, x: np.ndarray) -> np.ndarray:
    """Apply stored parameters to an (m, N) matrix."""
    x = np.asarray(x, dtype=float)
    if x.shape[0] != standardizer.mean.shape[0]:
        raise ShapeError(
            f"matrix has {x.shape[0]} channels, standardizer was fit on "
            f"{standardizer.mean.shape[0]}"
        )
    return (x - standardizer.mean[:, None]) / standardizer.std[:, None]


def build_past_matrix(x: np.ndarray, p: int) -> np.ndarray:
    """Past-lag matrix of an (m, N) series, newest lag first.

    Columns cover cycles p+1 .. N (no future truncation).
    """
    x = np.asarray(x, dtype=float)
    m, n = x.shape
    if n <= p:
        raise InsufficientDataError(f"need more than p={p} observations, got {n}")
    n_cols = n - p
    xp = np.empty((m * p, n_cols))
    for lag in range(1, p + 1):  # block j holds x_{k-j}
        xp[(lag - 1) * m : lag * m, :] = x[:, p - lag : p - lag + n_cols]
    return xp


def build_lagged_matrices(x: np.ndarray, p: int) -> LaggedMatrices:
    """Expand an (m, N) series into stacked past/future matrices of p lags each.

    Requires p >= 1 and N >= 2p.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise ShapeError("expected an (m, N) matrix")
    if p < 1:
        raise ConfigError(f"lag count must be >= 1, got p={p}")
    m, n = x.shape
    n_eff = n - 2 * p + 1
    if n_eff < 1:
        raise InsufficientDataError(f"need N >= 2p = {2 * p} observations, got {n}")
    xp = build_past_matrix(x[:, : n - p + 1], p)
    xf = np.empty((m * p, n_eff))
    for step in range(p):  # oldest first: block j holds x_{k+j}
        xf[step * m : (step + 1) * m, :] = x[:, p + step : p + step + n_eff]
    return LaggedMatrices(xp=xp, xf=xf, p=p)


def _inverse_sqrt_sym(s: np.ndarray) -> np.ndarray:
    """Inverse square root of a symmetric PSD matrix with eigenvalue flooring."""
    s = 0.5 * (s + s.T)
    eigvals, eigvecs = np.linalg.eigh(s)
    if not np.all(np.isfinite(eigvals)):
        raise NumericError("covariance eigendecomposition produced non-finite values")
    largest = eigvals[-1]
    if largest <= 0:
        raise NumericError("covariance matrix is not positive semidefinite")
    floored = np.maximum(eigvals, EIG_FLOOR_RATIO * largest)
    return (eigvecs * (1.0 / np.sqrt(floored))) @ eigvecs.T


@dataclass(frozen=True)
class CvaModel:
    """Fitted canonical-variate transforms.

    ``w`` whitens the past space, ``vr`` holds the retained right singular
    vectors, ``j = vr.T @ w`` maps a past column to the r dominant variates
    and ``j_res = (I - vr vr.T) @ w`` to the residual space, so that
    w @ xp == vr @ z + e column by column.
    """

    standardizer: Standardizer | None
    p: int
    r: int
    w: np.ndarray
    vr: np.ndarray
    singular_values: np.ndarray
    j: np.ndarray
    j_res: np.ndarray

    def to_dict(self) -> dict:
        return {
            "p": self.p,
            "r": self.r,
            "w": self.w.tolist(),
            "vr": self.vr.tolist(),
            "singular_values": self.singular_values.tolist(),
            "standardizer": None
            if self.standardizer is None
            else {
                "mean": self.standardizer.mean.tolist(),
                "std": self.standardizer.std.tolist(),
            },
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "CvaModel":
        std = payload.get("standardizer")
        standardizer = (
            None
            if std is None
            else Standardizer(mean=np.asarray(std["mean"]), std=np.asarray(std["std"]))
        )
        w = np.asarray(payload["w"], dtype=float)
        vr = np.asarray(payload["vr"], dtype=float)
        return cls(
            standardizer=standardizer,
            p=int(payload["p"]),
            r=int(payload["r"]),
            w=w,
            vr=vr,
            singular_values=np.asarray(payload["singular_values"], dtype=float),
            j=vr.T @ w,
            j_res=(np.eye(w.shape[0]) - vr @ vr.T) @ w,
        )


def fit_cva(lagged: LaggedMatrices, r: int, standardizer: Standardizer | None = None) -> CvaModel:
    """Fit the canonical-variate transforms from stacked lag matrices.

    The whitened cross-covariance is decomposed by SVD and the first r right
    singular vectors (ordered by singular value) are retained. Covariances
    use 1/(n_eff - 1) normalization without re-centering; the inputs are
    expected to come from standardized channels.
    """
    mp = lagged.xp.shape[0]
    if not 1 <= r <= mp:
        raise ConfigError(f"retained variate count r={r} out of range 1..{mp}")
    n_eff = lagged.n_effective
    if n_eff < 2:
        raise InsufficientDataError("covariance estimation needs n_eff > 1")
    scale = 1.0 / (n_eff - 1)
    s_pp = scale * (lagged.xp @ lagged.xp.T)
    s_ff = scale * (lagged.xf @ lagged.xf.T)
    s_fp = scale * (lagged.xf @ lagged.xp.T)
    w = _inverse_sqrt_sym(s_pp)
    w_f = _inverse_sqrt_sym(s_ff)
    _, singular_values, vt = np.linalg.svd(w_f @ s_fp @ w, full_matrices=False)
    if r > vt.shape[0]:
        raise ConfigError(f"r={r} exceeds the {vt.shape[0]} available singular directions")
    vr = vt[:r].T
    return CvaModel(
        standardizer=standardizer,
        p=lagged.p,
        r=r,
        w=w,
        vr=vr,
        singular_values=singular_values,
        j=vr.T @ w,
        j_res=(np.eye(mp) - vr @ vr.T) @ w,
    )


def project(model: CvaModel, xp_new: np.ndarray):
    """Project standardized past-lag columns to (dominant, residual) variates.

    ``xp_new`` must already be built from channels standardized with the
    model's own Standardizer.
    """
    xp_new = np.asarray(xp_new, dtype=float)
    if xp_new.ndim == 1:
        xp_new = xp_new[:, None]
    if xp_new.shape[0] != model.w.shape[0]:
        raise ShapeError(
            f"past vectors have {xp_new.shape[0]} rows, model expects {model.w.shape[0]}"
        )
    return model.j @ xp_new, model.j_res @ xp_new
