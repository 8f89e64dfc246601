"""Stacked LSTM regressor with explicit backpropagation through time.

Pure numpy. A window of shape (L, m) runs through the stacked recurrence;
the final top-layer hidden state feeds a dense head that emits the RUL
estimate. Inter-layer dropout is inverted (scaled at train time) so
inference needs no rescaling. Everything is deterministic for a fixed seed
and single-threaded execution.

Every op follows the parameters' dtype. ``init_regressor`` draws float64
weights, so the seeded draws and the float64 finite-difference gradient
checks do not depend on how a model is trained; ``train`` casts the new
model to float32 before its first batch, as the reference Keras model
trained. Windows and targets are cast to the weights' dtype (a finite value
beyond float32's range is a NumericError). Only the loss, the gradient clip
norm and the RMSProp mean squares are kept in float64.

Each layer stores its gates fused: ``wx`` (4h, d), ``wh`` (4h, h) and ``b``
(4h,), row blocks in gate order (input, forget, output, candidate), so the
three sigmoid gates form one contiguous slab. Activations are feature-major,
gates (L, 4h, B) and cells and hidden states (L, h, B), so each gate block of
a step is a contiguous row slab (Appleyard et al., arXiv:1604.01946). In
training one stacked GEMM projects every step's inputs ahead of the recurrence
``z += wh @ h[t-1]``; batched inference projects each step into one reused
(4h, B) buffer with the same per-step GEMM; a single window keeps its one
(L, d) @ (d, 4h) GEMM.

``predict``, the stream's per-record estimate, runs one window through its own
batch-1 loop on 1-D buffers made once per layer: the same single GEMM, then
per step one GEMV into a reused buffer and one tanh over all 4h rows. The
sigmoid rows' pre-activations are halved first, as sigmoid(x) =
0.5 * (1 + tanh(x / 2)); halving is exact and commutes with rounding, so the
estimate is bit for bit ``predict_batch``'s on that window. The one exception
is a halved operand below the smallest normal number (float32: 1.2e-38).

The training cache holds only what the backward reads: per layer the unmasked
inputs (above the first, the lower layer's hidden states), the bool dropout
mask, gates, cells and hidden states. The backward recomputes tanh(c) and the
masked inputs with the forward's own ufuncs, so the gradients keep their bits.
Its time loop keeps only ``wh.T @ dz``, writing each gate gradient over the
cached activations. It frees the cells, tanh(c) and the incoming gradient
before the lower layer's ``wx.T @ dz`` and the (4h, L*B) copy of the gate
gradients, and the gates after that copy. Inputs and hidden states go to
(L*B, ·), so each weight gradient is one GEMM.

Checkpoints are version 2 and hold the fused arrays, each loaded back in its
stored dtype (all float32 or all float64).
"""

from __future__ import annotations

import json
import zipfile
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    ConfigError,
    InsufficientDataError,
    IntegrityError,
    NumericError,
    ShapeError,
)
from .labeling import WindowedDataset


@dataclass
class LstmLayer:
    """Fused gate blocks: input weights wx (4h, d), recurrent weights wh (4h, h), biases b (4h,)."""

    wx: np.ndarray
    wh: np.ndarray
    b: np.ndarray

    @property
    def hidden_size(self) -> int:
        return self.wh.shape[1]

    @property
    def input_size(self) -> int:
        return self.wx.shape[1]


@dataclass
class LstmRegressor:
    """Stacked LSTM layers, inter-layer dropout ratios, and a dense head."""

    layers: list
    dropout_ratios: tuple
    head_w: np.ndarray
    head_b: np.ndarray  # shape (1,)
    seed: int
    label_cap: float = 130.0
    sequence_length: int | None = None

    @property
    def input_dim(self) -> int:
        return self.layers[0].input_size

    @property
    def hidden_sizes(self) -> tuple:
        return tuple(layer.hidden_size for layer in self.layers)

    @property
    def dtype(self) -> np.dtype:
        return self.head_w.dtype


def _init_layer(d_in: int, h: int, rng: np.random.Generator) -> LstmLayer:
    scale = 1.0 / np.sqrt(h)
    wx = rng.uniform(-scale, scale, size=(4 * h, d_in))
    wh = rng.uniform(-scale, scale, size=(4 * h, h))
    for w in (wx, wh):  # drawn in (i, f, g, o) order, stored as (i, f, o, g)
        candidate = w[2 * h : 3 * h].copy()
        w[2 * h : 3 * h] = w[3 * h :]
        w[3 * h :] = candidate
    b = np.zeros(4 * h)
    b[h : 2 * h] = 1.0  # open forget gates stabilize early training
    return LstmLayer(wx, wh, b)


def _check_architecture(hidden_sizes: tuple, dropout_ratios: tuple) -> None:
    """Refuse a layer stack that ``init_regressor`` cannot build."""
    if not hidden_sizes or any(h < 1 for h in hidden_sizes):
        raise ConfigError(f"hidden sizes must be positive, got {hidden_sizes}")
    if len(dropout_ratios) != len(hidden_sizes) - 1:
        raise ConfigError(
            f"{len(hidden_sizes)} layers need {len(hidden_sizes) - 1} inter-layer "
            f"dropout ratios, got {len(dropout_ratios)}"
        )
    if any(not 0.0 <= d < 1.0 for d in dropout_ratios):
        raise ConfigError(f"dropout ratios must lie in [0, 1), got {dropout_ratios}")


def init_regressor(
    input_dim: int,
    hidden_sizes,
    dropout_ratios,
    seed: int = 0,
    label_cap: float = 130.0,
    sequence_length: int | None = None,
) -> LstmRegressor:
    hidden_sizes = tuple(int(h) for h in hidden_sizes)
    dropout_ratios = tuple(float(d) for d in dropout_ratios)
    _check_architecture(hidden_sizes, dropout_ratios)
    rng = np.random.default_rng(seed)
    layers = []
    d_in = input_dim
    for h in hidden_sizes:
        layers.append(_init_layer(d_in, h, rng))
        d_in = h
    scale = 1.0 / np.sqrt(hidden_sizes[-1])
    head_w = rng.uniform(-scale, scale, size=hidden_sizes[-1])
    return LstmRegressor(
        layers=layers,
        dropout_ratios=dropout_ratios,
        head_w=head_w,
        head_b=np.zeros(1),
        seed=seed,
        label_cap=label_cap,
        sequence_length=sequence_length,
    )


def iter_parameters(model: LstmRegressor):
    """Named views of every trainable array, in a fixed order."""
    out = []
    for idx, layer in enumerate(model.layers):
        out += [(f"layer{idx}.{kind}", getattr(layer, kind)) for kind in ("wx", "wh", "b")]
    return out + [("head.w", model.head_w), ("head.b", model.head_b)]


def _with_parameters(model: LstmRegressor, arrays: dict) -> LstmRegressor:
    """model's architecture holding the named arrays of iter_parameters."""
    layers = [
        LstmLayer(*(arrays[f"layer{idx}.{kind}"] for kind in ("wx", "wh", "b")))
        for idx in range(len(model.layers))
    ]
    return replace(model, layers=layers, head_w=arrays["head.w"], head_b=arrays["head.b"])


def _cast(values, dtype, what: str) -> np.ndarray:
    """values as an array of dtype; a finite value beyond its range raises."""
    values = np.asarray(values)
    if values.dtype != dtype:
        values = np.asarray(values, dtype=float)
        if np.any(np.isfinite(values) & (np.abs(values) > np.finfo(dtype).max)):
            raise NumericError(f"{what} hold a finite value beyond the {dtype} range")
        values = values.astype(dtype, copy=False)
    return values


def _sigmoid_(x):
    """Logistic sigmoid in place, as 0.5 * (1 + tanh(x / 2))."""
    x *= 0.5
    np.tanh(x, out=x)
    x += 1.0
    x *= 0.5


def _time_major(a: np.ndarray) -> np.ndarray:
    """(L, n, B) activations copied to an (L*B, n) matrix."""
    return np.ascontiguousarray(a.transpose(0, 2, 1)).reshape(-1, a.shape[1])


def _dropout_scale(mask: np.ndarray, ratio: float, dtype) -> np.ndarray:
    """Inverted dropout's multiplier for a bool keep mask: 1 / (1 - ratio) where kept, else 0."""
    scale = mask.astype(dtype)
    scale /= 1.0 - ratio
    return scale


def _forward_batch(model: LstmRegressor, x: np.ndarray, training: bool, rng, keep_cache=True):
    """Run (B, L, d) windows through the stack; returns (yhat (B,), cache).

    The cache holds one dict per layer of what the backward reads: the
    layer's unmasked inputs, its bool dropout mask (or None), gates, cells and
    hidden states. With keep_cache=False it stays empty, one step's cell
    buffers are reused, and each layer's hidden states are freed once the next
    has read them.
    """
    dtype = model.dtype
    x = _cast(x, dtype, "windows")
    if x.ndim != 3 or x.shape[2] != model.input_dim:
        raise ShapeError(
            f"window batch of shape {x.shape} does not match input dim {model.input_dim}"
        )
    batch, steps, _ = x.shape
    if steps == 0:
        raise InsufficientDataError("a window needs at least one cycle")
    cache = []
    inputs = np.ascontiguousarray(x.transpose(1, 2, 0))
    for idx, layer in enumerate(model.layers):
        mask = None
        if idx > 0:
            ratio = model.dropout_ratios[idx - 1]
            if training and ratio > 0.0:
                if rng is None:
                    raise ConfigError("training-mode forward with dropout needs an rng")
                # drawn as (B, L, d), so the rng stream does not depend on the layout
                mask = rng.random((batch, steps, inputs.shape[1])) < 1.0 - ratio
                mask = np.ascontiguousarray(mask.transpose(1, 2, 0))
        h = layer.hidden_size
        per_step = batch > 1 and not keep_cache  # inference projects one step at a time
        if per_step:
            gates = np.empty((1, 4 * h, batch), dtype)
        else:
            masked = inputs if mask is None else inputs * _dropout_scale(mask, ratio, dtype)
            # a single window's input projection is one GEMM, not L matrix-vector products
            gates = (masked[:, :, 0] @ layer.wx.T)[:, :, None] if batch == 1 else layer.wx @ masked
            gates += layer.b[:, None]
            del masked  # the backward masks the inputs again
        hidden = np.empty((steps, h, batch), dtype)
        kept_steps = steps if keep_cache else 1
        cells = np.zeros((kept_steps, h, batch), dtype)  # cells[-1]: zero state until written
        tc = np.empty((h, batch), dtype)
        for t in range(steps):
            z = gates[0 if per_step else t]  # pre-activations in, gate activations out
            if per_step:  # the slice GEMM that the stacked wx @ inputs runs
                np.matmul(layer.wx, inputs[t], out=z)
                z += layer.b[:, None]
            if t:
                z += layer.wh @ hidden[t - 1]
            _sigmoid_(z[: 3 * h])
            np.tanh(z[3 * h :], out=z[3 * h :])
            c = cells[t % kept_steps]
            np.multiply(z[:h], z[3 * h :], out=tc)
            np.multiply(z[h : 2 * h], cells[(t - 1) % kept_steps], out=c)
            c += tc
            np.tanh(c, out=tc)
            np.multiply(z[2 * h : 3 * h], tc, out=hidden[t])
        if not np.all(np.isfinite(hidden)):
            bad = np.argwhere(~np.isfinite(hidden).all(axis=(1, 2)))
            step = int(bad[0][0]) if len(bad) else -1
            raise NumericError(f"non-finite activation in layer {idx} at step {step}")
        if keep_cache:
            cache.append(dict(inputs=inputs, mask=mask, gates=gates, c=cells, h=hidden))
        inputs = hidden
    yhat = model.head_w @ hidden[-1] + model.head_b[0]
    return yhat, cache


def _backward_batch(model: LstmRegressor, cache: list, dyhat: np.ndarray) -> dict:
    """Backpropagate d(loss)/d(yhat) through head and stacked recurrences.

    Consumes the cache: each layer's gate activations are overwritten with
    their gradients, and each array is dropped once its last reader is done.
    """
    grads = {"head.w": cache[-1]["h"][-1] @ dyhat, "head.b": np.array([dyhat.sum()])}
    d_hidden = None  # the top layer's only upstream gradient is the head's
    dh_next = np.outer(model.head_w, dyhat)
    for idx in range(len(model.layers) - 1, -1, -1):
        layer = model.layers[idx]
        keys = ("inputs", "mask", "gates", "c", "h")
        inputs, mask, gates, cells, hidden = map(cache.pop().get, keys)
        steps, h, batch = hidden.shape
        cell_tanh = np.tanh(cells)  # recomputed here rather than cached by the forward
        dc_next = 0.0
        for t in range(steps - 1, -1, -1):
            z = gates[t]  # gate activations in, d(loss)/d(pre-activation) out
            gi, gf, go, gg = z[:h], z[h : 2 * h], z[2 * h : 3 * h], z[3 * h :]
            dh = dh_next if d_hidden is None else d_hidden[t] + dh_next
            tc = cell_tanh[t]
            dc = dc_next + dh * go * (1.0 - tc * tc)
            dc_next = dc * gf
            dz_g = dc * gi * (1.0 - gg * gg)
            sig = z[: 3 * h]
            sig *= 1.0 - sig  # sigmoid derivative of the (i, f, o) slab
            gi *= dc * gg
            gf *= dc * cells[t - 1] if t else 0.0
            go *= dh * tc
            gg[...] = dz_g
            if t:
                dh_next = layer.wh.T @ z
        del cells, cell_tanh, tc, d_hidden
        d_below = layer.wx.T @ gates if idx else None
        # one GEMM per weight gradient, summing over steps and windows at once
        d_z = np.ascontiguousarray(gates.transpose(1, 0, 2)).reshape(4 * h, -1)
        del gates, z, gi, gf, go, gg, sig
        if mask is not None:
            scale = _dropout_scale(mask, model.dropout_ratios[idx - 1], d_below.dtype)
            d_below *= scale
            inputs = np.multiply(inputs, scale, out=scale)  # masked again, in scale's buffer
            del scale
        grads[f"layer{idx}.wx"] = d_z @ _time_major(inputs)
        # step t's recurrent input is hidden[t - 1]; step 0 saw a zero state
        grads[f"layer{idx}.wh"] = d_z[:, batch:] @ _time_major(hidden[:-1])
        grads[f"layer{idx}.b"] = d_z @ np.ones(d_z.shape[1], d_z.dtype)  # a GEMV beats .sum(1)
        del d_z, inputs
        d_hidden, dh_next = d_below, 0.0
    return grads


def loss_and_gradients(model: LstmRegressor, windows: np.ndarray, targets: np.ndarray, rng=None):
    """Mean squared error over a batch plus gradients for every parameter.

    Dropout is active when an rng is supplied; pass a freshly seeded
    generator to make the sampled masks reproducible.
    """
    windows = _cast(windows, model.dtype, "windows")
    targets = _cast(targets, model.dtype, "targets").ravel()
    if windows.ndim != 3 or windows.shape[0] != targets.shape[0]:
        raise IntegrityError(
            f"batch of {windows.shape} windows does not pair with {targets.shape} targets"
        )
    if len(targets) == 0:
        raise InsufficientDataError("empty batch")
    yhat, cache = _forward_batch(model, windows, training=rng is not None, rng=rng)
    residual = yhat - targets
    with np.errstate(over="ignore"):  # overflow surfaces as the NumericError below
        mse = float(np.mean(np.square(residual, dtype=float)))
    if not np.isfinite(mse):
        raise NumericError("loss is non-finite")
    dyhat = 2.0 * residual / len(targets)
    grads = _backward_batch(model, cache, dyhat)
    for name, grad in grads.items():
        if not np.all(np.isfinite(grad)):
            raise NumericError(f"non-finite gradient for {name}")
    return mse, grads


def clip_gradients(grads: dict, max_norm: float) -> float:
    """Scale all gradients so their global L2 norm is at most max_norm.

    The norm is summed in float64, where float32 squares of gradients above
    about 1.8e19 would overflow and the clip would zero every gradient.
    """
    total = float(np.sqrt(sum(float(np.sum(np.square(g, dtype=float))) for g in grads.values())))
    if max_norm > 0 and total > max_norm:
        factor = max_norm / total
        for g in grads.values():
            g *= factor
    return total


def rmsprop_step(params, grads: dict, state: dict, lr: float, decay: float = 0.9, eps: float = 1e-8):
    """One RMSProp update: s <- decay*s + (1-decay)*g^2, p <- p - lr*g/sqrt(s+eps).

    ``s`` is kept in float64, where float32 squares of gradients above about
    1.8e19 would overflow to inf and leave their parameter frozen.
    """
    for name, value in params:
        g = grads[name]
        s = state.get(name)
        if s is None:
            s = np.zeros(value.shape)
            state[name] = s
        s *= decay
        s += (1.0 - decay) * np.square(g, dtype=float)
        value -= lr * g / np.sqrt(s + eps)
    return params, state


@dataclass(frozen=True)
class TrainConfig:
    """Training knobs for the windowed regressor."""

    sequence_length: int = 50
    hidden_sizes: tuple = (256, 128, 32)
    dropout_ratios: tuple = (0.2, 0.1)
    learning_rate: float = 0.001
    epochs: int = 30
    batch_size: int = 64
    optimizer: str = "rmsprop"
    seed: int = 0
    grad_clip: float | None = 5.0
    label_cap: float = 130.0

    def __post_init__(self):
        if self.sequence_length < 1:
            raise ConfigError("sequence length must be >= 1")
        if not 0.0 < self.learning_rate < np.inf:  # a NaN fails too
            raise ConfigError(f"learning rate must be positive and finite, got {self.learning_rate}")
        if self.epochs < 0 or self.batch_size < 1:
            raise ConfigError("epochs must be >= 0 and batch size >= 1")
        if self.optimizer != "rmsprop":
            raise ConfigError(f"unknown optimizer {self.optimizer!r}; only 'rmsprop' is supported")
        if self.grad_clip is not None and not 0.0 < self.grad_clip < np.inf:
            raise ConfigError(f"gradient clip norm must be positive and finite, got {self.grad_clip}")
        _check_architecture(tuple(self.hidden_sizes), tuple(self.dropout_ratios))


def train(dataset: WindowedDataset, config: TrainConfig):
    """Mini-batch training with seeded shuffling; returns (model, loss history).

    The history holds one mean squared error per epoch, averaged over all
    samples. The model trains in float32; epochs=0 returns the freshly
    initialized model cast to float32.
    """
    if len(dataset) == 0:
        raise InsufficientDataError("windowed dataset is empty")
    if dataset.sequence_length != config.sequence_length:
        raise IntegrityError(
            f"dataset windows have length {dataset.sequence_length}, "
            f"config expects {config.sequence_length}"
        )
    model = init_regressor(
        dataset.n_channels,
        config.hidden_sizes,
        config.dropout_ratios,
        seed=config.seed,
        label_cap=config.label_cap,
        sequence_length=config.sequence_length,
    )
    model = _with_parameters(
        model, {name: value.astype(np.float32) for name, value in iter_parameters(model)}
    )
    rng = np.random.default_rng(config.seed)
    params = iter_parameters(model)
    state: dict = {}
    history = []
    n = len(dataset)
    for _ in range(config.epochs):
        order = rng.permutation(n)
        sq_error_sum = 0.0
        for start in range(0, n, config.batch_size):
            batch_idx = order[start : start + config.batch_size]
            mse, grads = loss_and_gradients(
                model, dataset.windows[batch_idx], dataset.targets[batch_idx], rng=rng
            )
            if config.grad_clip is not None:
                clip_gradients(grads, config.grad_clip)
            rmsprop_step(params, grads, state, config.learning_rate)
            sq_error_sum += mse * len(batch_idx)
        history.append(sq_error_sum / n)
    return model, history


def predict_batch(model: LstmRegressor, windows: np.ndarray, cap: float | None = None) -> np.ndarray:
    """Inference-mode estimates for a (B, L, m) stack of windows, clamped to [0, cap]."""
    if cap is None:
        cap = model.label_cap
    yhat, _ = _forward_batch(model, windows, training=False, rng=None, keep_cache=False)
    return np.clip(yhat, 0.0, cap)


def predict(model: LstmRegressor, window: np.ndarray, cap: float | None = None) -> float:
    """Inference-mode estimate for one (L, m) window, clamped to [0, cap].

    A batch-1 loop on 1-D buffers that halves the sigmoid rows of the input
    projection and of each step's ``wh @ h[t-1]``, then takes one tanh over all
    4h rows (module docstring). Its estimate is bit for bit ``predict_batch``'s
    on the window alone, unless a halved operand falls below the smallest normal.
    """
    if cap is None:
        cap = model.label_cap
    window = np.asarray(window, dtype=float)
    if window.ndim != 2:
        raise ShapeError(f"expected an (L, m) window, got shape {window.shape}")
    dtype = model.dtype
    inputs = np.ascontiguousarray(_cast(window, dtype, "windows"))
    if inputs.shape[1] != model.input_dim:
        raise ShapeError(
            f"window batch of shape {(1, *inputs.shape)} does not match input dim {model.input_dim}"
        )
    if len(inputs) == 0:
        raise InsufficientDataError("a window needs at least one cycle")
    for idx, layer in enumerate(model.layers):
        h = layer.hidden_size
        half = np.full(4 * h, 0.5, dtype)
        half[3 * h :] = 1.0
        gates = inputs @ layer.wx.T
        gates += layer.b
        gates *= half
        hidden = np.empty((len(gates), h), dtype)
        z, rec = np.empty(4 * h, dtype), np.empty(4 * h, dtype)
        c, tc = np.zeros(h, dtype), np.empty(h, dtype)
        sig, gi, gf, go, gg = z[: 3 * h], z[:h], z[h : 2 * h], z[2 * h : 3 * h], z[3 * h :]
        for t in range(len(gates)):
            if t:
                np.dot(layer.wh, hidden[t - 1], out=rec)
                rec *= half
                np.add(gates[t], rec, out=z)
            else:
                z[:] = gates[0]
            np.tanh(z, out=z)
            sig += 1.0
            sig *= 0.5
            np.multiply(gi, gg, out=tc)
            c *= gf
            c += tc
            np.tanh(c, out=tc)
            np.multiply(go, tc, out=hidden[t])
        if not np.all(np.isfinite(hidden)):
            step = int(np.argmin(np.isfinite(hidden).all(axis=1)))
            raise NumericError(f"non-finite activation in layer {idx} at step {step}")
        inputs = hidden
    yhat = model.head_w @ hidden[-1, :, None] + model.head_b[0]
    return float(np.clip(yhat, 0.0, cap)[0])


def save_checkpoint(model: LstmRegressor, path, meta: dict | None = None) -> None:
    """Versioned binary checkpoint: architecture header plus parameter payload."""
    header = {
        "version": 2,
        "input_dim": model.input_dim,
        "hidden_sizes": list(model.hidden_sizes),
        "dropout_ratios": list(model.dropout_ratios),
        "seed": model.seed,
        "label_cap": model.label_cap,
        "sequence_length": model.sequence_length,
        "meta": meta or {},
    }
    payload = {name: value for name, value in iter_parameters(model)}
    payload["header"] = np.frombuffer(json.dumps(header, sort_keys=True).encode(), dtype=np.uint8)
    np.savez(path, **payload)


def load_checkpoint(path):
    """Load (model, meta) from a checkpoint written by save_checkpoint.

    The parameters keep their stored dtype, which must be float32 for all of
    them or float64 for all of them, and the label cap must be a positive finite
    number. A file that is not such a checkpoint is an IntegrityError naming
    the path.
    """
    try:
        with np.load(path) as payload:  # a .npy file loads as an array: TypeError
            stored = {name: payload[name] for name in payload.files}
        header = json.loads(bytes(stored["header"]).decode())
        if not isinstance(header, dict) or not isinstance(header.get("meta"), dict):
            raise ValueError("header is not a JSON object with a meta object")
        version = header.get("version")
        if version != 2:
            raise IntegrityError(f"unsupported checkpoint version {version}")
        cap = header["label_cap"]  # the stream clips its estimates at it
        if type(cap) not in (int, float) or not 0 < cap < float("inf"):  # a NaN fails too
            raise ValueError(f"label_cap must be a positive finite number, got {cap!r}")
        template = init_regressor(
            header["input_dim"],
            header["hidden_sizes"],
            header["dropout_ratios"],
            seed=header["seed"],
            label_cap=cap,
            sequence_length=header.get("sequence_length"),
        )
    except (ValueError, TypeError, KeyError, EOFError, zipfile.BadZipFile, ConfigError) as exc:
        raise IntegrityError(f"unreadable checkpoint {path}: {type(exc).__name__}: {exc}") from None
    arrays, dtype = {}, None
    for name, value in iter_parameters(template):
        if name not in stored:
            raise IntegrityError(f"checkpoint missing parameter {name}")
        array = stored[name]
        dtype = array.dtype if dtype is None else dtype
        if array.dtype != dtype or dtype not in (np.float32, np.float64):
            raise IntegrityError(
                f"checkpoint parameter {name} has dtype {array.dtype}; "
                f"parameters must be all float32 or all float64"
            )
        if array.shape != value.shape:
            raise IntegrityError(
                f"checkpoint parameter {name} has shape {array.shape}, "
                f"expected {value.shape}"
            )
        arrays[name] = array
    return _with_parameters(template, arrays), header["meta"]
