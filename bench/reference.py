"""A fixed job that gauges how fast the machine runs at the moment.

The benchmark runs on a few cores of a shared host whose speed drifts, by up
to 1.7x over minutes, with load from outside the guest. Whole runs land in
fast or slow spells, so medians over one run cannot remove the drift. The
run therefore brackets every measured pass and set-up with this job, and
reports its times scaled by NOMINAL_S over the bracketing jobs' mean time:
seconds on a machine that runs this job in NOMINAL_S.

The job mixes the three kinds of work the workloads do, in about equal
shares: text parsing in the interpreter (as ``cmapss`` does), matrix-vector
steps with a tanh (as a batch-1 LSTM forward does) and a small matrix product
(as a training batch does). It uses none of the package's code, so a change
to the package cannot move it.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# About the job's median time on the 2-vCPU x86_64 KVM guest the benchmark
# was defined on, with one BLAS thread.
NOMINAL_S = 0.25

_rng = np.random.default_rng(0)
_TEXT = (" ".join(f"{x:.4f}" for x in _rng.standard_normal(26)) + "\n") * 15000
_W = _rng.standard_normal((1024, 270)) * 0.05
_V = _rng.standard_normal(270)
_A = _rng.standard_normal((64, 384))
_B = _rng.standard_normal((384, 1024))


def seconds() -> float:
    """Wall time of one run of the job."""
    start = perf_counter()
    rows = [[float(token) for token in line.split()] for line in _TEXT.splitlines()]
    y = _V
    for _ in range(1000):
        y = np.tanh(_W @ y)[: len(_V)]
    for _ in range(50):
        product = _A @ _B
    if len(rows) != 15000 or not np.isfinite(y).all() or product.shape != (64, 1024):
        raise RuntimeError("reference job gave a wrong result")
    return perf_counter() - start
