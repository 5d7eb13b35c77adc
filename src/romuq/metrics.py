"""Evaluation quantities: kinetic energy, relative MSE, pointwise scaled
MSE, ensemble CRPS and Pearson correlation, and the plot-ready CSV tables
they are written to."""

from __future__ import annotations

import numpy as np

# Decoded rows (one member's snapshot at one time step) per block of the
# second pass and of crps: their temporaries stay a few MB, whatever the
# ensemble size and the number of steps.
BLOCK_ROWS = 512


class ZeroVarianceError(ValueError):
    pass


def kinetic_energy(states: np.ndarray) -> np.ndarray:
    """Per-step kinetic energy of the scalar state, k_t = (1/(2 n_xy)) sum_d u^2."""
    states = np.asarray(states, dtype=np.float64)
    return 0.5 * np.mean(states ** 2, axis=-1)


def relative_mse(pred: np.ndarray, truth: np.ndarray) -> float:
    """sum (pred - truth)^2 / sum truth^2, as a percentage."""
    pred = np.asarray(pred, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if pred.shape != truth.shape:
        raise ValueError(f"shape mismatch {pred.shape} vs {truth.shape}")
    denom = np.sum(truth ** 2)
    if denom <= 0:
        raise ZeroVarianceError("truth has zero energy")
    return float(np.sum((pred - truth) ** 2) / denom * 100.0)


def scaled_mse(pred: np.ndarray, truth: np.ndarray):
    """Per-point temporal MSE scaled by the squared temporal range.

    Returns (per-point map over space, mean over space). Points whose truth
    signal is constant fall back to a 1e-8 floor in the denominator.
    """
    pred = np.asarray(pred, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if pred.shape != truth.shape:
        raise ValueError(f"shape mismatch {pred.shape} vs {truth.shape}")
    mse_d = np.mean((pred - truth) ** 2, axis=0)
    rng_d = truth.max(axis=0) - truth.min(axis=0)
    per_point = mse_d / (rng_d ** 2 + 1e-8)
    return per_point, float(per_point.mean())


def time_blocks(n_t: int, n: int) -> list:
    """Slices covering ``range(n_t)`` in blocks of about ``BLOCK_ROWS // n``
    time steps, all ``n`` members in each. numpy sums a single column
    pairwise but several columns member by member, so no block is a single
    step unless the whole range is one: a block's sums over the members are
    then bit for bit those of one call over every step."""
    step = max(2, BLOCK_ROWS // n)
    edges = list(range(0, n_t, step)) + [n_t]
    if len(edges) > 2 and edges[-1] - edges[-2] == 1:
        del edges[-2]
    return [slice(a, b) for a, b in zip(edges, edges[1:])]


def crps(ensemble: np.ndarray, truth: np.ndarray, form: str = "printed") -> float:
    """Ensemble CRPS averaged over all elements.

    ``printed`` uses squared differences:
        (1/n) sum_i (e_i - t)^2 - (1/(2 n^2)) sum_{i != j} (e_i - e_j)^2
    which equals (mean_i e_i - t)^2, the squared error of the ensemble
    mean: it scores accuracy, not spread. ``abs`` is the standard
    absolute-value ensemble form, the one that scores the spread.

    The per-element scores are computed in blocks of time steps (the first
    axis of ``truth``), so the temporaries stay a few MB.
    """
    ensemble = np.asarray(ensemble, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    n = ensemble.shape[0]
    if n < 2:
        raise ValueError("ensemble needs at least two members")
    if ensemble.shape[1:] != truth.shape:
        raise ValueError(f"shape mismatch {ensemble.shape[1:]} vs {truth.shape}")
    if form not in ("printed", "abs"):
        raise ValueError(f"unknown CRPS form {form!r}")

    shape = truth.shape or (1,)  # a 0-d truth is one step of one element
    ensemble, truth = ensemble.reshape((n,) + shape), truth.reshape(shape)
    k = np.arange(n).reshape((n,) + (1,) * len(shape))
    score = np.empty(shape)
    for s in time_blocks(shape[0], n):
        e = ensemble[:, s]
        if form == "printed":
            term1 = np.mean((e - truth[None, s]) ** 2, axis=0)
            # sum_{i,j} (e_i - e_j)^2 = 2n sum e^2 - 2 (sum e)^2
            s1 = e.sum(axis=0)
            s2 = (e ** 2).sum(axis=0)
            pair = 2.0 * n * s2 - 2.0 * s1 ** 2
        else:
            term1 = np.mean(np.abs(e - truth[None, s]), axis=0)
            srt = np.sort(e, axis=0)
            # sum_{i,j} |e_i - e_j| = 2 sum_k e_(k) (2k - n + 1), 0-indexed
            pair = 2.0 * np.sum(srt * (2 * k - n + 1), axis=0)
        score[s] = term1 - pair / (2.0 * n * n)
    return float(np.mean(score))


def pearson(x: np.ndarray, y: np.ndarray) -> float:
    """Pearson correlation coefficient in [-1, 1]."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1 or x.size < 2:
        raise ValueError("need two equal-length series of length >= 2")
    xc = x - x.mean()
    yc = y - y.mean()
    sx = np.sqrt(np.sum(xc ** 2))
    sy = np.sqrt(np.sum(yc ** 2))
    if sx == 0 or sy == 0:
        raise ZeroVarianceError("zero variance input")
    return float(np.clip(np.sum(xc * yc) / (sx * sy), -1.0, 1.0))


def write_param_csv(path, points, **columns):
    """Per-parameter table: the parameter columns of ``points``, then one
    column per keyword, each holding one value per point."""
    if not points:
        raise ValueError("empty per-parameter table")
    write_csv(path, points[0].names() + tuple(columns),
              [(*p.vector(), *row) for p, *row in zip(points, *columns.values())])


def write_csv(path, header, rows):
    """Plot-ready CSV table: integers as they are, every other value as
    ``repr(float(v))``, which reads back bit-exactly."""
    with open(path, "w") as f:
        f.write(",".join(header) + "\n")
        for row in rows:
            f.write(",".join(str(v) if isinstance(v, (int, np.integer)) else repr(float(v))
                             for v in row) + "\n")
