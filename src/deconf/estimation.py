"""Plug-in (maximum-likelihood) ATE estimators for the three data regimes.

Everything here is frequency counting: no smoothing, no priors. The three
regimes differ only in which pieces of the factorization p = a * q come
from data:

* deconfounded only:    p_hat[g, z] = m[g, z] / m
* known marginal:       a known exactly, q_hat[g, z] = m[g, z] / m[g]
* finite:               a_hat[g] = n[g] / n and q_hat as above

A group with no deconfounded samples has no q_hat row; the ``fallback``
flag decides between raising (strict runs) and substituting the uniform
row (long Monte Carlo sweeps), and either way the group is flagged in
``degenerate_groups``. Zero-mass strata of the estimated joint table are
flagged in ``degenerate_strata``.

Every estimator runs on count tables, n[g] from (y, t) records and m[g, z]
from (y, t, z) records. The ``*_counts`` variants take a ``(..., 4, k)``
stack of m tables (n of shape ``(..., 4)``) and check it once per call; a
single table is a stack with no leading dims. The record-level entry
points check and count records (the stratified one x, y, t, z columns,
z = -1 for a hidden confounder, into one table per stratum). Each returns
one :class:`EstimationResult` of plain arrays over the stack. All but the
deconfounded-only baseline make one call of the numeric kernel,
:func:`q_hat_batch` plus :func:`deconf.model.ate_batch`, and nothing the
kernel computes is validated again. The simulation engine calls the
kernel directly.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import DegenerateGroupError, ValidationError
from .model import (
    GROUPS,
    ConfoundedDistribution,
    ate_batch,
    check_int,
    empty_strata,
    integer_array,
    split_joint,
)

FALLBACKS = ("error", "uniform")


def _check_fallback(fallback: str) -> None:
    if fallback not in FALLBACKS:
        raise ValidationError(f"fallback must be one of {FALLBACKS}, got {fallback!r}")


def _records_array(records, cols: int, name: str) -> np.ndarray:
    arr = integer_array(records, name)
    if arr.size == 0:
        return arr.reshape(0, cols)
    if arr.ndim != 2 or arr.shape[1] != cols:
        raise ValidationError(f"{name}: expected rows of {cols} integers")
    return arr


def _count_stack(counts, name: str, shape=None) -> np.ndarray:
    """``counts`` as non-negative integers of shape ``shape``, or a ``(..., 4, k >= 2)`` stack."""
    arr = integer_array(counts, name)
    if shape is None and (arr.ndim < 2 or arr.shape[-2] != 4 or arr.shape[-1] < 2):
        expected = "(4, k)" if arr.ndim <= 2 else "(..., 4, k)"
        raise ValidationError(f"{name}: expected shape {expected} with k >= 2, got {arr.shape}")
    if shape is not None and arr.shape != shape:
        raise ValidationError(f"{name}: expected shape {shape}, got {arr.shape}")
    if np.any(arr < 0):
        raise ValidationError(f"{name}: entries must be non-negative")
    return arr


def confounded_counts(records) -> np.ndarray:
    """Group counts n[g] from (y, t) records."""
    arr = _records_array(records, 2, "confounded records")
    _validate_bits(arr[:, 0], "y")
    _validate_bits(arr[:, 1], "t")
    g = 2 * arr[:, 0] + arr[:, 1]
    return np.bincount(g, minlength=4)


def deconfounded_counts(records, k: int) -> np.ndarray:
    """Cell counts m[g, z] from (y, t, z) records."""
    k = check_int(k, "k", 2)
    arr = _records_array(records, 3, "deconfounded records")
    _validate_bits(arr[:, 0], "y")
    _validate_bits(arr[:, 1], "t")
    if arr.size and (arr[:, 2].min() < 0 or arr[:, 2].max() >= k):
        raise ValidationError(f"z values must lie in [0, {k})")
    flat = (2 * arr[:, 0] + arr[:, 1]) * k + arr[:, 2]
    return np.bincount(flat, minlength=4 * k).reshape(4, k)


def _validate_bits(col, name):
    if col.size and (col.min() < 0 or col.max() > 1):
        raise ValidationError(f"{name} values must be 0 or 1")


class EstimationResult(NamedTuple):
    """Estimates for a ``(..., 4, k)`` stack of count tables, as plain arrays.

    ``degenerate_groups[..., g]`` flags a group with no deconfounded
    records and ``degenerate_strata[..., t, z]`` a zero-mass stratum of the
    estimated joint table. A single (4, k) table has no leading dims.
    """

    ate_hat: np.ndarray  # (...)
    a_hat: np.ndarray  # (..., 4)
    q_hat: np.ndarray  # (..., 4, k)
    degenerate_groups: np.ndarray  # (..., 4) bool
    degenerate_strata: np.ndarray  # (..., 2, k) bool


def q_hat_batch(counts, a, fallback: str = "uniform") -> np.ndarray:
    """Per-group MLE rows for every (4, k) count table in a ``(..., 4, k)`` stack.

    ``q_hat[..., g, z] = counts[..., g, z] / counts[..., g, :].sum()``; a
    group with no counts gets the uniform row. ``a`` (broadcastable to
    ``(..., 4)``) is the marginal the rows will be weighted by: under
    ``fallback="error"`` an empty group with positive mass in any member of
    the batch raises :class:`DegenerateGroupError` naming the groups of the
    first such member.
    """
    _check_fallback(fallback)
    counts = np.asarray(counts, dtype=float)
    totals = counts.sum(axis=-1, keepdims=True)
    if fallback == "error":
        bad = (totals[..., 0] == 0.0) & (np.asarray(a) > 0.0)
        if bad.any():
            rows = bad.reshape(-1, 4)
            first = rows[rows.any(axis=1)][0]
            raise DegenerateGroupError([GROUPS[g] for g in np.nonzero(first)[0]])
    uniform = np.full(counts.shape, 1.0 / counts.shape[-1])
    return np.divide(counts, totals, out=uniform, where=totals > 0.0)


def _estimate(a_hat, m_counts, fallback: str) -> EstimationResult:
    """The estimates for an ``(..., 4)`` marginal and an ``(..., 4, k)`` count stack.

    One :func:`q_hat_batch` and one :func:`ate_batch` call cover the stack.
    """
    q_hat = q_hat_batch(m_counts, a_hat, fallback)
    p = a_hat[..., None] * q_hat
    return EstimationResult(
        ate_batch(p), a_hat, q_hat, m_counts.sum(axis=-1) == 0, empty_strata(p)
    )


def estimate_deconfounded_only(deconfounded, k: int) -> EstimationResult:
    """Baseline estimator that ignores confounded data: the MLE joint of the cells."""
    m_counts = deconfounded_counts(deconfounded, k)
    total = m_counts.sum()
    if total <= 0:
        raise ValidationError("need at least one deconfounded record")
    p = m_counts / total
    groups = m_counts.sum(axis=-1) == 0
    return EstimationResult(ate_batch(p), *split_joint(p), groups, empty_strata(p))


def estimate_with_known_confounded_counts(
    a: ConfoundedDistribution, m_counts, fallback: str = "uniform"
) -> EstimationResult:
    """Plug-in estimator with the marginal known exactly (infinite regime).

    ``m_counts`` is a ``(..., 4, k)`` stack; ``a`` is the marginal of every member.
    """
    m_counts = _count_stack(m_counts, "m_counts")
    return _estimate(np.broadcast_to(a.a, m_counts.shape[:-1]), m_counts, fallback)


def estimate_with_known_confounded(
    a: ConfoundedDistribution, deconfounded, k: int, fallback: str = "uniform"
) -> EstimationResult:
    return estimate_with_known_confounded_counts(
        a, deconfounded_counts(deconfounded, k), fallback
    )


def estimate_finite_counts(n_counts, m_counts, fallback: str = "uniform") -> EstimationResult:
    """Plug-in estimator with both a and q estimated from counts.

    ``m_counts`` is a ``(..., 4, k)`` stack and ``n_counts`` its ``(..., 4)`` group counts.
    """
    m_counts = _count_stack(m_counts, "m_counts")
    n_counts = _count_stack(n_counts, "n_counts", m_counts.shape[:-1])
    totals = n_counts.sum(axis=-1, keepdims=True)
    if np.any(totals == 0):
        raise ValidationError("a: cannot normalize all-zero counts")
    return _estimate(n_counts / totals, m_counts, fallback)


def estimate_finite(
    confounded, deconfounded, k: int, fallback: str = "uniform"
) -> EstimationResult:
    """Plug-in estimator from (y, t) and (y, t, z) records.

    Rows that were deconfounded are still confounded observations, so when
    the records come from one sampling process the deconfounded ones should
    also appear among the confounded records.
    """
    return estimate_finite_counts(
        confounded_counts(confounded), deconfounded_counts(deconfounded, k), fallback
    )


class StratifiedResult(NamedTuple):
    strata: np.ndarray  # the x values, sorted
    weights: np.ndarray  # each stratum's share of the records
    estimates: EstimationResult  # one member per stratum
    aggregate: float


def estimate_stratified_ite(x, y, t, z, k: int, fallback: str = "uniform") -> StratifiedResult:
    """Covariate-stratified effect: per-x finite estimates, weighted by x share.

    ``x, y, t, z`` are columns of one length; z = -1 marks a hidden
    confounder. Every record is a confounded observation of its stratum, and
    records with z >= 0 also count toward its conditionals. All strata are
    estimated in one batch; under ``fallback="error"`` the first degenerate
    stratum in sorted-x order is the one reported.
    """
    cols = [integer_array(col, name) for col, name in zip((x, y, t, z), "xytz")]
    x, y, t, z = cols
    if any(col.ndim != 1 or col.shape != x.shape for col in cols):
        raise ValidationError("stratified columns must share one length")
    k = check_int(k, "k", 2)
    if x.size == 0:
        raise ValidationError("stratified dataset is empty")
    _validate_bits(y, "y")
    _validate_bits(t, "t")
    if x.min() < 0:
        raise ValidationError("x values must be >= 0")
    if z.min() < -1 or z.max() >= k:
        raise ValidationError(f"z values must be -1 (hidden) or in [0, {k})")
    strata, inverse = np.unique(x, return_inverse=True)
    # one (4, k + 1) table per stratum, hidden records in column 0
    flat = (4 * inverse + 2 * y + t) * (k + 1) + z + 1
    cells = np.bincount(flat, minlength=len(strata) * 4 * (k + 1)).reshape(-1, 4, k + 1)
    n_counts = cells.sum(axis=2)
    sizes = n_counts.sum(axis=1)
    weights = sizes / x.size
    estimates = _estimate(n_counts / sizes[:, None], cells[:, :, 1:], fallback)
    aggregate = 0.0
    for weight, ate in zip(weights.tolist(), estimates.ate_hat.tolist()):
        aggregate += weight * ate  # a running sum in sorted-x order
    return StratifiedResult(strata, weights, estimates, aggregate)
