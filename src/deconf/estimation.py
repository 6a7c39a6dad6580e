"""Plug-in (maximum-likelihood) ATE estimators for the three data regimes.

Everything here is frequency counting: no smoothing, no priors. The three
regimes differ only in which pieces of the factorization p = a * q come
from data:

* deconfounded only:    p_hat[g, z] = m[g, z] / m
* known marginal:       a known exactly, q_hat[g, z] = m[g, z] / m[g]
* finite:               a_hat[g] = n[g] / n and q_hat as above

A group with no deconfounded samples has no q_hat row; the ``fallback``
flag decides between raising (strict runs) and substituting the uniform
row (long Monte Carlo sweeps), and either way the group is reported in
``degenerate_groups``. Zero-mass strata flagged by the ATE evaluation
surface in ``degenerate_strata``.

Every estimator runs on count tables, n[g] from (y, t) records and m[g, z]
from (y, t, z) records: the ``*_counts`` variants take and check them, the
record-level entry points check and count records (the stratified one x,
y, t, z columns, z = -1 for a hidden confounder). Each makes one call of
the numeric kernel, :func:`q_hat_batch` plus :func:`deconf.model.ate_batch`
over ``(..., 4, k)`` stacks, all strata at once for the stratified one; the
simulation engine calls the kernel directly on plain arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, NamedTuple

import numpy as np

from .errors import DegenerateGroupError, ValidationError
from .model import (
    GROUPS,
    ConditionalTable,
    ConfoundedDistribution,
    JointDistribution,
    _empty_strata,
    ate_batch,
    ate_details,
    check_int,
    integer_array,
    parts_from_joint,
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


def _count_table(counts, name: str, ndim: int) -> np.ndarray:
    """``counts`` as non-negative integers of shape (4,) (``ndim`` 1) or (4, k >= 2)."""
    arr = integer_array(counts, name)
    if arr.ndim != ndim or arr.shape[0] != 4 or arr.shape[-1] < 2:
        expected = "(4,)" if ndim == 1 else "(4, k) with k >= 2"
        raise ValidationError(f"{name}: expected shape {expected}, got {arr.shape}")
    if arr.min() < 0:
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


@dataclass(frozen=True)
class EstimationResult:
    ate_hat: float
    a_hat: ConfoundedDistribution
    q_hat: ConditionalTable
    degenerate_groups: frozenset
    degenerate_strata: frozenset


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


def _estimates(a_hat, m_counts, fallback: str) -> List[EstimationResult]:
    """One result per member of an ``(X, 4)`` marginal and ``(X, 4, k)`` count stack.

    One :func:`q_hat_batch` and one :func:`ate_batch` call cover the stack.
    """
    q_hat = q_hat_batch(m_counts, a_hat, fallback)
    p = a_hat[:, :, None] * q_hat
    empty = m_counts.sum(axis=2) == 0
    return [
        EstimationResult(
            ate,
            ConfoundedDistribution(a),
            ConditionalTable(q),
            frozenset(GROUPS[g] for g in np.flatnonzero(groups)),
            _empty_strata(table),
        )
        for ate, a, q, groups, table in zip(ate_batch(p).tolist(), a_hat, q_hat, empty, p)
    ]


def estimate_deconfounded_only(deconfounded, k: int) -> EstimationResult:
    """Baseline estimator that ignores confounded data: the MLE joint of the cells."""
    m_counts = deconfounded_counts(deconfounded, k)
    total = m_counts.sum()
    if total <= 0:
        raise ValidationError("need at least one deconfounded record")
    joint = JointDistribution(m_counts / total)
    ate = ate_details(joint)
    parts = parts_from_joint(joint)
    return EstimationResult(
        ate.value, parts.a, parts.q, parts.degenerate_groups, ate.degenerate_strata
    )


def estimate_with_known_confounded_counts(
    a: ConfoundedDistribution, m_counts, fallback: str = "uniform"
) -> EstimationResult:
    """Plug-in estimator with the marginal known exactly (infinite regime)."""
    m_counts = _count_table(m_counts, "m_counts", 2)
    return _estimates(a.a[None], m_counts[None], fallback)[0]


def estimate_with_known_confounded(
    a: ConfoundedDistribution, deconfounded, k: int, fallback: str = "uniform"
) -> EstimationResult:
    return estimate_with_known_confounded_counts(
        a, deconfounded_counts(deconfounded, k), fallback
    )


def estimate_finite_counts(n_counts, m_counts, fallback: str = "uniform") -> EstimationResult:
    """Plug-in estimator with both a and q estimated from counts."""
    a_hat = ConfoundedDistribution.from_counts(_count_table(n_counts, "n_counts", 1))
    return estimate_with_known_confounded_counts(a_hat, m_counts, fallback)


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
    per_stratum: Dict[int, EstimationResult]
    weights: Dict[int, float]
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
    results = _estimates(n_counts / sizes[:, None], cells[:, :, 1:], fallback)
    per: Dict[int, EstimationResult] = {}
    weights: Dict[int, float] = {}
    aggregate = 0.0
    for xv, size, result in zip(strata.tolist(), sizes.tolist(), results):
        per[xv] = result
        weights[xv] = size / x.size
        aggregate += weights[xv] * result.ate_hat  # a running sum in sorted-x order
    return StratifiedResult(per, weights, aggregate)
