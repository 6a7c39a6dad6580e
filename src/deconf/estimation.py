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

Every estimator takes count tables, n[g] of (y, t) records and m[g, z] of
(y, t, z) records, as the table readers of :mod:`deconf.io` return them:
a ``(..., 4, k)`` stack of m tables (n of shape ``(..., 4)``), checked
once per call by ``_count_stack``; a single table is a stack with no
leading dims. The stratified estimator takes one ``(4, k + 1)`` table per
stratum, hidden-z records in column 0. Each returns one
:class:`EstimationResult` of plain arrays over the stack. All but the
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
    empty_strata,
    integer_array,
    split_joint,
)

FALLBACKS = ("error", "uniform")


def _check_fallback(fallback: str) -> None:
    if fallback not in FALLBACKS:
        raise ValidationError(f"fallback must be one of {FALLBACKS}, got {fallback!r}")


def _count_stack(counts, name: str, shape=None) -> np.ndarray:
    """``counts`` as non-negative integers of shape ``shape``, or a ``(..., 4, k >= 2)`` stack.

    Each table (the last axis under ``shape``, else the last two) must total
    below 2**63, so that no int64 sum over it wraps.
    """
    arr = integer_array(counts, name)
    if shape is None and (arr.ndim < 2 or arr.shape[-2] != 4 or arr.shape[-1] < 2):
        expected = "(4, k)" if arr.ndim <= 2 else "(..., 4, k)"
        raise ValidationError(f"{name}: expected shape {expected} with k >= 2, got {arr.shape}")
    if shape is not None and arr.shape != shape:
        raise ValidationError(f"{name}: expected shape {shape}, got {arr.shape}")
    if np.any(arr < 0):
        raise ValidationError(f"{name}: entries must be non-negative")
    axes = (-1,) if shape is not None else (-2, -1)
    # a float total is far above half the exact one, so only totals near the
    # limit are summed exactly
    if np.max(arr.sum(axis=axes, dtype=float), initial=0.0) >= 2.0**62:
        total = max(map(sum, arr.reshape(-1, np.prod(arr.shape[axes[0]:])).tolist()))
        if total >= 2**63:
            raise ValidationError(f"{name}: entries must sum to below 2**63, got {total}")
    return arr


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

    A float stack is read as it is; an int stack is copied to float. Row
    totals are k - 1 column adds, equal to ``sum`` on integer counts (all
    the package passes) and on floats at k < 8; at k >= 8 a non-integer
    total may differ from ``sum``'s in the last bit. Most of a call's cost is
    fixed numpy overhead, so callers pass whole stacks; the finite protocol
    still calls once per estimate (see :mod:`deconf.simulation`).
    """
    if fallback != "uniform":
        _check_fallback(fallback)
    counts = np.asarray(counts, dtype=float)
    totals = counts[..., :1] + counts[..., 1:2]
    for z in range(2, counts.shape[-1]):
        totals += counts[..., z:z + 1]
    if fallback == "error":
        bad = (totals[..., 0] == 0.0) & (np.asarray(a) > 0.0)
        if bad.any():
            rows = bad.reshape(-1, 4)
            first = rows[rows.any(axis=1)][0]
            raise DegenerateGroupError([GROUPS[g] for g in np.nonzero(first)[0]])
    if np.minimum.reduce(totals, axis=None, initial=np.inf) > 0.0:  # no group empty
        return counts / totals
    q_hat = np.empty(counts.shape)
    q_hat.fill(1.0 / counts.shape[-1])
    return np.divide(counts, totals, out=q_hat, where=totals > 0.0)


def _estimate(a_hat, m_counts, fallback: str) -> EstimationResult:
    """The estimates for an ``(..., 4)`` marginal and an ``(..., 4, k)`` count stack.

    One :func:`q_hat_batch` and one :func:`ate_batch` call cover the stack.
    """
    q_hat = q_hat_batch(m_counts, a_hat, fallback)
    p = a_hat[..., None] * q_hat
    return EstimationResult(
        ate_batch(p), a_hat, q_hat, m_counts.sum(axis=-1) == 0, empty_strata(p)
    )


def estimate_deconfounded_only(m_counts) -> EstimationResult:
    """Baseline estimator that ignores confounded data: the MLE joint of the cells.

    ``m_counts`` is a ``(..., 4, k)`` stack; every member needs a record.
    """
    m_counts = _count_stack(m_counts, "m_counts")
    total = m_counts.sum(axis=(-2, -1), keepdims=True)
    if np.any(total == 0):
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


class StratifiedResult(NamedTuple):
    strata: np.ndarray  # the x values, sorted
    weights: np.ndarray  # each stratum's share of the records
    estimates: EstimationResult  # one member per stratum
    aggregate: float


def estimate_stratified_ite(strata, counts, fallback: str = "uniform") -> StratifiedResult:
    """Covariate-stratified effect: per-x finite estimates, weighted by x share.

    ``strata`` are the x values in increasing order and ``counts`` their
    ``(strata, 4, k + 1)`` tables, as :func:`deconf.io.read_stratified_csv`
    returns them: column 0 counts a group's records with a hidden
    confounder and column z + 1 those with z. Every record is a confounded
    observation of its stratum, and revealed records also count toward its
    conditionals. All strata are estimated in one batch; under
    ``fallback="error"`` the first degenerate stratum in x order is the one
    reported.
    """
    strata, counts = integer_array(strata, "strata"), _count_stack(counts, "counts")
    if strata.ndim != 1 or np.any(strata[1:] <= strata[:-1]):
        raise ValidationError("strata: expected strictly increasing integers")
    if counts.shape != strata.shape + counts.shape[-2:] or counts.shape[-1] < 3:
        raise ValidationError(
            f"counts: expected shape ({strata.size}, 4, k + 1) with k >= 2, got {counts.shape}")
    if strata.size == 0:
        raise ValidationError("stratified dataset is empty")
    n_counts = counts.sum(axis=2)
    sizes = n_counts.sum(axis=1)
    if not sizes.all():
        raise ValidationError(f"counts: stratum x={strata[np.argmin(sizes)]} has no records")
    weights = sizes / sizes.sum(dtype=float)  # a float total cannot wrap
    estimates = _estimate(n_counts / sizes[:, None], counts[:, :, 1:], fallback)
    aggregate = 0.0
    for weight, ate in zip(weights.tolist(), estimates.ate_hat.tolist()):
        aggregate += weight * ate  # a running sum in x order
    return StratifiedResult(strata, weights, estimates, aggregate)
