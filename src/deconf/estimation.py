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

Record arrays use columns (y, t) for confounded data and (y, t, z) for
deconfounded data; the ``*_counts`` variants accept pre-aggregated count
tables. Every estimator here is a batch-of-one wrapper around the numeric
kernel -- :func:`q_hat_batch` plus :func:`deconf.model.ate_batch` -- which
the simulation engine calls directly on plain arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, NamedTuple

import numpy as np

from .errors import DegenerateGroupError, ValidationError
from .model import (
    GROUPS,
    ConditionalTable,
    ConfoundedDistribution,
    JointDistribution,
    _as_readonly,
    ate_details,
    check_int,
    integer_array,
    joint_from_parts,
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


def confounded_counts(records) -> np.ndarray:
    """Group counts n[g] from (y, t) records."""
    arr = _records_array(records, 2, "confounded records")
    _validate_bits(arr[:, 0], "y")
    _validate_bits(arr[:, 1], "t")
    g = 2 * arr[:, 0] + arr[:, 1]
    return np.bincount(g, minlength=4)


def deconfounded_counts(records, k: int) -> np.ndarray:
    """Cell counts m[g, z] from (y, t, z) records."""
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
class Dataset:
    """Confounded (y, t) records plus deconfounded (y, t, z) records.

    Rows that were deconfounded are still confounded observations, so the
    deconfounded records should also appear in (or be counted with) the
    confounded side when the dataset represents one sampling process.
    """

    confounded: np.ndarray
    deconfounded: np.ndarray
    k: int

    def __post_init__(self):
        object.__setattr__(self, "k", check_int(self.k, "k", 2))
        # frozen private copies: the caller's arrays stay theirs and writeable
        conf = _as_readonly(_records_array(self.confounded, 2, "confounded records"), int)
        dec = _as_readonly(_records_array(self.deconfounded, 3, "deconfounded records"), int)
        object.__setattr__(self, "confounded", conf)
        object.__setattr__(self, "deconfounded", dec)
        # validate value ranges eagerly so counts never fail later
        confounded_counts(conf)
        deconfounded_counts(dec, self.k)

    @property
    def n(self) -> int:
        return self.confounded.shape[0]

    @property
    def m(self) -> int:
        return self.deconfounded.shape[0]

    def n_counts(self) -> np.ndarray:
        return confounded_counts(self.confounded)

    def m_counts(self) -> np.ndarray:
        return deconfounded_counts(self.deconfounded, self.k)


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
    a: ConfoundedDistribution, m_counts: np.ndarray, fallback: str = "uniform"
) -> EstimationResult:
    """Plug-in estimator with the marginal known exactly (infinite regime)."""
    m_counts = np.asarray(m_counts, dtype=float)
    q_hat = ConditionalTable(q_hat_batch(m_counts, a.a, fallback))
    ate = ate_details(joint_from_parts(a, q_hat))
    empty = frozenset(GROUPS[g] for g in np.nonzero(m_counts.sum(axis=1) == 0)[0])
    return EstimationResult(ate.value, a, q_hat, empty, ate.degenerate_strata)


def estimate_with_known_confounded(
    a: ConfoundedDistribution, deconfounded, k: int, fallback: str = "uniform"
) -> EstimationResult:
    return estimate_with_known_confounded_counts(
        a, deconfounded_counts(deconfounded, k), fallback
    )


def estimate_finite_counts(
    n_counts: np.ndarray, m_counts: np.ndarray, fallback: str = "uniform"
) -> EstimationResult:
    """Plug-in estimator with both a and q estimated from counts."""
    n_counts = np.asarray(n_counts, dtype=float)
    if n_counts.sum() <= 0:
        raise ValidationError("need at least one confounded record")
    a_hat = ConfoundedDistribution(n_counts / n_counts.sum())
    return estimate_with_known_confounded_counts(a_hat, m_counts, fallback)


def estimate_finite(dataset: Dataset, fallback: str = "uniform") -> EstimationResult:
    return estimate_finite_counts(dataset.n_counts(), dataset.m_counts(), fallback)


@dataclass(frozen=True)
class StratifiedDataset:
    """Records (x, y, t, z) with z = -1 meaning the confounder is hidden.

    Every record is a confounded observation of its stratum; records with
    z >= 0 additionally contribute to the conditional estimates.
    """

    x: np.ndarray
    y: np.ndarray
    t: np.ndarray
    z: np.ndarray
    k: int

    def __post_init__(self):
        # frozen private copies: the caller's arrays stay theirs and writeable
        x, y, t, z = cols = [
            _as_readonly(integer_array(getattr(self, name), name), int) for name in "xytz"
        ]
        if any(col.ndim != 1 or col.shape != x.shape for col in cols):
            raise ValidationError("stratified columns must share one length")
        for name, col in zip("xytz", cols):
            object.__setattr__(self, name, col)
        object.__setattr__(self, "k", check_int(self.k, "k", 2))
        if x.size == 0:
            raise ValidationError("stratified dataset is empty")
        _validate_bits(y, "y")
        _validate_bits(t, "t")
        if x.min() < 0:
            raise ValidationError("x values must be >= 0")
        if np.any(z >= self.k) or np.any(z < -1):
            raise ValidationError(f"z values must be -1 (hidden) or in [0, {self.k})")


class StratifiedResult(NamedTuple):
    per_stratum: Dict[int, EstimationResult]
    weights: Dict[int, float]
    aggregate: float


def estimate_stratified_ite(
    data: StratifiedDataset, fallback: str = "uniform"
) -> StratifiedResult:
    """Covariate-stratified effect: per-x finite estimates, weighted by x share."""
    values = np.unique(data.x)
    per: Dict[int, EstimationResult] = {}
    weights: Dict[int, float] = {}
    total = data.x.shape[0]
    aggregate = 0.0
    for xv in values:
        mask = data.x == xv
        conf = np.column_stack([data.y[mask], data.t[mask]])
        rev = mask & (data.z >= 0)
        dec = np.column_stack([data.y[rev], data.t[rev], data.z[rev]])
        result = estimate_finite(Dataset(conf, dec, data.k), fallback)
        weight = float(mask.sum()) / total
        per[int(xv)] = result
        weights[int(xv)] = weight
        aggregate += weight * result.ate_hat
    return StratifiedResult(per, weights, aggregate)
