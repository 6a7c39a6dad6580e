"""Sample-selection policies and deterministic integer allocations.

A policy says what fraction of the deconfounding budget each (y, t) group
receives:

* natural (nsp):          x[g] = a[g]            -- passive sampling
* uniform (usp):          x[g] = 1/4
* outcome-weighted (owsp): x[g] = a[g] / (2 * P(T=t))  -- half per arm,
  split within the arm by outcome share
* custom:                 caller-supplied weights

A policy argument is one of the names in ``NAMED_POLICIES`` or, for a custom
policy, the :class:`PolicyWeights` itself; anything else (a list, an array,
``"NSP"``) raises ValidationError.

One private kernel, :func:`_allocate`, turns a policy into integer counts
for a whole stack of budgets: ``(..., 4)`` arrays in, broadcast over ``m``,
no Python loop. Fractional weights are rounded by largest remainder, ties to
the earliest group in canonical order; counts that miss m raise. Under
finite supply, usp fills every group to a common water level, owsp splits m
across the treatment arms and then within each arm, and nsp and custom spill
any excess past a cap to the groups with room, in canonical order.
:func:`allocate_infinite` and :func:`allocate_finite` validate their inputs
and return the kernel's (4,) counts for one budget as a read-only array; the
replication engine calls it once per (instance, policy) on plain arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from .errors import ValidationError
from .model import (
    ConfoundedDistribution,
    _arm_mass,
    _as_readonly,
    _check_sums_to_one,
    check_int,
    integer_array,
)


@dataclass(frozen=True)
class PolicyWeights:
    """Fractions of the deconfounding budget per group; sums to 1."""

    x: np.ndarray

    def __post_init__(self):
        arr = _as_readonly(self.x)
        if arr.shape != (4,):
            raise ValidationError(f"weights: expected 4 entries, got {arr.shape}")
        if not (arr.min() >= 0.0 and arr.max() < np.inf):  # nan fails both
            raise ValidationError("weights: entries must be finite and >= 0")
        _check_sums_to_one("weights", float(arr.sum()))
        object.__setattr__(self, "x", arr)


NAMED_POLICIES = ("nsp", "usp", "owsp")


def _kind(policy) -> str:
    """``"custom"`` for a :class:`PolicyWeights`, else the policy's name."""
    if isinstance(policy, PolicyWeights):
        return "custom"
    if isinstance(policy, str) and policy in NAMED_POLICIES:
        return policy
    raise ValidationError(
        f"unknown policy {policy!r}: expected one of {NAMED_POLICIES} or PolicyWeights"
    )


def named_policies(a: ConfoundedDistribution) -> Tuple[str, ...]:
    """The named policies defined on marginal ``a``: owsp needs both arms."""
    if (_arm_mass(a.a) > 0.0).all():
        return NAMED_POLICIES
    return tuple(name for name in NAMED_POLICIES if name != "owsp")


def _named_weights(a: np.ndarray) -> np.ndarray:
    """The nsp, usp and owsp weights of a (4,) marginal, as the rows of a (3, 4) array.

    owsp's row, x[y, t] = a[y, t] / (2 P(T=t)), is nan on an empty
    treatment arm, where owsp is undefined.
    """
    weights = np.empty((3, 4))
    weights[0], weights[1] = a, 0.25
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(a.reshape(2, 2), 2.0 * _arm_mass(a), out=weights[2].reshape(2, 2))
    return weights


def _check_owsp(a: np.ndarray) -> None:
    """Raise unless every (..., 4) marginal has mass on both treatment arms, as owsp needs."""
    empty = np.argwhere(_arm_mass(a) <= 0.0)  # rows (..., t); one arm at most per marginal
    if len(empty):
        raise ValidationError(f"owsp undefined: treatment arm t={empty[0, -1]} has zero mass")


def policy_weights(
    policy: Union[str, PolicyWeights], a: ConfoundedDistribution
) -> PolicyWeights:
    """Exact fractional weights of a policy for marginal ``a``."""
    kind = _kind(policy)
    if kind == "custom":
        return policy
    if kind == "owsp":
        _check_owsp(a.a)
    return PolicyWeights(_named_weights(a.a)[NAMED_POLICIES.index(kind)])


def allocate_infinite(
    policy: Union[str, PolicyWeights], a: ConfoundedDistribution, m: int
) -> np.ndarray:
    """Integer counts (4,) of m samples under infinite confounded data, read-only."""
    m = check_int(m, "m", 0)
    if m >= 2**63:  # the counts are int64
        raise ValidationError(f"m must be below 2**63, got {m}")
    return _as_readonly(_allocate(_kind(policy), m, policy_weights(policy, a).x), int)


def allocate_finite(
    policy: Union[str, PolicyWeights],
    available: Sequence[int],
    m: int,
    a_hat: Optional[ConfoundedDistribution] = None,
) -> np.ndarray:
    """Approximate a policy when only ``available[g]`` records can be revealed.

    * nsp: proportional to availability (the simulation engine overrides
      this with true arrival order, which is what natural sampling means
      inside a run).
    * usp: max out bottleneck groups, split the excess as evenly as
      possible, earliest group first on ties.
    * owsp: split m as evenly as possible across treatment arms (capped by
      arm availability, overflow to the other arm), then split each arm by
      the empirical outcome ratio (evenly without ``a_hat``), capped per
      group.
    * custom: the weights, with any excess over a cap spilled to the
      groups with room in canonical order.

    Returns the read-only (4,) integer counts; at m = sum(available)
    every policy returns ``available``.
    """
    kind = _kind(policy)
    available = integer_array(available, "available")
    if available.shape != (4,) or np.any(available < 0):
        raise ValidationError("available: expected 4 non-negative integers")
    m = check_int(m, "m", 0)
    total_avail = int(available.sum())
    if m > total_avail:
        raise ValidationError(f"cannot place m={m} samples; only {total_avail} available")
    if kind == "custom":
        x = policy.x
    else:
        x = np.zeros(4) if a_hat is None else a_hat.a
    return _as_readonly(_allocate(kind, m, x, available), int)


def _round_shares(targets: np.ndarray, total) -> np.ndarray:
    """Largest-remainder rounding of (..., n) targets summing to ``total``.

    Floors first, then hands the ``total - sum(floors)`` leftover units to
    the largest fractional remainders: a stable ascending sort of
    ``floors - targets`` ranks them, ties to the earliest position.
    """
    floors = np.floor(targets).astype(int)
    extras = total - floors.sum(axis=-1)
    order = np.argsort(floors - targets, axis=-1, kind="stable")
    return floors + (order.argsort(axis=-1) < extras[..., None])


def _allocate(kind: str, m, x: np.ndarray, available=None) -> np.ndarray:
    """Integer counts (..., 4) of policy ``kind`` at budgets ``m``, inputs unvalidated.

    ``m`` broadcasts against ``x[..., 0]`` and ``available[..., 0]``. With
    ``available`` None the supply is unlimited and ``x`` holds the policy
    weights, rounded by largest remainder. Otherwise group g has only
    ``available[..., g]`` records (``m <= available.sum(-1)``) and ``x`` is
    what the policy splits by: a custom policy's weights, or for owsp the
    empirical marginal (zeros when unknown); nsp splits by availability and
    usp evenly, so they ignore it.
    """
    m = np.asarray(m)
    if available is None:
        return _summing_to(m, _round_shares(m[..., None] * x, m))
    total = available.sum(axis=-1)
    full = m == total  # every policy takes everything
    m = np.where(full, 0, m)
    if kind == "usp":
        # water level: the largest L with sum(min(available, L)) <= m. That
        # sum is the min over j of (j smallest caps) + (4 - j) L, so L is the
        # max over j of floor((m - j smallest caps) / (4 - j)); the leftover
        # units go to the earliest groups still above L
        low = np.sort(available, axis=-1)
        below = np.cumsum(low, axis=-1) - low
        level = ((m[..., None] - below) // np.arange(4, 0, -1)).max(axis=-1)[..., None]
        counts = np.minimum(available, level)
        above = available > level
        left = m - counts.sum(axis=-1)
        counts += above & (np.cumsum(above, axis=-1) <= left[..., None])
    elif kind == "owsp":
        # even arm split (odd unit to t=0), overflow to the other arm; then
        # the outcome split within each arm, overflow to the sibling group
        arm_avail = _arm_mass(available)
        m1 = np.minimum(np.maximum(m // 2, m - arm_avail[..., 0]), arm_avail[..., 1])
        arm_m = np.stack([m - m1, m1], axis=-1)
        mass = _arm_mass(x)
        w0 = np.divide(x[..., :2], mass, out=np.full(mass.shape, 0.5), where=mass > 0.0)
        split = _round_shares(arm_m[..., None] * np.stack([w0, 1.0 - w0], axis=-1), arm_m)
        caps = available.reshape(available.shape[:-1] + (2, 2))  # [..., y, t]
        y1 = np.minimum(np.maximum(split[..., 1], arm_m - caps[..., 0, :]), caps[..., 1, :])
        counts = np.concatenate([arm_m - y1, y1], axis=-1)
    else:
        share = available / np.maximum(total, 1)[..., None] if kind == "nsp" else x
        counts = _round_shares(m[..., None] * share, m)
        # a cap can be overshot (always possible for custom weights): clip
        # and spill the excess to groups with room, in canonical order
        excess = np.maximum(counts - available, 0).sum(axis=-1)[..., None]
        counts = np.minimum(counts, available)
        room = available - counts
        counts += np.clip(excess - (np.cumsum(room, axis=-1) - room), 0, room)
    return np.where(full[..., None], available, _summing_to(m, counts))  # full rows: m = 0


def _summing_to(m, counts: np.ndarray) -> np.ndarray:
    """``counts``, checked to sum to ``m``; float shares past ~2**53 or off-1 weights miss it."""
    missed = np.broadcast_to(m, counts.shape[:-1])[counts.sum(axis=-1) != m]
    if missed.size:
        raise ValidationError(f"cannot allocate m={missed[0]} exactly: float shares round off")
    return counts
