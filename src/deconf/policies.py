"""Sample-selection policies and deterministic integer allocations.

A policy says what fraction of the deconfounding budget each (y, t) group
receives:

* natural (nsp):          x[g] = a[g]            -- passive sampling
* uniform (usp):          x[g] = 1/4
* outcome-weighted (owsp): x[g] = a[g] / (2 * P(T=t))  -- half per arm,
  split within the arm by outcome share
* custom:                 caller-supplied weights

Fractional weights are turned into integer counts by largest-remainder
rounding with ties broken in canonical group order; the finite-data
variants additionally respect per-group availability caps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .errors import ValidationError
from .model import CONSTRUCT_ATOL, GROUPS, ConfoundedDistribution, group_index


@dataclass(frozen=True)
class PolicyWeights:
    """Fractions of the deconfounding budget per group; sums to 1."""

    x: np.ndarray

    def __post_init__(self):
        arr = np.array(self.x, dtype=float, copy=True)
        arr.setflags(write=False)
        if arr.shape != (4,):
            raise ValidationError(f"weights: expected 4 entries, got {arr.shape}")
        if np.any(arr < 0.0) or not np.all(np.isfinite(arr)):
            raise ValidationError("weights: entries must be finite and >= 0")
        if abs(float(arr.sum()) - 1.0) > CONSTRUCT_ATOL:
            raise ValidationError(f"weights: must sum to 1 (got {float(arr.sum())!r})")
        object.__setattr__(self, "x", arr)


@dataclass(frozen=True)
class Policy:
    kind: str  # 'nsp' | 'usp' | 'owsp' | 'custom'
    weights: Optional[PolicyWeights] = None

    def __post_init__(self):
        if self.kind not in ("nsp", "usp", "owsp", "custom"):
            raise ValidationError(f"unknown policy kind {self.kind!r}")
        if self.kind == "custom" and self.weights is None:
            raise ValidationError("custom policy requires explicit weights")
        if self.kind != "custom" and self.weights is not None:
            raise ValidationError(f"{self.kind} policy does not take weights")


NSP = Policy("nsp")
USP = Policy("usp")
OWSP = Policy("owsp")


def custom_policy(weights) -> Policy:
    if not isinstance(weights, PolicyWeights):
        weights = PolicyWeights(np.asarray(weights, dtype=float))
    return Policy("custom", weights)


def as_policy(policy: Union[Policy, str]) -> Policy:
    """Accept a Policy or one of the strings 'nsp' / 'usp' / 'owsp'."""
    if isinstance(policy, Policy):
        return policy
    if policy in ("nsp", "usp", "owsp"):
        return Policy(policy)
    raise ValidationError(f"unknown policy {policy!r}")


@dataclass(frozen=True)
class Allocation:
    """Integer deconfounding counts per group, summing to m."""

    counts: np.ndarray
    m: int

    def __post_init__(self):
        arr = np.array(self.counts, dtype=int, copy=True)
        arr.setflags(write=False)
        if arr.shape != (4,):
            raise ValidationError(f"counts: expected 4 entries, got {arr.shape}")
        if np.any(arr < 0):
            raise ValidationError("counts: entries must be >= 0")
        if int(arr.sum()) != self.m:
            raise ValidationError(
                f"counts sum {int(arr.sum())} does not match m={self.m}"
            )
        object.__setattr__(self, "counts", arr)


def policy_weights(policy: Union[Policy, str], a: ConfoundedDistribution) -> PolicyWeights:
    """Exact fractional weights of a policy for marginal ``a``."""
    policy = as_policy(policy)
    if policy.kind == "custom":
        return policy.weights
    if policy.kind == "nsp":
        return PolicyWeights(a.a)
    if policy.kind == "usp":
        return PolicyWeights(np.full(4, 0.25))
    # owsp
    arm = np.array([a.arm_mass(0), a.arm_mass(1)])
    if np.any(arm <= 0.0):
        t = int(np.argmin(arm))
        raise ValidationError(f"owsp undefined: treatment arm t={t} has zero mass")
    x = np.empty(4)
    for g, (y, t) in enumerate(GROUPS):
        x[g] = a.a[g] / (2.0 * arm[t])
    return PolicyWeights(x)


def largest_remainder(targets, total: int) -> np.ndarray:
    """Round non-negative targets (summing to ``total``) to integers.

    Floors first, then hands the leftover units to the largest fractional
    remainders, earliest group first on ties.
    """
    targets = np.asarray(targets, dtype=float)
    floors = np.floor(targets).astype(int)
    extras = total - int(floors.sum())
    if extras < 0 or extras > 4:
        raise ValidationError(
            f"targets sum {float(targets.sum())!r} inconsistent with total {total}"
        )
    remainders = targets - floors
    order = sorted(range(len(targets)), key=lambda g: (-remainders[g], g))
    for g in order[:extras]:
        floors[g] += 1
    return floors


def allocate_infinite(
    policy: Union[Policy, str], a: ConfoundedDistribution, m: int
) -> Allocation:
    """Integer allocation of m samples under infinite confounded data."""
    if m < 0:
        raise ValidationError(f"m must be >= 0, got {m}")
    x = policy_weights(policy, a).x
    counts = largest_remainder(m * x, m)
    return Allocation(counts, m)


def _water_fill(available: np.ndarray, m: int) -> np.ndarray:
    """Even split with caps: raise all unsaturated groups level by level."""
    counts = np.zeros(4, dtype=int)
    remaining = m
    while remaining > 0:
        open_groups = [g for g in range(4) if counts[g] < available[g]]
        levels = sorted({int(available[g]) for g in open_groups})
        current = counts[open_groups[0]]  # open groups share the same level
        next_cap = levels[0]
        step_cost = (next_cap - current) * len(open_groups)
        if step_cost <= remaining:
            for g in open_groups:
                counts[g] = next_cap
            remaining -= step_cost
            if remaining == 0:
                break
            continue
        base, extra = divmod(remaining, len(open_groups))
        for i, g in enumerate(open_groups):
            counts[g] += base + (1 if i < extra else 0)
        remaining = 0
    return counts


def _capped_pair_split(m_arm: int, weights, caps) -> tuple:
    """Largest-remainder split of m_arm over two groups with availability caps."""
    targets = m_arm * np.asarray(weights, dtype=float)
    c0, c1 = (int(v) for v in largest_remainder(targets, m_arm))
    # overflow past a cap goes to the sibling (the arm has room by construction)
    if c0 > caps[0]:
        c1 += c0 - caps[0]
        c0 = caps[0]
    if c1 > caps[1]:
        c0 += c1 - caps[1]
        c1 = caps[1]
    return c0, c1


def allocate_finite(
    policy: Union[Policy, str],
    available: Sequence[int],
    m: int,
    a_hat: Optional[ConfoundedDistribution] = None,
) -> Allocation:
    """Approximate a policy when only ``available[g]`` records can be revealed.

    * nsp: proportional to availability (the simulation engine overrides
      this with true arrival order, which is what natural sampling means
      inside a run).
    * usp: max out bottleneck groups, split the excess as evenly as
      possible, earliest group first on ties.
    * owsp: split m as evenly as possible across treatment arms (capped by
      arm availability, overflow to the other arm), then split each arm by
      the empirical outcome ratio, capped per group.

    At m = sum(available) every policy returns ``available``.
    """
    policy = as_policy(policy)
    available = np.asarray(available, dtype=int)
    if available.shape != (4,) or np.any(available < 0):
        raise ValidationError("available: expected 4 non-negative integers")
    if m < 0:
        raise ValidationError(f"m must be >= 0, got {m}")
    total_avail = int(available.sum())
    if m > total_avail:
        raise ValidationError(f"cannot place m={m} samples; only {total_avail} available")
    a_vec = None if a_hat is None else a_hat.a
    return Allocation(finite_counts(policy, available, m, a_vec), m)


def finite_counts(
    policy: Policy, available: np.ndarray, m: int, a_hat: Optional[np.ndarray] = None
) -> np.ndarray:
    """:func:`allocate_finite` on plain arrays, for the replication engine.

    ``available`` is a 4-vector of non-negative ints summing to at least
    ``m``, and ``a_hat`` the empirical marginal as a plain 4-vector (or
    None); nothing is validated. Returns the integer counts.
    """
    total_avail = int(available.sum())
    if m == total_avail:
        return available.copy()
    if m == 0:
        return np.zeros(4, dtype=int)

    if policy.kind in ("nsp", "custom"):
        x = (
            available / total_avail
            if policy.kind == "nsp"
            else policy.weights.x
        )
        counts = largest_remainder(m * x, m)
        # custom weights may overshoot a cap; spill in canonical order
        overflow = int(np.sum(np.maximum(counts - available, 0)))
        if overflow:
            counts = np.minimum(counts, available)
            for g in range(4):
                room = int(available[g] - counts[g])
                take = min(room, overflow)
                counts[g] += take
                overflow -= take
                if overflow == 0:
                    break
        return counts

    if policy.kind == "usp":
        return _water_fill(available, m)

    # owsp: arm-level even split, then outcome-ratio split within each arm
    idx = [[group_index(0, t), group_index(1, t)] for t in (0, 1)]
    arm_avail = [int(available[idx[t]].sum()) for t in (0, 1)]
    arm_m = [m - m // 2, m // 2]  # odd sample goes to arm t=0
    for t in (0, 1):
        if arm_m[t] > arm_avail[t]:
            arm_m[1 - t] += arm_m[t] - arm_avail[t]
            arm_m[t] = arm_avail[t]

    counts = np.zeros(4, dtype=int)
    for t in (0, 1):
        g0, g1 = idx[t]
        arm_mass = 0.0 if a_hat is None else float(a_hat[g0] + a_hat[g1])
        w0 = a_hat[g0] / arm_mass if arm_mass > 0.0 else 0.5
        c0, c1 = _capped_pair_split(
            arm_m[t], (w0, 1.0 - w0), (int(available[g0]), int(available[g1]))
        )
        counts[g0], counts[g1] = c0, c1
    return counts
