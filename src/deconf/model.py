"""Distribution types, exact ATE evaluation, and instance generators.

Conventions
-----------
Treatment ``t`` and outcome ``y`` are binary. The confounder ``z`` takes
``k >= 2`` categorical values, indexed ``0..k-1``. The four (y, t) groups
are always ordered

    (0,0), (0,1), (1,0), (1,1)

and every 4-vector / 4-row table in this package uses that order (it is
also the tie-break order wherever a deterministic choice is needed).

Three equivalent encodings of a problem instance:

* joint table      p[g, z] = P(Y=y, T=t, Z=z)          (4 x k, sums to 1)
* marginal         a[g]    = P(Y=y, T=t)               (4,   sums to 1)
* conditionals     q[g, z] = P(Z=z | Y=y, T=t)         (4 x k, rows sum to 1)

linked by p[g, z] = a[g] * q[g, z].

The average treatment effect is evaluated by stratifying on z:

    ate = sum_z (P(Y=1|T=1,Z=z) - P(Y=1|T=0,Z=z)) * P(Z=z)

A stratum (t, z) with zero mass contributes 0 to its conditional term;
:func:`empty_strata` reports those strata. This keeps the evaluation total
on small empirical tables where empty strata are routine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, NamedTuple

import numpy as np

from .errors import ValidationError

#: Canonical (y, t) group order used for every 4-vector in the package.
GROUPS = ((0, 0), (0, 1), (1, 0), (1, 1))

#: Absolute tolerance for normalization checks at construction time.
CONSTRUCT_ATOL = 1e-12


def group_index(y: int, t: int) -> int:
    """Position of group (y, t) in the canonical order."""
    return 2 * y + t


def is_integer(value) -> bool:
    """True for a Python or numpy int; ``bool`` is an int subclass and is rejected."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def check_int(value, name: str, minimum: int) -> int:
    """``value`` as a Python int; it must be an integer (not a bool) >= ``minimum``."""
    if not is_integer(value):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValidationError(f"{name} must be >= {minimum}, got {value}")
    return int(value)


def integer_array(values, name: str) -> np.ndarray:
    """``values`` as an int array; non-integral, bool or non-numeric entries raise,
    and so do integral floats of 2**63 or more in magnitude, which no int64 holds."""
    arr = np.asarray(values)
    if arr.dtype.kind == "f" and np.all(np.isfinite(arr)) and np.all(arr == np.trunc(arr)):
        if np.any(np.abs(arr) >= 2.0**63):
            raise ValidationError(f"{name}: entries must lie below 2**63 in magnitude")
        return arr.astype(int)
    if arr.dtype.kind not in "iu":
        raise ValidationError(f"{name}: entries must be integers")
    return arr.astype(int, copy=False)


def _as_readonly(arr, dtype=float) -> np.ndarray:
    out = np.array(arr, dtype=dtype, copy=True)
    out.setflags(write=False)
    return out


def _check_unit_interval(name: str, arr: np.ndarray) -> None:
    # min and max propagate nan, so one pass each clears every valid table
    if arr.min() >= -CONSTRUCT_ATOL and arr.max() <= 1 + CONSTRUCT_ATOL:
        return
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name}: entries must be finite")
    raise ValidationError(f"{name}: entries must lie in [0, 1]")


def _checked_table(name: str, values) -> np.ndarray:
    """``values`` as a read-only (4, k) float array, k >= 2, with entries in [0, 1]."""
    arr = _as_readonly(values)
    if arr.ndim != 2 or arr.shape[0] != 4 or arr.shape[1] < 2:
        raise ValidationError(f"{name}: expected shape (4, k) with k >= 2, got {arr.shape}")
    _check_unit_interval(name, arr)
    return arr


def _check_sums_to_one(name: str, total: float) -> None:
    if abs(total - 1.0) > CONSTRUCT_ATOL:
        raise ValidationError(f"{name}: must sum to 1 (got {total!r})")


def _arm_mass(a) -> np.ndarray:
    """P(T=t) of a ``(..., 4)`` stack of marginals, arranged (..., 2) by t."""
    return a[..., :2] + a[..., 2:]


def _stratum_mass(p) -> np.ndarray:
    """P(T=t, Z=z) of a ``(..., 4, k)`` stack of tables, arranged (..., 2, k) by [t, z]."""
    return p[..., :2, :] + p[..., 2:, :]


@dataclass(frozen=True)
class ConfoundedDistribution:
    """The (Y, T) marginal: four probabilities in canonical group order."""

    a: np.ndarray

    def __post_init__(self):
        arr = _as_readonly(self.a)
        if arr.shape != (4,):
            raise ValidationError(f"a: expected 4 entries, got shape {arr.shape}")
        _check_unit_interval("a", arr)
        _check_sums_to_one("a", float(arr.sum()))
        object.__setattr__(self, "a", arr)

    def arm_mass(self, t: int) -> float:
        """P(T=t) = sum over outcomes of a[y, t]."""
        return float(_arm_mass(self.a)[t])


@dataclass(frozen=True)
class ConditionalTable:
    """Per-group conditional distributions of Z: a 4 x k row-stochastic table."""

    q: np.ndarray

    def __post_init__(self):
        arr = _checked_table("q", self.q)
        for (y, t), total in zip(GROUPS, arr.sum(axis=1).tolist()):
            _check_sums_to_one(f"q row (y={y},t={t})", total)
        object.__setattr__(self, "q", arr)

    @property
    def k(self) -> int:
        return self.q.shape[1]


@dataclass(frozen=True)
class JointDistribution:
    """The full (Y, T, Z) table: a 4 x k array summing to 1."""

    p: np.ndarray

    def __post_init__(self):
        arr = _checked_table("p", self.p)
        _check_sums_to_one("p", float(arr.sum()))
        object.__setattr__(self, "p", arr)

    @property
    def k(self) -> int:
        return self.p.shape[1]


def binary_conditional(q1) -> ConditionalTable:
    """Build a k=2 table from the four scalars P(Z=1 | y, t).

    Column 0 holds P(Z=0) = 1 - q1, column 1 holds P(Z=1).
    """
    q1 = np.asarray(q1, dtype=float)
    if q1.shape != (4,):
        raise ValidationError(f"q1: expected 4 entries, got shape {q1.shape}")
    return ConditionalTable(np.column_stack([1.0 - q1, q1]))


def ate_batch(p) -> np.ndarray:
    """Back-door ATE of every (4, k) table in a ``(..., 4, k)`` stack.

    The one numeric path for the ATE: plain arrays in, no validation. A
    zero-mass stratum (t, z) contributes 0 (the 0/0 -> 0 convention). The
    stack is copied once with its (4, k) axes first, so every step runs on
    contiguous rows of the batch, and the per-z terms are summed in
    ascending order by column adds: the value is bitwise invariant under any
    relabeling of z, the batch shape and the memory layout. The terms are
    sorted only at k >= 3, since a sum of two floats does not depend on
    their order.
    """
    p = np.asarray(p, dtype=float)
    lead = p.shape[:-2]
    p = p.reshape((-1,) + p.shape[-2:]).transpose(1, 2, 0).copy()  # (4, k, members)
    mass = p[:2] + p[2:]  # P(T=t, Z=z), indexed [t, z]
    # P(Y=1 | t, z), indexed [t, z]
    cond = np.divide(p[2:], mass, out=np.zeros_like(mass), where=mass > 0.0)
    terms = (cond[1] - cond[0]) * (mass[0] + mass[1])  # (k, members)
    if len(terms) > 2:
        terms.sort(axis=0)
    total = sum(terms[1:], terms[0])  # column adds, in ascending order
    # algebraically in [-1, 1]; clamp float noise only
    return np.clip(total.reshape(lead), -1.0, 1.0)


def empty_strata(p) -> np.ndarray:
    """Zero-mass strata of a ``(..., 4, k)`` stack as a ``(..., 2, k)`` mask indexed [t, z].

    These are the strata where :func:`ate_batch` takes 0/0 -> 0.
    """
    return _stratum_mass(np.asarray(p)) == 0.0


def ate_exact(p: JointDistribution) -> float:
    """The exact ATE of one validated joint table, as a float.

    This is :func:`ate_batch` on ``p.p``; :func:`empty_strata` of ``p.p``
    names the zero-mass strata it took as 0/0 -> 0.
    """
    return float(ate_batch(p.p))


def joint_from_parts(a: ConfoundedDistribution, q: ConditionalTable) -> JointDistribution:
    """Combine marginal and conditionals: p[g, z] = a[g] * q[g, z]."""
    return JointDistribution(a.a[:, None] * q.q)


class Parts(NamedTuple):
    """Factorization of a joint table; zero-mass groups get a uniform q row."""

    a: ConfoundedDistribution
    q: ConditionalTable


def split_joint(p):
    """``(a, q)`` of a ``(..., 4, k)`` stack of joint tables, on plain arrays.

    A group with no positive mass gets the uniform q row. q's rows are
    renormalized against float drift, and a against the table's total.
    """
    p = np.asarray(p, dtype=float)
    a = p.sum(axis=-1)
    q = np.full(p.shape, 1.0 / p.shape[-1])
    np.divide(p, a[..., None], out=q, where=a[..., None] > 0.0)
    q /= q.sum(axis=-1, keepdims=True)
    return a / a.sum(axis=-1, keepdims=True), q


def parts_from_joint(p: JointDistribution) -> Parts:
    """Split a joint table into (a, q).

    Groups with zero marginal mass (``a.a == 0``) have no defined
    conditional; their rows are set to the uniform distribution.
    """
    a, q = split_joint(p.p)
    return Parts(ConfoundedDistribution(a), ConditionalTable(q))


def random_instance(k: int, seed) -> JointDistribution:
    """Draw a joint table uniformly from the (4k-1)-simplex.

    Normalized independent unit-rate exponentials, i.e. a flat Dirichlet;
    deterministic given the seed, a non-negative int or a numpy Generator.
    """
    if not isinstance(seed, np.random.Generator):
        check_int(seed, "seed", 0)
    return JointDistribution(_random_joint(check_int(k, "k", 2), seed))


def _random_joint(k: int, seed) -> np.ndarray:
    """:func:`random_instance`'s ``(4, k)`` table as a plain array, unchecked."""
    cells = np.random.default_rng(seed).exponential(size=(4, k))
    return cells / cells.sum()


#: Fixed adversarial k=2 instances, as (a, P(Z=1|y,t)) scalar vectors.
_ADVERSARIAL = {
    "nsp_worst": ((0.9, 0.02, 0.01, 0.07), (0.9, 0.7, 0.01, 0.3)),
    "usp_worst": ((0.79, 0.01, 0.02, 0.18), (0.5, 0.01, 0.05, 0.5)),
    "owsp_worst": ((0.5, 0.01, 0.19, 0.3), (0.05, 0.5, 0.055, 0.4)),
}


def adversarial_instance(which: str):
    """Return one of the fixed adversarial instances as (a, q), k=2.

    ``which`` is one of 'nsp_worst', 'usp_worst', 'owsp_worst' (the policy
    that performs worst on the returned instance).
    """
    try:
        a_vals, q1_vals = _ADVERSARIAL[which]
    except KeyError:
        raise ValidationError(
            f"unknown adversarial instance {which!r}; expected one of "
            f"{sorted(_ADVERSARIAL)}"
        ) from None
    return ConfoundedDistribution(np.array(a_vals)), binary_conditional(q1_vals)


@dataclass(frozen=True)
class HardInstancePair:
    """Two conditional tables sharing one marginal, with their ATE gap.

    ``gap`` is |ate(a, base_q) - ate(a, alternate_q)|; ``params`` records the
    construction parameters so a pair can be regenerated or serialized.
    """

    a: ConfoundedDistribution
    base_q: ConditionalTable
    alternate_q: ConditionalTable
    gap: float
    params: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self):
        if self.base_q.k != self.alternate_q.k:
            raise ValidationError("base and alternate tables must share k")
        object.__setattr__(self, "params", dict(self.params))


def _pair(a, base, alt, params) -> HardInstancePair:
    """The pair and its gap, from one :func:`ate_batch` call on the (2, 4, k) joints."""
    base_ate, alt_ate = ate_batch(a.a[:, None] * np.stack([base.q, alt.q])).tolist()
    return HardInstancePair(a, base, alt, abs(base_ate - alt_ate), params)


def _pair_from_scalars(a, base_q1, alt_q1, params) -> HardInstancePair:
    return _pair(a, binary_conditional(base_q1), binary_conditional(alt_q1), params)


def hardness_pair(
    a: ConfoundedDistribution, gamma: float, q_floor: float = 1.0 - 1e-6
) -> HardInstancePair:
    """Indistinguishable pair whose ATE gap stays near (a00 + a10) * q_floor.

    Base P(Z=1|y,t) = (q_floor, 0, q_floor, gamma); the alternate swaps the
    gamma between groups (0,1) and (1,1). The pair needs Omega(1/gamma)
    samples to tell apart while the gap approaches (a00 + a10) * q_floor as
    gamma -> 0. ``q_floor`` replaces an exact 1 so that every stratum keeps
    positive mass and the ATE stays well-defined.
    """
    if not 0.0 < gamma < 1.0:
        raise ValidationError(f"gamma must lie in (0, 1), got {gamma}")
    if not 0.0 < q_floor <= 1.0 - 1e-9:
        raise ValidationError(f"q_floor must lie in (0, 1 - 1e-9], got {q_floor}")
    if _arm_mass(a.a)[0] <= 0.0:
        raise ValidationError("hardness pair needs a00 + a10 > 0")
    return _pair_from_scalars(
        a,
        (q_floor, 0.0, q_floor, gamma),
        (q_floor, gamma, q_floor, 0.0),
        {"gamma": gamma, "q_floor": q_floor},
    )


def general_lower_pair(
    a: ConfoundedDistribution, q00: float, q01: float, beta: float, gamma: float
) -> HardInstancePair:
    """Pair behind the estimator-free lower bound: gap scales linearly in gamma.

    Base P(Z=1|y,t) = (q00, q01, beta, beta + gamma); the alternate swaps
    the two y=1 entries: (q00, q01, beta + gamma, beta).
    """
    for name, v in (("q00", q00), ("q01", q01), ("beta", beta)):
        if not 0.0 < v < 1.0:
            raise ValidationError(f"{name} must lie in (0, 1), got {v}")
    if gamma < 0.0 or not beta + gamma < 1.0:
        raise ValidationError(f"need 0 <= gamma and beta + gamma < 1, got gamma={gamma}")
    return _pair_from_scalars(
        a,
        (q00, q01, beta, beta + gamma),
        (q00, q01, beta + gamma, beta),
        {"q00": q00, "q01": q01, "beta": beta, "gamma": gamma},
    )


def policy_lower_pair(
    a: ConfoundedDistribution, k: int, beta: float, gamma: float
) -> HardInstancePair:
    """Categorical-k pair behind the per-policy lower bounds.

    Rows (0,0) and (1,0) put 1-(k-1)*beta on z=0 and beta elsewhere; row
    (0,1) puts beta on z=0 and spreads (1-beta) evenly; row (1,1) shifts
    gamma of row (0,1)'s mass onto z=0. The alternate flips rows (0,1) and
    (1,1). This is the gap-maximizing choice within the beta-interior family.
    """
    k = check_int(k, "k", 2)
    if not 0.0 < beta < 1.0 or k * beta >= 1.0:
        raise ValidationError(f"need 0 < beta and k*beta < 1, got beta={beta}, k={k}")
    if gamma < 0.0:
        raise ValidationError(f"gamma must be >= 0, got {gamma}")

    row_control = np.full(k, beta)
    row_control[0] = 1.0 - (k - 1) * beta
    row_01 = np.full(k, (1.0 - beta) / (k - 1))
    row_01[0] = beta
    row_11 = np.full(k, (1.0 - beta - gamma) / (k - 1))
    row_11[0] = beta + gamma

    for name, row in (("(0,1)", row_01), ("(1,1)", row_11), ("control", row_control)):
        if np.any(row < 0.0) or np.any(row > 1.0):
            raise ValidationError(
                f"infeasible (beta={beta}, gamma={gamma}, k={k}): row {name} "
                "leaves [0, 1]"
            )

    def build(r01, r11):
        rows = np.vstack([row_control, r01, row_control, r11])
        rows = rows / rows.sum(axis=1, keepdims=True)
        return ConditionalTable(rows)

    return _pair(a, build(row_01, row_11), build(row_11, row_01),
                 {"k": k, "beta": beta, "gamma": gamma})
