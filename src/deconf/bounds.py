"""Sample-complexity formulas: upper bounds, worst cases, lower bounds,
and the finite-data feasibility condition with its (m, n) and budget solvers.

All bound evaluators return floats (``math.inf`` when a zero denominator
makes the bound vacuous) so that inequality properties can be checked
exactly; callers ceil when they need counts.

Notation: with accuracy targets (epsilon, delta) and confounder size k,

    C  = 12.5 * k^2 * ln(8k / delta) / epsilon^2

drives every upper bound. The lower bounds are stated up to a
proportionality constant; we expose it as a caller-supplied multiplier in

    C1 = c1 * (k*beta - 1)^2 * ln(1/delta) / epsilon^2

so no invented constant is baked in. The finite-data condition compares

    min over cells (y,t,z) of  (sum_y a[y,t] q[y,t,z])^2
                               -----------------------------------
                               1 / (x[y,t] m)  +  q[y,t,z]^2 / n

against the threshold 4C = 50 * k^2 * ln(8k / delta) / epsilon^2.

Every evaluator is an array expression over the (4, k) tables. Each public
one validates its arguments and calls a private helper, which
``bound_report`` calls too, on terms it computes once. The finite condition
is one kernel, ``_finite_cells``, with the cell axis first: weights (4, ...)
give values (4k, ...), so each reduction over cells runs across the whole
batch at once. Each question a plan asks is one kernel evaluation: a point
(``finite_feasible``), a budget grid (``allocate_budget``), or a closed-form
guess with the point below it (``solve_min_m``). Ties, and the witness of a
vacuous bound, go to the first cell in canonical order.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple, Optional, Tuple, Union

import numpy as np

from .errors import ValidationError
from .model import (
    GROUPS,
    ConditionalTable,
    ConfoundedDistribution,
    HardInstancePair,
    JointDistribution,
    _arm_mass,
    _pair_from_scalars,
    _stratum_mass,
    check_int,
)
from .policies import NAMED_POLICIES, PolicyWeights, _kind, _named_weights, named_policies


@dataclass(frozen=True)
class AccuracySpec:
    """Accuracy targets feeding every bound formula."""

    epsilon: float
    delta: float
    k: int
    beta: float

    def __post_init__(self):
        if not 0.0 < self.epsilon < 1.0:
            raise ValidationError(f"epsilon must lie in (0, 1), got {self.epsilon}")
        if not 0.0 < self.delta < 1.0:
            raise ValidationError(f"delta must lie in (0, 1), got {self.delta}")
        object.__setattr__(self, "k", check_int(self.k, "k", 2))
        if not 0.0 < self.beta < 0.5:
            raise ValidationError(f"beta must lie in (0, 0.5), got {self.beta}")

    @property
    def C(self) -> float:
        return 12.5 * self.k**2 * math.log(8 * self.k / self.delta) / self.epsilon**2

    def C1(self, c1_constant: float = 1.0) -> float:
        if not 0.0 < c1_constant < math.inf:
            raise ValidationError(f"c1 constant must be finite and > 0, got {c1_constant}")
        if self.k * self.beta >= 1.0:
            warnings.warn(
                f"lower-bound constructions assume k*beta < 1; got "
                f"k*beta = {self.k * self.beta:.4g}",
                stacklevel=3,
            )
        return (
            c1_constant
            * (self.k * self.beta - 1.0) ** 2
            * math.log(1.0 / self.delta)
            / self.epsilon**2
        )


class CellMax(NamedTuple):
    value: float
    witness: Tuple[int, int]  # (t, z) achieving the max


def _sq(x) -> np.ndarray:
    """Elementwise x**2 through the C library's ``pow``.

    The formulas square single cells with scalar ``**``, which calls
    ``pow``; the array ``x**2`` is the exactly rounded product and differs
    from it in the last bit for about 0.1% of inputs. Vectors the formulas
    square as arrays (``arm**2``) keep ``**``. Either way every bound is
    bitwise equal to its cell-by-cell formula.
    """
    return np.float_power(x, 2)


def _arm_terms(a: np.ndarray):
    """Per arm t of a marginal: P(T=t), sum_y a[y,t]^2 and max_y a[y,t]."""
    return _arm_mass(a), _arm_mass(_sq(a)), np.maximum(a[:2], a[2:])


def _max_over_cells(scale: float, numerators, denominators: np.ndarray) -> CellMax:
    """scale * max over (t, z) of num/denom^2 with 0/0 -> skip and x/0 -> inf.

    The witness is the first maximising cell in canonical (t, z) order; for
    an infinite (vacuous) bound it is the first cell with x/0.
    """
    k = denominators.shape[1]
    positive = denominators > 0.0
    vacuous = ~positive & (numerators > 0.0)
    if vacuous.any():
        return CellMax(math.inf, divmod(int(vacuous.argmax()), k))
    out = np.zeros(denominators.shape)
    values = np.divide(numerators, _sq(denominators), out=out, where=positive)
    best = int(values.argmax())
    return CellMax(scale * values.flat[best], divmod(best, k))


def _check_k(spec: AccuracySpec, k: int) -> None:
    if spec.k != k:
        raise ValidationError(f"spec has k={spec.k}, but the table has k={k}")


def m_base(p: JointDistribution, spec: AccuracySpec) -> CellMax:
    """Deconfounded-data-alone bound: C * max over (t,z) of P(T,Z)^-2."""
    _check_k(spec, p.k)
    return _max_over_cells(spec.C, np.float64(1.0), _stratum_mass(p.p))


def _policy_numerators(a: np.ndarray, arm_terms, policy: Union[str, PolicyWeights]):
    """The per-arm numerator of the general bound, (2, 1): constant across z.

    General form: sum_y a[y,t]^2 / x[y,t]. The three named policies reduce
    to closed forms (sum_y a, 4 sum_y a^2, 2 (sum_y a)^2) of ``arm_terms``,
    used directly so the algebraic dominance relations hold exactly in
    floating point.
    """
    kind = _kind(policy)
    arm, sq, _ = arm_terms
    if kind == "nsp":
        per_arm = arm
    elif kind == "usp":
        per_arm = 4.0 * sq
    elif kind == "owsp":
        per_arm = 2.0 * arm**2
    else:
        # zero-mass groups add nothing; a zero weight on any other is inf
        x = policy.x
        terms = np.divide(_sq(a), x, out=np.full(4, math.inf), where=x > 0.0)
        terms[a == 0.0] = 0.0
        per_arm = _arm_mass(terms)
    return per_arm[:, None]


def m_policy(
    a: ConfoundedDistribution,
    q: ConditionalTable,
    spec: AccuracySpec,
    policy: Union[str, PolicyWeights],
) -> CellMax:
    """Policy-specific upper bound with infinite confounded data."""
    _check_k(spec, q.k)
    numerators = _policy_numerators(a.a, _arm_terms(a.a), policy)
    return _max_over_cells(spec.C, numerators, _stratum_mass(a.a[:, None] * q.q))


def worst_case_M(
    a: ConfoundedDistribution, spec: AccuracySpec, policy: Union[str, PolicyWeights]
) -> float:
    """Worst case of the upper bound over all conditionals in [beta, 1-beta].

    The outcome-weighted policy is the one whose worst case, 2C/beta^2,
    does not depend on the marginal at all.
    """
    return _worst_case_M(_kind(policy), spec.C / spec.beta**2, _arm_terms(a.a))


def _worst_case_M(kind: str, C_over_b2: float, arm_terms) -> float:
    if kind == "owsp":
        return 2.0 * C_over_b2
    if kind == "custom":
        raise ValidationError("worst-case bound is defined for nsp, usp, and owsp only")
    arm, sq, _ = arm_terms
    if (arm <= 0.0).any():
        return math.inf
    if kind == "nsp":
        return float(C_over_b2 * (1.0 / arm).max())
    return float(4.0 * C_over_b2 * (sq / arm**2).max())


def lower_bound_w(
    a: ConfoundedDistribution,
    spec: AccuracySpec,
    policy: Union[str, PolicyWeights],
    c1_constant: float = 1.0,
) -> float:
    """Instance-specific lower-bound witness value for a named policy.

    Stated up to the proportionality constant ``c1_constant`` (default 1).
    """
    return _lower_bound_w(_kind(policy), spec.C1(c1_constant) / spec.beta**2, _arm_terms(a.a))


def _lower_bound_w(kind: str, C1_over_b2: float, arm_terms) -> float:
    if kind == "custom":
        raise ValidationError("lower bounds are defined for nsp, usp, and owsp only")
    arm, _, a_max = arm_terms
    if (arm <= 0.0).any():
        return math.inf
    other = arm[::-1]
    if kind == "nsp":
        terms = a_max * _sq(other) / _sq(arm)
    elif kind == "usp":
        terms = 4.0 * _sq(a_max) * _sq(other) / _sq(arm)
    else:
        terms = 2.0 * a_max * _sq(other) / arm
    return C1_over_b2 * float(terms.max())


class RatioWitness(NamedTuple):
    pair: HardInstancePair
    ratio: float  # analytic mu_owsp / mu_nsp = 4 * eta


def owsp_vs_nsp_ratio_witness(eta: float, spec: AccuracySpec) -> RatioWitness:
    """Family on which outcome-weighting beats natural sampling by 4*eta.

    Marginal a = (1-3*eta, eta, eta, eta) with conditionals
    (beta, beta, beta, c*beta) against the flat (beta, beta, beta, beta),
    where c = (1-beta)/beta maximizes the ATE separation.
    """
    if not 0.0 < eta < 0.25:
        raise ValidationError(f"eta must lie in (0, 1/4), got {eta}")
    beta = spec.beta
    c = (1.0 - beta) / beta
    a = ConfoundedDistribution(np.array([1.0 - 3 * eta, eta, eta, eta]))
    params = {"eta": eta, "beta": beta, "c": c}
    pair = _pair_from_scalars(a, (beta, beta, beta, c * beta), (beta,) * 4, params)
    return RatioWitness(pair, 4.0 * eta)


class FeasibilityResult(NamedTuple):
    feasible: bool
    margin: float  # achieved min / threshold; >= 1 means feasible
    witness: Optional[Tuple[int, int, int]]  # minimizing (y, t, z)


def finite_threshold(spec: AccuracySpec) -> float:
    return 4.0 * spec.C


def _mass_sq(a: np.ndarray, q: np.ndarray) -> np.ndarray:
    """P(T=t, Z=z)^2, (2, k): the finite condition's numerator for cell (y, t, z)."""
    return _sq(_stratum_mass(a[:, None] * q))


def _finite_cells(a: np.ndarray, q: np.ndarray, x: np.ndarray, m, n) -> np.ndarray:
    """The finite condition's left side per (y, t, z) cell, cell axis first.

    ``a`` (4,) and ``q`` (4, k) are the instance and ``x`` (4, ...) the group
    weights; ``m`` and ``n`` broadcast against ``x[0]``. The values have
    shape (4k, ...), cell ``g * k + z`` in canonical (y, t, z) order, so the
    min and argmin over cells reduce the leading axis. Cells of zero-mass
    groups are vacuous (inf); a zero weight on a positive-mass group makes
    its cells 0.
    """
    k, tail = q.shape[1], x.shape[1:]
    ones = (1,) * len(tail)
    with np.errstate(divide="ignore"):
        inv_xm = 1.0 / (x.reshape((2, 2, 1) + tail) * np.asarray(m, dtype=float))
    sampling_var = inv_xm + _sq(q).reshape((2, 2, k) + ones) / np.asarray(n, dtype=float)
    values = _mass_sq(a, q).reshape((2, k) + ones) / sampling_var  # [y, t, z, ...]
    values = values.reshape((4, k) + values.shape[3:])
    values[a == 0.0] = math.inf
    return values.reshape((4 * k,) + values.shape[2:])


def finite_feasible(
    a_hat: ConfoundedDistribution,
    q: ConditionalTable,
    weights: PolicyWeights,
    m: int,
    n: int,
    spec: AccuracySpec,
) -> FeasibilityResult:
    """Check the finite-confounded-data sufficient condition at (m, n).

    Cells of zero-mass groups are vacuous and skipped; a zero weight on a
    positive-mass group makes the condition fail outright (margin 0),
    witnessed at the first such group's first cell.
    """
    _check_k(spec, q.k)
    m, n = check_int(m, "m", 1), check_int(n, "n", 1)
    cells = _finite_cells(a_hat.a, q.q, weights.x, m, n)
    blocked = (a_hat.a > 0.0) & (weights.x == 0.0)
    cell = int(blocked.argmax()) * q.k if blocked.any() else int(cells.argmin())
    worst, threshold = cells[cell], finite_threshold(spec)
    g, z = divmod(cell, q.k)
    return FeasibilityResult(bool(worst >= threshold), float(worst / threshold), GROUPS[g] + (z,))


def _min_m_guess(a: np.ndarray, q: np.ndarray, x: np.ndarray, n: int, threshold: float) -> int:
    """The finite condition solved for m per cell, ceiled and clipped to [1, n].

    A cell of a positive-mass group holds once 1 / (x[y,t] m) <= room, with
    room = P(T=t, Z=z)^2 / threshold - q[y,t,z]^2 / n; with room <= 0 or a
    zero weight it never holds. Rounding can put the guess off by a little.
    """
    room = (_mass_sq(a, q) / threshold - (_sq(q) / n).reshape(2, 2, -1)).reshape(4, -1)
    with np.errstate(divide="ignore"):
        need = np.where(room > 0.0, 1.0 / (x[:, None] * room), math.inf)
    worst = float(need.max(initial=0.0, where=(a > 0.0)[:, None]))
    return n if worst >= n else max(math.ceil(worst), 1)


def solve_min_m(
    a_hat: ConfoundedDistribution,
    q: ConditionalTable,
    weights: PolicyWeights,
    n: int,
    spec: AccuracySpec,
) -> Optional[int]:
    """Smallest m <= n satisfying the finite condition, or None if infeasible.

    Once m = n is known to work, one kernel evaluation checks the guess of
    ``_min_m_guess`` and the point below it; a bisection on the kernel closes
    the bracket when the guess is off. The condition is monotone in m in
    floating point too (each kernel operation rounds monotonically), so the
    answer is that of a plain bisection over [1, n].
    """
    n = check_int(n, "n", 1)
    if not finite_feasible(a_hat, q, weights, n, n, spec).feasible:
        return None
    a, x, threshold = a_hat.a, weights.x[:, None], finite_threshold(spec)

    def feasible(ms):
        return _finite_cells(a, q.q, x, ms, n).min(axis=0) >= threshold

    guess = _min_m_guess(a, q.q, weights.x, n, threshold)
    probes = [m for m in (guess, guess - 1) if 0 < m < n]
    lo, hi = 0, n  # lo infeasible (0: nothing below 1), hi feasible
    for m, ok in zip(probes, feasible(probes)):
        if lo < m < hi:
            lo, hi = (lo, m) if ok else (m, hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if feasible([mid])[0] else (mid, hi)
    return hi


class BudgetPlan(NamedTuple):
    n: int
    m: int
    weights: PolicyWeights
    policy: str
    margin: float  # best achieved min-term / threshold (may be < 1)


def allocate_budget(
    a_hat: ConfoundedDistribution,
    q: ConditionalTable,
    budget: float,
    c_confounded: float,
    c_deconfound: float,
    spec: AccuracySpec,
    grid: int = 200,
) -> BudgetPlan:
    """Split a budget between confounded draws and deconfounding reveals.

    Walks an integer grid of m along the budget line n = (B - c_z m) / c_c
    with m <= n, scoring each point by the finite-condition margin under
    each named policy defined on ``a_hat`` (owsp needs both treatment arms;
    group weights capped at the expected supply a_hat * n / m, mirroring
    the feasibility adjustment of the finite analysis), and returns the best
    (n, m, weights): the first maximum with m ascending, then nsp, usp,
    owsp. This numeric solver deliberately replaces the closed-form case
    analysis, which is not complete enough to implement.
    """
    if not all(0.0 < v < math.inf for v in (budget, c_confounded, c_deconfound)):
        raise ValidationError("budget and costs must be finite and positive")
    _check_k(spec, q.k)
    grid = check_int(grid, "grid", 10)
    m_max = budget / (c_confounded + c_deconfound)
    if not m_max < 2**63:
        raise ValidationError(f"budget {budget!r}: the largest m on its line ({m_max:.3g}) "
                              "does not fit a 64-bit integer")
    m_max = int(m_max)
    if m_max < 1:
        raise ValidationError("budget too small for one deconfounded sample plus its "
                              "confounded draw")

    # at most m_max points, so the step is >= 1 and the floored points are distinct
    m = np.linspace(1, m_max, num=min(grid, m_max), dtype=int)
    n = np.trunc((budget - c_deconfound * m) / c_confounded)
    on_line = n >= m
    kinds = named_policies(a_hat)
    base = _named_weights(a_hat.a).T[:, None, : len(kinds)]

    def score(m, n):  # weights (group, point, policy) and margins (point, policy)
        capped = np.minimum(base, a_hat.a[:, None, None] * n / m)
        weights = capped / capped.sum(axis=0)
        cells = _finite_cells(a_hat.a, q.q, weights, m, n)
        return weights, cells.min(axis=0) / finite_threshold(spec)

    m, n = m[on_line], n[on_line]
    weights, margins = score(m[:, None], n[:, None])
    # The float line can round n up past the budget (by 512 at a budget of 1e19),
    # so the winner's spend is checked exactly, in integers over the floats'
    # ratios. An overspending n drops to the exact floor and the point is scored
    # again, since its capped weights depend on n. A floor below m takes the
    # point off the line, and the next-best point is checked the same way.
    (b, b_d), (c, c_d), (z, z_d) = (float(v).as_integer_ratio()
                                    for v in (budget, c_confounded, c_deconfound))
    while len(m):
        i, j = divmod(int(margins.argmax()), len(kinds))
        m_i, n_i = int(m[i]), int(n[i])
        if (c * n_i * z_d + z * m_i * c_d) * b_d > b * c_d * z_d:
            n_i = (b * z_d - z * m_i * b_d) * c_d // (c * z_d * b_d)
            if n_i < m_i:
                m, n, margins = np.delete(m, i), np.delete(n, i), np.delete(margins, i, 0)
                weights = np.delete(weights, i, 1)
                continue
            weights, margins = score(np.array([[m_i]]), np.array([[n_i]], dtype=float))
            i = 0
        return BudgetPlan(n_i, m_i, PolicyWeights(weights[:, i, j]), kinds[j],
                          float(margins[i, j]))
    raise ValidationError("no feasible (m, n) point on the budget line")


class BoundReport(NamedTuple):
    """Every bound for one instance, with argmax witnesses where defined."""

    spec: AccuracySpec
    m_base: float
    m_base_witness: Optional[Tuple[int, int]]
    m_nsp: float
    m_nsp_witness: Optional[Tuple[int, int]]
    m_usp: float
    m_usp_witness: Optional[Tuple[int, int]]
    m_owsp: float
    m_owsp_witness: Optional[Tuple[int, int]]
    M_nsp: float
    M_usp: float
    M_owsp: float
    w_nsp: float
    w_usp: float
    w_owsp: float
    c1_constant: float


def bound_report(
    a: ConfoundedDistribution,
    q: ConditionalTable,
    spec: AccuracySpec,
    c1_constant: float = 1.0,
) -> BoundReport:
    """Every bound for one instance, each field bitwise equal to its evaluator's.

    The helpers behind ``m_base``, ``m_policy``, ``worst_case_M`` and
    ``lower_bound_w`` run on arm terms, masses and constants computed once.
    """
    _check_k(spec, q.k)
    terms, tz = _arm_terms(a.a), _stratum_mass(a.a[:, None] * q.q)
    C, beta2 = spec.C, spec.beta**2
    C_over_b2, C1_over_b2 = C / beta2, spec.C1(c1_constant) / beta2
    base = _max_over_cells(C, np.float64(1.0), tz)
    fields = {"m_base": base.value, "m_base_witness": base.witness}
    for kind in NAMED_POLICIES:
        bound = _max_over_cells(C, _policy_numerators(a.a, terms, kind), tz)
        fields[f"m_{kind}"], fields[f"m_{kind}_witness"] = bound
        fields[f"M_{kind}"] = _worst_case_M(kind, C_over_b2, terms)
        fields[f"w_{kind}"] = _lower_bound_w(kind, C1_over_b2, terms)
    return BoundReport(spec=spec, c1_constant=c1_constant, **fields)
