"""Bound formulas, dominance relations, feasibility solver, budget planner."""

import math
import re
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from deconf import (
    AccuracySpec,
    ConfoundedDistribution,
    ValidationError,
    adversarial_instance,
    allocate_budget,
    binary_conditional,
    bound_report,
    finite_feasible,
    joint_from_parts,
    lower_bound_w,
    m_base,
    m_policy,
    owsp_vs_nsp_ratio_witness,
    parts_from_joint,
    policy_weights,
    random_instance,
    solve_min_m,
    worst_case_M,
)
from deconf import bounds
from deconf.bounds import finite_threshold
from deconf.model import GROUPS, ConditionalTable, JointDistribution
from deconf.policies import PolicyWeights, named_policies

SPEC = AccuracySpec(epsilon=0.1, delta=0.05, k=2, beta=0.1)

instances = st.builds(
    lambda seed: parts_from_joint(random_instance(2, seed)),
    st.integers(min_value=0, max_value=2**32 - 1),
)


def brute_force_m_policy(a, q, spec, numerator_fn):
    """Exhaustive (t, z) cell scan with an explicit per-arm numerator."""
    best = 0.0
    for t in (0, 1):
        a0, a1 = a.a[t], a.a[2 + t]
        for z in range(q.k):
            denom = a0 * q.q[t, z] + a1 * q.q[2 + t, z]
            val = spec.C * numerator_fn(a0, a1) / denom**2
            best = max(best, val)
    return best


# ---------------------------------------------------------------------------
# Cell-by-cell scalar references for the array evaluators. Each one applies
# the same float operations in the same order, so results must agree bit for
# bit; ties and the witness of a vacuous bound go to the first cell.


def ref_max_over_cells(numerators, denominators):
    best, witness, inf_witness = 0.0, None, None
    for t in range(2):
        for z in range(denominators.shape[1]):
            num, den = numerators[t, z], denominators[t, z]
            if den <= 0.0:
                if num > 0.0 and inf_witness is None:
                    inf_witness = (t, z)
                continue
            val = num / den**2
            if val > best:
                best, witness = val, (t, z)
    if inf_witness is not None:
        return math.inf, inf_witness
    return best, witness


def ref_tz(table):
    return np.vstack([table[0] + table[2], table[1] + table[3]])


def ref_m_base(p, spec):
    value, witness = ref_max_over_cells(np.ones((2, p.k)), ref_tz(p.p))
    return spec.C * value, witness


def ref_m_policy(a, q, spec, kind, x=None):
    arm = np.array([a.arm_mass(0), a.arm_mass(1)])
    sq = np.array([a.a[0] ** 2 + a.a[2] ** 2, a.a[1] ** 2 + a.a[3] ** 2])
    if kind == "nsp":
        per_arm = arm
    elif kind == "usp":
        per_arm = 4.0 * sq
    elif kind == "owsp":
        per_arm = 2.0 * arm**2
    else:
        per_arm = np.zeros(2)
        for g, (y, t) in enumerate(GROUPS):
            if a.a[g] == 0.0:
                continue
            if x[g] == 0.0:
                per_arm[t] = math.inf
            else:
                per_arm[t] += a.a[g] ** 2 / x[g]
    numerators = np.repeat(per_arm[:, None], q.k, axis=1)
    value, witness = ref_max_over_cells(numerators, ref_tz(a.a[:, None] * q.q))
    return spec.C * value, witness


def ref_worst_case_M(a, spec, kind):
    C_over_b2 = spec.C / spec.beta**2
    if kind == "owsp":
        return 2.0 * C_over_b2
    arm = np.array([a.arm_mass(0), a.arm_mass(1)])
    if np.any(arm <= 0.0):
        return math.inf
    if kind == "nsp":
        return float(C_over_b2 * np.max(1.0 / arm))
    sq = np.array([a.a[0] ** 2 + a.a[2] ** 2, a.a[1] ** 2 + a.a[3] ** 2])
    return float(4.0 * C_over_b2 * np.max(sq / arm**2))


def ref_lower_bound_w(a, spec, kind, c1):
    C1_over_b2 = spec.C1(c1) / spec.beta**2
    best = 0.0
    for t in (0, 1):
        arm, other = a.arm_mass(t), a.arm_mass(1 - t)
        if arm <= 0.0:
            return math.inf
        a_max = max(a.a[t], a.a[2 + t])
        if kind == "nsp":
            term = a_max * other**2 / arm**2
        elif kind == "usp":
            term = 4.0 * a_max**2 * other**2 / arm**2
        else:
            term = 2.0 * a_max * other**2 / arm
        best = max(best, term)
    return C1_over_b2 * best


def ref_finite_feasible(a, q, x, m, n, spec):
    denom_tz = ref_tz(a.a[:, None] * q.q)
    threshold = finite_threshold(spec)
    worst, witness = math.inf, None
    for g, (y, t) in enumerate(GROUPS):
        if a.a[g] == 0.0:
            continue
        for z in range(q.k):
            if x[g] == 0.0:
                return False, 0.0, (y, t, z)
            sampling_var = 1.0 / (x[g] * m) + q.q[g, z] ** 2 / n
            val = denom_tz[t, z] ** 2 / sampling_var
            if val < worst:
                worst, witness = val, (y, t, z)
    return worst >= threshold, worst / threshold, witness


def ref_allocate_budget(a, q, budget, c_confounded, c_deconfound, spec, grid):
    m_max = int(budget / (c_confounded + c_deconfound))
    m_values = sorted(set(np.linspace(1, m_max, num=min(grid, m_max), dtype=int).tolist()))
    kinds = ["nsp", "usp"] + (["owsp"] if min(a.arm_mass(0), a.arm_mass(1)) > 0 else [])

    def scored(n, m, kind):
        capped = np.minimum(policy_weights(kind, a).x, a.a * n / m)
        x = capped / capped.sum()
        return n, m, kind, x, ref_finite_feasible(a, q, x, m, n, spec)[1]

    points = []
    for m in m_values:
        n = int((budget - c_deconfound * m) / c_confounded)
        if n < m:
            continue
        points += [scored(n, m, kind) for kind in kinds]
    # the winner's spend is checked exactly: a float n that overspends the
    # budget (85 at costs 1 and 1.1: 41 + 40 * 1.1 > 85) drops to the exact
    # floor, and that point is scored again; a floor below m (63 at the same
    # costs: 30 + 30 * 1.1 > 63) takes the point off the line, and the next
    # best point is checked the same way
    b, c, z = map(Fraction, (budget, c_confounded, c_deconfound))
    while points:
        best = max(points, key=lambda point: point[4])  # the first maximum
        n, m, kind = best[:3]
        if c * n + z * m <= b:
            return best
        n = math.floor((b - z * m) / c)
        if n >= m:
            return scored(n, m, kind)
        points = [point for point in points if point[1] != m]


def ref_solve_min_m(a, q, weights, n, spec):
    """The plain bisection over [1, n] that the closed-form bracket replaced."""
    if not finite_feasible(a, q, weights, n, n, spec).feasible:
        return None
    lo, hi = 1, n  # hi always feasible
    if finite_feasible(a, q, weights, lo, n, spec).feasible:
        return lo
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if finite_feasible(a, q, weights, mid, n, spec).feasible:
            hi = mid
        else:
            lo = mid
    return hi


def bits(value):
    return np.asarray(value, dtype=float).tobytes()


@st.composite
def edge_instances(draw):
    """Random k in {2, 3, 4} instance with optional zero-mass groups, empty
    strata, and custom weights with a zero entry."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k = draw(st.sampled_from([2, 3, 4]))
    a = rng.dirichlet(np.ones(4))
    q = rng.dirichlet(np.ones(k), size=4)
    for g in draw(st.lists(st.integers(0, 3), max_size=2)):
        a[g] = 0.0
    for g, z in draw(st.lists(st.tuples(st.integers(0, 3), st.integers(0, k - 1)),
                              max_size=3)):
        q[g, z] = 0.0
    q[q.sum(axis=1) == 0.0] = 1.0
    x = rng.dirichlet(np.ones(4))
    if draw(st.booleans()):
        x[draw(st.integers(0, 3))] = 0.0
    a = ConfoundedDistribution(a / a.sum())
    q = ConditionalTable(q / q.sum(axis=1, keepdims=True))
    spec = AccuracySpec(
        draw(st.floats(0.05, 0.5)), draw(st.floats(0.01, 0.3)), k, draw(st.floats(0.02, 0.24))
    )
    return a, q, PolicyWeights(x / x.sum()), spec


# group (0,0) has zero mass and stratum (t=1, z=1) is empty
ZERO_MASS_CASE = (
    ConfoundedDistribution(np.array([0.0, 0.3, 0.45, 0.25])),
    ConditionalTable(
        np.array([[0.2, 0.3, 0.5], [0.6, 0.0, 0.4], [0.1, 0.6, 0.3], [0.7, 0.0, 0.3]])
    ),
    PolicyWeights(np.array([0.0, 0.4, 0.25, 0.35])),
    AccuracySpec(0.2, 0.1, 3, 0.1),
)

# treatment arm t=1 is empty, so owsp is undefined and the budget skips it
EMPTY_ARM_CASE = (
    ConfoundedDistribution(np.array([0.5, 0.0, 0.5, 0.0])),
    ConditionalTable(np.array([[0.3, 0.7], [0.5, 0.5], [0.6, 0.4], [0.5, 0.5]])),
    PolicyWeights(np.full(4, 0.25)),
    AccuracySpec(0.2, 0.1, 2, 0.1),
)


class TestScalarReferences:
    @given(edge_instances())
    @settings(max_examples=150, deadline=None)
    @example(ZERO_MASS_CASE)
    def test_bound_values_and_witnesses(self, case):
        a, q, weights, spec = case
        got = m_base(joint_from_parts(a, q), spec)
        want = ref_m_base(joint_from_parts(a, q), spec)
        assert bits(got.value) == bits(want[0]) and got.witness == want[1]
        for kind in ("nsp", "usp", "owsp", "custom"):
            policy = weights if kind == "custom" else kind
            got = m_policy(a, q, spec, policy)
            want = ref_m_policy(a, q, spec, kind, weights.x)
            assert bits(got.value) == bits(want[0]) and got.witness == want[1], kind
        for kind in ("nsp", "usp", "owsp"):
            assert bits(worst_case_M(a, spec, kind)) == bits(ref_worst_case_M(a, spec, kind))
            assert bits(lower_bound_w(a, spec, kind, 1.5)) == bits(
                ref_lower_bound_w(a, spec, kind, 1.5)
            )

    @given(edge_instances(), st.integers(1, 10**6), st.integers(1, 10**9))
    @settings(max_examples=150, deadline=None)
    @example(ZERO_MASS_CASE, 50, 1000)
    def test_finite_feasible(self, case, m, n):
        a, q, weights, spec = case
        kinds = ["nsp", "usp"] + (["owsp"] if min(a.arm_mass(0), a.arm_mass(1)) > 0 else [])
        for x in [weights.x] + [policy_weights(kind, a).x for kind in kinds]:
            got = finite_feasible(a, q, PolicyWeights(x), m, n, spec)
            want = ref_finite_feasible(a, q, x, m, n, spec)
            assert got.feasible == want[0]
            assert bits(got.margin) == bits(want[1])
            assert got.witness == want[2]

    @given(edge_instances(), st.floats(1e2, 1e7), st.floats(0.5, 3.0),
           st.floats(1.0, 50.0), st.integers(10, 120))
    @settings(max_examples=60, deadline=None)
    @example(ZERO_MASS_CASE, 5e4, 1.0, 20.0, 200)
    @example(EMPTY_ARM_CASE, 1e5, 1.0, 20.0, 200)
    @example(EMPTY_ARM_CASE, 85.0, 1.0, 1.1, 10)  # the float line's n overspends
    @example(EMPTY_ARM_CASE, 63.0, 1.0, 1.1, 10)  # ... and its exact floor is below m
    def test_allocate_budget(self, case, budget, c_confounded, c_deconfound, grid):
        a, q, _, spec = case
        assume(budget >= c_confounded + c_deconfound)
        plan = allocate_budget(a, q, budget, c_confounded, c_deconfound, spec, grid=grid)
        assert plan.n >= plan.m
        n, m, kind, x, margin = ref_allocate_budget(
            a, q, budget, c_confounded, c_deconfound, spec, grid
        )
        assert (plan.n, plan.m, plan.policy) == (n, m, kind)
        assert bits(plan.weights.x) == bits(x)
        assert bits(plan.margin) == bits(margin)

    @given(edge_instances(), st.integers(1, 10**12) | st.integers(1, 2000))
    @settings(max_examples=150, deadline=None)
    @example(ZERO_MASS_CASE, 10**6)
    @example(EMPTY_ARM_CASE, 10**8)
    @example(EMPTY_ARM_CASE, 1)
    @example(ZERO_MASS_CASE, 1)
    @example(ZERO_MASS_CASE, 2)
    @example(EMPTY_ARM_CASE, 2)
    def test_solve_min_m(self, case, n):
        a, q, weights, spec = case
        for x in [weights] + [policy_weights(kind, a) for kind in named_policies(a)]:
            got = solve_min_m(a, q, x, n, spec)
            assert got == ref_solve_min_m(a, q, x, n, spec)
            assert got is None or type(got) is int

    @given(edge_instances(), st.integers(1, 10**12) | st.integers(1, 2000),
           st.sampled_from(["one", "n", "random"]), st.floats(0.0, 1.0))
    @settings(max_examples=100, deadline=None)
    @example(ZERO_MASS_CASE, 10**6, "random", 0.5)
    def test_solve_min_m_repairs_a_wrong_guess(self, case, n, where, fraction):
        # whatever the closed form guesses, the bracket repair finds the
        # bisection's answer
        a, q, weights, spec = case
        guess = {"one": 1, "n": n, "random": 1 + int(fraction * (n - 1))}[where]
        with mock.patch.object(bounds, "_min_m_guess", return_value=guess):
            for x in [weights] + [policy_weights(kind, a) for kind in named_policies(a)]:
                assert solve_min_m(a, q, x, n, spec) == ref_solve_min_m(a, q, x, n, spec)

    def test_zero_weight_blocks_at_first_positive_mass_group(self):
        # group (0,0) has no mass, so its zero weight is skipped; the zero
        # weight on (1,0) blocks even though (0,1) has a cell of value 0
        a, q, _, spec = ZERO_MASS_CASE
        x = np.array([0.0, 0.5, 0.0, 0.5])
        got = finite_feasible(a, q, PolicyWeights(x), 50, 1000, spec)
        assert got == (False, 0.0, (1, 0, 0))
        assert got == ref_finite_feasible(a, q, x, 50, 1000, spec)


class TestAccuracySpec:
    def test_constant_example(self):
        assert SPEC.C == pytest.approx(12.5 * 4 * math.log(320) / 0.01, rel=1e-12)
        assert SPEC.C == pytest.approx(28841.6, abs=0.1)

    def test_invalid_ranges_rejected(self):
        with pytest.raises(ValidationError):
            AccuracySpec(0.0, 0.05, 2, 0.1)
        with pytest.raises(ValidationError):
            AccuracySpec(0.1, 1.0, 2, 0.1)
        with pytest.raises(ValidationError):
            AccuracySpec(0.1, 0.05, 1, 0.1)
        with pytest.raises(ValidationError):
            AccuracySpec(0.1, 0.05, 2, 0.5)

    @pytest.mark.parametrize("k", [2.5, 2.0, True, "3"])
    def test_k_must_be_an_integer(self, k):
        with pytest.raises(ValidationError, match="k must be an integer"):
            AccuracySpec(0.1, 0.05, k, 0.1)

    def test_numpy_k_becomes_a_python_int(self):
        spec = AccuracySpec(0.1, 0.05, np.int64(3), 0.1)
        assert type(spec.k) is int and spec.C == AccuracySpec(0.1, 0.05, 3, 0.1).C

    @pytest.mark.parametrize(
        "epsilon, delta, field",
        [(1e-170, 0.1, "epsilon"), (1e-160, 0.1, "epsilon"), (5e-324, 0.1, "epsilon"),
         (0.1, 1e-310, "delta"), (0.1, 5e-324, "delta")],
    )
    def test_c_past_float_range_rejected(self, epsilon, delta, field):
        # epsilon**2 underflows to 0 or 1/epsilon**2 overflows; 8k/delta overflows
        with pytest.raises(ValidationError, match=f"^{field}=.* is too small"):
            AccuracySpec(epsilon, delta, 2, 0.1)

    @pytest.mark.parametrize("epsilon, delta", [(1e-150, 0.1), (0.1, 1e-300)])
    def test_c_near_float_range_is_finite(self, epsilon, delta):
        assert 0.0 < AccuracySpec(epsilon, delta, 2, 0.1).C < math.inf

    def test_c1_warns_outside_regime(self):
        spec = AccuracySpec(0.1, 0.05, 4, 0.3)  # k*beta = 1.2
        with pytest.warns(UserWarning, match="k\\*beta"):
            spec.C1()


class TestMBase:
    def test_min_marginal_example(self):
        # min P(T,Z) = 0.1 placed on one cell
        p = np.array([[0.05, 0.25], [0.2, 0.1], [0.05, 0.15], [0.1, 0.1]])
        joint = JointDistribution(p)
        # P(T=0,Z=0) = 0.1 is the smallest (t,z) marginal
        assert m_base(joint, SPEC).value == pytest.approx(SPEC.C / 0.1**2, rel=1e-12)
        assert m_base(joint, SPEC).value == pytest.approx(2.884e6, rel=1e-3)

    def test_uniform_is_16C(self):
        joint = JointDistribution(np.full((4, 2), 0.125))
        assert m_base(joint, SPEC).value == pytest.approx(16 * SPEC.C, rel=1e-12)

    def test_epsilon_scaling(self):
        joint = random_instance(2, 0)
        half = AccuracySpec(SPEC.epsilon / 2, SPEC.delta, SPEC.k, SPEC.beta)
        assert m_base(joint, half).value == pytest.approx(
            4 * m_base(joint, SPEC).value, rel=1e-12
        )

    def test_zero_marginal_reports_infinite(self):
        p = np.array([[0.5, 0.0], [0.2, 0.1], [0.1, 0.0], [0.05, 0.05]])
        assert m_base(JointDistribution(p), SPEC).value == math.inf

    def test_vacuous_witness_is_first_empty_stratum(self):
        # strata (t=0,z=1), (t=1,z=0) and (t=1,z=1) are all empty
        p = np.array([[0.5, 0.0], [0.0, 0.0], [0.5, 0.0], [0.0, 0.0]])
        assert m_base(JointDistribution(p), SPEC) == (math.inf, (0, 1))
        a = ConfoundedDistribution(np.array([0.5, 0.2, 0.1, 0.2]))
        q = ConditionalTable(
            np.array([[0.5, 0.5, 0.0], [1.0, 0.0, 0.0], [0.5, 0.5, 0.0], [0.0, 1.0, 0.0]])
        )
        spec3 = AccuracySpec(epsilon=0.1, delta=0.05, k=3, beta=0.1)
        for kind in ("nsp", "usp", "owsp"):
            assert m_policy(a, q, spec3, kind) == (math.inf, (0, 2))


class TestMPolicy:
    def test_uniform_instance_all_8C(self):
        a = ConfoundedDistribution(np.full(4, 0.25))
        q = binary_conditional((0.5, 0.5, 0.5, 0.5))
        for kind in ("nsp", "usp", "owsp"):
            assert m_policy(a, q, SPEC, kind).value == pytest.approx(8 * SPEC.C, rel=1e-12)

    def test_nsp_matches_cell_enumeration(self):
        a = ConfoundedDistribution(np.array([0.4, 0.1, 0.2, 0.3]))
        q = binary_conditional((0.5, 0.2, 0.7, 0.6))
        expected = brute_force_m_policy(a, q, SPEC, lambda a0, a1: a0 + a1)
        assert m_policy(a, q, SPEC, "nsp").value == pytest.approx(expected, rel=1e-12)

    def test_usp_owsp_match_cell_enumeration(self):
        a = ConfoundedDistribution(np.array([0.15, 0.35, 0.05, 0.45]))
        q = binary_conditional((0.9, 0.1, 0.5, 0.7))
        usp = brute_force_m_policy(a, q, SPEC, lambda a0, a1: 4 * (a0**2 + a1**2))
        owsp = brute_force_m_policy(a, q, SPEC, lambda a0, a1: 2 * (a0 + a1) ** 2)
        assert m_policy(a, q, SPEC, "usp").value == pytest.approx(usp, rel=1e-12)
        assert m_policy(a, q, SPEC, "owsp").value == pytest.approx(owsp, rel=1e-12)

    def test_custom_general_form_matches_named(self):
        a = ConfoundedDistribution(np.array([0.4, 0.1, 0.2, 0.3]))
        q = binary_conditional((0.5, 0.2, 0.7, 0.6))

        nsp_like = PolicyWeights(a.a)
        assert m_policy(a, q, SPEC, nsp_like).value == pytest.approx(
            m_policy(a, q, SPEC, "nsp").value, rel=1e-9
        )

    @given(instances)
    @settings(max_examples=200)
    def test_owsp_dominates_usp(self, parts):
        q = parts.q
        usp = m_policy(parts.a, q, SPEC, "usp").value
        owsp = m_policy(parts.a, q, SPEC, "owsp").value
        assert owsp <= usp * (1 + 1e-9)

    @given(instances)
    @settings(max_examples=200)
    def test_nsp_beats_baseline(self, parts):
        joint = joint_from_parts(parts.a, parts.q)
        assert m_policy(parts.a, parts.q, SPEC, "nsp").value <= m_base(
            joint, SPEC
        ).value * (1 + 1e-9)


class TestWorstCase:
    def test_owsp_constant(self):
        rng = np.random.default_rng(17)
        values = set()
        for _ in range(100):
            parts = parts_from_joint(random_instance(2, rng))
            values.add(worst_case_M(parts.a, SPEC, "owsp"))
        assert values == {2 * SPEC.C / SPEC.beta**2}

    def test_nsp_balanced_arms_hits_floor(self):
        a = ConfoundedDistribution(np.array([0.3, 0.25, 0.2, 0.25]))
        assert worst_case_M(a, SPEC, "nsp") == pytest.approx(
            2 * SPEC.C / SPEC.beta**2, rel=1e-12
        )

    def test_usp_two_arm_enumeration(self):
        a = ConfoundedDistribution(np.array([0.5, 0.1, 0.1, 0.3]))
        expected = max(
            4 * (0.5**2 + 0.1**2) / 0.6**2, 4 * (0.1**2 + 0.3**2) / 0.4**2
        ) * SPEC.C / SPEC.beta**2
        assert worst_case_M(a, SPEC, "usp") == pytest.approx(expected, rel=1e-12)
        assert worst_case_M(a, SPEC, "usp") == pytest.approx(
            (26.0 / 9.0) * SPEC.C / SPEC.beta**2, rel=1e-12
        )

    @given(instances)
    @settings(max_examples=200)
    def test_owsp_below_nsp(self, parts):
        assert worst_case_M(parts.a, SPEC, "owsp") <= worst_case_M(parts.a, SPEC, "nsp")

    def test_empty_arm_infinite(self):
        a = ConfoundedDistribution(np.array([0.6, 0.0, 0.4, 0.0]))
        assert worst_case_M(a, SPEC, "nsp") == math.inf
        assert worst_case_M(a, SPEC, "usp") == math.inf
        assert worst_case_M(a, SPEC, "owsp") == 2 * SPEC.C / SPEC.beta**2


class TestLowerBounds:
    def test_symmetric_instance_owsp_equals_nsp(self):
        a = ConfoundedDistribution(np.full(4, 0.25))
        w_nsp = lower_bound_w(a, SPEC, "nsp")
        w_owsp = lower_bound_w(a, SPEC, "owsp")
        # w_owsp / w_nsp = 2 * arm mass = 1 on the symmetric instance
        assert w_owsp == pytest.approx(w_nsp, rel=1e-12)

    def test_usp_term_ratio_is_4a(self):
        # on the symmetric instance every term has a = 0.25, so the usp/nsp
        # ratio collapses to 4 * 0.25 = 1
        a = ConfoundedDistribution(np.full(4, 0.25))
        assert lower_bound_w(a, SPEC, "usp") == pytest.approx(
            lower_bound_w(a, SPEC, "nsp"), rel=1e-12
        )
        # and on a skewed instance the matched-term ratio follows 4 * a_max
        skew = ConfoundedDistribution(np.array([0.6, 0.1, 0.1, 0.2]))
        per_arm = {}
        for t in (0, 1):
            arm = skew.a[t] + skew.a[2 + t]
            other = skew.a[1 - t] + skew.a[3 - t]
            a_max = max(skew.a[t], skew.a[2 + t])
            per_arm[t] = (a_max * other**2 / arm**2, 4 * a_max**2 * other**2 / arm**2)
        t_star = max(per_arm, key=lambda t: per_arm[t][0])
        ratio = per_arm[t_star][1] / per_arm[t_star][0]
        assert ratio == pytest.approx(4 * max(skew.a[t_star], skew.a[2 + t_star]))

    def test_delta_squared_doubles(self):
        a = ConfoundedDistribution(np.array([0.4, 0.1, 0.2, 0.3]))
        sq = AccuracySpec(SPEC.epsilon, SPEC.delta**2, SPEC.k, SPEC.beta)
        for kind in ("nsp", "usp", "owsp"):
            assert lower_bound_w(a, sq, kind) == pytest.approx(
                2 * lower_bound_w(a, SPEC, kind), rel=1e-12
            )

    def test_custom_policy_rejected_even_with_empty_arm(self):
        a = ConfoundedDistribution(np.array([0.0, 0.6, 0.0, 0.4]))
        assert lower_bound_w(a, SPEC, "nsp") == math.inf
        with pytest.raises(ValidationError, match="nsp, usp, and owsp only"):
            lower_bound_w(a, SPEC, PolicyWeights(np.full(4, 0.25)))

    def test_c1_multiplier_linear(self):
        a = ConfoundedDistribution(np.array([0.4, 0.1, 0.2, 0.3]))
        assert lower_bound_w(a, SPEC, "nsp", c1_constant=3.0) == pytest.approx(
            3 * lower_bound_w(a, SPEC, "nsp"), rel=1e-12
        )


class TestRatioWitness:
    def test_fixed_eta_ratios(self):
        assert owsp_vs_nsp_ratio_witness(0.1, SPEC).ratio == pytest.approx(0.4)
        assert owsp_vs_nsp_ratio_witness(0.01, SPEC).ratio == pytest.approx(0.04)

    def test_ratio_vanishes_with_eta(self):
        ratios = [owsp_vs_nsp_ratio_witness(e, SPEC).ratio for e in (0.2, 0.02, 0.002)]
        assert ratios == sorted(ratios, reverse=True)
        assert ratios[-1] < 0.01

    def test_eta_range(self):
        with pytest.raises(ValidationError):
            owsp_vs_nsp_ratio_witness(0.3, SPEC)
        with pytest.raises(ValidationError):
            owsp_vs_nsp_ratio_witness(0.0, SPEC)

    def test_pair_separates_ates(self):
        witness = owsp_vs_nsp_ratio_witness(0.1, SPEC)
        assert witness.pair.gap > 0.1  # c = (1-beta)/beta maximizes separation


class TestFiniteFeasibility:
    def setup_method(self):
        self.parts = parts_from_joint(random_instance(2, 99))
        self.weights = policy_weights("owsp", self.parts.a)

    def test_tiny_samples_infeasible(self):
        spec = AccuracySpec(0.01, 0.05, 2, 0.1)
        res = finite_feasible(self.parts.a, self.parts.q, self.weights, 1, 1, spec)
        assert not res.feasible
        assert res.margin < 1.0

    def test_monotone_in_m_and_n(self):
        spec = AccuracySpec(0.25, 0.1, 2, 0.1)
        margins = [
            finite_feasible(self.parts.a, self.parts.q, self.weights, m, n, spec).margin
            for m, n in [(10, 100), (100, 100), (100, 1000), (1000, 10000)]
        ]
        assert margins == sorted(margins)

    def test_doubling_preserves_feasibility(self):
        spec = AccuracySpec(0.25, 0.1, 2, 0.1)
        m = n = 1
        while not finite_feasible(
            self.parts.a, self.parts.q, self.weights, m, n, spec
        ).feasible:
            m *= 2
            n *= 2
            assert m < 2**40, "instance unexpectedly infeasible"
        res = finite_feasible(self.parts.a, self.parts.q, self.weights, 2 * m, 2 * n, spec)
        assert res.feasible


class TestCountArguments:
    """m and n are counts: integers (not bools) >= 1, never coerced."""

    def setup_method(self):
        self.parts = parts_from_joint(random_instance(2, 5))
        self.weights = policy_weights("owsp", self.parts.a)
        self.spec = AccuracySpec(0.25, 0.1, 2, 0.1)

    @pytest.mark.parametrize("bad", [True, 1e7, 1e7 + 0.5, math.nan, math.inf, "100"])
    def test_finite_feasible_rejects_non_integers(self, bad):
        p, w, spec = self.parts, self.weights, self.spec
        with pytest.raises(ValidationError, match="m must be an integer"):
            finite_feasible(p.a, p.q, w, bad, 10**7, spec)
        with pytest.raises(ValidationError, match="n must be an integer"):
            finite_feasible(p.a, p.q, w, 100, bad, spec)

    @pytest.mark.parametrize("bad", [True, False, 1e7, math.nan, "100"])
    def test_solve_min_m_rejects_non_integers(self, bad):
        p, w, spec = self.parts, self.weights, self.spec
        with pytest.raises(ValidationError, match="n must be an integer"):
            solve_min_m(p.a, p.q, w, bad, spec)

    @pytest.mark.parametrize("bad", [0, -3, np.int64(0)])
    def test_counts_below_one_rejected(self, bad):
        p, w, spec = self.parts, self.weights, self.spec
        with pytest.raises(ValidationError, match="n must be >= 1"):
            solve_min_m(p.a, p.q, w, bad, spec)
        with pytest.raises(ValidationError, match="m must be >= 1"):
            finite_feasible(p.a, p.q, w, bad, 10, spec)

    def test_numpy_n_returns_a_python_int(self):
        p, w, spec = self.parts, self.weights, self.spec
        got = solve_min_m(p.a, p.q, w, np.int64(10**7), spec)
        assert type(got) is int and got == solve_min_m(p.a, p.q, w, 10**7, spec)
        assert finite_feasible(p.a, p.q, w, np.int32(got), np.int64(10**7), spec).feasible


class TestSolveMinM:
    def test_bisection_contract(self):
        spec = AccuracySpec(0.25, 0.1, 2, 0.1)
        parts = parts_from_joint(random_instance(2, 5))
        weights = policy_weights("owsp", parts.a)
        n = 10**7
        m_star = solve_min_m(parts.a, parts.q, weights, n, spec)
        assert m_star is not None
        assert finite_feasible(parts.a, parts.q, weights, m_star, n, spec).feasible
        assert not finite_feasible(
            parts.a, parts.q, weights, m_star - 1, n, spec
        ).feasible

    def test_huge_n_matches_analytic_limit(self):
        # with the n-term gone the condition inverts in closed form:
        # m >= T / (x[g] * P(T,Z)^2) maximized over cells
        spec = AccuracySpec(0.25, 0.1, 2, 0.1)
        parts = parts_from_joint(random_instance(2, 6))
        weights = policy_weights("owsp", parts.a)
        n = 10**12
        m_star = solve_min_m(parts.a, parts.q, weights, n, spec)
        threshold = finite_threshold(spec)
        limit = 0.0
        for g, t in ((0, 0), (1, 1), (2, 0), (3, 1)):
            for z in range(2):
                denom = (
                    parts.a.a[t] * parts.q.q[t, z]
                    + parts.a.a[2 + t] * parts.q.q[2 + t, z]
                )
                limit = max(limit, threshold / (weights.x[g] * denom**2))
        assert m_star == pytest.approx(math.ceil(limit), rel=0.05)

    def test_infeasible_returns_none(self):
        spec = AccuracySpec(0.01, 0.05, 2, 0.1)
        parts = parts_from_joint(random_instance(2, 7))
        weights = policy_weights("usp", parts.a)
        assert solve_min_m(parts.a, parts.q, weights, 10, spec) is None


class TestKernelEvaluations:
    """Each question a plan asks is one evaluation of the finite-condition kernel."""

    def test_one_evaluation_per_question(self):
        spec = AccuracySpec(0.25, 0.1, 2, 0.1)
        parts = parts_from_joint(random_instance(2, 5))
        weights = policy_weights("owsp", parts.a)
        with mock.patch.object(bounds, "_finite_cells", wraps=bounds._finite_cells) as kernel:
            finite_feasible(parts.a, parts.q, weights, 100, 10**8, spec)
            assert kernel.call_count == 1
            # m = n, then the closed-form guess and the point below it at once
            m_star = solve_min_m(parts.a, parts.q, weights, 10**8, spec)
            assert kernel.call_count == 3
            assert list(kernel.call_args.args[3]) == [m_star, m_star - 1]
            allocate_budget(parts.a, parts.q, 1e6, 1.0, 20.0, spec)
            assert kernel.call_count == 4
            assert kernel.call_args.args[2].shape == (4, 200, 3)  # (group, grid, policy)

    @given(st.floats(1e2, 1e9), st.floats(0.5, 3.0), st.floats(1.0, 50.0),
           st.integers(10, 5000))
    @settings(max_examples=100, deadline=None)
    def test_budget_grid_points_are_distinct(self, budget, c_confounded, c_deconfound, grid):
        # the grid has at most m_max points over [1, m_max], so nothing to dedupe
        assume(budget >= c_confounded + c_deconfound)
        a, q, _, spec = EMPTY_ARM_CASE
        with mock.patch.object(bounds, "_finite_cells", wraps=bounds._finite_cells) as kernel:
            try:
                allocate_budget(a, q, budget, c_confounded, c_deconfound, spec, grid=grid)
            except ValidationError:  # no point on the line: the kernel never ran
                assert kernel.call_count == 0
                return
        m = kernel.call_args.args[3][:, 0]
        assert (np.diff(m) > 0).all()


class TestAllocateBudget:
    def test_symmetric_costs_push_m_to_half(self):
        a = ConfoundedDistribution(np.full(4, 0.25))
        q = binary_conditional((0.5, 0.5, 0.5, 0.5))
        spec = AccuracySpec(0.25, 0.1, 2, 0.1)
        budget, cost = 10_000.0, 1.0
        plan = allocate_budget(a, q, budget, cost, cost, spec, grid=100)
        m_cap = budget / (2 * cost)
        step = m_cap / 99  # grid spacing
        assert abs(plan.m - m_cap) <= step + 1
        assert plan.n >= plan.m

    @pytest.mark.parametrize("budget, cost", [(2e19, 1.0), (1e25, 1.0), (1e12, 1e-300)])
    def test_m_past_int64_names_the_budget(self, budget, cost):
        a = ConfoundedDistribution(np.full(4, 0.25))
        q = binary_conditional((0.5, 0.5, 0.5, 0.5))
        spec = AccuracySpec(0.25, 0.1, 2, 0.1)
        message = f"^budget {re.escape(repr(budget))}: .* does not fit a 64-bit integer$"
        with pytest.raises(ValidationError, match=message):
            allocate_budget(a, q, budget, cost, cost, spec)

    def test_m_inside_int64_plans(self):
        a = ConfoundedDistribution(np.full(4, 0.25))
        q = binary_conditional((0.5, 0.5, 0.5, 0.5))
        plan = allocate_budget(a, q, 1e19, 1.0, 1.0, AccuracySpec(0.25, 0.1, 2, 0.1))
        assert 2**32 < plan.m <= plan.n

    @pytest.mark.parametrize("budget, c_confounded, c_deconfound, over",
                             [(1e19, 1.0, 1.0, 512), (1e17, 3.0, 7.0, 5)])
    def test_plan_never_spends_past_the_budget(self, budget, c_confounded, c_deconfound, over):
        a = ConfoundedDistribution(np.array([0.4, 0.1, 0.2, 0.3]))
        q = binary_conditional((0.5, 0.2, 0.7, 0.6))
        spec = AccuracySpec(0.2, 0.1, 2, 0.1)
        plan = allocate_budget(a, q, budget, c_confounded, c_deconfound, spec)
        b, c_c, c_z = map(Fraction, (budget, c_confounded, c_deconfound))
        float_n = int(np.trunc((budget - c_deconfound * plan.m) / c_confounded))
        assert c_c * float_n + c_z * plan.m - b == over  # the float line's overspend
        assert b - c_c < c_c * plan.n + c_z * plan.m <= b  # n is the exact floor
        # the point is scored again at that n: weights capped at a * n / m
        capped = np.minimum(policy_weights(plan.policy, a).x, a.a * plan.n / plan.m)
        np.testing.assert_allclose(plan.weights.x, capped / capped.sum(), rtol=1e-15)
        check = finite_feasible(a, q, plan.weights, plan.m, plan.n, spec)
        assert plan.margin == pytest.approx(check.margin, rel=1e-12)

    def test_expensive_deconfounding_shrinks_m(self):
        a = ConfoundedDistribution(np.full(4, 0.25))
        q = binary_conditional((0.5, 0.5, 0.5, 0.5))
        spec = AccuracySpec(0.25, 0.1, 2, 0.1)
        plan = allocate_budget(a, q, 10_000.0, 1.0, 4_000.0, spec, grid=50)
        assert plan.m <= 2

    def test_budget_growth_never_hurts(self):
        parts = parts_from_joint(random_instance(2, 12))
        spec = AccuracySpec(0.25, 0.1, 2, 0.1)
        margins = [
            allocate_budget(parts.a, parts.q, b, 1.0, 10.0, spec, grid=80).margin
            for b in (2_000.0, 4_000.0, 8_000.0)
        ]
        assert margins == sorted(margins)

    @pytest.mark.parametrize("budget, c_confounded, c_deconfound", [
        # m_max rounds to 1, but n rounds to 0 < m at m = 1
        (3.1236753165138964, 0.7346489669355872, 2.3890263495783093),
        # the float line's one point is (m, n) = (1, 1), but this budget, the
        # float sum of the costs, is below their exact sum: n's exact floor is 0
        (2.5048287302440277 + 1.5480619442981436, 2.5048287302440277, 1.5480619442981436),
    ])
    def test_budget_line_without_a_point(self, budget, c_confounded, c_deconfound):
        a = ConfoundedDistribution(np.full(4, 0.25))
        q = binary_conditional((0.5, 0.5, 0.5, 0.5))
        spec = AccuracySpec(0.25, 0.1, 2, 0.1)
        with pytest.raises(ValidationError) as info:
            allocate_budget(a, q, budget, c_confounded, c_deconfound, spec)
        assert str(info.value) == "no feasible (m, n) point on the budget line"

    def test_budget_too_small(self):
        a = ConfoundedDistribution(np.full(4, 0.25))
        q = binary_conditional((0.5, 0.5, 0.5, 0.5))
        with pytest.raises(ValidationError):
            allocate_budget(a, q, 1.0, 1.0, 10.0, AccuracySpec(0.25, 0.1, 2, 0.1))


    @pytest.mark.parametrize(
        "budget, c_confounded, c_deconfound",
        [(math.nan, 1.0, 10.0), (math.inf, 1.0, 10.0), (1e4, math.nan, 10.0),
         (1e4, 1.0, math.nan), (1e4, math.inf, 10.0), (1e4, 1.0, -math.inf)],
    )
    def test_non_finite_budget_or_cost_rejected(self, budget, c_confounded, c_deconfound):
        a = ConfoundedDistribution(np.full(4, 0.25))
        q = binary_conditional((0.5, 0.5, 0.5, 0.5))
        spec = AccuracySpec(0.25, 0.1, 2, 0.1)
        with pytest.raises(ValidationError, match="finite and positive"):
            allocate_budget(a, q, budget, c_confounded, c_deconfound, spec)

    @pytest.mark.parametrize("grid", [10.5, 50.0, True, "50"])
    def test_grid_must_be_an_integer(self, grid):
        a = ConfoundedDistribution(np.full(4, 0.25))
        q = binary_conditional((0.5, 0.5, 0.5, 0.5))
        spec = AccuracySpec(0.25, 0.1, 2, 0.1)
        with pytest.raises(ValidationError, match="grid must be an integer"):
            allocate_budget(a, q, 1e4, 1.0, 10.0, spec, grid=grid)


class TestSpecMatchesTableK:
    """The spec's k sets C and the finite threshold, so it must be the table's k."""

    A = adversarial_instance("nsp_worst")[0]
    Q3 = ConditionalTable(np.full((4, 3), 1.0 / 3.0))
    SPEC2 = AccuracySpec(epsilon=0.2, delta=0.1, k=2, beta=0.1)
    SPEC3 = AccuracySpec(epsilon=0.2, delta=0.1, k=3, beta=0.1)
    MISMATCH = "spec has k=2, but the table has k=3"

    def test_m_base(self):
        p = joint_from_parts(self.A, self.Q3)
        with pytest.raises(ValidationError, match=self.MISMATCH):
            m_base(p, self.SPEC2)
        with pytest.raises(ValidationError, match=self.MISMATCH):
            bound_report(self.A, self.Q3, self.SPEC2)
        assert m_base(p, self.SPEC3).value > 0.0

    def test_m_policy(self):
        with pytest.raises(ValidationError, match=self.MISMATCH):
            m_policy(self.A, self.Q3, self.SPEC2, "nsp")
        # the same cells with C at k=2 would give 634,397
        assert m_policy(self.A, self.Q3, self.SPEC3, "nsp").value == pytest.approx(
            1_541_429.697, rel=1e-9
        )

    def test_finite_feasible(self):
        weights = policy_weights("usp", self.A)
        with pytest.raises(ValidationError, match=self.MISMATCH):
            finite_feasible(self.A, self.Q3, weights, 1000, 1000, self.SPEC2)
        with pytest.raises(ValidationError, match=self.MISMATCH):
            solve_min_m(self.A, self.Q3, weights, 1000, self.SPEC2)
        assert not finite_feasible(self.A, self.Q3, weights, 1000, 1000, self.SPEC3).feasible

    def test_allocate_budget(self):
        with pytest.raises(ValidationError, match=self.MISMATCH):
            allocate_budget(self.A, self.Q3, 1e6, 1.0, 20.0, self.SPEC2)
        assert allocate_budget(self.A, self.Q3, 1e6, 1.0, 20.0, self.SPEC3).m >= 1


class TestBoundReport:
    @given(edge_instances())
    @settings(max_examples=150, deadline=None)
    @example(ZERO_MASS_CASE)
    @example(EMPTY_ARM_CASE)
    def test_fields_match_the_evaluators(self, case):
        # the report shares its terms across fields but no formula: every
        # field and witness is the individual evaluator's, bit for bit
        a, q, _, spec = case
        report = bound_report(a, q, spec, c1_constant=1.5)
        base = m_base(joint_from_parts(a, q), spec)
        assert bits(report.m_base) == bits(base.value)
        assert report.m_base_witness == base.witness
        for kind in ("nsp", "usp", "owsp"):
            bound = m_policy(a, q, spec, kind)
            assert bits(getattr(report, f"m_{kind}")) == bits(bound.value), kind
            assert getattr(report, f"m_{kind}_witness") == bound.witness, kind
            assert bits(getattr(report, f"M_{kind}")) == bits(worst_case_M(a, spec, kind))
            assert bits(getattr(report, f"w_{kind}")) == bits(lower_bound_w(a, spec, kind, 1.5))
        assert report.c1_constant == 1.5 and report.spec is spec

    def test_report_orderings(self):
        parts = parts_from_joint(random_instance(2, 21))
        report = bound_report(parts.a, parts.q, SPEC)
        assert report.m_nsp <= report.m_base
        assert report.m_owsp <= report.m_usp
        assert report.M_owsp <= report.M_nsp
        assert report.m_base_witness is not None
        assert report.m_nsp_witness is not None
