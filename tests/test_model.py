"""Core distribution types, exact ATE, and instance constructions."""

import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from deconf import (
    ConditionalTable,
    ConfoundedDistribution,
    HardInstancePair,
    JointDistribution,
    ValidationError,
    adversarial_instance,
    ate_exact,
    binary_conditional,
    general_lower_pair,
    group_index,
    hardness_pair,
    joint_from_parts,
    parts_from_joint,
    policy_lower_pair,
    random_instance,
)
from deconf.model import ate_batch, empty_strata

ATOL = 1e-9
EXACT = 1e-12


def brute_force_ate(table):
    """Independent scalar-loop evaluation of the stratified ATE formula."""
    k = len(table[0])
    total = 0.0
    for z in range(k):
        pz = sum(table[g][z] for g in range(4))
        mass_t1 = table[1][z] + table[3][z]
        mass_t0 = table[0][z] + table[2][z]
        cond_t1 = table[3][z] / mass_t1 if mass_t1 > 0 else 0.0
        cond_t0 = table[2][z] / mass_t0 if mass_t0 > 0 else 0.0
        total += (cond_t1 - cond_t0) * pz
    return total


def ref_ate(table):
    """:func:`ate_batch` of one (4, k) table, one scalar operation at a time.

    P(Y=1 | t, z) = p[(1, t), z] / P(T=t, Z=z), 0 on an empty stratum; the
    per-z terms are sorted, summed in order starting from the first, and
    clipped to [-1, 1].
    """
    terms = []
    for z in range(len(table[0])):
        mass = [table[t][z] + table[2 + t][z] for t in (0, 1)]
        cond = [table[2 + t][z] / mass[t] if mass[t] > 0.0 else 0.0 for t in (0, 1)]
        terms.append((cond[1] - cond[0]) * (mass[0] + mass[1]))
    terms.sort()
    total = terms[0]
    for term in terms[1:]:
        total += term
    return min(max(total, -1.0), 1.0)


def bits(value):
    return np.asarray(value, dtype=float).tobytes()


@st.composite
def table_stacks(draw):
    """(n, 4, k) stacks of joint tables where about a third of the cells are empty."""
    k, n = draw(st.integers(2, 6)), draw(st.integers(1, 4))
    cells = draw(st.lists(st.floats(0.0, 1.0) | st.just(0.0), min_size=4 * k * n,
                          max_size=4 * k * n))
    p = np.array(cells).reshape(n, 4, k)
    total = p.sum(axis=(1, 2), keepdims=True)
    return np.divide(p, total, out=np.zeros_like(p), where=total > 0.0)


def example_instance():
    a = ConfoundedDistribution(np.array([0.4, 0.1, 0.2, 0.3]))
    q = binary_conditional((0.5, 0.2, 0.7, 0.6))
    return a, q


joint_instances = st.builds(
    lambda seed, k: random_instance(k, seed),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.sampled_from([2, 3, 5]),
)


class TestAteExact:
    def test_no_confounding_collapses_to_naive_difference(self):
        a = ConfoundedDistribution(np.array([0.4, 0.1, 0.2, 0.3]))
        q = binary_conditional((0.5, 0.5, 0.5, 0.5))
        got = ate_exact(joint_from_parts(a, q))
        naive = 0.3 / 0.4 - 0.2 / 0.6
        assert got == pytest.approx(naive, abs=EXACT)

    def test_worked_binary_example(self):
        a, q = example_instance()
        joint = joint_from_parts(a, q)
        # frozen from the brute-force oracle below
        expected = 0.43349321266968324
        assert brute_force_ate(joint.p.tolist()) == pytest.approx(expected, abs=EXACT)
        assert ate_exact(joint) == pytest.approx(expected, abs=EXACT)

    @given(joint_instances)
    def test_matches_brute_force(self, joint):
        assert ate_exact(joint) == pytest.approx(
            brute_force_ate(joint.p.tolist()), abs=ATOL
        )

    @given(joint_instances)
    def test_in_unit_range(self, joint):
        assert -1.0 <= ate_exact(joint) <= 1.0

    @given(joint_instances)
    def test_treatment_swap_negates(self, joint):
        swapped = JointDistribution(joint.p[[1, 0, 3, 2]])
        assert ate_exact(swapped) == pytest.approx(-ate_exact(joint), abs=EXACT)

    @given(joint_instances, st.integers(min_value=0, max_value=10**6))
    def test_z_permutation_invariant(self, joint, seed):
        perm = np.random.default_rng(seed).permutation(joint.k)
        permuted = JointDistribution(joint.p[:, perm])
        assert ate_exact(permuted) == pytest.approx(ate_exact(joint), abs=EXACT)

    def test_degenerate_strata_flagged_and_zeroed(self):
        # all T=1 mass on z=0; stratum (t=1, z=1) is empty
        p = np.array([[0.2, 0.2], [0.2, 0.0], [0.1, 0.1], [0.2, 0.0]])
        assert np.argwhere(empty_strata(p)).tolist() == [[1, 1]]
        assert ate_exact(JointDistribution(p)) == pytest.approx(
            brute_force_ate(p.tolist()), abs=EXACT
        )

    @given(st.integers(min_value=0, max_value=2**32 - 1), st.sampled_from([2, 3, 5]))
    def test_batch_equals_each_table(self, seed, k):
        rngs = [np.random.default_rng([seed, i]) for i in range(6)]
        tables = np.stack([random_instance(k, rng).p for rng in rngs])
        expected = [ate_exact(JointDistribution(t)) for t in tables]
        assert ate_batch(tables).tolist() == expected
        # the batch shape does not change a value
        assert ate_batch(tables.reshape(2, 3, 4, k)).ravel().tolist() == expected

    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=3, max_value=6),
        st.integers(min_value=0, max_value=10**6),
    )
    def test_batch_bitwise_z_permutation_invariant(self, seed, k, perm_seed):
        rngs = [np.random.default_rng([seed, i]) for i in range(4)]
        tables = np.stack([random_instance(k, rng).p for rng in rngs])
        perm = np.random.default_rng(perm_seed).permutation(k)
        assert np.array_equal(ate_batch(tables[..., perm]), ate_batch(tables))

    @given(table_stacks())
    @settings(max_examples=300, deadline=None)
    @example(np.zeros((1, 4, 2)))
    @example(np.array([[[0.2, 0.2], [0.2, 0.0], [0.1, 0.1], [0.2, 0.0]],
                       [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]]))
    def test_batch_bitwise_equals_scalar_reference(self, p):
        assert bits(ate_batch(p)) == bits([ref_ate(table.tolist()) for table in p])

    def test_batch_zero_mass_strata_contribute_zero(self):
        empty_t1_z1 = np.array([[0.2, 0.2], [0.2, 0.0], [0.1, 0.1], [0.2, 0.0]])
        treated_only = np.zeros((4, 2))
        treated_only[3, 0] = 1.0  # both t=0 strata and (t=1, z=1) are empty
        values = ate_batch(np.stack([empty_t1_z1, treated_only, np.zeros((4, 2))]))
        assert values[0] == pytest.approx(brute_force_ate(empty_t1_z1.tolist()), abs=EXACT)
        assert values[1] == 1.0
        assert values[2] == 0.0  # every stratum empty


class TestFactorization:
    def test_joint_from_parts_degenerate_marginal(self):
        a = ConfoundedDistribution(np.array([1.0, 0.0, 0.0, 0.0]))
        q = ConditionalTable(np.array([[0.3, 0.7]] * 4))
        joint = joint_from_parts(a, q)
        assert joint.p[0] == pytest.approx([0.3, 0.7], abs=EXACT)
        assert np.all(joint.p[1:] == 0.0)

    def test_joint_from_parts_uniform(self):
        a = ConfoundedDistribution(np.full(4, 0.25))
        q = ConditionalTable(np.full((4, 4), 0.25))
        assert np.allclose(joint_from_parts(a, q).p, 0.0625, atol=EXACT)

    def test_joint_from_parts_elementwise(self):
        a, q = example_instance()
        joint = joint_from_parts(a, q)
        assert joint.p[group_index(1, 1), 1] == pytest.approx(0.18, abs=EXACT)
        assert joint.p[group_index(0, 1), 1] == pytest.approx(0.02, abs=EXACT)

    def test_parts_from_joint_uniform(self):
        parts = parts_from_joint(JointDistribution(np.full((4, 2), 0.125)))
        assert np.allclose(parts.a.a, 0.25, atol=EXACT)
        assert np.allclose(parts.q.q, 0.5, atol=EXACT)
        assert (parts.a.a > 0.0).all()

    @given(joint_instances)
    def test_roundtrip_identity(self, joint):
        parts = parts_from_joint(joint)
        back = joint_from_parts(parts.a, parts.q)
        assert np.allclose(back.p, joint.p, atol=EXACT)

    def test_exact_recovery_from_parts(self):
        a, q = example_instance()
        parts = parts_from_joint(joint_from_parts(a, q))
        assert np.allclose(parts.a.a, a.a, atol=EXACT)
        assert np.allclose(parts.q.q, q.q, atol=EXACT)

    def test_zero_group_flagged_uniform(self):
        p = np.array([[0.3, 0.3], [0.0, 0.0], [0.2, 0.1], [0.05, 0.05]])
        parts = parts_from_joint(JointDistribution(p))
        assert parts.a.a[group_index(0, 1)] == 0.0
        assert np.allclose(parts.q.q[group_index(0, 1)], 0.5, atol=EXACT)
        assert np.flatnonzero(parts.a.a == 0.0).tolist() == [group_index(0, 1)]


class TestValidation:
    def test_marginal_must_sum_to_one(self):
        with pytest.raises(ValidationError, match="sum to 1"):
            ConfoundedDistribution(np.array([0.4, 0.1, 0.2, 0.2]))

    def test_negative_entries_rejected(self):
        with pytest.raises(ValidationError, match=r"\[0, 1\]"):
            ConfoundedDistribution(np.array([1.2, -0.2, 0.0, 0.0]))

    def test_conditional_rows_must_normalize(self):
        bad = np.array([[0.5, 0.4], [0.5, 0.5], [0.5, 0.5], [0.5, 0.5]])
        with pytest.raises(ValidationError, match=r"q row \(y=0,t=0\)"):
            ConditionalTable(bad)

    def test_k_must_be_at_least_two(self):
        with pytest.raises(ValidationError):
            JointDistribution(np.array([[0.25], [0.25], [0.25], [0.25]]))

    @pytest.mark.parametrize("k", [2, 3, 9, 40])
    def test_first_bad_row_is_named_with_its_sum(self, k):
        # rows (0,1) and (1,1) are off; the message names the first with its
        # own sum, for short rows and for rows long enough to sum pairwise
        rows = np.random.default_rng(k).dirichlet(np.ones(k), size=4)
        rows[1] *= 1.0 + 1e-9
        rows[3] *= 1.0 - 1e-9
        got = repr(float(rows[1].sum()))
        message = f"q row (y=0,t=1): must sum to 1 (got {got})"
        with pytest.raises(ValidationError) as info:
            ConditionalTable(rows)
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "bad, message",
        [(np.nan, "entries must be finite"), (np.inf, "entries must be finite"),
         (-np.inf, "entries must be finite"), (-0.1, "entries must lie in [0, 1]"),
         (1.1, "entries must lie in [0, 1]")],
    )
    def test_entry_messages(self, bad, message):
        # the non-finite check comes first, whatever else is wrong
        a = np.array([bad, 0.2, 0.3, 0.5])
        q, p = np.full((4, 3), 1.0 / 3.0), np.full((4, 3), 1.0 / 12.0)
        q[2, 1] = p[2, 1] = bad
        cases = [(ConfoundedDistribution, a, "a"), (ConditionalTable, q, "q"),
                 (JointDistribution, p, "p")]
        for cls, values, name in cases:
            with pytest.raises(ValidationError) as info:
                cls(values)
            assert str(info.value) == f"{name}: {message}"

    def test_shape_and_sum_messages(self):
        with pytest.raises(ValidationError) as info:
            JointDistribution(np.full((3, 2), 1.0 / 6.0))
        assert str(info.value) == "p: expected shape (4, k) with k >= 2, got (3, 2)"
        with pytest.raises(ValidationError) as info:
            ConditionalTable(np.full((4, 1), 1.0))
        assert str(info.value) == "q: expected shape (4, k) with k >= 2, got (4, 1)"
        with pytest.raises(ValidationError) as info:
            JointDistribution(np.full((4, 2), 0.1))
        assert str(info.value) == f"p: must sum to 1 (got {float(np.full(8, 0.1).sum())!r})"
        a = np.array([0.4, 0.1, 0.2, 0.2])
        with pytest.raises(ValidationError) as info:
            ConfoundedDistribution(a)
        assert str(info.value) == f"a: must sum to 1 (got {float(a.sum())!r})"

    def test_binary_conditional_needs_four_entries(self):
        with pytest.raises(ValidationError) as info:
            binary_conditional((0.5, 0.5, 0.5))
        assert str(info.value) == "q1: expected 4 entries, got shape (3,)"

    def test_pair_tables_must_share_k(self):
        a, q = example_instance()
        q3 = ConditionalTable(np.full((4, 3), 1.0 / 3.0))
        with pytest.raises(ValidationError) as info:
            HardInstancePair(a, q, q3, 0.0)
        assert str(info.value) == "base and alternate tables must share k"

    @pytest.mark.parametrize("args, message", [
        ((0.0, 0.5, 0.3, 0.01), "q00 must lie in (0, 1), got 0.0"),
        ((0.5, 1.0, 0.3, 0.01), "q01 must lie in (0, 1), got 1.0"),
        ((0.5, 0.5, 1.2, 0.01), "beta must lie in (0, 1), got 1.2"),
        ((0.5, 0.5, 0.3, -0.01), "need 0 <= gamma and beta + gamma < 1, got gamma=-0.01"),
        ((0.5, 0.5, 0.3, 0.7), "need 0 <= gamma and beta + gamma < 1, got gamma=0.7"),
    ])
    def test_general_lower_pair_parameters(self, args, message):
        a, _ = example_instance()
        with pytest.raises(ValidationError) as info:
            general_lower_pair(a, *args)
        assert str(info.value) == message

    def test_policy_lower_pair_negative_gamma(self):
        a, _ = example_instance()
        with pytest.raises(ValidationError) as info:
            policy_lower_pair(a, 3, 0.1, -0.01)
        assert str(info.value) == "gamma must be >= 0, got -0.01"

    def test_types_are_immutable(self):
        a, _ = example_instance()
        with pytest.raises(ValueError):
            a.a[0] = 0.9


class TestRandomInstance:
    def test_deterministic_given_seed(self):
        assert np.array_equal(random_instance(2, 123).p, random_instance(2, 123).p)
        assert not np.array_equal(random_instance(2, 123).p, random_instance(2, 124).p)

    @pytest.mark.parametrize("seed, message", [
        (-1, "seed must be >= 0, got -1"),
        (True, "seed must be an integer, got True"),
        (None, "seed must be an integer, got None"),
        (1.5, "seed must be an integer, got 1.5"),
    ], ids=["negative", "bool", "none", "float"])
    def test_seed_must_be_a_generator_or_non_negative_int(self, seed, message):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            random_instance(2, seed)

    def test_shape_and_normalization(self):
        joint = random_instance(3, 0)
        assert joint.p.shape == (4, 3)
        assert joint.p.sum() == pytest.approx(1.0, abs=EXACT)

    def test_cell_means_match_flat_dirichlet(self):
        # Dirichlet(1,...,1) on 8 cells: each mean 1/8, var = 7/(64*9)
        draws = np.stack([random_instance(2, s).p.ravel() for s in range(10_000)])
        se = np.sqrt(7.0 / (64.0 * 9.0) / draws.shape[0])
        assert np.all(np.abs(draws.mean(axis=0) - 0.125) < 3 * se)


class TestTwoConfounders:
    """The paper's two-confounder passage, with z = 2*z1 + z2 (k = 4).

    With no independence assumed between z1 and z2, the ATE needs
    P(z1, z2 | y, t). Adding eta * [+1, -1, -1, +1] to one group's 2x2 table
    keeps every (y, t, z1) and (y, t, z2) margin, so reveals of z1 and z2 on
    separate records see the same distribution under both tables, while the
    ATE moves.
    """

    A = np.array([0.4, 0.1, 0.2, 0.3])
    Q = np.array([(0.1, 0.2, 0.3, 0.4), (0.25, 0.25, 0.25, 0.25),
                  (0.4, 0.1, 0.1, 0.4), (0.3, 0.3, 0.2, 0.2)])

    def test_single_confounder_margins_keep_and_the_ate_moves(self):
        alternate = self.Q.copy()
        alternate[group_index(1, 1)] += 0.1 * np.array([1.0, -1.0, -1.0, 1.0])
        tables = self.A[:, None] * np.stack([self.Q, alternate])  # (2, 4, 4)
        joints = tables.reshape(2, 4, 2, 2)  # (table, group, z1, z2)
        for margin in (joints.sum(axis=3), joints.sum(axis=2)):  # over z2, over z1
            assert np.max(np.abs(margin[0] - margin[1])) <= 1e-15
        for table in tables:
            JointDistribution(table)  # both are valid joints
        ate = ate_batch(tables)
        assert ate == pytest.approx([0.40026635, 0.37423116], abs=1e-8)
        assert ate[0] - ate[1] > 0.026


class TestAdversarialInstances:
    @pytest.mark.parametrize(
        "which,a_expected,q1_expected",
        [
            ("nsp_worst", (0.9, 0.02, 0.01, 0.07), (0.9, 0.7, 0.01, 0.3)),
            ("usp_worst", (0.79, 0.01, 0.02, 0.18), (0.5, 0.01, 0.05, 0.5)),
            ("owsp_worst", (0.5, 0.01, 0.19, 0.3), (0.05, 0.5, 0.055, 0.4)),
        ],
    )
    def test_fixed_instances(self, which, a_expected, q1_expected):
        a, q = adversarial_instance(which)
        assert np.allclose(a.a, a_expected, atol=EXACT)
        assert np.allclose(q.q[:, 1], q1_expected, atol=EXACT)
        assert q.k == 2

    def test_unknown_name_rejected(self):
        with pytest.raises(ValidationError):
            adversarial_instance("median_worst")


class TestHardnessPair:
    def test_gap_near_limit(self):
        a = ConfoundedDistribution(np.array([0.4, 0.1, 0.2, 0.3]))
        pair = hardness_pair(a, gamma=1e-4, q_floor=1 - 1e-6)
        assert abs(pair.gap - 0.6 * (1 - 1e-6)) <= 1e-3

    def test_gap_approaches_a00_plus_a10(self):
        # as gamma -> 0 with q_floor -> 1, the gap tends to a00 + a10
        a = ConfoundedDistribution(np.array([0.4, 0.1, 0.2, 0.3]))
        limit = 0.6
        diffs = [
            abs(hardness_pair(a, g, 1 - 1e-9).gap - limit)
            for g in (1e-2, 1e-3, 1e-4)
        ]
        assert diffs[0] > diffs[1] > diffs[2]
        assert diffs[2] < 1e-3

    def test_pair_shares_marginal(self):
        a = ConfoundedDistribution(np.full(4, 0.25))
        pair = hardness_pair(a, gamma=0.05)
        assert pair.a is a
        assert pair.base_q.k == pair.alternate_q.k == 2
        assert pair.gap == pytest.approx(
            abs(ate_exact(joint_from_parts(pair.a, pair.base_q))
                - ate_exact(joint_from_parts(pair.a, pair.alternate_q))),
            abs=1e-10,
        )

    def test_parameter_validation(self):
        a = ConfoundedDistribution(np.full(4, 0.25))
        with pytest.raises(ValidationError):
            hardness_pair(a, gamma=0.0)
        with pytest.raises(ValidationError):
            hardness_pair(a, gamma=0.1, q_floor=1.0)
        zero_control = ConfoundedDistribution(np.array([0.0, 0.5, 0.0, 0.5]))
        with pytest.raises(ValidationError):
            hardness_pair(zero_control, gamma=0.1)


class TestGeneralLowerPair:
    def test_zero_gamma_means_zero_gap(self):
        a = ConfoundedDistribution(np.array([0.4, 0.1, 0.2, 0.3]))
        pair = general_lower_pair(a, q00=0.5, q01=0.5, beta=0.3, gamma=0.0)
        assert pair.gap == 0.0

    def test_gap_linear_in_gamma(self):
        a = ConfoundedDistribution(np.array([0.4, 0.1, 0.2, 0.3]))
        big = general_lower_pair(a, 0.5, 0.5, 0.3, 0.01).gap
        small = general_lower_pair(a, 0.5, 0.5, 0.3, 0.001).gap
        assert 5.0 <= big / small <= 20.0

    def test_only_y1_rows_differ(self):
        a = ConfoundedDistribution(np.full(4, 0.25))
        pair = general_lower_pair(a, 0.4, 0.6, 0.2, 0.05)
        assert np.array_equal(pair.base_q.q[0], pair.alternate_q.q[0])
        assert np.array_equal(pair.base_q.q[1], pair.alternate_q.q[1])
        assert not np.array_equal(pair.base_q.q[2], pair.alternate_q.q[2])
        assert not np.array_equal(pair.base_q.q[3], pair.alternate_q.q[3])


class TestPolicyLowerPair:
    def test_binary_case_rows_normalized(self):
        a = ConfoundedDistribution(np.array([0.4, 0.1, 0.2, 0.3]))
        pair = policy_lower_pair(a, k=2, beta=0.2, gamma=0.05)
        assert np.allclose(pair.base_q.q.sum(axis=1), 1.0, atol=EXACT)
        assert np.allclose(pair.alternate_q.q.sum(axis=1), 1.0, atol=EXACT)

    def test_zero_gamma_means_zero_gap(self):
        a = ConfoundedDistribution(np.array([0.4, 0.1, 0.2, 0.3]))
        assert policy_lower_pair(a, k=3, beta=0.1, gamma=0.0).gap == 0.0

    def test_gap_roughly_linear_in_gamma(self):
        a = ConfoundedDistribution(np.array([0.4, 0.1, 0.2, 0.3]))
        gap = policy_lower_pair(a, k=4, beta=0.05, gamma=0.01).gap
        half = policy_lower_pair(a, k=4, beta=0.05, gamma=0.005).gap
        assert gap > 0.0
        assert abs(gap - 2.0 * half) <= 0.3 * gap

    def test_infeasible_parameters_rejected(self):
        a = ConfoundedDistribution(np.full(4, 0.25))
        with pytest.raises(ValidationError):
            policy_lower_pair(a, k=4, beta=0.3, gamma=0.01)  # k*beta >= 1
        with pytest.raises(ValidationError):
            policy_lower_pair(a, k=2, beta=0.1, gamma=0.95)  # row leaves [0,1]


@given(joint_instances)
@settings(max_examples=50)
def test_simplex_closure_of_constructors(joint):
    assert joint.p.sum() == pytest.approx(1.0, abs=EXACT)
    parts = parts_from_joint(joint)
    assert parts.a.a.sum() == pytest.approx(1.0, abs=EXACT)
    assert np.allclose(parts.q.q.sum(axis=1), 1.0, atol=EXACT)
