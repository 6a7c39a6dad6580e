"""Plug-in estimators: exactness on proportional data, degeneracy handling,
equivariance, and statistical consistency."""

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from deconf import (
    ConditionalTable,
    ConfoundedDistribution,
    DegenerateGroupError,
    GROUPS,
    EstimationResult,
    ValidationError,
    allocate_infinite,
    ate_exact,
    binary_conditional,
    estimate_deconfounded_only,
    estimate_finite_counts,
    estimate_stratified_ite,
    estimate_with_known_confounded_counts,
    joint_from_parts,
    parts_from_joint,
    random_instance,
)
from deconf.estimation import FALLBACKS, StratifiedResult, q_hat_batch
from deconf.model import ate_batch, empty_strata
from test_model import brute_force_ate, example_instance

EXACT = 1e-12


def with_hidden(cells, hidden=0):
    """A ``(..., 4, k)`` cell table as the stratified layout: ``hidden`` counts in column 0."""
    cells = np.asarray(cells)
    return np.concatenate([np.broadcast_to(hidden, cells.shape[:-1] + (1,)), cells], axis=-1)


def ref_estimate_stratified_ite(strata, counts, fallback="uniform"):
    """The per-stratum loop the batched stratified estimator replaced.

    One scalar finite estimate per stratum in order, each computed through
    the validated model objects, weighted by the stratum's share; the
    per-stratum values are stacked into one result at the end.
    """
    strata, counts = np.asarray(strata), np.asarray(counts)
    total = int(counts.sum())
    weights, members, aggregate = [], [], 0.0
    for table in counts:
        n_counts = table.sum(axis=1).astype(float)
        m_counts = table[:, 1:].astype(float)
        a_hat = ConfoundedDistribution(n_counts / n_counts.sum())
        q_hat = ConditionalTable(q_hat_batch(m_counts, a_hat.a, fallback))
        joint = joint_from_parts(a_hat, q_hat)
        ate = ate_exact(joint)
        members.append(
            (ate, a_hat.a, q_hat.q, m_counts.sum(axis=1) == 0, empty_strata(joint.p))
        )
        weight = float(table.sum()) / total
        weights.append(weight)
        aggregate += weight * ate
    estimates = EstimationResult(*(np.array(field) for field in zip(*members)))
    return StratifiedResult(strata, np.array(weights), estimates, aggregate)


def stratified_outcome(estimate, strata, counts, fallback):
    """Every value of a stratified result by ``repr``, or the error message it raised."""
    try:
        result = estimate(strata, counts, fallback)
    except DegenerateGroupError as exc:
        return str(exc)
    return (
        repr(result.aggregate),
        repr(result.strata.tolist()),
        repr(result.weights.tolist()),
        [repr(field.tolist()) for field in result.estimates],
    )


def assert_bitwise_stack(stacked, members, lead):
    """``stacked`` holds ``members`` (C order over ``lead``), field by field, bit for bit."""
    for name, field in zip(EstimationResult._fields, stacked):
        field = np.asarray(field)
        expected = np.array([getattr(r, name) for r in members])
        expected = expected.reshape(lead + expected.shape[1:])
        assert (field.shape, field.dtype) == (expected.shape, expected.dtype), name
        assert field.tobytes() == expected.tobytes(), name


@st.composite
def count_stacks(draw):
    """Leading dims (0 to 2 of them), k, and (..., 4) / (..., 4, k) count stacks.

    Empty groups are common in m; n has a positive total in every member,
    with some empty groups too.
    """
    lead = tuple(draw(st.lists(st.integers(1, 3), max_size=2)))
    k = draw(st.integers(2, 4))
    size = int(np.prod(lead, dtype=int))
    cells = st.lists(st.sampled_from((0, 0, 1, 3)), min_size=size * 4 * k, max_size=size * 4 * k)
    m = np.array(draw(cells), dtype=int).reshape(lead + (4, k))
    groups = st.lists(st.integers(0, 5), min_size=size * 4, max_size=size * 4)
    n = np.array(draw(groups), dtype=int).reshape(lead + (4,))
    n[..., 0] += n.sum(axis=-1) == 0
    return lead, n, m


@st.composite
def stratified_tables(draw):
    """Increasing strata and their (S, 4, k + 1) tables; some strata have every
    z hidden, many have empty groups, and every stratum has a record."""
    k = draw(st.integers(2, 4))
    strata = sorted(draw(st.lists(st.integers(0, 10**12), min_size=1, max_size=8, unique=True)))
    size = len(strata) * 4 * (k + 1)
    cells = st.lists(st.sampled_from((0, 0, 1, 3)), min_size=size, max_size=size)
    counts = np.array(draw(cells), dtype=int).reshape(-1, 4, k + 1)
    hidden = draw(st.lists(st.booleans(), min_size=len(strata), max_size=len(strata)))
    counts[np.array(hidden), :, 1:] = 0
    counts[counts.sum(axis=(1, 2)) == 0, 0, 0] = 1
    return np.array(strata), counts


class TestDeconfoundedOnly:
    def test_exact_proportions_recover_truth(self):
        a, q = example_instance()
        joint = joint_from_parts(a, q)
        cells = (joint.p * 1000).round().astype(int)  # all cells integral here
        result = estimate_deconfounded_only(cells)
        assert result.ate_hat == pytest.approx(ate_exact(joint), abs=EXACT)

    def test_single_record_one_hot_table(self):
        # the whole mass sits on (y=1, t=1, z=0): the t=1 conditional at z=0
        # is 1, the empty t=0 stratum contributes 0 by convention
        result = estimate_deconfounded_only([[0, 0], [0, 0], [0, 0], [1, 0]])
        assert result.ate_hat == pytest.approx(
            brute_force_ate([[0, 0], [0, 0], [0, 0], [1, 0]]), abs=EXACT
        )
        assert result.ate_hat == pytest.approx(1.0, abs=EXACT)
        assert result.degenerate_strata.tolist() == [[True, True], [False, True]]

    def test_monte_carlo_closeness(self):
        # 10,000 samples from the worked joint: |error| < 0.05 on at least
        # 99% of 200 seeds
        a, q = example_instance()
        joint = joint_from_parts(a, q)
        truth = ate_exact(joint)
        flat = joint.p.ravel()
        failures = 0
        for seed in range(200):
            rng = np.random.default_rng(seed)
            cells = rng.multinomial(10_000, flat).reshape(4, 2)
            result = estimate_deconfounded_only(cells)
            if abs(result.ate_hat - truth) >= 0.05:
                failures += 1
        assert failures <= 2

    def test_empty_input_rejected(self):
        with pytest.raises(ValidationError) as info:
            estimate_deconfounded_only(np.zeros((4, 2), dtype=int))
        assert str(info.value) == "need at least one deconfounded record"
        with pytest.raises(ValidationError) as info:  # one empty member of a stack
            estimate_deconfounded_only([[[1, 0]] * 4, [[0, 0]] * 4])
        assert str(info.value) == "need at least one deconfounded record"


class TestKnownConfounded:
    def test_exact_group_proportions(self):
        a, q = example_instance()
        # per-group record counts realizing q exactly (denominators of 10)
        cells = (q.q * 10).round().astype(int)
        result = estimate_with_known_confounded_counts(a, cells)
        assert result.ate_hat == pytest.approx(0.43349321266968324, abs=EXACT)

    def test_zero_mass_group_ignored(self):
        a = ConfoundedDistribution(np.array([0.5, 0.0, 0.2, 0.3]))
        cells = np.array([[3, 3], [0, 0], [2, 4], [1, 5]])
        result = estimate_with_known_confounded_counts(a, cells, fallback="error")
        assert result.degenerate_groups.tolist() == [False, True, False, False]  # no error
        expected = ate_exact(joint_from_parts(a, ConditionalTable(result.q_hat)))
        assert result.ate_hat == pytest.approx(expected, abs=EXACT)

    def test_identical_rows_collapse(self):
        a = ConfoundedDistribution(np.array([0.4, 0.1, 0.2, 0.3]))
        result = estimate_with_known_confounded_counts(a, [[4, 6]] * 4)
        naive = 0.3 / 0.4 - 0.2 / 0.6
        assert result.ate_hat == pytest.approx(naive, abs=EXACT)

    def test_empty_group_error_mode(self):
        a = ConfoundedDistribution(np.array([0.4, 0.1, 0.2, 0.3]))
        cells = np.array([[3, 3], [0, 0], [2, 4], [1, 5]])
        with pytest.raises(DegenerateGroupError):
            estimate_with_known_confounded_counts(a, cells, fallback="error")
        result = estimate_with_known_confounded_counts(a, cells, fallback="uniform")
        assert result.degenerate_groups.tolist() == [False, True, False, False]
        assert np.allclose(result.q_hat[1], 0.5, atol=EXACT)

    def test_batch_matches_scalar_estimates(self):
        a, q = example_instance()
        rng = np.random.default_rng(5)
        alloc = (3, 0, 5, 2)  # group (0,1) always takes the uniform row
        cells = np.stack(
            [np.stack([rng.multinomial(c, q.q[g]) for g, c in enumerate(alloc)])
             for _ in range(8)]
        )
        q_hat = q_hat_batch(cells, a.a)
        assert np.all(q_hat[:, 1] == 0.5)
        scalar = [estimate_with_known_confounded_counts(a, c) for c in cells]
        assert np.array_equal(q_hat, np.stack([r.q_hat for r in scalar]))
        values = ate_batch(a.a[:, None] * q_hat)
        assert values.tolist() == [r.ate_hat for r in scalar]

    def test_batch_error_fallback_raises_for_one_degenerate_member(self):
        a = ConfoundedDistribution(np.array([0.4, 0.1, 0.2, 0.3]))
        good = np.array([[3, 3], [1, 1], [2, 4], [1, 5]])
        bad = good.copy()
        bad[2] = 0
        q_hat_batch(np.stack([good, good]), a.a, fallback="error")
        with pytest.raises(DegenerateGroupError) as err:
            q_hat_batch(np.stack([good, bad, good]), a.a, fallback="error")
        assert err.value.groups == ((1, 0),)
        # per-member marginals: the empty group has zero mass where it is empty
        a_hat = np.stack([a.a, [0.5, 0.2, 0.0, 0.3]])
        q_hat = q_hat_batch(np.stack([good, bad]), a_hat, fallback="error")
        assert np.all(q_hat[1, 2] == 0.5)


class TestFinite:
    def test_exact_proportions_match_plugin_value(self):
        a, q = example_instance()
        n_counts = (a.a * 100).round().astype(int)
        cells = (q.q * 10).round().astype(int)
        result = estimate_finite_counts(n_counts, cells)
        assert result.ate_hat == pytest.approx(0.43349321266968324, abs=EXACT)

    def test_tiny_dataset_hand_oracle(self):
        cells = [[1, 0], [0, 1], [1, 0], [0, 1]]
        result = estimate_finite_counts([1, 1, 1, 1], cells)
        # a_hat uniform, q rows one-hot: joint table known in closed form
        table = [[0.25, 0.0], [0.0, 0.25], [0.25, 0.0], [0.0, 0.25]]
        assert result.ate_hat == pytest.approx(brute_force_ate(table), abs=EXACT)

    def test_full_reveal_equals_deconfounded_only(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            joint = random_instance(2, rng)
            cells = rng.multinomial(60, joint.p.ravel()).reshape(4, 2)
            finite = estimate_finite_counts(cells.sum(axis=1), cells)
            alone = estimate_deconfounded_only(cells)
            assert finite.ate_hat == pytest.approx(alone.ate_hat, abs=EXACT)

    def test_known_a_is_finite_with_exact_marginal(self):
        a, q = example_instance()
        cells = (q.q * 20).round().astype(int)
        n_counts = (a.a * 100).round().astype(int)
        finite = estimate_finite_counts(n_counts, cells)
        known = estimate_with_known_confounded_counts(a, cells)
        assert finite.ate_hat == pytest.approx(known.ate_hat, abs=EXACT)


class TestEquivariance:
    def test_z_relabeling_permutes_q_and_fixes_ate(self):
        rng = np.random.default_rng(7)
        joint = random_instance(3, rng)
        cells = rng.multinomial(500, joint.p.ravel()).reshape(4, 3)
        perm = np.array([2, 0, 1])
        relabeled = np.empty_like(cells)
        relabeled[:, perm] = cells  # z becomes perm[z]
        a = parts_from_joint(joint).a
        base = estimate_with_known_confounded_counts(a, cells)
        moved = estimate_with_known_confounded_counts(a, relabeled)
        assert moved.ate_hat == base.ate_hat  # bitwise: same sums, same order
        inverse = np.argsort(perm)
        assert np.array_equal(moved.q_hat[:, perm], base.q_hat) or np.array_equal(
            moved.q_hat, base.q_hat[:, inverse]
        )


class TestStratified:
    def test_single_stratum_reduces_to_finite(self):
        rng = np.random.default_rng(3)
        joint = random_instance(2, rng)
        cells = rng.multinomial(200, joint.p.ravel()).reshape(4, 2)
        result = estimate_stratified_ite([0], with_hidden(cells)[None])
        direct = estimate_finite_counts(cells.sum(axis=1), cells)
        assert result.aggregate == pytest.approx(direct.ate_hat, abs=EXACT)
        assert result.strata.tolist() == [0]
        assert result.weights.tolist() == [1.0]

    def test_hidden_records_count_only_toward_a(self):
        cells = np.array([[3, 1], [2, 2], [1, 3], [4, 0]])
        hidden = np.array([5, 0, 2, 1])
        result = estimate_stratified_ite([7], with_hidden(cells, hidden[:, None])[None])
        direct = estimate_finite_counts(cells.sum(axis=1) + hidden, cells)
        assert result.aggregate == direct.ate_hat
        assert result.estimates.a_hat[0].tobytes() == direct.a_hat.tobytes()

    def test_equal_strata_average(self):
        rng = np.random.default_rng(11)
        # 150 records in each stratum, so the empirical x-weights are 0.5 / 0.5
        counts = np.stack([
            with_hidden(rng.multinomial(150, random_instance(2, rng).p.ravel()).reshape(4, 2))
            for _ in range(2)
        ])
        result = estimate_stratified_ite([0, 1], counts)
        assert result.weights.tolist() == [0.5, 0.5]
        mean = 0.5 * (result.estimates.ate_hat[0] + result.estimates.ate_hat[1])
        assert result.aggregate == pytest.approx(mean, abs=EXACT)

    def test_exact_proportion_strata_match_weighted_truth(self):
        a, q = example_instance()
        joint1 = joint_from_parts(a, q)
        joint2 = joint_from_parts(a, binary_conditional((0.3, 0.9, 0.4, 0.2)))
        tables, truths, sizes = [], [], []
        for joint in (joint1, joint2):
            cells = (joint.p * 1000).round().astype(int)
            tables.append(with_hidden(cells))
            truths.append(ate_exact(joint))
            sizes.append(int(cells.sum()))
        result = estimate_stratified_ite([0, 1], np.stack(tables))
        total = sum(sizes)
        expected = sum(t * s / total for t, s in zip(truths, sizes))
        assert result.aggregate == pytest.approx(expected, abs=EXACT)

    @given(stratified_tables(), st.sampled_from(FALLBACKS))
    @settings(max_examples=300, deadline=None)
    def test_batched_matches_per_stratum_loop(self, data, fallback):
        strata, counts = data
        expected = stratified_outcome(ref_estimate_stratified_ite, strata, counts, fallback)
        assert stratified_outcome(estimate_stratified_ite, strata, counts, fallback) == expected

    def test_large_table_matches_per_stratum_loop(self):
        rng = np.random.default_rng(12)
        strata = np.arange(500) * 7
        counts = rng.multinomial(40, np.full(16, 1 / 16), size=500).reshape(500, 4, 4)
        counts[::5, :, 1:] = 0  # every fifth stratum has no revealed record
        counts[::5, :, 0] += 1
        expected = stratified_outcome(ref_estimate_stratified_ite, strata, counts, "uniform")
        assert stratified_outcome(estimate_stratified_ite, strata, counts, "uniform") == expected

    def test_error_names_first_degenerate_stratum_in_x_order(self):
        # x=5 lacks reveals in (y=1,t=0); x=2, first in x order, in (y=0,t=1)
        full = np.ones((4, 2), dtype=int)
        counts = np.stack([with_hidden(full) for _ in range(3)])
        counts[0, 1] = [2, 0, 0]  # x=2, group (0,1): both records hidden
        counts[1, 2] = [2, 0, 0]  # x=5, group (1,0)
        for estimate in (estimate_stratified_ite, ref_estimate_stratified_ite):
            with pytest.raises(DegenerateGroupError) as info:
                estimate([2, 5, 9], counts, "error")
            assert info.value.groups == ((0, 1),)
        result = estimate_stratified_ite([2, 5, 9], counts)
        assert result.strata.tolist() == [2, 5, 9]
        assert result.estimates.degenerate_groups.tolist() == [
            [False, True, False, False],
            [False, False, True, False],
            [False, False, False, False],
        ]

    @pytest.mark.parametrize(
        "strata, counts, message",
        [
            ([], np.zeros((0, 4, 3)), "stratified dataset is empty"),
            ([0, 1], np.ones((3, 4, 3)),
             "counts: expected shape (2, 4, k + 1) with k >= 2, got (3, 4, 3)"),
            ([0], np.ones((4, 3)), "counts: expected shape (1, 4, k + 1) with k >= 2, got (4, 3)"),
            ([0, 1], np.ones((2, 4, 2)),
             "counts: expected shape (2, 4, k + 1) with k >= 2, got (2, 4, 2)"),
            ([0, 1], np.ones((2, 3, 3)),
             "counts: expected shape (..., 4, k) with k >= 2, got (2, 3, 3)"),
            ([1, 0], np.ones((2, 4, 3)), "strata: expected strictly increasing integers"),
            ([1, 1], np.ones((2, 4, 3)), "strata: expected strictly increasing integers"),
            ([[0, 1]], np.ones((1, 2, 4, 3)), "strata: expected strictly increasing integers"),
            ([0.5, 1], np.ones((2, 4, 3)), "strata: entries must be integers"),
            ([False, True], np.ones((2, 4, 3)), "strata: entries must be integers"),
            ([0, 1], np.full((2, 4, 3), 0.5), "counts: entries must be integers"),
            ([0, 1], -np.ones((2, 4, 3)), "counts: entries must be non-negative"),
            ([0, 4], np.stack([np.ones((4, 3)), np.zeros((4, 3))]),
             "counts: stratum x=4 has no records"),
        ],
    )
    def test_messages(self, strata, counts, message):
        with pytest.raises(ValidationError) as info:
            estimate_stratified_ite(strata, counts)
        assert str(info.value) == message


class TestCountValidation:
    """The count estimators reject what no record set could count to."""

    @pytest.mark.parametrize(
        "m_counts, message",
        [
            ([[1, -2], [1, 1], [1, 1], [1, 1]], "m_counts: entries must be non-negative"),
            ([[1.5, 1], [1, 1], [1, 1], [1, 1]], "m_counts: entries must be integers"),
            ([[1], [1], [1], [1]], "m_counts: expected shape (4, k) with k >= 2, got (4, 1)"),
            ([1, 1, 1, 1], "m_counts: expected shape (4, k) with k >= 2, got (4,)"),
            ([[1, 1]] * 3, "m_counts: expected shape (4, k) with k >= 2, got (3, 2)"),
            (np.ones((4, 2), dtype=bool), "m_counts: entries must be integers"),
            ([[2**62, 2**62], [1, 1], [1, 1], [1, 1]],
             "m_counts: entries must sum to below 2**63, got 9223372036854775814"),
            ([[[1, 1]] * 4, [[2**62, 0], [2**62, 0], [0, 0], [0, 0]]],
             "m_counts: entries must sum to below 2**63, got 9223372036854775808"),
        ],
    )
    def test_bad_m_counts_rejected(self, m_counts, message):
        a = ConfoundedDistribution(np.full(4, 0.25))
        with pytest.raises(ValidationError) as info:
            estimate_with_known_confounded_counts(a, m_counts)
        assert str(info.value) == message
        with pytest.raises(ValidationError) as info:
            estimate_finite_counts(np.ones(np.shape(m_counts)[:-1], dtype=int), m_counts)
        assert str(info.value) == message
        with pytest.raises(ValidationError) as info:
            estimate_deconfounded_only(m_counts)
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "n_counts, message",
        [
            ([1.5, 1, 1, 1], "n_counts: entries must be integers"),
            ([1, -1, 1, 1], "n_counts: entries must be non-negative"),
            ([1, 1, 1], "n_counts: expected shape (4,), got (3,)"),
            ([[1, 1, 1, 1]], "n_counts: expected shape (4,), got (1, 4)"),
            ([0, 0, 0, 0], "a: cannot normalize all-zero counts"),
            ([True, True, False, True], "n_counts: entries must be integers"),
            ([2**62] * 4, "n_counts: entries must sum to below 2**63, got 18446744073709551616"),
            ([2**62, 2**62, 2**62, 1],
             "n_counts: entries must sum to below 2**63, got 13835058055282163713"),
        ],
    )
    def test_bad_n_counts_rejected(self, n_counts, message):
        with pytest.raises(ValidationError) as info:
            estimate_finite_counts(n_counts, [[1, 1]] * 4)
        assert str(info.value) == message

    def test_totals_just_below_2_63_accepted(self):
        n = estimate_finite_counts([2**62, 2**62 - 1, 0, 0], [[1, 1]] * 4)
        assert n.a_hat.tolist() == [0.5, 0.5, 0.0, 0.0]
        a = ConfoundedDistribution(np.full(4, 0.25))
        m = estimate_with_known_confounded_counts(a, [[2**62, 2**62 - 7], [1, 1], [1, 1], [1, 1]])
        assert m.q_hat[0].tolist() == [0.5, 0.5]
        assert m.degenerate_groups.tolist() == [False] * 4

    def test_integral_float_counts_accepted(self):
        cells = [[3, 1], [0, 0], [4, 4], [1, 0]]
        as_int = estimate_finite_counts([5, 2, 3, 1], cells)
        as_float = estimate_finite_counts(np.array([5.0, 2, 3, 1]), np.array(cells, dtype=float))
        assert as_float.ate_hat == as_int.ate_hat
        for result in (as_int, as_float):
            assert result.degenerate_groups.tolist() == [False, True, False, False]

    def test_caller_arrays_stay_writeable(self):
        n, m = np.array([2, 1, 1, 3]), np.array([[1, 1], [0, 1], [1, 0], [2, 1]])
        strata, counts = np.array([0, 3]), np.stack([with_hidden(m), with_hidden(m, 1)])
        before = [arr.copy() for arr in (n, m, strata, counts)]
        estimate_finite_counts(n, m)
        estimate_deconfounded_only(m)
        estimate_stratified_ite(strata, counts)
        for arr, old in zip((n, m, strata, counts), before):
            assert arr.flags.writeable and np.array_equal(arr, old)


MARGINALS = (
    ConfoundedDistribution(np.full(4, 0.25)),
    ConfoundedDistribution(np.array([0.5, 0.0, 0.2, 0.3])),
    ConfoundedDistribution(np.array([0.4, 0.1, 0.2, 0.3])),
)


def stack_estimators(n, m, a):
    """(name, estimator of a stack or of one table) for both count estimators."""
    return (
        ("finite", lambda idx, fallback: estimate_finite_counts(n[idx], m[idx], fallback)),
        ("known-a", lambda idx, fallback: estimate_with_known_confounded_counts(a, m[idx], fallback)),
    )


class TestStacks:
    """A ``(..., 4, k)`` stack is estimated as its members are, one table at a time."""

    @given(count_stacks(), st.sampled_from(MARGINALS), st.sampled_from(FALLBACKS))
    @settings(max_examples=300, deadline=None)
    def test_stack_equals_per_table_calls(self, data, a, fallback):
        lead, n, m = data
        for name, estimate in stack_estimators(n, m, a):
            members, first_error = [], None
            for idx in np.ndindex(lead):
                try:
                    members.append(estimate(idx, fallback))
                except DegenerateGroupError as exc:
                    first_error = first_error or exc.groups
            if first_error is not None:
                with pytest.raises(DegenerateGroupError) as info:
                    estimate(..., fallback)
                assert info.value.groups == first_error, name
            else:
                assert_bitwise_stack(estimate(..., fallback), members, lead)

    def test_error_names_first_degenerate_member_in_c_order(self):
        good = [[3, 3], [1, 1], [2, 4], [1, 5]]
        m = np.array([good] * 6).reshape(2, 3, 4, 2)
        m[1, 0, 2] = 0  # group (1,0) empty in member (1, 0)
        m[0, 2, 1] = 0  # group (0,1) empty in member (0, 2), first in C order
        n = np.ones((2, 3, 4), dtype=int)
        for name, estimate in stack_estimators(n, m, MARGINALS[2]):
            with pytest.raises(DegenerateGroupError) as info:
                estimate(..., "error")
            assert info.value.groups == ((0, 1),), name

    @given(count_stacks())
    @settings(max_examples=100, deadline=None)
    def test_deconfounded_only_stack_equals_per_table_calls(self, data):
        lead, _, m = data
        m[..., 0, 0] += m.sum(axis=(-2, -1)) == 0  # every member has a record
        members = [estimate_deconfounded_only(m[idx]) for idx in np.ndindex(lead)]
        assert_bitwise_stack(estimate_deconfounded_only(m), members, lead)

    @pytest.mark.parametrize("fallback", FALLBACKS)
    def test_empty_stack_returns_empty_arrays(self, fallback):
        n, m = np.zeros((0, 4), dtype=int), np.zeros((0, 4, 3), dtype=int)
        for name, estimate in stack_estimators(n, m, MARGINALS[0]):
            result = estimate(..., fallback)
            shapes = [np.shape(field) for field in result]
            assert shapes == [(0,), (0, 4), (0, 4, 3), (0, 4), (0, 2, 3)], name

    @pytest.mark.parametrize(
        "n_counts, m_counts, message",
        [
            (np.ones((3, 4)), np.ones((2, 4, 2)), "n_counts: expected shape (2, 4), got (3, 4)"),
            (np.ones(4), np.ones((2, 4, 2)), "n_counts: expected shape (2, 4), got (4,)"),
            (np.ones((2, 4)), np.ones((2, 3, 2)),
             "m_counts: expected shape (..., 4, k) with k >= 2, got (2, 3, 2)"),
            (np.ones((2, 4)), np.ones((2, 4, 1)),
             "m_counts: expected shape (..., 4, k) with k >= 2, got (2, 4, 1)"),
            ([[1, 1, 1, 1], [0, 0, 0, 0]], np.ones((2, 4, 2)), "a: cannot normalize all-zero counts"),
            ([[1, 1, 1, 1], [0, -1, 1, 1]], np.ones((2, 4, 2)), "n_counts: entries must be non-negative"),
        ],
    )
    def test_stack_messages(self, n_counts, m_counts, message):
        with pytest.raises(ValidationError) as info:
            estimate_finite_counts(n_counts, m_counts)
        assert str(info.value) == message


def q_hat_reference(counts, a, fallback):
    """``q_hat_batch`` as first written: a float copy, ``ndarray.sum`` and ``np.full``."""
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


def q_hat_outcome(counts, a, fallback):
    """``(dtype, shape, bytes)`` of ``q_hat_batch``'s result, or the groups it raised with."""
    try:
        q_hat = q_hat_batch(counts, a, fallback)
    except DegenerateGroupError as exc:
        return exc.groups
    return q_hat.dtype, q_hat.shape, q_hat.tobytes()


class TestKernel:
    @given(count_stacks(), st.sampled_from(FALLBACKS),
           st.floats(0.01, 100.0, allow_nan=False, allow_infinity=False))
    @settings(max_examples=300, deadline=None)
    def test_bitwise_equal_to_reference(self, data, fallback, scale):
        # a_hat = n / n.sum() is zero where n is empty, so under "error" some
        # members raise and others pass an empty group through
        _, n, m = data
        a_hat = n / n.sum(axis=-1, keepdims=True)
        float_counts = m.astype(float)
        outcomes = []
        for counts in (m, float_counts, float_counts * scale):
            try:
                ref = q_hat_reference(counts, a_hat, fallback)
            except DegenerateGroupError as exc:
                expected = exc.groups
            else:
                expected = ref.dtype, ref.shape, ref.tobytes()
            outcomes.append(q_hat_outcome(counts, a_hat, fallback))
            assert outcomes[-1] == expected
            # the same values as a non-contiguous view, a step of 2 along z
            strided = np.repeat(counts, 2, axis=-1)[..., ::2]
            assert q_hat_outcome(strided, a_hat, fallback) == expected
        assert outcomes[0] == outcomes[1]

    def test_float_stack_is_not_modified(self):
        counts = np.array([[[2.0, 2.0], [0.0, 0.0], [1.0, 3.0], [4.0, 0.0]]] * 2)
        before = counts.copy()
        q_hat = q_hat_batch(counts, np.full(4, 0.25))
        assert not np.shares_memory(q_hat, counts)
        assert np.array_equal(counts, before)
        assert q_hat[0].tolist() == [[0.5, 0.5], [0.5, 0.5], [0.25, 0.75], [1.0, 0.0]]


class TestConsistency:
    def test_error_shrinks_as_m_doubles(self):
        # 20 fixed instances x 200 replications; mean |error| must not
        # increase (beyond one standard error of the difference) as the
        # deconfounding budget doubles, under every policy
        reps = 200
        grid = (100, 200, 400, 800)
        for idx in range(20):
            joint = random_instance(2, 1000 + idx)
            parts = parts_from_joint(joint)
            truth = ate_exact(joint)
            for pol_id, pol in enumerate(("nsp", "usp", "owsp")):
                errors = {}
                for m in grid:
                    alloc = allocate_infinite(pol, parts.a, m)
                    rng = np.random.default_rng((idx, pol_id, m))
                    # the same draws as one multinomial per (replication, group)
                    cells = rng.multinomial(alloc, parts.q.q, size=(reps, 4))
                    est = estimate_with_known_confounded_counts(parts.a, cells)
                    errors[m] = np.abs(est.ate_hat - truth)
                for lo, hi in zip(grid, grid[1:]):
                    mean_lo, mean_hi = errors[lo].mean(), errors[hi].mean()
                    se = np.sqrt(
                        errors[lo].var(ddof=1) / reps + errors[hi].var(ddof=1) / reps
                    )
                    assert mean_hi <= mean_lo + se, (idx, pol, lo, hi)
