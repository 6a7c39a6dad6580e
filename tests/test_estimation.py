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
    estimate_finite,
    estimate_stratified_ite,
    estimate_with_known_confounded,
    joint_from_parts,
    parts_from_joint,
    random_instance,
)
from deconf.estimation import (
    FALLBACKS,
    StratifiedResult,
    deconfounded_counts,
    estimate_finite_counts,
    estimate_with_known_confounded_counts,
    q_hat_batch,
)
from deconf.model import ate_batch, empty_strata
from test_model import brute_force_ate, example_instance

EXACT = 1e-12


def records_from_cells(cells):
    """Expand a 4 x k integer cell table into explicit (y, t, z) rows."""
    rows = []
    for g, (y, t) in enumerate(GROUPS):
        for z, count in enumerate(cells[g]):
            rows.extend([(y, t, z)] * int(count))
    return np.array(rows)


def ref_estimate_stratified_ite(x, y, t, z, k, fallback="uniform"):
    """The per-stratum loop the batched stratified estimator replaced.

    One scalar finite estimate per x value in sorted order, each computed
    through the validated model objects, weighted by the stratum's share;
    the per-stratum values are stacked into one result at the end.
    """
    x, y, t, z = (np.asarray(col) for col in (x, y, t, z))
    strata, weights, members, aggregate = [], [], [], 0.0
    for xv in np.unique(x):
        mask = x == xv
        rev = mask & (z >= 0)
        n_counts = np.bincount(2 * y[mask] + t[mask], minlength=4).astype(float)
        flat = (2 * y[rev] + t[rev]) * k + z[rev]
        m_counts = np.bincount(flat, minlength=4 * k).reshape(4, k).astype(float)
        a_hat = ConfoundedDistribution(n_counts / n_counts.sum())
        q_hat = ConditionalTable(q_hat_batch(m_counts, a_hat.a, fallback))
        joint = joint_from_parts(a_hat, q_hat)
        ate = ate_exact(joint)
        members.append(
            (ate, a_hat.a, q_hat.q, m_counts.sum(axis=1) == 0, empty_strata(joint.p))
        )
        weight = float(mask.sum()) / x.shape[0]
        strata.append(int(xv))
        weights.append(weight)
        aggregate += weight * ate
    estimates = EstimationResult(*(np.array(field) for field in zip(*members)))
    return StratifiedResult(np.array(strata), np.array(weights), estimates, aggregate)


def stratified_outcome(estimate, cols, k, fallback):
    """Every value of a stratified result by ``repr``, or the error message it raised."""
    try:
        result = estimate(*cols, k, fallback)
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
def stratified_columns(draw):
    """x, y, t, z columns and k; some strata have every z hidden, many have empty groups."""
    k = draw(st.integers(2, 4))
    strata = draw(st.lists(st.integers(0, 10**12), min_size=1, max_size=8, unique=True))
    hidden = draw(st.sets(st.sampled_from(strata)))
    rows = draw(st.lists(
        st.tuples(st.sampled_from(strata), st.integers(0, 1), st.integers(0, 1),
                  st.integers(-1, k - 1)),
        min_size=1, max_size=80,
    ))
    rows = [(x, y, t, -1 if x in hidden else z) for x, y, t, z in rows]
    return [np.array(col) for col in zip(*rows)], k


class TestDeconfoundedOnly:
    def test_exact_proportions_recover_truth(self):
        a, q = example_instance()
        joint = joint_from_parts(a, q)
        cells = (joint.p * 1000).round().astype(int)  # all cells integral here
        result = estimate_deconfounded_only(records_from_cells(cells), k=2)
        assert result.ate_hat == pytest.approx(ate_exact(joint), abs=EXACT)

    def test_single_record_one_hot_table(self):
        # the whole mass sits on (y=1, t=1, z=0): the t=1 conditional at z=0
        # is 1, the empty t=0 stratum contributes 0 by convention
        result = estimate_deconfounded_only(np.array([[1, 1, 0]]), k=2)
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
            result = estimate_deconfounded_only(records_from_cells(cells), k=2)
            if abs(result.ate_hat - truth) >= 0.05:
                failures += 1
        assert failures <= 2

    def test_empty_input_rejected(self):
        with pytest.raises(ValidationError):
            estimate_deconfounded_only(np.empty((0, 3), dtype=int), k=2)


class TestKnownConfounded:
    def test_exact_group_proportions(self):
        a, q = example_instance()
        # per-group record counts realizing q exactly (denominators of 10)
        cells = (q.q * 10).round().astype(int)
        result = estimate_with_known_confounded(a, records_from_cells(cells), k=2)
        assert result.ate_hat == pytest.approx(0.43349321266968324, abs=EXACT)

    def test_zero_mass_group_ignored(self):
        a = ConfoundedDistribution(np.array([0.5, 0.0, 0.2, 0.3]))
        cells = np.array([[3, 3], [0, 0], [2, 4], [1, 5]])
        result = estimate_with_known_confounded(
            a, records_from_cells(cells), k=2, fallback="error"
        )
        assert result.degenerate_groups.tolist() == [False, True, False, False]  # no error
        expected = ate_exact(joint_from_parts(a, ConditionalTable(result.q_hat)))
        assert result.ate_hat == pytest.approx(expected, abs=EXACT)

    def test_identical_rows_collapse(self):
        a = ConfoundedDistribution(np.array([0.4, 0.1, 0.2, 0.3]))
        cells = np.array([[4, 6]] * 4)
        result = estimate_with_known_confounded(a, records_from_cells(cells), k=2)
        naive = 0.3 / 0.4 - 0.2 / 0.6
        assert result.ate_hat == pytest.approx(naive, abs=EXACT)

    def test_empty_group_error_mode(self):
        a = ConfoundedDistribution(np.array([0.4, 0.1, 0.2, 0.3]))
        cells = np.array([[3, 3], [0, 0], [2, 4], [1, 5]])
        with pytest.raises(DegenerateGroupError):
            estimate_with_known_confounded(
                a, records_from_cells(cells), k=2, fallback="error"
            )
        result = estimate_with_known_confounded(
            a, records_from_cells(cells), k=2, fallback="uniform"
        )
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
        conf = np.repeat(
            [[y, t] for (y, t) in GROUPS], (a.a * 100).round().astype(int), axis=0
        )
        dec = records_from_cells((q.q * 10).round().astype(int))
        result = estimate_finite(conf, dec, 2)
        assert result.ate_hat == pytest.approx(0.43349321266968324, abs=EXACT)

    def test_tiny_dataset_hand_oracle(self):
        conf = np.array([[0, 0], [0, 1], [1, 0], [1, 1]])
        dec = np.array([[0, 0, 0], [0, 1, 1], [1, 0, 0], [1, 1, 1]])
        result = estimate_finite(conf, dec, 2)
        # a_hat uniform, q rows one-hot: joint table known in closed form
        table = [[0.25, 0.0], [0.0, 0.25], [0.25, 0.0], [0.0, 0.25]]
        assert result.ate_hat == pytest.approx(brute_force_ate(table), abs=EXACT)

    def test_full_reveal_equals_deconfounded_only(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            joint = random_instance(2, rng)
            cells = rng.multinomial(60, joint.p.ravel()).reshape(4, 2)
            dec = records_from_cells(cells)
            conf = dec[:, :2]
            finite = estimate_finite(conf, dec, 2)
            alone = estimate_deconfounded_only(dec, 2)
            assert finite.ate_hat == pytest.approx(alone.ate_hat, abs=EXACT)

    def test_known_a_is_finite_with_exact_marginal(self):
        a, q = example_instance()
        cells = (q.q * 20).round().astype(int)
        n_counts = (a.a * 100).round().astype(int)
        finite = estimate_finite_counts(n_counts, cells)
        known = estimate_with_known_confounded_counts(a, cells)
        assert finite.ate_hat == pytest.approx(known.ate_hat, abs=EXACT)

    def test_empty_confounded_rejected(self):
        with pytest.raises(ValidationError):
            estimate_finite(np.empty((0, 2), dtype=int), np.array([[0, 0, 0]]), 2)


class TestRecordValidation:
    def test_non_integral_records_rejected(self):
        a = ConfoundedDistribution(np.full(4, 0.25))
        with pytest.raises(ValidationError, match="integers"):
            estimate_with_known_confounded(a, [[0.7, 1, 0], [1, 1, 1]], 2)
        with pytest.raises(ValidationError, match="integers"):
            estimate_finite([[0, 1.5]], [[0, 1, 0]], 2)

    def test_integral_float_records_accepted(self):
        a = ConfoundedDistribution(np.full(4, 0.25))
        as_float = estimate_with_known_confounded(a, [[0.0, 1.0, 0.0], [1, 1, 1]], 2)
        as_int = estimate_with_known_confounded(a, [[0, 1, 0], [1, 1, 1]], 2)
        assert as_float.ate_hat == as_int.ate_hat

    def test_non_integral_stratified_columns_rejected(self):
        with pytest.raises(ValidationError, match="x: entries must be integers"):
            estimate_stratified_ite([0.5, 1], [0, 1], [1, 0], [0, -1], 2)
        with pytest.raises(ValidationError, match="z: entries must be integers"):
            estimate_stratified_ite([0, 1], [0, 1], [1, 0], [0.2, -1], 2)

    def test_caller_arrays_stay_writeable(self):
        conf = np.array([[0, 1], [1, 0]])
        dec = np.array([[0, 1, 1]])
        estimate_finite(conf, dec, 2)
        assert conf.flags.writeable and dec.flags.writeable
        assert conf.tolist() == [[0, 1], [1, 0]] and dec.tolist() == [[0, 1, 1]]
        cols = [np.array([0, 1]), np.array([0, 1]), np.array([1, 0]), np.array([0, -1])]
        estimate_stratified_ite(*cols, 2)
        assert all(col.flags.writeable for col in cols)
        assert [col.tolist() for col in cols] == [[0, 1], [0, 1], [1, 0], [0, -1]]

    @pytest.mark.parametrize("confounded, deconfounded, message", [
        ([[0, 1]], [0, 1, 0], "deconfounded records: expected rows of 3 integers"),
        ([[0, 1]], [[0, 1]], "deconfounded records: expected rows of 3 integers"),
        ([[0, 1]], [[[0, 1, 0]]], "deconfounded records: expected rows of 3 integers"),
        ([[0, 1, 0]], [[0, 1, 0]], "confounded records: expected rows of 2 integers"),
    ])
    def test_records_not_in_rows_rejected(self, confounded, deconfounded, message):
        with pytest.raises(ValidationError) as info:
            estimate_finite(confounded, deconfounded, 2)
        assert str(info.value) == message

    @pytest.mark.parametrize("z", [-1, 2, 5])
    def test_z_outside_k_rejected(self, z):
        with pytest.raises(ValidationError) as info:
            deconfounded_counts([[0, 1, 0], [1, 1, z]], 2)
        assert str(info.value) == "z values must lie in [0, 2)"

    @pytest.mark.parametrize("k", [2.5, True, "2", 1])
    def test_bad_k_rejected(self, k):
        with pytest.raises(ValidationError, match="k must be"):
            estimate_finite([[0, 1]], [[0, 1, 0]], k)
        with pytest.raises(ValidationError, match="k must be"):
            estimate_stratified_ite([0], [0], [1], [0], k)

    def test_numpy_k_accepted(self):
        assert deconfounded_counts([[0, 1, 0]], np.int64(3)).shape == (4, 3)
        assert estimate_finite([[0, 1]], [[0, 1, 0]], np.int64(3)).q_hat.shape == (4, 3)
        result = estimate_stratified_ite([0], [0], [1], [2], np.int64(3))
        assert result.estimates.q_hat.shape == (1, 4, 3)

    @pytest.mark.parametrize("value", [-1, 2, 7])
    def test_bit_columns_name_y_or_t(self, value):
        for col, name in ((0, "y"), (1, "t")):
            conf, dec = [[0, 1], [1, 0]], [[0, 1, 0], [1, 1, 1]]
            conf[1][col] = dec[1][col] = value
            with pytest.raises(ValidationError) as info:
                estimate_finite(conf, [[0, 1, 0]], 2)
            assert str(info.value) == f"{name} values must be 0 or 1"
            with pytest.raises(ValidationError) as info:
                estimate_finite([[0, 1]], dec, 2)
            assert str(info.value) == f"{name} values must be 0 or 1"
            cols = [[0, 1], [0, 1], [1, 0], [0, -1]]
            cols[1 + col][1] = value
            with pytest.raises(ValidationError) as info:
                estimate_stratified_ite(*cols, 2)
            assert str(info.value) == f"{name} values must be 0 or 1"


class TestEquivariance:
    def test_z_relabeling_permutes_q_and_fixes_ate(self):
        rng = np.random.default_rng(7)
        joint = random_instance(3, rng)
        cells = rng.multinomial(500, joint.p.ravel()).reshape(4, 3)
        records = records_from_cells(cells)
        perm = np.array([2, 0, 1])
        relabeled = records.copy()
        relabeled[:, 2] = perm[records[:, 2]]
        a = parts_from_joint(joint).a
        base = estimate_with_known_confounded(a, records, k=3)
        moved = estimate_with_known_confounded(a, relabeled, k=3)
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
        dec = records_from_cells(cells)
        result = estimate_stratified_ite(
            np.zeros(len(dec), dtype=int), dec[:, 0], dec[:, 1], dec[:, 2], 2
        )
        direct = estimate_finite(dec[:, :2], dec, 2)
        assert result.aggregate == pytest.approx(direct.ate_hat, abs=EXACT)
        assert result.strata.tolist() == [0]
        assert result.weights.tolist() == [1.0]

    def test_equal_strata_average(self):
        rng = np.random.default_rng(11)
        parts = []
        for _ in range(2):
            joint = random_instance(2, rng)
            cells = rng.multinomial(150, joint.p.ravel()).reshape(4, 2)
            parts.append(records_from_cells(cells))
        # pad to identical sizes so the empirical x-weights are 0.5 / 0.5
        size = min(len(p) for p in parts)
        parts = [p[:size] for p in parts]
        x = np.concatenate([np.full(size, 0), np.full(size, 1)])
        rows = np.vstack(parts)
        result = estimate_stratified_ite(x, rows[:, 0], rows[:, 1], rows[:, 2], 2)
        mean = 0.5 * (result.estimates.ate_hat[0] + result.estimates.ate_hat[1])
        assert result.aggregate == pytest.approx(mean, abs=EXACT)

    def test_exact_proportion_strata_match_weighted_truth(self):
        a, q = example_instance()
        joint1 = joint_from_parts(a, q)
        joint2 = joint_from_parts(a, binary_conditional((0.3, 0.9, 0.4, 0.2)))
        blocks = []
        truths = []
        sizes = []
        for joint in (joint1, joint2):
            cells = (joint.p * 1000).round().astype(int)
            blocks.append(records_from_cells(cells))
            truths.append(ate_exact(joint))
            sizes.append(int(cells.sum()))
        x = np.concatenate([np.full(sizes[0], 0), np.full(sizes[1], 1)])
        rows = np.vstack(blocks)
        result = estimate_stratified_ite(x, rows[:, 0], rows[:, 1], rows[:, 2], 2)
        total = sum(sizes)
        expected = sum(t * s / total for t, s in zip(truths, sizes))
        assert result.aggregate == pytest.approx(expected, abs=EXACT)


    @given(stratified_columns(), st.sampled_from(FALLBACKS))
    @settings(max_examples=300, deadline=None)
    def test_batched_matches_per_stratum_loop(self, data, fallback):
        cols, k = data
        expected = stratified_outcome(ref_estimate_stratified_ite, cols, k, fallback)
        assert stratified_outcome(estimate_stratified_ite, cols, k, fallback) == expected

    def test_large_table_matches_per_stratum_loop(self):
        rng = np.random.default_rng(12)
        rows = 20_000
        x = rng.integers(0, 500, rows) * 7
        cols = [x, rng.integers(0, 2, rows), rng.integers(0, 2, rows), rng.integers(-1, 3, rows)]
        cols[3][x % 5 == 0] = -1  # every fifth stratum has no revealed record
        expected = stratified_outcome(ref_estimate_stratified_ite, cols, 3, "uniform")
        assert stratified_outcome(estimate_stratified_ite, cols, 3, "uniform") == expected

    def test_error_names_first_degenerate_stratum_in_x_order(self):
        # x=5 lacks reveals in (y=1,t=0); x=2, first in sorted order, in (y=0,t=1)
        full = [(y, t, z) for y in (0, 1) for t in (0, 1) for z in (0, 1)]
        rows = [(5, y, t, -1 if (y, t) == (1, 0) else z) for y, t, z in full]
        rows += [(2, y, t, -1 if (y, t) == (0, 1) else z) for y, t, z in full]
        rows += [(9, y, t, z) for y, t, z in full]
        cols = [np.array(col) for col in zip(*rows)]
        for estimate in (estimate_stratified_ite, ref_estimate_stratified_ite):
            with pytest.raises(DegenerateGroupError) as info:
                estimate(*cols, 2, "error")
            assert info.value.groups == ((0, 1),)
        result = estimate_stratified_ite(*cols, 2)
        assert result.strata.tolist() == [2, 5, 9]
        assert result.estimates.degenerate_groups.tolist() == [
            [False, True, False, False],
            [False, False, True, False],
            [False, False, False, False],
        ]

    @pytest.mark.parametrize(
        "cols, message",
        [
            (([], [], [], []), "stratified dataset is empty"),
            (([0, -1], [0, 1], [1, 0], [0, -1]), "x values must be >= 0"),
            (([0, 1], [0, 1], [1, 0], [0, 2]), "z values must be -1 (hidden) or in [0, 2)"),
            (([0, 1], [0, 1], [1, 0], [0, -2]), "z values must be -1 (hidden) or in [0, 2)"),
            (([0, 1], [0, 1], [1, 0], [0]), "stratified columns must share one length"),
        ],
    )
    def test_column_messages(self, cols, message):
        with pytest.raises(ValidationError) as info:
            estimate_stratified_ite(*cols, 2)
        assert str(info.value) == message


class TestCountValidation:
    """The ``*_counts`` estimators reject what no record set could count to."""

    @pytest.mark.parametrize(
        "m_counts, message",
        [
            ([[1, -2], [1, 1], [1, 1], [1, 1]], "m_counts: entries must be non-negative"),
            ([[1.5, 1], [1, 1], [1, 1], [1, 1]], "m_counts: entries must be integers"),
            ([[1], [1], [1], [1]], "m_counts: expected shape (4, k) with k >= 2, got (4, 1)"),
            ([1, 1, 1, 1], "m_counts: expected shape (4, k) with k >= 2, got (4,)"),
            ([[1, 1]] * 3, "m_counts: expected shape (4, k) with k >= 2, got (3, 2)"),
        ],
    )
    def test_bad_m_counts_rejected(self, m_counts, message):
        a = ConfoundedDistribution(np.full(4, 0.25))
        with pytest.raises(ValidationError) as info:
            estimate_with_known_confounded_counts(a, m_counts)
        assert str(info.value) == message
        with pytest.raises(ValidationError) as info:
            estimate_finite_counts([1, 1, 1, 1], m_counts)
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "n_counts, message",
        [
            ([1.5, 1, 1, 1], "n_counts: entries must be integers"),
            ([1, -1, 1, 1], "n_counts: entries must be non-negative"),
            ([1, 1, 1], "n_counts: expected shape (4,), got (3,)"),
            ([[1, 1, 1, 1]], "n_counts: expected shape (4,), got (1, 4)"),
            ([0, 0, 0, 0], "a: cannot normalize all-zero counts"),
        ],
    )
    def test_bad_n_counts_rejected(self, n_counts, message):
        with pytest.raises(ValidationError) as info:
            estimate_finite_counts(n_counts, [[1, 1]] * 4)
        assert str(info.value) == message

    def test_integral_float_counts_accepted(self):
        cells = [[3, 1], [0, 0], [4, 4], [1, 0]]
        as_int = estimate_finite_counts([5, 2, 3, 1], cells)
        as_float = estimate_finite_counts(np.array([5.0, 2, 3, 1]), np.array(cells, dtype=float))
        assert as_float.ate_hat == as_int.ate_hat
        for result in (as_int, as_float):
            assert result.degenerate_groups.tolist() == [False, True, False, False]


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
