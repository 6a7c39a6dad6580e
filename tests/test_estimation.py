"""Plug-in estimators: exactness on proportional data, degeneracy handling,
equivariance, and statistical consistency."""

import numpy as np
import pytest

from deconf import (
    ConfoundedDistribution,
    Dataset,
    DegenerateGroupError,
    GROUPS,
    StratifiedDataset,
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
    estimate_finite_counts,
    estimate_with_known_confounded_counts,
    q_hat_batch,
)
from deconf.model import ate_batch
from test_model import brute_force_ate, example_instance

EXACT = 1e-12


def records_from_cells(cells):
    """Expand a 4 x k integer cell table into explicit (y, t, z) rows."""
    rows = []
    for g, (y, t) in enumerate(GROUPS):
        for z, count in enumerate(cells[g]):
            rows.extend([(y, t, z)] * int(count))
    return np.array(rows)


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
        assert (0, 0) in result.degenerate_strata

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
        assert (0, 1) in result.degenerate_groups  # flagged, but no error
        expected = ate_exact(joint_from_parts(a, result.q_hat))
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
        assert result.degenerate_groups == {(0, 1)}
        assert np.allclose(result.q_hat.q[1], 0.5, atol=EXACT)

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
        assert np.array_equal(q_hat, np.stack([r.q_hat.q for r in scalar]))
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
        result = estimate_finite(Dataset(conf, dec, 2))
        assert result.ate_hat == pytest.approx(0.43349321266968324, abs=EXACT)

    def test_tiny_dataset_hand_oracle(self):
        conf = np.array([[0, 0], [0, 1], [1, 0], [1, 1]])
        dec = np.array([[0, 0, 0], [0, 1, 1], [1, 0, 0], [1, 1, 1]])
        result = estimate_finite(Dataset(conf, dec, 2))
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
            finite = estimate_finite(Dataset(conf, dec, 2))
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
            estimate_finite(
                Dataset(np.empty((0, 2), dtype=int), np.array([[0, 0, 0]]), 2)
            )


class TestRecordValidation:
    def test_non_integral_records_rejected(self):
        a = ConfoundedDistribution(np.full(4, 0.25))
        with pytest.raises(ValidationError, match="integers"):
            estimate_with_known_confounded(a, [[0.7, 1, 0], [1, 1, 1]], 2)
        with pytest.raises(ValidationError, match="integers"):
            Dataset([[0, 1.5]], [[0, 1, 0]], 2)

    def test_integral_float_records_accepted(self):
        a = ConfoundedDistribution(np.full(4, 0.25))
        as_float = estimate_with_known_confounded(a, [[0.0, 1.0, 0.0], [1, 1, 1]], 2)
        as_int = estimate_with_known_confounded(a, [[0, 1, 0], [1, 1, 1]], 2)
        assert as_float.ate_hat == as_int.ate_hat

    def test_non_integral_stratified_columns_rejected(self):
        with pytest.raises(ValidationError, match="x: entries must be integers"):
            StratifiedDataset([0.5, 1], [0, 1], [1, 0], [0, -1], 2)
        with pytest.raises(ValidationError, match="z: entries must be integers"):
            StratifiedDataset([0, 1], [0, 1], [1, 0], [0.2, -1], 2)

    def test_caller_arrays_stay_writeable(self):
        conf = np.array([[0, 1], [1, 0]])
        dec = np.array([[0, 1, 1]])
        data = Dataset(conf, dec, 2)
        assert conf.flags.writeable and dec.flags.writeable
        assert not data.confounded.flags.writeable
        conf[0, 0] = 1
        assert data.confounded.tolist() == [[0, 1], [1, 0]]
        cols = [np.array([0, 1]), np.array([0, 1]), np.array([1, 0]), np.array([0, -1])]
        strat = StratifiedDataset(*cols, 2)
        assert all(col.flags.writeable for col in cols)
        assert not strat.x.flags.writeable

    @pytest.mark.parametrize("k", [2.5, True, "2", 1])
    def test_bad_k_rejected(self, k):
        with pytest.raises(ValidationError, match="k must be"):
            Dataset([[0, 1]], [[0, 1, 0]], k)
        with pytest.raises(ValidationError, match="k must be"):
            StratifiedDataset([0], [0], [1], [0], k)

    def test_numpy_k_stored_as_int(self):
        data = Dataset([[0, 1]], [[0, 1, 0]], np.int64(3))
        assert type(data.k) is int and data.m_counts().shape == (4, 3)

    @pytest.mark.parametrize("value", [-1, 2, 7])
    def test_bit_columns_name_y_or_t(self, value):
        for col, name in ((0, "y"), (1, "t")):
            conf, dec = [[0, 1], [1, 0]], [[0, 1, 0], [1, 1, 1]]
            conf[1][col] = dec[1][col] = value
            with pytest.raises(ValidationError) as info:
                Dataset(conf, [[0, 1, 0]], 2)
            assert str(info.value) == f"{name} values must be 0 or 1"
            with pytest.raises(ValidationError) as info:
                Dataset([[0, 1]], dec, 2)
            assert str(info.value) == f"{name} values must be 0 or 1"
            cols = [[0, 1], [0, 1], [1, 0], [0, -1]]
            cols[1 + col][1] = value
            with pytest.raises(ValidationError) as info:
                StratifiedDataset(*cols, 2)
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
        assert np.array_equal(moved.q_hat.q[:, perm], base.q_hat.q) or np.array_equal(
            moved.q_hat.q, base.q_hat.q[:, inverse]
        )


class TestStratified:
    def test_single_stratum_reduces_to_finite(self):
        rng = np.random.default_rng(3)
        joint = random_instance(2, rng)
        cells = rng.multinomial(200, joint.p.ravel()).reshape(4, 2)
        dec = records_from_cells(cells)
        data = StratifiedDataset(
            np.zeros(len(dec), dtype=int), dec[:, 0], dec[:, 1], dec[:, 2], 2
        )
        result = estimate_stratified_ite(data)
        direct = estimate_finite(Dataset(dec[:, :2], dec, 2))
        assert result.aggregate == pytest.approx(direct.ate_hat, abs=EXACT)
        assert result.weights == {0: 1.0}

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
        data = StratifiedDataset(x, rows[:, 0], rows[:, 1], rows[:, 2], 2)
        result = estimate_stratified_ite(data)
        mean = 0.5 * (result.per_stratum[0].ate_hat + result.per_stratum[1].ate_hat)
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
        data = StratifiedDataset(x, rows[:, 0], rows[:, 1], rows[:, 2], 2)
        result = estimate_stratified_ite(data)
        total = sum(sizes)
        expected = sum(t * s / total for t, s in zip(truths, sizes))
        assert result.aggregate == pytest.approx(expected, abs=EXACT)


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
                    alloc = allocate_infinite(pol, parts.a, m).counts
                    rng = np.random.default_rng((idx, pol_id, m))
                    # the same draws as one multinomial per (replication, group)
                    cells = rng.multinomial(alloc, parts.q.q, size=(reps, 4))
                    q_hat = q_hat_batch(cells, parts.a.a)
                    errors[m] = np.abs(ate_batch(parts.a.a[:, None] * q_hat) - truth)
                for lo, hi in zip(grid, grid[1:]):
                    mean_lo, mean_hi = errors[lo].mean(), errors[hi].mean()
                    se = np.sqrt(
                        errors[lo].var(ddof=1) / reps + errors[hi].var(ddof=1) / reps
                    )
                    assert mean_hi <= mean_lo + se, (idx, pol, lo, hi)
