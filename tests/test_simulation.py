"""The three replication protocols: determinism, config validation, stream contract."""

import numpy as np
import pytest

from deconf import (
    ConditionalTable,
    ConfoundedDistribution,
    DegenerateGroupError,
    ExhaustedError,
    ExperimentConfig,
    ValidationError,
    adversarial_instance,
    allocate_infinite,
    ate_exact,
    binary_conditional,
    joint_from_parts,
    run_empirical_experiment,
    run_finite_experiment,
    run_infinite_experiment,
)

from deconf import simulation
from test_estimation import records_from_cells


def small_infinite_config(**overrides):
    base = dict(
        k=2,
        instances=5,
        policies=("nsp", "usp", "owsp"),
        include_baseline=True,
        m_grid=(50, 200),
        replications=20,
        seed=42,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestInfiniteProtocol:
    def test_deterministic_and_worker_invariant(self):
        cfg = small_infinite_config(replications=1)
        first = run_infinite_experiment(cfg)
        second = run_infinite_experiment(cfg)
        parallel = run_infinite_experiment(cfg, workers=3)
        assert first == second == parallel

    def test_errors_within_range_and_counts(self):
        cfg = small_infinite_config()
        curve = run_infinite_experiment(cfg)
        assert len(curve.rows) == 4 * 2  # four methods, two grid points
        for row in curve.rows:
            assert 0.0 <= row.mean_abs_error <= 2.0
            assert row.reps == cfg.instances * cfg.replications
            assert row.instances == cfg.instances

    def test_symmetric_instance_noise_bounded(self):
        # uniform a with identical q rows: the true ATE is exactly 0
        a = ConfoundedDistribution(np.full(4, 0.25))
        q = binary_conditional((0.3, 0.3, 0.3, 0.3))
        assert ate_exact(joint_from_parts(a, q)) == pytest.approx(0.0, abs=1e-15)
        cfg = ExperimentConfig(
            k=2,
            policies=("nsp",),
            m_grid=(1200,),
            replications=100,
            seed=11,
        )
        curve = run_infinite_experiment(cfg, instances=[(a, q)])
        mean = curve.rows[0].mean_abs_error
        assert 0.0 < mean < 0.5

    def test_explicit_instances_respected(self):
        a = ConfoundedDistribution(np.array([0.4, 0.1, 0.2, 0.3]))
        q = binary_conditional((0.5, 0.2, 0.7, 0.6))
        cfg = ExperimentConfig(
            k=2, policies=("owsp",), m_grid=(400,), replications=50, seed=1
        )
        curve = run_infinite_experiment(cfg, instances=[(a, q)])
        assert curve.rows[0].instances == 1
        assert curve.rows[0].mean_abs_error < 0.2


class TestFiniteProtocol:
    def config(self, **overrides):
        base = dict(
            k=2,
            instances=4,
            policies=("nsp", "usp", "owsp"),
            m_grid=(100,),
            n_grid=(100, 400, 1600),
            replications=20,
            seed=9,
        )
        base.update(overrides)
        return ExperimentConfig(**base)

    def test_requires_n_grid_and_single_m(self):
        with pytest.raises(ValidationError, match="n_grid"):
            run_finite_experiment(self.config(n_grid=None))
        with pytest.raises(ValidationError, match="single"):
            run_finite_experiment(self.config(m_grid=(100, 200)))
        with pytest.raises(ValidationError, match=">= m"):
            run_finite_experiment(self.config(n_grid=(50,)))

    def test_shared_randomness_saturation_equality(self):
        cfg = self.config(shared_randomness=True)
        curve = run_finite_experiment(cfg)
        at_m = {r.policy: r.mean_abs_error for r in curve.rows if r.grid_value == 100}
        assert at_m["nsp"] == at_m["usp"] == at_m["owsp"]

    def test_deterministic_and_worker_invariant(self):
        cfg = self.config(replications=5)
        assert run_finite_experiment(cfg) == run_finite_experiment(cfg, workers=3)

    def test_one_allocation_call_per_instance_and_policy(self, monkeypatch):
        # nsp reveals the first m arrivals; usp and owsp each allocate all
        # (replication, n) points of an instance in one kernel call
        shapes = []
        kernel = simulation._allocate

        def counted(kind, m, x, available=None):
            shapes.append((kind, np.shape(available)))
            return kernel(kind, m, x, available)

        monkeypatch.setattr(simulation, "_allocate", counted)
        run_finite_experiment(self.config(instances=2, replications=7))
        assert shapes == [("usp", (7, 3, 4)), ("owsp", (7, 3, 4))] * 2

    def test_large_n_approaches_infinite_engine(self):
        a = ConfoundedDistribution(np.array([0.4, 0.1, 0.2, 0.3]))
        q = binary_conditional((0.5, 0.2, 0.7, 0.6))
        reps = 400
        fin = run_finite_experiment(
            ExperimentConfig(
                k=2,
                policies=("owsp",),
                m_grid=(100,),
                n_grid=(10**6,),
                replications=reps,
                seed=13,
            ),
            instances=[(a, q)],
        )
        inf = run_infinite_experiment(
            ExperimentConfig(
                k=2, policies=("owsp",), m_grid=(100,), replications=reps, seed=14
            ),
            instances=[(a, q)],
        )
        frow, irow = fin.rows[0], inf.rows[0]
        se = np.sqrt(
            frow.std_abs_error**2 / frow.reps + irow.std_abs_error**2 / irow.reps
        )
        assert abs(frow.mean_abs_error - irow.mean_abs_error) <= 2 * se


class TestEmpiricalProtocol:
    def full_table(self, scale=400):
        a = ConfoundedDistribution(np.array([0.4, 0.1, 0.2, 0.3]))
        q = binary_conditional((0.5, 0.2, 0.7, 0.6))
        cells = (joint_from_parts(a, q).p * scale).round().astype(int)
        return records_from_cells(cells), joint_from_parts(a, q)

    def test_exact_proportion_table_ground_truth(self):
        records, joint = self.full_table()
        cfg = ExperimentConfig(
            k=2, policies=("owsp",), m_grid=(40,), replications=30, seed=2
        )
        curve = run_empirical_experiment(records, cfg)
        assert curve.rows[0].instances == 1
        # errors are measured against ate_exact of the full-table empirical joint
        assert 0.0 <= curve.rows[0].mean_abs_error <= 2.0

    def test_full_reveal_is_error_free(self):
        records, _ = self.full_table()
        total = len(records)
        cfg = ExperimentConfig(
            k=2, policies=("nsp",), m_grid=(total,), replications=5, seed=2
        )
        curve = run_empirical_experiment(records, cfg)
        assert curve.rows[0].mean_abs_error == 0.0
        assert curve.rows[0].std_abs_error == 0.0

    def test_small_group_rejected(self):
        records, _ = self.full_table(scale=40)
        cfg = ExperimentConfig(
            k=2, policies=("usp",), m_grid=(39,), replications=2, seed=2
        )
        with pytest.raises(ExhaustedError):
            run_empirical_experiment(records, cfg)

    def test_exhaustion_names_first_short_m_in_config_order(self):
        # group sizes 16, 4, 8, 12: nsp fits at m=40, usp at m=40 wants 10
        # reveals in (0,1); the m=30 shortfall would come first in sorted order
        records, _ = self.full_table(scale=40)
        cfg = ExperimentConfig(
            k=2, policies=("nsp", "usp"), m_grid=(40, 30), replications=2, seed=2
        )
        with pytest.raises(ExhaustedError) as info:
            run_empirical_experiment(records, cfg)
        assert str(info.value) == (
            "policy usp at m=40 needs 10 reveals in group (y=0,t=1), only 4 records exist"
        )
        assert info.value.shortfall == 6

    def test_non_integral_records_rejected(self):
        records, _ = self.full_table()
        cfg = ExperimentConfig(k=2, policies=("nsp",), m_grid=(10,), replications=2, seed=2)
        with pytest.raises(ValidationError, match="integers"):
            run_empirical_experiment(records + 0.5, cfg)

    def test_deterministic_and_worker_invariant(self):
        records, _ = self.full_table()
        cfg = ExperimentConfig(
            k=2,
            policies=("nsp", "usp", "owsp"),
            include_baseline=True,
            m_grid=(15, 30, 45),
            replications=40,
            seed=21,
        )
        assert run_empirical_experiment(records, cfg) == run_empirical_experiment(
            records, cfg, workers=4
        )


def permutation_prefixes(rng, cells, lengths):
    """Reference reveal path: prefixes of one random permutation of each group's z."""
    k = cells.shape[1]
    out = np.empty(lengths.shape + (k,), dtype=int)
    for g, row in enumerate(cells):
        order = rng.permutation(np.repeat(np.arange(k), row))
        for i, count in enumerate(lengths[:, g]):
            out[i, g] = np.bincount(order[:count], minlength=k)
    return out


def chi2_upper_quantile(df, z=3.09):
    """Wilson-Hilferty approximation of the chi-square quantile at normal score z."""
    c = 2.0 / (9.0 * df)
    return df * (1.0 - c + z * np.sqrt(c)) ** 3


class TestEmpiricalReveals:
    # k = 3; group 1's lengths fall along the grid and group 2 repeats one
    CELLS = np.array([[4, 3, 2], [5, 1, 3], [2, 2, 2], [6, 0, 3]])
    LENGTHS = np.array([[3, 5, 4, 4], [6, 2, 4, 7]])

    def outcomes(self, draw, seed, samples=3000):
        rng = np.random.default_rng(seed)
        runs = np.stack([draw(rng, self.CELLS, self.LENGTHS) for _ in range(samples)])
        # one categorical outcome per group: its counts at every grid point
        return [
            [tuple(run[:, g].ravel()) for run in runs] for g in range(len(self.CELLS))
        ]

    def test_matches_permutation_reference_in_distribution(self):
        new = self.outcomes(simulation._reveal_prefixes, 11)
        old = self.outcomes(permutation_prefixes, 12)
        for g in range(len(self.CELLS)):
            labels = sorted(set(new[g]) | set(old[g]))
            table = np.array(
                [[sample.count(label) for label in labels] for sample in (new[g], old[g])]
            )
            rare = table.sum(axis=0) < 10  # pool sparse outcomes into one column
            if rare.any():
                table = np.column_stack([table[:, ~rare], table[:, rare].sum(axis=1)])
            expected = table.sum(axis=1, keepdims=True) * table.sum(axis=0) / table.sum()
            stat = ((table - expected) ** 2 / expected).sum()
            df = table.shape[1] - 1
            assert df >= 5, f"group {g}: too few outcomes to test"
            assert stat < chi2_upper_quantile(df), f"group {g}: chi2 {stat:.1f} on {df} df"

    def test_nested_prefix_invariants(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            k = int(rng.integers(2, 6))
            cells = rng.integers(0, 30, size=(4, k))
            sizes = cells.sum(axis=1)
            lengths = np.floor(rng.random((4, 4)) * (sizes + 1)).astype(int)
            lengths[int(rng.integers(4))] = sizes  # one grid point reveals everything
            out = simulation._reveal_prefixes(rng, cells, lengths)
            assert np.array_equal(out.sum(axis=-1), lengths)
            for g in range(4):
                along = out[np.argsort(lengths[:, g], kind="stable"), g]
                assert np.all(np.diff(along, axis=0) >= 0)
                assert np.all(along <= cells[g])
            assert np.array_equal(out[lengths.sum(axis=1) == sizes.sum()][0], cells)

    def test_baseline_draws_from_the_flat_table(self):
        cells = self.CELLS.reshape(1, -1)
        grid = np.array([[5], [12], [cells.sum()]])
        out = simulation._reveal_prefixes(np.random.default_rng(2), cells, grid)
        assert out.shape == (3, 1, 12)
        assert np.array_equal(out[-1, 0], cells[0])
        assert np.all(np.diff(out[:, 0], axis=0) >= 0)


class TestConfigValidation:
    def test_full_scale_sweep_config_validates(self):
        # a full-scale sweep is describable even though the test suites
        # run reduced versions of it
        cfg = ExperimentConfig(
            k=2,
            instances=13_000,
            policies=("nsp", "usp", "owsp"),
            include_baseline=True,
            m_grid=tuple(range(100, 1300, 100)),
            replications=100,
            seed=1,
        )
        assert cfg.m_grid[-1] == 1200

    def test_rejects_unknown_policy(self):
        with pytest.raises(ValidationError):
            ExperimentConfig(policies=("nsp", "ucb"))

    def test_rejects_bad_grids(self):
        with pytest.raises(ValidationError):
            ExperimentConfig(m_grid=())
        with pytest.raises(ValidationError):
            ExperimentConfig(m_grid=(0,))
        with pytest.raises(ValidationError):
            ExperimentConfig(n_grid=(-5,))

    @pytest.mark.parametrize(
        "field",
        [
            {"k": 2.5},
            {"k": 3.0},
            {"instances": 1.5},
            {"instances": True},
            {"replications": 2.0},
            {"m_grid": (100.7,)},
            {"m_grid": (True,)},
            {"m_grid": (np.float64(100.0),)},
            {"n_grid": (100, 250.5)},
            {"include_baseline": 1},
            {"shared_randomness": "yes"},
        ],
    )
    def test_rejects_non_integer_and_non_bool_values(self, field):
        (name,) = field
        with pytest.raises(ValidationError, match=name):
            ExperimentConfig(**field)

    def test_accepts_numpy_integers_as_python_ints(self):
        cfg = ExperimentConfig(
            k=np.int64(3),
            instances=np.int32(2),
            m_grid=np.array([10, 20]),
            n_grid=(np.int64(40),),
            replications=np.int64(5),
            seed=np.uint32(9),
            include_baseline=np.bool_(True),
        )
        assert cfg == ExperimentConfig(
            k=3, instances=2, m_grid=(10, 20), n_grid=(40,), replications=5, seed=9,
            include_baseline=True,
        )
        assert type(cfg.k) is int and type(cfg.m_grid[0]) is int and type(cfg.seed) is int

    def test_rejects_negative_seed(self):
        with pytest.raises(ValidationError):
            ExperimentConfig(seed=-1)

    def test_rejects_bool_seed(self):
        # bool is an int subclass; a flag passed as a seed is a mistake
        with pytest.raises(ValidationError, match="seed"):
            ExperimentConfig(seed=True)

    @pytest.mark.parametrize("workers", [0, -2, 1.5, True, "2"])
    def test_rejects_bad_workers(self, workers):
        records = records_from_cells(np.full((4, 2), 5))
        finite = ExperimentConfig(
            k=2, policies=("usp",), m_grid=(10,), n_grid=(20,), replications=2, seed=1
        )
        runs = [
            lambda: run_infinite_experiment(small_infinite_config(), workers=workers),
            lambda: run_finite_experiment(finite, workers=workers),
            lambda: run_empirical_experiment(
                records, small_infinite_config(m_grid=(8,)), workers=workers
            ),
        ]
        for run in runs:
            with pytest.raises(ValidationError, match="workers"):
                run()

    def test_explicit_instance_k_must_match_config(self):
        a = ConfoundedDistribution(np.full(4, 0.25))
        q3 = ConditionalTable(np.full((4, 3), 1.0 / 3.0))
        cfg = ExperimentConfig(k=2, policies=("nsp",), m_grid=(10,), replications=2)
        with pytest.raises(ValidationError, match="k=3"):
            run_infinite_experiment(cfg, instances=[(a, q3)])
        finite = ExperimentConfig(
            k=2, policies=("nsp",), m_grid=(10,), n_grid=(20,), replications=2
        )
        with pytest.raises(ValidationError, match="k=3"):
            run_finite_experiment(finite, instances=[(a, q3)])

    def test_strict_fallback_raises_through_worker_pool(self):
        # nsp gives groups (0,1) and (1,0) nothing at m=20 on nsp_worst
        a, q = adversarial_instance("nsp_worst")
        cfg = ExperimentConfig(
            k=2, policies=("nsp",), m_grid=(20,), replications=2, fallback="error"
        )
        for workers in (1, 2):
            with pytest.raises(DegenerateGroupError) as err:
                run_infinite_experiment(cfg, instances=[(a, q)] * 2, workers=workers)
            assert err.value.groups == ((0, 1), (1, 0))

    def test_shared_randomness_only_for_finite(self):
        cfg = small_infinite_config(shared_randomness=True)
        with pytest.raises(ValidationError):
            run_infinite_experiment(cfg)


class TestStreamContract:
    """Golden rows pinning the RNG stream keying and draw order.

    Each (instance, policy, replication) stream is drawn in grid order and,
    within a grid point, in canonical group order; the finite protocol adds
    one arrival stream per (instance, replication). The values below were
    recorded before the engine was batched, so any change to the keying,
    the draw order or the k=2 arithmetic fails here. k >= 3 sums may move
    by a few ulp and are compared within 1e-12 relative.
    """

    @staticmethod
    def rows(curve):
        return [
            (r.policy, r.grid_value, r.mean_abs_error, r.std_abs_error, r.reps)
            for r in curve.rows
        ]

    def test_infinite_k2(self):
        cfg = ExperimentConfig(
            k=2,
            instances=2,
            policies=("nsp", "usp", "owsp"),
            include_baseline=True,
            m_grid=(30, 100),
            replications=6,
            seed=2020,
        )
        assert self.rows(run_infinite_experiment(cfg)) == [
            ("deconf-only", 30, 0.1376815044158981, 0.10095524388130157, 12),
            ("deconf-only", 100, 0.07658203009906316, 0.06308340070105094, 12),
            ("nsp", 30, 0.0229505878550558, 0.01842826283271012, 12),
            ("nsp", 100, 0.025238273011169196, 0.0176095522251549, 12),
            ("owsp", 30, 0.02219499885501394, 0.018698486877482202, 12),
            ("owsp", 100, 0.013364120232389943, 0.009819317513401767, 12),
            ("usp", 30, 0.027190909486398556, 0.016389827208234863, 12),
            ("usp", 100, 0.010926262526950357, 0.01125914703472525, 12),
        ]

    def finite_config(self, shared):
        return ExperimentConfig(
            k=2,
            instances=2,
            policies=("nsp", "usp", "owsp"),
            m_grid=(20,),
            n_grid=(20, 60, 200),
            replications=6,
            seed=7,
            shared_randomness=shared,
        )

    def test_finite_k2_independent_streams(self):
        assert self.rows(run_finite_experiment(self.finite_config(False))) == [
            ("nsp", 20, 0.18570377552942116, 0.16911434449089546, 12),
            ("nsp", 60, 0.1502297409369939, 0.11192614837969324, 12),
            ("nsp", 200, 0.10172913845071652, 0.0919236354869189, 12),
            ("owsp", 20, 0.16117067314705405, 0.16334992890701255, 12),
            ("owsp", 60, 0.12006148630724119, 0.08174798354322355, 12),
            ("owsp", 200, 0.10814444565470584, 0.06306225800004005, 12),
            ("usp", 20, 0.2071436743869036, 0.17706249240818875, 12),
            ("usp", 60, 0.14329332699479783, 0.08922957965656876, 12),
            ("usp", 200, 0.08142838397672443, 0.05589401045954451, 12),
        ]

    def test_finite_k2_shared_streams(self):
        assert self.rows(run_finite_experiment(self.finite_config(True))) == [
            ("nsp", 20, 0.19213495813677017, 0.17175979851089312, 12),
            ("nsp", 60, 0.12668264894994655, 0.112807285422276, 12),
            ("nsp", 200, 0.09221054567917215, 0.08905666244616543, 12),
            ("owsp", 20, 0.19213495813677017, 0.17175979851089312, 12),
            ("owsp", 60, 0.09760253331191919, 0.10433663702536097, 12),
            ("owsp", 200, 0.0838900361518126, 0.070852810071941, 12),
            ("usp", 20, 0.19213495813677017, 0.17175979851089312, 12),
            ("usp", 60, 0.10661820848905607, 0.11647631549299912, 12),
            ("usp", 200, 0.09393412052007799, 0.07130708446859373, 12),
        ]

    def test_nsp_worst_uniform_fallback(self):
        # nsp spends [18, 0, 0, 2] of m=20 here, so groups (0,1) and (1,0)
        # take the uniform row in every replication
        a, q = adversarial_instance("nsp_worst")
        assert allocate_infinite("nsp", a, 20).counts.tolist() == [18, 0, 0, 2]
        cfg = ExperimentConfig(
            k=2,
            policies=("nsp", "usp", "owsp"),
            include_baseline=True,
            m_grid=(20,),
            replications=10,
            seed=5,
        )
        assert self.rows(run_infinite_experiment(cfg, instances=[(a, q)])) == [
            ("deconf-only", 20, 0.4336856378216824, 0.18603875627186733, 10),
            ("nsp", 20, 0.3607379842345405, 0.2279887311832135, 10),
            ("owsp", 20, 0.1550678128361973, 0.1974324377131085, 10),
            ("usp", 20, 0.2903996203527594, 0.24808615323958308, 10),
        ]

    def test_infinite_k3_within_ulps(self):
        cfg = ExperimentConfig(
            k=3,
            instances=2,
            policies=("nsp", "usp", "owsp"),
            include_baseline=True,
            m_grid=(40,),
            replications=6,
            seed=31,
        )
        expected = [
            ("deconf-only", 40, 0.10853795306665638, 0.07114422776499417, 12),
            ("nsp", 40, 0.059477460274674765, 0.04740824013670242, 12),
            ("owsp", 40, 0.046551002878502556, 0.020901715742997307, 12),
            ("usp", 40, 0.051698260677678624, 0.024888468195105203, 12),
        ]
        got = self.rows(run_infinite_experiment(cfg))
        assert [(r[0], r[1], r[4]) for r in got] == [(e[0], e[1], e[4]) for e in expected]
        for row, want in zip(got, expected):
            assert row[2] == pytest.approx(want[2], rel=1e-12, abs=0.0)
            assert row[3] == pytest.approx(want[3], rel=1e-12, abs=0.0)
