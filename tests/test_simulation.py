"""The three replication protocols: determinism, config validation, stream contract."""

import json
import pickle
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from deconf import (
    ConditionalTable,
    ConfoundedDistribution,
    DegenerateGroupError,
    ExhaustedError,
    ExperimentConfig,
    GROUPS,
    JointDistribution,
    NAMED_POLICIES,
    PolicyWeights,
    ValidationError,
    adversarial_instance,
    allocate_infinite,
    ate_exact,
    binary_conditional,
    joint_from_parts,
    policy_weights,
    run_empirical_experiment,
    run_finite_experiment,
    run_infinite_experiment,
)

from deconf import simulation
from deconf.cli import main


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

    def test_curve_mean_names_a_missing_point(self):
        curve = simulation.ErrorCurve((simulation.CurveRow("nsp", "m", 50, 0.125, 0.5, 10, 1),))
        assert curve.mean("nsp", 50) == 0.125
        for policy, value in (("nsp", 7), ("usp", 50)):
            with pytest.raises(KeyError) as info:
                curve.mean(policy, value)
            assert str(info.value) == repr((policy, value))

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

    def test_shared_randomness_saturation_equality(self, monkeypatch):
        estimated = []
        kernel = simulation.q_hat_batch

        def recorded(cells, a_hat, fallback):
            # one row per estimate, however many estimates a call takes
            rows = np.broadcast_to(a_hat, cells.shape[:-1]).reshape(-1, 4)
            estimated.append(np.hstack([cells.reshape(len(rows), -1), rows]))
            return kernel(cells, a_hat, fallback)

        monkeypatch.setattr(simulation, "q_hat_batch", recorded)
        cfg = self.config()
        curve = run_finite_experiment(cfg)
        at_m = {r.policy: r.mean_abs_error for r in curve.rows if r.grid_value == 100}
        assert at_m["nsp"] == at_m["usp"] == at_m["owsp"]
        # estimates run in (instance, rep, policy, n) order; at n = m every
        # policy reveals all m arrivals, so each estimator input is bitwise shared
        inputs = np.concatenate(estimated).reshape(cfg.instances, cfg.replications, 3, 3, -1)
        at_n_eq_m = inputs[:, :, :, 0]
        assert np.array_equal(at_n_eq_m, np.repeat(at_n_eq_m[:, :, :1], 3, axis=2))
        assert not np.array_equal(inputs[:, :, 0, 1:], inputs[:, :, 1, 1:])

    def test_rejects_the_baseline(self):
        with pytest.raises(ValidationError, match="no finite variant"):
            run_finite_experiment(self.config(include_baseline=True))

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
        return cells, joint_from_parts(a, q)

    def test_exact_proportion_table_ground_truth(self):
        cells, joint = self.full_table()
        cfg = ExperimentConfig(
            k=2, policies=("owsp",), m_grid=(40,), replications=30, seed=2
        )
        curve = run_empirical_experiment(cells, cfg)
        assert curve.rows[0].instances == 1
        # errors are measured against ate_exact of the full-table empirical joint
        assert 0.0 <= curve.rows[0].mean_abs_error <= 2.0

    def test_full_reveal_is_error_free(self):
        cells, _ = self.full_table()
        total = int(cells.sum())
        cfg = ExperimentConfig(
            k=2, policies=("nsp",), m_grid=(total,), replications=5, seed=2
        )
        curve = run_empirical_experiment(cells, cfg)
        assert curve.rows[0].mean_abs_error == 0.0
        assert curve.rows[0].std_abs_error == 0.0

    def test_small_group_rejected(self):
        cells, _ = self.full_table(scale=40)
        cfg = ExperimentConfig(
            k=2, policies=("usp",), m_grid=(39,), replications=2, seed=2
        )
        with pytest.raises(ExhaustedError):
            run_empirical_experiment(cells, cfg)

    def test_exhaustion_names_first_short_m_in_config_order(self):
        # group sizes 16, 4, 8, 12: nsp fits at m=40, usp at m=40 wants 10
        # reveals in (0,1); the m=30 shortfall would come first in sorted order
        cells, _ = self.full_table(scale=40)
        cfg = ExperimentConfig(
            k=2, policies=("nsp", "usp"), m_grid=(40, 30), replications=2, seed=2
        )
        with pytest.raises(ExhaustedError) as info:
            run_empirical_experiment(cells, cfg)
        assert str(info.value) == (
            "policy usp at m=40 needs 10 reveals in group (y=0,t=1), only 4 records exist"
        )
        assert info.value.shortfall == 6

    def test_empty_table_rejected(self):
        cfg = ExperimentConfig(k=2, policies=("nsp",), m_grid=(10,), replications=2, seed=2)
        with pytest.raises(ValidationError) as info:
            run_empirical_experiment(np.zeros((4, 2), dtype=int), cfg)
        assert str(info.value) == "empirical dataset is empty"

    def test_baseline_past_the_table_rejected(self):
        cells, _ = self.full_table(scale=40)
        cfg = ExperimentConfig(k=2, policies=(), include_baseline=True, m_grid=(41,),
                               replications=2, seed=2)
        with pytest.raises(ExhaustedError) as info:
            run_empirical_experiment(cells, cfg)
        assert str(info.value) == "baseline needs 41 records, table has 40"

    @pytest.mark.parametrize("cells, message", [
        (np.full((4, 2), 2.5), "cells: entries must be integers"),
        (np.ones((4, 2), dtype=bool), "cells: entries must be integers"),
        (-np.ones((4, 2), dtype=int), "cells: entries must be non-negative"),
        (np.ones((3, 2), dtype=int), "cells: expected shape (4, k) with k >= 2, got (3, 2)"),
        (np.full((4, 2), 2**61), f"cells: entries must sum to below 2**63, got {2**64}"),
        (np.ones((4, 3), dtype=int), "cells: expected shape (4, 2) for config k=2, got (4, 3)"),
        (np.ones((2, 4, 2), dtype=int),
         "cells: expected shape (4, 2) for config k=2, got (2, 4, 2)"),
    ])
    def test_bad_cells_rejected(self, cells, message):
        cfg = ExperimentConfig(k=2, policies=("nsp",), m_grid=(2,), replications=2, seed=2)
        with pytest.raises(ValidationError) as info:
            run_empirical_experiment(cells, cfg)
        assert str(info.value) == message

    def test_integral_float_cells_accepted(self):
        cells, _ = self.full_table()
        cfg = ExperimentConfig(k=2, policies=("nsp",), m_grid=(10,), replications=2, seed=2)
        assert run_empirical_experiment(cells.astype(float), cfg) == run_empirical_experiment(
            cells, cfg)

    def test_deterministic_and_worker_invariant(self):
        cells, _ = self.full_table()
        cfg = ExperimentConfig(
            k=2,
            policies=("nsp", "usp", "owsp"),
            include_baseline=True,
            m_grid=(15, 30, 45),
            replications=40,
            seed=21,
        )
        assert run_empirical_experiment(cells, cfg) == run_empirical_experiment(
            cells, cfg, workers=4
        )


MODEL_TYPES = (ConfoundedDistribution, ConditionalTable, JointDistribution, PolicyWeights)


def count_validations(monkeypatch):
    """The names of the model objects built from now on, in build order."""
    built = []
    for cls in MODEL_TYPES:
        def counted(self, original=cls.__post_init__):
            built.append(type(self).__name__)
            original(self)

        monkeypatch.setattr(cls, "__post_init__", counted)
    return built


class TestArraysPastTheBoundary:
    """Instances are validated where they are built; a sweep works on their arrays."""

    EMPTY_ARM = (  # treatment arm t=1 has no mass, so owsp is undefined
        ConfoundedDistribution(np.array([0.5, 0.0, 0.5, 0.0])),
        binary_conditional((0.7, 0.5, 0.4, 0.5)),
    )

    def test_counter_sees_every_model_type(self, monkeypatch):
        built = count_validations(monkeypatch)
        a, q = adversarial_instance("nsp_worst")
        joint_from_parts(a, q)
        policy_weights("usp", a)
        assert built == [cls.__name__ for cls in MODEL_TYPES]

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("drawn", [False, True])
    def test_synthetic_sweeps_build_no_model_object(self, monkeypatch, workers, drawn):
        # explicit instances, or instances drawn from the config seed
        explicit = [adversarial_instance(w) for w in ("usp_worst", "owsp_worst")]
        instances = None if drawn else explicit
        infinite = small_infinite_config(replications=10)
        finite = ExperimentConfig(
            k=2, instances=3, m_grid=(50,), n_grid=(200, 50), replications=10, seed=3,
        )
        built = count_validations(monkeypatch)
        run_infinite_experiment(infinite, instances, workers=workers)
        run_finite_experiment(finite, instances, workers=workers)
        assert built == []

    @pytest.mark.parametrize("workers", [1, 2])
    def test_empirical_sweep_builds_no_model_object(self, monkeypatch, workers):
        cells, _ = TestEmpiricalProtocol().full_table()
        cfg = ExperimentConfig(
            k=2, include_baseline=True, m_grid=(30, 15), replications=10, seed=4
        )
        built = count_validations(monkeypatch)
        run_empirical_experiment(cells, cfg, workers=workers)
        assert built == []

    @pytest.mark.parametrize("t, a", [(1, (0.5, 0.0, 0.5, 0.0)), (0, (0.0, 0.5, 0.0, 0.5))])
    def test_empty_arm_stops_owsp_before_the_first_item(self, monkeypatch, t, a):
        ran = []
        errors = simulation._known_marginal_errors

        def recorded(item):
            ran.append(item[2])  # the item index
            return errors(item)

        monkeypatch.setattr(simulation, "_known_marginal_errors", recorded)
        empty_arm = (ConfoundedDistribution(np.array(a)), self.EMPTY_ARM[1])
        instances = [adversarial_instance("nsp_worst"), empty_arm]
        with pytest.raises(ValidationError) as info:
            run_infinite_experiment(small_infinite_config(replications=5), instances)
        assert str(info.value) == f"owsp undefined: treatment arm t={t} has zero mass"
        assert ran == []
        run_infinite_experiment(
            small_infinite_config(policies=("nsp", "usp"), replications=5), instances
        )
        assert ran == [0, 1]

    def test_finite_protocol_runs_on_an_empty_arm(self):
        # owsp splits by the empirical marginal here, which is defined
        cfg = ExperimentConfig(k=2, m_grid=(50,), n_grid=(50, 200), replications=5, seed=3)
        curve = run_finite_experiment(cfg, [adversarial_instance("nsp_worst"), self.EMPTY_ARM])
        assert sorted({row.policy for row in curve.rows}) == sorted(NAMED_POLICIES)
        assert all(np.isfinite(row.mean_abs_error) for row in curve.rows)


def permutation_prefixes(rng, cells, lengths):
    """Reference reveal path: prefixes of one random permutation of each group's z."""
    k = cells.shape[1]
    out = np.empty(lengths.shape + (k,), dtype=int)
    for g, row in enumerate(cells):
        order = rng.permutation(np.repeat(np.arange(k), row))
        for i, count in enumerate(lengths[:, g]):
            out[i, g] = np.bincount(order[:count], minlength=k)
    return out


def ref_reveal_prefixes(rng, cells, lengths):
    """The engine's former reveal draw: one replication, one group at a time.

    Each group's prefixes are drawn in ascending length, each step one
    ``multivariate_hypergeometric`` draw from the records not yet revealed.
    """
    out = np.empty(lengths.shape + cells.shape[1:], dtype=np.int64)
    for g, row in enumerate(cells):
        drawn = np.zeros_like(row)
        for i in np.argsort(lengths[:, g], kind="stable"):
            step = lengths[i, g] - drawn.sum()
            drawn += rng.multivariate_hypergeometric(row - drawn, step)
            out[i, g] = drawn
    return out


def chi2_upper_quantile(df, z=3.09):
    """Wilson-Hilferty approximation of the chi-square quantile at normal score z."""
    c = 2.0 / (9.0 * df)
    return df * (1.0 - c + z * np.sqrt(c)) ** 3


def assert_same_distribution(new, old, label):
    """Chi-square homogeneity test of two samples of hashable outcomes."""
    counts = [Counter(new), Counter(old)]
    labels = sorted(set(counts[0]) | set(counts[1]))
    table = np.array([[c[label] for label in labels] for c in counts])
    rare = table.sum(axis=0) < 10  # pool sparse outcomes into one column
    if rare.any():
        table = np.column_stack([table[:, ~rare], table[:, rare].sum(axis=1)])
    expected = table.sum(axis=1, keepdims=True) * table.sum(axis=0) / table.sum()
    stat = ((table - expected) ** 2 / expected).sum()
    df = table.shape[1] - 1
    assert df >= 5, f"{label}: too few outcomes to test"
    assert stat < chi2_upper_quantile(df), f"{label}: chi2 {stat:.1f} on {df} df"


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
            assert_same_distribution(new[g], old[g], f"group {g}")

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


class TestBatchedReveals:
    """The all-replications reveal draw against the former per-replication draw."""

    CELLS = TestEmpiricalReveals.CELLS
    LENGTHS = TestEmpiricalReveals.LENGTHS
    REPS = 3000

    def per_group(self, runs):
        return [[tuple(run[:, g].ravel()) for run in runs] for g in range(len(self.CELLS))]

    def test_matches_per_replication_and_permutation_references(self):
        lengths = np.broadcast_to(self.LENGTHS, (self.REPS,) + self.LENGTHS.shape)
        new = simulation._reveal_prefixes(np.random.default_rng(31), self.CELLS, lengths)
        assert new.shape == (self.REPS,) + self.LENGTHS.shape + (3,)
        for ref, seed in ((ref_reveal_prefixes, 32), (permutation_prefixes, 33)):
            rng = np.random.default_rng(seed)
            old = [ref(rng, self.CELLS, self.LENGTHS) for _ in range(self.REPS)]
            for g, (a, b) in enumerate(zip(self.per_group(new), self.per_group(old))):
                assert_same_distribution(a, b, f"{ref.__name__} group {g}")

    def test_nested_prefix_invariants_with_leading_dims(self):
        rng = np.random.default_rng(34)
        for _ in range(200):
            k, grid = int(rng.integers(2, 6)), int(rng.integers(1, 5))
            lead = tuple(int(n) for n in rng.integers(1, 4, size=int(rng.integers(1, 3))))
            cells = rng.integers(0, 30, size=(4, k))
            sizes = cells.sum(axis=1)
            lengths = np.floor(rng.random(lead + (grid, 4)) * (sizes + 1)).astype(int)
            lengths[..., int(rng.integers(grid)), :] = sizes  # one point reveals everything
            out = simulation._reveal_prefixes(rng, cells, lengths)
            assert out.shape == lead + (grid, 4, k)
            assert np.array_equal(out.sum(axis=-1), lengths)
            assert np.all((out >= 0) & (out <= cells))
            order = np.argsort(lengths, axis=-2, kind="stable")
            along = np.take_along_axis(out, order[..., None], axis=-3)
            assert np.all(np.diff(along, axis=-3) >= 0)
            full = (lengths == sizes).all(axis=-1)
            assert np.all(out[full] == cells)


class TestBatchedDraws:
    """The one-call synthetic draws against the former per-replication streams.

    The references below draw from one stream per (instance, replication):
    a ``choice`` sequence of whole records then prefix counts for the
    baseline, the same for the finite arrivals, and one ``choice`` sequence
    per group for the reveals every policy shares. Every engine draw has
    the samplers' shared layout: lengths ``(reps, grid, rows)`` in, counts
    ``(reps, grid, rows, c)`` out.
    """

    A = ConfoundedDistribution(np.array([0.4, 0.1, 0.2, 0.3]))
    Q = binary_conditional((0.5, 0.2, 0.7, 0.6))
    REPS = 3000

    @staticmethod
    def prefixes(rng, probs, lengths):
        """Per row of ``probs``, prefix counts ``(grid, rows, c)`` of one ``choice`` sequence."""
        out = np.empty(lengths.shape + probs.shape[1:], dtype=np.int64)
        for r, row in enumerate(lengths.T):
            seq = rng.choice(probs.shape[1], size=row.max(), p=probs[r])
            out[:, r] = [np.bincount(seq[:n], minlength=probs.shape[1]) for n in row]
        return out

    def assert_same_rows(self, new, old, label):
        """Per row, the counts at every grid point have one distribution."""
        for r in range(new.shape[2]):
            assert_same_distribution(
                [tuple(x.ravel()) for x in new[:, :, r]], [tuple(x.ravel()) for x in old[:, :, r]],
                f"{label} {r}",
            )

    def test_infinite_cells_match_per_replication_streams(self, monkeypatch):
        draws = []
        kernel = simulation._prefix_counts

        def recorded(rng, probs, lengths):
            draws.append((probs, lengths, kernel(rng, probs, lengths)))
            return draws[-1][2]

        monkeypatch.setattr(simulation, "_prefix_counts", recorded)
        seed, grid = 3, np.array([8, 20])
        cfg = ExperimentConfig(
            k=2, policies=("usp", "owsp"), include_baseline=True, m_grid=tuple(grid),
            replications=self.REPS, seed=seed,
        )
        run_infinite_experiment(cfg, instances=[(self.A, self.Q)])
        inst = simulation.resolve_instances(cfg, [(self.A, self.Q)])[0]
        (joint, base_lengths, base), (q, lengths, new) = draws
        # the baseline: per replication, prefixes of one sequence of whole records
        assert np.array_equal(joint, (inst.a[:, None] * inst.q).reshape(1, -1))
        assert np.array_equal(base_lengths[0], grid[:, None])
        old = np.stack([
            self.prefixes(simulation._stream(seed + 1, simulation._DOM_INFINITE, 0, rep),
                          joint, base_lengths[rep])
            for rep in range(self.REPS)
        ])
        assert base.shape == old.shape == (self.REPS, len(grid), 1, 8)
        self.assert_same_rows(np.moveaxis(base, -1, 2), np.moveaxis(old, -1, 2), "baseline cell")
        # the policies: per group, prefixes of one z sequence at every allocation
        allocs = [simulation._allocate(pol, grid, policy_weights(pol, self.A).x)
                  for pol in cfg.policies]
        assert np.array_equal(q, inst.q) and np.array_equal(lengths[0], np.concatenate(allocs))
        old = np.stack([
            self.prefixes(simulation._stream(seed + 1, simulation._DOM_CONDITIONAL, 0, rep),
                          q, lengths[rep])
            for rep in range(self.REPS)
        ])
        self.assert_same_rows(new, old, "group")

    def test_finite_arrivals_match_per_replication_sequences(self, monkeypatch):
        drawn = []
        kernel = simulation._prefix_counts

        def recorded(*args):
            drawn.append(kernel(*args))
            return drawn[-1]

        monkeypatch.setattr(simulation, "_prefix_counts", recorded)
        seed, m, grid = 4, 4, (6, 9, 16)
        cfg = ExperimentConfig(
            k=2, policies=("nsp",), m_grid=(m,), n_grid=grid,
            replications=self.REPS, seed=seed,
        )
        run_finite_experiment(cfg, instances=[(self.A, self.Q)])
        new = drawn[0]  # the arrivals; the reveals are drawn after them
        lengths = np.array([[m, *grid]]).T
        old = np.stack([
            self.prefixes(simulation._stream(seed, simulation._DOM_ARRIVAL, 0, rep),
                          self.A.a[None], lengths)
            for rep in range(self.REPS)
        ])
        assert new.shape == old.shape == (self.REPS, len(grid) + 1, 1, 4)
        self.assert_same_rows(np.moveaxis(new, -1, 2), np.moveaxis(old, -1, 2), "group")

    def test_shared_reveals_match_per_group_sequences(self):
        q = np.array([[0.5, 0.3, 0.2], [0.1, 0.6, 0.3], [0.3, 0.3, 0.4], [0.8, 0.1, 0.1]])
        # per (policy, n) allocation, the lengths of every group; ties repeat
        lengths = np.array([[3, 6, 1, 5], [5, 2, 4, 0], [3, 6, 4, 5], [0, 6, 2, 3]])
        reps = np.broadcast_to(lengths, (self.REPS,) + lengths.shape)
        new = simulation._prefix_counts(np.random.default_rng(21), q, reps)
        old = np.stack([
            self.prefixes(simulation._stream(22, simulation._DOM_CONDITIONAL, 0, rep), q, lengths)
            for rep in range(self.REPS)
        ])
        assert new.shape == old.shape == (self.REPS, 4, 4, 3)
        self.assert_same_rows(new, old, "group")

    @pytest.mark.parametrize("sampler", ["_prefix_counts", "_reveal_prefixes"])
    def test_prefix_invariants(self, sampler):
        sample = getattr(simulation, sampler)
        rng = np.random.default_rng(8)
        for _ in range(200):
            rows, c = int(rng.integers(1, 5)), int(rng.integers(2, 5))
            if sampler == "_prefix_counts":  # probabilities, drawn with replacement
                source = rng.dirichlet(np.ones(c), size=rows)
                sizes = np.full(rows, 11)
            else:  # a table's cell counts, drawn without replacement
                source = rng.integers(0, 8, size=(rows, c))
                sizes = source.sum(axis=1)
            lengths = rng.integers(0, sizes + 1, size=(3, int(rng.integers(1, 7)), rows))
            out = sample(rng, source, lengths)
            assert out.shape == lengths.shape + (c,)
            assert np.array_equal(out.sum(axis=-1), lengths)
            order = np.argsort(lengths, axis=-2, kind="stable")
            along = np.take_along_axis(out, order[..., None], axis=-3)
            assert np.all(np.diff(along, axis=-3) >= 0)
            same = lengths[..., :, None, :] == lengths[..., None, :, :]
            equal = (out[..., :, None, :, :] == out[..., None, :, :, :]).all(axis=-1)
            assert np.all(equal[same])
            if sampler == "_reveal_prefixes":
                assert np.all((out >= 0) & (out <= source))


class TestStreamKeys:
    def test_every_stream_key_seeds_a_distinct_state(self, monkeypatch):
        keys = []
        stream = simulation._stream
        monkeypatch.setattr(simulation, "_stream", lambda *key: keys.append(key) or stream(*key))
        cells = np.array([[9, 3], [4, 6], [5, 5], [2, 8]])
        for seed in (5, 2**32 - 1):
            run_infinite_experiment(small_infinite_config(instances=3, replications=2, seed=seed))
            run_finite_experiment(ExperimentConfig(
                k=2, instances=3, m_grid=(10,), n_grid=(10, 30), replications=2, seed=seed,
            ))
            run_empirical_experiment(cells, ExperimentConfig(
                k=2, include_baseline=True, m_grid=(8, 12), replications=2, seed=seed,
            ))
        # per seed: 3 instance, 3 baseline, 3 arrival and 3 reveal streams for
        # the instances (the infinite and finite protocols share the reveal
        # keys), and the empirical table's baseline stream; its reveal stream
        # is item 0's. Distinct key tuples are not enough: SeedSequence pads
        # its entropy with zeros, so [s, 4] and [s, 4, 0] seed the same state.
        # A key must never be another key with its trailing zeros dropped.
        assert len(set(keys)) == 2 * 13
        states = {tuple(np.random.SeedSequence(key).generate_state(4)) for key in keys}
        assert len(states) == len(set(keys))


class TestCommonReveals:
    """Every policy reveals prefixes of one z sequence per (replication, group)."""

    # a uniform marginal makes nsp, usp and owsp allocate alike
    INSTANCES = [
        (ConfoundedDistribution(np.full(4, 0.25)), TestBatchedDraws.Q),
        (TestBatchedDraws.A, TestBatchedDraws.Q),
    ]
    CELLS = np.array([[40, 25, 15], [12, 30, 18], [20, 20, 20], [35, 10, 15]])

    def run(self, protocol, **overrides):
        cfg = ExperimentConfig(**{
            "k": 3 if protocol == "empirical" else 2, "policies": ("nsp", "usp", "owsp"),
            "include_baseline": True, "m_grid": (60, 12, 30), "replications": 25, "seed": 8,
            **overrides,
        })
        if protocol == "empirical":
            return run_empirical_experiment(self.CELLS, cfg)
        return run_infinite_experiment(cfg, self.INSTANCES)

    @pytest.mark.parametrize("protocol", ["infinite", "empirical"])
    @pytest.mark.parametrize("alone", [{"include_baseline": False}, {"policies": ()}],
                             ids=["policies", "baseline"])
    def test_either_half_alone_gives_its_rows_of_a_run_with_both(self, protocol, alone):
        # the baseline and the policies draw from their own streams
        both = self.run(protocol).rows
        assert {r.policy for r in both} == {simulation.BASELINE, *NAMED_POLICIES}
        labels = {simulation.BASELINE} if "policies" in alone else set(NAMED_POLICIES)
        rows = self.run(protocol, **alone).rows
        assert {r.policy for r in rows} == labels
        assert rows == tuple(r for r in both if r.policy in labels)

    @pytest.mark.parametrize("protocol", ["infinite", "empirical"])
    def test_equal_allocations_reveal_equal_counts(self, protocol, monkeypatch):
        recorded = []
        kernel = simulation.q_hat_batch

        def recording(cells, a, fallback):
            recorded.append(cells)
            return kernel(cells, a, fallback)

        monkeypatch.setattr(simulation, "q_hat_batch", recording)
        self.run(protocol)
        ties = 0
        for cells in recorded:  # (reps, policies, grid, 4, k) per work item
            reps, k = cells.shape[0], cells.shape[-1]
            cells = np.moveaxis(cells.reshape(reps, -1, 4, k), 2, 1)  # (reps, 4, allocs, k)
            n = cells.sum(axis=-1)
            below = n[..., :, None] <= n[..., None, :]
            dominated = (cells[..., :, None, :] <= cells[..., None, :, :]).all(axis=-1)
            assert np.all(dominated[below])  # so equal allocations reveal equal counts
            ties += np.count_nonzero(n[..., :, None] == n[..., None, :]) - n.size
        assert ties > 0


# the keyed partial-sum aggregation that _sweep replaced, kept as reference


def ref_accumulate(partial, policy, kind, grid, errors):
    sums = np.cumsum(errors, axis=0)[-1]
    squares = np.cumsum(errors * errors, axis=0)[-1]
    for j, value in enumerate(grid):
        partial[(policy, kind, int(value))] = (
            errors.shape[0],
            float(sums[j]),
            float(squares[j]),
        )


def ref_merge(partials):
    merged = {}
    for partial in partials:
        for key, (c, s, s2) in partial.items():
            c0, s0, s20 = merged.get(key, (0, 0.0, 0.0))
            merged[key] = (c0 + c, s0 + s, s20 + s2)
    return merged


def ref_curve_from(merged, instances):
    rows = []
    for (policy, kind, value), (count, s, s2) in merged.items():
        mean = s / count
        var = max(s2 / count - mean * mean, 0.0)
        rows.append(simulation.CurveRow(
            policy, kind, value, mean, float(np.sqrt(var)), count, instances
        ))
    rows.sort(key=lambda r: (r.policy, r.grid_kind, r.grid_value))
    return simulation.ErrorCurve(tuple(rows))


@st.composite
def error_items(draw):
    """(items, labels, grid): per-item ``(reps, labels, sorted grid)`` error arrays."""
    labels = draw(st.lists(
        st.sampled_from(sorted((simulation.BASELINE,) + NAMED_POLICIES)),
        min_size=1, max_size=4, unique=True,
    ))
    grid = draw(st.lists(st.integers(1, 10**6), min_size=1, max_size=4, unique=True))
    reps = draw(st.lists(st.integers(1, 40), min_size=1, max_size=12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    zero_share = draw(st.sampled_from([0.0, 0.3, 1.0]))
    shapes = [(r, len(labels), len(grid)) for r in reps]
    items = [rng.uniform(0.0, 2.0, s) * (rng.random(s) >= zero_share) for s in shapes]
    return items, tuple(labels), tuple(grid)


class TestPoolingReference:
    # one label at one grid point makes each sum a contiguous reduction,
    # where np.sum would add pairwise instead of in order
    @given(error_items())
    @example(([np.linspace(0.1, 1.9, 20).reshape(20, 1, 1)] * 9, ("nsp",), (7,)))
    @settings(max_examples=300, deadline=None)
    def test_sweep_matches_keyed_partial_sums(self, case):
        items, labels, grid = case
        partials = []
        for errors in items:
            partial = {}
            for i, label in enumerate(labels):
                ref_accumulate(partial, label, "n", sorted(grid), errors[:, i])
            partials.append(partial)
        want = ref_curve_from(ref_merge(partials), 3)
        got = simulation._sweep(np.asarray, items, labels, "n", grid, 1, 3)
        assert repr(got) == repr(want)

    def test_one_item_starts_no_pool(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a worker pool was started for one work item")

        items = [np.linspace(0.1, 1.9, 20).reshape(10, 1, 2)]
        serial = simulation._sweep(np.asarray, items, ("nsp",), "m", (5, 7), 1, 1)
        monkeypatch.setattr(simulation, "ProcessPoolExecutor", no_pool)
        assert simulation._sweep(np.asarray, items, ("nsp",), "m", (5, 7), 4, 1) == serial
        cells = np.array([[9, 3], [4, 6], [5, 5], [2, 8]])
        cfg = ExperimentConfig(k=2, include_baseline=True, m_grid=(12, 20), replications=5)
        run_empirical_experiment(cells, cfg, workers=4)

    def test_two_items_start_no_pool(self, monkeypatch):
        # the first item runs in process, and one remaining item is no work to share
        def no_pool(*args, **kwargs):
            raise AssertionError("a worker pool was started for two work items")

        items = [np.linspace(0.1, 1.9, 20).reshape(10, 1, 2)] * 2
        serial = simulation._sweep(np.asarray, items, ("nsp",), "m", (5, 7), 1, 2)
        cfg = small_infinite_config(instances=2, replications=2)
        expected = run_infinite_experiment(cfg)
        monkeypatch.setattr(simulation, "_POOL_MIN_S", 0.0)
        monkeypatch.setattr(simulation, "ProcessPoolExecutor", no_pool)
        assert simulation._sweep(np.asarray, items, ("nsp",), "m", (5, 7), 4, 2) == serial
        assert run_infinite_experiment(cfg, workers=4) == expected


MAX_TEST_WORKERS = 3


@pytest.fixture
def pool_sizes(monkeypatch):
    """Make every sweep of >= 3 items pool; record each pool's ``max_workers``.

    The recorder checks the size before it delegates to the real pool, so a
    missing cap fails here instead of starting that many processes.
    """
    sizes = []
    real = simulation.ProcessPoolExecutor

    def recording(max_workers):
        sizes.append(max_workers)
        assert max_workers <= MAX_TEST_WORKERS, f"a pool of {max_workers} workers"
        return real(max_workers=max_workers)

    monkeypatch.setattr(simulation, "_POOL_MIN_S", 0.0)
    monkeypatch.setattr(simulation, "ProcessPoolExecutor", recording)
    return sizes


class TestWorkerPool:
    """The pool path, forced with ``_POOL_MIN_S = 0`` on sweeps small enough to test."""

    @pytest.mark.parametrize("n_items, workers, size", [(3, 64, 2), (4, 64, 3), (6, 2, 2)])
    def test_pool_size_is_capped_at_the_remaining_items(self, pool_sizes, n_items, workers,
                                                        size):
        items = [np.linspace(0.1, 1.9, 20).reshape(10, 1, 2) * (i + 1) for i in range(n_items)]
        serial = simulation._sweep(np.asarray, items, ("nsp",), "m", (5, 7), 1, n_items)
        assert pool_sizes == []
        pooled = simulation._sweep(np.asarray, items, ("nsp",), "m", (5, 7), workers, n_items)
        assert pool_sizes == [size]
        assert pooled == serial

    def test_infinite_pool_matches_serial(self, pool_sizes):
        cfg = small_infinite_config(instances=3, replications=3)
        serial = run_infinite_experiment(cfg)
        assert run_infinite_experiment(cfg, workers=2) == serial
        assert pool_sizes == [2]

    @pytest.mark.parametrize("explicit", [False, True])
    def test_finite_pool_matches_serial(self, pool_sizes, explicit):
        cfg = TestFiniteProtocol().config(instances=3, replications=3)
        names = ("nsp_worst", "usp_worst", "owsp_worst")
        instances = [adversarial_instance(w) for w in names] if explicit else None
        serial = run_finite_experiment(cfg, instances)
        assert run_finite_experiment(cfg, instances, workers=2) == serial
        assert pool_sizes == [2]

    def test_strict_fallback_raises_from_a_pooled_item(self, pool_sizes):
        # the first item, run in process, is fine; nsp gives groups (0,1) and
        # (1,0) of nsp_worst nothing at m=20, so the pooled items raise
        fine = (ConfoundedDistribution(np.full(4, 0.25)), ConditionalTable(np.full((4, 2), 0.5)))
        instances = [fine] + [adversarial_instance("nsp_worst")] * 2
        cfg = ExperimentConfig(
            k=2, policies=("nsp",), m_grid=(20,), replications=2, fallback="error"
        )
        messages = []
        for workers in (1, 2):
            with pytest.raises(DegenerateGroupError) as err:
                run_infinite_experiment(cfg, instances=instances, workers=workers)
            messages.append(str(err.value))
        assert pool_sizes == [2]
        assert messages[0] == messages[1]
        assert "(y=0,t=1), (y=1,t=0)" in messages[0]

    def test_degenerate_error_survives_pickling(self):
        # a strict sweep's error leaves a pool worker as a pickle
        err = DegenerateGroupError([(1, 0), (0, 1)])
        copy = pickle.loads(pickle.dumps(err))
        assert type(copy) is DegenerateGroupError
        assert copy.groups == err.groups == ((0, 1), (1, 0))
        assert str(copy) == str(err) == (
            "no deconfounded samples in positive-mass group(s) (y=0,t=1), (y=1,t=0)"
        )

    def test_strict_finite_names_the_first_degenerate_estimate(self, pool_sizes, monkeypatch):
        # the first item, run in process, is fine; on nsp_worst several
        # (replication, policy, n) estimates leave different positive-mass
        # groups without reveals, and the error names those of the first in
        # that C order, from the first pooled item
        fine = (ConfoundedDistribution(np.full(4, 0.25)), ConditionalTable(np.full((4, 2), 0.5)))
        instances = [fine] + [adversarial_instance("nsp_worst")] * 2
        settings = dict(k=2, policies=("nsp", "usp", "owsp"), m_grid=(20,),
                        n_grid=(20, 100, 500), replications=4, seed=1)
        groups = []
        for workers in (1, 2):
            with pytest.raises(DegenerateGroupError) as err:
                run_finite_experiment(ExperimentConfig(fallback="error", **settings),
                                      instances=instances, workers=workers)
            groups.append(err.value.groups)
        assert pool_sizes == [2]
        assert groups == [((0, 1),)] * 2  # the last degenerate estimate's are ((1, 0),)

        inputs = []
        kernel = simulation.q_hat_batch

        def recorded(cells, a_hat, fallback):
            inputs.append((cells.copy(), a_hat.copy()))
            return kernel(cells, a_hat, fallback)

        monkeypatch.setattr(simulation, "q_hat_batch", recorded)
        run_finite_experiment(ExperimentConfig(**settings), instances=instances[:2])
        # read per estimate, in call order, whatever tables a call stacks
        cells = np.concatenate([c.reshape(-1, 4, 2) for c, _ in inputs])
        a_hat = np.concatenate([np.broadcast_to(a, c.shape[:-1]).reshape(-1, 4)
                                for c, a in inputs])
        empty = (cells.sum(axis=-1) == 0) & (a_hat > 0)
        degenerate = np.flatnonzero(empty.any(axis=1))
        assert degenerate[0] >= 4 * 3 * 3  # every estimate of the fine item
        assert tuple(GROUPS[g] for g in np.flatnonzero(empty[degenerate[0]])) == groups[0]
        assert len(np.unique(empty[degenerate], axis=0)) > 1


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

    def test_rejects_a_config_without_methods(self):
        with pytest.raises(ValidationError) as info:
            ExperimentConfig(policies=(), include_baseline=False)
        assert str(info.value) == "config selects no methods to run"

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
            {"include_baseline": "yes"},
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

    @pytest.mark.parametrize("fallback", ["strict", "Uniform", None])
    def test_rejects_unknown_fallback_as_the_estimators_do(self, fallback):
        with pytest.raises(ValidationError) as info:
            ExperimentConfig(fallback=fallback)
        assert str(info.value) == (
            f"fallback must be one of ('error', 'uniform'), got {fallback!r}"
        )

    def test_rejects_negative_seed(self):
        with pytest.raises(ValidationError):
            ExperimentConfig(seed=-1)

    @pytest.mark.parametrize("seed", [2**32, 2**32 + 5, 2**64])
    def test_rejects_seed_past_32_bits(self, seed):
        with pytest.raises(ValidationError, match="seed"):
            ExperimentConfig(seed=seed)
        assert ExperimentConfig(seed=2**32 - 1).seed == 2**32 - 1

    @pytest.mark.parametrize(
        "field",
        [{"policies": ("nsp", "nsp", "usp")}, {"m_grid": (50, 50)}, {"n_grid": (100, 400, 100)}],
    )
    def test_rejects_repeated_entries(self, field):
        (name,) = field
        with pytest.raises(ValidationError, match=f"{name} repeats"):
            ExperimentConfig(**field)

    def test_rejects_bool_seed(self):
        # bool is an int subclass; a flag passed as a seed is a mistake
        with pytest.raises(ValidationError, match="seed"):
            ExperimentConfig(seed=True)

    @pytest.mark.parametrize("workers", [0, -2, 1.5, True, "2"])
    def test_rejects_bad_workers(self, workers):
        cells = np.full((4, 2), 5)
        finite = ExperimentConfig(
            k=2, policies=("usp",), m_grid=(10,), n_grid=(20,), replications=2, seed=1
        )
        runs = [
            lambda: run_infinite_experiment(small_infinite_config(), workers=workers),
            lambda: run_finite_experiment(finite, workers=workers),
            lambda: run_empirical_experiment(
                cells, small_infinite_config(m_grid=(8,)), workers=workers
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

    def test_shared_randomness_is_an_unknown_config_field(self, tmp_path, capsys):
        # the finite protocol has one reveal model, so no option selects one
        with pytest.raises(TypeError, match="shared_randomness"):
            ExperimentConfig(shared_randomness=True)
        cfg, out = tmp_path / "cfg.json", tmp_path / "out.csv"
        for value in (True, False):
            cfg.write_text(json.dumps({"k": 2, "m_grid": [10], "n_grid": [10, 20],
                                       "replications": 2, "seed": 1,
                                       "shared_randomness": value}))
            assert main(["simulate-finite", "--config", str(cfg), "--out", str(out)]) == 2
            assert capsys.readouterr().err == (
                f"error: {cfg}: unknown config fields ['shared_randomness']\n"
            )
        assert not out.exists()

    def test_n_grid_only_for_finite(self):
        # the infinite and empirical protocols sweep m_grid alone
        cells = np.full((4, 2), 5)
        cfg = small_infinite_config(m_grid=(8,), n_grid=(100, 200))
        with pytest.raises(ValidationError, match="n_grid applies to the finite protocol"):
            run_infinite_experiment(cfg)
        with pytest.raises(ValidationError, match="n_grid applies to the finite protocol"):
            run_empirical_experiment(cells, cfg)

    @pytest.mark.parametrize("policies", ["nsp", "owsp", ""])
    def test_rejects_a_bare_string_of_policies(self, policies):
        with pytest.raises(ValidationError, match="policies must be a list"):
            ExperimentConfig(policies=policies)

    @pytest.mark.parametrize(
        "field, message",
        [({"policies": None}, "policies must be a list of policy names, got None"),
         ({"policies": 3}, "policies must be a list of policy names, got 3"),
         ({"m_grid": 100}, "m_grid must be a list of positive integers, got 100"),
         ({"m_grid": "100"}, "m_grid must be a list of positive integers, got the string '100'"),
         ({"n_grid": 5}, "n_grid must be a list of positive integers, got 5")],
    )
    def test_rejects_non_list_fields(self, field, message):
        with pytest.raises(ValidationError) as info:
            ExperimentConfig(**field)
        assert str(info.value) == message

    @pytest.mark.parametrize("value", [2**63, 2**70])
    @pytest.mark.parametrize("name", ["m_grid", "n_grid"])
    def test_rejects_grid_entries_past_int64(self, name, value):
        with pytest.raises(ValidationError) as info:
            ExperimentConfig(**{name: [50, value]})
        assert str(info.value) == f"{name} entries must be below 2**63, got {value}"


class TestStreamContract:
    """Golden rows pinning the RNG stream keying and draw order.

    Each work item draws all replications of a stream in one call, in
    replication, row and sorted length order. Every grid draw is nested:
    every policy reveals prefixes of one z sequence (one random order, for
    the empirical table) per (replication, group) from one reveal stream
    per item, and the baseline prefixes of one sequence of whole records
    per replication from its own stream, as do the finite protocol's
    arrivals. The policy rows below were recorded when the infinite and
    empirical protocols took this reveal model, and the infinite
    ``deconf-only`` rows at m = 100 when the infinite baseline's grid draws
    became nested (its first grid point draws as before), so any change to
    the keying, the draw order or the k=2 arithmetic fails here. k >= 3
    sums may move by a few ulp and are compared within 1e-12 relative.
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
            ("deconf-only", 30, 0.18705536592146244, 0.15287464309518217, 12),
            ("deconf-only", 100, 0.07479963968133925, 0.0440940274572649, 12),
            ("nsp", 30, 0.06118740262172293, 0.04467983254353422, 12),
            ("nsp", 100, 0.02201087081625221, 0.02640377476987347, 12),
            ("owsp", 30, 0.04239900321187722, 0.025580818018159267, 12),
            ("owsp", 100, 0.019717514577706763, 0.024348780395080413, 12),
            ("usp", 30, 0.03885441778669566, 0.02715767521813452, 12),
            ("usp", 100, 0.01989008539979996, 0.01858090196287569, 12),
        ]

    def finite_config(self):
        return ExperimentConfig(
            k=2,
            instances=2,
            policies=("nsp", "usp", "owsp"),
            m_grid=(20,),
            n_grid=(20, 60, 200),
            replications=6,
            seed=7,
        )

    def test_finite_k2_shared_streams(self):
        assert self.rows(run_finite_experiment(self.finite_config())) == [
            ("nsp", 20, 0.1725432070187278, 0.12890585337680216, 12),
            ("nsp", 60, 0.1129222578761801, 0.08652029444688315, 12),
            ("nsp", 200, 0.06733260092803113, 0.06032503529066996, 12),
            ("owsp", 20, 0.1725432070187278, 0.12890585337680216, 12),
            ("owsp", 60, 0.11398322964176588, 0.08502568341460048, 12),
            ("owsp", 200, 0.09091230634744528, 0.09073670701626335, 12),
            ("usp", 20, 0.1725432070187278, 0.12890585337680216, 12),
            ("usp", 60, 0.11624879151897509, 0.09271608978695489, 12),
            ("usp", 200, 0.07269343106611569, 0.08700373126252668, 12),
        ]

    def test_nsp_worst_uniform_fallback(self):
        # nsp spends [18, 0, 0, 2] of m=20 here, so groups (0,1) and (1,0)
        # take the uniform row in every replication
        a, q = adversarial_instance("nsp_worst")
        assert allocate_infinite("nsp", a, 20).tolist() == [18, 0, 0, 2]
        cfg = ExperimentConfig(
            k=2,
            policies=("nsp", "usp", "owsp"),
            include_baseline=True,
            m_grid=(20,),
            replications=10,
            seed=5,
        )
        assert self.rows(run_infinite_experiment(cfg, instances=[(a, q)])) == [
            ("deconf-only", 20, 0.4184214094554206, 0.12882810370626907, 10),
            ("nsp", 20, 0.2863236244315363, 0.1726880571812698, 10),
            ("owsp", 20, 0.07917617937828977, 0.06707901086148815, 10),
            ("usp", 20, 0.1926794605593504, 0.22607336956968166, 10),
        ]

    def assert_within_ulps(self, got, expected):
        assert [(r[0], r[1], r[4]) for r in got] == [(e[0], e[1], e[4]) for e in expected]
        for row, want in zip(got, expected):
            assert row[2] == pytest.approx(want[2], rel=1e-12, abs=0.0)
            assert row[3] == pytest.approx(want[3], rel=1e-12, abs=0.0)

    def test_empirical_k3(self):
        cells = np.array([[30, 12, 8], [9, 14, 6], [11, 20, 25], [16, 7, 22]])
        cfg = ExperimentConfig(
            k=3,
            policies=("nsp", "usp", "owsp"),
            include_baseline=True,
            m_grid=(40, 12),
            replications=6,
            seed=17,
        )
        self.assert_within_ulps(self.rows(run_empirical_experiment(cells, cfg)), [
            ("deconf-only", 12, 0.31836259224064106, 0.15436595058559563, 6),
            ("deconf-only", 40, 0.24743080412135288, 0.07692494022488551, 6),
            ("nsp", 12, 0.0722500115658938, 0.045073040964816874, 6),
            ("nsp", 40, 0.03395800735280727, 0.03281144935983304, 6),
            ("owsp", 12, 0.14213069860768654, 0.0855091152027379, 6),
            ("owsp", 40, 0.027096142243725158, 0.02740330464712026, 6),
            ("usp", 12, 0.10973040181703242, 0.07034868682561858, 6),
            ("usp", 40, 0.03166947417055407, 0.03923050996305596, 6),
        ])

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
            ("deconf-only", 40, 0.12607549131683585, 0.07356923755308407, 12),
            ("nsp", 40, 0.07225669951314444, 0.032096627853412225, 12),
            ("owsp", 40, 0.07011103110297655, 0.02676365538346134, 12),
            ("usp", 40, 0.06689038692885728, 0.03515035672386916, 12),
        ]
        self.assert_within_ulps(self.rows(run_infinite_experiment(cfg)), expected)
