"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Statistical criteria run at reduced scale with fixed seeds and the stated
tolerances, so the whole module is deterministic. Run with ``-s`` to see
the per-criterion lines as they complete.
"""

import math

import numpy as np
import pytest

from deconf import (
    AccuracySpec,
    ConditionalTable,
    ConfoundedDistribution,
    ExperimentConfig,
    adversarial_instance,
    allocate_finite,
    allocate_infinite,
    ate_exact,
    binary_conditional,
    finite_feasible,
    hardness_pair,
    joint_from_parts,
    m_base,
    m_policy,
    parts_from_joint,
    policy_weights,
    random_instance,
    run_finite_experiment,
    run_infinite_experiment,
    solve_min_m,
    worst_case_M,
)
from deconf.estimation import (
    estimate_finite_counts,
    estimate_with_known_confounded_counts,
)
from deconf.model import ate_batch


def report(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:>2} {name}: {status}  {detail}")
    assert ok, f"criterion {number} ({name}): {detail}"


@pytest.fixture(scope="module")
def random_sweep_curve():
    """300 random k=2 instances x 100 replications at m = 1200."""
    config = ExperimentConfig(
        k=2,
        instances=300,
        policies=("nsp", "usp", "owsp"),
        include_baseline=True,
        m_grid=(1200,),
        replications=100,
        seed=20_260_808,
    )
    return run_infinite_experiment(config)


def test_criterion_1_confounded_data_benefit(random_sweep_curve):
    baseline = random_sweep_curve.mean("deconf-only", 1200)
    nsp = random_sweep_curve.mean("nsp", 1200)
    ratio = baseline / nsp
    report(
        1,
        "confounded-data benefit",
        ratio >= 1.8,
        f"deconf-only/nsp mean-error ratio = {ratio:.3f} (need >= 1.8)",
    )


def test_criterion_2_policy_ordering_on_average(random_sweep_curve):
    owsp = random_sweep_curve.mean("owsp", 1200)
    usp = random_sweep_curve.mean("usp", 1200)
    nsp = random_sweep_curve.mean("nsp", 1200)
    ok = owsp <= usp * 1.02 and owsp <= nsp * 1.02
    report(
        2,
        "average policy ordering",
        ok,
        f"owsp={owsp:.5f} usp={usp:.5f} nsp={nsp:.5f} (2% slack)",
    )


def test_criterion_3_adversarial_reproductions():
    means = {}
    for which in ("nsp_worst", "usp_worst", "owsp_worst"):
        a, q = adversarial_instance(which)
        config = ExperimentConfig(
            k=2,
            policies=("nsp", "usp", "owsp"),
            m_grid=(500,),
            replications=2000,
            seed=97,
        )
        curve = run_infinite_experiment(config, instances=[(a, q)])
        means[which] = {pol: curve.mean(pol, 500) for pol in ("nsp", "usp", "owsp")}
    m = means["nsp_worst"]
    ok_a = m["nsp"] > m["usp"] and m["nsp"] > m["owsp"]
    m = means["usp_worst"]
    ok_b = m["usp"] > m["nsp"] and m["usp"] > m["owsp"]
    m = means["owsp_worst"]
    ok_c = m["owsp"] >= m["usp"]
    detail = "; ".join(
        f"{w}: " + " ".join(f"{p}={v:.4f}" for p, v in sorted(means[w].items()))
        for w in means
    )
    report(3, "adversarial worst cases", ok_a and ok_b and ok_c, detail)


def test_criterion_4_averaged_q_panels():
    rng = np.random.default_rng(1234)
    results = {}
    for which in ("nsp_worst", "usp_worst", "owsp_worst"):
        a, _ = adversarial_instance(which)
        qs = [binary_conditional(rng.uniform(size=4)) for _ in range(500)]
        config = ExperimentConfig(
            k=2,
            policies=("nsp", "usp", "owsp"),
            m_grid=(500,),
            replications=100,
            seed=555,
        )
        curve = run_infinite_experiment(config, instances=[(a, q) for q in qs])
        results[which] = {pol: curve.mean(pol, 500) for pol in ("nsp", "usp", "owsp")}
    ok = all(
        r["owsp"] <= r["usp"] * 1.02 and r["owsp"] <= r["nsp"] * 1.02
        for r in results.values()
    )
    detail = "; ".join(
        f"{w}: " + " ".join(f"{p}={v:.4f}" for p, v in sorted(results[w].items()))
        for w in results
    )
    report(4, "averaged-q panels", ok, detail)


def test_criterion_5_algebraic_dominance():
    spec = AccuracySpec(0.1, 0.05, 2, 0.1)
    worst_usp_gap = 0.0
    worst_base_gap = 0.0
    for seed in range(10_000):
        parts = parts_from_joint(random_instance(2, seed))
        usp = m_policy(parts.a, parts.q, spec, "usp").value
        owsp = m_policy(parts.a, parts.q, spec, "owsp").value
        nsp = m_policy(parts.a, parts.q, spec, "nsp").value
        base = m_base(joint_from_parts(parts.a, parts.q), spec).value
        worst_usp_gap = max(worst_usp_gap, (owsp - usp) / usp)
        worst_base_gap = max(worst_base_gap, (nsp - base) / base)
    ok = worst_usp_gap <= 1e-9 and worst_base_gap <= 1e-9
    report(
        5,
        "bound dominance on 10k instances",
        ok,
        f"max rel (m_owsp - m_usp) = {worst_usp_gap:.2e}, "
        f"max rel (m_nsp - m_base) = {worst_base_gap:.2e}",
    )


def test_criterion_6_worst_case_constancy():
    spec = AccuracySpec(0.1, 0.05, 2, 0.1)
    owsp_values = set()
    dominated = True
    for seed in range(100):
        parts = parts_from_joint(random_instance(2, 50_000 + seed))
        owsp = worst_case_M(parts.a, spec, "owsp")
        owsp_values.add(owsp)
        dominated &= owsp <= worst_case_M(parts.a, spec, "nsp")
    ok = owsp_values == {2 * spec.C / spec.beta**2} and dominated
    report(
        6,
        "worst-case constancy",
        ok,
        f"distinct M_owsp values = {len(owsp_values)}, dominated by M_nsp = {dominated}",
    )


def instance_beta(q):
    """Largest beta with every conditional entry inside [beta, 1-beta]."""
    return float(min(q.q.min(), 1.0 - q.q.max()))


def test_criterion_7_bound_sufficiency():
    worst_rate = 0.0
    for seed in range(50):
        parts = parts_from_joint(random_instance(2, 90_000 + seed))
        beta = min(max(instance_beta(parts.q), 1e-6), 0.499)
        spec = AccuracySpec(0.2, 0.1, 2, beta)
        m = math.ceil(m_policy(parts.a, parts.q, spec, "nsp").value)
        alloc = allocate_infinite("nsp", parts.a, m)
        truth = ate_exact(joint_from_parts(parts.a, parts.q))
        rng = np.random.default_rng(seed)
        cells = [
            [rng.multinomial(int(alloc[g]), parts.q.q[g]) for g in range(4)]
            for _ in range(500)
        ]
        est = estimate_with_known_confounded_counts(parts.a, cells)
        failures = int(np.sum(np.abs(est.ate_hat - truth) >= spec.epsilon))
        worst_rate = max(worst_rate, failures / 500.0)
        if worst_rate > spec.delta:
            break
    report(
        7,
        "upper bound sufficiency",
        worst_rate <= 0.1,
        f"worst empirical failure rate = {worst_rate:.4f} (delta = 0.1)",
    )


def test_criterion_8_hardness_gap():
    a = ConfoundedDistribution(np.array([0.4, 0.1, 0.2, 0.3]))
    pair = hardness_pair(a, gamma=1e-4, q_floor=1 - 1e-6)
    target = 0.6 * (1 - 1e-6)
    ok = abs(pair.gap - target) <= 1e-3
    report(8, "hardness-pair gap", ok, f"gap = {pair.gap:.8f}, target = {target:.8f}")


def test_criterion_9_finite_data_ordering():
    n_grid = tuple(int(round(v)) for v in np.geomspace(100, 10_000, 7))
    config = ExperimentConfig(
        k=2,
        instances=200,
        policies=("nsp", "usp", "owsp"),
        m_grid=(100,),
        n_grid=n_grid,
        replications=100,
        seed=777,
    )
    curve = run_finite_experiment(config)
    ordering_ok = True
    details = []
    for n in n_grid:
        if n < 1000:
            continue
        owsp = curve.mean("owsp", n)
        nsp = curve.mean("nsp", n)
        usp = curve.mean("usp", n)
        details.append(f"n={n}: owsp={owsp:.4f} nsp={nsp:.4f} usp={usp:.4f}")
        ordering_ok &= owsp <= nsp * 1.02 and owsp <= usp * 1.02

    shared = run_finite_experiment(
        ExperimentConfig(
            k=2,
            instances=20,
            policies=("nsp", "usp", "owsp"),
            m_grid=(100,),
            n_grid=(100,),
            replications=20,
            seed=778,
        )
    )
    at_saturation = {row.policy: row.mean_abs_error for row in shared.rows}
    equal_ok = (
        at_saturation["nsp"] == at_saturation["usp"] == at_saturation["owsp"]
    )
    report(
        9,
        "finite-data ordering",
        ordering_ok and equal_ok,
        "; ".join(details) + f"; equality at n=m=100: {equal_ok}",
    )


def test_criterion_10_finite_bound_consistency():
    spec_eps, spec_delta = 0.25, 0.1
    worst_rate = 0.0
    monotone_ok = True
    for seed in range(20):
        parts = parts_from_joint(random_instance(2, 70_000 + seed))
        beta = min(max(instance_beta(parts.q), 1e-6), 0.499)
        spec = AccuracySpec(spec_eps, spec_delta, 2, beta)
        weights = policy_weights("owsp", parts.a)

        n = 100_000
        m_star = solve_min_m(parts.a, parts.q, weights, n, spec)
        while m_star is None and n < 10**10:
            n *= 4
            m_star = solve_min_m(parts.a, parts.q, weights, n, spec)
        assert m_star is not None, f"instance {seed} infeasible even at n={n}"

        # Monte Carlo at the planned (m, n)
        truth = ate_exact(joint_from_parts(parts.a, parts.q))
        alloc = allocate_infinite("owsp", parts.a, m_star)
        rng = np.random.default_rng(2_000 + seed)
        n_counts, m_counts = [], []
        for _ in range(500):
            n_counts.append(rng.multinomial(n, parts.a.a))
            m_counts.append([rng.multinomial(int(alloc[g]), parts.q.q[g]) for g in range(4)])
        est = estimate_finite_counts(n_counts, m_counts)
        failures = int(np.sum(np.abs(est.ate_hat - truth) >= spec_eps))
        worst_rate = max(worst_rate, failures / 500.0)

        # margin monotone on a 10x10 grid around the solution
        m_axis = np.unique(np.linspace(max(1, m_star // 2), m_star * 2, 10, dtype=int))
        n_axis = np.unique(np.linspace(max(1, n // 2), n * 2, 10, dtype=int))
        margins = np.array(
            [
                [
                    finite_feasible(parts.a, parts.q, weights, int(mm), int(nn), spec).margin
                    for nn in n_axis
                ]
                for mm in m_axis
            ]
        )
        monotone_ok &= bool(np.all(np.diff(margins, axis=0) >= -1e-12))
        monotone_ok &= bool(np.all(np.diff(margins, axis=1) >= -1e-12))
    ok = worst_rate <= spec_delta and monotone_ok
    report(
        10,
        "finite-data bound consistency",
        ok,
        f"worst failure rate = {worst_rate:.4f} (delta = {spec_delta}), "
        f"margin monotone = {monotone_ok}",
    )


def test_criterion_11_property_suites_standalone():
    """Key invariants re-checked directly, with no simulation engine involved."""
    rng_seeds = range(200)
    ok = True
    notes = []

    # core model: simplex closure, roundtrip, symmetry, no-confounding collapse
    for seed in rng_seeds:
        joint = random_instance(2 + seed % 3, seed)
        parts = parts_from_joint(joint)
        if abs(joint.p.sum() - 1.0) > 1e-12 or abs(parts.a.a.sum() - 1.0) > 1e-12:
            ok, _ = False, notes.append(f"simplex closure broke at seed {seed}")
            break
        back = joint_from_parts(parts.a, parts.q)
        if not np.allclose(back.p, joint.p, atol=1e-12):
            ok, _ = False, notes.append(f"roundtrip broke at seed {seed}")
            break
        swapped = ate_exact(
            type(joint)(joint.p[[1, 0, 3, 2]])
        )
        if abs(swapped + ate_exact(joint)) > 1e-12:
            ok, _ = False, notes.append(f"label symmetry broke at seed {seed}")
            break
    a = ConfoundedDistribution(np.array([0.4, 0.1, 0.2, 0.3]))
    flat = binary_conditional((0.7, 0.7, 0.7, 0.7))
    collapse = ate_exact(joint_from_parts(a, flat)) - (0.3 / 0.4 - 0.2 / 0.6)
    if abs(collapse) > 1e-12:
        ok = False
        notes.append("no-confounding collapse failed")

    # policies: totals, caps, weight normalization
    rng = np.random.default_rng(0)
    for _ in range(200):
        parts = parts_from_joint(random_instance(2, rng))
        m = int(rng.integers(0, 500))
        for kind in ("nsp", "usp", "owsp"):
            x = policy_weights(kind, parts.a).x
            if abs(x.sum() - 1.0) > 1e-12:
                ok = False
                notes.append("weights not normalized")
            counts = allocate_infinite(kind, parts.a, m)
            if counts.sum() != m or np.any(np.abs(counts - m * x) >= 1.0):
                ok = False
                notes.append("infinite allocation invariant failed")
        available = rng.integers(0, 60, size=4)
        m_fin = int(rng.integers(0, available.sum() + 1))
        for kind in ("nsp", "usp", "owsp"):
            counts = allocate_finite(kind, available, m_fin, parts.a)
            if counts.sum() != m_fin or np.any(counts > available):
                ok = False
                notes.append("finite allocation invariant failed")

    # estimation: MLE normalization and z-relabeling equivariance
    for seed in range(100):
        gen = np.random.default_rng(seed)
        joint = random_instance(3, gen)
        parts = parts_from_joint(joint)
        cells = gen.multinomial(300, joint.p.ravel()).reshape(4, 3)
        perm = gen.permutation(3)
        # the table and its z-relabeling as one stack
        est = estimate_with_known_confounded_counts(parts.a, [cells, cells[:, perm]])
        if not np.allclose(est.q_hat.sum(axis=-1), 1.0, atol=1e-12):
            ok = False
            notes.append("q_hat rows not normalized")
        if est.ate_hat[1] != est.ate_hat[0]:
            ok = False
            notes.append("z-relabeling changed the estimate")

    report(11, "standalone property suites", ok, "; ".join(notes) or "all invariants hold")


def test_criterion_12_two_confounders_at_fixed_m():
    """Joint reveals of z = 2*z1 + z2 beat the bias of adjusting for one confounder.

    The instance is ``tests/test_model.py::TestTwoConfounders``'. Adjusting for
    z1 alone sums q over z2 (and the reverse); the gaps to the true ATE are
    exact bias floors, which no amount of data on one confounder removes.
    """
    a = np.array([0.4, 0.1, 0.2, 0.3])
    q = np.array([(0.1, 0.2, 0.3, 0.4), (0.25, 0.25, 0.25, 0.25),
                  (0.4, 0.1, 0.1, 0.4), (0.3, 0.3, 0.2, 0.2)])
    joint = (a[:, None] * q).reshape(4, 2, 2)  # (group, z1, z2)
    ate = ate_batch(joint.reshape(4, 4))
    floors = {name: abs(ate_batch(joint.sum(axis=axis)) - ate)
              for name, axis in (("z1", 2), ("z2", 1))}
    exact_ok = (abs(ate - 0.4002664) < 5e-8 and abs(floors["z1"] - 0.0091394) < 5e-8
                and abs(floors["z2"] - 0.0139870) < 5e-8)
    config = ExperimentConfig(k=4, policies=("nsp", "usp", "owsp"), m_grid=(400, 1600),
                              replications=2000, seed=12)
    curve = run_infinite_experiment(
        config, instances=[(ConfoundedDistribution(a), ConditionalTable(q))])
    upper = {(row.policy, row.grid_value):
             (row.mean_abs_error, row.mean_abs_error + 4 * row.std_abs_error / row.reps**0.5)
             for row in curve.rows}
    ok = exact_ok and all(hi < floors["z1"] for (_, m), (_, hi) in upper.items() if m == 1600)
    detail = f"floors z1 = {floors['z1']:.7f}, z2 = {floors['z2']:.7f}; " + "; ".join(
        f"m={m}: " + " ".join(f"{pol}={upper[pol, m][0]:.5f}" for pol in config.policies)
        for m in config.m_grid
    ) + " (mean |err|; at m=1600 mean + 4 SE must be below the z1 floor)"
    report(12, "two confounders at fixed m", ok, detail)
