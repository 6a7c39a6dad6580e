"""Policy weights and integer allocations (infinite and finite regimes)."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deconf import (
    GROUPS,
    NAMED_POLICIES,
    AccuracySpec,
    ConfoundedDistribution,
    ExperimentConfig,
    ValidationError,
    allocate_finite,
    allocate_infinite,
    binary_conditional,
    group_index,
    lower_bound_w,
    m_policy,
    parts_from_joint,
    policy_weights,
    random_instance,
    worst_case_M,
)
from deconf.cli import build_parser
from deconf.policies import PolicyWeights, _allocate, named_policies

EXACT = 1e-12

marginals = st.builds(
    lambda seed: parts_from_joint(random_instance(2, seed)).a,
    st.integers(min_value=0, max_value=2**32 - 1),
)


class TestPolicyWeights:
    def test_usp_is_uniform(self):
        a = ConfoundedDistribution(np.array([0.7, 0.1, 0.1, 0.1]))
        assert np.array_equal(policy_weights("usp", a).x, np.full(4, 0.25))

    def test_nsp_is_identity(self):
        a = ConfoundedDistribution(np.array([0.4, 0.1, 0.2, 0.3]))
        assert np.allclose(policy_weights("nsp", a).x, a.a, atol=EXACT)

    def test_owsp_skewed_example(self):
        eta = 0.1
        a = ConfoundedDistribution(np.array([1 - 3 * eta, eta, eta, eta]))
        x = policy_weights("owsp", a).x
        assert np.allclose(x, [0.4375, 0.25, 0.0625, 0.25], atol=EXACT)

    def test_owsp_rejects_empty_arm(self):
        a = ConfoundedDistribution(np.array([0.6, 0.0, 0.4, 0.0]))
        with pytest.raises(ValidationError, match="arm"):
            policy_weights("owsp", a)

    @given(marginals)
    def test_weights_sum_to_one(self, a):
        for kind in ("nsp", "usp", "owsp"):
            assert policy_weights(kind, a).x.sum() == pytest.approx(1.0, abs=EXACT)

    @given(marginals)
    def test_owsp_halves_per_arm(self, a):
        x = policy_weights("owsp", a).x
        assert x[0] + x[2] == pytest.approx(0.5, abs=EXACT)
        assert x[1] + x[3] == pytest.approx(0.5, abs=EXACT)

    def test_scale_invariance_via_counts(self):
        counts = np.array([40.0, 10.0, 20.0, 30.0])
        small = ConfoundedDistribution(counts / counts.sum())
        large = ConfoundedDistribution(counts * 37.0 / (counts * 37.0).sum())
        for kind in ("nsp", "usp", "owsp"):
            assert np.array_equal(
                policy_weights(kind, small).x, policy_weights(kind, large).x
            )

    def test_custom_weights_passed_through(self):
        w = (0.1, 0.2, 0.3, 0.4)
        a = ConfoundedDistribution(np.full(4, 0.25))
        assert np.allclose(policy_weights(PolicyWeights(w), a).x, w, atol=EXACT)

    @pytest.mark.parametrize(
        "w, message",
        [((0.1, 0.2, 0.3), "weights: expected 4 entries, got (3,)"),
         ((-0.1, 0.3, 0.4, 0.4), "weights: entries must be finite and >= 0"),
         ((np.nan, 0.2, 0.3, 0.5), "weights: entries must be finite and >= 0"),
         ((np.inf, 0.2, 0.3, 0.5), "weights: entries must be finite and >= 0"),
         ((0.1, 0.2, 0.3, 0.3), f"weights: must sum to 1 (got {0.1 + 0.2 + 0.3 + 0.3!r})")],
    )
    def test_invalid_weights_messages(self, w, message):
        with pytest.raises(ValidationError) as info:
            PolicyWeights(np.array(w))
        assert str(info.value) == message


class TestAllocateInfinite:
    def test_owsp_largest_remainder_example(self):
        a = ConfoundedDistribution(np.array([0.4, 0.1, 0.2, 0.3]))
        assert allocate_infinite("owsp", a, 8).tolist() == [3, 1, 1, 3]

    def test_usp_tie_break_in_group_order(self):
        a = ConfoundedDistribution(np.full(4, 0.25))
        assert allocate_infinite("usp", a, 7).tolist() == [2, 2, 2, 1]

    def test_zero_budget(self):
        a = ConfoundedDistribution(np.array([0.4, 0.1, 0.2, 0.3]))
        for kind in ("nsp", "usp", "owsp"):
            assert allocate_infinite(kind, a, 0).tolist() == [0, 0, 0, 0]

    @given(marginals, st.integers(min_value=0, max_value=5000))
    @settings(max_examples=100)
    def test_counts_within_one_of_targets(self, a, m):
        for kind in ("nsp", "usp", "owsp"):
            x = policy_weights(kind, a).x
            counts = allocate_infinite(kind, a, m)
            assert counts.sum() == m
            assert np.all(np.abs(counts - m * x) < 1.0)


class TestAllocateFinite:
    def test_usp_bottleneck_example(self):
        alloc = allocate_finite("usp", (5, 50, 50, 50), 40)
        assert alloc.tolist() == [5, 12, 12, 11]

    def test_usp_even_split_tie_break(self):
        assert allocate_finite("usp", (50, 50, 50, 50), 6).tolist() == [2, 2, 1, 1]

    def test_owsp_symmetric_example(self):
        a = ConfoundedDistribution(np.full(4, 0.25))
        alloc = allocate_finite("owsp", (30, 30, 30, 30), 20, a)
        assert alloc.tolist() == [5, 5, 5, 5]

    def test_all_policies_coincide_at_saturation(self):
        available = (7, 3, 11, 9)
        a = ConfoundedDistribution(np.array([0.2, 0.3, 0.1, 0.4]))
        results = [
            allocate_finite(kind, available, 30, a).tolist()
            for kind in ("nsp", "usp", "owsp")
        ]
        assert results[0] == results[1] == results[2] == list(available)

    def test_overallocation_rejected(self):
        with pytest.raises(ValidationError, match="available"):
            allocate_finite("usp", (1, 1, 1, 1), 5)

    def test_owsp_arm_overflow_spills(self):
        # arm t=1 has only 3 records; its shortfall moves to arm t=0
        a = ConfoundedDistribution(np.array([0.25, 0.25, 0.25, 0.25]))
        alloc = allocate_finite("owsp", (20, 2, 20, 1), 20, a)
        assert alloc.sum() == 20
        assert alloc[1] + alloc[3] == 3

    def test_owsp_matches_infinite_when_unconstrained_even_m(self):
        # availability proportional to a_hat, generous caps, even m
        rng = np.random.default_rng(5)
        for _ in range(50):
            counts = rng.integers(1, 60, size=4)
            a_hat = ConfoundedDistribution(counts / counts.sum())
            m = int(rng.integers(1, 30)) * 2
            available = counts * m  # proportional and never binding
            fin = allocate_finite("owsp", available, m, a_hat)
            inf = allocate_infinite("owsp", a_hat, m)
            assert fin.tolist() == inf.tolist()

    @given(
        st.lists(st.integers(min_value=0, max_value=80), min_size=4, max_size=4),
        st.integers(min_value=0, max_value=320),
        marginals,
    )
    @settings(max_examples=100)
    def test_caps_and_totals(self, available, m, a_hat):
        total = sum(available)
        if m > total:
            m = total
        for kind in ("nsp", "usp", "owsp"):
            counts = allocate_finite(kind, available, m, a_hat)
            assert counts.sum() == m
            assert np.all(counts <= np.asarray(available))
            assert np.all(counts >= 0)


class TestBoundaryValidation:
    def test_non_integral_availability_rejected(self):
        with pytest.raises(ValidationError, match="integers"):
            allocate_finite("usp", (1.7, 2.2, 3.9, 4.0), 5)

    def test_integral_float_availability_accepted(self):
        assert allocate_finite("usp", (2.0, 2.0, 3.0, 4.0), 5).tolist() == [2, 1, 1, 1]

    @pytest.mark.parametrize("m", [2.5, True, -1, "3"])
    def test_budget_must_be_a_non_negative_int(self, m):
        a = ConfoundedDistribution(np.full(4, 0.25))
        with pytest.raises(ValidationError, match="m must be"):
            allocate_infinite("usp", a, m)
        with pytest.raises(ValidationError, match="m must be"):
            allocate_finite("usp", (5, 5, 5, 5), m)

    @pytest.mark.parametrize("policy, scale, m", [
        ("nsp", 1.0, 2**56),  # float shares past 2**53 round to m + 2
        ("owsp", 1.0, 2**56),  # and to m - 2
        ("nsp", 1 + 9e-13, 10**13),  # weights within CONSTRUCT_ATOL of 1 overshoot by 6
        ("custom", 1 + 9e-13, 10**13),  # and by 8
    ])
    def test_counts_that_miss_m_are_refused(self, policy, scale, m):
        a = ConfoundedDistribution(np.array([0.4, 0.1, 0.2, 0.3]) * scale)
        if policy == "custom":
            policy = PolicyWeights(np.full(4, 0.25 * scale))
        with pytest.raises(ValidationError, match=f"cannot allocate m={m} exactly"):
            allocate_infinite(policy, a, m)
        if isinstance(policy, PolicyWeights):  # the finite kernel rounds them when no cap binds
            with pytest.raises(ValidationError, match=f"cannot allocate m={m} exactly"):
                allocate_finite(policy, (m,) * 4, m, a)

    @pytest.mark.parametrize("m", [2**63, 2**70])
    def test_budget_past_int64_rejected(self, m):
        a = ConfoundedDistribution(np.array([0.4, 0.1, 0.2, 0.3]))
        for kind in NAMED_POLICIES:  # usp at 2**63 summed to m + 4, 2**70 overflowed
            with pytest.raises(ValidationError, match=r"m must be below 2\*\*63"):
                allocate_infinite(kind, a, m)
        with pytest.raises(ValidationError, match=f"cannot place m={m} samples"):
            allocate_finite("usp", (5, 5, 5, 5), m)

    def test_named_policies_drop_owsp_on_an_empty_arm(self):
        assert named_policies(ConfoundedDistribution(np.full(4, 0.25))) == ("nsp", "usp", "owsp")
        empty = ConfoundedDistribution(np.array([0.5, 0.0, 0.5, 0.0]))
        assert named_policies(empty) == ("nsp", "usp")


class TestArrayAllocations:
    """The allocators return the kernel's counts as read-only (4,) integer arrays."""

    A = ConfoundedDistribution(np.array([0.4, 0.1, 0.2, 0.3]))

    @pytest.mark.parametrize("policy", [*NAMED_POLICIES, PolicyWeights([0.1, 0.2, 0.3, 0.4])],
                             ids=[*NAMED_POLICIES, "custom"])
    @pytest.mark.parametrize("m", [0, 1, 7, 30])
    @pytest.mark.parametrize("available", [(7, 3, 11, 9), (30, 0, 1, 0), (8, 8, 8, 8)])
    def test_read_only_kernel_counts(self, policy, m, available):
        kind = "custom" if isinstance(policy, PolicyWeights) else policy
        weights = policy_weights(policy, self.A).x
        pairs = [(allocate_infinite(policy, self.A, m), _allocate(kind, m, weights))]
        if m <= sum(available):
            x = weights if kind == "custom" else self.A.a
            pairs.append((allocate_finite(policy, available, m, self.A),
                          _allocate(kind, m, x, np.array(available))))
        for counts, want in pairs:
            assert counts.shape == (4,) and counts.dtype.kind == "i"
            assert counts.tolist() == want.tolist() and counts.sum() == m
            with pytest.raises(ValueError, match="read-only"):
                counts[0] = 1

    def test_bad_inputs_keep_their_messages(self):
        with pytest.raises(ValidationError, match=r"^cannot place m=5 samples; only 4 available$"):
            allocate_finite("usp", (1, 1, 1, 1), 5)
        for available in ((1, 2, 3), (1, -1, 3, 4)):
            with pytest.raises(ValidationError,
                               match=r"^available: expected 4 non-negative integers$"):
                allocate_finite("usp", available, 1)
        for m, message in ((-1, "m must be >= 0, got -1"), (2.5, "m must be an integer, got 2.5")):
            with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
                allocate_infinite("usp", self.A, m)
            with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
                allocate_finite("usp", (5, 5, 5, 5), m)


class TestPolicyVocabulary:
    """A policy is a name in NAMED_POLICIES or a PolicyWeights, and nothing else."""

    A = ConfoundedDistribution(np.array([0.4, 0.1, 0.2, 0.3]))
    Q = binary_conditional((0.5, 0.2, 0.7, 0.6))
    SPEC = AccuracySpec(epsilon=0.1, delta=0.05, k=2, beta=0.1)
    CALLS = {
        "policy_weights": lambda p, c: policy_weights(p, c.A),
        "allocate_infinite": lambda p, c: allocate_infinite(p, c.A, 10),
        "allocate_finite": lambda p, c: allocate_finite(p, (5, 5, 5, 5), 10, c.A),
        "m_policy": lambda p, c: m_policy(c.A, c.Q, c.SPEC, p),
        "worst_case_M": lambda p, c: worst_case_M(c.A, c.SPEC, p),
        "lower_bound_w": lambda p, c: lower_bound_w(c.A, c.SPEC, p),
    }
    NAMED_ONLY = ("worst_case_M", "lower_bound_w")

    @pytest.mark.parametrize("func", list(CALLS))
    @pytest.mark.parametrize(
        "policy",
        ["bogus", "NSP", None, ["nsp"], np.full(4, 0.25)],
        ids=["bogus", "upper-case", "none", "list", "array"],
    )
    def test_anything_else_is_an_unknown_policy(self, func, policy):
        with pytest.raises(ValidationError, match="unknown policy"):
            self.CALLS[func](policy, self)

    @pytest.mark.parametrize("func", list(CALLS))
    def test_policy_weights_are_the_custom_policy(self, func):
        weights = PolicyWeights(np.array([0.1, 0.2, 0.3, 0.4]))
        if func in self.NAMED_ONLY:
            with pytest.raises(ValidationError, match="nsp, usp, and owsp only"):
                self.CALLS[func](weights, self)
        else:
            self.CALLS[func](weights, self)

    def test_policy_weights_pass_through_unchanged(self):
        weights = PolicyWeights(np.array([0.1, 0.2, 0.3, 0.4]))
        assert policy_weights(weights, self.A) is weights

    def test_one_list_of_names(self):
        assert NAMED_POLICIES == ("nsp", "usp", "owsp")
        assert ExperimentConfig().policies == NAMED_POLICIES
        commands = build_parser()._subparsers._group_actions[0].choices

        def choices(command, dest):
            (action,) = [a for a in commands[command]._actions if a.dest == dest]
            return tuple(action.choices)

        assert choices("plan", "policy") == NAMED_POLICIES + ("custom",)
        assert choices("gen-instance", "adversarial") == NAMED_POLICIES


# ---------------------------------------------------------------------------
# Loop references for the allocation kernel: the per-group Python loops the
# kernel replaced, kept verbatim in behaviour. Counts are integers, so the
# kernel and the public wrappers must agree with them exactly.


def ref_largest_remainder(targets, total):
    targets = np.asarray(targets, dtype=float)
    floors = np.floor(targets).astype(int)
    extras = total - int(floors.sum())
    assert 0 <= extras <= 4
    remainders = targets - floors
    order = sorted(range(len(targets)), key=lambda g: (-remainders[g], g))
    for g in order[:extras]:
        floors[g] += 1
    return floors


def ref_water_fill(available, m):
    counts = np.zeros(4, dtype=int)
    remaining = m
    while remaining > 0:
        open_groups = [g for g in range(4) if counts[g] < available[g]]
        levels = sorted({int(available[g]) for g in open_groups})
        current = counts[open_groups[0]]
        step_cost = (levels[0] - current) * len(open_groups)
        if step_cost <= remaining:
            for g in open_groups:
                counts[g] = levels[0]
            remaining -= step_cost
            continue
        base, extra = divmod(remaining, len(open_groups))
        for i, g in enumerate(open_groups):
            counts[g] += base + (1 if i < extra else 0)
        remaining = 0
    return counts


def ref_capped_pair_split(m_arm, weights, caps):
    c0, c1 = (int(v) for v in ref_largest_remainder(m_arm * np.asarray(weights), m_arm))
    if c0 > caps[0]:
        c1 += c0 - caps[0]
        c0 = caps[0]
    if c1 > caps[1]:
        c0 += c1 - caps[1]
        c1 = caps[1]
    return c0, c1


def ref_finite_counts(kind, available, m, a_hat=None, weights=None):
    total_avail = int(available.sum())
    if m == total_avail:
        return available.copy()
    if m == 0:
        return np.zeros(4, dtype=int)
    if kind in ("nsp", "custom"):
        x = available / total_avail if kind == "nsp" else weights
        counts = ref_largest_remainder(m * x, m)
        overflow = int(np.sum(np.maximum(counts - available, 0)))
        counts = np.minimum(counts, available)
        for g in range(4):
            take = min(int(available[g] - counts[g]), overflow)
            counts[g] += take
            overflow -= take
        return counts
    if kind == "usp":
        return ref_water_fill(available, m)
    idx = [[group_index(0, t), group_index(1, t)] for t in (0, 1)]
    arm_avail = [int(available[idx[t]].sum()) for t in (0, 1)]
    arm_m = [m - m // 2, m // 2]
    for t in (0, 1):
        if arm_m[t] > arm_avail[t]:
            arm_m[1 - t] += arm_m[t] - arm_avail[t]
            arm_m[t] = arm_avail[t]
    counts = np.zeros(4, dtype=int)
    for t in (0, 1):
        g0, g1 = idx[t]
        arm_mass = 0.0 if a_hat is None else float(a_hat[g0] + a_hat[g1])
        w0 = a_hat[g0] / arm_mass if arm_mass > 0.0 else 0.5
        counts[g0], counts[g1] = ref_capped_pair_split(
            arm_m[t], (w0, 1.0 - w0), (int(available[g0]), int(available[g1]))
        )
    return counts


def ref_policy_weights(kind, a):
    if kind == "nsp":
        return a.a
    if kind == "usp":
        return np.full(4, 0.25)
    arm = np.array([a.arm_mass(0), a.arm_mass(1)])
    return np.array([a.a[g] / (2.0 * arm[t]) for g, (y, t) in enumerate(GROUPS)])


@st.composite
def edge_marginals(draw):
    """Marginals with optional zero groups, up to a whole empty arm."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.dirichlet(np.ones(4))
    zeros = draw(st.sampled_from([(), (0,), (3,), (1, 3), (0, 2), (0, 3)]))
    a[list(zeros)] = 0.0
    return ConfoundedDistribution(a / a.sum())


@st.composite
def finite_cases(draw):
    """(kind, available, m, a_hat or None, custom weights) for allocate_finite."""
    available = np.array(draw(st.lists(st.integers(0, 60), min_size=4, max_size=4)))
    m = draw(st.integers(0, int(available.sum())))
    a_hat = draw(st.one_of(st.none(), edge_marginals()))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    weights = rng.dirichlet(np.ones(4))
    if draw(st.booleans()):
        weights[draw(st.integers(0, 3))] = 0.0
    kind = draw(st.sampled_from(["nsp", "usp", "owsp", "custom"]))
    return kind, available, m, a_hat, weights / weights.sum()


def kernel_x(kind, a_hat, weights):
    if kind == "custom":
        return weights
    return np.zeros(4) if a_hat is None else a_hat.a


class TestLoopReferences:
    @given(finite_cases())
    @settings(max_examples=400, deadline=None)
    def test_allocate_finite_matches_loops(self, case):
        kind, available, m, a_hat, weights = case
        policy = PolicyWeights(weights) if kind == "custom" else kind
        a_vec = None if a_hat is None else a_hat.a
        want = ref_finite_counts(kind, available, m, a_vec, weights)
        assert allocate_finite(policy, available, m, a_hat).tolist() == want.tolist()

    @given(st.lists(finite_cases(), min_size=1, max_size=12))
    @settings(max_examples=150, deadline=None)
    def test_batched_kernel_matches_loops(self, cases):
        # one kernel call per kind over a (cases, 4) stack with per-row m
        for kind in ("nsp", "usp", "owsp", "custom"):
            weights = cases[0][4]
            available = np.stack([c[1] for c in cases])
            m = np.array([c[2] for c in cases])
            x = np.stack([kernel_x(kind, c[3], weights) for c in cases])
            want = [
                ref_finite_counts(kind, c[1], c[2], None if c[3] is None else c[3].a, weights)
                for c in cases
            ]
            assert _allocate(kind, m, x, available).tolist() == np.stack(want).tolist()

    @given(edge_marginals(), st.lists(st.integers(0, 10**7), min_size=1, max_size=8))
    @settings(max_examples=200, deadline=None)
    def test_infinite_matches_loops(self, a, grid):
        for kind in ("nsp", "usp", "owsp"):
            if kind not in named_policies(a):
                with pytest.raises(ValidationError, match="arm"):
                    allocate_infinite(kind, a, grid[0])
                continue
            x = ref_policy_weights(kind, a)
            assert policy_weights(kind, a).x.tobytes() == x.tobytes()
            want = [ref_largest_remainder(m * x, m).tolist() for m in grid]
            assert [allocate_infinite(kind, a, m).tolist() for m in grid] == want
            assert _allocate(kind, np.array(grid), x).tolist() == want

    def test_owsp_without_a_hat_splits_arms_evenly(self):
        # 7 units: arm t=0 gets 4 (odd unit), arm t=1 gets 3; each splits 50/50
        # with the tie to y=0, and group (1,1) is capped at 1
        counts = allocate_finite("owsp", (10, 10, 10, 1), 7)
        assert counts.tolist() == [2, 2, 2, 1]
        assert counts.tolist() == ref_finite_counts("owsp", np.array([10, 10, 10, 1]), 7).tolist()
