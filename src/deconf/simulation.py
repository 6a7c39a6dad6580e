"""Replication engine: generate data, apply a policy, estimate, aggregate.

Three protocols, mirroring the synthetic and real-data experiments:

* infinite  -- the marginal is known exactly; policies spend m reveals on
  the conditional rows; the optional baseline draws m full joint samples.
* empirical -- a complete (y, t, z) table is the ground truth, so its
  marginal is known too; every draw is uniform without replacement.
* finite    -- n confounded samples are drawn first; natural sampling
  deconfounds the first m arrivals, the other policies allocate against
  the realized group counts.

With the marginal known, the two populations differ only in how they are
drawn from, so one error function serves both: a work item carries its
sampler, ``_prefix_counts`` (with replacement, from an instance's
probabilities) or ``_reveal_prefixes`` (without replacement, from the
table's counts). Both take lengths ``(..., grid, rows)`` and return the
counts ``(..., grid, rows, c)`` of prefixes of one sequence per row.

Reproducibility contract: every result is a pure function of the config
and master seed. The paper's policies are non-adaptive, and each record's
z exists before any policy looks, so every grid draw is nested. A work
item (an instance, or the empirical table) draws one z sequence per
(replication, group) from one stream, and every policy at every grid point
reveals a prefix of it, so policy contrasts use common random numbers. The
baseline reveals prefixes of one sequence of whole records per replication,
and the finite protocol's arrivals prefixes of one sequence along m and
the sorted n grid, each from its own stream. Each stream draws all
replications of its item in one call. Seeds stay below 2**32, because
numpy's ``SeedSequence`` splits a larger int into 32-bit words, so its keys
would alias other seeds' keys. Each work item returns its |estimate -
truth| as one ``(replications, methods, sorted grid)`` array, and
``_sweep`` pools them: it sums in replication order within an item, then
in item order, so results are identical for any worker count and any
execution order, and where an item runs (see ``_sweep``) is only a
wall-time trade. Error statistics are the mean and population standard
deviation of |estimate - truth| pooled over all replications of all
instances.

Allocation runs through the policies kernel on plain arrays, once per
(instance, policy) and consumes no randomness: the known-marginal protocols
allocate each policy's whole m grid before the sweep, after checking
owsp's arms, and the finite protocol draws every replication's arrivals
first and then allocates all (replication, n) points in one call (natural
sampling takes the first m arrivals instead). Estimation runs on plain
arrays through the batched kernel (:func:`deconf.estimation.q_hat_batch`
and :func:`deconf.model.ate_batch`), once per work item over all of its
replications. A known-marginal item stacks all its methods' joint tables
for one ``ate_batch`` call. The finite protocol converts a work item's
counts to float once and walks that copy as ``(4, k)`` tables, calling
``q_hat_batch`` once per replication-estimate in (replication, policy, n)
order, so no call converts its table and a strict run names the first
degenerate estimate in that order. The benchmark's tracer test counts one
estimation call per estimate, so the loop stays until that test is
revised. Model objects are the types of the API and the file boundary
only: no model object is built inside a sweep.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from . import estimation
from .errors import ExhaustedError, ValidationError
from .estimation import q_hat_batch
from .model import (
    GROUPS,
    ConditionalTable,
    ConfoundedDistribution,
    _random_joint,
    ate_batch,
    check_int,
    is_integer,
    split_joint,
)
from .policies import NAMED_POLICIES, _allocate, _check_owsp, _named_weights

BASELINE = "deconf-only"

# stream domains keep the per-purpose RNG streams disjoint
_DOM_INSTANCE = 0
_DOM_INFINITE = 1
_DOM_ARRIVAL = 2
_DOM_CONDITIONAL = 3
_DOM_EMPIRICAL = 4


def _stream(*key: int) -> np.random.Generator:
    return np.random.default_rng(list(key))


def _as_list(name: str, values, entries: str) -> tuple:
    """``values`` as a tuple; a string or a non-iterable is not a list of ``entries``."""
    if isinstance(values, str):
        raise ValidationError(f"{name} must be a list of {entries}, got the string {values!r}")
    try:
        iter(values)
    except TypeError:
        raise ValidationError(f"{name} must be a list of {entries}, got {values!r}") from None
    return tuple(values)


def _int_grid(name: str, values) -> Tuple[int, ...]:
    grid = _as_list(name, values, "positive integers")
    if not grid or not all(is_integer(v) and v > 0 for v in grid):
        raise ValidationError(f"{name} must be non-empty with positive integer entries, "
                              f"got {grid!r}")
    if max(grid) >= 2**63:  # the engine's counts are int64
        raise ValidationError(f"{name} entries must be below 2**63, got {max(grid)}")
    return tuple(int(v) for v in grid)


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a replication sweep needs besides the ground truth."""

    k: int = 2
    instances: int = 1
    policies: Tuple[str, ...] = NAMED_POLICIES
    include_baseline: bool = False
    m_grid: Tuple[int, ...] = (100,)
    n_grid: Optional[Tuple[int, ...]] = None
    replications: int = 100
    seed: int = 0
    fallback: str = "uniform"

    def __post_init__(self):
        object.__setattr__(self, "k", check_int(self.k, "k", 2))
        for name in ("instances", "replications"):
            object.__setattr__(self, name, check_int(getattr(self, name), name, 1))
        flag = self.include_baseline
        if not isinstance(flag, (bool, np.bool_)):
            raise ValidationError(f"include_baseline must be true or false, got {flag!r}")
        object.__setattr__(self, "include_baseline", bool(flag))
        object.__setattr__(self, "policies", _as_list("policies", self.policies, "policy names"))
        for pol in self.policies:
            if pol not in NAMED_POLICIES:
                raise ValidationError(f"unknown policy {pol!r} in config")
        if not self.policies and not self.include_baseline:
            raise ValidationError("config selects no methods to run")
        object.__setattr__(self, "m_grid", _int_grid("m_grid", self.m_grid))
        if self.n_grid is not None:
            object.__setattr__(self, "n_grid", _int_grid("n_grid", self.n_grid))
        for name in ("policies", "m_grid", "n_grid"):
            values = getattr(self, name) or ()
            if len(set(values)) != len(values):
                raise ValidationError(f"{name} repeats an entry: {values!r}")
        # through the module: perfbench traces estimation functions imported by name
        estimation._check_fallback(self.fallback)
        if not is_integer(self.seed) or not 0 <= self.seed < 2**32:
            raise ValidationError("seed must be an integer in [0, 2**32)")
        object.__setattr__(self, "seed", int(self.seed))

    def method_labels(self) -> Tuple[str, ...]:
        return ((BASELINE,) if self.include_baseline else ()) + self.policies


class CurveRow(NamedTuple):
    policy: str
    grid_kind: str  # 'm' or 'n'
    grid_value: int
    mean_abs_error: float
    std_abs_error: float
    reps: int
    instances: int


class ErrorCurve(NamedTuple):
    rows: Tuple[CurveRow, ...]

    def mean(self, policy: str, grid_value: int) -> float:
        for row in self.rows:
            if row.policy == policy and row.grid_value == grid_value:
                return row.mean_abs_error
        raise KeyError((policy, grid_value))


class SyntheticInstance(NamedTuple):
    a: np.ndarray  # (4,)
    q: np.ndarray  # (4, k)
    ate: float


def resolve_instances(
    config: ExperimentConfig,
    explicit: Optional[Sequence[Tuple[ConfoundedDistribution, ConditionalTable]]] = None,
) -> List[SyntheticInstance]:
    """Arrays of explicit (a, q) pairs, or of uniform-simplex draws keyed by the seed."""
    if explicit is not None:
        explicit = list(explicit)
        if not explicit:
            raise ValidationError("explicit instance list is empty")
        for i, (_, q) in enumerate(explicit):
            if q.k != config.k:
                raise ValidationError(
                    f"instance {i} has k={q.k}, but the config sets k={config.k}"
                )
        a = np.stack([marginal.a for marginal, _ in explicit])
        q = np.stack([table.q for _, table in explicit])
        p = a[..., None] * q
    else:
        p = np.stack([
            _random_joint(config.k, _stream(config.seed, _DOM_INSTANCE, i))
            for i in range(config.instances)
        ])
        a, q = split_joint(p)
    ates = ate_batch(p).tolist()
    return [SyntheticInstance(*f) for f in zip(a, q, ates)]


def _check_not_finite(config: ExperimentConfig, workers) -> None:
    """Reject the finite protocol's settings in the other two protocols."""
    check_int(workers, "workers", 1)
    if config.n_grid:
        raise ValidationError("n_grid applies to the finite protocol only")


# ---------------------------------------------------------------------------
# pooling

# A pool for the items after the first pays off once their projected serial
# time reaches this many seconds. Measured on 2 vCPUs (BENCH_13.json): a
# two-worker pool's start-up and cold workers cost ~22 ms wall and ~30 CPU-ms
# (3 infinite items: 28.5 ms pooled against 6.5 in process), so two workers
# broke even or lost up to ~0.1 s of remaining work, and saved 15% of the
# wall time at ~0.17 s (100 infinite or 6 finite items) and 24% at criterion
# 1's 300 instances (~0.5 s), there at 1.25-1.4x the CPU.
_POOL_MIN_S = 0.1


def _sweep(func, items, labels, kind, grid, workers: int, instances: int) -> ErrorCurve:
    """Pool the ``(reps, labels, sorted grid)`` error arrays ``func`` maps items to.

    Errors are summed in replication order within an item, then in item
    order, whatever the pool size, so results are identical for any worker
    count. ``cumsum`` adds strictly in that order; ``np.sum`` adds pairwise
    along a contiguous axis, which would change the last bits.

    The first item runs in this process and is timed. A pool of
    ``min(workers, remaining items)`` processes maps the rest only when
    ``workers > 1``, at least two items remain and the first item's time
    times their count is at least ``_POOL_MIN_S``; otherwise they run here
    too. The pool lives for this call only.
    """
    start = time.perf_counter()
    errors = [func(items[0])]
    rest = items[1:]
    pool_size = min(workers, len(rest))
    if pool_size > 1 and (time.perf_counter() - start) * len(rest) >= _POOL_MIN_S:
        with ProcessPoolExecutor(max_workers=pool_size) as pool:
            chunksize = max(1, len(rest) // (pool_size * 4))
            errors += pool.map(func, rest, chunksize=chunksize)
    else:
        errors += map(func, rest)
    count = sum(e.shape[0] for e in errors)
    sums = np.cumsum([np.cumsum(e, axis=0)[-1] for e in errors], axis=0)[-1]
    squares = np.cumsum([np.cumsum(e * e, axis=0)[-1] for e in errors], axis=0)[-1]
    rows = []
    for i, label in enumerate(labels):
        for j, value in enumerate(sorted(grid)):
            mean = float(sums[i, j]) / count
            var = max(float(squares[i, j]) / count - mean * mean, 0.0)
            rows.append(
                CurveRow(label, kind, int(value), mean, float(np.sqrt(var)), count, instances)
            )
    rows.sort(key=lambda r: (r.policy, r.grid_value))
    return ErrorCurve(tuple(rows))


# ---------------------------------------------------------------------------
# prefix samplers: lengths (..., grid, rows) in, counts (..., grid, rows, c) out


def _prefix_counts(rng: np.random.Generator, probs, lengths) -> np.ndarray:
    """Counts ``(..., grid, rows, c)`` of prefixes of one i.i.d. sequence per row.

    Row r of ``lengths`` ``(..., grid, rows)`` draws from ``probs[r]`` as
    incremental multinomials along its sorted lengths, in (..., row, sorted
    length) order, so equal lengths get equal counts.
    """
    lengths = np.swapaxes(lengths, -1, -2)
    # flat row indices of each row's sorted order, to gather lengths and scatter counts
    order = np.argsort(lengths, axis=-1, kind="stable")
    order += np.arange(0, order.size, order.shape[-1]).reshape(order.shape[:-1] + (1,))
    order = order.ravel()
    steps = np.diff(np.ravel(lengths)[order].reshape(lengths.shape), prepend=0)
    drawn = rng.multinomial(steps, probs[:, None], size=steps.shape)
    out = np.empty_like(drawn)
    c = drawn.shape[-1]
    out.reshape(-1, c)[order] = np.cumsum(drawn, axis=-2).reshape(-1, c)
    return np.swapaxes(out, -2, -3)


def _reveal_prefixes(rng: np.random.Generator, cells, lengths) -> np.ndarray:
    """Counts ``(..., grid, rows, k)`` of prefixes of one uniform random order per row.

    Row g of the ``(rows, k)`` table ``cells`` reveals ``lengths[..., g]``
    records at each grid point, independently for every index of the
    leading dims of ``lengths`` ``(..., grid, rows)``. Each (index, row)
    draws its prefixes in ascending length; a step draws from the records
    not yet revealed as a chain of hypergeometric draws, one per z < k-1,
    and the last z takes the remainder. That is grid * (k-1) broadcast calls;
    memory is O(lengths.size * k) int64.
    """
    order = np.argsort(lengths, axis=-2, kind="stable")
    steps = np.diff(np.take_along_axis(lengths, order, -2), axis=-2, prepend=0)
    left = np.array(np.broadcast_to(cells, steps.shape[:-2] + cells.shape), dtype=np.int64)
    drawn = np.empty(steps.shape + cells.shape[1:], dtype=np.int64)
    for i in range(steps.shape[-2]):
        need = steps[..., i, :].copy()
        rest = left.sum(axis=-1)
        for z in range(cells.shape[1] - 1):
            rest -= left[..., z]  # records of the later z values
            got = rng.hypergeometric(left[..., z], rest, need)
            left[..., z] -= got
            need -= got
        left[..., -1] -= need
        drawn[..., i, :, :] = cells - left
    out = np.empty_like(drawn)
    np.put_along_axis(out, order[..., None], drawn, axis=-3)
    return out


# ---------------------------------------------------------------------------
# known marginal: an instance, or the empirical table


def _allocations(policies, grid, a) -> np.ndarray:
    """The named policies' allocations ``(policies, grid, 4)`` of budgets ``grid`` on ``a``."""
    weights = _named_weights(a)
    counts = [_allocate(pol, grid, weights[NAMED_POLICIES.index(pol)]) for pol in policies]
    return np.array(counts, dtype=np.int64).reshape(len(policies), len(grid), 4)


def _known_marginal_errors(item) -> np.ndarray:
    """|estimate - truth| ``(reps, methods, sorted grid)`` of one known-marginal work item.

    ``sample`` draws prefixes: ``_prefix_counts`` with replacement from an
    instance's probabilities, ``_reveal_prefixes`` without replacement from
    the table's counts. The baseline reveals prefixes of one sequence of
    whole records per replication from ``joint``, on stream ``(seed, dom,
    idx)``; the policies reveal their ``(policies, sorted grid, 4)``
    allocations as prefixes of one z sequence per (replication, group) from
    ``rows``, on stream ``(seed, _DOM_CONDITIONAL, idx)``.
    """
    sample, dom, idx, joint, rows, a, ate, allocs, config = item
    reps, grid = config.replications, np.array(sorted(config.m_grid))
    tables = []  # (reps, methods, sorted grid, 4, k) joints, concatenated for one ATE call
    if config.include_baseline:
        lengths = np.broadcast_to(grid[:, None], (reps, len(grid), 1))
        drawn = sample(_stream(config.seed, dom, idx), joint.reshape(1, -1), lengths)
        drawn = drawn.reshape((reps, 1, len(grid)) + joint.shape)
        tables.append(drawn / grid[:, None, None])
    if len(allocs):
        lengths = np.broadcast_to(allocs.reshape(-1, 4), (reps, allocs.size // 4, 4))
        drawn = sample(_stream(config.seed, _DOM_CONDITIONAL, idx), rows, lengths)
        drawn = drawn.reshape((reps,) + allocs.shape[:2] + rows.shape)
        tables.append(a[:, None] * q_hat_batch(drawn, a, config.fallback))
    return np.abs(ate_batch(np.concatenate(tables, axis=1)) - ate)


def run_infinite_experiment(
    config: ExperimentConfig,
    instances: Optional[Sequence[Tuple[ConfoundedDistribution, ConditionalTable]]] = None,
    workers: int = 1,
) -> ErrorCurve:
    """Policy comparison with the marginal known exactly."""
    _check_not_finite(config, workers)
    resolved = resolve_instances(config, instances)
    if "owsp" in config.policies:
        _check_owsp(np.stack([inst.a for inst in resolved]))
    grid = np.array(sorted(config.m_grid))
    items = [
        (_prefix_counts, _DOM_INFINITE, idx, inst.a[:, None] * inst.q, inst.q, inst.a, inst.ate,
         _allocations(config.policies, grid, inst.a), config)
        for idx, inst in enumerate(resolved)
    ]
    return _sweep(_known_marginal_errors, items, config.method_labels(), "m", config.m_grid,
                  workers, len(resolved))


def run_empirical_experiment(
    cells, config: ExperimentConfig, workers: int = 1
) -> ErrorCurve:
    """Replications against a complete (y, t, z) table as ground truth.

    ``cells`` are the table's ``(4, k)`` counts, as
    :func:`deconf.io.read_full_table_csv` returns them. Their joint defines
    the true ATE and the (exact) marginal used for policy weights. The run
    is one work item: every policy reveals prefixes of one uniform random
    order per (replication, group), and the baseline prefixes of one of the
    whole table. The draws hold
    O(replications * len(methods) * len(m_grid) * 4k) int64 counts at once.
    """
    _check_not_finite(config, workers)
    cells = estimation._count_stack(cells, "cells")  # through the module, as in ExperimentConfig
    if cells.shape != (4, config.k):
        raise ValidationError(
            f"cells: expected shape (4, {config.k}) for config k={config.k}, got {cells.shape}")
    total = int(cells.sum())
    if total == 0:
        raise ValidationError("empirical dataset is empty")
    ate_true = ate_batch(cells / total)
    sizes = cells.sum(axis=1)
    a = sizes / total

    if config.include_baseline and max(config.m_grid) > total:
        raise ExhaustedError(f"baseline needs {max(config.m_grid)} records, table has {total}")
    if "owsp" in config.policies:
        _check_owsp(a)
    grid = np.array(config.m_grid)
    allocs = _allocations(config.policies, grid, a)
    shortfall = allocs - sizes
    if np.any(shortfall > 0):  # report the first policy, then m in config order, then group
        p, i, g = np.unravel_index(np.argmax(shortfall > 0), shortfall.shape)
        raise ExhaustedError(
            f"policy {config.policies[p]} at m={grid[i]} needs {int(allocs[p, i, g])} reveals "
            f"in group (y={GROUPS[g][0]},t={GROUPS[g][1]}), only {sizes[g]} records exist",
            shortfall=int(shortfall[p, i, g]),
        )

    items = [(_reveal_prefixes, _DOM_EMPIRICAL, 0, cells, cells, a, ate_true,
              allocs[:, np.argsort(grid, kind="stable")], config)]
    return _sweep(_known_marginal_errors, items, config.method_labels(), "m", config.m_grid,
                  workers, 1)


# ---------------------------------------------------------------------------
# finite confounded data


def _finite_errors(args) -> np.ndarray:
    idx, inst, config = args
    k, reps, policies = inst.q.shape[1], config.replications, config.policies
    m, seed = config.m_grid[0], config.seed
    grid = np.array(sorted(config.n_grid))
    # group counts of the arrival prefixes of every replication: the first m,
    # which nsp reveals, then the first n at each grid point (m <= every n)
    lengths = np.broadcast_to(np.r_[m, grid][:, None], (reps, len(grid) + 1, 1))
    prefixes = _prefix_counts(_stream(seed, _DOM_ARRIVAL, idx), inst.a[None], lengths)
    first_m, avail = prefixes[:, :1, 0], prefixes[:, 1:, 0]
    a_hat = avail / grid[:, None]
    allocs = np.stack([
        np.repeat(first_m, len(grid), axis=1) if pol == "nsp"
        else _allocate(pol, m, a_hat, avail)
        for pol in policies
    ], axis=1)  # (reps, policies, grid, 4)
    cells = _prefix_counts(_stream(seed, _DOM_CONDITIONAL, idx), inst.q,
                           allocs.reshape(reps, -1, 4)).reshape(allocs.shape + (k,))
    # one kernel call per (rep, policy, n) in C order, on one float copy
    cells = cells.astype(float)
    q_hat = np.empty(cells.shape)
    rows = np.broadcast_to(a_hat[:, None], cells.shape[:-1]).reshape(-1, 4)
    for out, table, a_row in zip(q_hat.reshape(-1, 4, k), cells.reshape(-1, 4, k), rows):
        out[...] = q_hat_batch(table, a_row, config.fallback)
    return np.abs(ate_batch(a_hat[:, None, :, :, None] * q_hat) - inst.ate)


def run_finite_experiment(
    config: ExperimentConfig,
    instances: Optional[Sequence[Tuple[ConfoundedDistribution, ConditionalTable]]] = None,
    workers: int = 1,
) -> ErrorCurve:
    """Error as a function of the confounded sample count n, m held fixed.

    Natural sampling deconfounds the first m arrivals; the other policies
    allocate m reveals against the realized group counts at each n. Each
    record's z is drawn once: every allocation reveals a prefix of one z
    sequence per (replication, group), so all policies coincide exactly at
    n = m and compare on common random numbers elsewhere.
    """
    check_int(workers, "workers", 1)
    if config.n_grid is None:
        raise ValidationError("finite protocol requires n_grid")
    if len(config.m_grid) != 1:
        raise ValidationError("finite protocol uses a single fixed m")
    if config.include_baseline:
        raise ValidationError("the deconfounded-only baseline has no finite variant")
    if any(n < config.m_grid[0] for n in config.n_grid):
        raise ValidationError("every n in n_grid must be >= m")
    resolved = resolve_instances(config, instances)
    items = [(idx, inst, config) for idx, inst in enumerate(resolved)]
    return _sweep(_finite_errors, items, config.policies, "n", config.n_grid,
                  workers, len(resolved))
