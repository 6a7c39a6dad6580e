"""The four workloads: seeded inputs, the timed call, and its output checks.

Inputs are generated here with numpy from the benchmark seed; the program
only receives them (instance arrays, a CSV table, instance JSON files).
Each workload also has a fixed reference case whose outputs were recorded
from the seed commit in ``reference.json`` (see ``record_reference.py``).

Why these four (see README.md for the layer each one stresses):

* ``infinite-sweep``  -- ``deconf simulate``: estimation and model
  validation dominate; allocation runs once per instance.
* ``finite-sweep``    -- ``deconf simulate-finite``: ``allocate_finite``
  runs per (rep, policy, n), so policies sit in the blocking path.
* ``empirical-table`` -- ``deconf simulate-real``: CSV parsing, per-rep
  permutations and pickling of the raw table dominate; few estimates.
* ``plan-bounds``     -- ``deconf plan --n --budget``: only bounds (and the
  policies it calls) do work; no simulation at all.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import NamedTuple, Tuple

import numpy as np

import checks

HERE = Path(__file__).resolve().parent
REFERENCE_FILE = HERE / "reference.json"

BASELINE = "deconf-only"
POLICIES = ("nsp", "usp", "owsp")

#: Every sweep call cycles through this many seeded inputs; a repeated
#: input must reproduce its first output byte for byte.
POOL = 8


def simplex_parts(rng, k):
    """(a, q) of a joint table drawn uniformly from the (4k-1)-simplex."""
    cells = rng.exponential(size=(4, k))
    p = cells / cells.sum()
    a = p.sum(axis=1)
    return a, p / a[:, None]


class SweepInput(NamedTuple):
    instances: Tuple[Tuple[np.ndarray, np.ndarray], ...]  # explicit (a, q) arrays
    seed: int  # the config seed handed to the program
    table: str = ""  # empirical protocol: path of the y,t,z CSV


class Sweep:
    """A replication sweep called like the matching ``deconf simulate*`` command."""

    kind = "sweep"
    ops_unit = "replication-estimates"

    def __init__(self, name, protocol, size, methods, config, reference):
        self.name = name
        self.protocol = protocol
        self.size = size  # instances per call, or rows of the empirical table
        self.methods = methods
        self.config = config
        self.reference = reference  # (seed, size, replications)

    @property
    def grid_kind(self):
        return "n" if "n_grid" in self.config else "m"

    @property
    def grid(self):
        return self.config.get("n_grid") or self.config["m_grid"]

    def ops_per_call(self, inp, replications=None):
        reps = replications or self.config["replications"]
        return instance_count(inp) * len(self.methods) * len(self.grid) * reps

    # -- inputs --------------------------------------------------------------

    def make_inputs(self, seed, workdir):
        rng = np.random.default_rng([seed, 0])
        table = ""
        if self.protocol == "empirical":
            table = str(Path(workdir) / "table.csv")
            write_table(table, make_table(rng, self.size))
            return [SweepInput((), int(rng.integers(2**31)), table) for _ in range(POOL)]
        return [
            SweepInput(
                tuple(simplex_parts(rng, 2) for _ in range(self.size)),
                int(rng.integers(2**31)),
            )
            for _ in range(POOL)
        ]

    def reference_input(self, workdir):
        seed, size, _ = self.reference
        rng = np.random.default_rng([seed, 1])
        if self.protocol == "empirical":
            table = str(Path(workdir) / "reference-table.csv")
            write_table(table, make_table(rng, size))
            return SweepInput((), seed, table)
        return SweepInput(tuple(simplex_parts(rng, 2) for _ in range(size)), seed)

    # -- the timed call ----------------------------------------------------------

    def run(self, deconf, inp, workers, out_path, replications=None):
        """One call: build the inputs, run the sweep, write the result CSV."""
        settings = dict(self.config)
        if replications is not None:
            settings["replications"] = replications
        methods = self.methods
        config = deconf.ExperimentConfig(
            policies=tuple(m for m in methods if m != BASELINE),
            include_baseline=BASELINE in methods,
            instances=instance_count(inp),
            seed=inp.seed,
            **settings,
        )
        if self.protocol == "empirical":
            records = deconf.io.read_full_table_csv(inp.table, config.k)
            curve = deconf.run_empirical_experiment(records, config, workers=workers)
        else:
            instances = [
                (deconf.ConfoundedDistribution(a), deconf.ConditionalTable(q))
                for a, q in inp.instances
            ]
            run = (deconf.run_infinite_experiment if self.protocol == "infinite"
                   else deconf.run_finite_experiment)
            curve = run(config, instances, workers=workers)
        deconf.io.write_error_curve_csv(curve, out_path)

    # -- checks --------------------------------------------------------------

    def check_output(self, log, inp, data, replications=None):
        reps = replications or self.config["replications"]
        try:
            rows = checks.parse_curve(data)
        except (ValueError, StopIteration) as exc:
            log.error(f"{self.name} curve parse", exc)
            return None
        log.check(f"{self.name} rows",
                  checks.check_curve_rows(rows, self.methods, self.grid_kind,
                                          self.grid, reps, instance_count(inp)))
        log.check(f"{self.name} values", checks.check_curve_values(rows))
        return rows

    def check_reference(self, deconf, log, workdir):
        """Run the fixed reference case and compare every row with the record."""
        inp = self.reference_input(workdir)
        reps = self.reference[2]
        out = Path(workdir) / "reference.csv"
        try:
            self.run(deconf, inp, 1, out, reps)
        except Exception as exc:  # the program failed: a failed check, not a crash
            log.error(f"{self.name} reference run", exc)
            return
        rows = self.check_output(log, inp, out.read_bytes(), reps)
        if rows is not None:
            recorded = [tuple(r) for r in load_reference()[self.name]]
            log.check(f"{self.name} reference", checks.check_against_reference(rows, recorded))

    def record_reference(self, deconf, workdir):
        inp = self.reference_input(workdir)
        out = Path(workdir) / "reference.csv"
        self.run(deconf, inp, 1, out, self.reference[2])
        return checks.parse_curve(out.read_bytes())


def instance_count(inp):
    """Instances behind each curve row; an empirical table counts as one."""
    return len(inp.instances) or 1


# ---------------------------------------------------------------------------
# empirical tables

GROUP_FLOOR = 0.05  # every (y, t) group holds >= 5% of rows, so no reveal exhausts


def make_table(rng, rows, k=3):
    """A complete ``y,t,z`` table whose groups all have at least 5% of rows.

    With every group at >= 5% and every arm at >= 10%, no policy's
    allocation at m <= rows / 5 asks for more records than a group holds.
    """
    a = GROUP_FLOOR + (1 - 4 * GROUP_FLOOR) * rng.dirichlet(np.ones(4))
    sizes = np.floor(a * rows).astype(int)
    sizes[np.argmax(sizes)] += rows - sizes.sum()
    parts = []
    for g, size in enumerate(sizes):
        q = rng.dirichlet(np.ones(k))
        z = rng.choice(k, size=size, p=q)
        parts.append(np.column_stack([np.full(size, g // 2), np.full(size, g % 2), z]))
    return rng.permutation(np.concatenate(parts))


def write_table(path, records):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("y,t,z\n")
        fh.write("\n".join(f"{y},{t},{z}" for y, t, z in records.tolist()))
        fh.write("\n")


# ---------------------------------------------------------------------------
# planning

BOUND_FIELDS = ("m_base", "m_nsp", "m_usp", "m_owsp", "M_nsp", "M_usp", "M_owsp",
                "w_nsp", "w_usp", "w_owsp")


class Plan:
    """``deconf plan --n N --budget B`` on one instance file per call."""

    kind = "plan"
    ops_unit = "instance plans"
    name = "plan-bounds"
    pool = 120  # instance files; the timed loop cycles through them
    epsilon, delta, beta = 0.2, 0.1, 0.1
    n_confounded = 10**8
    budget, c_confounded, c_deconfound = 1e6, 1.0, 20.0
    reference = (20_260_808, 12)  # fixed seed, instance count

    def make_inputs(self, seed, workdir, count=None):
        # k alternates 2, 3 so that every seed plans the same mix of sizes
        rng = np.random.default_rng([seed, 0])
        return [write_instance(Path(workdir) / f"instance-{i:03d}.json", rng, 2 + i % 2)
                for i in range(self.pool if count is None else count)]

    def reference_input(self, workdir):
        seed, count = self.reference
        rng = np.random.default_rng([seed, 1])
        return [write_instance(Path(workdir) / f"reference-{i:03d}.json", rng)
                for i in range(count)]

    def run(self, deconf, path):
        """Plan one instance file; returns plain data (it crosses processes)."""
        inst = deconf.io.read_instance(path)
        spec = deconf.AccuracySpec(self.epsilon, self.delta, inst.q.k, self.beta)
        report = deconf.bound_report(inst.a, inst.q, spec)
        m_star = {
            kind: deconf.solve_min_m(inst.a, inst.q, deconf.policy_weights(kind, inst.a),
                                     self.n_confounded, spec)
            for kind in POLICIES
        }
        plan = deconf.allocate_budget(inst.a, inst.q, self.budget, self.c_confounded,
                                      self.c_deconfound, spec)
        return {
            "bounds": {name: float(getattr(report, name)) for name in BOUND_FIELDS},
            "m_star": m_star,
            "plan": {"n": plan.n, "m": plan.m, "policy": plan.policy,
                     "margin": float(plan.margin),
                     "weights": [float(w) for w in plan.weights.x]},
        }

    def check_output(self, log, deconf, path, record):
        inst = deconf.io.read_instance(path)
        spec = deconf.AccuracySpec(self.epsilon, self.delta, inst.q.k, self.beta)
        log.check(f"{self.name} bounds",
                  checks.check_bound_invariants(record["bounds"], spec.C, self.beta))
        for kind in POLICIES:
            weights = deconf.policy_weights(kind, inst.a)

            def feasible(m, weights=weights):
                return deconf.finite_feasible(inst.a, inst.q, weights, m,
                                              self.n_confounded, spec).feasible

            log.check(f"{self.name} solve_min_m {kind}",
                      checks.check_min_m(record["m_star"][kind], self.n_confounded, feasible))
        log.check(f"{self.name} budget line",
                  checks.check_budget_line(record["plan"], self.budget,
                                           self.c_confounded, self.c_deconfound))

    def check_reference(self, deconf, log, workdir):
        recorded = load_reference()[self.name]
        for i, path in enumerate(self.reference_input(workdir)):
            try:
                record = self.run(deconf, path)
            except Exception as exc:  # the program failed: a failed check, not a crash
                log.error(f"{self.name} reference plan {i}", exc)
                continue
            self.check_output(log, deconf, path, record)
            log.check(f"{self.name} reference plan {i}",
                      checks.check_plan_reference(record, recorded[i]))

    def record_reference(self, deconf, workdir):
        return [self.run(deconf, path) for path in self.reference_input(workdir)]


def write_instance(path, rng, k=None):
    """Write a random instance (k drawn from {2, 3} unless given) in the parts form
    ``deconf plan`` reads."""
    if k is None:
        k = int(rng.integers(2, 4))
    a, q = simplex_parts(rng, k)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"k": k, "a": a.tolist(), "q": q.tolist()}, fh)
    return str(path)


# ---------------------------------------------------------------------------
# worker side of the plan-bounds workers=2 run (forked processes)


def worker_pid():
    time.sleep(0.05)  # long enough that one worker cannot take every warm-up task
    return os.getpid()


def plan_chunk(items):
    """Plan (index, instance file) items in a worker.

    Returns the (index, record) pairs and the worker's CPU seconds for them.
    """
    import deconf.io

    c0 = time.process_time()
    results = [(index, PLAN.run(deconf, path)) for index, path in items]
    return results, time.process_time() - c0


def load_reference():
    with open(REFERENCE_FILE, encoding="utf-8") as fh:
        return json.load(fh)


N_GRID = tuple(int(round(v)) for v in np.geomspace(100, 10_000, 7))

PLAN = Plan()

WORKLOADS = {
    wl.name: wl
    for wl in (
        Sweep("infinite-sweep", "infinite", 2, (BASELINE,) + POLICIES,
              {"k": 2, "m_grid": (100, 400, 1200), "replications": 100},
              reference=(20_260_808, 4, 100)),
        Sweep("finite-sweep", "finite", 2, POLICIES,
              {"k": 2, "m_grid": (100,), "n_grid": N_GRID, "replications": 100},
              reference=(777, 3, 100)),
        Sweep("empirical-table", "empirical", 200_000, (BASELINE,) + POLICIES,
              {"k": 3, "m_grid": (100, 1000, 10_000), "replications": 25},
              reference=(20_260_810, 60_000, 200)),
        PLAN,
    )
}
