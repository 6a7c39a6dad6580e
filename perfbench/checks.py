"""Output checks. Each returns a list of failure messages; empty means pass.

The checks read the program's outputs with the standard library only (the
result CSV is parsed here, not by ``deconf.io``), so a defect in the program
cannot hide itself by also breaking the checker.
"""

from __future__ import annotations

import csv
import io
import math
import sys

#: Tolerance, in Monte Carlo standard errors of the difference of two
#: independent row means, for comparing a curve with its recorded
#: reference. Re-keyed RNG streams give a fresh realization of the same
#: expectation, which stays within this; a real change of the estimator
#: does not.
REFERENCE_Z = 4.0

#: Relative tolerance for bound values against their recorded references.
BOUND_RTOL = 1e-12


class CheckLog:
    """Counts attempted and failed checks; prints the first failures."""

    def __init__(self, stream=sys.stderr, show=10):
        self.attempted = 0
        self.failed = 0
        self._stream = stream
        self._show = show

    def check(self, name, messages):
        self.attempted += 1
        if messages:
            self.failed += 1
            self._report(name, "; ".join(messages))

    def error(self, name, exc):
        """An exception raised by the program counts as a failed check."""
        self.attempted += 1
        self.failed += 1
        self._report(name, f"{type(exc).__name__}: {exc}")

    def _report(self, name, text):
        if self.failed <= self._show:
            print(f"CHECK FAILED {name}: {text}", file=self._stream)


# ---------------------------------------------------------------------------
# result curves


def parse_curve(data: bytes):
    """Rows of a result CSV as (policy, kind, value, mean, std, reps, instances)."""
    reader = csv.reader(io.StringIO(data.decode("utf-8")))
    header = next(reader)
    expected = ["policy", "grid_kind", "grid_value", "mean_abs_error",
                "std_abs_error", "reps", "instances"]
    if header != expected:
        raise ValueError(f"unexpected curve header {header}")
    return [
        (p, kind, int(v), float(mean), float(std), int(reps), int(inst))
        for p, kind, v, mean, std, reps, inst in reader
    ]


def check_identical(first: bytes, second: bytes, what: str):
    if first == second:
        return []
    return [f"{what}: outputs differ ({len(first)} vs {len(second)} bytes)"]


def check_curve_rows(rows, methods, kind, grid, reps, instances):
    """Every (method, grid) row present once, with the full replication count."""
    want = {(m, kind, g) for m in methods for g in grid}
    got = [(r[0], r[1], r[2]) for r in rows]
    out = []
    if len(got) != len(set(got)):
        out.append("duplicate rows")
    if set(got) != want:
        missing = sorted(want - set(got))
        extra = sorted(set(got) - want)
        out.append(f"rows missing {missing[:3]} extra {extra[:3]}")
    for r in rows:
        if r[5] != reps * instances or r[6] != instances:
            out.append(f"row {r[:3]}: reps={r[5]} instances={r[6]}, "
                       f"want reps={reps * instances} instances={instances}")
    return out


def check_curve_values(rows):
    """Errors are finite; |ate_hat - ate| <= 2, so both statistics lie in [0, 2]."""
    out = []
    for r in rows:
        mean, std = r[3], r[4]
        if not (math.isfinite(mean) and math.isfinite(std)):
            out.append(f"row {r[:3]}: non-finite error {mean!r}, {std!r}")
        elif not (0.0 <= mean <= 2.0 and 0.0 <= std <= 2.0):
            out.append(f"row {r[:3]}: error statistics out of [0, 2]: {mean!r}, {std!r}")
    return out


def check_against_reference(rows, reference, z=REFERENCE_Z):
    """Each row mean within z Monte Carlo standard errors of its reference row."""
    ref = {(r[0], r[1], r[2]): r for r in reference}
    out = []
    for r in rows:
        key = (r[0], r[1], r[2])
        if key not in ref:
            out.append(f"row {key}: no reference")
            continue
        _, _, _, ref_mean, ref_std, ref_reps, _ = ref[key]
        if r[5] != ref_reps:
            out.append(f"row {key}: reps {r[5]} != reference {ref_reps}")
            continue
        se = math.sqrt(r[4] ** 2 / r[5] + ref_std ** 2 / ref_reps)
        if not abs(r[3] - ref_mean) <= z * se:
            out.append(f"row {key}: mean {r[3]:.6g} vs reference {ref_mean:.6g} "
                       f"(tolerance {z * se:.3g})")
    if len(rows) != len(ref):
        out.append(f"{len(rows)} rows, reference has {len(ref)}")
    return out


# ---------------------------------------------------------------------------
# plans


def close(value, reference, rtol=BOUND_RTOL):
    if value is None or reference is None:
        return value is reference
    if math.isinf(reference) or math.isinf(value):
        return value == reference
    return abs(value - reference) <= rtol * max(abs(reference), 1e-300)


def check_plan_reference(record, reference, rtol=BOUND_RTOL):
    """A plan record equals its recorded reference; floats to ``rtol`` relative."""
    out = []
    for name, ref in reference["bounds"].items():
        got = record["bounds"].get(name)
        if not close(got, ref, rtol):
            out.append(f"bound {name} = {got!r}, reference {ref!r}")
    if record["m_star"] != reference["m_star"]:
        out.append(f"m_star {record['m_star']} != reference {reference['m_star']}")
    plan, ref_plan = record["plan"], reference["plan"]
    for name in ("n", "m", "policy"):
        if plan[name] != ref_plan[name]:
            out.append(f"budget {name} = {plan[name]!r}, reference {ref_plan[name]!r}")
    if not close(plan["margin"], ref_plan["margin"], rtol):
        out.append(f"budget margin {plan['margin']!r}, reference {ref_plan['margin']!r}")
    if not all(close(w, r, rtol) for w, r in zip(plan["weights"], ref_plan["weights"])):
        out.append(f"budget weights {plan['weights']} != reference {ref_plan['weights']}")
    return out


def check_bound_invariants(bounds, spec_C, beta):
    """Relations that hold for every instance (algebraic dominance, constancy)."""
    out = []
    for name, value in bounds.items():
        if not (value >= 0.0):
            out.append(f"bound {name} = {value!r} is not >= 0")
    if not bounds["m_owsp"] <= bounds["m_usp"] * (1 + 1e-9):
        out.append(f"m_owsp {bounds['m_owsp']!r} > m_usp {bounds['m_usp']!r}")
    if not bounds["m_nsp"] <= bounds["m_base"] * (1 + 1e-9):
        out.append(f"m_nsp {bounds['m_nsp']!r} > m_base {bounds['m_base']!r}")
    if not close(bounds["M_owsp"], 2.0 * spec_C / beta**2, 1e-12):
        out.append(f"M_owsp {bounds['M_owsp']!r} != 2C/beta^2")
    return out


def check_min_m(m_star, n, feasible):
    """``feasible(m)`` holds at the solver's answer and fails one below it."""
    if m_star is None:
        return [] if not feasible(n) else [f"solver found no m but m=n={n} is feasible"]
    out = []
    if not 1 <= m_star <= n:
        return [f"m_star={m_star} outside [1, {n}]"]
    if not feasible(m_star):
        out.append(f"m_star={m_star} is not feasible")
    if m_star > 1 and feasible(m_star - 1):
        out.append(f"m_star-1={m_star - 1} is already feasible")
    return out


def check_budget_line(plan, budget, c_confounded, c_deconfound):
    """The plan spends the budget: n is the most confounded draws m leaves room for."""
    n, m, weights = plan["n"], plan["m"], plan["weights"]
    out = []
    if not 1 <= m <= n:
        out.append(f"need 1 <= m <= n, got m={m}, n={n}")
    if n != int((budget - c_deconfound * m) / c_confounded):
        out.append(f"n={n} is not on the budget line for m={m}")
    if c_confounded * n + c_deconfound * m > budget:
        out.append(f"plan costs {c_confounded * n + c_deconfound * m} > budget {budget}")
    if abs(sum(weights) - 1.0) > 1e-12 or min(weights) < 0.0:
        out.append(f"weights {weights} are not a distribution")
    if not (math.isfinite(plan["margin"]) and plan["margin"] >= 0.0):
        out.append(f"margin {plan['margin']!r} is not finite and >= 0")
    return out
