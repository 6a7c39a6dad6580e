"""Command-line surface tying the library together.

Exit codes: 0 success, 2 invalid input (files, flags, parameters),
3 degenerate estimation under --fallback error, 4 data exhaustion (an
empirical group too small for the requested grid). Randomized commands
take their seed from an explicit --seed flag or the config file; there is
no wall-clock default.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
import warnings

import numpy as np

from . import bounds as bnd
from . import io as dio
from . import simulation as sim
from .errors import (
    DataFormatError,
    DegenerateGroupError,
    ExhaustedError,
    ValidationError,
)
from .estimation import (
    FALLBACKS,
    estimate_deconfounded_only,
    estimate_finite_counts,
    estimate_stratified_ite,
    estimate_with_known_confounded_counts,
)
from .model import (
    GROUPS,
    ConfoundedDistribution,
    adversarial_instance,
    ate_exact,
    empty_strata,
    general_lower_pair,
    hardness_pair,
    policy_lower_pair,
    random_instance,
)
from .policies import NAMED_POLICIES, PolicyWeights, named_policies, policy_weights

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_DEGENERATE = 3
EXIT_EXHAUSTED = 4


def _fmt_pairs(names, pairs) -> str:
    """Sorted index pairs as ``(y=0,t=1), ...`` for ``names`` ``("y", "t")``, or ``none``."""
    if not pairs:
        return "none"
    return ", ".join(f"({names[0]}={i},{names[1]}={j})" for i, j in sorted(pairs))


def cmd_ate(args) -> int:
    joint = dio.read_joint(args.instance)
    print(f"ate = {ate_exact(joint):.10g}")
    print(f"degenerate strata: {_fmt_pairs('tz', np.argwhere(empty_strata(joint.p)).tolist())}")
    return EXIT_OK


def _result_payload(result) -> dict:
    return {
        "ate_hat": float(result.ate_hat),
        "a_hat": result.a_hat.tolist(),
        "q_hat": result.q_hat.tolist(),
        "degenerate_groups": [GROUPS[g] for g in np.flatnonzero(result.degenerate_groups)],
        "degenerate_strata": np.argwhere(result.degenerate_strata).tolist(),
    }


def _print_result(result) -> None:
    payload = _result_payload(result)
    print(f"ate_hat = {payload['ate_hat']:.10g}")
    print(f"a_hat   = {np.array2string(result.a_hat, precision=6)}")
    for g, (y, t) in enumerate(GROUPS):
        print(f"q_hat(y={y},t={t}) = {np.array2string(result.q_hat[g], precision=6)}")
    print(f"degenerate groups: {_fmt_pairs('yt', payload['degenerate_groups'])}")
    print(f"degenerate strata: {_fmt_pairs('tz', payload['degenerate_strata'])}")


def cmd_estimate(args) -> int:
    mode = args.mode or "finite"
    fallback = args.fallback or "uniform"

    if args.stratified:
        result = estimate_stratified_ite(*dio.read_stratified_csv(args.data, args.k), fallback)
        strata, est = result.strata.tolist(), result.estimates
        if args.json:
            payload = {
                "aggregate": result.aggregate,
                "weights": dict(zip(strata, result.weights.tolist())),
                "per_stratum": {
                    str(x): _result_payload(type(est)._make(f[i] for f in est))
                    for i, x in enumerate(strata)
                },
            }
            print(json.dumps(payload, indent=2))
        else:
            for x, w, ate in zip(strata, result.weights.tolist(), est.ate_hat.tolist()):
                print(f"x={x}: ate_hat = {ate:.10g} (weight {w:.6g})")
            print(f"aggregate = {result.aggregate:.10g}")
        return EXIT_OK

    counts = dio.read_dataset_csv(args.data, args.k)
    m = counts[:, 1:]  # column 0 counts the rows with an empty z
    if mode == "deconf-only":
        result = estimate_deconfounded_only(m)
    elif mode == "known-a":
        a = dio.read_marginal(args.a_file)
        result = estimate_with_known_confounded_counts(a, m, fallback)
    else:  # finite
        result = estimate_finite_counts(counts.sum(axis=1), m, fallback)
    if args.json:
        print(json.dumps(_result_payload(result), indent=2))
    else:
        _print_result(result)
    return EXIT_OK


def _fmt_value(v: float) -> str:
    return "inf" if math.isinf(v) else f"{v:.6g}"


def _fmt_witness(w) -> str:
    return "-" if w is None else f"(t={w[0]},z={w[1]})"


def _reals(text, message) -> np.ndarray:
    """Comma-separated reals as an array; unparsable text raises ``message`` and the text."""
    try:
        return np.asarray([float(v) for v in text.split(",")])
    except ValueError:
        raise ValidationError(f"{message}, got {text!r}") from None


def _selected_policy(args):
    """The --policy name, the --weights of --policy custom, or None."""
    if args.policy != "custom":
        return args.policy
    return PolicyWeights(_reals(args.weights, "--weights expects four reals"))


def cmd_plan(args) -> int:
    selected = _selected_policy(args)
    inst = dio.read_instance(args.instance)
    spec = bnd.AccuracySpec(args.epsilon, args.delta, inst.q.k, args.beta)
    report = bnd.bound_report(inst.a, inst.q, spec, args.c1)

    rows = [("C", spec.C, None), ("m_base", report.m_base, report.m_base_witness)]
    rows += [(f"m_{kind}", getattr(report, f"m_{kind}"), getattr(report, f"m_{kind}_witness"))
             for kind in NAMED_POLICIES]
    rows += [(f"{name}_{kind}", getattr(report, f"{name}_{kind}"), None)
             for name in ("M", "w") for kind in NAMED_POLICIES]
    if isinstance(selected, PolicyWeights):
        detail = bnd.m_policy(inst.a, inst.q, spec, selected)
        rows.append(("m_custom", detail.value, detail.witness))

    if args.n is not None:
        kinds = named_policies(inst.a) if selected is None else [selected]
        for kind in kinds:
            weights = policy_weights(kind, inst.a)
            m_star = bnd.solve_min_m(inst.a, inst.q, weights, args.n, spec)
            value = float("nan") if m_star is None else float(m_star)
            label = "custom" if isinstance(kind, PolicyWeights) else kind
            rows.append((f"m_star_{label}(n={args.n})", value, None))
    plan = None
    if args.budget is not None:
        plan = bnd.allocate_budget(inst.a, inst.q, args.budget, args.cost_confounded,
                                   args.cost_deconfound, spec,
                                   grid=200 if args.grid is None else args.grid)

    if args.csv:
        print("bound,value,witness")
        for name, value, witness in rows:
            print(f"{name},{float(value)!r},{_fmt_witness(witness)}")
        if plan is not None:
            print(f"budget_n,{plan.n},-")
            print(f"budget_m,{plan.m},-")
            print(f"budget_policy,{plan.policy},-")
            print(f"budget_margin,{plan.margin!r},-")
    else:
        print(f"k = {spec.k}, epsilon = {spec.epsilon}, delta = {spec.delta}, "
              f"beta = {spec.beta}, c1 = {args.c1}")
        check = "ok" if spec.k * spec.beta < 1.0 else "VIOLATED"
        print(f"assumption k*beta < 1: {check}")
        for name, value, witness in rows:
            name_s = f"{name:<22}"
            if math.isnan(value):
                print(f"{name_s} infeasible")
            else:
                print(f"{name_s} {_fmt_value(value):>14}  {_fmt_witness(witness)}")
        if plan is not None:
            print(f"budget plan: n = {plan.n}, m = {plan.m}, policy = {plan.policy}, "
                  f"margin = {plan.margin:.6g}")
            print(f"budget weights = {np.array2string(plan.weights.x, precision=6)}")
    return EXIT_OK


def cmd_gen_instance(args) -> int:
    k = 2 if args.k is None else args.k
    if args.random:
        joint = random_instance(k, args.seed)
        dio.write_joint_instance(args.out, joint)
        print(f"wrote random k={k} instance to {args.out}")
        return EXIT_OK

    if args.adversarial is not None:
        a, q = adversarial_instance(f"{args.adversarial}_worst")
        dio.write_instance(args.out, a, q)
        print(f"wrote {args.adversarial}_worst instance to {args.out}")
        return EXIT_OK

    a = ConfoundedDistribution(_reals(args.a, "--a expects four comma-separated reals"))
    if args.hardness:
        pair = (hardness_pair(a, args.gamma) if args.q_floor is None
                else hardness_pair(a, args.gamma, args.q_floor))
    elif args.lower_bound == "general":
        pair = general_lower_pair(a, args.q00, args.q01, args.beta, args.gamma)
    else:
        pair = policy_lower_pair(a, k, args.beta, args.gamma)

    dio.write_instance(args.out, pair.a, pair.base_q)
    if args.alt_out is not None:
        dio.write_instance(args.alt_out, pair.a, pair.alternate_q)
    print(f"gap = {pair.gap:.10g}")
    params = ", ".join(f"{k}={v:.6g}" for k, v in sorted(pair.params.items()))
    print(f"params: {params}")
    return EXIT_OK


def _load_sim_inputs(args):
    """Config, extras and instances of a ``simulate*`` command; checks ``--out`` first."""
    dio.check_output_path(args.out)
    config, extras = dio.read_experiment_config(args.config)
    ignored = sorted(extras["fields"] - set(_ROWS[args.command, ""][2].split()))
    if ignored:
        raise DataFormatError(f"{args.config}: config field {ignored[0]!r} does not apply "
                              f"to {args.command}")
    if extras["instance_files"] and "instances" in extras["fields"]:
        raise DataFormatError(  # the files set the instance count
            f"{args.config}: config field 'instances' does not apply next to instance_files")
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    elif "seed" not in extras["fields"]:
        raise ValidationError("no seed: pass --seed or set 'seed' in the config")
    files = extras["instance_files"]  # an empty list is rejected, not ignored
    instances = None if files is None else [dio.read_instance(p) for p in files]
    return config, extras, instances


def cmd_simulate(args) -> int:
    config, extras, instances = _load_sim_inputs(args)
    run = {"simulate": sim.run_infinite_experiment, "simulate-finite": sim.run_finite_experiment}
    if args.command in run:
        curve = run[args.command](config, instances, workers=args.workers)
    else:  # simulate-real
        if args.data is not None and "dataset" in extras["fields"]:
            raise DataFormatError(f"{args.config}: config field 'dataset' does not apply "
                                  "next to --data")
        data_path = args.data or extras["dataset"]
        if data_path is None:
            raise ValidationError("simulate-real needs --data or a 'dataset' config field")
        cells = dio.read_full_table_csv(data_path, config.k)
        curve = sim.run_empirical_experiment(cells, config, workers=args.workers)
    dio.write_error_curve_csv(curve, args.out)
    print(f"wrote {len(curve.rows)} rows to {args.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="deconf",
        description="ATE estimation from confounded and selectively "
        "deconfounded data: estimators, policies, bounds, simulations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ate", help="exact ATE of an instance file")
    p.add_argument("--instance", required=True)
    p.set_defaults(func=cmd_ate)

    p = sub.add_parser("estimate", help="plug-in estimate from a dataset CSV")
    p.add_argument("--data", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--mode", choices=["deconf-only", "known-a", "finite"])
    p.add_argument("--a-file", dest="a_file")
    p.add_argument("--fallback", choices=FALLBACKS)
    p.add_argument("--stratified", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("plan", help="evaluate sample-complexity bounds")
    p.add_argument("--instance", required=True)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--c1", type=float, default=1.0)
    p.add_argument("--n", type=int)
    p.add_argument("--budget", type=float)
    p.add_argument("--cost-confounded", dest="cost_confounded", type=float)
    p.add_argument("--cost-deconfound", dest="cost_deconfound", type=float)
    p.add_argument("--grid", type=int)
    p.add_argument("--policy", choices=NAMED_POLICIES + ("custom",))
    p.add_argument("--weights", help="w00,w01,w10,w11 for --policy custom")
    p.add_argument("--csv", action="store_true")
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("gen-instance", help="write instance files")
    p.add_argument("--out", required=True)
    p.add_argument("--alt-out", dest="alt_out")
    p.add_argument("--random", action="store_true")
    p.add_argument("--k", type=int, help="default 2")
    p.add_argument("--seed", type=int)
    p.add_argument("--adversarial", choices=NAMED_POLICIES)
    p.add_argument("--hardness", action="store_true")
    p.add_argument("--lower-bound", dest="lower_bound", choices=["general", "policy"])
    p.add_argument("--a")
    p.add_argument("--gamma", type=float)
    p.add_argument("--q-floor", dest="q_floor", type=float, help="default 1 - 1e-6")
    p.add_argument("--q00", type=float)
    p.add_argument("--q01", type=float)
    p.add_argument("--beta", type=float)
    p.set_defaults(func=cmd_gen_instance)

    for name, with_data in (("simulate", False), ("simulate-finite", False),
                            ("simulate-real", True)):
        p = sub.add_parser(name, help=f"run the {name} protocol")
        p.add_argument("--config", required=True)
        p.add_argument("--out", required=True)
        p.add_argument("--seed", type=int)
        p.add_argument("--workers", type=int, default=1)
        if with_data:
            p.add_argument("--data")
        p.set_defaults(func=cmd_simulate)

    return parser


# One row per (command, mode): the optional flags (by dest) the mode needs, the
# ones it also reads, and for simulate* the config fields the command reads.
# main exits 2 on a set flag outside its row and on a needed one left unset.
_FIELDS = "k policies include_baseline m_grid replications seed fallback"
_SYNTHETIC = f"{_FIELDS} instances instance_files"
_ROWS = {
    ("ate", ""): ("", "", ""),
    ("estimate", "--stratified"): ("stratified", "fallback json", ""),
    ("estimate", "--mode finite"): ("", "mode fallback json", ""),
    ("estimate", "--mode known-a"): ("mode a_file", "fallback json", ""),
    ("estimate", "--mode deconf-only"): ("mode", "json", ""),
    ("gen-instance", "--random"): ("random seed", "k", ""),
    ("gen-instance", "--adversarial"): ("adversarial", "", ""),
    ("gen-instance", "--hardness"): ("hardness a gamma", "q_floor alt_out", ""),
    ("gen-instance", "--lower-bound general"): ("lower_bound a q00 q01 beta gamma", "alt_out",
                                               ""),
    ("gen-instance", "--lower-bound policy"): ("lower_bound a beta gamma", "k alt_out", ""),
    ("simulate", ""): ("", "seed workers", _SYNTHETIC),
    ("simulate-finite", ""): ("", "seed workers", f"{_SYNTHETIC} n_grid"),
    ("simulate-real", ""): ("", "seed workers data", f"{_FIELDS} dataset"),
}
for _policy, _needs, _reads in [("", "", "n"), (" --policy custom", "policy weights", "n")] + [
        (f" --policy {name}", "policy n", "") for name in NAMED_POLICIES]:
    _ROWS["plan", f"plan{_policy}"] = (_needs, f"c1 csv {_reads}", "")
    _ROWS["plan", f"plan{_policy} --budget"] = (
        f"{_needs} budget cost_confounded cost_deconfound", f"c1 csv grid {_reads}", "")


def _mode(args) -> str:
    """The mode of the parsed command, as its row in ``_ROWS`` names it."""
    if args.command == "estimate":
        return "--stratified" if args.stratified else f"--mode {args.mode or 'finite'}"
    if args.command == "plan":
        policy = "" if args.policy is None else f" --policy {args.policy}"
        return f"plan{policy}" + " --budget" * (args.budget is not None)
    if args.command == "gen-instance":
        chosen = [mode for mode, on in (
            ("--random", args.random), ("--adversarial", args.adversarial is not None),
            ("--hardness", args.hardness), (f"--lower-bound {args.lower_bound}", args.lower_bound),
        ) if on]
        if len(chosen) != 1:
            raise ValidationError(
                "choose exactly one of --random, --adversarial, --hardness, --lower-bound"
            )
        return chosen[0]
    return ""


def _optional_flags(parser, command):
    """(dest, flag) of each optional flag of a command, in parser order."""
    (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return [(a.dest, a.option_strings[0]) for a in sub.choices[command]._actions
            if a.option_strings and not a.required and a.dest != "help"]


def _check_flags(parser, args) -> None:
    """Hold the parsed flags to their row; a flag is set unless None or False."""
    mode = _mode(args)
    needs, reads, _ = (set(names.split()) for names in _ROWS[args.command, mode])
    for dest, flag in _optional_flags(parser, args.command):
        value = getattr(args, dest)
        if value is None or value is False:
            if dest in needs:
                raise ValidationError(f"{mode} requires {flag}")
        elif dest not in needs | reads:
            raise ValidationError(f"{flag} does not apply to {mode}")


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on bad flags already
        return int(exc.code) if exc.code else EXIT_OK
    try:
        _check_flags(parser, args)
        with warnings.catch_warnings():
            # one line per warning, without the source line
            warnings.showwarning = lambda msg, *_: print(f"warning: {msg}", file=sys.stderr)
            return args.func(args)
    except (DataFormatError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except DegenerateGroupError as exc:
        print(f"degenerate estimation: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except ExhaustedError as exc:
        print(f"data exhausted: {exc}", file=sys.stderr)
        return EXIT_EXHAUSTED


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
