"""Command-line surface tying the library together.

Exit codes: 0 success, 2 invalid input (files, flags, parameters),
3 degenerate estimation under --fallback error, 4 data exhaustion (an
empirical group too small for the requested grid). Randomized commands
take their seed from an explicit --seed flag or the config file; there is
no wall-clock default.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

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
    estimate_finite,
    estimate_stratified_ite,
    estimate_with_known_confounded,
)
from .model import (
    GROUPS,
    ConfoundedDistribution,
    adversarial_instance,
    ate_details,
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


def _fmt_groups(groups) -> str:
    if not groups:
        return "none"
    return ", ".join(f"(y={y},t={t})" for y, t in sorted(groups))


def _fmt_strata(strata) -> str:
    if not strata:
        return "none"
    return ", ".join(f"(t={t},z={z})" for t, z in sorted(strata))


def cmd_ate(args) -> int:
    result = ate_details(dio.read_joint(args.instance))
    print(f"ate = {result.value:.10g}")
    print(f"degenerate strata: {_fmt_strata(result.degenerate_strata)}")
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
    print(f"degenerate groups: {_fmt_groups(payload['degenerate_groups'])}")
    print(f"degenerate strata: {_fmt_strata(payload['degenerate_strata'])}")


def cmd_estimate(args) -> int:
    if args.stratified and (args.mode is not None or args.a_file is not None):
        raise ValidationError("--stratified takes neither --mode nor --a-file")
    mode = args.mode or "finite"
    if mode == "known-a" and args.a_file is None:
        raise ValidationError("mode known-a requires --a-file")
    if mode != "known-a" and args.a_file is not None:
        raise ValidationError("--a-file requires --mode known-a")
    if mode == "deconf-only" and args.fallback is not None:
        raise ValidationError("--fallback does not apply to --mode deconf-only")
    fallback = args.fallback or "uniform"

    if args.stratified:
        cols = dio.read_stratified_csv(args.data, args.k)
        result = estimate_stratified_ite(*cols.T, args.k, fallback)
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

    records = dio.read_dataset_csv(args.data, args.k)
    revealed = records[records[:, 2] >= 0]
    if mode == "deconf-only":
        result = estimate_deconfounded_only(revealed, args.k)
    elif mode == "known-a":
        a = dio.read_marginal(args.a_file)
        result = estimate_with_known_confounded(a, revealed, args.k, fallback)
    else:  # finite
        result = estimate_finite(records[:, :2], revealed, args.k, fallback)
    if args.json:
        print(json.dumps(_result_payload(result), indent=2))
    else:
        _print_result(result)
    return EXIT_OK


def _fmt_value(v: float) -> str:
    return "inf" if math.isinf(v) else f"{v:.6g}"


def _fmt_witness(w) -> str:
    return "-" if w is None else f"(t={w[0]},z={w[1]})"


def _selected_policy(args):
    """The --policy name, the --weights of --policy custom, or None."""
    if args.weights is not None and args.policy != "custom":
        raise ValidationError("--weights requires --policy custom")
    if args.policy == "custom":
        if args.weights is None:
            raise ValidationError("--policy custom requires --weights w00,w01,w10,w11")
        try:
            vals = [float(v) for v in args.weights.split(",")]
        except ValueError:
            raise ValidationError(f"--weights expects four reals, got {args.weights!r}")
        return PolicyWeights(np.asarray(vals))
    return args.policy


def cmd_plan(args) -> int:
    selected = _selected_policy(args)
    if isinstance(selected, str) and args.n is None:
        raise ValidationError(f"--policy {selected} requires --n")
    if args.budget is None:
        for flag, value in (("--cost-confounded", args.cost_confounded),
                            ("--cost-deconfound", args.cost_deconfound), ("--grid", args.grid)):
            if value is not None:
                raise ValidationError(f"{flag} requires --budget")
    elif args.cost_confounded is None or args.cost_deconfound is None:
        raise ValidationError("--budget requires --cost-confounded and --cost-deconfound")
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


def _parse_a(text) -> ConfoundedDistribution:
    try:
        vals = [float(v) for v in text.split(",")]
    except ValueError:
        raise ValidationError(f"--a expects four comma-separated reals, got {text!r}")
    return ConfoundedDistribution(np.asarray(vals))


def cmd_gen_instance(args) -> int:
    modes = [args.random, args.adversarial is not None, args.hardness,
             args.lower_bound is not None]
    if sum(bool(m) for m in modes) != 1:
        raise ValidationError(
            "choose exactly one of --random, --adversarial, --hardness, --lower-bound"
        )

    if args.random:
        if args.seed is None:
            raise ValidationError("--random requires --seed")
        joint = random_instance(args.k, args.seed)
        dio.write_joint_instance(args.out, joint)
        print(f"wrote random k={args.k} instance to {args.out}")
        return EXIT_OK

    if args.adversarial is not None:
        a, q = adversarial_instance(f"{args.adversarial}_worst")
        dio.write_instance(args.out, a, q)
        print(f"wrote {args.adversarial}_worst instance to {args.out}")
        return EXIT_OK

    if args.hardness:
        if args.a is None or args.gamma is None:
            raise ValidationError("--hardness requires --a and --gamma")
        a = _parse_a(args.a)
        pair = hardness_pair(a, args.gamma, args.q_floor)
    else:  # lower-bound construction
        if args.a is None:
            raise ValidationError("--lower-bound requires --a")
        a = _parse_a(args.a)
        if args.lower_bound == "general":
            needed = (args.q00, args.q01, args.beta, args.gamma)
            if any(v is None for v in needed):
                raise ValidationError(
                    "--lower-bound general requires --q00 --q01 --beta --gamma"
                )
            pair = general_lower_pair(a, args.q00, args.q01, args.beta, args.gamma)
        else:
            if args.beta is None or args.gamma is None:
                raise ValidationError(
                    "--lower-bound policy requires --beta --gamma (and --k)"
                )
            pair = policy_lower_pair(a, args.k, args.beta, args.gamma)

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
    if args.seed is not None:
        config = sim.ExperimentConfig(
            **{**config.__dict__, "seed": args.seed}
        )
    elif not extras.get("has_seed", False):
        raise ValidationError("no seed: pass --seed or set 'seed' in the config")
    instances = None
    if extras.get("instance_files"):
        loaded = [dio.read_instance(p) for p in extras["instance_files"]]
        instances = [(inst.a, inst.q) for inst in loaded]
    return config, extras, instances


def cmd_simulate(args) -> int:
    config, _, instances = _load_sim_inputs(args)
    curve = sim.run_infinite_experiment(config, instances, workers=args.workers)
    dio.write_error_curve_csv(curve, args.out)
    print(f"wrote {len(curve.rows)} rows to {args.out}")
    return EXIT_OK


def cmd_simulate_finite(args) -> int:
    config, _, instances = _load_sim_inputs(args)
    curve = sim.run_finite_experiment(config, instances, workers=args.workers)
    dio.write_error_curve_csv(curve, args.out)
    print(f"wrote {len(curve.rows)} rows to {args.out}")
    return EXIT_OK


def cmd_simulate_real(args) -> int:
    config, extras, _ = _load_sim_inputs(args)
    data_path = args.data or extras.get("dataset")
    if data_path is None:
        raise ValidationError("simulate-real needs --data or a 'dataset' config field")
    records = dio.read_full_table_csv(data_path, config.k)
    curve = sim.run_empirical_experiment(records, config, workers=args.workers)
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
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--seed", type=int)
    p.add_argument("--adversarial", choices=NAMED_POLICIES)
    p.add_argument("--hardness", action="store_true")
    p.add_argument("--lower-bound", dest="lower_bound", choices=["general", "policy"])
    p.add_argument("--a")
    p.add_argument("--gamma", type=float)
    p.add_argument("--q-floor", dest="q_floor", type=float, default=1.0 - 1e-6)
    p.add_argument("--q00", type=float)
    p.add_argument("--q01", type=float)
    p.add_argument("--beta", type=float)
    p.set_defaults(func=cmd_gen_instance)

    for name, handler, with_data in (
        ("simulate", cmd_simulate, False),
        ("simulate-finite", cmd_simulate_finite, False),
        ("simulate-real", cmd_simulate_real, True),
    ):
        p = sub.add_parser(name, help=f"run the {name} protocol")
        p.add_argument("--config", required=True)
        p.add_argument("--out", required=True)
        p.add_argument("--seed", type=int)
        p.add_argument("--workers", type=int, default=1)
        if with_data:
            p.add_argument("--data")
        p.set_defaults(func=handler)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on bad flags already
        return int(exc.code) if exc.code else EXIT_OK
    try:
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
