"""Command-line front end.

Exit codes: 0 when the checked property holds, 1 when it is violated,
2 for input or configuration errors.
"""

from __future__ import annotations

import argparse
import json
import sys

from .consistency import (
    acceptability_check,
    check_dependability,
    check_time_consistency,
)
from .errors import HorizonRiskError
from .expectations import ExpectationOperator, axioms_check
from .files import load_market, load_policy, load_space, load_tree, _as_mapping
from .horizon import (
    BellmanAdditive,
    ModifiedHorizon,
    SimpleHorizon,
    Terminal,
    run_policy_choice,
)
from .instances import builtin_example, example_names

SCHEMA_VERSION = 1


def _operator_from_args(args) -> ExpectationOperator:
    if getattr(args, "paper10", False) or args.operator == "paper10":
        return ExpectationOperator.paper10()
    if args.operator == "linear":
        return ExpectationOperator.linear()
    return ExpectationOperator.entropic(args.gamma, args.kappa)


def _fmt_slice(sl) -> str:
    return "{" + ", ".join(f"{n}: {v:.4f}" for n, v in sorted(sl.values.items())) + "}"


def _emit(payload: dict, fmt: str) -> None:
    if fmt == "structured":
        print(json.dumps(payload, indent=2, sort_keys=True))


def cmd_run(args) -> int:
    if args.m < 1:
        raise ValueError(f"--m must be >= 1, got {args.m}")
    if args.example:
        inst = builtin_example(args.example)
        market, space = inst.market, inst.space
    else:
        if not args.market or not args.space:
            raise ValueError("run needs --market and --space, or --example")
        market = load_market(args.market)
        space = load_space(args.space, market.tree, market.num_assets)
    coeffs = {}
    if args.payoff:
        raw = _as_mapping(args.payoff)
        coeffs = {str(k): tuple(float(x) for x in v)
                  for k, v in raw.get("coefficients", raw).items()}
    op = _operator_from_args(args)
    if args.mode == "simple":
        vf = SimpleHorizon(args.m, op)
    elif args.mode == "modified":
        vf = ModifiedHorizon(args.m, op)
    elif args.mode == "terminal":
        vf = Terminal(op)
    else:
        vf = BellmanAdditive(
            lambda node, alloc: sum(c * a for c, a in zip(coeffs.get(node, ()), alloc))
        )

    choice = run_policy_choice(vf, market, space, tol=args.tol)
    if args.mode == "modified":
        report = check_dependability(vf, market, choice, args.tol)
        verdict = "DEPENDABLE" if report.ok else "UNDEPENDABLE"
    else:
        report = check_time_consistency(vf, market, choice, args.tol)
        verdict = "CONSISTENT" if report.ok else "INCONSISTENT"

    per_time = []
    for t, rec in enumerate(report.records):
        per_time.append(
            {
                "t": t,
                "chosen": choice.chosen[t].label,
                "planned_value": dict(sorted(rec.planned.values.items())),
                "realized_value": dict(sorted(rec.realized.values.items())),
                "max_signed_gap": rec.max_signed_gap,
                "ok": rec.ok,
            }
        )
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "run",
        "mode": args.mode,
        "operator": op.describe(),
        "m": args.m,
        "tol": args.tol,
        "seed": args.seed,
        "space_size": len(space),
        "per_time": per_time,
        "verdict": verdict,
        "ok": report.ok,
    }
    if args.format == "structured":
        _emit(payload, args.format)
    else:
        print(f"mode={args.mode} operator={op.describe()} m={args.m} "
              f"tol={args.tol:g} policies={len(space)}")
        for t, rec in enumerate(report.records):
            print(
                f"t={t} chosen={choice.chosen[t].label}\n"
                f"    planned  {_fmt_slice(rec.planned)}\n"
                f"    realized {_fmt_slice(rec.realized)}\n"
                f"    gap={rec.max_signed_gap:.4f} ok={rec.ok}"
            )
        print(f"verdict: {verdict}")
    return 0 if report.ok else 1


def cmd_check_axioms(args) -> int:
    op = _operator_from_args(args)
    if args.example:
        tree = builtin_example(args.example).market.tree
    elif args.tree:
        tree = load_tree(args.tree)
    else:
        raise ValueError("check-axioms needs --tree or --example")
    report = axioms_check(op, tree, args.trials, args.seed, args.tol)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "check-axioms",
        "operator": op.describe(),
        "trials": args.trials,
        "seed": args.seed,
        "tol": args.tol,
        "axioms": {
            name: {
                "passed": v.passed,
                "worst_violation": v.worst_violation,
                "counterexample": v.counterexample,
                "note": v.note,
            }
            for name, v in report.verdicts().items()
        },
        "ok": report.all_pass,
    }
    if args.format == "structured":
        _emit(payload, args.format)
    else:
        print(f"operator={op.describe()} trials={args.trials} seed={args.seed} tol={args.tol:g}")
        for name, v in report.verdicts().items():
            line = f"{name}: {'PASS' if v.passed else 'FAIL'} (worst violation {v.worst_violation:.3e})"
            print(line)
            if not v.passed:
                print(f"    counterexample: {v.counterexample}")
            if v.note:
                print(f"    note: {v.note}")
    return 0 if report.all_pass else 1


def cmd_acceptability(args) -> int:
    op = _operator_from_args(args)
    if args.example:
        inst = builtin_example(args.example)
        market = inst.market
        candidate = (
            load_policy(_as_mapping(args.policy), market.tree, market.num_assets)
            if args.policy
            else inst.base_policy
        )
    else:
        if not args.market or not args.policy:
            raise ValueError("acceptability needs --market and --policy, or --example")
        market = load_market(args.market)
        candidate = load_policy(_as_mapping(args.policy), market.tree, market.num_assets)
    report = acceptability_check(market, candidate, args.m, op, args.tol)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "acceptability",
        "operator": op.describe(),
        "m": args.m,
        "tol": args.tol,
        "candidate": candidate.label,
        "space_size": report.space_size,
        "chain": {
            "realized": report.realized_value,
            "chosen": report.chosen_value,
            "candidate_at_horizon": report.candidate_horizon_value,
        },
        "candidate_terminal_value": report.candidate_terminal_value,
        "null_value": report.null_value,
        "initial_wealth": report.initial_wealth,
        "chain_ok": report.chain_ok,
        "acceptable": report.acceptable,
        "ok": report.chain_ok and report.acceptable,
    }
    if args.format == "structured":
        _emit(payload, args.format)
    else:
        print(f"operator={op.describe()} m={args.m} candidate={candidate.label} "
              f"stopping policies={report.space_size}")
        print(
            f"chain: realized {report.realized_value:.4f} >= chosen {report.chosen_value:.4f} "
            f">= candidate@horizon {report.candidate_horizon_value:.4f} : "
            f"{'holds' if report.chain_ok else 'VIOLATED'}"
        )
        print(
            f"acceptable: {report.acceptable} "
            f"(candidate terminal value {report.candidate_terminal_value:.4f} vs "
            f"threshold {report.null_value:.4f}, v0={report.initial_wealth:g})"
        )
    return 0 if (report.chain_ok and report.acceptable) else 1


def _add_operator_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--operator", choices=["linear", "entropic", "paper10"], default="entropic")
    p.add_argument("--gamma", type=float, default=10.0)
    p.add_argument("--kappa", type=float, default=None)
    p.add_argument("--paper10", action="store_true",
                   help="use the base-10 preset (kappa=10/ln 10, gamma=10)")


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=["text", "structured"], default="text")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="horizonrisk",
        description="Moving-horizon policy choice and consistency checks on scenario trees",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run the sequential problem and check it")
    run.add_argument("--example", choices=example_names())
    run.add_argument("--market", help="market file (tree plus d, v0, prices)")
    run.add_argument("--space", help="policy space file")
    run.add_argument("--mode", choices=["simple", "modified", "terminal", "bellman"],
                     default="simple")
    run.add_argument("--m", type=int, default=2, help="horizon length (>= 1)")
    run.add_argument("--payoff", help="bellman payoff coefficients file {node: [floats]}")
    _add_operator_flags(run)
    _add_common_flags(run)

    ax = sub.add_parser("check-axioms", help="verify the operator axioms on random slices")
    ax.add_argument("--tree", help="tree file")
    ax.add_argument("--example", choices=example_names())
    ax.add_argument("--trials", type=int, default=500)
    _add_operator_flags(ax)
    _add_common_flags(ax)

    acc = sub.add_parser("acceptability", help="stopping-time acceptability of a policy")
    acc.add_argument("--example", choices=example_names())
    acc.add_argument("--market")
    acc.add_argument("--policy", help="candidate policy file")
    acc.add_argument("--m", type=int, default=2)
    _add_operator_flags(acc)
    _add_common_flags(acc)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return cmd_run(args)
        if args.command == "check-axioms":
            return cmd_check_axioms(args)
        return cmd_acceptability(args)
    except (HorizonRiskError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
