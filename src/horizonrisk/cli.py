"""Command-line front end.

Exit codes: 0 when the checked property holds, 1 when it is violated,
2 for input or configuration errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict
from functools import cache

from .consistency import (
    acceptability_check,
    check_dependability,
    check_time_consistency,
)
from .errors import HorizonRiskError
from .expectations import ExpectationOperator, axioms_check
from .files import _as_mapping, load_market, load_payoff, load_policy, load_space, load_tree
from .horizon import (
    BellmanAdditive,
    ModifiedHorizon,
    SimpleHorizon,
    Terminal,
    run_policy_choice,
)
from .instances import builtin_example, example_names
from .tree import check_tol

SCHEMA_VERSION = 1


def _operator_from_args(args) -> ExpectationOperator:
    """--paper10 alone, --operator linear without --gamma or --kappa, or
    entropic with --gamma (10 by default) and --kappa (gamma by default).
    A flag the chosen operator would ignore is refused."""
    given = [f"--{f}" for f in ("operator", "gamma", "kappa") if getattr(args, f) is not None]
    if args.paper10:
        if given:
            raise ValueError(f"--paper10 fixes the operator and cannot be combined with {given[0]}")
        return ExpectationOperator.paper10()
    if args.operator == "linear":
        if given[1:]:
            raise ValueError(f"--operator linear takes no {given[1]}")
        return ExpectationOperator.linear()
    return ExpectationOperator.entropic(10.0 if args.gamma is None else args.gamma, args.kappa)


def _fmt_values(values: dict[str, float]) -> str:
    # + 0.0 turns -0.0 into 0.0, which would print as -0.0000
    return "{" + ", ".join(f"{n}: {v + 0.0:.4f}" for n, v in values.items()) + "}"


def _refuse_unread(args, reason: str, *flags: str) -> None:
    """An input file the command would never read is refused, not ignored."""
    if given := [f for f in flags if getattr(args, f) is not None]:
        raise ValueError(f"--{given[0]} is not read {reason}")


def _emit(args, payload: dict, text: list[str]) -> None:
    """Print the payload, versioned, as JSON for --format structured and the
    text lines otherwise, and flush it."""
    if args.format == "structured":
        print(json.dumps({"schema_version": SCHEMA_VERSION, **payload}, indent=2, sort_keys=True))
    else:
        print("\n".join(text))
    sys.stdout.flush()


def cmd_run(args) -> tuple[dict, list[str]]:
    if args.mode != "bellman":
        _refuse_unread(args, f"by --mode {args.mode}", "payoff")
    if args.example:
        _refuse_unread(args, "with --example", "market", "space")
        inst = builtin_example(args.example)
        market, space = inst.market, inst.space
    else:
        if not args.market or not args.space:
            raise ValueError("run needs --market and --space, or --example")
        market = load_market(args.market)
        space = load_space(args.space, market.tree, market.num_assets)
    coeffs = load_payoff(args.payoff, market) if args.payoff else {}
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

    text = [f"mode={args.mode} operator={op.describe()} m={args.m} "
            f"tol={args.tol:g} policies={len(space)}"]
    per_time = []
    for t, rec in enumerate(report.records):
        chosen = choice.chosen[t].label
        planned, realized = (dict(sorted(sl.values.items())) for sl in (rec.planned, rec.realized))
        per_time.append(
            {
                "t": t,
                "chosen": chosen,
                "planned_value": planned,
                "realized_value": realized,
                "max_signed_gap": rec.max_signed_gap,
                "ok": rec.ok,
            }
        )
        text += [
            f"t={t} chosen={chosen}",
            f"    planned  {_fmt_values(planned)}",
            f"    realized {_fmt_values(realized)}",
            f"    gap={rec.max_signed_gap + 0.0:.4f} ok={rec.ok}",
        ]
    text.append(f"verdict: {verdict}")
    payload = {
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
    return payload, text


def cmd_check_axioms(args) -> tuple[dict, list[str]]:
    op = _operator_from_args(args)
    if args.example:
        _refuse_unread(args, "with --example", "tree")
        tree = builtin_example(args.example).market.tree
    elif args.tree:
        tree = load_tree(args.tree)
    else:
        raise ValueError("check-axioms needs --tree or --example")
    report = axioms_check(op, tree, args.trials, args.seed, args.tol)
    text = [f"operator={op.describe()} trials={args.trials} seed={args.seed} tol={args.tol:g}"]
    axioms = {}
    for name, v in report.verdicts().items():
        axioms[name] = asdict(v)
        text.append(f"{name}: {'PASS' if v.passed else 'FAIL'} (worst violation {v.worst_violation:.3e})")
        if not v.passed:
            text.append(f"    counterexample: {v.counterexample}")
        if v.note:
            text.append(f"    note: {v.note}")
    payload = {
        "command": "check-axioms",
        "operator": op.describe(),
        "trials": args.trials,
        "seed": args.seed,
        "tol": args.tol,
        "axioms": axioms,
        "ok": report.all_pass,
    }
    return payload, text


def cmd_acceptability(args) -> tuple[dict, list[str]]:
    op = _operator_from_args(args)
    if args.example:
        _refuse_unread(args, "with --example", "market")
        inst = builtin_example(args.example)
        market, candidate = inst.market, inst.base_policy
    elif not args.market or not args.policy:
        raise ValueError("acceptability needs --market and --policy, or --example")
    else:
        market = load_market(args.market)
    if args.policy:
        candidate = load_policy(_as_mapping(args.policy), market.tree, market.num_assets)
    report = acceptability_check(market, candidate, args.m, op, args.tol)
    payload = {
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
    text = [
        f"operator={op.describe()} m={args.m} candidate={candidate.label} "
        f"stopping policies={report.space_size}",
        f"chain: realized {report.realized_value + 0.0:.4f} "
        f">= chosen {report.chosen_value + 0.0:.4f} "
        f">= candidate@horizon {report.candidate_horizon_value + 0.0:.4f} : "
        f"{'holds' if report.chain_ok else 'VIOLATED'}",
        f"acceptable: {report.acceptable} "
        f"(candidate terminal value {report.candidate_terminal_value + 0.0:.4f} vs "
        f"threshold {report.null_value + 0.0:.4f}, v0={report.initial_wealth + 0.0:g})",
    ]
    return payload, text


def _add_operator_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--operator", choices=["linear", "entropic"], help="default: entropic")
    p.add_argument("--gamma", type=float, help="entropic gamma (default: 10)")
    p.add_argument("--kappa", type=float, help="entropic kappa (default: gamma)")
    p.add_argument("--paper10", action="store_true",
                   help="use the base-10 preset (kappa=10/ln 10, gamma=10)")


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--format", choices=["text", "structured"], default="text")


@cache  # one parser per process: parsing leaves it as it was
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
    run.add_argument("--seed", type=int, default=0)
    _add_operator_flags(run)
    _add_common_flags(run)

    ax = sub.add_parser("check-axioms", help="verify the operator axioms on random slices")
    ax.add_argument("--tree", help="tree file")
    ax.add_argument("--example", choices=example_names())
    ax.add_argument("--trials", type=int, default=500)
    ax.add_argument("--seed", type=int, default=0)
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
    args.tol += 0.0  # -0.0 becomes 0.0, which prints as 0 in every output
    try:
        check_tol(args.tol, "--tol")
        if getattr(args, "m", 1) < 1:
            raise ValueError(f"--m must be >= 1, got {args.m}")
        if args.command == "run":
            payload, text = cmd_run(args)
        elif args.command == "check-axioms":
            payload, text = cmd_check_axioms(args)
        else:
            payload, text = cmd_acceptability(args)
    except (HorizonRiskError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        _emit(args, payload, text)
    except BrokenPipeError:
        # the reader closed the pipe early (`| head -1`): the rest goes to
        # os.devnull, so that the flush at exit does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 0 if payload["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
