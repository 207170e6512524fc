"""The benchmark's workloads: seeded inputs, the fixed op list of one pass,
and the check of every op's output.

A pass is one run over a workload's op list. Each op list is a fixed set
of inputs of different sizes, so a per-command mean over whole passes
repeats from run to run while a median would jump between neighbouring
inputs.

Outputs are checked in two ways. For the default seed every op is
compared with the reference recorded in `reference/<workload>.json`:
exit codes, verdicts and labels exactly, values within 1e-9 (relative
above 1). For every seed, the invariants that theory guarantees are
checked as well.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import horizonrisk as hr
from horizonrisk import cli
from horizonrisk.instances import three_period_market_spec

DEFAULT_SEED = 0
TOL = 1e-9
REFERENCE_DIR = Path(__file__).resolve().with_name("reference")

# the s4 values the paper quotes to four decimals, under the base-10 preset
GOLDEN = {"planned": 0.1889, "realized_short": -2.4926, "realized_terminal": 0.4741}


@dataclass(frozen=True)
class OperatorChoice:
    name: str
    build: Callable[[], hr.ExpectationOperator]
    flags: tuple[str, ...]
    axiom_consistent: bool


OPERATORS = {
    "linear": OperatorChoice(
        "linear", hr.ExpectationOperator.linear, ("--operator", "linear"), True
    ),
    "entropic5": OperatorChoice(
        "entropic5",
        lambda: hr.ExpectationOperator.entropic(5.0),
        ("--operator", "entropic", "--gamma", "5"),
        True,
    ),
    "entropic10": OperatorChoice(
        "entropic10",
        lambda: hr.ExpectationOperator.entropic(10.0),
        ("--operator", "entropic", "--gamma", "10"),
        True,
    ),
    "paper10": OperatorChoice("paper10", hr.ExpectationOperator.paper10, ("--paper10",), False),
}


@dataclass
class Op:
    """One operation of a pass.

    `call` is the timed work and returns the raw output. `summarize` turns
    it into a JSON-shaped summary, compared with the reference and between
    traced and untraced runs. `invariant` returns a failure reason or None.
    """

    key: str
    kind: str
    call: Callable[[], object]
    summarize: Callable[[object], dict]
    invariant: Callable[[object, dict], str | None] = lambda raw, summary: None


@dataclass
class Workload:
    name: str
    seed: int
    ops: list[Op]
    inputs: bytes  # canonical bytes of every generated input
    # op key -> expected summary; an op absent here is checked by its invariant only
    reference: dict = field(default_factory=dict)

    def check(self, op: Op, raw, summary: dict) -> str | None:
        """A failure reason for this op's output, or None when it is correct."""
        expected = self.reference.get(op.key)
        if expected is not None:
            problem = compare(summary, expected)
            if problem:
                return f"differs from reference at {problem}"
        elif self.seed == DEFAULT_SEED:
            return f"no reference output for {op.key}"
        return op.invariant(raw, summary)


# ------------------------------------------------------------- comparisons


def close(a: float, b: float) -> bool:
    return abs(a - b) <= TOL * max(1.0, abs(b))


def compare(got, want, path: str = "") -> str | None:
    """The path of the first difference, or None. Floats compare within
    1e-9 (relative above 1); everything else exactly."""
    if isinstance(want, bool) or isinstance(got, bool):
        return None if got is want else path or "."
    if isinstance(want, float) or isinstance(got, float):
        if isinstance(got, (int, float)) and isinstance(want, (int, float)) and close(got, want):
            return None
        return path or "."
    if isinstance(want, dict):
        if not isinstance(got, dict) or got.keys() != want.keys():
            return path or "."
        for k in want:
            problem = compare(got[k], want[k], f"{path}.{k}")
            if problem:
                return problem
        return None
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return path or "."
        for i, (g, w) in enumerate(zip(got, want)):
            problem = compare(g, w, f"{path}[{i}]")
            if problem:
                return problem
        return None
    return None if got == want else path or "."


def fingerprint(values: dict[str, float]) -> list:
    """A slice reduced to [count, sum, weighted sum, min, max], nodes in id
    order with weights 1 + i/n. Two slices whose values agree within
    1e-9 / n agree here within 1e-9, and a changed, swapped or missing
    node value shows in at least one component."""
    vals = [values[n] for n in sorted(values)]
    n = len(vals)
    return [
        n,
        math.fsum(vals),
        math.fsum((1.0 + i / n) * v for i, v in enumerate(vals)),
        min(vals),
        max(vals),
    ]


def _run_summary(verdict: str, ok: bool, chosen: list[str], records: list[dict]) -> dict:
    return {
        "verdict": verdict,
        "ok": ok,
        "chosen": chosen,
        "gaps": [r["max_signed_gap"] for r in records],
        "planned": [fingerprint(r["planned"]) for r in records],
        "realized": [fingerprint(r["realized"]) for r in records],
    }


def _verdict_word(mode: str, ok: bool) -> str:
    if mode == "modified":
        return "DEPENDABLE" if ok else "UNDEPENDABLE"
    return "CONSISTENT" if ok else "INCONSISTENT"


# ------------------------------------------------------------- input generation


def tree_spec(rng: random.Random, depth: int, fan_out: int) -> dict:
    """A non-recombining tree with `fan_out` children per node and branch
    probabilities drawn from normalised weights in [0.2, 1]."""
    nodes = [{"id": "r", "time": 0, "parent": None, "p": None}]
    level = ["r"]
    for t in range(1, depth + 1):
        nxt = []
        for nid in level:
            weights = [rng.uniform(0.2, 1.0) for _ in range(fan_out)]
            total = sum(weights)
            probs = [w / total for w in weights]
            probs[-1] = 1.0 - sum(probs[:-1])
            for i, p in enumerate(probs):
                cid = f"{nid}{i}"
                nodes.append({"id": cid, "time": t, "parent": nid, "p": p})
                nxt.append(cid)
        level = nxt
    return {"T": depth, "nodes": nodes}


def market_spec(rng: random.Random, depth: int, fan_out: int, d: int, inc: float = 10.0) -> dict:
    """A market file: the tree plus d asset prices starting in [10, 30]
    and moving by increments drawn from [-inc, inc] on every branch."""
    spec = tree_spec(rng, depth, fan_out)
    prices = {"r": [rng.uniform(10.0, 30.0) for _ in range(d)]}
    for node in spec["nodes"][1:]:
        parent = prices[node["parent"]]
        prices[node["id"]] = [parent[i] + rng.uniform(-inc, inc) for i in range(d)]
    spec["d"] = d
    spec["v0"] = 0.0 if rng.random() < 0.5 else rng.uniform(-5.0, 5.0)
    spec["prices"] = prices
    return spec


def _decision_nodes(spec: dict) -> list[str]:
    return [n["id"] for n in spec["nodes"] if n["time"] < spec["T"]]


def policy_spec(rng: random.Random, spec: dict, label: str) -> dict:
    """Non-zero allocations of magnitude 0.25 to 2 at every decision node."""
    return {
        "label": label,
        "alloc": {
            nid: [rng.choice((-1.0, 1.0)) * rng.uniform(0.25, 2.0) for _ in range(spec["d"])]
            for nid in _decision_nodes(spec)
        },
    }


def payoff_spec(rng: random.Random, spec: dict) -> dict:
    """Stage-payoff coefficients for the Bellman variant, one per asset."""
    return {
        "coefficients": {
            nid: [rng.uniform(-1.0, 1.0) for _ in range(spec["d"])]
            for nid in _decision_nodes(spec)
        }
    }


def _canonical(obj) -> bytes:
    return json.dumps(obj, sort_keys=True).encode()


def load_reference(name: str) -> dict:
    """The recorded default-seed outputs of a workload, or {} before recording."""
    path = REFERENCE_DIR / f"{name}.json"
    return json.loads(path.read_text()) if path.exists() else {}


# ------------------------------------------------------------- CLI ops


def run_cli(argv: list[str]) -> tuple[int, str]:
    """`horizonrisk <argv>` in process, with stdout captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects its input this way
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue()


def _cli_op(key: str, kind: str, argv: list[str], summarize, invariant=None) -> Op:
    return Op(
        key,
        kind,
        lambda: run_cli(argv),
        summarize,
        invariant or (lambda raw, summary: None),
    )


def _bytes_summary(raw) -> dict:
    code, out = raw
    return {"exit": code, "sha256": hashlib.sha256(out.encode()).hexdigest()}


def _axioms_summary(raw) -> dict:
    code, out = raw
    doc = json.loads(out)
    return {
        "exit": code,
        "ok": doc["ok"],
        "axioms": {
            name: {"passed": v["passed"], "worst_violation": v["worst_violation"]}
            for name, v in doc["axioms"].items()
        },
    }


def _axioms_invariant(axiom_consistent: bool):
    """kappa == gamma and linear pass all four axioms; the base-10 preset
    stays monotone and obeys the zero-one law but fails constant
    invariance and recursivity on any non-zero slice."""

    def check(raw, summary) -> str | None:
        passed = {k: v["passed"] for k, v in _axioms_summary(raw)["axioms"].items()}
        if axiom_consistent:
            expected = dict.fromkeys(passed, True)
        else:
            expected = {
                "monotonicity": True,
                "constant_invariance": False,
                "recursivity": False,
                "zero_one_law": True,
            }
        want_exit = 0 if axiom_consistent else 1
        if passed != expected or raw[0] != want_exit:
            return f"axiom verdicts {passed} with exit {raw[0]}"
        return None

    return check


# ------------------------------------------------------------- s4-cli


S4_OPERATORS = ("paper10", "entropic10", "linear")
MODES = ("simple", "modified", "terminal", "bellman")


def _s4_golden(raw, summary) -> str | None:
    """Under the base-10 preset, the simple run plans 0.1889 at the root and
    realises -2.4926; the modified run realises 0.4741."""
    doc = json.loads(raw[1])
    root = doc["per_time"][0]
    want = {
        "simple": (GOLDEN["planned"], GOLDEN["realized_short"]),
        "modified": (GOLDEN["planned"], GOLDEN["realized_terminal"]),
    }[doc["mode"]]
    got = (root["planned_value"]["r"], root["realized_value"]["r"])
    if any(abs(g - w) > 5e-5 for g, w in zip(got, want)):
        return f"golden root values {got}, expected {want}"
    return None


def _s4_files(workdir: Path) -> dict[str, str]:
    """The s4 market, its stopping-time space over always-hold, and the
    always-hold candidate, written as the files the CLI reads."""
    spec = three_period_market_spec()
    hold = {"label": "hold", "alloc": {nid: [1.0] for nid in _decision_nodes(spec)}}
    paths = {}
    for part, doc in (
        ("market", spec),
        ("space", {"label": "stopping(hold)", "stopping_space_of": hold}),
        ("policy", hold),
    ):
        path = workdir / f"s4-{part}.json"
        path.write_bytes(_canonical(doc))
        paths[part] = str(path)
    return paths


def build_s4_cli(seed: int, workdir: Path, worker: int = 0) -> Workload:
    """`horizonrisk` on the built-in s4 example, every op through cli.main
    with structured output. The seed picks the check-axioms seed; the other
    commands are deterministic, so their output is byte-identical for
    every seed. The instance is fixed, so every worker runs the same ops.

    Three more ops read the same instance from files written here, so the
    file loaders are measured too. Their output is byte-identical to that
    of the matching --example op. The third, a check-axioms op, also
    keeps the 90th percentile of a pass's 21 ops inside the cluster of
    the slow check-axioms ops: with 20 ops it fell on the edge between the
    linear one (about 40 ms) and the others (about 75 ms), and moved with
    single extreme samples."""
    axioms_seed = random.Random(seed).randrange(10**6)
    files = _s4_files(workdir)
    paper10 = list(OPERATORS["paper10"].flags)
    ops = [
        _cli_op("run:modified:paper10:files", "run_modified",
                ["run", "--market", files["market"], "--space", files["space"],
                 "--mode", "modified", *paper10, "--format", "structured"],
                _bytes_summary, _s4_golden),
        _cli_op("acceptability:paper10:files", "acceptability",
                ["acceptability", "--market", files["market"], "--policy", files["policy"],
                 *paper10, "--format", "structured"],
                _bytes_summary),
        _cli_op("check_axioms:paper10:files", "check_axioms",
                ["check-axioms", "--tree", files["market"], *paper10,
                 "--seed", str(axioms_seed), "--format", "structured"],
                _bytes_summary, _axioms_invariant(False)),
    ]
    # argv of the --example ops and the bytes of the written files; the
    # file ops' argv hold paths, which differ between set-ups
    argvs = {part: Path(path).read_text() for part, path in files.items()}
    for opname in S4_OPERATORS:
        choice = OPERATORS[opname]
        flags = list(choice.flags)
        for mode in MODES:
            key = f"run:{mode}:{opname}"
            argv = ["run", "--example", "s4", "--mode", mode, *flags, "--format", "structured"]
            golden = _s4_golden if opname == "paper10" and mode in ("simple", "modified") else None
            ops.append(_cli_op(key, f"run_{mode}", argv, _bytes_summary, golden))
            argvs[key] = argv
        key = f"acceptability:{opname}"
        argv = ["acceptability", "--example", "s4", *flags, "--format", "structured"]
        ops.append(_cli_op(key, "acceptability", argv, _bytes_summary))
        argvs[key] = argv
        key = f"check_axioms:{opname}"
        argv = ["check-axioms", "--example", "s4", *flags, "--seed", str(axioms_seed),
                "--format", "structured"]
        ops.append(
            _cli_op(key, "check_axioms", argv, _bytes_summary,
                    _axioms_invariant(choice.axiom_consistent))
        )
        argvs[key] = argv
    reference = load_reference("s4-cli")
    if seed != DEFAULT_SEED:
        # only check-axioms output depends on the seed
        reference = {k: v for k, v in reference.items() if not k.startswith("check_axioms:")}
    return Workload("s4-cli", seed, ops, _canonical(argvs), reference)


# ------------------------------------------------------------- stop-d4


STOP_OPERATORS = ("linear", "entropic5", "entropic10", "paper10")


def _library_run_summary(mode: str, choice, report) -> dict:
    records = [
        {
            "planned": r.planned.values,
            "realized": r.realized.values,
            "max_signed_gap": r.max_signed_gap,
        }
        for r in report.records
    ]
    return _run_summary(
        _verdict_word(mode, report.ok), report.ok, [p.label for p in choice.chosen], records
    )


def _stop_run_op(key: str, mode: str, vf, market, space, must_hold: bool) -> Op:
    def call():
        choice = hr.run_policy_choice(vf, market, space, tol=TOL)
        if mode == "modified":
            report = hr.check_dependability(vf, market, choice, TOL)
        else:
            report = hr.check_time_consistency(vf, market, choice, TOL)
        return choice, report

    def invariant(raw, summary) -> str | None:
        choice, report = raw
        if not choice.is_viable():
            return "a later choice rewrote an earlier decision"
        if must_hold and not report.ok:
            return f"{summary['verdict']} where theory guarantees the opposite"
        return None

    return Op(key, f"run_{mode}", call, lambda raw: _library_run_summary(mode, *raw), invariant)


def _monotonicity_summary(report) -> dict:
    w = report.witness
    return {
        "ok": report.ok,
        "pairs": report.pairs_checked,
        "witness": None if w is None else {
            "x": w.x.label, "x_prime": w.x_prime.label, "t": w.t, "s": w.s, "node": w.node,
        },
    }


def _acceptability_summary(report) -> dict:
    return {
        "realized": report.realized_value,
        "chosen": report.chosen_value,
        "candidate_at_horizon": report.candidate_horizon_value,
        "candidate_terminal": report.candidate_terminal_value,
        "null": report.null_value,
        "chain_ok": report.chain_ok,
        "acceptable": report.acceptable,
        "space_size": report.space_size,
    }


STOP_SLOTS = 6
STOP_SEED_STRIDE = 10_000  # slot i scans market seeds from STOP_SEED_STRIDE * i
POOL_PATH = Path(__file__).resolve().with_name("stop_d4_pool.json")


def stop_slot(i: int) -> tuple[str, int]:
    """Operator and m of slot i: six slots meet all four operators and
    every m in {1, 2, 3} twice."""
    return STOP_OPERATORS[i % len(STOP_OPERATORS)], 1 + i % 3


def stop_market_specs(market_seed: int) -> dict:
    """A binary depth-4 market with one asset and increments in [-10, 10],
    a random base policy and Bellman stage-payoff coefficients."""
    rng = random.Random(market_seed)
    spec = market_spec(rng, depth=4, fan_out=2, d=1)
    return {
        "market": spec,
        "base": policy_spec(rng, spec, "base"),
        "payoff": payoff_spec(rng, spec),
    }


def stop_market(market_seed: int, opname: str, m: int):
    """(market, base policy, 677-member stopping-time space, value function
    per mode) of one stop-d4 market."""
    specs = stop_market_specs(market_seed)
    market = hr.load_market(specs["market"])
    base = hr.load_policy(specs["base"], market.tree, market.num_assets)
    space = hr.stopping_time_space(market.tree, base)
    op = OPERATORS[opname].build()
    coeffs = specs["payoff"]["coefficients"]
    value_functions = {
        "simple": hr.SimpleHorizon(m, op),
        "modified": hr.ModifiedHorizon(m, op),
        "terminal": hr.Terminal(op),
        "bellman": hr.BellmanAdditive(
            lambda node, alloc, c=coeffs: sum(ci * a for ci, a in zip(c[node], alloc))
        ),
    }
    return market, base, space, value_functions


def build_stop_d4(
    seed: int, workdir: Path, worker: int = 0, markets: int = STOP_SLOTS
) -> Workload:
    """One market per slot, each with the 677-member stopping-time space of
    its base policy, built here. The seed and the worker's index pick each
    slot's market from the pool in stop_d4_pool.json, whose markets share
    that slot's work signature (see make_pool.py). The markets one seed
    drew still cost up to 19% more than another seed's in one op kind's
    mean, so each worker of a run draws its own and a run averages over
    six draws per slot. Calls the library directly."""
    slots = json.loads(POOL_PATH.read_text())["slots"]
    rng = random.Random(f"{seed}/{worker}")
    ops = []
    generated = []
    for i in range(markets):
        slot = slots[i]
        market_seed = rng.choice(slot["market_seeds"])
        choice = OPERATORS[slot["operator"]]
        m = slot["m"]
        generated.append({"market_seed": market_seed, **stop_market_specs(market_seed)})
        market, base, space, value_functions = stop_market(market_seed, choice.name, m)
        op = value_functions["terminal"].op
        # on stopping-time spaces with an axiom-consistent operator, modified
        # runs are dependable and Terminal runs consistent; Bellman values use
        # classical expectation, so they are consistent under every operator
        holds = {
            "simple": False,
            "modified": choice.axiom_consistent,
            "terminal": choice.axiom_consistent,
            "bellman": True,
        }
        for mode, vf in value_functions.items():
            ops.append(_stop_run_op(f"m{i}:run_{mode}@{market_seed}", mode, vf, market, space,
                                    holds[mode]))

        def monotonicity(op=op, market=market, space=space):
            return hr.intertemporal_monotonicity(hr.Terminal(op), market, space, TOL)

        def mono_invariant(raw, summary, consistent=choice.axiom_consistent):
            if consistent and not raw.ok:
                return "Terminal value not monotone under an axiom-consistent operator"
            return None

        ops.append(Op(f"m{i}:monotonicity@{market_seed}", "monotonicity", monotonicity,
                      _monotonicity_summary, mono_invariant))

        def acceptability(op=op, market=market, base=base, m=m):
            return hr.acceptability_check(market, base, m, op, TOL)

        def acc_invariant(raw, summary, consistent=choice.axiom_consistent):
            if raw.space_size != 677:
                return f"stopping-time space has {raw.space_size} members, expected 677"
            if consistent and not raw.chain_ok:
                return "acceptability chain broken under an axiom-consistent operator"
            return None

        ops.append(Op(f"m{i}:acceptability@{market_seed}", "acceptability", acceptability,
                      _acceptability_summary, acc_invariant))
    reference = load_reference("stop-d4") if seed == DEFAULT_SEED else {}
    return Workload("stop-d4", seed, ops, _canonical(generated), reference)


BY_NAME = {
    "s4-cli": build_s4_cli,
    "stop-d4": build_stop_d4,
}


def build(name: str, seed: int, workdir: Path, worker: int = 0) -> Workload:
    try:
        make = BY_NAME[name]
    except KeyError:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(BY_NAME)}") from None
    return make(seed, workdir, worker)
