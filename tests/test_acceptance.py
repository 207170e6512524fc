"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`.
"""

import math
import random
import time
from contextlib import contextmanager
from itertools import product

import pytest

from horizonrisk import (
    BellmanAdditive,
    ExpectationOperator,
    ModifiedHorizon,
    SimpleHorizon,
    Terminal,
    acceptability_check,
    axioms_check,
    builtin_example,
    check_dependability,
    check_time_consistency,
    intertemporal_monotonicity,
    is_pasting_closed,
    run_policy_choice,
    truncate,
    value,
)

from helpers import random_instance, random_tree

PAPER10 = ExpectationOperator.paper10()
TOL = 1e-9

# frozen before the build by direct leaf enumeration (see criterion 3 oracle)
NATURAL_LOG_GOLD = {
    "planned": 0.43488261937522393,
    "realized_short": -5.739466462461433,
    "realized_terminal": 1.091555871310284,
}

# the three-period instance quotes these to four decimals
BASE10_GOLD = {"planned": 0.1889, "realized_short": -2.4926, "realized_terminal": 0.4741}

DEMO_INCREMENTS = [(1.0, -0.1), (0.1, -10.0), (100.0, -0.1)]


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE CRITERION {number}: FAIL - {description}")
        raise
    print(f"ACCEPTANCE CRITERION {number}: PASS - {description}")


def demo_runs():
    inst = builtin_example("s4")
    simple = run_policy_choice(SimpleHorizon(2, PAPER10), inst.market, inst.space)
    modified = run_policy_choice(ModifiedHorizon(2, PAPER10), inst.market, inst.space)
    return inst, simple, modified


def enumeration_oracle(gamma, kappa):
    """Certainty equivalents of the demo instance by direct path enumeration,
    written without any library code: each of the eight equally likely paths
    accumulates its increments, and the operator is applied to the plain
    average of exp(-wealth/gamma)."""

    def cert_eq(outcomes):
        mean = sum(math.exp(-w / gamma) for w in outcomes) / len(outcomes)
        return -kappa * math.log(mean)

    paths = list(product((0, 1), repeat=3))
    planned = cert_eq([DEMO_INCREMENTS[0][b] for b in (0, 1)])  # frozen after one step
    short = cert_eq(
        [DEMO_INCREMENTS[0][p[0]] + DEMO_INCREMENTS[1][p[1]] for p in paths]
    )
    terminal = cert_eq(
        [sum(DEMO_INCREMENTS[t][p[t]] for t in range(3)) for p in paths]
    )
    return {"planned": planned, "realized_short": short, "realized_terminal": terminal}


def test_criterion_1_golden_values():
    with criterion(1, "three golden root values within 5e-5, under one second"):
        start = time.perf_counter()
        inst, simple, modified = demo_runs()
        root = inst.market.tree.root
        planned = simple.values[0][root]
        realized_short = value(SimpleHorizon(2, PAPER10), inst.market, simple.realized, 0)[root]
        realized_terminal = value(Terminal(PAPER10), inst.market, modified.realized, 0)[root]
        elapsed = time.perf_counter() - start
        assert planned == pytest.approx(BASE10_GOLD["planned"], abs=5e-5)
        assert realized_short == pytest.approx(BASE10_GOLD["realized_short"], abs=5e-5)
        assert realized_terminal == pytest.approx(BASE10_GOLD["realized_terminal"], abs=5e-5)
        assert elapsed < 1.0, f"took {elapsed:.3f}s"


def test_criterion_2_policy_trajectory():
    with criterion(2, "exact policy trajectory; inconsistent vs dependable verdicts"):
        inst, simple, modified = demo_runs()
        tree = inst.market.tree
        for choice in (simple, modified):
            first = choice.chosen[0]
            assert first.allocations.at(0)["r"] == (1.0,)
            for t in (1, 2):
                for n in tree.nodes_at(t):
                    assert first.allocations.at(t)[n] == (0.0,)
            for x_t in choice.chosen[1:]:
                for t in range(3):
                    for n in tree.nodes_at(t):
                        assert x_t.allocations.at(t)[n] == (1.0,)
            for t in range(3):
                for n in tree.nodes_at(t):
                    assert choice.realized.allocations.at(t)[n] == (1.0,)
        consistency = check_time_consistency(SimpleHorizon(2, PAPER10), inst.market, simple)
        assert not consistency.ok
        assert not consistency.records[0].ok
        assert consistency.records[1].ok and consistency.records[2].ok
        dependability = check_dependability(ModifiedHorizon(2, PAPER10), inst.market, modified)
        assert dependability.ok
        assert all(rec.ok for rec in dependability.records)


def test_criterion_3_natural_log_cross_check():
    with criterion(3, "natural-log values agree with the enumeration oracle within 1e-6"):
        oracle = enumeration_oracle(gamma=10.0, kappa=10.0)
        for key, frozen in NATURAL_LOG_GOLD.items():
            assert oracle[key] == pytest.approx(frozen, abs=1e-9)

        natural = ExpectationOperator.entropic(10.0)
        inst = builtin_example("s4")
        simple = run_policy_choice(SimpleHorizon(2, natural), inst.market, inst.space)
        modified = run_policy_choice(ModifiedHorizon(2, natural), inst.market, inst.space)
        root = inst.market.tree.root
        got = {
            "planned": simple.values[0][root],
            "realized_short": value(SimpleHorizon(2, natural), inst.market, simple.realized, 0)[root],
            "realized_terminal": value(Terminal(natural), inst.market, modified.realized, 0)[root],
        }
        for key in oracle:
            assert got[key] == pytest.approx(oracle[key], abs=1e-6), key


def test_criterion_4_axiom_suite():
    with criterion(4, "standard entropic passes four axioms on 500 slices; base-10 preset fails two"):
        rng = random.Random(20260101)
        trials_run = 0
        for _ in range(25):
            tree = random_tree(rng, rng.randint(1, 4))
            report = axioms_check(
                ExpectationOperator.entropic(10.0),
                tree,
                trials=20,
                seed=rng.randint(0, 10**9),
                tol=TOL,
            )
            trials_run += 20
            assert report.all_pass, {
                name: v.worst_violation for name, v in report.verdicts().items()
            }
        assert trials_run >= 500

        negative = axioms_check(
            PAPER10, builtin_example("s4").market.tree, trials=200, seed=7, tol=TOL
        )
        assert not negative.constant_invariance.passed
        assert not negative.recursivity.passed
        assert negative.monotonicity.passed and negative.zero_one_law.passed
        print(
            "  base-10 preset counterexample (constant invariance): "
            f"{negative.constant_invariance.counterexample}"
        )


SUITE5_SEEDS = range(1000, 1200)


def assert_pasting_closed_along(market, space, choice, seed):
    """The conditional space of every decision time of a run is pasting
    closed, so the run's per-node argmax pastes are valid maximisers."""
    for t in range(market.tree.horizon):
        past = choice.chosen[t - 1] if t else None
        ok, witness = is_pasting_closed(market.tree, space, t, past)
        assert ok, (seed, t, witness)


def test_criterion_5_dependability_suite():
    with criterion(5, "200 random modified-mode runs all dependable, under 60 s"):
        start = time.perf_counter()
        for seed in SUITE5_SEEDS:
            market, base, space, m, op = random_instance(seed)
            vf = ModifiedHorizon(m, op)
            choice = run_policy_choice(vf, market, space, tol=TOL)
            report = check_dependability(vf, market, choice, tol=TOL)
            assert report.ok, (seed, [r.max_signed_gap for r in report.records])
            assert_pasting_closed_along(market, space, choice, seed)
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"took {elapsed:.1f}s"
        print(f"  200 instances in {elapsed:.1f}s")


def test_criterion_6_truncated_value_identities():
    with criterion(6, "truncated-policy value identities hold at 1e-9 on every suite instance"):
        from horizonrisk import evaluate, wealth_process

        for seed in SUITE5_SEEDS:
            market, base, space, m, op = random_instance(seed)
            tree = market.tree
            rng = random.Random(seed)
            members = list(space.policies)
            if len(members) > 40:
                members = rng.sample(members, 40)
            vf = SimpleHorizon(m, op)
            for t in range(tree.horizon):
                for p in members:
                    cut = truncate(p, t + m)
                    wealth = wealth_process(market, cut)
                    near = evaluate(op, tree, wealth.at(min(t + m, tree.horizon)), t)
                    far = evaluate(op, tree, wealth.at(tree.horizon), t)
                    full = value(vf, market, p, t)
                    cut_value = value(vf, market, cut, t)
                    for n in near.values:
                        assert abs(near[n] - far[n]) <= TOL, (seed, t)
                        assert abs(full[n] - cut_value[n]) <= TOL, (seed, t)


def test_criterion_7_recursive_values_are_consistent():
    with criterion(7, "terminal and stage-payoff values: monotone and time-consistent throughout"):
        for seed in SUITE5_SEEDS:
            market, base, space, m, op = random_instance(seed)
            rng = random.Random(seed ^ 0xBE11)
            coeffs = {n: rng.uniform(-5.0, 5.0) for n in market.tree.node_ids}
            for vf in (
                Terminal(op),
                BellmanAdditive(lambda node, alloc, c=coeffs: c[node] * alloc[0]),
            ):
                assert intertemporal_monotonicity(vf, market, space, tol=TOL).ok, seed
                choice = run_policy_choice(vf, market, space, tol=TOL)
                assert check_time_consistency(vf, market, choice, tol=TOL).ok, seed
                assert_pasting_closed_along(market, space, choice, seed)


def test_criterion_8_short_horizon_monotonicity_refuted():
    with criterion(8, "short-horizon value fails intertemporal monotonicity with a witness"):
        inst = builtin_example("s4")
        vf = SimpleHorizon(2, PAPER10)
        report = intertemporal_monotonicity(vf, inst.market, inst.space, tol=TOL)
        assert not report.ok
        w = report.witness
        assert w is not None
        assert w.x.agrees_before(w.x_prime, w.t)
        for n in w.upper_x.values:
            assert w.upper_x[n] >= w.upper_x_prime[n] - TOL
        assert w.lower_x[w.node] < w.lower_x_prime[w.node] - TOL
        print(
            f"  witness: {w.x.label!r} vs {w.x_prime.label!r} dominates at t={w.t} "
            f"but loses at (s={w.s}, node {w.node!r})"
        )


def test_criterion_9_acceptability_chain():
    with criterion(9, "acceptability chain holds on the demo and 100 random instances"):
        inst = builtin_example("s4")
        demo_report = acceptability_check(inst.market, inst.base_policy, 2, PAPER10, tol=TOL)
        assert demo_report.chain_ok
        assert demo_report.realized_value >= demo_report.chosen_value - TOL
        assert demo_report.chosen_value >= demo_report.candidate_horizon_value - TOL
        for seed in range(2000, 2100):
            market, base, space, m, op = random_instance(seed, max_depth=3)
            report = acceptability_check(market, base, m, op, tol=TOL)
            assert report.chain_ok, seed
