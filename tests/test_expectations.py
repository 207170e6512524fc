import dataclasses
import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from horizonrisk import (
    ExpectationOperator,
    OverflowGuard,
    PAPER10_KAPPA,
    Slice,
    TimeOrderError,
    axioms_check,
    builtin_example,
    conditional_expectation,
    evaluate,
    wealth_process,
)

from horizonrisk.expectations import AXIOM_BLOCK, evaluate_levels

from helpers import (
    dict_evaluate,
    entropic_oracle,
    float_bits,
    oracle_axioms_check,
    random_tree,
)


@pytest.fixture(scope="module")
def demo():
    return builtin_example("s4")


@pytest.fixture(scope="module")
def first_step_wealth(demo):
    """Wealth slice at time 2 of the policy that holds at t=0 only; the
    wealth is frozen at the first increment from time 1 on."""
    from horizonrisk import truncate

    policy = truncate(demo.base_policy, 1)
    return wealth_process(demo.market, policy).at(2)


class TestEvaluate:
    def test_base10_preset_reproduces_quoted_value(self, demo, first_step_wealth):
        op = ExpectationOperator.paper10()
        out = evaluate(op, demo.market.tree, first_step_wealth, 0)
        assert out["r"] == pytest.approx(0.1889, abs=5e-5)

    def test_standard_entropic_closed_form(self, demo, first_step_wealth):
        op = ExpectationOperator.entropic(10.0)
        out = evaluate(op, demo.market.tree, first_step_wealth, 0)
        expected = -10.0 * math.log((math.exp(-0.1) + math.exp(0.01)) / 2.0)
        assert out["r"] == pytest.approx(expected, abs=1e-12)
        assert out["r"] == pytest.approx(0.43488, abs=5e-5)

    def test_constant_slice_is_invariant_when_kappa_equals_gamma(self, demo):
        tree = demo.market.tree
        op = ExpectationOperator.entropic(7.0)
        nodes = tree.sorted_nodes_at(3)
        q = Slice(3, nodes, np.full(len(nodes), -4.2))
        out = evaluate(op, tree, q, 0)
        for n in out.values:
            assert out[n] == pytest.approx(-4.2, abs=1e-12)

    def test_linear_matches_conditional_expectation(self, demo):
        tree = demo.market.tree
        rng = random.Random(3)
        q = Slice.from_map(3, {n: rng.uniform(-20, 20) for n in tree.nodes_at(3)})
        lin = evaluate(ExpectationOperator.linear(), tree, q, 1)
        ref = conditional_expectation(tree, q, 1)
        assert lin.values == ref.values

    @pytest.mark.parametrize("seed", range(10))
    def test_entropic_matches_leaf_oracle(self, seed):
        rng = random.Random(400 + seed)
        tree = random_tree(rng, rng.randint(1, 3), branching=(1, 3))
        gamma = rng.uniform(2.0, 20.0)
        kappa = rng.choice([gamma, rng.uniform(2.0, 20.0)])
        op = ExpectationOperator.entropic(gamma, kappa)
        s = rng.randint(1, tree.horizon)
        t = rng.randint(0, s)
        q = Slice.from_map(s, {n: rng.uniform(-15, 15) for n in tree.nodes_at(s)})
        got = evaluate(op, tree, q, t)
        want = entropic_oracle(tree, q, t, gamma, kappa)
        for n in got.values:
            assert got[n] == pytest.approx(want[n], abs=1e-10)

    def test_same_time_evaluation_returns_slice(self, demo):
        tree = demo.market.tree
        rng = random.Random(4)
        q = Slice.from_map(2, {n: rng.uniform(-30, 30) for n in tree.nodes_at(2)})
        out = evaluate(ExpectationOperator.entropic(10.0), tree, q, 2)
        for n in q.values:
            assert out[n] == pytest.approx(q[n], abs=1e-12)

    def test_overflow_guard(self, demo):
        tree = demo.market.tree
        nodes = tree.sorted_nodes_at(3)
        q = Slice(3, nodes, np.full(len(nodes), 80000.0))
        with pytest.raises(OverflowGuard):
            evaluate(ExpectationOperator.entropic(10.0), tree, q, 0)

    @pytest.mark.parametrize("gamma, kappa", [(float("nan"), None), (float("inf"), None),
                                              (10.0, float("nan")), (10.0, float("-inf"))])
    def test_non_finite_parameters_rejected(self, gamma, kappa):
        with pytest.raises(ValueError, match="finite"):
            ExpectationOperator.entropic(gamma, kappa)

    def test_forward_evaluation_rejected(self, demo):
        tree = demo.market.tree
        nodes = tree.sorted_nodes_at(1)
        q = Slice(1, nodes, np.full(len(nodes), 0.0))
        with pytest.raises(TimeOrderError):
            evaluate(ExpectationOperator.entropic(10.0), tree, q, 2)


class TestEvaluateMatchesPerNodeFold:
    """Array evaluate against the per-node fsum fold with scalar exp/log."""

    @pytest.mark.parametrize("seed", range(20))
    @pytest.mark.parametrize("preset", ["kappa=gamma", "paper10"])
    def test_entropic_bit_identical_on_binary_trees(self, seed, preset):
        rng = random.Random(600 + seed)
        tree = random_tree(rng, rng.randint(1, 4))
        if preset == "paper10":
            op = ExpectationOperator.paper10()
        else:
            op = ExpectationOperator.entropic(rng.uniform(2.0, 20.0))
        s = rng.randint(0, tree.horizon)
        t = rng.randint(0, s)
        q = Slice.from_map(
            s,
            {
                n: rng.choice((0.0, -0.0)) if rng.random() < 0.3 else rng.uniform(-30, 30)
                for n in tree.nodes_at(s)
            },
        )
        got = evaluate(op, tree, q, t)
        want = dict_evaluate(op, tree, q, t)
        assert float_bits(got.values) == float_bits(want)

    @pytest.mark.parametrize("preset", ["kappa=gamma", "paper10"])
    def test_entropic_bit_identical_on_a_wide_tree(self, preset):
        # numpy's exp and log round differently on a few percent and a few
        # hundredths of a percent of inputs; 256 leaves make both show
        rng = random.Random(650)
        tree = random_tree(rng, 8)
        op = ExpectationOperator.entropic(7.3)
        if preset == "paper10":
            op = ExpectationOperator.paper10()
        for _ in range(20):
            q = Slice.from_map(8, {n: rng.uniform(-30, 30) for n in tree.nodes_at(8)})
            for t in (8, 7, 0):
                got = evaluate(op, tree, q, t)
                want = dict_evaluate(op, tree, q, t)
                assert float_bits(got.values) == float_bits(want)


class TestEntropicProperties:
    @given(st.integers(0, 2**20), st.floats(-20, 20, allow_nan=False))
    @settings(max_examples=60, deadline=None)
    def test_cash_additivity(self, seed, c):
        rng = random.Random(seed)
        tree = random_tree(rng, rng.randint(1, 3))
        op = ExpectationOperator.entropic(10.0)
        q = Slice.from_map(tree.horizon, {n: rng.uniform(-20, 20) for n in tree.nodes_at(tree.horizon)})
        base = evaluate(op, tree, q, 0)
        shifted = evaluate(op, tree, Slice(q.time, q.nodes, q.array + c), 0)
        for n in base.values:
            assert shifted[n] == pytest.approx(base[n] + c, abs=1e-9)

    @given(st.integers(0, 2**20))
    @settings(max_examples=60, deadline=None)
    def test_never_exceeds_linear(self, seed):
        rng = random.Random(seed)
        tree = random_tree(rng, rng.randint(1, 3))
        q = Slice.from_map(tree.horizon, {n: rng.uniform(-20, 20) for n in tree.nodes_at(tree.horizon)})
        ent = evaluate(ExpectationOperator.entropic(10.0), tree, q, 0)
        lin = evaluate(ExpectationOperator.linear(), tree, q, 0)
        for n in ent.values:
            assert ent[n] <= lin[n] + 1e-12

    @pytest.mark.parametrize("seed", range(5))
    def test_approaches_linear_as_gamma_grows(self, seed):
        rng = random.Random(500 + seed)
        tree = random_tree(rng, 3)
        q = Slice.from_map(3, {n: rng.uniform(-20, 20) for n in tree.nodes_at(3)})
        lin = evaluate(ExpectationOperator.linear(), tree, q, 0)
        gaps = []
        for gamma in (1e2, 1e4, 1e6):
            ent = evaluate(ExpectationOperator.entropic(gamma), tree, q, 0)
            gaps.append(max(abs(ent[n] - lin[n]) for n in lin.values))
        assert gaps[0] >= gaps[1] >= gaps[2]
        for gamma, gap in zip((1e2, 1e4, 1e6), gaps):
            assert gap <= 1000.0 / gamma


class TestAxioms:
    def test_standard_entropic_passes_on_random_trees(self):
        rng = random.Random(42)
        for _ in range(10):
            tree = random_tree(rng, rng.randint(2, 4))
            report = axioms_check(
                ExpectationOperator.entropic(10.0), tree, trials=25, seed=rng.randint(0, 10**6)
            )
            assert report.all_pass, {
                k: v.worst_violation for k, v in report.verdicts().items()
            }

    def test_linear_passes(self, demo):
        report = axioms_check(ExpectationOperator.linear(), demo.market.tree, 100, seed=1)
        assert report.all_pass

    def test_base10_preset_fails_invariance_and_recursivity(self, demo):
        report = axioms_check(ExpectationOperator.paper10(), demo.market.tree, 200, seed=2)
        assert not report.constant_invariance.passed
        assert report.constant_invariance.counterexample is not None
        assert not report.recursivity.passed
        assert report.recursivity.counterexample is not None
        # still monotone and local
        assert report.monotonicity.passed
        assert report.zero_one_law.passed

    def test_base10_constant_scaling_is_the_failure_mode(self, demo):
        # a constant c maps to c * kappa/gamma, so the violation is visible directly
        tree = demo.market.tree
        op = ExpectationOperator.paper10()
        nodes = tree.sorted_nodes_at(2)
        q = Slice(2, nodes, np.full(len(nodes), 10.0))
        out = evaluate(op, tree, q, 2)
        assert out[tree.nodes_at(2)[0]] == pytest.approx(10.0 * PAPER10_KAPPA / 10.0, rel=1e-12)

    def test_report_is_reproducible(self, demo):
        a = axioms_check(ExpectationOperator.paper10(), demo.market.tree, 50, seed=9)
        b = axioms_check(ExpectationOperator.paper10(), demo.market.tree, 50, seed=9)
        assert a.constant_invariance.counterexample == b.constant_invariance.counterexample
        assert a.recursivity.worst_violation == b.recursivity.worst_violation


AXIOM_OPERATORS = {
    "linear": ExpectationOperator.linear(),
    "entropic5": ExpectationOperator.entropic(5.0),
    "entropic10": ExpectationOperator.entropic(10.0),
    "paper10": ExpectationOperator.paper10(),
    "entropic_g2_k7": ExpectationOperator.entropic(2.0, 7.0),
}


def _axiom_trees():
    rng = random.Random(2010)
    trees = {"s4": builtin_example("s4").market.tree}
    for depth in range(5):
        for fan in (1, 2, 3):
            trees[f"depth{depth}_fan{fan}"] = random_tree(rng, depth, (fan, fan))
    return trees


AXIOM_TREES = _axiom_trees()


def _same_report(op, tree, trials, seed, tol=1e-9):
    batched = axioms_check(op, tree, trials, seed, tol)
    oracle = oracle_axioms_check(op, tree, trials, seed, tol)
    assert dataclasses.asdict(batched) == dataclasses.asdict(oracle)
    # repr also tells -0.0 from 0.0 in the counterexamples
    assert repr(dataclasses.asdict(batched)) == repr(dataclasses.asdict(oracle))
    return batched


class TestEvaluateLevelsRowPicks:
    """The kernel given {level: rows} keeps just those rows at each level,
    each equal bit for bit to evaluate on that row alone."""

    @pytest.mark.parametrize("tree_name", sorted(AXIOM_TREES))
    @pytest.mark.parametrize("op_name", sorted(AXIOM_OPERATORS))
    def test_picked_rows_match_evaluate(self, tree_name, op_name):
        tree, op = AXIOM_TREES[tree_name], AXIOM_OPERATORS[op_name]
        rng = random.Random(f"{tree_name}/{op_name}")
        scale = 3.0 * op.gamma if op.kind == "entropic" else 10.0
        for s in range(tree.horizon + 1):
            nodes = tree.sorted_nodes_at(s)
            q = np.array([[rng.uniform(-scale, scale) for _ in nodes] for _ in range(5)])
            # rows in any order, some levels skipped, one level's pick empty
            empty = rng.randint(0, s)
            picks = {}
            for u in range(s + 1):
                if u == empty or rng.random() < 0.8:
                    size = 0 if u == empty else rng.randint(1, 5)
                    picks[u] = np.array(rng.sample(range(5), size), dtype=np.intp)
            got = evaluate_levels(op, tree, Slice(s, nodes, q), picks)
            assert sorted(got) == sorted(picks)
            for u, rows in picks.items():
                want = [evaluate(op, tree, Slice(s, nodes, q[r]), u).array for r in rows]
                assert got[u].shape == (len(rows), len(tree.sorted_nodes_at(u)))
                assert got[u].tobytes() == np.array(want).reshape(got[u].shape).tobytes()
            root = evaluate_levels(op, tree, Slice(s, nodes, q), {0: np.arange(5)})[0]
            want = [evaluate(op, tree, Slice(s, nodes, row), 0).array for row in q]
            assert root.tobytes() == np.array(want).tobytes()


class TestAxiomsMatchOneTrialLoop:
    """The block-wise suite gives the one-trial-at-a-time loop's report, bit
    for bit: verdicts, worst violations, counterexamples and the tie note."""

    @pytest.mark.parametrize("tree_name", sorted(AXIOM_TREES))
    @pytest.mark.parametrize("op_name", sorted(AXIOM_OPERATORS))
    def test_small_and_block_crossing_counts(self, tree_name, op_name):
        tree, op = AXIOM_TREES[tree_name], AXIOM_OPERATORS[op_name]
        for seed, trials in enumerate((1, 7, AXIOM_BLOCK + 7)):
            _same_report(op, tree, trials, seed)

    @pytest.mark.parametrize("op_name", sorted(AXIOM_OPERATORS))
    def test_default_trial_count(self, op_name):
        op = AXIOM_OPERATORS[op_name]
        for seed in (0, 11, 40629):
            for tree_name in ("s4", "depth3_fan2"):
                report = _same_report(op, AXIOM_TREES[tree_name], 500, seed)
                if op_name == "paper10":
                    assert report.constant_invariance.counterexample is not None
                    assert report.recursivity.counterexample is not None

    def test_fold_runs_across_blocks(self):
        # the worst violation and the counterexample lie in the first block,
        # so a fold that restarted per block would report the second's
        op, tree = AXIOM_OPERATORS["paper10"], AXIOM_TREES["s4"]
        full = _same_report(op, tree, AXIOM_BLOCK + 7, 3)
        first = oracle_axioms_check(op, tree, AXIOM_BLOCK, 3)
        for name, verdict in full.verdicts().items():
            assert verdict == first.verdicts()[name]
        assert full.recursivity.worst_violation > 0

    def test_loose_tol_and_overflow_guard(self):
        tree = AXIOM_TREES["depth2_fan3"]
        _same_report(AXIOM_OPERATORS["paper10"], tree, 50, 5, tol=0.5)
        # kappa/gamma = 1000 trips the guard in the nested evaluate: the same
        # exception, with the same message, as the one-trial loop's
        op = ExpectationOperator.entropic(1.0, 1000.0)
        with pytest.raises(OverflowGuard) as batched:
            axioms_check(op, tree, 50, 0)
        with pytest.raises(OverflowGuard) as oracle:
            oracle_axioms_check(op, tree, 50, 0)
        assert str(batched.value) == str(oracle.value)

    def test_peak_memory_is_one_block(self):
        tree, op = AXIOM_TREES["depth4_fan3"], AXIOM_OPERATORS["entropic10"]
        peaks = []
        for trials in (AXIOM_BLOCK, 4 * AXIOM_BLOCK):
            tracemalloc.start()
            try:
                axioms_check(op, tree, trials, 1)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 1.25 * peaks[0]

    @pytest.mark.parametrize("gamma", [3e307, 6e307, 1e308])
    def test_overflowing_draw_scale_is_refused(self, gamma):
        # draws from +-3 gamma would be inf or NaN, and NaN passes every axiom
        with pytest.raises(ValueError, match="gamma"):
            axioms_check(ExpectationOperator.entropic(gamma), AXIOM_TREES["s4"], 5, 0)

    def test_largest_drawable_gamma_is_checked(self):
        _same_report(ExpectationOperator.entropic(2.9e307), AXIOM_TREES["s4"], 20, 0)
