import random

import pytest

from horizonrisk import (
    AdaptedProcess,
    BellmanAdditive,
    ExpectationOperator,
    MarketModel,
    MismatchedInputs,
    ModifiedHorizon,
    NoUniformMaximizer,
    Policy,
    PolicySpace,
    SimpleHorizon,
    Slice,
    Terminal,
    TimeOrderError,
    build_tree,
    builtin_example,
    conditional_space,
    evaluate,
    feasible_set,
    run_policy_choice,
    truncate,
    uniform_maximizer,
    value,
    wealth_process,
    zero_policy,
)

from helpers import random_instance

PAPER10 = ExpectationOperator.paper10()


@pytest.fixture(scope="module")
def demo():
    return builtin_example("s4")


def small_binary_market():
    spec = {
        "T": 2,
        "nodes": [
            {"id": "r", "time": 0, "parent": None},
            {"id": "u", "time": 1, "parent": "r", "p": 0.5},
            {"id": "d", "time": 1, "parent": "r", "p": 0.5},
            {"id": "uu", "time": 2, "parent": "u", "p": 0.5},
            {"id": "ud", "time": 2, "parent": "u", "p": 0.5},
            {"id": "du", "time": 2, "parent": "d", "p": 0.5},
            {"id": "dd", "time": 2, "parent": "d", "p": 0.5},
        ],
    }
    tree = build_tree(spec)
    prices = AdaptedProcess(
        {t: Slice(t, {n: (1.0,) for n in tree.nodes_at(t)}) for t in range(3)}
    )
    return MarketModel(tree, 1, prices, 0.0)


def flat_policy(tree, up_alloc, down_alloc, label):
    """Allocation 1 at the root; `up_alloc`/`down_alloc` under u and d."""
    return Policy.from_maps(
        label, {0: {"r": (1.0,)}, 1: {"u": (float(up_alloc),), "d": (float(down_alloc),)}}
    )


def stage_payoff(node, alloc):
    a = alloc[0]
    if node == "u":
        return 3.0 * a + (1.0 - a)
    if node == "d":
        return 2.0 * (1.0 - a)
    return 0.0


class TestValue:
    def test_hold_everywhere_at_the_short_horizon(self, demo):
        vf = SimpleHorizon(2, PAPER10)
        out = value(vf, demo.market, demo.base_policy, 0)
        assert out["r"] == pytest.approx(-2.4926, abs=5e-5)

    def test_hold_everywhere_at_terminal_time(self, demo):
        vf = ModifiedHorizon(2, PAPER10)
        out = value(vf, demo.market, demo.base_policy, 0)
        assert out["r"] == pytest.approx(0.4741, abs=5e-5)

    def test_zero_policy_under_terminal_linear_value(self, demo):
        market = demo.market
        vf = Terminal(ExpectationOperator.linear())
        zero = zero_policy(market.tree, 1)
        for t in range(4):
            out = value(vf, market, zero, t)
            for n in out.values:
                assert out[n] == pytest.approx(market.initial_wealth, abs=1e-12)

    def test_horizon_clamps_at_terminal_time(self, demo):
        # beyond T the wealth is frozen, so a long horizon equals the terminal value
        vf_long = SimpleHorizon(10, PAPER10)
        vf_term = Terminal(PAPER10)
        a = value(vf_long, demo.market, demo.base_policy, 1)
        b = value(vf_term, demo.market, demo.base_policy, 1)
        for n in a.values:
            assert a[n] == pytest.approx(b[n], abs=1e-12)

    def test_stage_payoff_recursion(self):
        market = small_binary_market()
        vf = BellmanAdditive(stage_payoff)
        x = flat_policy(market.tree, 1, 1, "x")
        out = value(vf, market, x, 0)
        assert out["r"] == pytest.approx(0.5 * 3.0 + 0.5 * 0.0, abs=1e-12)
        out1 = value(vf, market, x, 1)
        assert out1["u"] == pytest.approx(3.0, abs=1e-12)
        assert out1["d"] == pytest.approx(0.0, abs=1e-12)

    def test_out_of_range_time_rejected(self, demo):
        vf = SimpleHorizon(2, PAPER10)
        with pytest.raises(TimeOrderError):
            value(vf, demo.market, demo.base_policy, 4)


class TestFeasibleSet:
    def test_modified_cutoff_beyond_last_time_is_identity(self, demo):
        vf = ModifiedHorizon(2, PAPER10)
        past = demo.base_policy
        cond = conditional_space(demo.space, 1, past)
        feas = feasible_set(vf, demo.space, 1, past)
        assert [p.key for p in feas.policies] == [p.key for p in cond.policies]

    def test_modified_truncates_at_the_horizon(self, demo):
        vf = ModifiedHorizon(2, PAPER10)
        feas = feasible_set(vf, demo.space, 0)
        expected = []
        seen = set()
        for p in demo.space.policies:
            k = truncate(p, 2).key
            if k not in seen:
                seen.add(k)
                expected.append(k)
        assert [p.key for p in feas.policies] == expected
        assert len(feas) == 5

    def test_singleton_space(self, demo):
        vf = SimpleHorizon(2, PAPER10)
        space = PolicySpace((demo.base_policy,))
        feas = feasible_set(vf, space, 0)
        assert len(feas) == 1


class TestUniformMaximizer:
    def test_demo_time_zero_choice(self, demo):
        vf = SimpleHorizon(2, PAPER10)
        best = uniform_maximizer(vf, demo.market, demo.space, 0)
        assert best.key == truncate(demo.base_policy, 1).key
        out = value(vf, demo.market, best, 0)
        assert out["r"] == pytest.approx(0.1889, abs=5e-5)

    def test_singleton_space_returns_its_member(self, demo):
        vf = SimpleHorizon(2, PAPER10)
        space = PolicySpace((demo.base_policy,))
        assert uniform_maximizer(vf, demo.market, space, 1) is space.policies[0]

    def test_pasted_mix_dominates_both_parents(self):
        market = small_binary_market()
        vf = BellmanAdditive(stage_payoff)
        x = flat_policy(market.tree, 1, 1, "x")   # values (3, 0) at time 1
        y = flat_policy(market.tree, 0, 0, "y")   # values (1, 2)
        z1 = flat_policy(market.tree, 1, 0, "z1")  # values (3, 2)
        z2 = flat_policy(market.tree, 0, 1, "z2")  # values (1, 0)
        space = PolicySpace((x, y, z2, z1), label="closed4")
        best = uniform_maximizer(vf, market, space, 1)
        assert best.key == z1.key
        best_vals = value(vf, market, best, 1)
        for p in space.policies:
            vals = value(vf, market, p, 1)
            for n in vals.values:
                assert best_vals[n] >= vals[n] - 1e-9

    def test_no_uniform_maximizer_without_pasting_closure(self):
        market = small_binary_market()
        vf = BellmanAdditive(stage_payoff)
        space = PolicySpace(
            (flat_policy(market.tree, 1, 1, "x"), flat_policy(market.tree, 0, 0, "y"))
        )
        with pytest.raises(NoUniformMaximizer):
            uniform_maximizer(vf, market, space, 1)


class TestRunPolicyChoice:
    def test_demo_simple_trajectory(self, demo):
        vf = SimpleHorizon(2, PAPER10)
        choice = run_policy_choice(vf, demo.market, demo.space)
        tree = demo.market.tree
        # first choice holds at t=0 only
        first = choice.chosen[0]
        assert first.allocations.at(0)["r"] == (1.0,)
        for t in (1, 2):
            for n in tree.nodes_at(t):
                assert first.allocations.at(t)[n] == (0.0,)
        # later choices hold everywhere, and so does the realised policy
        for x_t in choice.chosen[1:]:
            assert x_t.key == demo.base_policy.key
        assert choice.realized.key == demo.base_policy.key
        assert choice.values[0]["r"] == pytest.approx(0.1889, abs=5e-5)

    def test_demo_modified_matches_simple(self, demo):
        simple = run_policy_choice(SimpleHorizon(2, PAPER10), demo.market, demo.space)
        modified = run_policy_choice(ModifiedHorizon(2, PAPER10), demo.market, demo.space)
        assert modified.realized.key == simple.realized.key
        for vs, vm in zip(simple.values, modified.values):
            for n in vs.values:
                assert vs[n] == pytest.approx(vm[n], abs=1e-9)

    def test_choice_is_viable_and_realizes_final_choice(self, demo):
        for vf in (SimpleHorizon(2, PAPER10), ModifiedHorizon(2, PAPER10), Terminal(PAPER10)):
            choice = run_policy_choice(vf, demo.market, demo.space)
            assert choice.is_viable()
            assert choice.realizes_final_choice()

    def test_terminal_value_realizes_the_time_zero_choice(self, demo):
        choice = run_policy_choice(Terminal(PAPER10), demo.market, demo.space)
        assert choice.realized.key == choice.chosen[0].key

    def test_zero_payoff_ties_break_to_first_member(self, demo):
        vf = BellmanAdditive(lambda node, alloc: 0.0)
        choice = run_policy_choice(vf, demo.market, demo.space)
        for t, x_t in enumerate(choice.chosen):
            assert x_t is demo.space.policies[0]
            for n in choice.values[t].values:
                assert choice.values[t][n] == 0.0

    def test_explicit_mode_must_match_value_function(self, demo):
        with pytest.raises(MismatchedInputs):
            run_policy_choice(SimpleHorizon(2, PAPER10), demo.market, demo.space, mode="modified")

    def test_failing_time_reported(self):
        market = small_binary_market()
        vf = BellmanAdditive(stage_payoff)
        space = PolicySpace(
            (flat_policy(market.tree, 1, 1, "x"), flat_policy(market.tree, 0, 0, "y"))
        )
        with pytest.raises(NoUniformMaximizer, match="decision time 1"):
            run_policy_choice(vf, market, space)


class TestTruncatedValueIdentities:
    @pytest.mark.parametrize("seed", range(10))
    def test_horizon_value_equals_terminal_value_on_truncated_policies(self, seed):
        market, base, space, m, op = random_instance(700 + seed, max_depth=3)
        tree = market.tree
        for t in range(tree.horizon):
            for p in space.policies:
                cut = truncate(p, t + m)
                wealth = wealth_process(market, cut)
                near = evaluate(op, tree, wealth.at(min(t + m, tree.horizon)), t)
                far = evaluate(op, tree, wealth.at(tree.horizon), t)
                for n in near.values:
                    assert near[n] == pytest.approx(far[n], abs=1e-9)

    @pytest.mark.parametrize("seed", range(10))
    def test_value_is_invariant_under_truncation_at_the_horizon(self, seed):
        market, base, space, m, op = random_instance(800 + seed, max_depth=3)
        vf = SimpleHorizon(m, op)
        for t in range(market.tree.horizon):
            for p in space.policies:
                a = value(vf, market, p, t)
                b = value(vf, market, truncate(p, t + m), t)
                for n in a.values:
                    assert a[n] == pytest.approx(b[n], abs=1e-9)


class TestModeEquivalence:
    @pytest.mark.parametrize("seed", range(25))
    def test_closed_spaces_give_identical_choices_and_values(self, seed):
        market, base, space, m, op = random_instance(900 + seed, max_depth=3)
        simple = run_policy_choice(SimpleHorizon(m, op), market, space)
        modified = run_policy_choice(ModifiedHorizon(m, op), market, space)
        assert simple.realized.key == modified.realized.key
        for t, (vs, vm) in enumerate(zip(simple.values, modified.values)):
            for n in vs.values:
                assert vs[n] == pytest.approx(vm[n], abs=1e-9), f"t={t}"

    @pytest.mark.parametrize("seed", range(10))
    def test_maximizer_dominates_every_member(self, seed):
        market, base, space, m, op = random_instance(950 + seed, max_depth=3)
        vf = SimpleHorizon(m, op)
        t = random.Random(seed).randint(0, market.tree.horizon - 1)
        past = space.policies[0]
        feas = feasible_set(vf, space, t, past)
        best = uniform_maximizer(vf, market, feas, t)
        best_vals = value(vf, market, best, t)
        for p in feas.policies:
            vals = value(vf, market, p, t)
            for n in vals.values:
                assert best_vals[n] >= vals[n] - 1e-9
