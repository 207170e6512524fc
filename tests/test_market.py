import itertools
import random

import pytest

from horizonrisk import (
    DimensionError,
    EmptyConditionalSpace,
    EnumerationLimit,
    Event,
    Policy,
    PolicySpace,
    PrefixMismatch,
    builtin_example,
    conditional_space,
    constant_policy,
    count_stopping_times,
    is_pasting_closed,
    is_truncation_closed,
    paste,
    stopping_time_space,
    truncate,
    wealth_process,
    zero_policy,
)

from helpers import (
    pathwise_terminal_wealth,
    random_market,
    random_policy,
    random_tree,
    scalar_wealth,
)


@pytest.fixture(scope="module")
def demo():
    return builtin_example("s4")


def scaled(policy, factor):
    maps = {
        t: {n: tuple(factor * x for x in v) for n, v in sl.values.items()}
        for t, sl in policy.allocations.slices.items()
    }
    return Policy.from_maps(f"{policy.label}*{factor}", maps)


class TestWealth:
    def test_hold_everywhere_along_up_down_up(self, demo):
        wealth = wealth_process(demo.market, demo.base_policy)
        assert wealth.at(3)["rudu"] == pytest.approx(1 - 10 + 100, abs=1e-12)

    def test_zero_policy_keeps_initial_wealth(self, demo):
        market = demo.market
        wealth = wealth_process(market, zero_policy(market.tree, 1))
        for t in range(4):
            for n in market.tree.nodes_at(t):
                assert wealth.at(t)[n] == 0.0

    @pytest.mark.parametrize("seed", range(12))
    def test_terminal_wealth_matches_pathwise_sums(self, seed):
        rng = random.Random(seed)
        d = rng.randint(1, 3)
        market = random_market(rng, depth=rng.randint(1, 3), d=d, v0=rng.uniform(-5, 5))
        policy = random_policy(rng, market.tree, d, nonzero=False)
        wealth = wealth_process(market, policy)
        oracle = pathwise_terminal_wealth(market, policy)
        for leaf, v in oracle.items():
            assert wealth.at(market.tree.horizon)[leaf] == pytest.approx(v, abs=1e-12)

    @pytest.mark.parametrize("seed", range(6))
    def test_increments_scale_linearly_in_the_policy(self, seed):
        rng = random.Random(100 + seed)
        market = random_market(rng, depth=3, v0=rng.uniform(-2, 2))
        policy = random_policy(rng, market.tree, 1)
        lam = rng.uniform(-3, 3)
        base = wealth_process(market, policy)
        bumped = wealth_process(market, scaled(policy, lam))
        v0 = market.initial_wealth
        for t in range(4):
            for n in market.tree.nodes_at(t):
                assert bumped.at(t)[n] - v0 == pytest.approx(
                    lam * (base.at(t)[n] - v0), abs=1e-9
                )

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("seed", range(4))
    def test_equals_scalar_recursion_exactly(self, d, seed):
        rng = random.Random(500 + 10 * d + seed)
        market = random_market(rng, depth=3, d=d, v0=rng.uniform(-5, 5), branching=(1, 3))
        policy = random_policy(rng, market.tree, d, nonzero=False)
        wealth = wealth_process(market, policy)
        oracle = scalar_wealth(market, policy)
        for t in range(4):
            for n in market.tree.nodes_at(t):
                assert wealth.at(t)[n] == oracle[n]

    def test_wrong_arity_rejected(self, demo):
        market = demo.market
        bad = constant_policy(market.tree, 2, 1.0, "wide")
        with pytest.raises(DimensionError):
            wealth_process(market, bad)


class TestTruncate:
    def test_cut_at_one_holds_only_at_time_zero(self, demo):
        cut = truncate(demo.base_policy, 1)
        assert cut.allocations.at(0)["r"] == (1.0,)
        for t in (1, 2):
            for n in demo.market.tree.nodes_at(t):
                assert cut.allocations.at(t)[n] == (0.0,)

    def test_idempotent(self, demo):
        once = truncate(demo.base_policy, 1)
        assert truncate(once, 1).key == once.key

    def test_cut_at_zero_is_the_zero_policy(self, demo):
        assert truncate(demo.base_policy, 0).key == zero_policy(demo.market.tree, 1).key

    def test_cut_beyond_last_time_returns_same_policy(self, demo):
        assert truncate(demo.base_policy, 3) is demo.base_policy


class TestConditionalSpace:
    def test_time_zero_returns_the_space_itself(self, demo):
        assert conditional_space(demo.space, 0, demo.base_policy) is demo.space

    def test_members_holding_at_the_root(self, demo):
        past = truncate(demo.base_policy, 1)  # hold at t=0 only
        cond = conditional_space(demo.space, 1, past)
        assert len(cond) == 25
        for p in cond.policies:
            assert p.allocations.at(0)["r"] == (1.0,)

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_brute_filter(self, seed):
        rng = random.Random(200 + seed)
        tree = random_tree(rng, rng.randint(1, 3))
        space = stopping_time_space(tree, random_policy(rng, tree, 1, label="b"))
        past = rng.choice(space.policies)
        t = rng.randint(1, tree.horizon)
        cond = conditional_space(space, t, past)
        expected = [
            p
            for p in space.policies
            if all(
                p.allocations.at(u)[n] == past.allocations.at(u)[n]
                for u in range(t)
                for n in tree.nodes_at(u)
            )
        ]
        assert [p.key for p in cond.policies] == [p.key for p in expected]

    def test_empty_conditional_space_raises(self, demo):
        space = PolicySpace((demo.base_policy,), label="only-hold")
        with pytest.raises(EmptyConditionalSpace):
            conditional_space(space, 1, zero_policy(demo.market.tree, 1))

    def test_later_restrictions_are_nested(self, demo):
        past = demo.base_policy
        keys_t1 = {p.key for p in conditional_space(demo.space, 1, past).policies}
        keys_t2 = {p.key for p in conditional_space(demo.space, 2, past).policies}
        assert keys_t2 <= keys_t1


class TestPaste:
    def test_full_event_gives_first_policy(self, demo):
        tree = demo.market.tree
        x = demo.base_policy
        y = truncate(x, 1)
        event = Event(1, frozenset(tree.nodes_at(1)))
        assert paste(tree, event, x, y).key == x.key

    def test_empty_event_gives_second_policy(self, demo):
        tree = demo.market.tree
        x = demo.base_policy
        y = truncate(x, 1)
        assert paste(tree, Event(1, frozenset()), x, y).key == y.key

    def test_mixed_event_follows_each_branch(self, demo):
        tree = demo.market.tree
        hold = demo.base_policy
        stop1 = truncate(hold, 1)
        mixed = paste(tree, Event(1, frozenset({"ru"})), hold, stop1)
        for t in range(3):
            for n in tree.nodes_at(t):
                expected = hold if (t == 0 or tree.ancestor_at(n, 1) == "ru") else stop1
                assert mixed.allocations.at(t)[n] == expected.allocations.at(t)[n]

    def test_self_paste_is_identity(self, demo):
        tree = demo.market.tree
        rng = random.Random(5)
        for p in rng.sample(demo.space.policies, 5):
            nodes = frozenset(rng.sample(tree.nodes_at(2), 2))
            assert paste(tree, Event(2, nodes), p, p).key == p.key

    def test_prefix_disagreement_rejected(self, demo):
        tree = demo.market.tree
        with pytest.raises(PrefixMismatch):
            paste(tree, Event(1, frozenset({"ru"})), demo.base_policy, zero_policy(tree, 1))


def exhaustive_pasting_closed(tree, space, t, past):
    """Closure under pastes over every F_t event, empty event first."""
    cond = conditional_space(space, t, past)
    keys = {p.key for p in cond.policies}
    level = tree.nodes_at(t)
    for r in range(len(level) + 1):
        for subset in itertools.combinations(level, r):
            event = Event(t, frozenset(subset))
            for x in cond.policies:
                for y in cond.policies:
                    if x is not y and paste(tree, event, x, y).key not in keys:
                        return False, (event, x, y)
    return True, None


def distinct_pasts(space, times):
    """One (t, past) per distinct prefix of the space's members."""
    seen = set()
    for t in times:
        for past in space.policies:
            if (t, past.prefix(t)) not in seen:
                seen.add((t, past.prefix(t)))
                yield t, past


class TestClosureChecks:
    def test_stopping_space_is_pasting_closed_everywhere(self, demo):
        tree = demo.market.tree
        seen = set()
        for past in demo.space.policies:
            for t in range(3):
                prefix = tuple(
                    tuple(sorted(past.allocations.at(u).values.items())) for u in range(t)
                )
                if (t, prefix) in seen:
                    continue
                seen.add((t, prefix))
                ok, witness = is_pasting_closed(tree, demo.space, t, past)
                assert ok, witness

    def test_singleton_events_agree_with_every_event_on_s4(self, demo):
        tree = demo.market.tree
        for t, past in distinct_pasts(demo.space, range(3)):
            assert is_pasting_closed(tree, demo.space, t, past) == exhaustive_pasting_closed(
                tree, demo.space, t, past
            )

    @pytest.mark.parametrize("seed", range(6))
    def test_singleton_events_agree_with_every_event_on_seeded_spaces(self, seed):
        rng = random.Random(700 + seed)
        tree = random_tree(rng, rng.randint(2, 3))
        members = stopping_time_space(tree, random_policy(rng, tree, 1)).policies
        space = PolicySpace(tuple(rng.sample(members, max(1, len(members) // 2))))
        for t, past in distinct_pasts(space, range(tree.horizon)):
            assert is_pasting_closed(tree, space, t, past) == exhaustive_pasting_closed(
                tree, space, t, past
            )

    def test_two_member_space_is_not_pasting_closed(self, demo):
        tree = demo.market.tree
        hold = demo.base_policy
        space = PolicySpace((hold, truncate(hold, 1)), label="pair")
        ok, witness = is_pasting_closed(tree, space, 1, hold)
        assert not ok
        event, x, y = witness
        assert event.time == 1
        assert paste(tree, event, x, y).key not in {p.key for p in space.policies}

    def test_singleton_space_is_pasting_closed(self, demo):
        tree = demo.market.tree
        space = PolicySpace((demo.base_policy,), label="single")
        ok, witness = is_pasting_closed(tree, space, 1, demo.base_policy)
        assert ok and witness is None

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_stopping_space_is_truncation_closed(self, demo, m):
        ok, witness = is_truncation_closed(demo.space, m)
        assert ok, witness

    def test_hold_only_space_is_not_truncation_closed(self, demo):
        space = PolicySpace((demo.base_policy,), label="only-hold")
        ok, witness = is_truncation_closed(space, 1)
        assert not ok
        t, past, member = witness
        assert member.key == demo.base_policy.key

    def test_min_cutoff_family_is_truncation_closed(self, demo):
        family = PolicySpace(
            tuple(truncate(demo.base_policy, k) for k in range(4)), label="cutoffs"
        )
        ok, witness = is_truncation_closed(family, 1)
        assert ok, witness


class TestStoppingTimes:
    def test_three_period_binary_count(self, demo):
        tree = demo.market.tree
        assert count_stopping_times(tree) == 26
        assert len(demo.space) == 26

    def test_depth_two_binary_count(self):
        rng = random.Random(0)
        tree = random_tree(rng, 2)
        assert count_stopping_times(tree) == 5
        space = stopping_time_space(tree, constant_policy(tree, 1, 1.0, "hold"))
        assert len(space) == 5

    def test_single_node_tree(self):
        from horizonrisk import build_tree

        tree = build_tree({"T": 0, "nodes": [{"id": "r", "time": 0, "parent": None}]})
        space = stopping_time_space(tree, constant_policy(tree, 1, 1.0, "hold"))
        assert len(space) == 1
        assert space.policies[0].allocations.slices == {}

    def test_cap_enforced(self, demo):
        with pytest.raises(EnumerationLimit):
            stopping_time_space(demo.market.tree, demo.base_policy, cap=25)

    @pytest.mark.parametrize("seed", range(8))
    def test_members_are_absorbing(self, seed):
        rng = random.Random(300 + seed)
        tree = random_tree(rng, rng.randint(1, 3))
        base = random_policy(rng, tree, 1, label="b")  # nonzero everywhere
        for p in stopping_time_space(tree, base).policies:
            for t in range(tree.horizon - 1):
                for n in tree.nodes_at(t):
                    if p.allocations.at(t)[n] == (0.0,):
                        for c in tree.children(n):
                            assert p.allocations.at(t + 1)[c] == (0.0,)

    def test_zero_base_collapses_to_one_policy(self, demo):
        space = stopping_time_space(demo.market.tree, zero_policy(demo.market.tree, 1))
        assert len(space) == 1


class TestPolicySpace:
    def test_negative_zero_is_the_zero_policy(self, demo):
        tree = demo.market.tree
        zero = zero_policy(tree, 1)
        negative = constant_policy(tree, 1, -0.0, "negative-zero")
        space = PolicySpace((zero, negative))
        assert len(space) == 1
        assert negative.agrees_before(zero, tree.horizon)

    def test_deduplication_keeps_first(self, demo):
        hold = demo.base_policy
        dup = Policy.from_maps(
            "copy", {t: sl.values for t, sl in hold.allocations.slices.items()}
        )
        space = PolicySpace((hold, dup, truncate(hold, 1)))
        assert len(space) == 2
        assert space.policies[0].label == "hold"

    def test_mismatched_domains_rejected(self, demo):
        rng = random.Random(9)
        other = random_tree(rng, 3, branching=(3, 3))
        with pytest.raises(ValueError):
            PolicySpace((demo.base_policy, constant_policy(other, 1, 1.0, "odd")))

    def test_empty_space_rejected(self):
        with pytest.raises(ValueError):
            PolicySpace(())
