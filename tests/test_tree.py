import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from horizonrisk import (
    AdaptedProcess,
    ExpectationOperator,
    ProbabilityError,
    Slice,
    StructureError,
    TimeOrderError,
    UnknownNode,
    build_tree,
    builtin_example,
    conditional_expectation,
    evaluate,
    wealth_process,
)

from helpers import (
    ancestor_at,
    conditional_expectation_oracle,
    float_bits,
    fsum_fold,
    random_tree,
)


def demo_tree():
    return builtin_example("s4").market.tree


@st.composite
def trees(draw):
    seed = draw(st.integers(0, 2**20))
    depth = draw(st.integers(1, 3))
    return random_tree(random.Random(seed), depth, branching=(1, 3))


@st.composite
def trees_with_slice(draw):
    tree = draw(trees())
    s = draw(st.integers(0, tree.horizon))
    t = draw(st.integers(0, s))
    vals = {
        n: draw(st.floats(-50, 50, allow_nan=False, allow_infinity=False))
        for n in tree.nodes_at(s)
    }
    return tree, Slice.from_map(s, vals), t


class TestBuildTree:
    def test_three_period_binary_has_15_nodes(self):
        tree = demo_tree()
        assert len(tree) == 15
        assert [len(tree.nodes_at(t)) for t in range(4)] == [1, 2, 4, 8]
        assert tree.horizon == 3

    def test_single_node_tree(self):
        tree = build_tree({"T": 0, "nodes": [{"id": "only", "time": 0, "parent": None}]})
        assert len(tree) == 1
        assert tree.root == "only"
        assert tree.nodes_at(tree.horizon) == ("only",)

    def test_levels_keep_the_given_node_order(self):
        # nodes listed out of time order and out of id order within a level
        nodes = [
            {"id": "b", "time": 1, "parent": "r", "p": 0.5},
            {"id": "bz", "time": 2, "parent": "b", "p": 1.0},
            {"id": "r", "time": 0, "parent": None},
            {"id": "ay", "time": 2, "parent": "a", "p": 1.0},
            {"id": "a", "time": 1, "parent": "r", "p": 0.5},
        ]
        tree = build_tree({"T": 2, "nodes": nodes})
        assert [tree.nodes_at(t) for t in range(3)] == [("r",), ("b", "a"), ("bz", "ay")]
        assert tree.sorted_nodes_at(1) == ("a", "b")

    def test_sibling_probabilities_must_sum_to_one(self):
        spec = {
            "T": 1,
            "nodes": [
                {"id": "r", "time": 0, "parent": None},
                {"id": "a", "time": 1, "parent": "r", "p": 0.6},
                {"id": "b", "time": 1, "parent": "r", "p": 0.5},
            ],
        }
        with pytest.raises(ProbabilityError):
            build_tree(spec)

    def test_nonpositive_probability_rejected(self):
        spec = {
            "T": 1,
            "nodes": [
                {"id": "r", "time": 0, "parent": None},
                {"id": "a", "time": 1, "parent": "r", "p": 1.0},
                {"id": "b", "time": 1, "parent": "r", "p": 0.0},
            ],
        }
        with pytest.raises(ProbabilityError):
            build_tree(spec)

    @pytest.mark.parametrize("root_p, child_p", [(None, float("nan")), (None, float("inf")),
                                                  (float("nan"), 0.5)])
    def test_non_finite_probability_rejected(self, root_p, child_p):
        spec = {
            "T": 1,
            "nodes": [
                {"id": "r", "time": 0, "parent": None, "p": root_p},
                {"id": "a", "time": 1, "parent": "r", "p": child_p},
                {"id": "b", "time": 1, "parent": "r", "p": 0.5},
            ],
        }
        with pytest.raises(ProbabilityError, match="'[ar]'|root"):
            build_tree(spec)

    def test_missing_probability_rejected(self):
        spec = {
            "T": 1,
            "nodes": [
                {"id": "r", "time": 0, "parent": None},
                {"id": "a", "time": 1, "parent": "r"},
                {"id": "b", "time": 1, "parent": "r", "p": 0.5},
            ],
        }
        with pytest.raises(ProbabilityError):
            build_tree(spec)

    def test_two_roots_rejected(self):
        spec = {
            "T": 0,
            "nodes": [
                {"id": "a", "time": 0, "parent": None},
                {"id": "b", "time": 0, "parent": None},
            ],
        }
        with pytest.raises(StructureError):
            build_tree(spec)

    def test_time_gap_rejected(self):
        spec = {
            "T": 2,
            "nodes": [
                {"id": "r", "time": 0, "parent": None},
                {"id": "a", "time": 2, "parent": "r", "p": 1.0},
            ],
        }
        with pytest.raises(StructureError):
            build_tree(spec)

    def test_duplicate_id_rejected(self):
        spec = {
            "T": 1,
            "nodes": [
                {"id": "r", "time": 0, "parent": None},
                {"id": "a", "time": 1, "parent": "r", "p": 1.0},
                {"id": "a", "time": 1, "parent": "r", "p": 1.0},
            ],
        }
        with pytest.raises(StructureError):
            build_tree(spec)

    def test_short_branch_rejected(self):
        spec = {
            "T": 2,
            "nodes": [
                {"id": "r", "time": 0, "parent": None},
                {"id": "a", "time": 1, "parent": "r", "p": 0.5},
                {"id": "b", "time": 1, "parent": "r", "p": 0.5},
                {"id": "aa", "time": 2, "parent": "a", "p": 1.0},
            ],
        }
        with pytest.raises(StructureError):
            build_tree(spec)

    def test_negative_horizon_rejected(self):
        spec = {"T": -1, "nodes": [{"id": "r", "time": 0, "parent": None}]}
        with pytest.raises(StructureError, match="horizon must be >= 0, got -1"):
            build_tree(spec)

    def test_root_after_time_zero_rejected(self):
        spec = {
            "T": 2,
            "nodes": [
                {"id": "r", "time": 1, "parent": None},
                {"id": "a", "time": 2, "parent": "r", "p": 1.0},
            ],
        }
        with pytest.raises(StructureError, match="root 'r' must be at time 0, is at 1"):
            build_tree(spec)


class TestLookupErrors:
    def test_unknown_node_rejected(self):
        tree = demo_tree()
        for lookup in (tree.node, tree.row):
            with pytest.raises(UnknownNode, match="no node with id 'rx'"):
                lookup("rx")

    @pytest.mark.parametrize("t", [-1, 4])
    def test_time_outside_the_tree_rejected(self, t):
        tree = demo_tree()
        for lookup in (tree.nodes_at, tree.sorted_nodes_at):
            with pytest.raises(TimeOrderError, match=rf"time {t} outside 0\.\.3"):
                lookup(t)

    @pytest.mark.parametrize("t", [0, 4])
    def test_parent_rows_outside_one_to_horizon_rejected(self, t):
        with pytest.raises(TimeOrderError, match=rf"time {t} outside 1\.\.3"):
            demo_tree().parent_rows(t)

    def test_process_key_must_be_its_slice_time(self):
        sl = Slice.from_map(1, {"rd": 0.0, "ru": 0.0})
        with pytest.raises(ValueError, match="slice at key 2 carries time 1"):
            AdaptedProcess({2: sl})

    def test_process_without_the_time_rejected(self):
        sl = Slice.from_map(1, {"rd": 0.0, "ru": 0.0})
        with pytest.raises(TimeOrderError, match="process has no slice at time 2"):
            AdaptedProcess({1: sl}).at(2)


class TestAncestorRows:
    @pytest.mark.parametrize("depth", range(5))
    @pytest.mark.parametrize("fan_out", [1, 2, 3])
    def test_matches_ancestor_at(self, depth, fan_out):
        rng = random.Random(100 * depth + fan_out)
        tree = random_tree(rng, depth, branching=(1, fan_out))
        for t in range(depth + 1):
            rows = tree.ancestor_rows(t)
            assert len(rows) == depth + 1 - t
            for u, above in enumerate(rows, t):
                want = [tree.row(ancestor_at(tree, n, t)) for n in tree.sorted_nodes_at(u)]
                assert above.tolist() == want


class TestConditionalExpectation:
    def test_first_increment_mean(self):
        tree = builtin_example("s4").market.tree
        market = builtin_example("s4").market
        q = Slice.from_map(
            1,
            {
                n: market.prices.at(1)[n][0] - market.prices.at(0)["r"][0]
                for n in tree.nodes_at(1)
            },
        )
        out = conditional_expectation(tree, q, 0)
        assert out["r"] == pytest.approx(0.45, abs=1e-12)

    def test_conditioning_on_own_time_is_identity(self):
        tree = demo_tree()
        q = Slice.from_map(2, {n: float(i) for i, n in enumerate(tree.nodes_at(2))})
        out = conditional_expectation(tree, q, 2)
        assert out.values == q.values

    def test_forward_conditioning_rejected(self):
        tree = demo_tree()
        q = Slice.from_map(1, {n: 1.0 for n in tree.nodes_at(1)})
        with pytest.raises(TimeOrderError):
            conditional_expectation(tree, q, 2)

    @pytest.mark.parametrize("s, t", [(1, -1), (4, 0)])
    def test_times_outside_the_tree_rejected(self, s, t):
        q = Slice(s, ("n",), np.zeros(1))
        outside = t if t < 0 else s
        with pytest.raises(TimeOrderError, match=rf"time {outside} outside 0\.\.3"):
            conditional_expectation(demo_tree(), q, t)

    def test_partial_slice_rejected(self):
        tree = demo_tree()
        q = Slice.from_map(1, {tree.nodes_at(1)[0]: 1.0})
        with pytest.raises(ValueError):
            conditional_expectation(tree, q, 0)

    def test_vector_slice_rejected(self):
        tree = demo_tree()
        q = Slice.from_map(3, {n: (1.0,) for n in tree.nodes_at(3)})
        with pytest.raises(ValueError, match="node axis"):
            conditional_expectation(tree, q, 2)

    def test_member_matrix_has_no_node_map(self):
        ex = builtin_example("s4")
        wealth = wealth_process(ex.market, ex.space).at(3)
        sl = evaluate(ExpectationOperator.paper10(), ex.market.tree, wealth, 1)
        assert sl.array.shape == (26, 2)
        with pytest.raises(ValueError, match=r"shape \(26, 2\) has no node map over 2 nodes"):
            sl.values

    def test_slice_is_not_iterable(self):
        sl = Slice.from_map(1, {"rd": 0.0, "ru": 1.0})
        with pytest.raises(TypeError, match="not iterable"):
            iter(sl)
        with pytest.raises(TypeError, match="not iterable"):
            "rd" in sl

    @given(trees_with_slice())
    @settings(max_examples=80, deadline=None)
    def test_matches_direct_weighted_sum(self, case):
        tree, q, t = case
        got = conditional_expectation(tree, q, t)
        want = conditional_expectation_oracle(tree, q, t)
        for n in got.values:
            assert got[n] == pytest.approx(want[n], abs=1e-12)

    @given(trees_with_slice())
    @settings(max_examples=80, deadline=None)
    def test_tower_property(self, case):
        tree, q, t = case
        direct = conditional_expectation(tree, q, t)
        for u in range(t, q.time + 1):
            nested = conditional_expectation(tree, conditional_expectation(tree, q, u), t)
            for n in direct.values:
                assert nested[n] == pytest.approx(direct[n], abs=1e-12)

    @given(trees(), st.floats(-100, 100, allow_nan=False))
    @settings(max_examples=60, deadline=None)
    def test_constants_are_preserved(self, tree, c):
        nodes = tree.sorted_nodes_at(tree.horizon)
        q = Slice(tree.horizon, nodes, np.full(len(nodes), c))
        out = conditional_expectation(tree, q, 0)
        for n in out.values:
            assert out[n] == pytest.approx(c, abs=1e-12 * max(1.0, abs(c)))

    @given(trees())
    @settings(max_examples=60, deadline=None)
    def test_each_level_has_total_probability_one(self, tree):
        for t in range(tree.horizon + 1):
            vals = np.ones(len(tree.sorted_nodes_at(t)))
            for u in range(t, 0, -1):
                vals = tree.fold(u, vals)
            assert abs(vals[0] - 1.0) <= 1e-12

    @given(trees_with_slice())
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_the_slice(self, case):
        tree, q, t = case
        rng = random.Random(7)
        q2 = Slice(q.time, q.nodes, np.array([v - rng.uniform(0.0, 5.0) for v in q.array.tolist()]))
        hi = conditional_expectation(tree, q, t)
        lo = conditional_expectation(tree, q2, t)
        for n in hi.values:
            assert hi[n] >= lo[n] - 1e-12


def signed_zero_slice(rng: random.Random, tree, s: int) -> Slice:
    """Random values at time s with exact zeros of both signs mixed in."""
    return Slice.from_map(
        s,
        {
            n: rng.choice((0.0, -0.0)) if rng.random() < 0.4 else rng.uniform(-50, 50)
            for n in tree.nodes_at(s)
        },
    )


class TestFoldMatchesPerNodeFsum:
    """The bincount fold against the per-node math.fsum fold it replaced."""

    @pytest.mark.parametrize("seed", range(20))
    def test_binary_trees_bit_identical(self, seed):
        rng = random.Random(900 + seed)
        tree = random_tree(rng, rng.randint(1, 4))
        s = rng.randint(0, tree.horizon)
        t = rng.randint(0, s)
        q = signed_zero_slice(rng, tree, s)
        got = conditional_expectation(tree, q, t)
        assert float_bits(got.values) == float_bits(fsum_fold(tree, q.values, s, t))

    def test_all_negative_zero_slice(self):
        tree = demo_tree()
        q = Slice.from_map(3, {n: -0.0 for n in tree.nodes_at(3)})
        for t in range(4):
            got = conditional_expectation(tree, q, t)
            assert float_bits(got.values) == float_bits(fsum_fold(tree, q.values, 3, t))

    @pytest.mark.parametrize("seed", range(10))
    def test_member_matrix_folds_row_by_row(self, seed):
        rng = random.Random(980 + seed)
        tree = random_tree(rng, rng.randint(1, 4), branching=(2, 2) if seed % 2 else (1, 3))
        s = rng.randint(0, tree.horizon)
        t = rng.randint(0, s)
        rows = [signed_zero_slice(rng, tree, s).array for _ in range(4)]
        rows.append(np.full(len(rows[0]), -0.0))
        got = conditional_expectation(tree, Slice(s, tree.sorted_nodes_at(s), np.array(rows)), t)
        assert got.array.shape == (len(rows), len(tree.nodes_at(t)))
        for row, q in zip(got.array.tolist(), rows):
            want = conditional_expectation(tree, Slice(s, tree.sorted_nodes_at(s), q), t)
            assert list(map(float.hex, row)) == list(map(float.hex, want.array.tolist()))

    @pytest.mark.parametrize("seed", range(10))
    def test_wider_trees_within_round_off(self, seed):
        rng = random.Random(950 + seed)
        tree = random_tree(rng, rng.randint(1, 3), branching=(1, 3))
        s = rng.randint(0, tree.horizon)
        t = rng.randint(0, s)
        q = signed_zero_slice(rng, tree, s)
        got = conditional_expectation(tree, q, t)
        want = fsum_fold(tree, q.values, s, t)
        for n in tree.nodes_at(t):
            assert got[n] == pytest.approx(want[n], abs=1e-12)
