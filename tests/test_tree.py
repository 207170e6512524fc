import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from horizonrisk import (
    ProbabilityError,
    Slice,
    StructureError,
    TimeOrderError,
    UnknownNode,
    build_tree,
    builtin_example,
    conditional_expectation,
    path_probability,
)

from helpers import conditional_expectation_oracle, random_tree


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
    return tree, Slice(s, vals), t


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
        assert tree.leaves() == ("only",)

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


class TestPathProbability:
    def test_root_is_one(self):
        assert path_probability(demo_tree(), "r") == 1.0

    def test_leaf_probability(self):
        tree = demo_tree()
        for leaf in tree.leaves():
            assert path_probability(tree, leaf) == pytest.approx(0.125, abs=1e-15)

    def test_interior_probability(self):
        tree = demo_tree()
        for nid in tree.nodes_at(2):
            assert path_probability(tree, nid) == pytest.approx(0.25, abs=1e-15)

    def test_unknown_node(self):
        with pytest.raises(UnknownNode):
            path_probability(demo_tree(), "nope")

    @given(trees())
    @settings(max_examples=60, deadline=None)
    def test_slice_probabilities_sum_to_one(self, tree):
        for t in range(tree.horizon + 1):
            total = math.fsum(path_probability(tree, n) for n in tree.nodes_at(t))
            assert abs(total - 1.0) <= 1e-12


class TestConditionalExpectation:
    def test_first_increment_mean(self):
        tree = builtin_example("s4").market.tree
        market = builtin_example("s4").market
        q = Slice(
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
        q = Slice(2, {n: float(i) for i, n in enumerate(tree.nodes_at(2))})
        out = conditional_expectation(tree, q, 2)
        assert out.values == q.values

    def test_forward_conditioning_rejected(self):
        tree = demo_tree()
        q = Slice(1, {n: 1.0 for n in tree.nodes_at(1)})
        with pytest.raises(TimeOrderError):
            conditional_expectation(tree, q, 2)

    def test_partial_slice_rejected(self):
        tree = demo_tree()
        q = Slice(1, {tree.nodes_at(1)[0]: 1.0})
        with pytest.raises(ValueError):
            conditional_expectation(tree, q, 0)

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
        q = Slice.constant(tree, tree.horizon, c)
        out = conditional_expectation(tree, q, 0)
        for n in out.values:
            assert out[n] == pytest.approx(c, abs=1e-12 * max(1.0, abs(c)))

    @given(trees_with_slice())
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_the_slice(self, case):
        tree, q, t = case
        rng = random.Random(7)
        q2 = q.map(lambda v: v - rng.uniform(0.0, 5.0))
        hi = conditional_expectation(tree, q, t)
        lo = conditional_expectation(tree, q2, t)
        for n in hi.values:
            assert hi[n] >= lo[n] - 1e-12
