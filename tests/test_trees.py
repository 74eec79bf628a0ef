"""Tests for splitting trees, width process and the contour path.

Worked tree used throughout (birth, lifespan):

    root (0, 3) -> c1 (1, 2) -> g (1.5, 1)
                -> c2 (2, 0.5)

Deaths: root 3, c1 3, c2 2.5, g 2.5.  Width: 1 on [0,1), 2 on [1,1.5),
3 on [1.5,2), 4 on [2,2.5), 2 on [2.5,3), 0 after.  Total length 6.5.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levyexc import trees
from levyexc.models import ExponentialJumps
from levyexc.paths import EventPath
from levyexc.simulate import RngStream
from levyexc.trees import (
    MAX_EXPORT_GENERATIONS,
    SplittingTree,
    TreeNode,
    contour_width_identity,
    jccp,
    sample_tree,
    tree_from_dict,
    tree_to_dict,
    width_process,
)

JUMPS = ExponentialJumps(1.0, 2.0)  # birth rate 1, mean lifespan 1/2


def worked_tree() -> SplittingTree:
    g = TreeNode(1.5, 1.0)
    c1 = TreeNode(1.0, 2.0, [g])
    c2 = TreeNode(2.0, 0.5)
    return SplittingTree(TreeNode(0.0, 3.0, [c1, c2]))


# Lifespans are multiples of STEP and births fall on the half-STEP grid
# strictly inside the parent's life, all distinct, so every level, duration
# and area the contour and the width compute is an exact dyadic sum.
STEP = 0.25


@st.composite
def small_trees(draw, max_nodes=12):
    def node(birth):
        return TreeNode(birth, draw(st.integers(1, 8)) * STEP)

    root = node(0.0)
    queue, count = [root], 1
    while queue and count < max_nodes:
        parent = queue.pop(0)
        slots = round(2 * parent.lifespan / STEP) - 1
        offsets = draw(st.lists(st.integers(1, slots), unique=True,
                                max_size=min(3, max_nodes - count)))
        for j in sorted(offsets):
            child = node(parent.birth_time + j * STEP / 2)
            parent.children.append(child)
            queue.append(child)
        count += len(offsets)
    return SplittingTree(root)


@settings(derandomize=True, deadline=None)
@given(small_trees())
def test_contour_matches_width_exactly(tree):
    assert contour_width_identity(tree)
    assert jccp(tree).lifetime == width_process(tree).integral()


class TestTreeBasics:
    def test_size_extinction_length(self):
        t = worked_tree()
        assert t.size == 4
        assert t.extinction_time == 3.0
        assert width_process(t).integral() == 6.5

    def test_sample_deterministic(self):
        a = sample_tree(JUMPS, RngStream(3).child("t").generator())
        b = sample_tree(JUMPS, RngStream(3).child("t").generator())
        assert a.size == b.size
        assert width_process(a).integral() == width_process(b).integral()

    def test_expected_size(self):
        # Offspring mean m = b * E[lifespan] = 1/2: E[size] = 1/(1-m) = 2.
        rng = RngStream(17).child("size").generator()
        sizes = [sample_tree(JUMPS, rng).size for _ in range(3000)]
        assert np.mean(sizes) == pytest.approx(2.0, rel=0.1)

    def test_root_lifespan_override(self):
        t = sample_tree(JUMPS, RngStream(1).generator(), root_lifespan=7.0)
        assert t.root.lifespan == 7.0

    def test_node_cap(self, monkeypatch):
        # Founder with span 200 spawns ~Poisson(1000) children, so the
        # 500-node budget is exhausted regardless of the seed.
        heavy = ExponentialJumps(5.0, 1.0)
        monkeypatch.setattr(trees, "DEFAULT_MAX_NODES", 500)
        with pytest.raises(RuntimeError):
            sample_tree(heavy, RngStream(2).generator(), root_lifespan=200.0)

    def test_children_sorted_by_birth(self):
        rng = RngStream(23).child("sorted").generator()
        for _ in range(20):
            tree = sample_tree(JUMPS, rng)
            for node in tree.nodes():
                births = [c.birth_time for c in node.children]
                assert births == sorted(births)


class TestWidthProcess:
    def test_worked_width(self):
        w = width_process(worked_tree())
        assert w.times == (0.0, 1.0, 1.5, 2.0, 2.5, 3.0)
        assert w.values == (1, 2, 3, 4, 2, 0)
        assert w.extinction_time == 3.0

    def test_value_and_left_limit(self):
        w = width_process(worked_tree())
        assert w.value_at(0.0) == 1
        assert w.left_limit(0.0) == 0
        assert w.value_at(2.0) == 4
        assert w.left_limit(2.0) == 3
        assert w.value_at(2.99) == 2
        assert w.value_at(3.0) == 0
        assert w.value_at(10.0) == 0

    def test_integrals(self):
        w = width_process(worked_tree())
        assert w.integral() == pytest.approx(6.5, abs=1e-12)
        # sum v_i (b^2 - a^2)/2 = 0.5 + 1.25 + 2.625 + 4.5 + 2.75.
        assert w.time_weighted_integral() == pytest.approx(11.625, abs=1e-12)
        assert w.time_weighted_integral(reverse=True) == pytest.approx(
            3.0 * 6.5 - 11.625, abs=1e-12)


class TestContour:
    def test_worked_contour(self):
        # Traversal: jump 3 at t=0; descend to c2's birth 2, jump 0.5;
        # descend through c2's life and on to c1's birth 1, jump 2;
        # descend to g's birth 1.5 (level 3 after the jump), jump 1;
        # descend through g, the rest of c1 and the rest of the root.
        p = jccp(worked_tree())
        assert p == EventPath(3.0, 3.0, ((1.0, -1.0, 0.5), (1.5, -1.0, 2.0),
                                         (1.5, -1.0, 1.0), (2.5, -1.0, 0.0)))
        assert p.lifetime == 6.5
        assert p.end_value() == 0.0

    def test_contour_jumps_are_lifespans(self):
        rng = RngStream(31).child("jccp").generator()
        for _ in range(30):
            tree = sample_tree(JUMPS, rng)
            p = jccp(tree)
            spans = sorted(n.lifespan for n in tree.nodes())
            assert sorted(p.jumps()) == pytest.approx(spans)
            assert p.lifetime == pytest.approx(width_process(tree).integral(),
                                              rel=1e-12)
            assert p.end_value() == pytest.approx(0.0, abs=1e-12)

    def test_contour_width_identity_worked(self):
        assert contour_width_identity(worked_tree())

    def test_contour_width_identity_simulated(self):
        rng = RngStream(37).child("ident").generator()
        for _ in range(100):
            assert contour_width_identity(sample_tree(JUMPS, rng))

    def test_crossing_counts_equal_width_pointwise(self):
        p = jccp(worked_tree())
        w = width_process(worked_tree())
        from levyexc.excursions import local_time_count
        for level, expected in ((0.5, 1), (1.25, 2), (1.75, 3), (2.25, 4),
                                (2.75, 2), (3.5, 0)):
            assert local_time_count(p, level) == expected
            assert w.value_at(level) == expected

    def test_contour_of_lone_root(self):
        tree = SplittingTree(TreeNode(0.0, 2.0))
        p = jccp(tree)
        assert p == EventPath(2.0, 2.0, ((2.0, -1.0, 0.0),))
        assert contour_width_identity(tree)


class TestLambertCorrespondence:
    def test_contour_moments_match_first_passage(self):
        # The contour of a tree with founder lifespan x has the law of the
        # unit-drift path from x killed at 0: E[lifetime] = x / psi'(0) = 2x
        # and E[#jumps excluding the initial one] = b * E[lifetime] = 2x.
        rng = RngStream(41).child("lambert").generator()
        n = 2000
        lengths, counts = [], []
        for _ in range(n):
            tree = sample_tree(JUMPS, rng, root_lifespan=1.0)
            lengths.append(width_process(tree).integral())
            counts.append(tree.size - 1)
        assert np.mean(lengths) == pytest.approx(2.0, abs=0.25)
        assert np.mean(counts) == pytest.approx(2.0, abs=0.3)


def chain_tree(generations: int) -> SplittingTree:
    """Each individual has one child, born halfway through its life."""
    root = node = TreeNode(0.0, 1.0)
    for _ in range(generations - 1):
        child = TreeNode(node.birth_time + 0.5, 1.0)
        node.children.append(child)
        node = child
    return SplittingTree(root)


class TestSerialization:
    def test_round_trip_at_the_generation_limit(self):
        tree = chain_tree(MAX_EXPORT_GENERATIONS)
        line = json.dumps(tree_to_dict(tree), sort_keys=True)
        back = tree_from_dict(json.loads(line))
        assert back.size == MAX_EXPORT_GENERATIONS
        assert json.dumps(tree_to_dict(back), sort_keys=True) == line

    def test_deeper_tree_is_refused(self):
        with pytest.raises(RuntimeError,
                           match=f"{MAX_EXPORT_GENERATIONS + 1} generations"):
            tree_to_dict(chain_tree(MAX_EXPORT_GENERATIONS + 1))
