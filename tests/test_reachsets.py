"""Unit tests for the seed-bitmask reach-set sweep of the pure-python reference."""

import random

import pytest

from kernel_reference import decode_mask, reachable_seed_masks, reachable_seed_sets

from repro.graph import DiGraph, erdos_renyi, is_reachable


class TestBasics:
    def test_diamond(self, diamond):
        seeds = ["d", "c"]
        sets = reachable_seed_sets(diamond.nodes(), diamond.successors, seeds)
        assert sets["a"] == {"d", "c"}
        assert sets["b"] == {"d"}
        assert sets["c"] == {"d", "c"}  # include_self: c reaches itself
        assert sets["d"] == {"d"}

    def test_exclude_self_on_dag(self, diamond):
        sets = reachable_seed_sets(
            diamond.nodes(), diamond.successors, ["c"], include_self=False
        )
        assert sets["c"] == frozenset()
        assert sets["a"] == {"c"}

    def test_exclude_self_on_cycle(self, cycle_graph):
        sets = reachable_seed_sets(
            cycle_graph.nodes(), cycle_graph.successors, [0], include_self=False
        )
        # 0 lies on a cycle, so a non-empty path 0 -> ... -> 0 exists.
        assert sets[0] == {0}

    def test_self_loop_counts_without_include_self(self):
        g = DiGraph()
        g.add_edge("a", "a", create=True)
        sets = reachable_seed_sets(g.nodes(), g.successors, ["a"], include_self=False)
        assert sets["a"] == {"a"}

    def test_no_seeds(self, diamond):
        masks = reachable_seed_masks(diamond.nodes(), diamond.successors, [])
        assert all(mask == 0 for mask in masks.values())

    def test_duplicate_seeds_share_reachability(self, diamond):
        seeds = ["d", "d"]
        masks = reachable_seed_masks(diamond.nodes(), diamond.successors, seeds)
        assert masks["a"] == 0b11

    def test_decode_mask(self):
        assert decode_mask(0b101, ["x", "y", "z"]) == {"x", "z"}


class TestAgainstBFS:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_graphs(self, seed):
        rng = random.Random(seed)
        g = erdos_renyi(40, rng.randrange(0, 160), seed=seed)
        nodes = list(g.nodes())
        seeds = rng.sample(nodes, k=min(7, len(nodes)))
        sets = reachable_seed_sets(g.nodes(), g.successors, seeds)
        for node in nodes:
            expected = frozenset(s for s in seeds if is_reachable(g, node, s))
            assert sets[node] == expected, (seed, node)

    def test_generic_successors(self):
        # Implicit graph: i -> i+1 mod 5 (a cycle) — everything reaches 0.
        def succ(n):
            return [(n + 1) % 5]

        masks = reachable_seed_masks(range(5), succ, [0])
        assert all(masks[i] == 1 for i in range(5))
