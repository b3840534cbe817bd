"""Unit tests for forward closures and closure-restricted mask sweeps."""


from kernel_reference import (
    forward_closure,
    reachable_seed_masks,
    reachable_seed_masks_from,
)

from repro.graph import erdos_renyi


class TestForwardClosure:
    def test_closure_of_source(self, diamond):
        assert set(forward_closure(["a"], diamond.successors)) == {"a", "b", "c", "d"}

    def test_closure_of_sink(self, diamond):
        assert forward_closure(["d"], diamond.successors) == ["d"]

    def test_multiple_roots_deduplicated(self, diamond):
        closure = forward_closure(["b", "c", "b"], diamond.successors)
        assert sorted(closure) == ["b", "c", "d"]

    def test_empty_roots(self, diamond):
        assert forward_closure([], diamond.successors) == []

    def test_closure_is_successor_closed(self):
        g = erdos_renyi(30, 90, seed=3)
        closure = set(forward_closure([0, 5], g.successors))
        for node in closure:
            assert set(g.successors(node)) <= closure


class TestRestrictedMasks:
    def test_matches_full_sweep_on_roots(self):
        g = erdos_renyi(35, 100, seed=7)
        seeds = [1, 2, 3]
        roots = [0, 10, 20]
        full = reachable_seed_masks(g.nodes(), g.successors, seeds)
        restricted = reachable_seed_masks_from(roots, g.successors, seeds)
        for root in roots:
            assert restricted[root] == full[root]

    def test_covers_only_closure(self, diamond):
        masks = reachable_seed_masks_from(["b"], diamond.successors, ["d"])
        assert set(masks) == {"b", "d"}
        assert masks["b"] == 1

    def test_seeds_outside_closure_ignored(self, diamond):
        # "c" is not reachable from "b": its bit can never be set.
        masks = reachable_seed_masks_from(["b"], diamond.successors, ["c", "d"])
        assert masks["b"] == 0b10  # only "d"
