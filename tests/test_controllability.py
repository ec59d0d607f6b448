"""Controllability decisions: functional checks, steering selection, labels."""

import random

import networkx as nx
import pytest

from netctrl import (
    StructuredSystem,
    Unsolvable,
    UnsolvableError,
    ValidationError,
    classify_nodes,
    is_functional_output_controllable,
    is_functional_target_controllable,
    is_structurally_controllable,
    solve_mtcp,
)
from netctrl import flow

from .conftest import random_system
from .oracles import (
    bf_classify,
    bf_is_admissible,
    bf_max_linking_size,
    reachable_from,
)


class TestFunctionalTargetControllability:
    def test_input_touched_nodes(self, steering_system):
        verdict = is_functional_target_controllable(
            steering_system, steering=(4, 7, 6, 9), targets=(8, 9)
        )
        assert verdict.controllable
        assert verdict.witness.size == 2

    def test_chain_two_targets(self, chain_system):
        verdict = is_functional_target_controllable(
            chain_system, steering=(1,), targets=(3, 4)
        )
        assert not verdict.controllable
        assert verdict.linking_size == 1
        assert verdict.witness is None

    def test_steering_equals_targets(self, steering_system):
        verdict = is_functional_target_controllable(
            steering_system, steering=(8, 9), targets=(8, 9)
        )
        assert verdict.controllable
        assert sorted(verdict.witness.paths) == [(8,), (9,)]

    def test_defaults_to_system_sets(self, steering_system):
        assert is_functional_target_controllable(steering_system).controllable

    def test_out_of_range(self, chain_system):
        with pytest.raises(ValidationError):
            is_functional_target_controllable(chain_system, steering=(9,), targets=(1,))


class TestFunctionalOutputControllability:
    def test_io_example(self, io_system):
        verdict = is_functional_output_controllable(io_system)
        assert verdict.controllable
        assert verdict.linking_size == 2

    def test_requires_explicit_io(self, steering_system):
        with pytest.raises(ValidationError):
            is_functional_output_controllable(steering_system)


class TestSolveMtcp:
    def test_steering_example(self, steering_system):
        sol = solve_mtcp(steering_system)
        assert len(sol.steering) == 2
        assert 1 in sol.steering  # x1 is essential, so it is in every solution
        assert sol.witness.size == 2
        assert sorted(sol.witness.start_nodes()) == sorted(sol.steering)
        # the witness start set really is admissible
        assert bf_is_admissible(steering_system.state_adjacency(), sol.steering, (8, 9))

    def test_available_equals_targets(self):
        sys_ = StructuredSystem(
            n=3, state_edges=((1, 2),), available=(1, 3), targets=(1, 3)
        )
        sol = solve_mtcp(sys_)
        assert sorted(sol.steering) == [1, 3]

    def test_unsolvable_reduced_available(self, steering_system):
        sys_ = StructuredSystem(
            n=9, state_edges=steering_system.state_edges, available=(3,), targets=(8, 9)
        )
        result = solve_mtcp(sys_)
        assert isinstance(result, Unsolvable)
        assert result.achieved_size == 0  # x3 has no path to any target
        assert not result

    def test_prefer_small_index(self, steering_system):
        sol = solve_mtcp(steering_system, prefer_small_index=True)
        assert sol.steering == (1, 2)

    def test_prefer_small_index_is_lexicographic_minimum(self):
        rng = random.Random(4001)
        checked = 0
        while checked < 25:
            sys_ = random_system(rng)
            result = solve_mtcp(sys_, prefer_small_index=True)
            if isinstance(result, Unsolvable):
                continue
            adj = sys_.state_adjacency()
            p = len(sys_.targets)
            from itertools import combinations

            best = None
            for combo in combinations(sorted(sys_.available), p):
                if bf_is_admissible(adj, combo, sys_.targets):
                    best = tuple(combo)
                    break
            assert best == tuple(sorted(result.steering))
            checked += 1

    def test_requires_targets(self):
        with pytest.raises(ValidationError):
            solve_mtcp(StructuredSystem(n=2, available=(1,)))


class TestClassifyNodes:
    def test_steering_example(self, steering_system):
        c = classify_nodes(steering_system)
        assert c.essential == {1}
        assert c.useful == {2, 4}
        assert c.useless == {3}
        assert c.as_dict() == {
            1: "essential", 2: "useful", 3: "useless", 4: "useful"
        }

    def test_singleton_overlap(self):
        c = classify_nodes(StructuredSystem(n=1, available=(1,), targets=(1,)))
        assert c.essential == {1}

    def test_isolated_available_node_is_useless(self, steering_system):
        sys_ = StructuredSystem(
            n=10,
            state_edges=steering_system.state_edges,
            available=(1, 2, 3, 4, 10),
            targets=(8, 9),
        )
        c = classify_nodes(sys_)
        assert 10 in c.useless
        assert c.essential == {1}

    def test_unsolvable_raises(self, steering_system):
        sys_ = StructuredSystem(
            n=9, state_edges=steering_system.state_edges, available=(3,), targets=(8, 9)
        )
        with pytest.raises(UnsolvableError) as exc:
            classify_nodes(sys_)
        assert exc.value.achieved_size == 0
        assert exc.value.required == 2

    def test_chained_available_nodes(self):
        # an available node whose only route passes through another available
        # node: neither is essential (each singleton is admissible on its own)
        sys_ = StructuredSystem(
            n=3, state_edges=((1, 2), (2, 3)), available=(1, 2), targets=(3,)
        )
        c = classify_nodes(sys_)
        assert c.essential == frozenset()
        assert c.useful == {1, 2}
        assert bf_classify(sys_.state_adjacency(), (1, 2), (3,)) == {
            1: "useful", 2: "useful"
        }

    def test_matches_definition_oracle_on_random_systems(self):
        rng = random.Random(515)
        solvable_seen = 0
        trials = 0
        while solvable_seen < 40 and trials < 400:
            trials += 1
            sys_ = random_system(rng, max_n=8, max_available=5, max_targets=3)
            adj = sys_.state_adjacency()
            expected = bf_classify(adj, sys_.available, sys_.targets)
            if expected is None:
                with pytest.raises(UnsolvableError):
                    classify_nodes(sys_)
                continue
            got = classify_nodes(sys_).as_dict()
            assert got == expected, f"mismatch on {sys_}"
            solvable_seen += 1
        assert solvable_seen >= 40


class TestStructuralControllability:
    def test_io_example(self, io_system):
        report = is_structurally_controllable(io_system)
        assert report.controllable
        assert report.input_connected
        assert report.generic_rank == 9
        covered = {v for stem in report.stems for k, v in stem[1:]}
        covered |= {v for cyc in report.cycles for k, v in cyc}
        assert covered == set(range(1, 10))

    def test_chain_rank_deficient(self, chain_system):
        report = is_structurally_controllable(chain_system)
        assert not report.controllable
        assert report.input_connected
        assert report.generic_rank == 3
        assert len(report.uncovered) == 1

    def test_single_node_single_input(self):
        sys_ = StructuredSystem(n=1, explicit_inputs=((1,),))
        report = is_structurally_controllable(sys_)
        assert report.controllable
        assert report.stems == ((("u", 1), ("x", 1)),)

    def test_disconnected_state(self):
        sys_ = StructuredSystem(
            n=3, state_edges=((1, 2), (2, 1), (3, 3)), explicit_inputs=((1,),)
        )
        report = is_structurally_controllable(sys_)
        assert not report.controllable
        assert not report.input_connected
        assert report.unreachable == (3,)
        # the self-loop still lets the rank condition pass
        assert report.generic_rank == 3

    def test_requires_inputs(self, steering_system):
        with pytest.raises(ValidationError):
            is_structurally_controllable(steering_system)

    def test_cover_is_disjoint(self, io_system):
        report = is_structurally_controllable(io_system)
        pieces = list(report.stems) + list(report.cycles)
        all_states = [v for piece in pieces for kind, v in piece if kind == "x"]
        assert len(all_states) == len(set(all_states))

    def test_large_systems_against_bfs_and_networkx(self):
        # above the cutoff the state graph is a StateGraph, and reachability
        # from the inputs is one search over the edge arrays
        rng = random.Random(16)
        verdicts = set()
        for trial in range(8):
            n = rng.randint(600, 1200)
            edges = {(rng.randint(1, n), rng.randint(1, n))
                     for _ in range(rng.randint(n // 2, 2 * n))}
            if trial % 2:  # a spanning chain: every node reachable from x1
                edges |= {(i, i + 1) for i in range(1, n)}
            inputs = [tuple(rng.sample(range(1, n + 1), rng.randint(0, 3)))
                      for _ in range(rng.randint(1, 4))]
            inputs[0] += (1,) if 1 not in inputs[0] else ()
            sys_ = StructuredSystem(n=n, state_edges=tuple(edges),
                                    explicit_inputs=tuple(inputs))
            assert isinstance(sys_.state_adjacency(), flow.StateGraph)
            report = is_structurally_controllable(sys_)

            succ = {i: [] for i in range(1, n + 1)}
            for i, j in sys_.state_edges:
                succ[i].append(j)
            reached = reachable_from(succ, [i for col in inputs for i in col])
            assert report.unreachable == tuple(
                i for i in range(1, n + 1) if i not in reached)
            # generic rank: a maximum matching of rows to columns of [A | B]
            pattern = nx.Graph()
            rows = [("row", j) for j in range(1, n + 1)]
            pattern.add_nodes_from(rows)
            pattern.add_edges_from((("row", j), ("col", i)) for i, j in edges)
            pattern.add_edges_from((("row", i), ("input", k))
                                   for k, col in enumerate(inputs) for i in col)
            matching = nx.bipartite.hopcroft_karp_matching(pattern, rows)
            assert report.generic_rank == len(matching) // 2
            assert report.controllable == (not report.unreachable
                                           and report.generic_rank == n)
            verdicts.add((report.input_connected, report.controllable))
        assert len(verdicts) >= 2


class TestAgreementBetweenOperations:
    def test_essential_nodes_in_every_maximum_linking_start_set(self):
        from .oracles import bf_all_maximum_linkings

        rng = random.Random(99)
        solvable_seen = 0
        while solvable_seen < 20:
            sys_ = random_system(rng, max_n=7, max_available=4, max_targets=2)
            adj = sys_.state_adjacency()
            p = len(sys_.targets)
            if bf_max_linking_size(adj, sys_.available, sys_.targets) < p:
                continue
            solvable_seen += 1
            essential = classify_nodes(sys_).essential
            for linking in bf_all_maximum_linkings(adj, sys_.available, sys_.targets):
                starts = {path[0] for path in linking}
                assert essential <= starts

    def test_solve_and_classify_consistent(self, steering_system):
        sol = solve_mtcp(steering_system)
        essential = classify_nodes(steering_system).essential
        assert essential <= set(sol.steering)
