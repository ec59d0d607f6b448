"""Controllability decisions: functional checks, steering selection, labels."""

import math
import pickle
import random
import sys
import threading
from itertools import combinations

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
from netctrl import flow, system
from netctrl.numeric import structural_transfer_rank

from .conftest import EXAMPLE_EDGES, random_system
from .oracles import (
    bf_classify,
    bf_is_admissible,
    bf_max_linking_size,
    reachable_from,
)
from .test_properties import (both_kernels, count_networks, counted,
                              falls_back)


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

    @pytest.mark.parametrize("n", [4, 600])  # below and above the CSR cutoff
    @pytest.mark.parametrize("node", [1.5, True, "x", None, 0, 2**70])
    def test_rejects_what_is_not_a_node(self, n, node):
        chain = StructuredSystem(n=n, state_edges=[(i, i + 1) for i in range(1, n)])
        for sets in ({"steering": [node], "targets": [n]},
                     {"steering": [1], "targets": [node]}):
            with pytest.raises(ValidationError):
                is_functional_target_controllable(chain, **sets)


class TestFunctionalOutputControllability:
    def test_io_example(self, io_system):
        verdict = is_functional_output_controllable(io_system)
        assert verdict.controllable
        assert verdict.linking_size == 2

    def test_requires_explicit_io(self, steering_system):
        with pytest.raises(ValidationError):
            is_functional_output_controllable(steering_system)

    @pytest.mark.parametrize("question", [is_functional_output_controllable,
                                          structural_transfer_rank])
    def test_reads_the_io_graph_once_as_arrays(self, io_system, question):
        # the I/O graph is built from the system's arrays, read once, and no
        # successor dict is made on the way
        def ask():
            calls = {"read": 0, "dict": 0}
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(flow, "_flatten", counted(flow._flatten, calls, "read"))
                for owner, name in ((system, "build_graph"),
                                    (system.SystemGraph, "adjacency")):
                    mp.setattr(owner, name, counted(getattr(owner, name),
                                                    calls, "dict"))
                return question(io_system), calls

        for answer, calls in both_kernels(ask):
            assert answer == question(io_system)
            assert calls == {"read": 1, "dict": 0}


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

    def test_prefer_small_index_unsolvable(self):
        # the greedy keeps fewer than p nodes; the answer is the plain one
        rng = random.Random(4002)
        checked = 0
        while checked < 25:
            sys_ = random_system(rng)
            adj = sys_.state_adjacency()
            if flow.max_linking_size(adj, sys_.available,
                                     sys_.targets) == len(sys_.targets):
                continue
            for result in both_kernels(solve_mtcp, sys_, True):
                assert isinstance(result, Unsolvable)
                assert result.best_linking == flow.maximum_linking(
                    adj, sys_.available, sys_.targets)
                assert result == solve_mtcp(sys_)
            checked += 1

    def test_prefer_small_index_builds_one_network(self):
        # candidate 3 has no path to a target and is passed over; without 1
        # and 4 only 7 is linked.  The list kernel builds the graph's edge
        # lists once, and its greedy is its one solve, whose flow is also
        # maximum_linking's; the CSR kernel's greedy grows its flow on the
        # node graph and builds no network, and its unsolvable answer is
        # maximum_linking's, from the same reading
        sys_ = StructuredSystem(n=9, state_edges=EXAMPLE_EDGES,
                                available=(1, 3, 4, 5), targets=(8, 9))
        short = StructuredSystem(n=9, state_edges=EXAMPLE_EDGES,
                                 available=(3, 7), targets=(8, 9))

        def solve(*args):
            """solve_mtcp's answer, and how often it read the graph, built a
            network over the whole graph, solved one and called
            max_linking_size."""
            calls = {"read": 0, "build": 0, "solve": 0, "max_linking_size": 0}
            with pytest.MonkeyPatch.context() as mp:
                for key, name in (("read", "_flatten"),
                                  ("max_linking_size", "max_linking_size")):
                    mp.setattr(flow, name, counted(getattr(flow, name), calls,
                                                   key))
                count_networks(mp, calls, args[0].n)
                return solve_mtcp(*args), calls

        py, csr = both_kernels(solve, sys_, True)
        for (result, calls), build, solves in ((py, 1, 1), (csr, 0, 0)):
            assert result.steering == (1, 4)
            assert calls == {"read": 1, "build": build, "solve": solves,
                             "max_linking_size": 0}
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(flow, "CSR_MIN_ARCS", 0)
            whole = falls_back(short.state_adjacency(), short.available,
                               short.targets)
        py, csr = both_kernels(solve, short, True)
        for (result, calls), build in ((py, 1), (csr, int(whole))):
            assert result == solve_mtcp(short)
            assert result.best_linking.paths == ((7, 8),)
            assert calls == {"read": 1, "build": build, "solve": 1,
                             "max_linking_size": 0}

    def test_prefer_small_index_on_a_csr_sized_system(self):
        # the greedy builds no network over the whole graph and runs no
        # Dinic: every search is on the node graph of the kept edge index
        sys_ = csr_sized_system()
        calls = {"build": 0, "solve": 0, "dinic": 0}
        with pytest.MonkeyPatch.context() as mp:
            count_networks(mp, calls, sys_.n)
            mp.setattr(flow, "_dinic", counted(flow._dinic, calls, "dinic"))
            result = solve_mtcp(sys_, prefer_small_index=True)
        assert calls == {"build": 0, "solve": 0, "dinic": 0}
        assert sys_.state_adjacency()._index is not None
        p = len(sys_.targets)
        assert result.steering == next(
            combo for combo in combinations(sorted(sys_.available), p)
            if flow.max_linking_size(sys_.state_adjacency(), combo,
                                     sys_.targets) == p)
        assert sorted(result.witness.start_nodes()) == list(result.steering)

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
        # above the cutoff reachability from the inputs is one scipy search
        # over the edge arrays
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
            assert n + len(sys_.state_edges) >= flow.CSR_MIN_ARCS
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
            assert_matching_read_off(report, sys_)
            verdicts.add((report.input_connected, report.controllable))
        assert len(verdicts) >= 2

    def test_reachability_on_both_sides_of_the_cutoff(self):
        rng = random.Random(17)
        full_rank = 0
        for _ in range(40):
            n = rng.randint(1, 30)
            edges = {(rng.randint(1, n), rng.randint(1, n))
                     for _ in range(rng.randint(0, 3 * n))}
            inputs = (tuple(rng.sample(range(1, n + 1), rng.randint(0, min(n, 3)))),)
            sys_ = StructuredSystem(n=n, state_edges=tuple(edges),
                                    explicit_inputs=inputs)
            succ = {i: [j for t, j in sys_.state_edges if t == i]
                    for i in range(1, n + 1)}
            reached = reachable_from(succ, inputs[0])
            expected = tuple(i for i in range(1, n + 1) if i not in reached)
            ranks = set()
            for cutoff in (math.inf, 0):
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(flow, "CSR_MIN_ARCS", cutoff)
                    report = is_structurally_controllable(sys_)
                assert report.unreachable == expected
                # below the cutoff the matching is read off the flow kernel,
                # above it scipy's Hopcroft-Karp finds it
                assert_matching_read_off(report, sys_)
                ranks.add(report.generic_rank)
            assert len(ranks) == 1
            full_rank += ranks == {n}
        assert full_rank


def assert_matching_read_off(report, sys_):
    """The rows that ``report``'s maximum matching leaves uncovered are as
    many as the generic rank misses, and at full rank its stems and cycles
    cover every state exactly once, each step an entry of [A | B]."""
    n = sys_.n
    assert len(report.uncovered) == n - report.generic_rank
    if report.generic_rank < n:
        return
    edges = set(sys_.state_edges)
    covered = []
    for (root, k), *chain in report.stems:
        states = [v for _, v in chain]
        assert root == "u" and {kind for kind, _ in chain} == {"x"}
        assert states[0] in sys_.explicit_inputs[k - 1]
        assert all(step in edges for step in zip(states, states[1:]))
        covered += states
    for cycle in report.cycles:
        states = [v for _, v in cycle]
        assert {kind for kind, _ in cycle} == {"x"}
        assert all(step in edges for step in zip(states, states[1:] + states[:1]))
        covered += states
    assert sorted(covered) == list(range(1, n + 1))


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


def csr_sized_system(**changes) -> StructuredSystem:
    """A solvable random system of 2000 nodes and about 6000 edges, above
    ``flow.CSR_MIN_ARCS``, with |A| = 8 and |T| = 4; ``changes`` replace its
    fields."""
    rng = random.Random(1)
    n = 2000
    edges = sorted({(rng.randint(1, n), rng.randint(1, n)) for _ in range(3 * n)})
    nodes = rng.sample(range(1, n + 1), 12)
    fields = dict(n=n, state_edges=edges, available=nodes[:8], targets=nodes[8:])
    return StructuredSystem(**{**fields, **changes})


def four_questions(sys_):
    """The classification, minimal steering set, separator and linking of a
    system on its own sets."""
    graph = sys_.state_adjacency()
    return (classify_nodes(sys_), solve_mtcp(sys_),
            flow.minimal_left_separator(graph, sys_.available, sys_.targets),
            flow.maximum_linking(graph, sys_.available, sys_.targets))


def questions_of(sys_):
    """The classification, separator, classification again and essential
    analysis of a system on its own sets."""
    graph = sys_.state_adjacency()
    return (classify_nodes(sys_),
            flow.minimal_left_separator(graph, sys_.available, sys_.targets),
            classify_nodes(sys_),
            flow.essential_start_analysis(graph, sys_.available, sys_.targets))


def own_separator(sys_):
    """The minimal left separator of a system on its own sets."""
    return flow.minimal_left_separator(sys_.state_adjacency(), sys_.available,
                                       sys_.targets)


def assert_serial_in_threads(sys_, fresh, askers, calls):
    """One thread per list of questions in ``askers`` asks ``calls`` of them
    of ``sys_`` in turn, all starting together on a short switch interval;
    every answer must be the one a serial call on ``fresh``, an equal
    system, gives."""
    serial = [[question(fresh) for question in questions]
              for questions in askers]
    answers = [[] for _ in askers]
    start = threading.Barrier(len(askers))

    def ask(k):
        questions = askers[k]
        start.wait()
        for call in range(calls):
            answers[k].append(questions[call % len(questions)](sys_))

    threads = [threading.Thread(target=ask, args=(k,))
               for k in range(len(askers))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for expected, got in zip(serial, answers):
        assert got == [expected[k % len(expected)] for k in range(calls)]


class TestOneSolvePerSets:
    """A system's state graph keeps the flow of its last solved CSR-sized
    network, and every later question on the same available and target sets
    reads its answer off that flow."""

    @staticmethod
    def builds_and_solves(question, graph, *args):
        """``question``'s answer, and how many networks over the whole graph
        it built and how many it solved (see ``count_networks``)."""
        n = len(graph.state_adjacency() if isinstance(graph, StructuredSystem)
                else graph)
        calls = {"build": 0, "solve": 0}
        with pytest.MonkeyPatch.context() as mp:
            count_networks(mp, calls, n)
            return question(graph, *args), calls

    def test_one_solve_for_the_four_questions(self):
        # the sub-network proves its flow, so no question builds a network
        # over the whole graph, and the four share one solve
        sys_ = csr_sized_system()
        answers, calls = self.builds_and_solves(four_questions, sys_)
        assert calls == {"build": 0, "solve": 1}
        classes, solution, separator, linking = answers
        assert classes.useless and not isinstance(solution, Unsolvable)
        # the kept flow is its paths' nodes, not a network
        kept = sys_.state_adjacency()._last_solved[1]
        assert isinstance(kept, flow._NodeFlow)
        assert len(kept.on) < 100 and kept.value == len(kept.firsts) == 4
        # a fresh system solves its own and answers the same
        assert answers == four_questions(csr_sized_system())
        # a check on another steering set solves its sub-network alone: it
        # builds no network over the whole graph and keeps the flow kept, so
        # the next question on the system's own sets builds and solves
        # nothing
        last = sys_.state_adjacency()._last_solved
        for steering in (sys_.available[:5], sys_.available[2:]):
            verdict, calls = self.builds_and_solves(
                is_functional_target_controllable, sys_, steering)
            assert calls == {"build": 0, "solve": 1}
            assert sys_.state_adjacency()._last_solved is last
            assert verdict == is_functional_target_controllable(
                csr_sized_system(), steering)
            again, calls = self.builds_and_solves(classify_nodes, sys_)
            assert calls == {"build": 0, "solve": 0}
            assert again == classes

    def test_linking_then_classify_solves_once(self):
        # a path-only question keeps its flow when none is kept; checks on
        # other steering sets then neither evict it nor keep theirs
        sys_ = csr_sized_system()
        graph = sys_.state_adjacency()
        linking, calls = self.builds_and_solves(
            flow.maximum_linking, graph, sys_.available, sys_.targets)
        assert calls == {"build": 0, "solve": 1}
        last = graph._last_solved
        assert last is not None
        for steering in (sys_.available[:5], sys_.available[2:]):
            _, calls = self.builds_and_solves(
                is_functional_target_controllable, sys_, steering)
            assert calls == {"build": 0, "solve": 1}
            assert graph._last_solved is last
        classes, calls = self.builds_and_solves(classify_nodes, sys_)
        assert calls == {"build": 0, "solve": 0}
        assert graph._last_solved is last
        fresh = csr_sized_system()
        assert classes == classify_nodes(fresh)
        assert linking == flow.maximum_linking(
            fresh.state_adjacency(), fresh.available, fresh.targets)

    def test_same_answers_as_the_python_kernel(self, monkeypatch):
        classes, solution, separator, linking = four_questions(csr_sized_system())
        monkeypatch.setattr(flow, "CSR_MIN_ARCS", math.inf)
        py_classes, py_solution, py_separator, py_linking = four_questions(
            csr_sized_system())
        # the two kernels' linkings are both maximum but may differ
        assert (py_classes, py_separator) == (classes, separator)
        assert py_solution.witness.size == solution.witness.size
        assert py_linking.size == linking.size == len(separator)

    def test_kept_flow_keeps_its_searches(self):
        # the kept flow searches its node graph once and the predecessors
        # once: classify, separator, classify and the essential analysis
        # run two scipy searches in all, and checks on other steering sets
        # in between leave both searches kept
        sys_ = csr_sized_system()
        graph = sys_.state_adjacency()
        calls = {"bfs": 0}
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(flow, "_bfs", counted(flow._bfs, calls, "bfs"))
            answers = questions_of(sys_)
            assert calls == {"bfs": 2}
            kept = graph._last_solved[1]
            closed, reach = kept._closed, kept._reach
            assert not (closed.flags.writeable or reach.flags.writeable)
            for steering in (sys_.available[:5], sys_.available[2:]):
                is_functional_target_controllable(sys_, steering)
                assert graph._last_solved[1] is kept
                assert kept._closed is closed and kept._reach is reach
            calls["bfs"] = 0
            assert questions_of(sys_) == answers
            assert calls == {"bfs": 0}
        assert answers == questions_of(csr_sized_system())
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(flow, "CSR_MIN_ARCS", math.inf)
            assert answers == questions_of(csr_sized_system())

    def test_two_threads_alternating_labellings(self):
        # both threads alternate the classification and the separator on a
        # fresh system, one starting with each: the first questions race to
        # build the edge index, to keep the flow and to search it
        assert_serial_in_threads(csr_sized_system(), csr_sized_system(),
                                 [[classify_nodes, own_separator],
                                  [own_separator, classify_nodes]], 100)

    @pytest.mark.parametrize("node", [True, 1.0])
    def test_nodes_checked_after_a_kept_solve(self, node):
        sys_ = csr_sized_system(available=(1, 2, 3, 4, 5), targets=(6, 7))
        graph = sys_.state_adjacency()
        flow.minimal_left_separator(graph, sys_.available, sys_.targets)
        assert graph._last_solved is not None
        for op in (flow.max_linking_size, flow.maximum_linking,
                   flow.minimal_left_separator, flow.essential_start_analysis):
            for available, targets in ((sys_.available + (node,), sys_.targets),
                                       (sys_.available, sys_.targets + (node,))):
                with pytest.raises(ValueError) as err:
                    op(graph, available, targets)
                assert str(err.value) == f"node {node!r} not in graph"

    def test_writable_arrays_are_never_kept(self):
        sys_ = csr_sized_system()
        tails, heads = (a.copy() for a in sys_._edge_arrays)
        graph = flow.StateGraph(range(1, sys_.n + 1), tails, heads)
        # neither a path-only nor a labelling question builds a network over
        # the whole graph, and each solves afresh: no flow is kept, nor the
        # graph's edge index
        for _ in range(2):
            size, calls = self.builds_and_solves(
                flow.max_linking_size, graph, sys_.available, sys_.targets)
            assert size == len(sys_.targets)
            assert calls == {"build": 0, "solve": 1}
            separator, calls = self.builds_and_solves(
                flow.minimal_left_separator, graph, sys_.available,
                sys_.targets)
            assert len(separator) == size
            assert calls == {"build": 0, "solve": 1}
            assert graph._last_solved is None and graph._index is None

    def test_small_systems_keep_no_network(self):
        rng = random.Random(17)
        systems = [random_system(rng, max_n=30, max_available=8, max_targets=4)
                   for _ in range(40)]
        asked = 0
        while asked < 200:
            for sys_ in systems:
                graph = sys_.state_adjacency()
                question = (flow.max_linking_size, flow.maximum_linking,
                            flow.minimal_left_separator,
                            flow.essential_start_analysis)[asked % 4]
                question(graph, sys_.available, sys_.targets)
                asked += 1
        assert all(s.state_adjacency()._last_solved is None for s in systems)

    def test_pickle_carries_no_graph_or_network(self):
        sys_ = csr_sized_system()
        before = hash(sys_)
        classify_nodes(sys_)
        assert sys_.state_adjacency()._last_solved is not None
        clone = pickle.loads(pickle.dumps(sys_))
        assert "_state_graph" not in clone.__dict__
        assert clone == sys_ and hash(clone) == hash(sys_) == before
        assert classify_nodes(clone) == classify_nodes(sys_)

    def test_two_threads_alternating_sets(self):
        # one thread alternates the separator and the classification on the
        # system's own sets, which keep their flow, while the other
        # alternates checks on two other steering sets, which solve
        # sub-networks and keep theirs only while no flow is kept; the first
        # to ask builds the graph's edge index.  The flow kept at the end is
        # the own sets'.
        sys_ = csr_sized_system()

        def check(steering):
            return lambda s: is_functional_target_controllable(s, steering)

        fresh = csr_sized_system()
        assert_serial_in_threads(
            sys_, fresh, [[own_separator, classify_nodes],
                          [check(sys_.available[2:7]),
                           check(sys_.available[:3])]], 60)
        graph = sys_.state_adjacency()
        assert graph._last_solved[0] == fresh.state_adjacency()._last_solved[0]
