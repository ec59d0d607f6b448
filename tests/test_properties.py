"""Property-based checks of the combinatorial invariants on random graphs."""

import math
import random
from itertools import combinations
from types import SimpleNamespace

import hypothesis.strategies as st
import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from scipy.sparse import csgraph, csr_array
from scipy.sparse.csgraph import breadth_first_order
from scipy.sparse.csgraph import maximum_flow as scipy_maximum_flow

from netctrl import (
    StructuredSystem,
    Unsolvable,
    build_auxiliary_graph,
    build_graph,
    instantiate,
    is_functional_target_controllable,
    max_flow,
    max_linking_size,
    maximum_linking,
    min_cut_source_set,
    minimal_left_separator,
    parse_system,
    preprocess_direct,
    serialize_system,
    solve_mtcp,
    transfer_rank,
)
from netctrl import flow
from netctrl.flow import essential_start_analysis, lexicographic_basis

from .conftest import random_system
from .oracles import (
    bf_classify,
    bf_is_admissible,
    bf_max_linking_size,
    bf_minimum_separators,
    is_separator,
    reachable_from,
    simple_direct_paths,
)


@st.composite
def graph_with_sets(draw, max_n=8):
    n = draw(st.integers(min_value=1, max_value=max_n))
    nodes = list(range(1, n + 1))
    edges = draw(
        st.sets(
            st.tuples(st.sampled_from(nodes), st.sampled_from(nodes)),
            max_size=2 * n,
        )
    )
    available = draw(st.sets(st.sampled_from(nodes), min_size=1, max_size=n))
    targets = draw(st.sets(st.sampled_from(nodes), min_size=1, max_size=min(3, n)))
    adj = {v: tuple(sorted(w for u, w in edges if u == v)) for v in nodes}
    return adj, tuple(sorted(available)), tuple(sorted(targets))


@st.composite
def systems(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    nodes = st.integers(min_value=1, max_value=n)
    edges = draw(st.sets(st.tuples(nodes, nodes), max_size=2 * n))
    available = draw(st.lists(nodes, unique=True, max_size=n))
    targets = draw(st.lists(nodes, unique=True, max_size=n))
    return StructuredSystem(
        n=n, state_edges=tuple(edges), available=tuple(available),
        targets=tuple(targets),
    )


def assert_valid_linking(linking, adj, available, targets):
    """Disjoint, direct paths along real edges from A to T."""
    a_set, t_set = set(available), set(targets)
    seen = set()
    for path in linking.paths:
        assert len(set(path)) == len(path)
        assert path[0] in a_set and path[-1] in t_set
        assert all(v not in a_set for v in path[1:])
        assert all(v not in t_set for v in path[:-1])
        for u, v in zip(path, path[1:]):
            assert v in adj[u]
        assert not (set(path) & seen)
        seen |= set(path)


class TestRoundTrip:
    @given(systems())
    def test_parse_serialize_identity(self, sys_):
        assert parse_system(serialize_system(sys_)) == sys_


class TestLinkingAgainstBruteForce:
    @given(graph_with_sets())
    @settings(max_examples=150, deadline=None)
    def test_max_linking_matches_enumeration(self, case):
        adj, available, targets = case
        assert max_linking_size(adj, available, targets) == bf_max_linking_size(
            adj, set(available), set(targets)
        )

    @given(graph_with_sets())
    @settings(max_examples=100, deadline=None)
    def test_linking_paths_are_valid(self, case):
        adj, available, targets = case
        assert_valid_linking(maximum_linking(adj, available, targets), adj,
                             available, targets)


class TestSeparatorProperties:
    @given(graph_with_sets())
    @settings(max_examples=150, deadline=None)
    def test_duality_with_max_linking(self, case):
        adj, available, targets = case
        sep = minimal_left_separator(adj, available, targets)
        assert len(sep) == max_linking_size(adj, available, targets)

    @given(graph_with_sets())
    @settings(max_examples=150, deadline=None)
    def test_separates_raw_graph(self, case):
        adj, available, targets = case
        sep = minimal_left_separator(adj, available, targets)
        assert is_separator(adj, set(available), set(targets), sep)

    @given(graph_with_sets(max_n=7))
    @settings(max_examples=60, deadline=None)
    def test_no_smaller_separator_exists(self, case):
        adj, available, targets = case
        sep = minimal_left_separator(adj, available, targets)
        if len(sep) == 0:
            return
        assert not bf_minimum_separators(
            adj, set(available), set(targets), len(sep) - 1
        )

    @given(graph_with_sets(max_n=7))
    @settings(max_examples=60, deadline=None)
    def test_leftmost_among_minimum_separators(self, case):
        # every direct path meets the left separator no later than it meets
        # any other minimum separator
        adj, available, targets = case
        sep = minimal_left_separator(adj, available, targets)
        paths = simple_direct_paths(adj, set(available), set(targets))
        for other in bf_minimum_separators(adj, set(available), set(targets), len(sep)):
            for path in paths:
                first_left = next(
                    (k for k, v in enumerate(path) if v in sep), None
                )
                first_other = next(
                    (k for k, v in enumerate(path) if v in other), None
                )
                if first_other is not None:
                    assert first_left is not None
                    assert first_left <= first_other


class TestSelfLoopIndifference:
    @given(graph_with_sets(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_adding_self_loop_changes_nothing(self, case, data):
        adj, available, targets = case
        node = data.draw(st.sampled_from(sorted(adj)))
        looped = {
            u: tuple(sorted(set(succs) | {u})) if u == node else succs
            for u, succs in adj.items()
        }
        assert max_linking_size(adj, available, targets) == max_linking_size(
            looped, available, targets
        )
        assert minimal_left_separator(adj, available, targets) == (
            minimal_left_separator(looped, available, targets)
        )


class TestMonotonicity:
    @given(graph_with_sets(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_enlarging_available_never_decreases(self, case, data):
        adj, available, targets = case
        extra = data.draw(st.sets(st.sampled_from(sorted(adj)), max_size=3))
        enlarged = tuple(sorted(set(available) | extra))
        assert max_linking_size(adj, enlarged, targets) >= max_linking_size(
            adj, available, targets
        )


class TestDeterminism:
    @given(graph_with_sets())
    @settings(max_examples=60, deadline=None)
    def test_identical_inputs_identical_outputs(self, case):
        adj, available, targets = case
        pre = preprocess_direct(adj, available, targets)
        aux1 = build_auxiliary_graph(pre, available, targets)
        aux2 = build_auxiliary_graph(pre, available, targets)
        f1, f2 = max_flow(aux1), max_flow(aux2)
        assert f1 == f2
        assert maximum_linking(adj, available, targets) == maximum_linking(
            adj, available, targets
        )
        assert minimal_left_separator(adj, available, targets) == (
            minimal_left_separator(adj, available, targets)
        )


class TestAgainstNetworkx:
    @given(graph_with_sets())
    @settings(max_examples=100, deadline=None)
    def test_flow_value_matches_networkx(self, case):
        adj, available, targets = case
        pre = preprocess_direct(adj, available, targets)
        aux = build_auxiliary_graph(pre, available, targets)
        g = nx.DiGraph()
        for tail, head, cap in aux.edges():
            g.add_edge(tail if isinstance(tail, str) else tail,
                       head if isinstance(head, str) else head, capacity=cap)
        if "s" not in g or "t" not in g:
            return
        value, _ = nx.maximum_flow(g, "s", "t")
        assert max_flow(aux).value == value


class TestGenericAgreement:
    def test_transfer_rank_equals_max_linking(self):
        rng = random.Random(2024)
        for _ in range(60):
            sys_ = random_system(rng, max_n=12, max_available=6, max_targets=4)
            structural = max_linking_size(
                sys_.state_adjacency(), sys_.available, sys_.targets
            )
            inst = instantiate(sys_, seed=rng.randrange(10**6))
            assert transfer_rank(inst) == structural

    def test_structural_matches_numeric_kalman_rank(self):
        from netctrl import is_structurally_controllable, state_ctrb_rank

        rng = random.Random(77)
        for _ in range(40):
            base = random_system(rng, max_n=10)
            n_inputs = rng.randint(1, 3)
            inputs = tuple(
                tuple(sorted(rng.sample(range(1, base.n + 1),
                                        rng.randint(1, min(2, base.n)))))
                for _ in range(n_inputs)
            )
            sys_ = StructuredSystem(
                n=base.n, state_edges=base.state_edges, explicit_inputs=inputs
            )
            structural = is_structurally_controllable(sys_).controllable
            inst = instantiate(sys_, seed=rng.randrange(10**6))
            assert structural == (state_ctrb_rank(inst) == sys_.n)

    def test_functional_implies_pointwise_on_instances(self):
        from netctrl import pointwise_output_ctrb_rank

        rng = random.Random(31)
        for _ in range(40):
            sys_ = random_system(rng, max_n=10, max_available=5, max_targets=3)
            inst = instantiate(sys_, seed=rng.randrange(10**6))
            p = len(sys_.targets)
            if transfer_rank(inst) == p:
                assert pointwise_output_ctrb_rank(inst) == p


class TestComplexityGrowth:
    def test_no_worse_than_quadratic_in_n(self):
        import time

        def best_runtime(n, seed):
            rng = random.Random(seed)
            edges = set()
            while len(edges) < 3 * n:
                edges.add((rng.randint(1, n), rng.randint(1, n)))
            adj = {v: [] for v in range(1, n + 1)}
            for u, v in edges:
                adj[u].append(v)
            available = tuple(rng.sample(range(1, n + 1), 20))
            targets = tuple(rng.sample(range(1, n + 1), 3))
            best = float("inf")
            for _ in range(3):
                start = time.perf_counter()
                max_linking_size(adj, available, targets)
                best = min(best, time.perf_counter() - start)
            return best

        t_small = best_runtime(4000, seed=5)
        t_large = best_runtime(8000, seed=5)
        # quadratic growth would allow 4x; generous slack for timer noise
        assert t_large <= 8.0 * t_small + 0.05


def both_kernels(op, *args):
    """``op``'s answer from the list kernel and from the CSR kernel,
    each forced by moving the size cutoff that chooses between them; a
    ValueError that ``op`` raises is the answer, and must come before either
    kernel is built.  Spies on each kernel's network, solver and searches
    check that the forced kernel is the one that ran; the flow and the edge
    index kept by a StateGraph, or by a system's state graph, in ``args``
    are dropped before each run, so that the run builds its own."""
    answers = []
    for cutoff, forced, other in ((math.inf, "list", "csr"),
                                  (0, "csr", "list")):
        for arg in args:
            if isinstance(arg, StructuredSystem):
                arg = arg.state_adjacency()
            if isinstance(arg, flow.StateGraph):
                arg._last_solved = arg._index = None
        calls = {"list": 0, "csr": 0}
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(flow, "CSR_MIN_ARCS", cutoff)
            # flow imports scipy's functions when it calls them, so a spy
            # on csgraph's own attributes sees every call
            for kernel, owner, name in (
                    ("list", flow, "_edge_lists"),
                    ("list", flow, "_list_search"),
                    ("csr", flow, "_dinic"), ("csr", flow, "_edge_index"),
                    ("csr", csgraph, "maximum_flow"),
                    ("csr", csgraph, "breadth_first_order")):
                mp.setattr(owner, name,
                           counted(getattr(owner, name), calls, kernel))
            try:
                answer = op(*args)
            except ValueError as exc:
                answer = exc
        if isinstance(answer, ValueError):
            assert calls == {"list": 0, "csr": 0}
        else:
            assert calls[other] == 0 and calls[forced]
        answers.append(answer)
    return answers


def counted(fn, calls, key):
    """``fn``, counting its calls in ``calls[key]``."""
    def spy(*args, **kwargs):
        calls[key] += 1
        return fn(*args, **kwargs)
    return spy


# the reversed view of a flow, held here before any test replaces it with
# a spy
REVERSED = flow._NodeFlow.reversed


def count_networks(mp, calls, n):
    """Count, through the MonkeyPatch ``mp``, the networks built over all
    ``n`` labels of a graph in ``calls["build"]``: the list kernel's edge
    lists, and the CSR kernel's network, which :func:`flow._dinic` lays out
    and solves; and the solves in ``calls["solve"]``: each greedy run on
    edge lists, the list kernel's solve, and each sub-network solve outside
    one, which answers a question without a network over the whole graph.
    The CSR kernel runs Dinic on networks over parts of the graph: one may
    be laid out within a solve, and nowhere else."""
    solving = []
    greedy = flow._greedy

    def counted_greedy(labels, sources, sinks, index):
        calls["solve"] += isinstance(index[0], list)
        return greedy(labels, sources, sinks, index)

    def counted_solve(solve):
        def spy(*args, **kwargs):
            calls["solve"] += not solving
            solving.append(solve)
            try:
                return solve(*args, **kwargs)
            finally:
                solving.pop()
        return spy

    def counted_build(build, size):
        def spy(*args):
            assert size(args) == n or solving
            calls["build"] += size(args) == n
            return build(*args)
        return spy

    mp.setattr(flow, "_edge_lists",
               counted_build(flow._edge_lists, lambda args: args[0]))
    mp.setattr(flow, "_greedy", counted_greedy)
    mp.setattr(flow, "_dinic", counted_build(flow._dinic, lambda args: args[0]))
    mp.setattr(flow, "_sub_solved", counted_solve(flow._sub_solved))


def falls_back(graph, available, targets):
    """Whether the CSR kernel's sub-network for these sets would reach half
    the nodes, so that the whole network is solved instead."""
    labels, sources, sinks, tails, heads = flow._flatten(graph, available,
                                                         targets)
    index = flow._edge_index(len(labels), tails, heads)
    return flow._sub_solved(len(labels), sources, sinks, index) is None


def nx_linking_size(adj, available, targets):
    """Max linking size by networkx on a node-split network built here."""
    a_set, t_set = set(available), set(targets)
    g = nx.DiGraph()
    for v, succs in adj.items():
        g.add_edge((v, 0), (v, 1), capacity=1)
        if v in t_set:
            continue
        for w in succs:
            if w not in a_set:
                g.add_edge((v, 1), (w, 0))  # no capacity: unbounded
    for a in a_set:
        g.add_edge("s", (a, 0))
    for t in t_set:
        g.add_edge((t, 1), "t")
    return nx.maximum_flow_value(g, "s", "t")


class TestKernelsAgree:
    """Both flow kernels give the same value, separator and essential set,
    and both linkings are valid, on int and on tuple labels."""

    @staticmethod
    def check(adj, available, targets, expected_size):
        sizes = both_kernels(max_linking_size, adj, available, targets)
        assert sizes == [expected_size, expected_size]
        py_sep, csr_sep = both_kernels(minimal_left_separator, adj, available,
                                       targets)
        assert py_sep == csr_sep and len(csr_sep) == expected_size
        py_ess, csr_ess = both_kernels(essential_start_analysis, adj,
                                       available, targets)
        assert py_ess == csr_ess
        for linking in both_kernels(maximum_linking, adj, available, targets):
            assert linking.size == expected_size
            assert_valid_linking(linking, adj, available, targets)
        return csr_sep, csr_ess

    def test_small_graphs_against_oracles(self):
        rng = random.Random(11)
        for _ in range(150):
            sys_ = random_system(rng, max_n=10, max_available=10, max_targets=5,
                                 edge_factor=2.0)
            adj, available, targets = (sys_.state_adjacency(), sys_.available,
                                       sys_.targets)
            size = bf_max_linking_size(adj, set(available), set(targets))
            sep, (value, essential, _) = self.check(adj, available, targets, size)
            assert is_separator(adj, set(available), set(targets), sep)
            if value == len(targets):
                labels = bf_classify(adj, available, targets)
                assert essential == {a for a, c in labels.items()
                                     if c == "essential"}

    def test_large_graphs_against_networkx(self):
        rng = random.Random(12)
        for _ in range(5):
            sys_ = random_system(rng, max_n=2000, max_available=200,
                                 max_targets=5, edge_factor=3.0)
            adj, available, targets = (sys_.state_adjacency(), sys_.available,
                                       sys_.targets)
            self.check(adj, available, targets,
                       nx_linking_size(adj, available, targets))

    def test_tuple_labels(self):
        rng = random.Random(13)
        for _ in range(40):
            base = random_system(rng, max_n=40, edge_factor=2.5)
            n = base.n
            sys_ = StructuredSystem(
                n=n, state_edges=base.state_edges,
                explicit_inputs=tuple((rng.randint(1, n),) for _ in range(3)),
                explicit_outputs=tuple((rng.randint(1, n),) for _ in range(2)),
            )
            g = build_graph(sys_)
            adj = g.adjacency()
            inputs = [("u", k) for k in g.input_nodes]
            outputs = [("y", l) for l in g.output_nodes]
            self.check(adj, inputs, outputs, nx_linking_size(adj, inputs, outputs))

    def test_both_search_directions(self, monkeypatch):
        # the CSR kernel starts Dinic at the sink when there are fewer
        # targets than sources and at the source otherwise; both must agree
        # with the list kernel and networkx
        starts = []

        def spy(capacity, source, sink, **kwargs):
            # the sink is numbered after the source
            starts.append("sink" if source > sink else "source")
            return scipy_maximum_flow(capacity, source, sink, **kwargs)

        monkeypatch.setattr(csgraph, "maximum_flow", spy)
        rng = random.Random(15)
        for _ in range(30):
            sys_ = random_system(rng, max_n=300, max_available=30,
                                 max_targets=30, edge_factor=3.0)
            adj, available, targets = (sys_.state_adjacency(), sys_.available,
                                       sys_.targets)
            self.check(adj, available, targets,
                       nx_linking_size(adj, available, targets))
        assert starts.count("sink") >= 10 and starts.count("source") >= 10

    @pytest.mark.parametrize("op", [max_linking_size, minimal_left_separator,
                                    essential_start_analysis])
    # a bool or a float equals an int label, and finds it in a dict, but is
    # not that node
    @pytest.mark.parametrize("available, targets", [
        ([1], [5]), ([5], [1]), ([1], [True]), ([True], [1]), ([1], [2.0]),
        ([1.0], [2])])
    def test_node_not_in_graph(self, op, available, targets):
        node, = (v for v in available + targets if type(v) is not int or v == 5)
        py_exc, csr_exc = both_kernels(op, {1: (), 2: ()}, available, targets)
        for exc in (py_exc, csr_exc):
            assert type(exc) is ValueError
            assert str(exc) == f"node {node!r} not in graph"

    @pytest.mark.parametrize("op", [max_linking_size, maximum_linking,
                                    minimal_left_separator,
                                    essential_start_analysis,
                                    lexicographic_basis])
    @pytest.mark.parametrize("node", [1.5, "x", None, 2**70, 0, 4, True])
    def test_node_not_in_state_graph(self, op, node):
        # a StateGraph on 1..3 has the labels other than a bool that
        # operator.index maps there
        graph = StructuredSystem(n=3, state_edges=((1, 2), (2, 3))).state_adjacency()
        for available, targets in (([node], [3]), ([1], [node])):
            for exc in both_kernels(op, graph, available, targets):
                assert type(exc) is ValueError
                assert str(exc) == f"node {node!r} not in graph"

    @pytest.mark.parametrize("op", [max_linking_size, maximum_linking,
                                    minimal_left_separator,
                                    essential_start_analysis,
                                    lexicographic_basis])
    def test_successor_not_in_graph(self, op):
        for exc in both_kernels(op, {1: (2,), 2: (9,)}, [1], [2]):
            assert type(exc) is ValueError and str(exc) == "node 9 not in graph"

    def test_state_graph_view_against_its_dict(self):
        # _flatten hands a StateGraph's arrays over as they are and reads a
        # dict into such arrays; on the CSR kernel both must give the same
        # answers
        rng = random.Random(14)
        checked = 0
        while checked < 5:
            sys_ = random_system(rng, max_n=2000, max_available=200,
                                 max_targets=5, edge_factor=3.0)
            view = sys_.state_adjacency()
            if sys_.n + len(sys_.state_edges) < flow.CSR_MIN_ARCS:
                continue
            checked += 1
            plain = dict(view)
            for op in (max_linking_size, minimal_left_separator,
                       essential_start_analysis, maximum_linking):
                assert op(view, sys_.available, sys_.targets) == op(
                    plain, sys_.available, sys_.targets)


@st.composite
def trimming_cases(draw):
    """graph_with_sets with a node both available and targeted, an edge into
    an available node and an edge out of a target: the cases in which the
    flow paths of the high-level network must be trimmed."""
    adj, available, targets = draw(graph_with_sets())
    nodes = sorted(adj)
    shared = draw(st.sampled_from(nodes))
    available = tuple(sorted(set(available) | {shared}))
    targets = tuple(sorted(set(targets) | {shared}))
    succ = {v: set(w) for v, w in adj.items()}
    succ[draw(st.sampled_from(nodes))].add(draw(st.sampled_from(available)))
    succ[draw(st.sampled_from(targets))].add(draw(st.sampled_from(nodes)))
    return {v: tuple(sorted(w)) for v, w in succ.items()}, available, targets


class TestOneNetwork:
    """Each high-level operation builds one network and solves it once on
    either kernel, and answers as the linking network of the lower-level
    functions does."""

    @staticmethod
    def builds_and_solves(op):
        """``op``, returning instead of its answer how often it read the
        graph, built a network over the whole graph, solved (see
        ``count_networks``), ran Dinic and preprocessed a graph."""
        def run(graph, *args):
            calls = {"read": 0, "build": 0, "solve": 0, "preprocess": 0}
            with pytest.MonkeyPatch.context() as mp:
                count_networks(mp, calls, len(graph))
                for key, name in (("read", "_flatten"),
                                  ("preprocess", "preprocess_direct")):
                    mp.setattr(flow, name, counted(getattr(flow, name), calls, key))
                runs, _ = dinic_runs(mp)
                op(graph, *args)
            calls["dinic"] = len(runs)
            return calls
        return run

    @pytest.mark.parametrize("op", [max_linking_size, maximum_linking,
                                    minimal_left_separator,
                                    essential_start_analysis])
    def test_one_build_and_one_solve_per_call(self, op, steering_system):
        # every question reads the CSR kernel's sub-network and builds the
        # whole network only when that would reach half the graph.  The
        # funnels are CSR-sized and regrow their sub-network: more than one
        # Dinic run is still one solve.
        rng = random.Random(16)
        cases = [(steering_system.state_adjacency(), (1, 2, 3, 4), (8, 9)),
                 ({1: (), 2: ()}, (1,), (2,)), ({1: ()}, (1,), (1,)),
                 funnel(False), funnel(True)]
        for _ in range(10):
            sys_ = random_system(rng, max_n=12, max_available=6, max_targets=4)
            cases.append((sys_.state_adjacency(), sys_.available, sys_.targets))
        builds = set()
        for case in cases:
            py, csr = both_kernels(self.builds_and_solves(op), *case)
            assert py == {"read": 1, "build": 1, "solve": 1, "preprocess": 0,
                          "dinic": 0}
            build = int(falls_back(*case))
            builds.add(build)
            assert csr == {"read": 1, "build": build, "solve": 1,
                           "preprocess": 0, "dinic": csr["dinic"]}
            assert csr["dinic"] >= 1 + (len(case[0]) > 1000)
        assert builds == {0, 1}

    @given(trimming_cases())
    @settings(max_examples=100, deadline=None)
    def test_separator_of_the_linking_network(self, case):
        adj, available, targets = case
        aux = build_auxiliary_graph(preprocess_direct(adj, available, targets),
                                    available, targets)
        labelled = min_cut_source_set(aux, max_flow(aux))
        expected = frozenset(v for v in adj if (v, "-") in labelled
                             and (v, "+") not in labelled)
        assert both_kernels(minimal_left_separator, *case) == [expected] * 2

    @given(trimming_cases())
    @settings(max_examples=100, deadline=None)
    def test_trimmed_linking_is_maximum(self, case):
        adj, available, targets = case
        size = bf_max_linking_size(adj, set(available), set(targets))
        for linking in both_kernels(maximum_linking, *case):
            assert linking.size == size
            assert_valid_linking(linking, adj, available, targets)
            starts = linking.start_nodes()
            assert list(starts) == sorted(starts)


def residual_of(n, tails, heads, sources, sinks, paths, open_sources=False,
                fed=True, drained=False):
    """The split network over the positions 0..n-1 with the edges
    ``tails[k] -> heads[k]``, and the residual graph of a unit flow along
    each of ``paths`` (lists of positions), both built here by scipy from
    (row, column) pairs.  2k and 2k+1 are node k's halves, joined by an arc
    of capacity 1; 2n is s, with an arc of capacity 1 (or ``big`` if
    ``open_sources``) to each of ``sources``, and 2n+1 is t, with one of
    capacity ``big`` from each of ``sinks``; edge arcs have ``big``, more
    than any flow.  Each unit leaves s if ``fed`` and enters t if
    ``drained``."""
    s, t = 2 * n, 2 * n + 1
    big = len(sources) + len(sinks) + 1
    tails, heads = np.asarray(tails, dtype=np.int64), np.asarray(heads, dtype=np.int64)
    sources, sinks = np.asarray(sources, dtype=np.int64), np.asarray(sinks, dtype=np.int64)
    arcs = ((2 * np.arange(n), 2 * np.arange(n) + 1, 1),
            (2 * tails + 1, 2 * heads, big),
            (np.full(len(sources), s), 2 * sources, big if open_sources else 1),
            (2 * sinks + 1, np.full(len(sinks), t), big))
    rows, cols, caps = (np.concatenate(column) for column in zip(
        *((r, c, np.full(len(r), cap)) for r, c, cap in arcs)))
    capacity = csr_array((caps, (rows, cols)), shape=(t + 1, t + 1))
    units = []
    for path in paths:
        halves = ([s] if fed else []) + [h for v in path
                                         for h in (2 * v, 2 * v + 1)]
        units += zip(halves, halves[1:] + ([t] if drained else []))
    units = np.array(units, dtype=np.int64).reshape(-1, 2)
    on = csr_array((np.ones(len(units)), (units[:, 0], units[:, 1])),
                   shape=capacity.shape)
    return capacity, positive(capacity - on + on.T)


def positive(matrix):
    """The pattern of the positive entries of a sparse matrix, as unit
    arcs."""
    matrix = csr_array(matrix)
    matrix.data = (matrix.data > 0).astype(float)
    matrix.eliminate_zeros()
    return matrix


def searched(graph, start):
    """Mask of the nodes of ``graph`` that scipy's search from ``start``
    reaches."""
    mask = np.zeros(graph.shape[0], dtype=bool)
    mask[breadth_first_order(graph, start, return_predecessors=False)] = True
    return mask


def whole_network(graph, available, targets):
    """The reference for the CSR kernel's answers: scipy's Dinic, called
    here, on the split network over all of ``graph`` (see ``residual_of``,
    source arcs of capacity 1), and searches over its residual graph, built
    here from the capacity and the flow.  Holds the flow ``value``, the
    ``essential`` set, the ``separator`` and the nodes ``reaching`` T."""
    labels, sources, sinks, tails, heads = flow._flatten(graph, available,
                                                         targets)
    n = len(labels)
    capacity, _ = residual_of(n, tails, heads, sources, sinks, [])
    result = scipy_maximum_flow(capacity.astype(np.int32), 2 * n, 2 * n + 1,
                                method="dinic")
    residual = positive(capacity - result.flow)
    opened = residual + csr_array(
        (np.ones(len(sources)), (np.full(len(sources), 2 * n), 2 * sources)),
        shape=capacity.shape)
    labelled, open_labelled = searched(residual, 2 * n), searched(opened, 2 * n)
    reach = searched(csr_array(capacity.T), 2 * n + 1)
    return SimpleNamespace(
        value=int(result.flow_value),
        essential=frozenset(labels[k] for k in sources.tolist()
                            if not labelled[2 * k]),
        separator=frozenset(labels[k] for k in range(n)
                            if open_labelled[2 * k]
                            and not open_labelled[2 * k + 1]),
        reaching=frozenset(labels[k] for k in range(n) if reach[2 * k]))


def paths_of(solved):
    """A _NodeFlow's paths, each as a list of positions, on either form."""
    return [np.asarray(walk, dtype=np.int64).tolist()
            for walk in solved.walks]


def edges_of(solved):
    """The edges of a _NodeFlow's digraph, as (tails, heads), from the
    successor rows of its index, on either form."""
    if solved.listed:
        succ, _ = solved.index
        return ([u for u, row in enumerate(succ) for _ in row],
                [v for row in succ for v in row])
    (indptr, indices), _ = solved.index
    return np.repeat(np.arange(len(indptr) - 1), np.diff(indptr)), indices


def assert_labelled(solved, open_sources):
    """A _NodeFlow's search of its node graph against scipy's search from s
    over the residual graph of its flow on its own split network, built by
    ``residual_of`` with no t: each label's halves are reached exactly when
    its node graph nodes are, and every predecessor step is a residual arc.
    The node graph's own node of a label is its first half; a path node's
    extra node is its second half, and a label off the paths is one node
    for both.  Either form of the flow is read as arrays.  Returns the mask
    of the halves reached."""
    n, on = len(solved.labels), np.asarray(solved.on, dtype=np.int64)
    _, residual = residual_of(n, *edges_of(solved), solved.sources, [],
                              paths_of(solved), open_sources)
    reached = searched(residual, 2 * n)
    pred = np.asarray(solved._labelled(open_sources))
    root = n + len(on)
    assert len(pred) == root + 1
    second = np.arange(n)
    for j, v in enumerate(on.tolist()):
        second[v] = n + j
    mask = pred >= 0
    mask[root] = True
    np.testing.assert_array_equal(reached[0:2 * n:2], mask[:n])
    np.testing.assert_array_equal(reached[1:2 * n:2], mask[second])
    # each predecessor step is a residual arc: out of the half that the
    # node's row leaves (a path node's own row its first half, any other
    # row a second half, s's s) into the half that the node stands for
    leaves = 2 * np.arange(n) + 1
    leaves[on] -= 1
    leaves = np.concatenate([leaves, 2 * on + 1, [2 * n]])
    enters = np.concatenate([2 * np.arange(n), 2 * on + 1])
    reached_nodes = np.flatnonzero(pred >= 0)
    if len(reached_nodes):
        assert np.all(residual[leaves[pred[reached_nodes]],
                               enters[reached_nodes]] > 0)
    return reached


def assert_backward_search(solved):
    """The search of a _NodeFlow's reversed view, with every sink arc open,
    against scipy's search from t over the residual graph of its flow,
    reversed, on the network over the graph with no flow on a source arc:
    each label's entry half reaches t exactly when the view's search
    reaches its second half, and its exit half when its own node.  The view
    is checked on its own network by ``assert_labelled`` too."""
    n = len(solved.labels)
    _, residual = residual_of(n, *edges_of(solved), solved.sources,
                              solved.sinks, paths_of(solved), fed=False,
                              drained=True)
    reaching = searched(csr_array(residual.T), 2 * n + 1)
    view = REVERSED(solved)
    assert paths_of(view) == [walk[::-1] for walk in paths_of(solved)]
    reached = assert_labelled(view, open_sources=True)
    np.testing.assert_array_equal(reaching[0:2 * n:2], reached[1:2 * n:2])
    np.testing.assert_array_equal(reaching[1:2 * n:2], reached[0:2 * n:2])
    return reaching


def solved_csr_networks(seed, count):
    """Random systems, each with the flow that the CSR kernel finds and
    keeps (the caller forces the kernel with ``CSR_MIN_ARCS = 0``): Dinic
    runs from the sink (|T| < |A|) on even draws and from the source on odd
    ones.  Self-loops and nodes both available and targeted come up among
    them."""
    rng = random.Random(seed)
    for k in range(count):
        while True:
            sys_ = random_system(rng, max_n=25, max_available=10,
                                 max_targets=10, edge_factor=2.5)
            if (len(sys_.targets) < len(sys_.available)) == (k % 2 == 0):
                break
        graph = sys_.state_adjacency()
        solved = flow._solved(graph, flow._flatten(graph, sys_.available,
                                                   sys_.targets))
        assert isinstance(solved, flow._NodeFlow)
        yield sys_, solved


def nx_labelled(adj, available, targets, open_sources):
    """The nodes that the search from s reaches in the residual graph of a
    maximum flow on the high-level network over ``adj``, with every source
    arc open or of capacity 1: the sink side of networkx's minimum cut of
    the network reversed, which holds the nodes that reach its sink s."""
    g = nx.DiGraph()
    g.add_nodes_from(["s", "t"])
    for v, succs in adj.items():
        g.add_edge((v, 1), (v, 0), capacity=1)
        for w in succs:
            g.add_edge((w, 0), (v, 1))  # no capacity: unbounded
    for a in available:
        g.add_edge((a, 0), "s", **({} if open_sources else {"capacity": 1}))
    for t in targets:
        g.add_edge("t", (t, 1))
    return nx.minimum_cut(g, "t", "s")[1][1]


def bf_left_separator(adj, available, targets):
    """The minimum separator closest to the available set, by enumeration:
    the one that leaves the fewest nodes reachable from the available set,
    each of which every other leaves reachable too."""
    def left_of(sep):
        return reachable_from({v: [w for w in adj[v] if w not in sep]
                               for v in adj}, set(available) - sep) - sep
    size = bf_max_linking_size(adj, set(available), set(targets))
    seps = bf_minimum_separators(adj, set(available), set(targets), size)
    best = min(seps, key=lambda sep: len(left_of(sep)))
    assert all(left_of(best) | best <= left_of(sep) | sep for sep in seps)
    return best


class TestListKernel:
    """The list kernel's flow, the greedy's over every source on Python
    lists, against enumeration, the CSR kernel and scipy's searches over
    the residual graph of the same flow, built here."""

    def test_separator_reads_the_closed_search(self):
        # the separator, read off the one search with the paths' source
        # arcs closed plus the paths' first entry halves, against a fresh
        # search from s with every source arc open, on graphs with
        # self-loops and nodes both available and targeted
        rng = random.Random(52)
        seen = {"nonempty": 0, "first_unlabelled": 0}
        for _ in range(600):
            sys_ = random_system(rng, max_n=29, max_available=10,
                                 max_targets=6, edge_factor=2.0)
            graph = sys_.state_adjacency()
            net = flow._solved(graph, flow._flatten(graph, sys_.available,
                                                    sys_.targets))
            assert net.listed
            n = len(net.labels)
            _, residual = residual_of(n, *edges_of(net), net.sources, [],
                                      paths_of(net), open_sources=True)
            reached = searched(residual, 2 * n)
            expected = frozenset(lab for k, lab in enumerate(net.labels)
                                 if reached[2 * k] and not reached[2 * k + 1])
            assert net.separator() == expected
            seen["nonempty"] += bool(expected)
            closed = net._labelled(open_sources=False)
            seen["first_unlabelled"] += any(closed[walk[0]] < 0
                                            for walk in net.walks)
        assert min(seen.values()) >= 50, seen

    def test_small_graphs_against_oracles_and_the_csr_kernel(self):
        # on 1000 graphs with n <= 10 and self-loops: the value, the
        # essential set, the nodes reaching T, the separator and the
        # lexicographic basis on both kernels against enumeration; the list
        # kernel's labellings and backward search against scipy's.  Plain
        # solve and the lexicographic solve read one flow, trimmed to direct
        # paths and to the basis: their steering sets are equal when the
        # lexicographic linking is direct.  1 -> 2 -> 3 with A = {1, 2} and
        # T = {3} is not: the basis is {1}, and plain solve's set {2}.
        rng = random.Random(53)
        seen = {"self_loop": 0, "solvable": 0, "unsolvable": 0,
                "same_steering": 0, "other_steering": 0}
        for _ in range(1000):
            n = rng.randint(1, 10)
            edges = {(rng.randint(1, n), rng.randint(1, n))
                     for _ in range(rng.randint(0, 2 * n))}
            edges |= {(v, v) for v in rng.sample(range(1, n + 1),
                                                 rng.randint(0, n))}
            sys_ = StructuredSystem(
                n=n, state_edges=tuple(sorted(edges)),
                available=tuple(rng.sample(range(1, n + 1),
                                           rng.randint(1, n))),
                targets=tuple(rng.sample(range(1, n + 1),
                                         rng.randint(1, min(4, n)))))
            adj, available, targets = (sys_.state_adjacency(), sys_.available,
                                       sys_.targets)
            a_set, t_set = set(available), set(targets)
            seen["self_loop"] += any(u == v for u, v in edges)
            size = bf_max_linking_size(adj, a_set, t_set)
            essential = frozenset(
                a for a in available
                if bf_max_linking_size(adj, a_set - {a}, t_set) < size)
            reverse = {v: [u for u in adj if v in adj[u]] for v in adj}
            assert both_kernels(essential_start_analysis, adj, available,
                                targets) == [
                (size, essential, frozenset(reachable_from(reverse, targets)))
            ] * 2
            assert both_kernels(minimal_left_separator, adj, available,
                                targets) == [
                bf_left_separator(adj, available, targets)] * 2
            basis = first_basis(adj, available, targets)
            assert TestLexicographicBasis.check(adj, available,
                                                targets) == basis
            net = flow._solved(adj, flow._flatten(adj, available, targets))
            assert net.listed and net.value == size
            for open_sources in (False, True):
                assert_labelled(net, open_sources)
            assert not assert_backward_search(net)[2 * n]
            plain, lexi = solve_mtcp(sys_), solve_mtcp(sys_, True)
            if isinstance(plain, Unsolvable):
                seen["unsolvable"] += 1
                assert lexi == plain
                continue
            seen["solvable"] += 1
            assert lexi.steering == basis
            # both linkings are the list kernel's flow, trimmed
            paths = net.paths()
            assert lexi.witness == flow._trimmed(paths, set(basis), t_set)
            assert plain.witness == flow._trimmed(paths, a_set, t_set)
            if all(v not in a_set for path in lexi.witness.paths
                   for v in path[1:]):
                assert plain.steering == basis
            seen["same_steering" if plain.steering == basis
                 else "other_steering"] += 1
        assert min(seen.values()) >= 20, seen


class TestNodeGraphLabellings:
    """The CSR kernel's labellings on the node graph against the Python
    kernel's, enumeration and networkx, on graphs with self-loops on the
    flow's paths: a self-loop u -> u is an arc from u's exit half to its
    entry half, beside the reversed split arc of a path node."""

    @staticmethod
    def check(adj, available, targets):
        """Both kernels' labellings, each against the references; the
        nodes of the CSR kernel's flow paths."""
        analyses = both_kernels(essential_start_analysis, adj, available,
                                targets)
        separators = both_kernels(minimal_left_separator, adj, available,
                                  targets)
        size = bf_max_linking_size(adj, set(available), set(targets))
        essential = frozenset(
            a for a in available
            if bf_max_linking_size(adj, set(available) - {a}, set(targets))
            < size)
        reverse = {v: [u for u in adj if v in adj[u]] for v in adj}
        labelled = nx_labelled(adj, available, targets, open_sources=False)
        assert essential == {a for a in available if (a, 0) not in labelled}
        separator = bf_left_separator(adj, available, targets)
        labelled = nx_labelled(adj, available, targets, open_sources=True)
        assert separator == {v for v in adj if (v, 0) in labelled
                             and (v, 1) not in labelled}
        for answer in analyses:
            assert answer == (size, essential,
                              frozenset(reachable_from(reverse, targets)))
        assert separators == [separator] * 2
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(flow, "CSR_MIN_ARCS", 0)
            solved = flow._solved(adj, flow._flatten(adj, available, targets))
        assert isinstance(solved, flow._NodeFlow)
        return set(flow._labels_at(sorted(adj), solved.on))

    def test_self_loops_on_flow_paths(self):
        rng = random.Random(51)
        looped = 0
        for _ in range(150):
            n = rng.randint(2, 9)
            edges = {(rng.randint(1, n), rng.randint(1, n))
                     for _ in range(rng.randint(n, 2 * n))}
            loops = set(rng.sample(range(1, n + 1), rng.randint(1, n)))
            edges |= {(v, v) for v in loops}
            adj = {v: tuple(sorted(w for u, w in edges if u == v))
                   for v in range(1, n + 1)}
            available = rng.sample(range(1, n + 1), rng.randint(1, n))
            targets = rng.sample(range(1, n + 1), rng.randint(1, min(3, n)))
            looped += bool(self.check(adj, available, targets) & loops)
        assert looped >= 20, looped

    def test_the_only_path_through_a_self_loop(self):
        # 1 -> 2 -> 3 and 4 -> 2 -> 3 are the A-T paths, and 2 has a
        # self-loop: 2's entry half is labelled over the edge arcs into it,
        # and its exit half is not, though the self-loop's arc joins them
        adj = {1: (2,), 2: (2, 3), 3: (), 4: (2,), 5: (4,)}
        assert self.check(adj, (1, 4), (3,)) >= {2}
        for value, essential, reaching in both_kernels(
                essential_start_analysis, adj, (1, 4), (3,)):
            assert (value, essential, reaching) == (1, frozenset(),
                                                    frozenset({1, 2, 3, 4, 5}))
        assert both_kernels(minimal_left_separator, adj, (1, 4), (3,)) == [
            frozenset({2})] * 2
        # with 1 alone available, 1 is essential and the separator itself
        assert self.check(adj, (1,), (3,)) >= {1, 2}
        assert both_kernels(minimal_left_separator, adj, (1,), (3,)) == [
            frozenset({1})] * 2


class TestSolvedCsrNetwork:
    """The CSR kernel's flow, Dinic's paths kept as their nodes, in both
    directions: paths that networkx confirms maximum, and searches of the
    node graph that agree with scipy's over the residual graph."""

    def test_flow_layout(self, monkeypatch):
        monkeypatch.setattr(flow, "CSR_MIN_ARCS", 0)
        for sys_, solved in solved_csr_networks(31, 120):
            adj = sys_.state_adjacency()
            assert solved.value == nx_linking_size(adj, sys_.available,
                                                   sys_.targets)
            paths = solved.paths()
            assert len(paths) == solved.value == len(solved.firsts)
            nodes = [v for path in paths for v in path]
            assert len(nodes) == len(set(nodes)) == len(solved.on)
            edges = set(sys_.state_edges)
            for path in paths:
                assert path[0] in sys_.available and path[-1] in sys_.targets
                assert all(edge in edges for edge in zip(path, path[1:]))
            # Dinic on the whole network, laid out and solved alone
            labels, sources, sinks, tails, heads = flow._flatten(
                adj, sys_.available, sys_.targets)
            whole = flow._dinic(len(labels), sources, sinks, tails, heads)
            assert len(whole) == solved.value

    def test_residual_searches(self, monkeypatch):
        monkeypatch.setattr(flow, "CSR_MIN_ARCS", 0)
        seen = {"self_loop": 0, "shared": 0}
        for sys_, solved in solved_csr_networks(32, 120):
            seen["self_loop"] += any(u == v for u, v in sys_.state_edges)
            seen["shared"] += bool(set(sys_.available) & set(sys_.targets))
            assert_residual_searches(solved, sys_.state_adjacency(),
                                     sys_.available, sys_.targets)
        assert seen["self_loop"] >= 20 and seen["shared"] >= 20

    def test_one_search_serves_both_labellings(self, monkeypatch):
        # on the residual graphs built here, the search from s with every
        # source arc open reaches what the one with the paths' source arcs
        # closed reaches, plus the paths' first entry halves, whose one
        # residual arc leads back to s: on the flow and on its reversed
        # view.  The node graph's labellings, both read off one search,
        # agree with these references, and the search is kept read-only.
        monkeypatch.setattr(flow, "CSR_MIN_ARCS", 0)
        seen = {"self_loop": 0, "from_sink": 0, "from_source": 0,
                "first_unlabelled": 0, "first_labelled": 0}
        for sys_, solved in solved_csr_networks(35, 120):
            seen["self_loop"] += any(u == v for u, v in sys_.state_edges)
            seen["from_sink" if len(sys_.targets) < len(sys_.available)
                 else "from_source"] += 1
            for view in (solved, REVERSED(solved)):
                n = len(view.labels)
                closed, opened = (
                    searched(residual_of(n, *edges_of(view), view.sources, [],
                                         paths_of(view), open_sources)[1], 2 * n)
                    for open_sources in (False, True))
                firsts = 2 * view.on[view.firsts]
                added = np.zeros_like(opened)
                added[firsts] = True
                np.testing.assert_array_equal(opened, closed | added)
                seen["first_unlabelled"] += int(np.count_nonzero(~closed[firsts]))
                seen["first_labelled"] += int(np.count_nonzero(closed[firsts]))
                for open_sources in (False, True):
                    assert_labelled(view, open_sources)
                assert not view._closed.flags.writeable
        assert min(seen.values()) >= 20, seen

    def test_searches_past_int32_pair_keys(self, monkeypatch):
        # 30 000 nodes make 60 002 half nodes, and the pair (u, v) of them
        # read as u * 60 002 + v passes 2**31 from u = 35 791 on: the
        # labellings and the greedy's searches must not depend on it
        rng = np.random.default_rng(34)
        n = 30_000
        succ = [set() for _ in range(n)]
        for u, v in zip(*rng.integers(0, n, (2, 3 * n)).tolist()):
            succ[u].add(v)
        adj = {v: tuple(sorted(heads)) for v, heads in enumerate(succ)}
        searches = checked_backward_searches(monkeypatch)
        # Dinic from the sink (|T| < |A|), then from the source
        for n_targets in (6, 200):
            nodes = rng.choice(n, 150 + n_targets, replace=False)
            available = tuple(sorted(nodes[:150].tolist()))
            targets = tuple(sorted(nodes[150:].tolist()))
            solved = flow._solved(adj, flow._flatten(adj, available, targets))
            assert isinstance(solved, flow._NodeFlow)
            assert_residual_searches(solved, adj, available, targets)
            basis, linking = lexicographic_basis(adj, available, targets)
            assert len(basis) == solved.value
            assert_valid_linking(linking, adj, available, targets)
            assert linking.size == solved.value
        assert len(searches) >= 2 * 6


def assert_residual_searches(solved, graph, available, targets):
    """A CSR flow's labellings on the node graph against the reference
    network's (``whole_network``), and its searches, forward and on the
    reversed view, against scipy's over its residual graph."""
    ref = whole_network(graph, available, targets)
    assert solved.value == ref.value
    assert solved.essential() == ref.essential
    assert solved.separator() == ref.separator
    nodes = np.arange(len(solved.labels))
    assert frozenset(solved.reaches_target(nodes)) == ref.reaching
    for open_sources in (False, True):
        assert_labelled(solved, open_sources)
    # a maximum flow leaves no residual path from s to t
    assert not assert_backward_search(solved)[2 * len(solved.labels)]


def checked_backward_searches(monkeypatch):
    """A list that records, for each backward search of the CSR greedy (and
    of a sub-network's cut rule), the flow it searched, after checking the
    search with ``assert_backward_search``."""
    searches = []

    def checked(solved):
        searches.append(solved)
        assert_backward_search(solved)
        return REVERSED(solved)

    monkeypatch.setattr(flow._NodeFlow, "reversed", checked)
    return searches


def first_basis(adj, available, targets):
    """The first subset of the available set, in lexicographic order, with
    as many nodes as the largest linking has paths and linked by one."""
    rank = bf_max_linking_size(adj, set(available), set(targets))
    return next(combo for combo in combinations(sorted(available), rank)
                if bf_max_linking_size(adj, set(combo), set(targets)) == rank)


class TestLexicographicBasis:
    """The matroid greedy of the lexicographic solve, on both kernels,
    against brute-force enumeration."""

    @staticmethod
    def check(adj, available, targets):
        """Both kernels' basis, after checking each one's linking: one that
        starts at exactly the nodes of the basis if it covers every target,
        and otherwise the one of ``maximum_linking``."""
        answers = both_kernels(lexicographic_basis, adj, available, targets)
        plain = both_kernels(flow.maximum_linking, adj, available, targets)
        for (basis, linking), maximum in zip(answers, plain):
            assert list(basis) == sorted(basis)
            if len(basis) < len(set(targets)):
                assert linking == maximum
                continue
            assert linking.start_nodes() == basis
            assert_valid_linking(linking, adj, basis, targets)
        assert answers[0][0] == answers[1][0]
        return answers[0][0]

    def test_first_admissible_subset_on_random_systems(self):
        rng = random.Random(17)
        solvable = 0
        for _ in range(150):
            sys_ = random_system(rng, max_n=9, max_available=7, max_targets=4,
                                 edge_factor=2.0)
            adj, available, targets = (sys_.state_adjacency(), sys_.available,
                                       sys_.targets)
            basis = self.check(adj, available, targets)
            assert basis == first_basis(adj, available, targets)
            if len(basis) == len(targets):
                solvable += 1
                assert basis == next(
                    combo for combo in combinations(sorted(available),
                                                    len(targets))
                    if bf_is_admissible(adj, combo, targets))
        assert solvable >= 30

    @given(trimming_cases())
    @settings(max_examples=100, deadline=None)
    def test_shared_nodes_and_edges_into_available(self, case):
        adj, available, targets = case
        assert self.check(adj, available, targets) == first_basis(*case)

    def test_rerouting(self):
        # 1's shortest path runs through 2; taking 2 reroutes it over 3 and 6
        adj = {1: (2, 3), 2: (4,), 3: (6,), 4: (), 5: (), 6: (5,)}
        for basis, linking in both_kernels(lexicographic_basis, adj, (1, 2),
                                           (4, 5)):
            assert basis == (1, 2)
            assert linking.paths == ((1, 3, 6, 5), (2, 4))

    def test_rerouting_through_a_shared_node(self):
        # 2 is available and a target and ends 1's shortest path
        adj = {1: (2, 3), 2: (), 3: (5,), 4: (), 5: ()}
        for basis, linking in both_kernels(lexicographic_basis, adj, (1, 2),
                                           (2, 5)):
            assert basis == (1, 2)
            assert linking.paths == ((1, 3, 5), (2,))

    def test_backward_search_sees_the_residual_matrix(self, monkeypatch):
        # every backward search of the CSR greedy, a search of the reversed
        # view of its flow, reaches the halves that scipy's search over the
        # residual graph reaches, along residual arcs
        searches = checked_backward_searches(monkeypatch)
        monkeypatch.setattr(flow, "CSR_MIN_ARCS", 0)
        rng = random.Random(18)
        for _ in range(60):
            sys_ = random_system(rng, max_n=30, max_available=12,
                                 max_targets=6, edge_factor=3.0)
            lexicographic_basis(sys_.state_adjacency(), sys_.available,
                                sys_.targets)
        assert len(searches) >= 100

    def test_backward_search_on_a_hand_built_flow(self):
        # one unit runs 5, 1, 3 to the target 3.  Searching back from t, 4
        # reaches t over 2 or over 3's entry half.  2 is on no path, so it
        # is one node of the node graph, and the way over it (4+ -> 2-, 2+
        # -> 1-) is a step shorter than over 3's halves (4+ -> 3-, 3- ->
        # 1+, 1+ -> 1-): 4 is reached from 2.
        adj = {1: (3,), 2: (1,), 3: (), 4: (2, 3), 5: (1, 6), 6: ()}
        labels, sources, sinks, tails, heads = flow._flatten(adj, (5,), (3, 6))
        solved = flow._NodeFlow(labels, sources, sinks,
                                flow._edge_index(6, tails, heads), [[4, 0, 2]])
        reaching = assert_backward_search(solved)
        # every half but 5's entry half, and s, reaches t
        assert np.flatnonzero(~reaching).tolist() == [8, 12]
        view = solved.reversed()
        # the view's nodes: 0-5 per label, 6-8 the entry halves of 3, 1, 5
        assert view.on.tolist() == [2, 0, 4]
        assert view._labelled(True).tolist() == [7, 7, 9, 1, 5, 9, 0, 4,
                                                 -9999, -9999]

    def test_greedy_with_self_loops_on_the_paths(self, monkeypatch):
        # both kernels' bases against enumeration on graphs where many
        # nodes have self-loops: the CSR greedy's steps walk self-looped
        # path nodes, whose halves have arcs both ways, and take candidates
        # that are inner nodes or ends of earlier paths.  Each graph has a
        # detour 1 -> x -> y -> t2 beside 1 -> 2 -> t1, so 1's first path
        # often runs through the candidate 2, which then reroutes it.
        searches = checked_backward_searches(monkeypatch)
        rng = random.Random(19)
        seen = {"looped": 0, "inner": 0, "end": 0, "solvable": 0}
        for _ in range(250):
            n = rng.randint(6, 12)
            x, y, t1, t2 = rng.sample(range(3, n + 1), 4)
            edges = {(rng.randint(1, n), rng.randint(1, n))
                     for _ in range(rng.randint(0, n))}
            edges |= {(1, 2), (2, t1), (1, x), (x, y), (y, t2)}
            loops = set(rng.sample(range(1, n + 1), rng.randint(1, n)))
            edges |= {(v, v) for v in loops}
            adj = {v: tuple(sorted(w for u, w in edges if u == v))
                   for v in range(1, n + 1)}
            available = sorted({1, 2} | set(rng.sample(range(1, n + 1),
                                                       rng.randint(0, n))))
            targets = sorted({t1, t2} | set(rng.sample(range(1, n + 1),
                                                       rng.randint(0, 2))))
            searches.clear()
            basis = self.check(adj, available, targets)
            assert basis == first_basis(adj, available, targets)
            if len(basis) == len(targets):
                seen["solvable"] += 1
                assert bf_is_admissible(adj, basis, targets)
            # the CSR greedy's searches, on the whole graph, and the
            # candidate that each push took, on the flow before it; the list
            # greedy's searches are checked by the spy alone
            steps = [flow_ for flow_ in searches
                     if len(flow_.labels) == n and not flow_.listed]
            for before, after in zip(steps, steps[1:]):
                taken, = set(after.on[after.firsts].tolist()) - set(
                    before.on[before.firsts].tolist())
                if taken in before.on:
                    last = np.append(before.firsts[1:], len(before.on)) - 1
                    seen["end" if taken in before.on[last] else "inner"] += 1
            seen["looped"] += sum(bool(loops & {v + 1 for v in step.on.tolist()})
                                  for step in steps)
        assert seen["looped"] >= 100 and min(seen.values()) >= 20, seen

    def test_basis_is_gale_below_the_plain_steering_set(self):
        # on 3000-node graphs the lexicographic basis is, node by node in
        # ascending order, never above plain solve's steering set
        rng = random.Random(20)
        checked = 0
        for _ in range(5):
            n = 3000
            edges = {(rng.randint(1, n), rng.randint(1, n))
                     for _ in range(3 * n)}
            sys_ = StructuredSystem(
                n=n, state_edges=tuple(edges),
                available=tuple(rng.sample(range(1, n + 1), 60)),
                targets=tuple(rng.sample(range(1, n + 1), 8)))
            lexi = solve_mtcp(sys_, prefer_small_index=True)
            plain = solve_mtcp(sys_)
            if isinstance(plain, Unsolvable):
                assert lexi == plain
                continue
            assert all(a <= b for a, b in zip(sorted(lexi.steering),
                                                sorted(plain.steering)))
            adj = sys_.state_adjacency()
            assert_valid_linking(lexi.witness, adj, lexi.steering,
                                 sys_.targets)
            assert lexi.witness.size == len(sys_.targets)
            checked += 1
        assert checked >= 3

    def test_rerouting_around_a_self_loop(self):
        # 1's shortest path runs 8, 17, 7; taking 2 frees 7 by sending 1 back
        # through 17's halves and on over 9-11, and 3 then needs 17 itself.
        # With the self-loop on 17 its halves have arcs both ways, so the
        # step back into 17's entry half and the later step out of it have
        # two arcs to choose from.
        adj = {1: (8,), 2: (7,), 3: (17,), 4: (), 5: (), 6: (), 7: (4,),
               8: (9, 17), 9: (10,), 10: (11,), 11: (5,), 12: (13,), 13: (14,),
               14: (15,), 15: (16,), 16: (6,), 17: (7, 12, 17)}
        assert self.check(adj, (1, 2, 3), (4, 5, 6)) == (1, 2, 3)
        for _, linking in both_kernels(lexicographic_basis, adj, (1, 2, 3),
                                       (4, 5, 6)):
            assert linking.paths == ((1, 8, 9, 10, 11, 5), (2, 7, 4),
                                     (3, 17, 12, 13, 14, 15, 16, 6))


def dinic_runs(monkeypatch):
    """A list that records, for each run of Dinic on a CSR network, how
    many nodes the network is over, and one that records, for each search
    of a node graph, its labels' count and whether every source arc is
    open."""
    runs, searches = [], []
    dinic, labelled = flow._dinic, flow._NodeFlow._labelled

    def counted_dinic(n, *args):
        runs.append(n)
        return dinic(n, *args)

    def counted_labelled(solved, open_sources):
        searches.append((len(solved.labels), open_sources))
        return labelled(solved, open_sources)

    monkeypatch.setattr(flow, "_dinic", counted_dinic)
    monkeypatch.setattr(flow._NodeFlow, "_labelled", counted_labelled)
    return runs, searches


def funnel(reverse):
    """A graph, available set and targets on which the first sub-network's
    flow is not maximum, and a regrown one's is proved so by a cut.

    a1 -> p1..p11 -> t1 is short and a2 -> q1..q200 -> t2 long, so the balls
    share twelve nodes of the short path long before they cover the long
    one, and the first flow is 1.  a3 starts a path of 1000 nodes that reaches no
    target, and t3's one predecessor z has none, so no flow exceeds 2 while
    min(|A|, |T|) = 3, and F grows along a3's path without end.  Once B holds
    the whole long path it can grow no further, and the residual search from
    t reaches the entry half of t3 alone, whose predecessor z lies in W: the
    cut near T proves the flow of 2 maximum (rule 2), while the search from
    s reaches the last node of a3's path in W, whose successor lies outside.
    With ``reverse`` every edge is reversed and A and T swap places: the cut
    near A proves it (rule 3)."""
    names = (["a1", "a2", "a3", "t1", "t2", "t3", "z"]
             + [f"p{k}" for k in range(1, 12)] + [f"q{k}" for k in range(1, 201)]
             + [f"r{k}" for k in range(1, 1001)])
    at = {name: k for k, name in enumerate(names)}
    chains = (["a1"] + [f"p{k}" for k in range(1, 12)] + ["t1"],
              ["a2"] + [f"q{k}" for k in range(1, 201)] + ["t2"],
              ["a3"] + [f"r{k}" for k in range(1, 1001)], ["z", "t3"])
    edges = [(at[u], at[v]) for chain in chains for u, v in zip(chain, chain[1:])]
    if reverse:
        edges = [(v, u) for u, v in edges]
    adj = {k: tuple(sorted(v for u, v in edges if u == k))
           for k in range(len(names))}
    available, targets = [at["a1"], at["a2"], at["a3"]], [at["t1"], at["t2"],
                                                          at["t3"]]
    return (adj, targets, available) if reverse else (adj, available, targets)


def broom(stem, fan, depth):
    """A system on which a check on its own sets regrows its sub-network
    until a regrow reaches a level that would take W far past twice its
    size, with the successor dict of its state graph.

    As in ``funnel``, a1 -> p1..p11 -> t1 is short, a2 -> q1..q200 -> t2 is
    long and t3's one predecessor z has none, so the flow is 2.  a3 starts
    a path of ``stem`` nodes, whose last node roots a tree of ``depth``
    levels with ``fan`` children to a node and no target: F grows by two or three nodes
    a level until it meets the tree, and then by a factor of ``fan``."""
    edges = []
    for chain in (["a1"] + [f"p{k}" for k in range(1, 12)] + ["t1"],
                  ["a2"] + [f"q{k}" for k in range(1, 201)] + ["t2"],
                  ["z", "t3"], ["a3"] + [f"r{k}" for k in range(1, stem + 1)]):
        edges += zip(chain, chain[1:])
    level = [f"r{stem}"]
    for level_k in range(depth):
        children = [f"b{level_k}_{k}" for k in range(fan * len(level))]
        edges += [(level[k // fan], child) for k, child in enumerate(children)]
        level = children
    at = {name: k for k, name in
          enumerate(sorted({name for edge in edges for name in edge}), 1)}
    sys_ = StructuredSystem(n=len(at),
                            state_edges=[(at[u], at[v]) for u, v in edges],
                            available=[at["a1"], at["a2"], at["a3"]],
                            targets=[at["t1"], at["t2"], at["t3"]])
    return sys_, dict(sys_.state_adjacency())


def random_graph(rng, n, per_node):
    """A StateGraph on 1..n over about ``per_node`` random edges per node,
    with self-loops on 5 % of the nodes, and its edges."""
    edges = {(rng.randint(1, n), rng.randint(1, n))
             for _ in range(int(per_node * n))}
    edges |= {(v, v) for v in rng.sample(range(1, n + 1), n // 20)}
    graph = StructuredSystem(n=n, state_edges=tuple(edges)).state_adjacency()
    return graph, edges


def random_sets(rng, n, edges):
    """Up to 12 available nodes and targets on 1..n; about 3 in 10 times
    the targets take an available node, and about 3 in 10 a node with no
    in-edge, so that no flow reaches it."""
    available = rng.sample(range(1, n + 1), rng.randint(1, 12))
    targets = rng.sample(range(1, n + 1), rng.randint(1, 12))
    if rng.random() < 0.3:
        targets += rng.sample(available, 1)
    if rng.random() < 0.3:
        targets.append(rng.choice(sorted(set(range(1, n + 1))
                                         - {v for _, v in edges})))
    return available, sorted(set(targets))


class TestSubNetworkSolve:
    """The CSR kernel runs Dinic on a sub-network around A and T and grows
    it until a cut proves its flow maximum on the whole network: every value,
    separator and essential set is the whole network's, and every linking a
    maximum one."""

    def check(self, graph, available, targets, runs):
        """Each answer against Dinic on the whole network and networkx; the
        labels of the networks that Dinic ran on for the four questions."""
        ref = whole_network(graph, available, targets)
        assert ref.value == nx_linking_size(graph, available, targets)
        runs.clear()
        keeps_none = getattr(graph, "_last_solved", None) is None
        assert max_linking_size(graph, available, targets) == ref.value
        solved = list(runs)
        runs.clear()
        assert minimal_left_separator(graph, available, targets) == ref.separator
        value, essential, _ = essential_start_analysis(graph, available, targets)
        assert (value, essential) == (ref.value, ref.essential)
        linking = maximum_linking(graph, available, targets)
        assert linking.size == ref.value
        assert_valid_linking(linking, graph, available, targets)
        # a StateGraph keeps the size question's flow if it kept none, and
        # else the separator's, for the questions after it
        if isinstance(graph, flow.StateGraph):
            assert runs == ([] if keeps_none else solved)
        return solved

    def test_random_sets_on_one_graph(self, monkeypatch):
        monkeypatch.setattr(flow, "CSR_MIN_ARCS", 0)
        runs, _ = dinic_runs(monkeypatch)
        rng = random.Random(41)
        seen = {"regrown": 0, "sub": 0, "whole": 0, "from_sink": 0,
                "from_source": 0, "shared": 0, "negative": 0, "self_loops": 0}
        for n, per_node in ((1500, 1.0), (1500, 1.5), (600, 3.0)):
            graph, edges = random_graph(rng, n, per_node)
            for _ in range(40):
                available, targets = random_sets(rng, n, edges)
                solved = self.check(graph, available, targets, runs)
                seen["regrown"] += len(solved) > 1
                seen["sub" if solved[-1] < n else "whole"] += 1
                seen["from_sink" if len(targets) < len(available)
                     else "from_source"] += 1
                seen["shared"] += bool(set(available) & set(targets))
                seen["negative"] += (max_linking_size(graph, available, targets)
                                     < min(len(available), len(targets)))
                seen["self_loops"] += any(
                    (v, v) in edges for path in
                    maximum_linking(graph, available, targets).paths
                    for v in path)
        assert min(seen.values()) >= 5, seen

    @pytest.mark.parametrize("reverse", [False, True])
    def test_regrown_until_a_cut_proves_it(self, monkeypatch, reverse):
        monkeypatch.setattr(flow, "CSR_MIN_ARCS", 0)
        runs, searches = dinic_runs(monkeypatch)
        adj, available, targets = funnel(reverse)
        assert max_linking_size(adj, available, targets) == 2
        # the first sub-network's flow is 1; a regrown one's is 2, and a cut
        # proves it maximum before W holds half the nodes
        assert len(runs) >= 2 and runs[-1] < len(adj) / 2
        # the cut near T is tried first and accepts alone; the cut near A is
        # tried after it.  The search from t is the reversed view's, with
        # every sink arc open; the one from s has unit source arcs.
        assert [from_t for size, from_t in searches
                if size == runs[-1]] == ([True, False] if reverse else [True])
        self.check(adj, available, targets, runs)

    @pytest.mark.parametrize("stem, fan, depth", [(10, 5, 5), (60, 5, 5),
                                                  (80, 3, 7)])
    def test_a_regrow_takes_a_level_in_part(self, monkeypatch, stem, fan,
                                            depth):
        # a regrow level that would take W past twice the size that failed
        # grows only in part: W at most about doubles on every regrow, where
        # whole levels took it to 2.8-4.7 times its size, or past half the
        # graph.  The verdict and the witness agree with enumeration.
        runs, _ = dinic_runs(monkeypatch)
        sys_, adj = broom(stem, fan, depth)
        for targets in (sys_.targets, sys_.targets[:2]):
            runs.clear()
            verdict = is_functional_target_controllable(sys_, targets=targets)
            assert len(runs) >= 3 and runs[-1] < sys_.n / 2
            assert all(grown <= 2.2 * failed
                       for failed, grown in zip(runs, runs[1:]))
            size = bf_max_linking_size(adj, set(sys_.available), set(targets))
            assert verdict.linking_size == size == 2
            assert verdict.controllable == (size == len(targets))
            linking = maximum_linking(sys_.state_adjacency(), sys_.available,
                                      targets)
            assert linking.size == size
            assert_valid_linking(linking, adj, sys_.available, targets)

    def test_question_sequences(self, monkeypatch):
        # random sequences of questions on a few (A, T) per graph, so that a
        # path-only question (size, linking) meets the network kept by a
        # labelling one (separator, essential set) on its own sets, on
        # other sets, or none: three StateGraphs over read-only arrays, and
        # one over writable arrays and a dict, which may keep nothing
        monkeypatch.setattr(flow, "CSR_MIN_ARCS", 0)
        runs, _ = dinic_runs(monkeypatch)
        rng = random.Random(43)
        seen = {"regrown": 0, "sub": 0, "whole": 0, "kept": 0, "from_sink": 0,
                "from_source": 0, "shared": 0, "negative": 0, "self_loops": 0}
        graphs = [random_graph(rng, n, per_node) for n, per_node in
                  ((1500, 1.0), (1500, 1.5), (600, 3.0), (800, 1.2),
                   (700, 1.5))]
        writable, plain = graphs[3][0], graphs[4][0]
        graphs[3] = (flow.StateGraph(writable.labels, writable.tails.copy(),
                                     writable.heads.copy()), graphs[3][1])
        graphs[4] = (dict(plain), graphs[4][1])
        questions = (max_linking_size, maximum_linking, minimal_left_separator,
                     essential_start_analysis)
        for keeps, (graph, edges) in zip([True] * 3 + [False] * 2, graphs):
            n, pool = len(graph), []
            for _ in range(6):
                available, targets = random_sets(rng, n, edges)
                pool.append((available, targets,
                             whole_network(graph, available, targets)))
            for _ in range(60):
                available, targets, ref = rng.choice(pool)
                question = rng.choice(questions)
                runs.clear()
                answer = question(graph, available, targets)
                if question is minimal_left_separator:
                    assert answer == ref.separator
                    continue
                if question is essential_start_analysis:
                    assert answer[:2] == (ref.value, ref.essential)
                    continue
                value = answer if question is max_linking_size else answer.size
                assert value == ref.value == nx_linking_size(graph, available,
                                                             targets)
                seen["kept"] += not runs
                if runs:
                    seen["regrown"] += len(runs) > 1
                    seen["sub" if runs[-1] < n else "whole"] += 1
                seen["from_sink" if len(targets) < len(available)
                     else "from_source"] += 1
                seen["shared"] += bool(set(available) & set(targets))
                seen["negative"] += value < min(len(available), len(targets))
                if question is maximum_linking:
                    assert_valid_linking(answer, graph, available, targets)
                    fresh = (flow.StateGraph(graph.labels, graph.tails,
                                             graph.heads)
                             if isinstance(graph, flow.StateGraph) else graph)
                    assert answer == maximum_linking(fresh, available, targets)
                    seen["self_loops"] += any((v, v) in edges for path in
                                              answer.paths for v in path)
            kept = getattr(graph, "_last_solved", None)
            assert (kept is not None) == keeps
        assert min(seen.values()) >= 5, seen
