"""Property-based checks of the combinatorial invariants on random graphs."""

import math
import random

import hypothesis.strategies as st
import networkx as nx
import pytest
from hypothesis import given, settings

from netctrl import (
    StructuredSystem,
    build_auxiliary_graph,
    build_graph,
    instantiate,
    max_flow,
    max_linking_size,
    maximum_linking,
    min_cut_source_set,
    minimal_left_separator,
    parse_system,
    preprocess_direct,
    serialize_system,
    transfer_rank,
)
from netctrl import flow
from netctrl.flow import essential_start_analysis

from .conftest import random_system
from .oracles import (
    bf_classify,
    bf_max_linking_size,
    bf_minimum_separators,
    is_separator,
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
    """``op``'s answer from the pure-Python kernel and from the CSR kernel,
    each forced by moving the size cutoff that chooses between them; a
    ValueError that ``op`` raises is the answer.  Spies on each kernel's
    entry (its node check or its flattening) and on its solver check that the
    forced kernel is the one that ran."""
    answers = []
    for cutoff, forced, other in ((math.inf, "python", "csr"),
                                  (0, "csr", "python")):
        calls = {"python": 0, "csr": 0}
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(flow, "CSR_MIN_ARCS", cutoff)
            for kernel, name in (("python", "_check_nodes"), ("python", "_solve"),
                                 ("csr", "_flatten"), ("csr", "maximum_flow")):
                mp.setattr(flow, name, counted(getattr(flow, name), calls, kernel))
            try:
                answer = op(*args)
            except ValueError as exc:
                answer = exc
        assert calls[other] == 0 and calls[forced]
        answers.append(answer)
    return answers


def counted(fn, calls, key):
    """``fn``, counting its calls in ``calls[key]``."""
    def spy(*args, **kwargs):
        calls[key] += 1
        return fn(*args, **kwargs)
    return spy


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
        # with the Python kernel and networkx
        starts = []
        solve = flow.maximum_flow

        def spy(capacity, source, sink, **kwargs):
            # the sink is numbered after the source
            starts.append("sink" if source > sink else "source")
            return solve(capacity, source, sink, **kwargs)

        monkeypatch.setattr(flow, "maximum_flow", spy)
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
    @pytest.mark.parametrize("available, targets", [([1], [5]), ([5], [1])])
    def test_node_not_in_graph(self, op, available, targets):
        py_exc, csr_exc = both_kernels(op, {1: (), 2: ()}, available, targets)
        for exc in (py_exc, csr_exc):
            assert type(exc) is ValueError and str(exc) == "node 5 not in graph"

    def test_state_graph_view_against_its_dict(self):
        # the CSR kernel reads a StateGraph's arrays directly and flattens a
        # dict; both must give the same answers
        rng = random.Random(14)
        checked = 0
        while checked < 5:
            sys_ = random_system(rng, max_n=2000, max_available=200,
                                 max_targets=5, edge_factor=3.0)
            view = sys_.state_adjacency()
            if not isinstance(view, flow.StateGraph):
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
        """``op``, returning instead of its answer how often it built a
        Python network, solved a network and preprocessed a graph."""
        def run(*args):
            calls = {"build": 0, "solve": 0, "preprocess": 0}
            with pytest.MonkeyPatch.context() as mp:
                for key, name in (("build", "_build_arrays"), ("solve", "_solve"),
                                  ("solve", "maximum_flow"),
                                  ("preprocess", "preprocess_direct")):
                    mp.setattr(flow, name, counted(getattr(flow, name), calls, key))
                op(*args)
            return calls
        return run

    @pytest.mark.parametrize("op", [max_linking_size, maximum_linking,
                                    minimal_left_separator,
                                    essential_start_analysis])
    def test_one_build_and_one_solve_per_call(self, op, steering_system):
        rng = random.Random(16)
        cases = [(steering_system.state_adjacency(), (1, 2, 3, 4), (8, 9)),
                 ({1: (), 2: ()}, (1,), (2,)), ({1: ()}, (1,), (1,))]
        for _ in range(10):
            sys_ = random_system(rng, max_n=12, max_available=6, max_targets=4)
            cases.append((sys_.state_adjacency(), sys_.available, sys_.targets))
        for case in cases:
            py, csr = both_kernels(self.builds_and_solves(op), *case)
            assert py == {"build": 1, "solve": 1, "preprocess": 0}
            assert csr == {"build": 0, "solve": 1, "preprocess": 0}

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
