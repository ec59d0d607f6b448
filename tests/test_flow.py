"""Flow kernels: preprocessing, auxiliary graph, max flow, cuts, linkings."""

import pytest

from netctrl import (
    Flow,
    PreconditionError,
    build_auxiliary_graph,
    build_graph,
    extract_linking,
    max_flow,
    max_linking_size,
    maximum_linking,
    min_cut_source_set,
    minimal_left_separator,
    preprocess_direct,
)
from netctrl.flow import SOURCE

from .oracles import bf_max_linking_size, is_separator


class TestPreprocessDirect:
    def test_steering_example(self, steering_system):
        g = steering_system.state_adjacency()
        pre = preprocess_direct(g, (1, 2, 3, 4), (8, 9))
        kept = {(u, v) for u, succs in pre.items() for v in succs}
        # removed: every edge entering the available set and leaving the targets
        removed = {(9, 1), (1, 2), (2, 3), (4, 3)}
        original = set(steering_system.state_edges)
        assert kept == original - removed
        assert set(pre) == set(g)  # node set unchanged

    def test_self_loop_on_overlap_node(self):
        g = {1: (1,)}
        pre = preprocess_direct(g, (1,), (1,))
        assert pre == {1: ()}

    def test_untouched_graph(self):
        g = {1: (2,), 2: (3,), 3: (), 4: ()}
        pre = preprocess_direct(g, (4,), (3,))
        assert {u: tuple(v) for u, v in pre.items()} == {
            1: (2,), 2: (3,), 3: (), 4: ()
        }

    def test_input_unmutated(self, steering_system):
        g = steering_system.state_adjacency()
        before = {u: tuple(v) for u, v in g.items()}
        preprocess_direct(g, (1, 2), (8,))
        assert {u: tuple(v) for u, v in g.items()} == before


class TestAuxiliaryGraph:
    def test_steering_counts(self, steering_system):
        g = preprocess_direct(steering_system.state_adjacency(), (1, 2, 3, 4), (8, 9))
        aux = build_auxiliary_graph(g, (1, 2, 3, 4), (8, 9))
        assert aux.node_count == 20
        n_edges = sum(len(succs) for succs in g.values())
        assert aux.edge_count == 9 + n_edges + 4 + 2

    def test_raw_graph_network(self, steering_system):
        # splitting an unpreprocessed graph is also well-defined
        aux = build_auxiliary_graph(steering_system.state_adjacency(), (1, 2, 3, 4), (8, 9))
        edges = aux.edges()
        sources = {(t, h) for t, h, _ in edges if t == SOURCE}
        assert sources == {(SOURCE, (i, "-")) for i in (1, 2, 3, 4)}
        sinks = {(t, h) for t, h, _ in edges if h == "t"}
        assert sinks == {((8, "+"), "t"), ((9, "+"), "t")}
        splits = [(t, h, c) for t, h, c in edges if t == (h[0], "-") and h[1] == "+"]
        assert len(splits) == 9
        assert all(c == 1 for _, _, c in splits)

    def test_singleton_overlap(self):
        aux = build_auxiliary_graph({1: ()}, (1,), (1,))
        assert aux.node_count == 4
        assert {(t, h) for t, h, _ in aux.edges()} == {
            (SOURCE, (1, "-")), ((1, "-"), (1, "+")), ((1, "+"), "t"),
        }

    def test_overlap_node_gets_both_hooks(self):
        aux = build_auxiliary_graph({1: (2,), 2: ()}, (1, 2), (2,))
        edges = {(t, h) for t, h, _ in aux.edges()}
        assert (SOURCE, (2, "-")) in edges
        assert ((2, "+"), "t") in edges

    def test_sentinel_exceeds_feasible_flow(self, steering_system):
        aux = build_auxiliary_graph(steering_system.state_adjacency(), (1, 2, 3, 4), (8, 9))
        assert aux.infinite_capacity == 3  # |T| + 1

    def test_successor_listed_twice_is_one_edge(self):
        aux = build_auxiliary_graph({1: (2, 2), 2: ()}, (1,), (2,))
        assert aux.edge_count == 2 + 1 + 1 + 1
        assert max_flow(aux).value == 1

    def test_nodes_checked_before_edges(self):
        with pytest.raises(ValueError, match="^node 5 not in graph$"):
            build_auxiliary_graph({1: (9,)}, (5,), (1,))
        with pytest.raises(ValueError, match="^node 9 not in graph$"):
            build_auxiliary_graph({1: (9,)}, (1,), (1,))


class TestMaxFlow:
    def test_raw_graph_value(self, steering_system):
        aux = build_auxiliary_graph(steering_system.state_adjacency(), (1, 2, 3, 4), (8, 9))
        assert max_flow(aux).value == 2

    def test_no_path(self):
        aux = build_auxiliary_graph({1: (), 2: ()}, (1,), (2,))
        flow = max_flow(aux)
        assert flow.value == 0
        assert all(f == 0 for f in flow.edge_flow)

    def test_input_touched_nodes(self, steering_system):
        g = steering_system.state_adjacency()
        value = max_linking_size(g, (4, 6, 7, 9), (8, 9))
        assert value == bf_max_linking_size(g, {4, 6, 7, 9}, {8, 9}) == 2

    def test_flow_is_feasible_and_conserved(self, steering_system):
        g = preprocess_direct(steering_system.state_adjacency(), (1, 2, 3, 4), (8, 9))
        aux = build_auxiliary_graph(g, (1, 2, 3, 4), (8, 9))
        flow = max_flow(aux)
        balance = {}
        for (tail, head, cap), f in zip(aux.edges(), flow.edge_flow):
            assert 0 <= f <= cap
            assert f == int(f)
            balance[tail] = balance.get(tail, 0) - f
            balance[head] = balance.get(head, 0) + f
        for node, net in balance.items():
            if node == SOURCE:
                assert net == -flow.value
            elif node == "t":
                assert net == flow.value
            else:
                assert net == 0


class TestMinCutSourceSet:
    def test_labelled_set_on_raw_graph(self, steering_system):
        aux = build_auxiliary_graph(steering_system.state_adjacency(), (1, 2, 3, 4), (8, 9))
        flow = max_flow(aux)
        expected = {
            SOURCE,
            (4, "-"), (4, "+"), (5, "-"),
            (3, "-"), (3, "+"),
            (2, "-"), (2, "+"),
            (1, "-"),
        }
        assert min_cut_source_set(aux, flow) == expected

    def test_trivial_chain(self):
        aux = build_auxiliary_graph({1: ()}, (1,), (1,))
        flow = max_flow(aux)
        assert min_cut_source_set(aux, flow) == {SOURCE, (1, "-")}

    def test_disconnected_zero_flow(self):
        aux = build_auxiliary_graph({1: (), 2: ()}, (1,), (2,))
        labelled = min_cut_source_set(aux, max_flow(aux))
        # with no saturated edges the labelled set is plain reachability from s
        assert labelled == {SOURCE, (1, "-"), (1, "+")}

    def test_rejects_non_maximum_flow(self, steering_system):
        aux = build_auxiliary_graph(steering_system.state_adjacency(), (1, 2, 3, 4), (8, 9))
        zero = Flow(value=0, edge_flow=tuple([0] * aux.edge_count))
        with pytest.raises(PreconditionError):
            min_cut_source_set(aux, zero)

    def test_cut_edges_are_saturated_splits(self, steering_system):
        g = preprocess_direct(steering_system.state_adjacency(), (1, 2, 3, 4), (8, 9))
        aux = build_auxiliary_graph(g, (1, 2, 3, 4), (8, 9))
        flow = max_flow(aux)
        labelled = min_cut_source_set(aux, flow)
        crossing = [
            (tail, head, cap, f)
            for (tail, head, cap), f in zip(aux.edges(), flow.edge_flow)
            if tail in labelled and head not in labelled
        ]
        assert crossing
        for tail, head, cap, f in crossing:
            assert cap == 1 and f == 1  # saturated split edges only
            assert tail == (head[0], "-") and head[1] == "+"


class TestMinimalLeftSeparator:
    def test_steering_example(self, steering_system):
        sep = minimal_left_separator(
            steering_system.state_adjacency(), (1, 2, 3, 4), (8, 9)
        )
        assert sep == {1, 5}

    def test_singleton_overlap(self):
        assert minimal_left_separator({1: ()}, (1,), (1,)) == {1}

    def test_disconnected(self):
        assert minimal_left_separator({1: (), 2: ()}, (1,), (2,)) == frozenset()

    def test_is_separator_of_raw_graph(self, steering_system):
        g = steering_system.state_adjacency()
        sep = minimal_left_separator(g, (1, 2, 3, 4), (8, 9))
        assert is_separator(g, {1, 2, 3, 4}, {8, 9}, sep)


class TestExtractLinking:
    def test_steering_size_two(self, steering_system):
        linking = maximum_linking(steering_system.state_adjacency(), (1, 2, 3, 4), (8, 9))
        assert linking.size == 2
        assert linking.paths == ((1, 6, 8), (2, 5, 9))  # deterministic witness

    def test_io_input_output_paths(self, io_system):
        g = build_graph(io_system)
        linking = maximum_linking(
            g.adjacency(), [("u", 1), ("u", 2)], [("y", 1), ("y", 2)]
        )
        assert linking.size == 2
        for path in linking.paths:
            assert path[0][0] == "u"
            assert path[-1][0] == "y"
            assert all(v[0] == "x" for v in path[1:-1])

    def test_zero_flow_gives_empty_linking(self):
        aux = build_auxiliary_graph({1: (), 2: ()}, (1,), (2,))
        assert extract_linking(aux, max_flow(aux)).paths == ()

    def test_linking_invariants(self, steering_system):
        available, targets = (1, 2, 3, 4), (8, 9)
        linking = maximum_linking(steering_system.state_adjacency(), available, targets)
        seen = set()
        for path in linking.paths:
            assert len(set(path)) == len(path)  # simple
            assert path[0] in available and path[-1] in targets
            assert all(v not in available for v in path[1:])  # direct at start
            assert all(v not in targets for v in path[:-1])  # direct at end
            assert not (set(path) & seen)  # vertex-disjoint
            seen |= set(path)

    def test_zero_length_path(self):
        linking = maximum_linking({1: ()}, (1,), (1,))
        assert linking.paths == ((1,),)


class TestMaxLinkingSize:
    def test_io_inputs_to_outputs(self, io_system):
        g = build_graph(io_system)
        size = max_linking_size(
            g.adjacency(), [("u", 1), ("u", 2)], [("y", 1), ("y", 2)]
        )
        assert size == 2

    def test_chain_single_input(self, chain_system):
        g = build_graph(chain_system)
        assert max_linking_size(g.adjacency(), [("u", 1)], [("x", 3), ("x", 4)]) == 1

    def test_steering_example(self, steering_system):
        g = steering_system.state_adjacency()
        assert max_linking_size(g, (1, 2, 3, 4), (8, 9)) == 2
        assert bf_max_linking_size(g, {1, 2, 3, 4}, {8, 9}) == 2
