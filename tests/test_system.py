"""System model: parsing, validation, graph construction, DOT export."""

import copy
import json
import pickle

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given

from netctrl import (
    ParseError,
    StructuredSystem,
    ValidationError,
    build_graph,
    classify_nodes,
    parse_system,
    serialize_dot,
    serialize_system,
    system_to_json,
)
from netctrl import flow

STEERING_TEXT = """\
# steering-selection example
n 9
edge 1 2
edge 1 6
edge 2 3
edge 2 5
edge 4 3
edge 4 5
edge 5 6
edge 5 7
edge 5 8
edge 5 9
edge 6 8
edge 6 9
edge 7 8
edge 9 1
available 1 2 3 4
targets 8 9
"""


class TestParse:
    def test_steering_file(self, steering_system):
        assert parse_system(STEERING_TEXT) == steering_system

    def test_degenerate_singleton(self):
        sys_ = parse_system("n 1\navailable 1\ntargets 1\n")
        assert sys_.n == 1
        assert sys_.available == (1,)
        assert sys_.targets == (1,)
        assert sys_.state_edges == ()

    def test_out_of_range_edge(self):
        with pytest.raises(ValidationError):
            parse_system("n 3\nedge 4 1\n")

    def test_duplicate_available(self):
        with pytest.raises(ValidationError):
            parse_system("n 3\navailable 1 1\n")

    def test_available_may_intersect_targets(self):
        sys_ = parse_system("n 3\navailable 1 2\ntargets 2 3\n")
        assert set(sys_.available) & set(sys_.targets) == {2}

    def test_self_loop_permitted(self):
        assert parse_system("n 2\nedge 1 1\n").state_edges == ((1, 1),)

    def test_parallel_edges_collapse(self):
        assert parse_system("n 2\nedge 1 2\nedge 1 2\n").state_edges == ((1, 2),)

    def test_n_must_come_first(self):
        with pytest.raises(ParseError) as exc:
            parse_system("edge 1 2\nn 3\n")
        assert exc.value.line == 1

    def test_malformed_line_reports_number(self):
        with pytest.raises(ParseError) as exc:
            parse_system("n 3\nedge 1 two\n")
        assert exc.value.line == 2

    def test_unknown_directive(self):
        with pytest.raises(ParseError):
            parse_system("n 3\nvertex 1\n")

    def test_missing_n(self):
        with pytest.raises(ParseError):
            parse_system("# nothing\n")

    def test_input_columns_must_be_consecutive(self):
        with pytest.raises(ParseError):
            parse_system("n 3\ninput 2 1\n")

    def test_json_equivalent(self, steering_system):
        assert parse_system(system_to_json(steering_system)) == steering_system

    def test_json_rejects_unknown_fields(self):
        with pytest.raises(ParseError):
            parse_system(json.dumps({"n": 2, "bogus": 1}))

    def test_json_validates_indices(self):
        with pytest.raises(ValidationError):
            parse_system(json.dumps({"n": 2, "state_edges": [[1, 5]]}))

    @pytest.mark.parametrize("fields", [
        {"n": 3, "available": "12"},         # a string is not a node list
        {"n": True},                         # a boolean is not an integer
        {"n": 3, "state_edges": [[1, 2.5]]},  # nor is a number with a fraction
        {"n": 3, "targets": ["3"]},          # nor a numeric string
    ])
    def test_json_rejects_values_it_would_have_to_coerce(self, fields):
        with pytest.raises(ParseError):
            parse_system(json.dumps(fields))


class TestRoundTrip:
    def test_steering_example(self, steering_system):
        assert parse_system(serialize_system(steering_system)) == steering_system

    def test_with_explicit_io(self, io_system):
        assert parse_system(serialize_system(io_system)) == io_system

    def test_preserves_set_order(self):
        sys_ = StructuredSystem(n=5, available=(3, 1, 2), targets=(5, 4))
        again = parse_system(serialize_system(sys_))
        assert again.available == (3, 1, 2)
        assert again.targets == (5, 4)


class TestBuildGraph:
    def test_io_counts(self, io_system):
        g = build_graph(io_system)
        assert len(g.nodes) == 13  # 9 states + 2 inputs + 2 outputs
        assert len(g.edges) == 21

    def test_edge_count_formula(self, io_system):
        g = build_graph(io_system)
        expected = (
            len(io_system.state_edges)
            + sum(len(c) for c in io_system.explicit_inputs)
            + sum(len(r) for r in io_system.explicit_outputs)
        )
        assert len(g.edges) == expected

    def test_empty_pattern(self):
        g = build_graph(StructuredSystem(n=2))
        assert g.edges == ()
        assert len(g.nodes) == 2

    def test_chain_graph(self, chain_system):
        g = build_graph(chain_system)
        assert set(g.edges) == {
            (("u", 1), ("x", 1)),
            (("x", 1), ("x", 2)),
            (("x", 2), ("x", 3)),
            (("x", 1), ("x", 4)),
        }

    def test_inputs_have_no_incoming_outputs_no_outgoing(self, io_system):
        g = build_graph(io_system)
        for a, b in g.edges:
            assert b[0] != "u"
            assert a[0] != "y"


class TestDot:
    def test_node_count_without_classification(self, io_system):
        dot = serialize_dot(build_graph(io_system))
        declared = [l for l in dot.splitlines() if "[shape=" in l]
        assert len(declared) == 13

    def test_classification_styles(self, steering_system):
        classification = classify_nodes(steering_system).as_dict()
        dot = serialize_dot(build_graph(steering_system), classification)
        x1_line = next(l for l in dot.splitlines() if l.strip().startswith('"x1"'))
        assert 'class="essential"' in x1_line
        x3_line = next(l for l in dot.splitlines() if l.strip().startswith('"x3"'))
        assert 'class="useless"' in x3_line

    def test_empty_graph(self):
        dot = serialize_dot(build_graph(StructuredSystem(n=1)))
        assert dot.startswith("digraph")
        assert dot.rstrip().endswith("}")

    def test_shapes(self, io_system):
        dot = serialize_dot(build_graph(io_system))
        assert '"u1" [shape=box]' in dot
        assert '"y1" [shape=diamond]' in dot


class TestValidation:
    def test_n_positive(self):
        with pytest.raises(ValidationError):
            StructuredSystem(n=0)

    def test_adjacency_has_all_nodes(self, steering_system):
        adj = steering_system.state_adjacency()
        assert set(adj) == set(range(1, 10))
        assert adj[3] == ()  # x3 has no outgoing edges

    def test_edges_sorted_and_deduplicated(self):
        sys_ = StructuredSystem(n=3, state_edges=((2, 1), (1, 2), (2, 1)))
        assert sys_.state_edges == ((1, 2), (2, 1))


def view_of(sys_):
    """``sys_.state_adjacency()`` with the cutoff moved so that even a small
    system returns its array-backed view."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(flow, "CSR_MIN_ARCS", 0)
        view = sys_.state_adjacency()
    assert isinstance(view, flow.StateGraph)
    return view


@st.composite
def edge_lists(draw):
    """n and an edge list that may hold self-loops, duplicates and nodes
    without edges."""
    n = draw(st.integers(min_value=1, max_value=30))
    nodes = st.integers(min_value=1, max_value=n)
    return n, draw(st.lists(st.tuples(nodes, nodes), max_size=4 * n))


class TestStateGraphView:
    @given(edge_lists())
    def test_view_equals_successor_dict(self, case):
        n, edges = case
        expected = {i: tuple(sorted({j for t, j in edges if t == i}))
                    for i in range(1, n + 1)}
        view = view_of(StructuredSystem(n=n, state_edges=tuple(edges)))
        assert dict(view) == expected
        assert view == expected and len(view) == n and list(view) == list(expected)

    def test_chosen_by_size(self):
        chain = tuple((i, i + 1) for i in range(1, 600))
        large = StructuredSystem(n=600, state_edges=chain)
        assert large.n + len(large.state_edges) >= flow.CSR_MIN_ARCS
        assert isinstance(large.state_adjacency(), flow.StateGraph)
        small = StructuredSystem(n=300, state_edges=chain[:299])
        assert type(small.state_adjacency()) is dict

    def test_missing_keys(self, steering_system):
        view = view_of(steering_system)
        for key in (0, 10, "x", None, (1,)):
            assert key not in view
            with pytest.raises(KeyError):
                view[key]
        assert view.get(10) is None

    def test_numpy_int_keys(self, steering_system):
        view = view_of(steering_system)
        plain = dict(view)
        for key in (np.int64(5), np.int32(3), np.uint8(9)):
            assert key in view
            assert view[key] == plain[key]

    def test_values_are_tuples_of_python_ints(self, steering_system):
        for succs in view_of(steering_system).values():
            assert type(succs) is tuple
            assert all(type(v) is int for v in succs)

    def test_arrays_read_only(self, steering_system):
        view = view_of(steering_system)
        for arr in (view.tails, view.heads):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0

    def test_arrays_built_once(self, steering_system):
        first, second = view_of(steering_system), view_of(steering_system)
        assert first.tails is second.tails and first.heads is second.heads

    def test_identity_unchanged_by_cache(self, steering_system):
        before = hash(steering_system)
        twin = copy.copy(steering_system)
        view_of(steering_system)
        assert hash(steering_system) == before == hash(twin)
        assert steering_system == twin
        again = pickle.loads(pickle.dumps(steering_system))
        assert again == steering_system and hash(again) == before
        assert not view_of(again).tails.flags.writeable
