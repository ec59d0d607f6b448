"""System model: parsing, validation, graph construction, DOT export."""

import copy
import json
import pickle
import threading

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

import netctrl
from netctrl import (
    NetctrlError,
    ParseError,
    PreconditionError,
    SingularSampleError,
    StructuredSystem,
    UnsolvableError,
    ValidationError,
    build_graph,
    classify_nodes,
    parse_system,
    serialize_dot,
    serialize_system,
    system_to_json,
)
from netctrl import flow
from netctrl.system import linking_graph

from .oracles import ReferenceParseError, ReferenceValidationError, reference_parse
from .test_properties import counted

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
        {"targets": [3]},                    # n is required
        {"n": 3, "state_edges": [[1, 2, 3]]},  # an edge is a pair
        {"n": 3, "explicit_inputs": 5},      # rows are an array of arrays
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
        view = StructuredSystem(n=n, state_edges=tuple(edges)).state_adjacency()
        assert dict(view) == expected
        assert view == expected and len(view) == n and list(view) == list(expected)

    def test_view_at_every_size(self):
        # the flow kernels read every system's edge arrays as they are
        chain = tuple((i, i + 1) for i in range(1, 600))
        for sys_ in (StructuredSystem(n=2),
                     StructuredSystem(n=600, state_edges=chain)):
            view = sys_.state_adjacency()
            assert type(view) is flow.StateGraph
            assert view.tails is sys_._edge_arrays[0]
            assert view.heads is sys_._edge_arrays[1]

    def test_missing_keys(self, steering_system):
        view = steering_system.state_adjacency()
        for key in (0, 10, "x", None, (1,), True):
            assert key not in view
            with pytest.raises(KeyError):
                view[key]
        assert view.get(10) is None

    def test_numpy_int_keys(self, steering_system):
        view = steering_system.state_adjacency()
        plain = dict(view)
        for key in (np.int64(5), np.int32(3), np.uint8(9)):
            assert key in view
            assert view[key] == plain[key]

    def test_values_are_tuples_of_python_ints(self, steering_system):
        for succs in steering_system.state_adjacency().values():
            assert type(succs) is tuple
            assert all(type(v) is int for v in succs)

    def test_lookup_during_the_first_lookup(self, monkeypatch):
        # another thread looks a node up while the first lookup is still
        # building the graph's index: it must build its own or use a whole
        # one, never half of one
        view = StructuredSystem(n=4, state_edges=((1, 2), (2, 3), (1, 4))
                                ).state_adjacency()
        searchsorted, seen = np.searchsorted, []

        def lookup():
            try:
                seen.append(view[2])
            except Exception as exc:  # compared below
                seen.append(exc)

        def interleaved(*args, **kwargs):
            if not seen:
                seen.append("first")
                thread = threading.Thread(target=lookup)
                thread.start()
                thread.join(timeout=30)
                assert not thread.is_alive()
            return searchsorted(*args, **kwargs)

        monkeypatch.setattr(np, "searchsorted", interleaved)
        assert view[1] == (2, 4)
        assert seen == ["first", (3,)]

    def test_arrays_read_only(self, steering_system):
        view = steering_system.state_adjacency()
        for arr in (view.tails, view.heads):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0

    def test_arrays_built_once(self, steering_system):
        first = steering_system.state_adjacency()
        second = steering_system.state_adjacency()
        assert first.tails is second.tails and first.heads is second.heads

    def test_identity_unchanged_by_cache(self, steering_system):
        before = hash(steering_system)
        twin = copy.copy(steering_system)
        steering_system.state_adjacency()
        assert hash(steering_system) == before == hash(twin)
        assert steering_system == twin
        again = pickle.loads(pickle.dumps(steering_system))
        assert again == steering_system and hash(again) == before
        assert not again.state_adjacency().tails.flags.writeable


@st.composite
def io_systems(draw):
    """A system with or without explicit input columns and output rows."""
    n, edges = draw(edge_lists())
    nodes = st.integers(min_value=1, max_value=n)
    node_sets = st.lists(nodes, unique=True, max_size=4)
    groups = st.lists(st.lists(nodes, unique=True, min_size=1, max_size=3),
                      max_size=3)
    return StructuredSystem(n=n, state_edges=tuple(edges),
                            available=draw(node_sets), targets=draw(node_sets),
                            explicit_inputs=draw(groups),
                            explicit_outputs=draw(groups))


class TestLinkingGraph:
    def test_io_pattern(self):
        implicit = StructuredSystem(n=4, available=(3, 1), targets=(2,))
        assert implicit.io_pattern == (((3,), (1,)), ((2,),))
        mixed = StructuredSystem(n=4, available=(3, 1), targets=(2,),
                                 explicit_inputs=((4, 2),))
        assert mixed.io_pattern == (((2, 4),), ((2,),))

    @given(io_systems())
    def test_is_the_system_graph_of_the_io_pattern(self, sys_):
        graph, inputs, outputs = linking_graph(sys_)
        columns, rows = sys_.io_pattern
        g = build_graph(StructuredSystem(n=sys_.n, state_edges=sys_.state_edges,
                                         explicit_inputs=columns,
                                         explicit_outputs=rows))
        assert type(graph) is flow.StateGraph
        assert dict(graph) == g.adjacency()
        assert list(graph) == list(g.adjacency())  # ascending
        assert inputs == [("u", k) for k in g.input_nodes]
        assert outputs == [("y", l) for l in g.output_nodes]

    def test_missing_keys(self, io_system):
        graph = linking_graph(io_system)[0]
        for key in (("x", 0), ("y", 3), ("u", 1.5), 1, "u1", None,
                    ("u", True), ("x", 1.0)):
            assert key not in graph
            with pytest.raises(KeyError):
                graph[key]
        assert graph[("u", np.int64(1))] == graph[("u", 1)]

    def test_positions_indexed_once(self, io_system, monkeypatch):
        calls = {"index": 0}
        monkeypatch.setattr(flow, "_indexer",
                            counted(flow._indexer, calls, "index"))
        graph = linking_graph(io_system)[0]
        assert graph[("u", 1)] == (("x", 4), ("x", 7))
        assert ("x", 9) in graph and ("y", 2) in graph and ("y", 3) not in graph
        assert calls == {"index": 1}


class TestStrictIntegers:
    @pytest.mark.parametrize("fields", [
        {"n": True},
        {"n": 3.0},
        {"n": "3"},
        {"n": np.bool_(True)},
        {"n": 3, "state_edges": ((1, 2.0),)},
        {"n": 3, "state_edges": ((True, 1),)},
        {"n": 3, "state_edges": ((1, np.float64(2)),)},
        {"n": 3, "state_edges": (("1", 2),)},
        {"n": 3, "state_edges": np.array([[1.0, 2.0]])},
        {"n": 3, "state_edges": np.array([[True, True]])},
        {"n": 3, "available": (1.0, 2)},
        {"n": 3, "available": (True,)},
        {"n": 3, "targets": (np.float32(1),)},
        {"n": 3, "explicit_inputs": ((1.5,),)},
        {"n": 3, "explicit_outputs": ((np.bool_(True),),)},
    ])
    def test_rejects_booleans_and_non_integers(self, fields):
        with pytest.raises(ValidationError):
            StructuredSystem(**fields)

    def test_accepts_python_and_numpy_integers(self):
        plain = StructuredSystem(n=3, state_edges=((1, 2), (3, 1)),
                                 available=(2, 1), targets=(3,),
                                 explicit_inputs=((1, 3),))
        for edges in (((np.int32(1), 2), (3, np.uint8(1))),
                      np.array([[3, 1], [1, 2]], dtype=np.uint8),
                      np.array([[1, 2], [3, 1], [1, 2]], dtype=np.int64)):
            sys_ = StructuredSystem(n=np.int64(3), state_edges=edges,
                                    available=np.array([2, 1]),
                                    targets=(np.int16(3),),
                                    explicit_inputs=(np.array([3, 1]),))
            assert sys_ == plain and hash(sys_) == hash(plain)
            for value in (sys_.n, *sys_.available, *sys_.targets,
                          *sys_.explicit_inputs[0], *sys_.state_edges[0]):
                assert type(value) is int

    @pytest.mark.parametrize("edges", [
        np.array([1, 2, 3, 1]), np.zeros((2, 3), dtype=int), ((1, 2, 3),)])
    def test_rejects_edges_that_are_not_pairs(self, edges):
        with pytest.raises(ValidationError):
            StructuredSystem(n=3, state_edges=edges)

    def test_array_out_of_range_reports_first_endpoint(self):
        with pytest.raises(ValidationError, match="edge endpoint 7 out of range"):
            StructuredSystem(n=3, state_edges=np.array([[1, 2], [7, 0]]))

    def test_caller_array_left_unchanged(self):
        edges = np.array([[2, 1], [1, 2], [2, 1]])
        sys_ = StructuredSystem(n=2, state_edges=edges)
        assert edges.tolist() == [[2, 1], [1, 2], [2, 1]]
        assert sys_.state_edges == ((1, 2), (2, 1))


class TestErrorBase:
    @pytest.mark.parametrize("cls, base", [
        (ParseError, ValueError), (ValidationError, ValueError),
        (PreconditionError, RuntimeError), (UnsolvableError, RuntimeError),
        (SingularSampleError, RuntimeError)])
    def test_one_base_catches_each_error(self, cls, base):
        exc = cls(1, 2) if cls is UnsolvableError else cls("message")
        with pytest.raises(NetctrlError):
            raise exc
        assert isinstance(exc, base)
        assert "NetctrlError" in netctrl.__all__

    def test_catches_a_raised_parse_error(self):
        with pytest.raises(NetctrlError):
            parse_system("n 3\nvertex 1\n")


# digits that int() reads but the bulk edge pass does not
_DIGIT_SETS = ("\u0660\u0661\u0662\u0663\u0664\u0665\u0666\u0667\u0668\u0669",
               "\uff10\uff11\uff12\uff13\uff14\uff15\uff16\uff17\uff18\uff19")
_ENDINGS = (["\n"], ["\r\n"], ["\n", "\r\n"],
            ["\n", "\n", "\r", "\x0b", "\x0c", "\x1c", "\x85", "\u2028"])
_BAD_LINES = ("edge 1", "edge 1 2 3", "edge 1 two", "edge", "edge 1 2x",
              "vertex 3", "n 4", "n", "available 1 x", "input 9 1", "output",
              "input", "edge 1\t+2\t# ok", "edge\xa01 2")
# lines that read but give an invalid system when they follow n
_INVALID_LINES = ("edge 0 1", "edge 1 -1", "edge 99999999999999999999 1",
                  "edge 1 0000000000000000000000", "targets 0", "output 1 2 2")


@st.composite
def _number(draw, v, fancy):
    styles = ["plain", "plain", "zeros"]
    if fancy:
        styles += ["plus", "underscore", "digits"]
    style = draw(st.sampled_from(styles))
    text = str(v)
    if style == "zeros":
        return "0" * draw(st.integers(1, 3)) + text
    if style == "plus":
        return "+" + text
    if style == "underscore" and len(text) > 1:
        return text[0] + "_" + text[1:]
    if style == "digits":
        digits = draw(st.sampled_from(_DIGIT_SETS))
        return "".join(digits[int(c)] for c in text)
    return text


@st.composite
def _line(draw, keyword, values, fancy):
    seps = [" ", "\t", "  ", " \t"] + (["\xa0", "\u3000"] if fancy else [])
    parts = [keyword] + [draw(_number(v, fancy)) for v in values]
    out = draw(st.sampled_from(["", " ", "\t"])) + parts[0]
    for part in parts[1:]:
        out += draw(st.sampled_from(seps)) + part
    return out + draw(st.sampled_from(["", "", " ", "\t", " # note", "#edge 1 2"]))


@st.composite
def line_texts(draw):
    """A system in the line format with varied spacing, comments, number
    spellings and line breaks; some are broken by one mutation."""
    fancy = draw(st.booleans())
    n = draw(st.one_of(st.integers(1, 12),
                       st.integers(flow.CSR_MIN_ARCS - 20, flow.CSR_MIN_ARCS + 50)))
    node = st.integers(1, n)
    directives = [("edge", list(e))
                  for e in draw(st.lists(st.tuples(node, node), max_size=25))]
    if directives and draw(st.booleans()):
        directives.append(draw(st.sampled_from(directives)))  # a duplicate
    for keyword in ("available", "targets"):
        if draw(st.booleans()):
            directives.append((keyword, draw(st.lists(node, unique=True, max_size=6))))
    for keyword in ("input", "output"):
        for _ in range(draw(st.integers(0, 2))):
            directives.append((keyword, draw(st.lists(node, unique=True, max_size=3))))
    directives = draw(st.permutations(directives))
    rows = {"input": 0, "output": 0}
    n_line = draw(_line("n", [n], fancy))
    lines = [n_line]
    for keyword, values in directives:
        if keyword in rows:
            rows[keyword] += 1
            values = [rows[keyword]] + values
        lines.append(draw(_line(keyword, values, fancy)))
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))),
                     draw(st.sampled_from(["", "# comment", " \t", "#"])))
    mutation = draw(st.sampled_from(
        [None, None, "insert", "invalid", "swap_n", "drop_n"]))
    if mutation == "insert":
        lines.insert(draw(st.integers(0, len(lines))),
                     draw(st.sampled_from(_BAD_LINES)))
    elif mutation == "invalid":
        lines.insert(draw(st.integers(lines.index(n_line) + 1, len(lines))),
                     draw(st.sampled_from(_INVALID_LINES + (f"edge {n + 1} 1",))))
    elif mutation == "swap_n" and len(lines) > 1:
        k = draw(st.integers(1, len(lines) - 1))
        lines[0], lines[k] = lines[k], lines[0]
    elif mutation == "drop_n":
        lines = [l for l in lines if not l.strip().startswith("n")]
    endings = draw(st.sampled_from(_ENDINGS))
    return "".join(l + draw(st.sampled_from(endings)) for l in lines)


def _outcome(parse, text):
    """What reading ``text`` gives: its fields, or the error it raises."""
    try:
        result = parse(text)
    except (ParseError, ReferenceParseError) as exc:
        return "parse", str(exc), exc.line
    except (ValidationError, ReferenceValidationError) as exc:
        return "invalid", str(exc)
    if isinstance(result, StructuredSystem):
        result = {name: getattr(result, name) for name in (
            "n", "state_edges", "available", "targets", "explicit_inputs",
            "explicit_outputs")}
    return "ok", result


def _spy_read_lines(monkeypatch) -> list:
    """The ``first_edge`` of every ``_read_lines`` call from now on."""
    first_edges = []
    read_lines = netctrl.system._read_lines

    def spy(lines, first_edge=None):
        first_edges.append(first_edge)
        return read_lines(lines, first_edge)

    monkeypatch.setattr(netctrl.system, "_read_lines", spy)
    return first_edges


class TestBulkParse:
    """The bulk edge pass reads every text as a line-by-line reader does."""

    @settings(max_examples=400, deadline=None)
    @given(line_texts())
    def test_against_reference_reader(self, text):
        assert _outcome(parse_system, text) == _outcome(reference_parse, text)

    @pytest.mark.parametrize("text, line", [
        ("n 3\nedge 1 2\nedge 1 +x\n", 3),
        ("edge 1 2\nfoo\nn 3\n", 1),
        ("# c\n\nedge 1 2\n", 3),
        ("n 3\r\nedge 1 2\r\nvertex\r\n", 3),
        ("n 3\r\r\nedge 1 2\r\nvertex\r\n", 4),
        ("n 3\x0cedge 1 2\nvertex\n", 3),
        ("n 3\nedge 1 2\n\u2028vertex\n", 4),
        ("n 3\nn 3\n", 2),
        ("n 3 4\n", 1),
        ("n 3\navailable 1\navailable 2\n", 3),
        ("n 3\ninput\n", 2),
        ('{"n": 3,\n "available": [1,]\n}', 2),  # invalid JSON
        ("[3]\n", 1),  # only an object is read as JSON
    ])
    def test_line_numbers(self, text, line):
        with pytest.raises(ParseError) as exc:
            parse_system(text)
        assert exc.value.line == line

    @pytest.mark.parametrize("text", [
        "n 3\nedge 1 +2\nedge 2 3\n",
        "n 12\nedge 1 1_0\nedge 2 3\n",
        "n 3\nedge \u0661 \u0662\nedge 2 3\n",
        "n 3\r\nedge 1 2\r\nedge 2 3\r\n",
        "n 3\nedge 1 2 # c\n\tedge\t2\t3#\nedge 002 3\n",
    ])
    def test_lines_the_bulk_pass_leaves(self, text):
        assert _outcome(parse_system, text) == _outcome(reference_parse, text)
        assert parse_system(text).state_edges[-1] == (2, 3)

    @pytest.mark.parametrize("text, bulk", [
        ("n 3\r\nedge 1 2\r\nedge 2 3\r\n", True),
        ("n 3\nedge 1 2\r\nedge 2 3\n", True),
        ("n 3\redge 1 2\r\nedge 2 3\r\n", True),
        ("n 3\r\r\nedge 1 2\r\nedge 2 3\r\n", True),
        ("n 3\x0cedge 1 2\x0cedge 2 3\n", True),
        ("n 3\u2028edge 1 2\u2028edge 2 3\u2028", True),
        ("n 3\r\nedge 1 +2\r\nedge 2 3\r\n", False),
    ])
    def test_crlf_read_in_bulk(self, text, bulk, monkeypatch):
        # every line break str.splitlines knows keeps a text on the bulk
        # pass: one _read_lines call, given the number of the first edge
        # line; an edge line that pass cannot read adds a line-by-line call
        first_edges = _spy_read_lines(monkeypatch)
        assert parse_system(text).state_edges == ((1, 2), (2, 3))
        assert [e is not None for e in first_edges] == ([True] if bulk else [True, False])
        assert _outcome(parse_system, text) == _outcome(reference_parse, text)

    @pytest.mark.parametrize("text, line", [
        ("edge 1 2\nn 3\n", 1),
        ("# c\nedge 1 2\nfoo\nn 3\n", 2),
        ("edge 1 2\n", 1),
    ])
    def test_edge_before_n_read_in_bulk(self, text, line, monkeypatch):
        # the bulk pass reports an edge before "n" at the first edge line,
        # as the line-by-line reader does, without reading the text again
        first_edges = _spy_read_lines(monkeypatch)
        with pytest.raises(ParseError, match="'n' must be the first directive") as exc:
            parse_system(text)
        assert exc.value.line == line
        assert first_edges == [line]
        assert _outcome(parse_system, text) == _outcome(reference_parse, text)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_round_trips_above_cutoff(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(flow.CSR_MIN_ARCS // 2, 2 * flow.CSR_MIN_ARCS))
        count = int(rng.integers(flow.CSR_MIN_ARCS, 3 * n))
        edges = rng.integers(1, n + 1, size=(count, 2))
        nodes = rng.permutation(n)[:20] + 1
        sys_ = StructuredSystem(
            n=n, state_edges=edges, available=nodes[:8], targets=nodes[8:12],
            explicit_inputs=(nodes[12:15],),
            explicit_outputs=(nodes[15:18], nodes[18:]))
        assert isinstance(sys_.state_adjacency(), flow.StateGraph)
        assert sys_.state_edges == tuple(sorted(set(map(tuple, edges.tolist()))))
        assert parse_system(serialize_system(sys_)) == sys_
        assert parse_system(system_to_json(sys_)) == sys_
