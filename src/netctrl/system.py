"""Structured-system model: zero/nonzero patterns, their directed graphs, and I/O.

A structured system is described purely by the sparsity pattern of its state
matrix (plus optional input/output patterns) together with an available set of
admissible steering nodes and a target set.  Parameter values are never stored;
all decisions downstream are generic (pattern-only).

Node indices are 1-based everywhere a user sees them, matching the usual
x_1..x_n convention for network nodes.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import FrozenInstanceError, dataclass
from functools import cached_property
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from . import flow
from .errors import NetctrlError


class ParseError(NetctrlError, ValueError):
    """Malformed system file.  Carries the 1-based line number when known."""

    def __init__(self, message: str, line: Optional[int] = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class ValidationError(NetctrlError, ValueError):
    """Structurally invalid system (index out of range, duplicate set member...)."""


# Graph node labels: ("x", i) state, ("u", k) input, ("y", l) output.
GraphNode = tuple[str, int]

# Largest n: the CSR flow kernel numbers the 2n + 2 nodes of a node-split
# network, and the system keeps its edge endpoints, as int32.
MAX_N = (np.iinfo(np.int32).max - 2) // 2


def node_name(node: GraphNode) -> str:
    """Render a graph node label as e.g. ``x3``, ``u1``, ``y2``."""
    kind, i = node
    return f"{kind}{i}"


def _is_integer(v) -> bool:
    """A Python or numpy integer; booleans are not integers here."""
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def _check_index(i, n: int, what: str) -> int:
    """``i`` as a Python int, after checking that it is an integer in 1..n."""
    if type(i) is not int:
        if not _is_integer(i):
            raise ValidationError(f"{what} {i!r} is not an integer")
        i = int(i)
    if not 1 <= i <= n:
        raise ValidationError(f"{what} {i} out of range 1..{n}")
    return i


def _ordered_set(values: Iterable[int], n: int, what: str) -> tuple[int, ...]:
    out: list[int] = []
    seen: set[int] = set()
    for v in values:
        v = _check_index(v, n, what)
        if v in seen:
            raise ValidationError(f"duplicate {what} {v}")
        seen.add(v)
        out.append(v)
    return tuple(out)


def _edge_ends(edges, n: int) -> np.ndarray:
    """The edges as an (e, 2) int64 array of endpoints in 1..n, in the given
    order.  An integer array is checked with vectorised comparisons; anything
    else endpoint by endpoint, so that a boolean or a float is rejected rather
    than read as a number."""
    if isinstance(edges, np.ndarray) and edges.dtype.kind in "iu":
        ends = edges.reshape(-1, 2) if edges.size == 0 else edges
        if ends.ndim != 2 or ends.shape[1] != 2:
            raise ValidationError(
                f"state_edges must have shape (e, 2), got {edges.shape}")
        if len(ends) and (ends.min() < 1 or ends.max() > n):
            bad = ((ends < 1) | (ends > n)).ravel()
            raise ValidationError(f"edge endpoint {ends.ravel()[bad.argmax()]} "
                                  f"out of range 1..{n}")
        return ends.astype(np.int64, copy=False)
    flat: list[int] = []
    for e in edges:
        if len(e) != 2:
            raise ValidationError(f"edge {e!r} is not a pair of nodes")
        flat.append(_check_index(e[0], n, "edge endpoint"))
        flat.append(_check_index(e[1], n, "edge endpoint"))
    return np.array(flat, dtype=np.int64).reshape(-1, 2)


class StructuredSystem:
    """Sparsity pattern of a linear network plus available and target node sets.

    Fields:
        n: number of state nodes.
        state_edges: directed edges (i, j) meaning state i influences state j,
            i.e. entry (j, i) of the state matrix is a free parameter.  Given
            as pairs or as an (e, 2) integer array; kept sorted and distinct.
        available: ordered set of admissible steering nodes.
        targets: ordered set of target nodes (may intersect ``available``).
        explicit_inputs: optional input columns; column k lists the state
            nodes driven by input k.
        explicit_outputs: optional output rows; row l lists the state nodes
            read by output l.

    Node indices must be Python or numpy integers; booleans and floats are
    rejected.  The edges are held as two read-only int32 arrays, the 0-based
    tails and heads sorted by tail, then head; ``state_edges``, the tuple of
    1-based pairs, is derived from them on first use.

    Instances are immutable and safe to share across threads.  The one
    mutable part is a cache: ``state_adjacency()`` keeps its state graph,
    and that graph keeps its edge index and one solved CSR-sized flow
    (``flow._solved``).  Each is published in one step (a dict
    ``setdefault``, a slot assignment), which a thread sees whole or not at
    all, and no question changes a flow once it is stored, so a question
    never sees another's half-built or changed state.
    """

    def __init__(
        self,
        n: int,
        state_edges: Sequence[tuple[int, int]] | np.ndarray = (),
        available: Iterable[int] = (),
        targets: Iterable[int] = (),
        explicit_inputs: Iterable[Iterable[int]] = (),
        explicit_outputs: Iterable[Iterable[int]] = (),
    ):
        self.__dict__.update(n=n, available=available, targets=targets,
                             explicit_inputs=explicit_inputs,
                             explicit_outputs=explicit_outputs)
        self.__post_init__(state_edges)

    def __post_init__(self, state_edges):
        """Validate and normalise the fields; sort and deduplicate the edges."""
        n = self.n
        if not _is_integer(n) or n < 1:
            raise ValidationError(f"n must be a positive integer, got {n!r}")
        if n > MAX_N:
            raise ValidationError(f"n must be at most {MAX_N}, got {n}")
        n = int(n)
        ends = _edge_ends(state_edges, n)
        # parallel edges collapse: sort by the key (tail - 1) * n + head - 1
        # and keep the first of each run
        keys = ends[:, 0] * n
        keys += ends[:, 1]
        keys -= n + 1
        keys.sort()
        if len(keys) > 1:
            first = np.empty(len(keys), dtype=bool)
            first[0] = True
            np.not_equal(keys[1:], keys[:-1], out=first[1:])
            keys = keys[first]
        tails, heads = (a.astype(np.int32) for a in np.divmod(keys, n))
        tails.flags.writeable = heads.flags.writeable = False
        self.__dict__.update(
            n=n,
            _edge_arrays=(tails, heads),
            available=_ordered_set(self.available, n, "available node"),
            targets=_ordered_set(self.targets, n, "target node"),
            explicit_inputs=tuple(
                tuple(sorted(_ordered_set(col, n, "input node")))
                for col in self.explicit_inputs),
            explicit_outputs=tuple(
                tuple(sorted(_ordered_set(row, n, "output node")))
                for row in self.explicit_outputs),
        )

    @property
    def io_pattern(self) -> tuple[tuple, tuple]:
        """The input columns and output rows, each listing its state nodes
        ascending: the explicit ones, else one column per available node and
        one row per target.  The I/O graph and the numeric B and C read these."""
        return (self.explicit_inputs or tuple((a,) for a in self.available),
                self.explicit_outputs or tuple((t,) for t in self.targets))

    @cached_property
    def state_edges(self) -> tuple[tuple[int, int], ...]:
        """The distinct edges (i, j), 1-based, sorted; derived from the edge
        arrays on first use and kept."""
        return tuple(self._edge_pairs())

    def _edge_pairs(self):
        """An iterator over the edges (i, j) in ``state_edges`` order, read
        from the edge arrays without keeping a tuple per edge."""
        tails, heads = self._edge_arrays
        return zip((tails + 1).tolist(), (heads + 1).tolist())

    def _other_fields(self) -> tuple:
        return (self.n, self.available, self.targets, self.explicit_inputs,
                self.explicit_outputs)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._other_fields() == other._other_fields() and all(
            np.array_equal(a, b)
            for a, b in zip(self._edge_arrays, other._edge_arrays))

    def __hash__(self):
        tails, heads = self._edge_arrays
        return hash(self._other_fields() + (tails.tobytes(), heads.tobytes()))

    def __repr__(self):
        return (f"StructuredSystem(n={self.n!r}, state_edges={self.state_edges!r}, "
                f"available={self.available!r}, targets={self.targets!r}, "
                f"explicit_inputs={self.explicit_inputs!r}, "
                f"explicit_outputs={self.explicit_outputs!r})")

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __getstate__(self):
        state = dict(self.__dict__)
        # derived on demand, not pickled
        state.pop("state_edges", None)
        state.pop("_state_graph", None)
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        for arr in self._edge_arrays:
            arr.flags.writeable = False

    def state_adjacency(self) -> flow.StateGraph:
        """Successor map of the state graph, every node 1..n present as a key:
        a read-only :class:`flow.StateGraph` over the system's edge arrays,
        which the flow kernels read as they are, at every size.  The same
        graph on every call, so that the network it keeps serves every
        later question on the same sets."""
        graph = self.__dict__.get("_state_graph")
        if graph is None:
            graph = self.__dict__.setdefault(
                "_state_graph",
                flow.StateGraph(range(1, self.n + 1), *self._edge_arrays))
        return graph


@dataclass(frozen=True)
class SystemGraph:
    """Directed graph of a structured system: state, input and output nodes.

    Edge conventions: (x_i, x_j) iff state i drives state j; (u_k, x_j) iff
    input k drives state j; (x_i, y_l) iff output l reads state i.  Input
    nodes have no incoming edges, output nodes no outgoing edges.
    """

    state_nodes: tuple[int, ...]
    input_nodes: tuple[int, ...]
    output_nodes: tuple[int, ...]
    edges: tuple[tuple[GraphNode, GraphNode], ...]

    @property
    def nodes(self) -> tuple[GraphNode, ...]:
        return (
            tuple(("u", k) for k in self.input_nodes)
            + tuple(("x", i) for i in self.state_nodes)
            + tuple(("y", l) for l in self.output_nodes)
        )

    def adjacency(self) -> dict[GraphNode, tuple[GraphNode, ...]]:
        """Successor map over all graph nodes (inputs, states, outputs)."""
        succ: dict[GraphNode, list[GraphNode]] = {v: [] for v in self.nodes}
        for a, b in self.edges:
            succ[a].append(b)
        return {v: tuple(sorted(ws)) for v, ws in succ.items()}


def build_graph(sys: StructuredSystem) -> SystemGraph:
    """Build the directed graph of a structured system.

    Adds input/output nodes only when explicit input/output patterns are
    present.
    """
    edges: list[tuple[GraphNode, GraphNode]] = [
        (("x", i), ("x", j)) for i, j in sys._edge_pairs()]
    for k, col in enumerate(sys.explicit_inputs, start=1):
        for i in col:
            edges.append((("u", k), ("x", i)))
    for l, row in enumerate(sys.explicit_outputs, start=1):
        for i in row:
            edges.append((("x", i), ("y", l)))
    return SystemGraph(
        state_nodes=tuple(range(1, sys.n + 1)),
        input_nodes=tuple(range(1, len(sys.explicit_inputs) + 1)),
        output_nodes=tuple(range(1, len(sys.explicit_outputs) + 1)),
        edges=tuple(edges),
    )


def linking_graph(sys: StructuredSystem) -> tuple[flow.StateGraph, list, list]:
    """The graph, sources and sinks whose maximum linking size is the
    system's generic transfer rank: the :class:`SystemGraph` of
    ``sys.io_pattern`` with its input and output nodes, as a
    :class:`flow.StateGraph` on the labels ("u", 1..m), ("x", 1..n),
    ("y", 1..p) built from the system's edge arrays."""
    inputs, outputs = sys.io_pattern
    n, m, p = sys.n, len(inputs), len(outputs)
    # positions: input k at k - 1, state i at m + i - 1, output l at m + n + l - 1
    io_edges = np.array(
        [(k, m + i - 1) for k, col in enumerate(inputs) for i in col]
        + [(m + i - 1, m + n + l) for l, row in enumerate(outputs) for i in row],
        dtype=np.int64).reshape(-1, 2)
    tails, heads = (np.concatenate([io_edges[:, c], m + sys._edge_arrays[c]])
                    for c in (0, 1))
    order = np.lexsort((heads, tails))
    tails, heads = tails[order], heads[order]
    tails.flags.writeable = heads.flags.writeable = False
    labels = ([("u", k) for k in range(1, m + 1)]
              + [("x", i) for i in range(1, n + 1)]
              + [("y", l) for l in range(1, p + 1)])
    return flow.StateGraph(labels, tails, heads), labels[:m], labels[m + n:]


# ---------------------------------------------------------------------------
# File format
# ---------------------------------------------------------------------------

# str.splitlines() breaks lines at these as well as at "\n"
_LINE_BREAKS = "\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"
# A well-formed edge line: ASCII digits only, at most 18 of them, so that
# every value read fits int64 unchanged.
_EDGE_LINE = re.compile(
    r"^[ \t]*edge[ \t]+(\d{1,18}[ \t]+\d{1,18})[ \t]*(?:#.*)?$", re.M | re.A)
_NON_EMPTY_LINE = re.compile(r"[^\n]+")


def parse_system(text: str) -> StructuredSystem:
    """Parse a system from the line-oriented format or its JSON equivalent.

    Line format (``#`` starts a comment)::

        n 9
        edge 1 2
        available 1 2 3 4
        targets 8 9
        input 1 4 7
        output 1 8

    ``n`` must be the first directive.  ``input``/``output`` columns must be
    numbered consecutively from 1.

    Every line break that ``str.splitlines`` knows ("\\r\\n", a lone "\\r",
    a form feed, U+2028, ...) first becomes "\\n".  The well-formed ``edge``
    lines (two runs of at most 18 ASCII digits, separated by spaces or tabs)
    are then read in one pass over the text; every other line is read one at
    a time.  Only an ``edge`` line that pass cannot read sends the whole text
    to a line-by-line reading instead, so results and errors do not depend
    on the pass.

    Raises:
        ParseError: malformed line (reported with its line number).
        ValidationError: out-of-range index or duplicate set member.
    """
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return _from_json(stripped)
    # "\r\r\n" is two line breaks, so no replace("\r\n", "\n") will do
    body = ("\n".join(text.splitlines())
            if any(c in text for c in _LINE_BREAKS) else text)
    # [text before the first edge line, its endpoints, text up to the next
    # one, ...]; the text left keeps every line break
    pieces = _EDGE_LINE.split(body)
    first_edge = pieces[0].count("\n") + 1 if len(pieces) > 1 else math.inf
    fields = _read_lines(_numbered_lines("".join(pieces[0::2])), first_edge)
    if fields is not None:
        ends = np.fromstring(" ".join(pieces[1::2]), dtype=np.int64, sep=" ")
        return StructuredSystem(state_edges=ends.reshape(-1, 2), **fields)
    return StructuredSystem(**_read_lines(enumerate(text.splitlines(), start=1)))


def _numbered_lines(text: str):
    """(line number, line) of the lines of ``text`` that are not empty."""
    lineno, last = 1, 0
    for m in _NON_EMPTY_LINE.finditer(text):
        lineno += text.count("\n", last, m.start())
        last = m.start()
        yield lineno, m.group()


def _read_lines(lines, first_edge: Optional[float] = None) -> Optional[dict]:
    """The fields of a system from its numbered lines, or None.

    ``first_edge`` is None when ``lines`` are all the lines of a text.
    Otherwise the edge lines were read in bulk, ``first_edge`` is the number
    of the first of them (inf for none), and an edge before ``n`` is
    reported at that line.  None is then returned when an ``edge`` line is
    among ``lines``, one that is not two runs of at most 18 ASCII digits, so
    that the whole text is read line by line instead.
    """
    n: Optional[int] = None
    edges: list[tuple[int, int]] = []
    sets: dict[str, list[int]] = {}
    inputs: list[tuple[int, ...]] = []
    outputs: list[tuple[int, ...]] = []

    for lineno, raw in lines:
        if n is None and first_edge is not None and lineno > first_edge:
            break
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        keyword, args = tokens[0], tokens[1:]
        try:
            values = [int(t) for t in args]
        except ValueError:
            raise ParseError(f"expected integers after {keyword!r}", lineno) from None

        if keyword == "n":
            if n is not None:
                raise ParseError("duplicate 'n' directive", lineno)
            if len(values) != 1:
                raise ParseError("'n' takes exactly one integer", lineno)
            n = values[0]
            continue
        if n is None:
            raise ParseError("'n' must be the first directive", lineno)

        if keyword == "edge":
            if first_edge is not None:
                return None
            if len(values) != 2:
                raise ParseError("'edge' takes exactly two integers", lineno)
            edges.append((values[0], values[1]))
        elif keyword in ("available", "targets"):
            if keyword in sets:
                raise ParseError(f"duplicate {keyword!r} directive", lineno)
            sets[keyword] = values
        elif keyword in ("input", "output"):
            rows, index, what = (
                (inputs, "a column index", "input columns") if keyword == "input"
                else (outputs, "a row index", "output rows"))
            if not values:
                raise ParseError(f"{keyword!r} needs {index}", lineno)
            if values[0] != len(rows) + 1:
                raise ParseError(f"{what} must be numbered consecutively; "
                                 f"expected {len(rows) + 1}, got {values[0]}", lineno)
            rows.append(tuple(values[1:]))
        else:
            raise ParseError(f"unknown directive {keyword!r}", lineno)

    if n is None:
        if first_edge is not None and first_edge < math.inf:
            # the first edge line came before any "n"
            raise ParseError("'n' must be the first directive", first_edge)
        raise ParseError("missing 'n' directive")
    fields = dict(
        n=n,
        available=tuple(sets.get("available", ())),
        targets=tuple(sets.get("targets", ())),
        explicit_inputs=tuple(inputs),
        explicit_outputs=tuple(outputs),
    )
    if first_edge is None:
        fields["state_edges"] = tuple(edges)
    return fields


def _from_json(text: str) -> StructuredSystem:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}", exc.lineno) from None
    if "n" not in data:  # text starting with "{" is an object
        raise ParseError("JSON system must be an object with an 'n' field")
    known = {"n", "state_edges", "available", "targets", "explicit_inputs",
             "explicit_outputs"}
    unknown = set(data) - known
    if unknown:
        raise ParseError(f"unknown JSON fields: {sorted(unknown)}")
    n = data["n"]
    if isinstance(n, bool) or not isinstance(n, int):
        raise ParseError(f"'n' must be an integer, got {json.dumps(n)[:40]}")
    edges = _json_rows(data.get("state_edges", []), "'state_edges'")
    if any(len(e) != 2 for e in edges):
        raise ParseError("every 'state_edges' entry must be a pair [i, j]")
    return StructuredSystem(
        n=n,
        state_edges=edges,
        available=_json_ints(data.get("available", []), "'available'"),
        targets=_json_ints(data.get("targets", []), "'targets'"),
        explicit_inputs=_json_rows(data.get("explicit_inputs", []),
                                   "'explicit_inputs'"),
        explicit_outputs=_json_rows(data.get("explicit_outputs", []),
                                    "'explicit_outputs'"),
    )


def _json_ints(value, what: str) -> tuple[int, ...]:
    """A JSON array of integers as a tuple.  Strings, booleans, numbers with
    a fraction and anything that is not an array are rejected, not coerced."""
    if not isinstance(value, list) or any(
            isinstance(v, bool) or not isinstance(v, int) for v in value):
        raise ParseError(f"{what} must be an array of integers")
    return tuple(value)


def _json_rows(value, what: str) -> tuple[tuple[int, ...], ...]:
    """A JSON array of arrays of integers as a tuple of tuples."""
    if not isinstance(value, list):
        raise ParseError(f"{what} must be an array of arrays of integers")
    return tuple(_json_ints(row, f"every entry of {what}") for row in value)


def serialize_system(sys: StructuredSystem) -> str:
    """Render a system in the line-oriented format; inverse of parse_system."""
    lines = [f"n {sys.n}"]
    lines += [f"edge {i} {j}" for i, j in sys._edge_pairs()]
    if sys.available:
        lines.append("available " + " ".join(map(str, sys.available)))
    if sys.targets:
        lines.append("targets " + " ".join(map(str, sys.targets)))
    for k, col in enumerate(sys.explicit_inputs, start=1):
        lines.append(f"input {k} " + " ".join(map(str, col)))
    for l, row in enumerate(sys.explicit_outputs, start=1):
        lines.append(f"output {l} " + " ".join(map(str, row)))
    return "\n".join(lines) + "\n"


def system_to_json(sys: StructuredSystem) -> str:
    """Render a system as JSON with the same field names as the line format."""
    return json.dumps(
        {
            "n": sys.n,
            "state_edges": (np.column_stack(sys._edge_arrays) + 1).tolist(),
            "available": list(sys.available),
            "targets": list(sys.targets),
            "explicit_inputs": [list(c) for c in sys.explicit_inputs],
            "explicit_outputs": [list(r) for r in sys.explicit_outputs],
        },
        indent=2,
    )


# ---------------------------------------------------------------------------
# DOT export
# ---------------------------------------------------------------------------

_DOT_CLASS_STYLE = {
    "essential": 'style=filled, fillcolor="#d62728", fontcolor=white',
    "useful": 'style=filled, fillcolor="#2ca02c", fontcolor=white',
    "useless": 'style=filled, fillcolor="#7f7f7f", fontcolor=white',
}


def serialize_dot(graph: SystemGraph, classification: Optional[Mapping[int, str]] = None) -> str:
    """Render a system graph as DOT.

    Input nodes are drawn as boxes, output nodes as diamonds.  When a
    classification (state node -> "essential"/"useful"/"useless") is given,
    the classified state nodes carry distinct fill styles.
    """
    classification = dict(classification or {})
    lines = ["digraph system {", "  rankdir=LR;"]
    for k in graph.input_nodes:
        lines.append(f'  "u{k}" [shape=box];')
    for i in graph.state_nodes:
        label = classification.get(i)
        if label is not None:
            style = _DOT_CLASS_STYLE[str(label).lower()]
            lines.append(f'  "x{i}" [shape=circle, {style}, class="{str(label).lower()}"];')
        else:
            lines.append(f'  "x{i}" [shape=circle];')
    for l in graph.output_nodes:
        lines.append(f'  "y{l}" [shape=diamond];')
    for a, b in graph.edges:
        lines.append(f'  "{node_name(a)}" -> "{node_name(b)}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
