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
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from . import flow


class ParseError(ValueError):
    """Malformed system file.  Carries the 1-based line number when known."""

    def __init__(self, message: str, line: Optional[int] = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class ValidationError(ValueError):
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


def _check_index(i: int, n: int, what: str) -> None:
    if not 1 <= i <= n:
        raise ValidationError(f"{what} {i} out of range 1..{n}")


def _ordered_set(values: Iterable[int], n: int, what: str) -> tuple[int, ...]:
    out: list[int] = []
    seen: set[int] = set()
    for v in values:
        _check_index(v, n, what)
        if v in seen:
            raise ValidationError(f"duplicate {what} {v}")
        seen.add(v)
        out.append(v)
    return tuple(out)


@dataclass(frozen=True)
class StructuredSystem:
    """Sparsity pattern of a linear network plus available and target node sets.

    Fields:
        n: number of state nodes.
        state_edges: directed edges (i, j) meaning state i influences state j,
            i.e. entry (j, i) of the state matrix is a free parameter.
        available: ordered set of admissible steering nodes.
        targets: ordered set of target nodes (may intersect ``available``).
        explicit_inputs: optional input columns; column k lists the state
            nodes driven by input k.
        explicit_outputs: optional output rows; row l lists the state nodes
            read by output l.

    Instances are immutable and safe to share across threads.
    """

    n: int
    state_edges: tuple[tuple[int, int], ...] = ()
    available: tuple[int, ...] = ()
    targets: tuple[int, ...] = ()
    explicit_inputs: tuple[tuple[int, ...], ...] = ()
    explicit_outputs: tuple[tuple[int, ...], ...] = ()

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 1:
            raise ValidationError(f"n must be a positive integer, got {self.n!r}")
        if self.n > MAX_N:
            raise ValidationError(f"n must be at most {MAX_N}, got {self.n}")
        edges: set[tuple[int, int]] = set()
        for e in self.state_edges:
            i, j = e
            _check_index(i, self.n, "edge endpoint")
            _check_index(j, self.n, "edge endpoint")
            edges.add((int(i), int(j)))  # parallel edges collapse
        object.__setattr__(self, "state_edges", tuple(sorted(edges)))
        object.__setattr__(
            self, "available", _ordered_set(self.available, self.n, "available node")
        )
        object.__setattr__(
            self, "targets", _ordered_set(self.targets, self.n, "target node")
        )
        object.__setattr__(
            self,
            "explicit_inputs",
            tuple(
                tuple(sorted(_ordered_set(col, self.n, "input node")))
                for col in self.explicit_inputs
            ),
        )
        object.__setattr__(
            self,
            "explicit_outputs",
            tuple(
                tuple(sorted(_ordered_set(row, self.n, "output node")))
                for row in self.explicit_outputs
            ),
        )

    @property
    def m(self) -> int:
        """Number of explicit inputs."""
        return len(self.explicit_inputs)

    @property
    def p(self) -> int:
        """Number of explicit outputs, falling back to the target count."""
        return len(self.explicit_outputs) if self.explicit_outputs else len(self.targets)

    def __getstate__(self):
        state = dict(self.__dict__)
        state.pop("_edge_arrays", None)  # rebuilt on demand, not pickled
        return state

    @cached_property
    def _edge_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """0-based tails and heads of ``state_edges``, in its order (sorted,
        distinct), read-only; built on first use and kept.  int32 halves what
        every large system keeps; the CSR kernel indexes in int32 anyway."""
        ends = np.fromiter(chain.from_iterable(self.state_edges), np.int32,
                           2 * len(self.state_edges))
        tails, heads = ends[0::2] - 1, ends[1::2] - 1
        tails.flags.writeable = heads.flags.writeable = False
        return tails, heads

    def state_adjacency(self) -> Mapping[int, tuple[int, ...]]:
        """Successor map of the state graph, every node 1..n present as a key.

        A graph with at least ``flow.CSR_MIN_ARCS`` nodes plus edges comes as
        a read-only :class:`flow.StateGraph` over the system's edge arrays,
        which are built once per system; a smaller one as a fresh dict.
        """
        if self.n + len(self.state_edges) >= flow.CSR_MIN_ARCS:
            return flow.StateGraph(self.n, *self._edge_arrays)
        succ: dict[int, list[int]] = {i: [] for i in range(1, self.n + 1)}
        for i, j in self.state_edges:
            succ[i].append(j)
        return {i: tuple(vs) for i, vs in succ.items()}


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
    edges: list[tuple[GraphNode, GraphNode]] = []
    for i, j in sys.state_edges:
        edges.append((("x", i), ("x", j)))
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


def linking_graph(sys: StructuredSystem) -> tuple[Mapping, Sequence, Sequence]:
    """The graph, sources and sinks whose maximum linking size is the
    system's generic transfer rank.

    With explicit inputs and outputs, these are the system graph and its
    input and output nodes; otherwise the state graph with the available and
    target sets.
    """
    if sys.explicit_inputs and sys.explicit_outputs:
        g = build_graph(sys)
        return (g.adjacency(), [("u", k) for k in g.input_nodes],
                [("y", l) for l in g.output_nodes])
    return sys.state_adjacency(), sys.available, sys.targets


# ---------------------------------------------------------------------------
# File format
# ---------------------------------------------------------------------------

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

    Raises:
        ParseError: malformed line (reported with its line number).
        ValidationError: out-of-range index or duplicate set member.
    """
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return _from_json(stripped)

    n: Optional[int] = None
    edges: list[tuple[int, int]] = []
    available: Optional[list[int]] = None
    targets: Optional[list[int]] = None
    inputs: list[tuple[int, ...]] = []
    outputs: list[tuple[int, ...]] = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
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
            if len(values) != 2:
                raise ParseError("'edge' takes exactly two integers", lineno)
            edges.append((values[0], values[1]))
        elif keyword == "available":
            if available is not None:
                raise ParseError("duplicate 'available' directive", lineno)
            available = values
        elif keyword == "targets":
            if targets is not None:
                raise ParseError("duplicate 'targets' directive", lineno)
            targets = values
        elif keyword == "input":
            if not values:
                raise ParseError("'input' needs a column index", lineno)
            if values[0] != len(inputs) + 1:
                raise ParseError(
                    f"input columns must be numbered consecutively; expected "
                    f"{len(inputs) + 1}, got {values[0]}",
                    lineno,
                )
            inputs.append(tuple(values[1:]))
        elif keyword == "output":
            if not values:
                raise ParseError("'output' needs a row index", lineno)
            if values[0] != len(outputs) + 1:
                raise ParseError(
                    f"output rows must be numbered consecutively; expected "
                    f"{len(outputs) + 1}, got {values[0]}",
                    lineno,
                )
            outputs.append(tuple(values[1:]))
        else:
            raise ParseError(f"unknown directive {keyword!r}", lineno)

    if n is None:
        raise ParseError("missing 'n' directive")
    return StructuredSystem(
        n=n,
        state_edges=tuple(edges),
        available=tuple(available or ()),
        targets=tuple(targets or ()),
        explicit_inputs=tuple(inputs),
        explicit_outputs=tuple(outputs),
    )


def _from_json(text: str) -> StructuredSystem:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}", exc.lineno) from None
    if not isinstance(data, dict) or "n" not in data:
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
    lines += [f"edge {i} {j}" for i, j in sys.state_edges]
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
            "state_edges": [list(e) for e in sys.state_edges],
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
