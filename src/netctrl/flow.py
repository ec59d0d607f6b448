"""Combinatorial kernels: node-split flow networks, max flow, separators, linkings.

The central construction is the auxiliary graph: every node v of a digraph is
split into v- and v+ joined by a unit-capacity edge, original edges become
(u+, w-) edges, and a dummy source s (sink t) is wired to the available
(target) set.  Integral max flow on this network equals the maximum number of
vertex-disjoint direct paths from the available set to the target set.

All operations are pure functions; inputs are never mutated.  Graphs are
successor mappings ``{node: sequence_of_successors}`` whose keys must cover
every node and be mutually orderable (ints, or like-shaped tuples): plain
dicts, or a :class:`StateGraph`, which holds a digraph on nodes 1..n as its
edge arrays.

Each high-level operation solves one such network over the graph as given,
with unit source arcs and the sentinel |T| + 1 on edge and sink arcs.  The
flow value is the maximum linking size; the flow paths, each trimmed to run
from its last available node to the first target after it, are a maximum
linking; an available node is essential iff its entry half is not labelled
(reachable from s in the residual graph); and the minimal left separator is
the nodes v with v- labelled and v+ not when every source arc counts as
open.  The lower-level functions build the linking network instead, over
``preprocess_direct``'s graph with source arcs at |T| + 1: no finite cut of
it crosses an edge into A or out of T, so both have the same minimum cuts.

Two kernels solve the network.  Small ones go through the pure-Python
augmenting-path solver below (``_build_arrays``/``_solve``), which answers a
question in 10-30 us on a one-node graph and in 50-100 us on the 9-node
example.  Networks with at least ``CSR_MIN_ARCS`` split and edge arcs are
flattened to CSR arrays and solved by scipy's Dinic
(``scipy.sparse.csgraph.maximum_flow``), which costs about 0.2 ms per call
however small the network but is several times faster on large ones; a
StateGraph's arrays go to it as they are.  Dinic starts from the smaller
terminal set: with fewer targets than sources it solves the reversed network
from the sink.  Both kernels return the same flow value, separator and
essential set; the linkings they return are both maximum but may differ.
"""

from __future__ import annotations

import operator
from collections import deque
from collections.abc import Hashable, Iterable, Mapping, Sequence
from dataclasses import dataclass
from itertools import chain

import numpy as np
from scipy.sparse import csr_array
from scipy.sparse.csgraph import breadth_first_order, maximum_flow

from .errors import NetctrlError

Node = Hashable

SOURCE = "s"
SINK = "t"

# Split plus edge arcs (n + |E|) from which networks are solved on CSR arrays.
# Measured on random digraphs with three edges per node, |A| = n/5, |T| = 5
# (best of 20 calls, one core): at n = 100 (400 arcs) the Python kernel is
# faster for every operation (0.6 vs 1.1 ms for the separator, 0.7 vs 1.3 ms
# for the essential analysis); from n = 250 (1000 arcs) the CSR kernel is at
# least as fast for all four, and at n = 400 it takes about half the time.
CSR_MIN_ARCS = 1000


class PreconditionError(NetctrlError, RuntimeError):
    """A caller-supplied object violates an operation's precondition."""


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AuxiliaryGraph:
    """Node-split unit-capacity flow network over a digraph.

    Node numbering: for the k-th label (ascending), 2k is its minus node and
    2k+1 its plus node; the last two ids are the source and the sink.  Edges
    are stored as parallel arrays over directed arc ids where arc ``2e`` is the
    forward direction of edge e and ``2e+1`` its residual reverse.  Capacities
    are 1 on split edges and ``infinite_capacity`` (a sentinel strictly larger
    than any feasible flow) elsewhere.

    Immutable after construction; max_flow works on private copies.
    """

    labels: tuple                      # original node labels, ascending
    available: tuple                   # A-labels wired from the source
    targets: tuple                     # T-labels wired into the sink
    infinite_capacity: int
    _adj: tuple                        # per aux node: tuple of (arc_id, head)
    _head: tuple                       # arc id -> head aux-node id
    _cap: tuple                        # arc id -> capacity (reverse arcs: 0)
    _sink_arcs: tuple                  # forward arc ids entering the sink

    @property
    def node_count(self) -> int:
        return 2 * len(self.labels) + 2

    @property
    def edge_count(self) -> int:
        """Number of forward edges: splits + original + source + sink arcs."""
        return len(self._head) // 2

    @property
    def source_id(self) -> int:
        return 2 * len(self.labels)

    @property
    def sink_id(self) -> int:
        return 2 * len(self.labels) + 1

    def node_label(self, aux_id: int) -> Node:
        """Public name of an auxiliary node id: (label, '-'/'+') or 's'/'t'."""
        if aux_id == self.source_id:
            return SOURCE
        if aux_id == self.sink_id:
            return SINK
        return (self.labels[aux_id // 2], "-" if aux_id % 2 == 0 else "+")

    def edges(self) -> list[tuple[Node, Node, int]]:
        """Forward edges as (tail label, head label, capacity) triples."""
        out = []
        for e in range(self.edge_count):
            tail = self.node_label(self._head[2 * e + 1])
            head = self.node_label(self._head[2 * e])
            out.append((tail, head, self._cap[2 * e]))
        return out


@dataclass(frozen=True)
class Flow:
    """Integral feasible s-t flow on an AuxiliaryGraph.

    ``edge_flow[e]`` is the flow on forward edge e (same order as
    ``AuxiliaryGraph.edges()``); ``value`` is the total flow out of the source.
    """

    value: int
    edge_flow: tuple


@dataclass(frozen=True)
class Linking:
    """Vertex-disjoint simple direct paths from an available to a target set.

    Each path is a tuple of original node labels; a node both available and
    targeted may form a length-0 path ``(v,)``.
    """

    paths: tuple

    @property
    def size(self) -> int:
        return len(self.paths)

    def start_nodes(self) -> tuple:
        return tuple(path[0] for path in self.paths)

    def as_lists(self) -> list[list]:
        return [list(p) for p in self.paths]


class StateGraph(Mapping):
    """Read-only successor mapping of a digraph on the nodes 1..n, held as
    its edge arrays.

    ``tails`` and ``heads`` are the 0-based endpoints of the distinct edges,
    sorted by tail, then head; the caller hands them over read-only and they
    are shared, never copied.  Looking node v up returns its successors as a
    tuple of ints, as a successor dict does; the CSR kernel reads the arrays
    directly instead.
    """

    __slots__ = ("labels", "tails", "heads", "_starts")

    def __init__(self, n: int, tails: np.ndarray, heads: np.ndarray):
        self.labels = range(1, n + 1)
        self.tails = tails
        self.heads = heads
        self._starts = None  # per node, its first edge; built on first lookup

    def __len__(self) -> int:
        return len(self.labels)

    def __iter__(self):
        return iter(self.labels)

    def __contains__(self, node) -> bool:
        try:
            return operator.index(node) in self.labels
        except TypeError:
            return False

    def __getitem__(self, node) -> tuple[int, ...]:
        if node not in self:
            raise KeyError(node)
        if self._starts is None:
            self._starts = np.searchsorted(self.tails,
                                           np.arange(len(self.labels) + 1))
        k = operator.index(node) - 1
        return tuple((self.heads[self._starts[k]:self._starts[k + 1]] + 1)
                     .tolist())


# ---------------------------------------------------------------------------
# Graph preprocessing
# ---------------------------------------------------------------------------

def preprocess_direct(
    graph: Mapping[Node, Sequence[Node]],
    available: Iterable[Node],
    targets: Iterable[Node],
) -> dict:
    """Remove every edge entering the available set or leaving the target set.

    Direct available-to-target paths never use such edges, so this is lossless
    for linking and separator computations, and it makes every remaining
    available-to-target path direct by construction.
    """
    a_set = set(available)
    t_set = set(targets)
    out: dict = {}
    for u, succs in graph.items():
        if u in t_set:
            out[u] = ()
        else:
            out[u] = tuple(v for v in succs if v not in a_set)
    return out


# ---------------------------------------------------------------------------
# Network construction
# ---------------------------------------------------------------------------

def _build_arrays(
    graph: Mapping[Node, Sequence[Node]],
    available: Sequence[Node],
    targets: Sequence[Node],
    inf_cap: int,
    source_cap: int,
):
    """Shared constructor for split-node flow networks.

    Arc 2e is the forward direction of edge e, arc 2e+1 its zero-capacity
    reverse.  Construction order (splits, graph edges sorted, source arcs,
    sink arcs, each ascending) fixes the BFS tie-break deterministically.
    """
    labels = sorted(graph)
    index = {lab: k for k, lab in enumerate(labels)}
    n_aux = 2 * len(labels) + 2
    s_id = n_aux - 2
    t_id = n_aux - 1

    adj: list[list[tuple[int, int]]] = [[] for _ in range(n_aux)]
    head: list[int] = []
    cap: list[int] = []
    happend = head.append
    cappend = cap.append

    def add(u: int, v: int, c: int) -> int:
        e = len(head)
        adj[u].append((e, v))
        happend(v)
        cappend(c)
        adj[v].append((e + 1, u))
        happend(u)
        cappend(0)
        return e

    for lab in labels:
        k2 = 2 * index[lab]
        add(k2, k2 + 1, 1)
    for u in labels:
        ku = 2 * index[u] + 1
        for v in sorted(graph[u]):
            add(ku, 2 * index[v], inf_cap)
    for a in sorted(set(available)):
        add(s_id, 2 * index[a], source_cap)
    sink_arcs = []
    for t in sorted(set(targets)):
        sink_arcs.append(add(2 * index[t] + 1, t_id, inf_cap))

    return labels, index, adj, head, cap, sink_arcs


def _check_nodes(graph: Mapping[Node, Sequence[Node]], nodes: Iterable[Node]):
    for v in nodes:
        if v not in graph:
            raise ValueError(f"node {v!r} not in graph")


def build_auxiliary_graph(
    graph: Mapping[Node, Sequence[Node]],
    available: Iterable[Node],
    targets: Iterable[Node],
) -> AuxiliaryGraph:
    """Build the node-split flow network for a digraph and its A/T sets.

    The graph is normally preprocessed with :func:`preprocess_direct` first so
    that extracted flow paths are direct.  Node count is 2n+2 and forward edge
    count is n + |edges| + |A| + |T|.  The "infinite" capacity is the finite
    sentinel |T| + 1, which exceeds any feasible flow value.
    """
    available = tuple(sorted(set(available)))
    targets = tuple(sorted(set(targets)))
    _check_nodes(graph, available + targets)
    inf_cap = len(targets) + 1
    labels, _, adj, head, cap, sink_arcs = _build_arrays(
        graph, available, targets, inf_cap, inf_cap
    )
    return AuxiliaryGraph(
        labels=tuple(labels),
        available=available,
        targets=targets,
        infinite_capacity=inf_cap,
        _adj=tuple(tuple(a) for a in adj),
        _head=tuple(head),
        _cap=tuple(cap),
        _sink_arcs=tuple(sink_arcs),
    )


# ---------------------------------------------------------------------------
# Max-flow kernel
# ---------------------------------------------------------------------------

def _solve(adj, head, res, s_id, t_id, sink_arcs):
    """Augment ``res`` (residual capacities, mutated) to a maximum flow.

    Breadth-first augmenting-path search from the source; from each BFS tree
    as many sink in-arcs as possible are harvested (every parent chain is
    re-verified against current residuals, so each applied chain is a valid
    augmenting path).  Harvesting only reduces the number of full BFS passes;
    the final BFS doubles as the labelling pass, whose reachable set is
    returned (it is the unique min-cut source set of the max flow).

    Returns (flow value, visited array of the final exhausted BFS).
    """
    value = 0
    n_aux = len(adj)
    while True:
        parent = [-1] * n_aux
        parent[s_id] = -2
        queue = deque([s_id])
        pop = queue.popleft
        push = queue.append
        while queue:
            u = pop()
            for arc, v in adj[u]:
                if parent[v] < 0 and res[arc] > 0:
                    parent[v] = arc
                    push(v)
        if parent[t_id] < 0:
            return value, parent
        for sink_arc in sink_arcs:
            tail = head[sink_arc ^ 1]
            if res[sink_arc] <= 0 or parent[tail] < 0:
                continue
            chain = [sink_arc]
            v = tail
            ok = True
            while v != s_id:
                arc = parent[v]
                if res[arc] <= 0:
                    ok = False
                    break
                chain.append(arc)
                v = head[arc ^ 1]
            if not ok:
                continue
            bottleneck = min(res[arc] for arc in chain)
            if bottleneck <= 0:
                continue
            for arc in chain:
                res[arc] -= bottleneck
                res[arc ^ 1] += bottleneck
            value += bottleneck


def max_flow(aux: AuxiliaryGraph) -> Flow:
    """Compute an integral maximum s-t flow on an auxiliary graph.

    Deterministic: the BFS visits arcs in the fixed construction order
    (forward arcs ascending by head node), so identical inputs yield
    identical flows.
    """
    res = list(aux._cap)
    value, _ = _solve(aux._adj, aux._head, res, aux.source_id, aux.sink_id,
                      aux._sink_arcs)
    edge_flow = tuple(
        aux._cap[2 * e] - res[2 * e] for e in range(aux.edge_count)
    )
    return Flow(value=value, edge_flow=edge_flow)


def _search(adj, res, queue: list) -> bytearray:
    """Mask of the nodes reachable from the distinct nodes ``queue`` along
    the arcs with residual capacity left in ``res``."""
    seen = bytearray(len(adj))
    for u in queue:
        seen[u] = 1
    for u in queue:
        for arc, v in adj[u]:
            if not seen[v] and res[arc] > 0:
                seen[v] = 1
                queue.append(v)
    return seen


def min_cut_source_set(aux: AuxiliaryGraph, flow: Flow) -> frozenset:
    """Nodes reachable from s in the residual graph of a maximum flow.

    This is the source set of the minimal cut closest to the source; it is
    unique for a given network regardless of how the maximum flow was found.
    Returned as public node names: ``"s"`` plus ``(label, "-"/"+")`` pairs.

    Raises:
        PreconditionError: if ``flow`` is not maximum (the sink is reachable).
    """
    res = list(aux._cap)
    for e, f in enumerate(flow.edge_flow):
        res[2 * e] -= f
        res[2 * e + 1] += f
    visited = _search(aux._adj, res, [aux.source_id])
    if visited[aux.sink_id]:
        raise PreconditionError("flow is not maximum: an augmenting path exists")
    return frozenset(aux.node_label(i) for i in range(aux.node_count)
                     if visited[i])


def _flow_paths(labels, head, edge_flow, s_id: int, t_id: int) -> list:
    """The source-sink paths of an integral flow on a split network held as
    arc lists (arc 2e is the forward direction of edge e, as
    :func:`_build_arrays` builds them), each as the tuple of its labels.

    Walks arcs with flow from the source, consuming it; unit split
    capacities make every walk node-simple and terminating.
    """
    remaining = list(edge_flow)
    # forward-edge successor lists per aux node, in construction order
    out_edges: list[list[int]] = [[] for _ in range(2 * len(labels) + 2)]
    for e in range(len(remaining)):
        out_edges[head[2 * e + 1]].append(e)

    paths = []
    for e0 in out_edges[s_id]:
        while remaining[e0] > 0:
            remaining[e0] -= 1
            node = head[2 * e0]
            path = []
            while node != t_id:
                if node % 2 == 0:
                    path.append(labels[node // 2])
                nxt = next((e for e in out_edges[node] if remaining[e] > 0), None)
                if nxt is None:
                    raise PreconditionError(
                        "flow violates conservation; cannot decompose"
                    )
                remaining[nxt] -= 1
                node = head[2 * nxt]
            paths.append(tuple(path))
    return paths


def extract_linking(aux: AuxiliaryGraph, flow: Flow) -> Linking:
    """Decompose an integral maximum flow into vertex-disjoint paths; on an
    auxiliary graph built from a preprocessed digraph they are direct."""
    return Linking(paths=tuple(_flow_paths(aux.labels, aux._head, flow.edge_flow,
                                           aux.source_id, aux.sink_id)))


def _trimmed(paths, available, targets) -> Linking:
    """The linking read off flow paths, which start in A and end in T: each
    path cut to run from its last available node to the first target after
    it, so direct, and the paths ordered by start node."""
    cut = []
    for path in paths:
        first = max(k for k, v in enumerate(path) if v in available)
        last = next(k for k in range(first, len(path)) if path[k] in targets)
        cut.append(path[first:last + 1])
    cut.sort(key=operator.itemgetter(0))
    return Linking(paths=tuple(cut))


class _PyFlow:
    """Maximum flow on the network of the high-level operations (see the
    module docstring), held as the arc lists of :func:`_build_arrays` and
    solved by :func:`_solve`."""

    def __init__(self, graph, available: tuple, targets: tuple):
        _check_nodes(graph, available + targets)
        self.available, self.targets = set(available), set(targets)
        (self.labels, self.index, self.adj, self.head, self.cap,
         sink_arcs) = _build_arrays(graph, available, targets,
                                    len(self.targets) + 1, 1)
        self.source = 2 * len(self.labels)
        self.res = list(self.cap)
        self.value, self.parent = _solve(self.adj, self.head, self.res,
                                         self.source, self.source + 1,
                                         sink_arcs)

    def essential(self) -> frozenset:
        return frozenset(a for a in self.available
                         if self.parent[2 * self.index[a]] < 0)

    def separator(self) -> frozenset:
        # every source arc open: a search from s and every available entry half
        seen = _search(self.adj, self.res, [self.source] + [
            2 * self.index[a] for a in self.available])
        return frozenset(lab for k, lab in enumerate(self.labels)
                         if seen[2 * k] and not seen[2 * k + 1])

    def linking(self) -> Linking:
        flow = [c - r for c, r in zip(self.cap[::2], self.res[::2])]
        return _trimmed(_flow_paths(self.labels, self.head, flow, self.source,
                                    self.source + 1),
                        self.available, self.targets)

    def reaches_target(self) -> frozenset:
        """The nodes with a path to a target: one backward search from t."""
        # the reverse arcs alone are open: the graph's edges taken backwards
        seen = _search(self.adj, [0, 1] * (len(self.head) // 2),
                       [self.source + 1])
        return frozenset(lab for k, lab in enumerate(self.labels)
                         if seen[2 * k])


# ---------------------------------------------------------------------------
# CSR kernel for large networks
# ---------------------------------------------------------------------------

def _is_large(graph: Mapping[Node, Sequence[Node]]) -> bool:
    """Whether networks over ``graph`` are solved by the CSR kernel."""
    if isinstance(graph, StateGraph):
        return len(graph) + len(graph.tails) >= CSR_MIN_ARCS
    return len(graph) + sum(map(len, graph.values())) >= CSR_MIN_ARCS


def _flatten(graph: Mapping[Node, Sequence[Node]]):
    """Labels ascending (a range for a StateGraph), a label -> position mapper
    (see :func:`_indexer`), and the distinct edges as (tail, head) position
    arrays ordered by tail, then head.  A StateGraph hands over its own
    arrays."""
    if isinstance(graph, StateGraph):
        return graph.labels, _indexer(graph.labels), graph.tails, graph.heads
    labels = sorted(graph)
    n = len(labels)
    positions = _indexer(labels)
    succs = list(map(graph.__getitem__, labels))
    counts = np.fromiter(map(len, succs), np.int64, n)
    heads = positions(chain.from_iterable(succs), int(counts.sum()))
    keys = np.repeat(np.arange(n, dtype=np.int64), counts) * n + heads
    keys.sort()
    keys = keys[np.r_[True, keys[1:] != keys[:-1]]] if len(keys) else keys
    return labels, positions, keys // max(n, 1), keys % max(n, 1)


def _indexer(labels):
    """A function from an iterable of nodes to their positions in the
    ascending ``labels`` (an int64 array), raising ValueError for a node that
    is not a label.  Positions in a range are found by subtraction, any
    others through a dict."""
    if isinstance(labels, range):
        first, n = labels.start, len(labels)

        def positions(nodes, count=-1):
            pos = np.fromiter(nodes, np.int64, count) - first
            missing = (pos < 0) | (pos >= n)
            if missing.any():
                raise ValueError(f"node {int(pos[missing][0]) + first} not in graph")
            return pos
        return positions
    index = {lab: k for k, lab in enumerate(labels)}

    def positions(nodes, count=-1):
        try:
            return np.fromiter(map(index.__getitem__, nodes), np.int64, count)
        except KeyError as exc:
            raise ValueError(f"node {exc.args[0]!r} not in graph") from None
    return positions


def _labels_at(labels, pos: np.ndarray) -> list:
    """The labels at the positions ``pos``, in that order."""
    if isinstance(labels, range):
        return (pos + labels.start).tolist()
    return [labels[k] for k in pos.tolist()]


class _CsrFlow:
    """Maximum flow on the network of the high-level operations (see the
    module docstring), held as CSR arrays and solved by scipy's Dinic.

    Numbering as in AuxiliaryGraph: 2k and 2k+1 are the entry and exit
    halves of the k-th label, 2n the source and 2n+1 the sink.
    """

    def __init__(self, graph, available: tuple, targets: tuple):
        labels, positions, tails, heads = _flatten(graph)
        sources, sinks = np.unique(positions(available)), np.unique(positions(targets))
        n = len(labels)
        self.labels, self.sources, self.sinks = labels, sources, sinks
        self.source, self.sink = 2 * n, 2 * n + 1
        is_sink = np.zeros(n, dtype=bool)
        is_sink[sinks] = True
        out_edges = np.bincount(tails, minlength=n)
        row_len = np.zeros(2 * n + 2, dtype=np.int64)
        row_len[0:2 * n:2] = 1
        row_len[1:2 * n:2] = out_edges + is_sink
        row_len[self.source] = len(sources)
        indptr = np.zeros(2 * n + 3, dtype=np.int64)
        np.cumsum(row_len, out=indptr[1:])
        indices = np.empty(indptr[-1], dtype=np.int32)
        cap = np.full(indptr[-1], len(sinks) + 1, dtype=np.int32)
        split = indptr[0:2 * n:2]
        indices[split] = np.arange(1, 2 * n, 2)
        cap[split] = 1
        # an exit half's row holds its edge arcs by head, then its sink arc
        first_edge = np.cumsum(out_edges) - out_edges
        rank = np.arange(len(tails)) - first_edge[tails]
        indices[indptr[2 * tails + 1] + rank] = 2 * heads
        indices[indptr[2 * sinks + 2] - 1] = self.sink
        indices[indptr[self.source]:] = 2 * sources
        cap[indptr[self.source]:] = 1
        self.capacity = csr_array((cap, indices, indptr.astype(np.int32)),
                                  shape=(2 * n + 2, 2 * n + 2))
        # Dinic searches breadth-first from the terminal it starts at, in
        # every phase, so it is started at the smaller terminal set: with
        # many sources and few sinks the sources' side spans most of a large
        # graph, the sinks' side does not.  From the sink it solves the
        # reversed network, and the flow is antisymmetric, so the forward
        # flow is the negated reverse one.
        if len(sinks) < len(sources):
            result = maximum_flow(csr_array(self.capacity.T), self.sink,
                                  self.source, method="dinic")
            self.flow = -result.flow
        else:
            result = maximum_flow(self.capacity, self.source, self.sink,
                                  method="dinic")
            self.flow = result.flow
        self.value = int(result.flow_value)

    def _labelled(self, open_sources: bool) -> np.ndarray:
        """Mask of the nodes reachable from the source in the residual graph,
        counting every source arc as open if ``open_sources``."""
        flow = self.flow
        if open_sources:
            # leaving out the flow out of s keeps every source arc open
            flow = flow.copy()
            flow.data[flow.indptr[self.source]:flow.indptr[self.source + 1]] = 0
        residual = self.capacity - flow
        residual.eliminate_zeros()  # csgraph takes explicit zeros for arcs
        return _reached(residual, self.source)

    def essential(self) -> frozenset:
        mask = self._labelled(open_sources=False)
        return frozenset(_labels_at(self.labels,
                                    self.sources[~mask[2 * self.sources]]))

    def separator(self) -> frozenset:
        mask = self._labelled(open_sources=True)
        cut = mask[0:self.source:2] & ~mask[1:self.source:2]
        return frozenset(_labels_at(self.labels, np.flatnonzero(cut)))

    def linking(self) -> Linking:
        """The flow's paths, trimmed.  Every split arc carries at most one
        unit, so each half node used by the flow has one successor on it."""
        flow = self.flow
        carrying = flow.data > 0
        tails = np.repeat(np.arange(self.source + 2), np.diff(flow.indptr))
        succ = np.full(self.source + 2, -1, dtype=np.int64)
        succ[tails[carrying]] = flow.indices[carrying]
        lo, hi = flow.indptr[self.source], flow.indptr[self.source + 1]
        succ = succ.tolist()
        paths = []
        for node in flow.indices[lo:hi][carrying[lo:hi]].tolist():
            path = []
            while node != self.sink:
                if node % 2 == 0:
                    path.append(self.labels[node // 2])
                node = succ[node]
            paths.append(tuple(path))
        return _trimmed(paths, set(_labels_at(self.labels, self.sources)),
                        set(_labels_at(self.labels, self.sinks)))

    def reaches_target(self) -> frozenset:
        """The nodes with a path to a target: one backward search from t."""
        mask = _reached(csr_array(self.capacity.T), self.sink)
        return frozenset(_labels_at(self.labels,
                                    np.flatnonzero(mask[0:self.source:2])))


def reachable(n: int, tails: np.ndarray, heads: np.ndarray,
              starts: np.ndarray) -> np.ndarray:
    """Mask of the nodes 0..n-1 reachable from the distinct nodes ``starts``
    along the arcs ``tails[k] -> heads[k]``: one breadth-first search from a
    virtual node n with an arc to every start."""
    graph = csr_array(
        (np.ones(len(tails) + len(starts), dtype=np.int8),
         (np.concatenate([tails, np.full(len(starts), n)]),
          np.concatenate([heads, starts]))),
        shape=(n + 1, n + 1),
    )
    return _reached(graph, n)[:n]


def _reached(graph: csr_array, start: int) -> np.ndarray:
    """Mask of the nodes of ``graph`` reachable from ``start``."""
    mask = np.zeros(graph.shape[0], dtype=bool)
    mask[breadth_first_order(graph, start, return_predecessors=False)] = True
    return mask


# ---------------------------------------------------------------------------
# High-level operations
# ---------------------------------------------------------------------------

def _solved(graph, available, targets) -> _PyFlow | _CsrFlow:
    """The network of the high-level operations (see the module docstring)
    over ``graph``, solved by the kernel that its size calls for."""
    available, targets = tuple(available), tuple(targets)
    if _is_large(graph):
        return _CsrFlow(graph, available, targets)
    return _PyFlow(graph, available, targets)


def max_linking_size(
    graph: Mapping[Node, Sequence[Node]],
    available: Iterable[Node],
    targets: Iterable[Node],
) -> int:
    """Size of a maximum set of vertex-disjoint direct available-target paths."""
    return _solved(graph, available, targets).value


def maximum_linking(
    graph: Mapping[Node, Sequence[Node]],
    available: Iterable[Node],
    targets: Iterable[Node],
) -> Linking:
    """A maximum linking itself (deterministic witness): the flow's paths,
    each trimmed to run from its last available node to the first target
    after it, ordered by start node."""
    return _solved(graph, available, targets).linking()


def minimal_left_separator(
    graph: Mapping[Node, Sequence[Node]],
    available: Iterable[Node],
    targets: Iterable[Node],
) -> frozenset:
    """The unique minimal separator closest to the available set.

    Node v belongs to it iff v- is labelled and v+ is not, where the
    labelling is the residual search from s with every source arc counted
    as open.  Its size equals the maximum linking size, and removing it
    disconnects the available set from the target set.
    """
    return _solved(graph, available, targets).separator()


def essential_start_analysis(
    graph: Mapping[Node, Sequence[Node]],
    available: Iterable[Node],
    targets: Iterable[Node],
) -> tuple[int, frozenset, frozenset]:
    """Maximum steering capacity and the unavoidable start nodes.

    Returns ``(value, essential, reaches_target)`` where ``value`` is the
    maximum number of vertex-disjoint paths that can start at distinct
    available nodes and end at distinct target nodes (intermediate nodes of
    either set may be traversed), ``essential`` is the set of available nodes
    without which that value drops, and ``reaches_target`` is the set of all
    nodes with a path to the target set.

    An available node a is essential iff its entry half a- is not labelled.
    A labelled a- is reached either over its unused source arc (as for
    every node that cannot reach T, which carries no flow) or by a residual
    path that, with the reverse source arc, forms a cycle rerouting a's path
    elsewhere; an unlabelled a- lies on a path of every maximum family of
    disjoint paths.
    """
    net = _solved(graph, available, targets)
    return net.value, net.essential(), net.reaches_target()
