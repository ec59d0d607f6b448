"""Combinatorial kernels: node-split flow networks, max flow, separators, linkings.

The central construction is the auxiliary graph: every node v of a digraph is
split into v- and v+ joined by a unit-capacity edge, original edges become
(u+, w-) edges, and a dummy source s (sink t) is wired to the available
(target) set.  Integral max flow on this network equals the maximum number of
vertex-disjoint direct paths from the available set to the target set, and the
source side of the minimal cut found by the labelling procedure yields the
minimal left separator.

All operations are pure functions; inputs are never mutated.  Graphs are
successor mappings ``{node: sequence_of_successors}`` whose keys must cover
every node and be mutually orderable (ints, or like-shaped tuples): plain
dicts, or a :class:`StateGraph`, which holds a digraph on nodes 1..n as its
edge arrays.

Two kernels solve these networks.  Small ones go through the pure-Python
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

Node = Hashable

SOURCE = "s"
SINK = "t"

# Split plus edge arcs (n + |E|) from which networks are solved on CSR arrays.
# Measured on random digraphs with three edges per node, |A| = n/5, |T| = 5
# (best of 20 calls, one core): at n = 100 (400 arcs) the Python kernel is
# faster for every operation but linking (0.6 vs 0.9 ms for the separator,
# 0.7 vs 1.1 ms for the essential analysis); from n = 250 (1000 arcs) the CSR
# kernel is at least as fast for all four, and at n = 400 it takes about half
# the time.
CSR_MIN_ARCS = 1000


class PreconditionError(RuntimeError):
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
    for v in available + targets:
        if v not in graph:
            raise ValueError(f"node {v!r} not in graph")
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


def _residual_from_flow(aux: AuxiliaryGraph, flow: Flow) -> list:
    res = list(aux._cap)
    for e, f in enumerate(flow.edge_flow):
        if f:
            res[2 * e] -= f
            res[2 * e + 1] += f
    return res


def min_cut_source_set(aux: AuxiliaryGraph, flow: Flow) -> frozenset:
    """Nodes reachable from s in the residual graph of a maximum flow.

    This is the source set of the minimal cut closest to the source; it is
    unique for a given network regardless of how the maximum flow was found.
    Returned as public node names: ``"s"`` plus ``(label, "-"/"+")`` pairs.

    Raises:
        PreconditionError: if ``flow`` is not maximum (the sink is reachable).
    """
    res = _residual_from_flow(aux, flow)
    s_id, t_id = aux.source_id, aux.sink_id
    visited = bytearray(aux.node_count)
    visited[s_id] = 1
    queue = deque([s_id])
    while queue:
        u = queue.popleft()
        for arc, v in aux._adj[u]:
            if not visited[v] and res[arc] > 0:
                if v == t_id:
                    raise PreconditionError(
                        "flow is not maximum: an augmenting path exists"
                    )
                visited[v] = 1
                queue.append(v)
    return frozenset(
        aux.node_label(i) for i in range(aux.node_count) if visited[i]
    )


def extract_linking(aux: AuxiliaryGraph, flow: Flow) -> Linking:
    """Decompose an integral maximum flow into vertex-disjoint paths.

    Walks saturated arcs from the source, consuming flow, and merges split
    nodes back into original labels.  Unit split capacities make every walk
    node-simple and terminating.  On an auxiliary graph built from a
    preprocessed digraph the resulting paths are direct.
    """
    remaining = list(flow.edge_flow)
    # forward-edge successor lists per aux node, in construction order
    out_edges: list[list[int]] = [[] for _ in range(aux.node_count)]
    for e in range(aux.edge_count):
        tail = aux._head[2 * e + 1]
        out_edges[tail].append(e)

    s_id, t_id = aux.source_id, aux.sink_id
    paths = []
    for e0 in out_edges[s_id]:
        while remaining[e0] > 0:
            remaining[e0] -= 1
            node = aux._head[2 * e0]
            path = []
            while node != t_id:
                if node % 2 == 0:
                    path.append(aux.labels[node // 2])
                nxt = None
                for e in out_edges[node]:
                    if remaining[e] > 0:
                        nxt = e
                        break
                if nxt is None:
                    raise PreconditionError(
                        "flow violates conservation; cannot decompose"
                    )
                remaining[nxt] -= 1
                node = aux._head[2 * nxt]
            paths.append(tuple(path))
    return Linking(paths=tuple(paths))


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
    """Dinic maximum flow on the node-split network, held as CSR arrays.

    Numbering as in AuxiliaryGraph: 2k and 2k+1 are the entry and exit
    halves of the k-th label, 2n the source and 2n+1 the sink.  Edge and sink
    arcs get capacity |T| + 1, split arcs 1, source arcs ``source_cap``.
    """

    def __init__(self, labels, tails, heads, sources, sinks, source_cap):
        n = len(labels)
        self.labels = labels
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
        cap[indptr[self.source]:] = source_cap
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

    def labelled(self) -> np.ndarray:
        """Mask of the nodes reachable from the source in the residual graph."""
        residual = self.capacity - self.flow
        residual.eliminate_zeros()  # csgraph takes explicit zeros for arcs
        mask = np.zeros(self.source + 2, dtype=bool)
        mask[breadth_first_order(residual, self.source,
                                 return_predecessors=False)] = True
        return mask

    def separator(self) -> frozenset:
        mask = self.labelled()
        cut = mask[0:self.source:2] & ~mask[1:self.source:2]
        return frozenset(_labels_at(self.labels, np.flatnonzero(cut)))

    def linking(self) -> Linking:
        """Paths read by walking arcs with positive flow from the source.

        Every split arc carries at most one unit, so each half node used by
        the flow has exactly one successor along it.
        """
        flow = self.flow
        carrying = flow.data > 0
        tails = np.repeat(np.arange(self.source + 2), np.diff(flow.indptr))
        succ = np.full(self.source + 2, -1, dtype=np.int64)
        succ[tails[carrying]] = flow.indices[carrying]
        lo, hi = flow.indptr[self.source], flow.indptr[self.source + 1]
        starts = np.sort(flow.indices[lo:hi][carrying[lo:hi]])
        succ = succ.tolist()
        paths = []
        for node in starts.tolist():
            path = []
            while node != self.sink:
                if node % 2 == 0:
                    path.append(self.labels[node // 2])
                node = succ[node]
            paths.append(tuple(path))
        return Linking(paths=tuple(paths))


def _csr_linking_flow(
    graph: Mapping[Node, Sequence[Node]],
    available: Iterable[Node],
    targets: Iterable[Node],
) -> _CsrFlow:
    """The linking network of :func:`build_auxiliary_graph`, solved on CSR
    arrays, with :func:`preprocess_direct` applied as edge masks."""
    labels, positions, tails, heads = _flatten(graph)
    sources, sinks = np.unique(positions(available)), np.unique(positions(targets))
    in_a = np.zeros(len(labels), dtype=bool)
    in_a[sources] = True
    in_t = np.zeros(len(labels), dtype=bool)
    in_t[sinks] = True
    keep = ~in_t[tails] & ~in_a[heads]
    return _CsrFlow(labels, tails[keep], heads[keep], sources, sinks,
                    len(sinks) + 1)


def _csr_essential(
    graph: Mapping[Node, Sequence[Node]],
    available: Iterable[Node],
    targets: Iterable[Node],
) -> tuple[int, frozenset, frozenset]:
    """:func:`essential_start_analysis` on CSR arrays."""
    labels, positions, tails, heads = _flatten(graph)
    sources, sinks = np.unique(positions(available)), np.unique(positions(targets))
    n = len(labels)
    # reverse reachability to T, from a virtual node n pointing at every target
    reverse = csr_array(
        (np.ones(len(heads) + len(sinks), dtype=np.int8),
         (np.concatenate([heads, np.full(len(sinks), n)]),
          np.concatenate([tails, sinks]))),
        shape=(n + 1, n + 1),
    )
    reach = np.zeros(n + 1, dtype=bool)
    reach[breadth_first_order(reverse, n, return_predecessors=False)] = True
    reach = reach[:n]
    reaches = frozenset(_labels_at(labels, np.flatnonzero(reach)))
    live = sources[reach[sources]]
    if not len(live):
        return 0, frozenset(), reaches
    # arcs into nodes that cannot reach T carry no flow and reroute nothing
    keep = reach[heads]
    net = _CsrFlow(labels, tails[keep], heads[keep], live, sinks, 1)
    essential = live[~net.labelled()[2 * live]]
    return net.value, frozenset(_labels_at(labels, essential)), reaches


# ---------------------------------------------------------------------------
# High-level operations
# ---------------------------------------------------------------------------

def max_linking_size(
    graph: Mapping[Node, Sequence[Node]],
    available: Iterable[Node],
    targets: Iterable[Node],
) -> int:
    """Size of a maximum set of vertex-disjoint direct available-target paths."""
    if _is_large(graph):
        return _csr_linking_flow(graph, available, targets).value
    pre = preprocess_direct(graph, available, targets)
    aux = build_auxiliary_graph(pre, available, targets)
    return max_flow(aux).value


def maximum_linking(
    graph: Mapping[Node, Sequence[Node]],
    available: Iterable[Node],
    targets: Iterable[Node],
) -> Linking:
    """A maximum linking itself (deterministic witness)."""
    if _is_large(graph):
        return _csr_linking_flow(graph, available, targets).linking()
    pre = preprocess_direct(graph, available, targets)
    aux = build_auxiliary_graph(pre, available, targets)
    return extract_linking(aux, max_flow(aux))


def minimal_left_separator(
    graph: Mapping[Node, Sequence[Node]],
    available: Iterable[Node],
    targets: Iterable[Node],
) -> frozenset:
    """The unique minimal separator closest to the available set.

    Computed as the split edges crossing the min-cut source set of the
    auxiliary graph: node v belongs to the separator iff v- is labelled and
    v+ is not.  Its size equals the maximum linking size, and removing it
    disconnects the available set from the target set.
    """
    if _is_large(graph):
        return _csr_linking_flow(graph, available, targets).separator()
    pre = preprocess_direct(graph, available, targets)
    aux = build_auxiliary_graph(pre, available, targets)
    res = list(aux._cap)
    _, parent = _solve(aux._adj, aux._head, res, aux.source_id, aux.sink_id,
                       aux._sink_arcs)
    sep = []
    for k, lab in enumerate(aux.labels):
        if parent[2 * k] >= 0 and parent[2 * k + 1] < 0:
            sep.append(lab)
    return frozenset(sep)


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

    Both kernels compute it in the same steps.  A backward search from the
    target set over the raw graph gives ``reaches_target``; the available
    nodes in it are the live ones, and with none the value is 0.  The
    network is built over the nodes that reach T, with only the arcs between
    them, a unit-capacity source arc into each live node and a sink arc out
    of every target.  It differs from the linking network in two ways: no
    preprocessing (paths may pass through unused available nodes) and the
    unit source arcs.  After one max flow, a live node a is essential iff
    its entry half a- is not labelled (not reachable from s in the residual
    graph).  A labelled a- is reached either over its unused source arc or
    by a residual path that, with the reverse source arc, forms a cycle
    rerouting a's path elsewhere; an unlabelled a- lies on a path of every
    maximum family of disjoint paths.
    """
    if _is_large(graph):
        return _csr_essential(graph, available, targets)
    targets = set(targets)

    # reverse reachability to the target set (raw graph)
    radj: dict = {v: [] for v in graph}
    for u, succs in graph.items():
        for v in succs:
            radj[v].append(u)
    reaches = set(targets)
    queue = deque(targets)
    while queue:
        u = queue.popleft()
        for v in radj[u]:
            if v not in reaches:
                reaches.add(v)
                queue.append(v)
    live = reaches.intersection(available)
    if not live:
        return 0, frozenset(), frozenset(reaches)

    # arcs into nodes that cannot reach T carry no flow and reroute nothing
    pruned = {v: [w for w in graph[v] if w in reaches] for v in reaches}
    labels, index, adj, head, cap, sink_arcs = _build_arrays(
        pruned, live, targets, len(targets) + 1, 1
    )
    s_id = 2 * len(labels)
    t_id = s_id + 1
    value, parent = _solve(adj, head, cap, s_id, t_id, sink_arcs)
    essential = frozenset(a for a in live if parent[2 * index[a]] < 0)
    return value, essential, frozenset(reaches)
