"""Combinatorial kernels: node-split flow networks, max flow, separators, linkings.

The central construction is the auxiliary graph: every node v of a digraph is
split into v- and v+ joined by a unit-capacity edge, original edges become
(u+, w-) edges, and a dummy source s (sink t) is wired to the available
(target) set.  Integral max flow on this network equals the maximum number of
vertex-disjoint direct paths from the available set to the target set.

All operations are pure functions; inputs are never mutated.  Graphs are
successor mappings ``{node: sequence_of_successors}`` whose keys must cover
every node and be mutually orderable (ints, or like-shaped tuples): plain
dicts, or a :class:`StateGraph`, which holds a digraph on its ascending
labels as edge arrays.

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

Both kernels (below) hold a maximum flow as at most |T| vertex-disjoint
paths, by their nodes (:class:`_NodeFlow`).  A node that no path uses has an
open split arc and no arc carrying flow, so a residual search reaches its
entry half exactly when it reaches its exit half.  A labelling is then one
breadth-first search on the node graph: the graph's successor index with the
path nodes' rows changed, plus an exit half per path node and s.  One search
serves both labellings: opening the source arcs that carry flow adds only
the paths' first entry halves, whose one residual arc leads back to s.
Reaching T ignores the flow: one search over the predecessors.

One flow answers all four questions, so a StateGraph over read-only edge
arrays, such as a system's ``state_adjacency()``, keeps the last CSR-sized
one, keyed by the positions of A and T (:func:`_solved`), and the flow
keeps its labelling and its reach of T once searched: a later separator
or classification on those sets searches nothing.  A labelling question
(separator, essential set) replaces it; a question on the linking's size
or paths alone keeps its flow only if none is kept, so checks on other
sets do not evict the system's own.  Small flows are not kept; a dict, or a
StateGraph over writable arrays, which may change, keeps none.

The sets of available nodes that disjoint paths link into T are the
independent sets of a gammoid, so the greedy in ascending order picks the
lexicographically smallest maximal one (:func:`lexicographic_basis`).  It
grows a flow from zero with every source arc closed: candidate a is taken
iff a- reaches the sink in the residual graph, and one unit is then pushed
along that path.  A rejected candidate leaves the residual graph as it was,
so one backward search from the sink serves every candidate up to the next
one taken.  The backward search is a labelling of the flow's reversed view:
the predecessors, each path reversed, every sink arc open.  Run over every
source, the greedy is Ford-Fulkerson, so its flow is maximum.

Every network, the high-level operations' and :func:`build_auxiliary_graph`'s
alike, is built from one reading of its graph, :func:`_flatten`: the labels
ascending, the ascending distinct positions of A and T, and the distinct
edges as tail and head position arrays sorted by tail, then head.  A
StateGraph hands over its own arrays; a successor dict is sorted and indexed
there.  A node of A, T or a successor list that is not a label raises
``ValueError("node ... not in graph")`` before any network is built.

Two kernels find the flow and search it, chosen by the number of split and
edge arcs.  Below ``CSR_MIN_ARCS`` the list kernel runs the greedy over
every source, so its paths start at the lexicographically first basis, and
every search is a plain-Python breadth-first search over per-node successor
and predecessor lists built once per question (:func:`_edge_lists`,
:func:`_list_search`), with no numpy or scipy call: a question takes about
20 us on a one-node graph and 28-37 us on the 9-node example (best of 3000
calls, one core of a 2-core Xeon host).  From there on, scipy's Dinic
(``scipy.sparse.csgraph.maximum_flow``, about 0.2 ms per call however small
the network) solves the sub-network over balls grown from A and T, along the
graph's successors and predecessors, until the flow's value, a residual cut
or balls that cannot grow prove its flow maximum (:func:`_sub_solved`).  It
runs from the smaller terminal set: with fewer targets than sources, on the
reversed network from the sink.  A network over the whole graph
(:func:`_dinic`) is laid out only when the sub-network would reach half the
nodes.  Both kernels return the same flow value, separator and essential
set; the linkings they return are both maximum but may differ.

A maximum bipartite matching is a linking from the columns into the rows
(:func:`bipartite_matching`): below ``CSR_MIN_ARCS`` the split network of the
lower-level functions is solved for it (:func:`_build_arrays`,
:func:`_solve`), one flow path per matched pair, and from there on scipy's
Hopcroft-Karp finds it.  Each function that calls scipy imports it in its
body, so a process that asks only small questions never loads it.
"""

from __future__ import annotations

import operator
from collections.abc import Hashable, Iterable, Mapping, Sequence
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .errors import NetctrlError

Node = Hashable

SOURCE = "s"
SINK = "t"

# Split plus edge arcs (n + |E|) from which networks are solved on CSR arrays
# and patterns matched by scipy.  Measured on random digraphs with three edges
# per node, |A| = n/5, |T| = 5 (best of 20 calls, one core, three seeds): at
# n = 100 (400 arcs) the list kernel takes 0.13-0.24 ms per operation and the
# CSR kernel 0.55-0.78 ms, at n = 400 (1600 arcs) 0.53-0.81 against 0.66-1.2
# ms; they meet near n = 500-600, and from n = 800 (3200 arcs) the CSR kernel
# is faster for all four (0.71-1.05 against 1.05-1.6 ms).  The cutoff stays
# below that crossover, as it also picks the matching kernel: on a random
# pattern of 200 rows, 200 columns and 600 entries (1000 in all), _solve
# takes 2.3 ms and scipy's Hopcroft-Karp 0.1 ms.
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
    than any feasible flow) elsewhere.  max_flow works on private copies.
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
        return [(self.node_label(self._head[2 * e + 1]),
                 self.node_label(self._head[2 * e]), self._cap[2 * e])
                for e in range(self.edge_count)]


@dataclass(frozen=True)
class Flow:
    """Integral feasible s-t flow on an AuxiliaryGraph: ``edge_flow[e]`` on
    forward edge e (as in ``AuxiliaryGraph.edges()``), ``value`` out of s."""

    value: int
    edge_flow: tuple


@dataclass(frozen=True)
class Linking:
    """Vertex-disjoint simple direct paths from an available to a target
    set, as tuples of node labels; a node in both may be a path ``(v,)``."""

    paths: tuple

    @property
    def size(self) -> int:
        return len(self.paths)

    def start_nodes(self) -> tuple:
        return tuple(path[0] for path in self.paths)

    def as_lists(self) -> list[list]:
        return [list(p) for p in self.paths]


class StateGraph(Mapping):
    """Read-only successor mapping of a digraph on the ascending ``labels``
    (``range(1, n + 1)`` for a state graph), held as its edge arrays.

    ``tails`` and ``heads`` are the positions among the labels of the
    distinct edges' endpoints, sorted by tail, then head; the caller hands
    them over read-only and they are shared, never copied.  Looking a node
    up returns its successors as a tuple of labels, as a successor dict
    does; the flow kernels read the arrays directly instead (see
    :func:`_flatten`).
    """

    __slots__ = ("labels", "tails", "heads", "_lookup", "_index",
                 "_last_solved")

    def __init__(self, labels: Sequence[Node], tails: np.ndarray,
                 heads: np.ndarray):
        self.labels = labels
        self.tails = tails
        self.heads = heads
        # (_indexer's function, per node its first edge), built on first
        # lookup and set in one assignment, which a thread sees whole or not
        self._lookup = None
        # over read-only arrays: _edge_index, set as _lookup is, and the
        # (key, _NodeFlow) kept by _solved
        self._index = self._last_solved = None

    def __len__(self) -> int:
        return len(self.labels)

    def __iter__(self):
        return iter(self.labels)

    def __getitem__(self, node) -> tuple:
        lookup = self._lookup
        if lookup is None:
            lookup = self._lookup = (
                _indexer(self.labels),
                np.searchsorted(self.tails, np.arange(len(self.labels) + 1)))
        position, starts = lookup
        k = position(node)
        return tuple(_labels_at(self.labels, self.heads[starts[k]:starts[k + 1]]))


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

def _flatten(graph: Mapping[Node, Sequence[Node]], available: Iterable[Node],
             targets: Iterable[Node]):
    """The one reading of a graph and its A/T sets (see the module
    docstring): the labels, a range for a StateGraph, the positions of A
    and of T, and the edges' (tail, head) position arrays.  A and T are
    checked first; a node that is not a label raises ValueError.  A
    successor that a dict lists twice is one edge."""
    labels = graph.labels if isinstance(graph, StateGraph) else sorted(graph)
    position = _indexer(labels)
    n = len(labels)
    try:
        sources, sinks = (np.array(sorted(set(map(position, nodes))), dtype=np.int64)
                          for nodes in (available, targets))
        if isinstance(graph, StateGraph):
            return labels, sources, sinks, graph.tails, graph.heads
        keys = np.fromiter((k * n + position(v) for k, u in enumerate(labels)
                            for v in graph[u]), np.int64)
    except KeyError as exc:
        raise ValueError(f"node {exc.args[0]!r} not in graph") from None
    tails, heads = np.divmod(np.unique(keys), max(n, 1))
    return labels, sources, sinks, tails, heads


def _indexer(labels):
    """A function from a node to its position in the ascending ``labels``,
    raising KeyError for a node that is not a label: by subtraction in a
    range, for any node but a bool that ``operator.index`` takes, and else
    through a dict, checking that the label found is of the node's kind
    (the dict also finds a label for an equal bool or float)."""
    if not isinstance(labels, range):
        index = {lab: k for k, lab in enumerate(labels)}

        def position(node) -> int:
            k = index[node]
            if not _same_kind(node, labels[k]):
                raise KeyError(node)
            return k
        return position

    def position(node) -> int:
        try:
            k = -1 if isinstance(node, bool) else operator.index(node) - labels.start
        except TypeError:
            k = -1
        if not 0 <= k < len(labels):
            raise KeyError(node)
        return k
    return position


def _same_kind(node, label) -> bool:
    """Whether ``node``, equal to ``label``, is that label: both bools, both
    integers (numpy's too) or neither, component by component in a tuple."""
    if isinstance(label, tuple):
        return all(map(_same_kind, node, label))
    return type(node) is type(label) or _kind(node) is _kind(label)


def _kind(value):
    if isinstance(value, (bool, np.bool_)):
        return bool
    try:
        operator.index(value)
    except TypeError:
        return None
    return int


def _labels_at(labels, pos) -> list:
    """The labels at the positions ``pos``, an array or a list, in that
    order."""
    if isinstance(pos, list):
        return [labels[k] for k in pos]
    if isinstance(labels, range):
        return (pos + labels.start).tolist()
    return [labels[k] for k in pos.tolist()]


def _build_arrays(n: int, sources, sinks, tails, heads, inf_cap: int):
    """Arc lists of the split network over ``n`` labels, from the position
    arrays of :func:`_flatten`, every arc but the unit split arcs of
    capacity ``inf_cap``: arc 2e is the forward direction of edge e, arc
    2e+1 its zero-capacity reverse.  Construction order (splits, graph
    edges by tail then head, source arcs, sink arcs) fixes the BFS
    tie-break."""
    s_id, t_id = 2 * n, 2 * n + 1
    adj: list[list[tuple[int, int]]] = [[] for _ in range(2 * n + 2)]
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

    for k in range(n):
        add(2 * k, 2 * k + 1, 1)
    for u, v in zip(tails.tolist(), heads.tolist()):
        add(2 * u + 1, 2 * v, inf_cap)
    for a in sources.tolist():
        add(s_id, 2 * a, inf_cap)
    sink_arcs = [add(2 * t + 1, t_id, inf_cap) for t in sinks.tolist()]
    return adj, head, cap, sink_arcs


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
    labels, sources, sinks, tails, heads = _flatten(graph, available, targets)
    inf_cap = len(sinks) + 1
    adj, head, cap, sink_arcs = _build_arrays(
        len(labels), sources, sinks, tails, heads, inf_cap)
    return AuxiliaryGraph(
        labels=tuple(labels), available=tuple(_labels_at(labels, sources)),
        targets=tuple(_labels_at(labels, sinks)), infinite_capacity=inf_cap,
        _adj=tuple(tuple(a) for a in adj), _head=tuple(head), _cap=tuple(cap),
        _sink_arcs=tuple(sink_arcs))


# ---------------------------------------------------------------------------
# Max-flow kernel
# ---------------------------------------------------------------------------

def _solve(adj, head, res, s_id, t_id, sink_arcs):
    """Augment ``res`` (residual capacities, mutated) to a maximum flow;
    return its value and the final, exhausted search from the source.

    From each breadth-first search tree as many sink in-arcs as possible
    are harvested, each parent chain re-verified against the current
    residuals; this only saves passes.  The final search doubles as the
    labelling pass: it reaches the unique min-cut source set.
    """
    value = 0
    while True:
        parent = _search(adj, res, [s_id])
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
            for arc in chain:
                res[arc] -= bottleneck
                res[arc ^ 1] += bottleneck
            value += bottleneck


def max_flow(aux: AuxiliaryGraph) -> Flow:
    """Compute an integral maximum s-t flow on an auxiliary graph;
    deterministic, as the search visits arcs in construction order."""
    res = list(aux._cap)
    value, _ = _solve(aux._adj, aux._head, res, aux.source_id, aux.sink_id,
                      aux._sink_arcs)
    edge_flow = tuple(
        aux._cap[2 * e] - res[2 * e] for e in range(aux.edge_count)
    )
    return Flow(value=value, edge_flow=edge_flow)


def _search(adj, res, queue: list) -> list:
    """Per node, the arc on which a breadth-first search from the distinct
    nodes ``queue`` along the arcs with residual capacity left in ``res``
    reached it: -1 if it did not, -2 for the nodes it started from."""
    via = [-1] * len(adj)
    for u in queue:
        via[u] = -2
    for u in queue:
        for arc, v in adj[u]:
            if via[v] == -1 and res[arc] > 0:
                via[v] = arc
                queue.append(v)
    return via


def min_cut_source_set(aux: AuxiliaryGraph, flow: Flow) -> frozenset:
    """Nodes reachable from s in the residual graph of a maximum flow, as
    ``"s"`` and ``(label, "-"/"+")`` pairs: the source set of the minimal
    cut, the same for every maximum flow.

    Raises:
        PreconditionError: if ``flow`` is not maximum (the sink is reachable).
    """
    res = list(aux._cap)
    for e, f in enumerate(flow.edge_flow):
        res[2 * e] -= f
        res[2 * e + 1] += f
    via = _search(aux._adj, res, [aux.source_id])
    if via[aux.sink_id] != -1:
        raise PreconditionError("flow is not maximum: an augmenting path exists")
    return frozenset(aux.node_label(i) for i in range(aux.node_count)
                     if via[i] != -1)


def _flow_paths(labels, head, edge_flow, s_id: int, t_id: int) -> list:
    """The source-sink paths, as label tuples, of an integral flow on the
    arc lists of :func:`_build_arrays`: walks along arcs with flow from the
    source, consuming it; unit split arcs make each walk node-simple."""
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


# ---------------------------------------------------------------------------
# CSR kernel for large networks
# ---------------------------------------------------------------------------

def _dinic(n: int, sources: np.ndarray, sinks: np.ndarray, tails: np.ndarray,
           heads: np.ndarray) -> list:
    """The paths of a maximum flow on the network of the high-level
    operations (see the module docstring) over ``n`` nodes with the edges
    ``tails[k] -> heads[k]``, sorted by tail, then head, each path as its
    nodes' positions.

    The network is laid out as CSR arrays, numbered as in AuxiliaryGraph
    (2k and 2k+1 the entry and exit halves of node k, 2n the source, 2n+1
    the sink), every row ascending by head.  Dinic runs from the smaller
    terminal set, as its search from many sources spans most of a large
    graph: from the sink on the reversed network, whose flow is the forward
    one read backwards.  Every split arc carries at most one unit, so each
    half node on a path has one successor on it."""
    from scipy.sparse import csr_array
    from scipy.sparse.csgraph import maximum_flow
    source, sink = 2 * n, 2 * n + 1
    out_edges = np.bincount(tails, minlength=n)
    row_len = np.zeros(2 * n + 2, dtype=np.int64)
    row_len[0:2 * n:2] = 1
    row_len[1:2 * n:2] = out_edges + np.bincount(sinks, minlength=n)
    row_len[source] = len(sources)
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
    indices[indptr[2 * sinks + 2] - 1] = sink
    indices[indptr[source]:] = 2 * sources
    cap[indptr[source]:] = 1
    capacity = csr_array((cap, indices, indptr.astype(np.int32)),
                         shape=(2 * n + 2, 2 * n + 2))
    backward = len(sinks) < len(sources)
    flow = maximum_flow(*((csr_array(capacity.T), sink, source) if backward
                          else (capacity, source, sink)), method="dinic").flow
    # scipy's flow has an entry for every arc and its reverse, and is
    # antisymmetric: its positive entries are the arcs carrying flow
    carrying = np.flatnonzero(flow.data > 0)
    ends = (np.searchsorted(flow.indptr, carrying, side="right") - 1,
            flow.indices[carrying])
    tails, heads = ends[::-1] if backward else ends
    succ = dict(zip(tails.tolist(), heads.tolist()))
    paths = []
    for node in heads[tails == source].tolist():
        path = []
        while node != sink:
            if node % 2 == 0:
                path.append(node // 2)
            node = succ[node]
        paths.append(path)
    return paths


class _NodeFlow:
    """A flow of the network of the high-level operations as its paths
    ``walks``, each the positions of its nodes from source arc to sink arc,
    with the graph's labels, A and T ascending, and its edge index; its
    labellings search the node graph, whose extra halves are numbered by
    the paths' nodes ``on``, path by path.  The index's form picks the
    searches.  The lists of :func:`_edge_lists`, with A, T and ``on`` as
    lists, are searched in plain Python (:func:`_list_search`).  The CSR
    arrays of :func:`_edge_index`, with A, T and ``on`` as arrays and each
    path's first position in ``on`` in ``firsts``, are searched by scipy.
    The kernels hold maximum flows, and the greedy the flows it grows.  Its
    one labelling and its mask of the labels that reach T are each computed
    at first use and set in one assignment, read-only on the CSR form,
    which alone is kept, so a kept flow answers every later question on its
    sets without a search."""

    def __init__(self, labels, sources, sinks, index, paths):
        self.labels, self.sources, self.sinks = labels, sources, sinks
        self.index, self.walks, self.value = index, paths, len(paths)
        self.listed = isinstance(index[0], list)
        self.on = [v for path in paths for v in path]
        if not self.listed:
            self.on = np.array(self.on, dtype=np.int64)
            self.firsts = np.array(list(accumulate(map(len, paths),
                                                   initial=0))[:-1],
                                   dtype=np.int64)
        self._closed = self._reach = None

    def paths(self) -> list:
        return [tuple(_labels_at(self.labels, walk)) for walk in self.walks]

    def reversed(self) -> _NodeFlow:
        """The same flow on the network with every arc reversed, from T to
        A: over the predecessors, each path reversed, so that a path node's
        own node is its exit half and its extra node its entry half."""
        return _NodeFlow(self.labels, self.sinks, self.sources,
                         self.index[::-1], [walk[::-1] for walk in self.walks])

    def _labelled(self, open_sources: bool):
        """Per node of the node graph, the one from which the residual
        search from s reached it, negative if it did not, with every source
        arc open if ``open_sources``.  The nodes: per label its own (a path
        node's entry half), the extra halves of ``on``, and s.  A path
        node's own row repeats its arc back, to the extra half before it on
        its path or to s; its extra half's holds it and its successors.
        The search runs once, with the paths' source arcs closed; opening
        them adds the first nodes' own nodes, reached from s, and nothing
        else, as their rows lead back to s alone."""
        pred = self._closed
        if pred is None:
            pred = self._closed_search()
            if not self.listed:
                pred.setflags(write=False)
            self._closed = pred
        if open_sources:
            pred = pred.copy()
            for walk in self.walks:
                pred[walk[0]] = len(pred) - 1
        return pred

    def _closed_search(self):
        """The search of :meth:`_labelled` with the paths' source arcs
        closed; with no paths, the node graph is the index and s's row."""
        if self.listed:
            succ, n, on = self.index[0], len(self.labels), self.on
            s = n + len(on)
            firsts = {walk[0] for walk in self.walks}
            rows = succ + [[v] + succ[v] for v in on] + [
                [a for a in self.sources if a not in firsts]]
            j = n
            for walk in self.walks:
                back = s
                for v in walk:
                    rows[v] = (back,)
                    back, j = j, j + 1
            return _list_search(rows, s)
        (indptr, indices), _ = self.index
        n, on = len(indptr) - 1, self.on
        fed = np.ones(len(self.sources), dtype=bool)
        fed[np.searchsorted(self.sources, on[self.firsts])] = False
        fed = self.sources[fed]
        if not len(on):
            return _bfs_from(indptr, indices, fed)
        s = n + len(on)
        back = np.arange(n - 1, s - 1)
        back[self.firsts] = s
        at, out = _entries(indptr, on)
        exits = np.insert(indices[at], np.cumsum(out) - out, on)
        order = np.argsort(on)
        rows, back = on[order], back[order]
        size = len(indices) + len(rows)
        rowptr = np.concatenate([indptr + _below(rows, n),
                                 size + np.cumsum(out + 1),
                                 [size + len(exits) + len(fed)]],
                                dtype=np.int32)
        where = np.append(indptr[rows],
                          np.full(len(exits) + len(fed), len(indices)))
        columns = np.insert(indices, where, np.concatenate([back, exits, fed]))
        at, counts = _entries(rowptr, rows)
        columns[at] = np.repeat(back, counts)
        return _bfs(rowptr, columns, s)

    def _second_halves(self):
        """Per label, its node of the node graph for the half after its
        split arc: a path node's extra half, else its own node."""
        n = len(self.labels)
        if self.listed:
            halves = list(range(n))
            for j, v in enumerate(self.on, n):
                halves[v] = j
            return halves
        halves = np.arange(n)
        halves[self.on] = np.arange(n, n + len(self.on))
        return halves

    def _reaches(self, open_sources: bool, nodes: np.ndarray) -> bool:
        """Whether the residual search from s reaches the second half of
        any of the labels at the positions ``nodes`` (CSR form)."""
        return bool((self._labelled(open_sources)[
            self._second_halves()[nodes]] >= 0).any())

    def essential(self) -> frozenset:
        pred = self._labelled(open_sources=False)
        if self.listed:
            return frozenset(_labels_at(self.labels, [
                a for a in self.sources if pred[a] < 0]))
        return frozenset(_labels_at(self.labels,
                                    self.sources[pred[self.sources] < 0]))

    def separator(self) -> frozenset:
        pred, n = self._labelled(open_sources=True), len(self.labels)
        if self.listed:
            return frozenset(_labels_at(self.labels, [
                v for j, v in enumerate(self.on, n)
                if pred[v] >= 0 and pred[j] < 0]))
        cut = (pred[self.on] >= 0) & (pred[n:n + len(self.on)] < 0)
        return frozenset(_labels_at(self.labels, self.on[cut]))

    def reaches_target(self, nodes) -> list:
        """The labels at the positions ``nodes`` with a path to a target."""
        reach = self._reach
        if reach is None:
            preds = self.index[1]
            if self.listed:
                reach = [v >= 0 for v in
                         _list_search(preds + [self.sinks], len(preds))]
            else:
                reach = _bfs_from(*preds, self.sinks) >= 0
                reach.setflags(write=False)
            self._reach = reach
        if self.listed:
            return _labels_at(self.labels, [k for k in nodes if reach[k]])
        return _labels_at(self.labels, nodes[reach[nodes]])


def _edge_lists(n: int, tails: np.ndarray, heads: np.ndarray) -> tuple:
    """:func:`_edge_index` as Python lists, for plain-Python searches: per
    node its successors and its predecessors, each list ascending."""
    succ, pred = [[] for _ in range(n)], [[] for _ in range(n)]
    for u, v in zip(tails.tolist(), heads.tolist()):
        succ[u].append(v)
        pred[v].append(u)
    return succ, pred


def _list_search(rows: list, start: int) -> list:
    """Per node of the graph with the successor lists ``rows``, the one
    from which a breadth-first search from ``start`` reached it, negative
    for ``start`` and the nodes it did not reach: :func:`_bfs`'s answer,
    rows visited in the same order, in plain Python."""
    pred = [-1] * len(rows)
    pred[start] = -2
    queue = [start]
    append = queue.append
    for u in queue:
        for v in rows[u]:
            if pred[v] == -1:
                pred[v] = u
                append(v)
    return pred


def reachable(n: int, tails: np.ndarray, heads: np.ndarray,
              starts: Sequence[int]) -> np.ndarray:
    """Mask of the nodes 0..n-1 reachable from the distinct nodes ``starts``
    along the arcs ``tails[k] -> heads[k]``, sorted by tail:
    :func:`_list_search` below ``CSR_MIN_ARCS`` nodes plus arcs, else
    :func:`_bfs_from` over the arcs as CSR rows."""
    if n + len(tails) < CSR_MIN_ARCS:
        succ, _ = _edge_lists(n, tails, heads)
        return np.array(_list_search(succ + [list(starts)], n)[:n]) >= 0
    return _bfs_from(_below(tails, n), heads,
                     np.asarray(starts, dtype=np.int64))[:n] >= 0


def _bfs_from(indptr: np.ndarray, indices: np.ndarray,
              starts) -> np.ndarray:
    """:func:`_bfs` on the CSR index ``(indptr, indices)`` and one node
    after its rows with an arc to each of the nodes ``starts``, from that
    node."""
    return _bfs(np.append(indptr, indptr[-1] + len(starts)),
                np.concatenate([indices, starts], dtype=np.int32),
                len(indptr) - 1)


def _bfs(indptr: np.ndarray, indices: np.ndarray, start: int) -> np.ndarray:
    """Per node of the square CSR index ``(indptr, indices)`` of unit arcs,
    the one from which scipy's breadth-first search from ``start`` reached
    it, negative if it did not."""
    from scipy.sparse import csr_array
    from scipy.sparse.csgraph import breadth_first_order
    n = len(indptr) - 1
    graph = csr_array((np.ones(len(indices)), indices, indptr), shape=(n, n))
    return breadth_first_order(graph, start, return_predecessors=True)[1]


def _edge_index(n: int, tails: np.ndarray, heads: np.ndarray) -> tuple:
    """The successors and the predecessors of the graph on ``n`` nodes with
    the edges ``tails[k] -> heads[k]``, sorted by tail, then head, each as
    the (indptr, indices) of a CSR array over positions, rows ascending:
    ``heads`` itself, and its transpose by scipy's counting sort."""
    from scipy.sparse import csr_array
    starts = _below(tails, n)
    backward = csr_array((np.ones(len(heads), dtype=np.int8), heads, starts),
                         shape=(n, n)).T.tocsr()
    return (starts, heads), (backward.indptr, backward.indices)


def _neighbours(index: tuple, nodes: np.ndarray) -> tuple:
    """The entries of the CSR ``index`` in the rows ``nodes``, as (row,
    column)."""
    indptr, indices = index
    at, counts = _entries(indptr, nodes)
    return np.repeat(nodes, counts), indices[at]


def _entries(indptr: np.ndarray, nodes: np.ndarray) -> tuple:
    """The positions of the entries in the rows ``nodes`` of a CSR array
    with the row pointers ``indptr``, row by row, and each row's count."""
    starts = indptr[nodes]
    counts = indptr[nodes + 1] - starts
    at = np.repeat(starts - np.cumsum(counts) + counts, counts)
    return at + np.arange(len(at)), counts


def _sub_solved(n: int, sources: np.ndarray, sinks: np.ndarray,
                index: tuple) -> list | None:
    """The paths, as positions, of a flow on a sub-network of the network
    over ``n`` nodes, by :func:`_dinic`, that is maximum on the whole
    network, or None once the sub-network would hold half the nodes.  It is over W = F | B: both
    halves of each node of W, s, t, their arcs and the edge arcs within W.
    F grows from A along the successors of ``index`` (:func:`_edge_index`)
    and B from T along its predecessors, a level at a time, the smaller
    while it can, until they share 4 min(|A|, |T|) nodes.  The flow is
    maximum if (1) its value is min(|A|, |T|), (2) the residual search from
    t reaches no entry half of a node with a predecessor outside W, (3) the
    one from s no exit half of a node with a successor outside W, or (4)
    neither ball can grow.  Else W grows to twice its size, and a level that
    would take it further grows only in part.  (2) and (3) hold as no arc
    out of the sub-network carries flow: an augmenting path would cross the
    cut by an edge arc u+ -> v- into or out of W.  They search the node
    graph of W's own edge index, (2) in the reversed view."""
    fronts = [sources, sinks]
    balls = [np.zeros(n, dtype=bool), np.zeros(n, dtype=bool)]
    balls[0][sources] = balls[1][sinks] = True
    at = np.empty(n, dtype=np.int64)  # positions in W, set for W's nodes
    sizes = [len(front) for front in fronts]
    covered, bound = int(np.count_nonzero(balls[0] | balls[1])), min(sizes)
    # a regrow pays a wasted attempt and a W twice as large, so the first W
    # is large enough that few questions need one
    to_share, to_cover = 4 * bound, 0
    while True:
        while ((len(fronts[0]) or len(fronts[1])) and 2 * covered < n and
               (sum(sizes) - covered < to_share or covered < to_cover)):
            side = int(sizes[1] < sizes[0])
            side = side if len(fronts[side]) else 1 - side
            rows, nodes = _neighbours(index[side], fronts[side])
            rest, need = fronts[side][:0], to_cover - covered
            if to_cover:
                # a regrow expands the front, ascending, only until W holds
                # to_cover nodes; the rest of it stays in the front
                found, first = np.unique(nodes, return_index=True)
                first = np.sort(first[~balls[0][found] & ~balls[1][found]])
                if len(first) > need:
                    rest = fronts[side][fronts[side] > rows[first[need - 1]]]
                    nodes = nodes[rows <= rows[first[need - 1]]]
            nodes = np.sort(nodes)
            fresh = ~balls[side][nodes] & (np.diff(nodes, prepend=-1) > 0)
            new = nodes[fresh]
            balls[side][new] = True
            fronts[side] = np.union1d(rest, new) if len(rest) else new
            sizes[side] += len(new)
            covered += int(np.count_nonzero(~balls[1 - side][new]))
        if 2 * covered >= n:
            return None
        inside = balls[0] | balls[1]
        within = np.flatnonzero(inside)
        at[within] = np.arange(len(within))
        tails, heads = _neighbours(index[0], within)
        kept = inside[heads]
        edges = at[tails[kept]], at[heads[kept]]
        paths = _dinic(len(within), at[sources], at[sinks], *edges)
        found = [within[path] for path in paths]
        if len(paths) == bound or not (len(fronts[0]) or len(fronts[1])):
            return found
        # B holds every predecessor of its nodes but its last front's
        into, outer = _neighbours(index[1], np.concatenate(
            [within[~balls[1][within]], fronts[1]]))
        entered, left = at[into[~inside[outer]]], at[tails[~kept]]
        sub = _NodeFlow(range(len(within)), at[sources], at[sinks],
                        _edge_index(len(within), *edges), paths)
        if (not sub.reversed()._reaches(True, entered)
                or not sub._reaches(False, left)):
            return found
        to_share, to_cover = 0, 2 * covered


def _greedy(labels, sources, sinks, index: tuple) -> _NodeFlow:
    """The flow that the matroid greedy of :func:`lexicographic_basis`
    grows on the node graph of ``index``, in either form, with A and T in
    its form (see :class:`_NodeFlow`): one path per available node taken,
    ascending.  Run over every source, it is Ford-Fulkerson, so the flow is
    maximum.  The flow is a set of carrying edges, each node's next one on
    its path; its paths are walked afresh from the nodes taken after each
    push.  The backward search from t is a labelling of the flow's reversed
    view, with every sink arc open, and a push walks its predecessors from
    the candidate's entry half to t: a step u+ -> w- takes the edge u -> w,
    a step u- -> w+ gives back the edge w -> u, and a step u+ -> u- is the
    reversed split arc, never a self-loop."""
    n, nxt, walks, pred = len(labels), {}, [], None
    for a in map(int, sources):
        if len(walks) == len(sinks):
            break
        if pred is None:
            view = _NodeFlow(range(n), sources, sinks, index, walks).reversed()
            pred, halves = view._labelled(True), view._second_halves()
            on, t = view.on, len(pred) - 1
        v = int(halves[a])
        if pred[v] < 0:
            continue
        while pred[v] != t:
            w = int(pred[v])
            if v >= n:  # from an entry half back to the exit half before it
                del nxt[w]
            elif w < n or on[w - n] != v:
                nxt[v] = w if w < n else int(on[w - n])
            v = w
        walks = [[start] for start in [walk[0] for walk in walks] + [a]]
        for walk in walks:
            while walk[-1] in nxt:
                walk.append(nxt[walk[-1]])
        pred = None  # the residual graph has changed
    return _NodeFlow(labels, sources, sinks, index, walks)


def _below(rows: np.ndarray, n: int) -> np.ndarray:
    """Per r in 0..n, how many of the ascending ``rows`` are below r."""
    return np.repeat(np.arange(len(rows) + 1, dtype=np.int32),
                     np.diff(rows, prepend=-1, append=n))


# ---------------------------------------------------------------------------
# High-level operations
# ---------------------------------------------------------------------------

def _solved(graph, flat: tuple, paths_only: bool = False) -> _NodeFlow:
    """The maximum flow of the network over :func:`_flatten`'s reading
    ``flat`` of ``graph``, never to be changed by the caller: below
    ``CSR_MIN_ARCS`` the greedy's over every source, on the graph's edge
    lists (:func:`_greedy`), and from there on from :func:`_sub_solved`, or
    from Dinic's on the whole network if that gives up.  A StateGraph over
    read-only arrays keeps one CSR-sized flow, keyed by the positions of A
    and T: a labelling question replaces it, and one on the flow's value
    and paths alone (``paths_only``) keeps its own only if none is kept."""
    labels, sources, sinks, tails, heads = flat
    n = len(labels)
    if n + len(tails) < CSR_MIN_ARCS:
        return _greedy(labels, sources.tolist(), sinks.tolist(),
                       _edge_lists(n, tails, heads))
    kept = _kept_index(graph, n, tails, heads)
    if kept is not None:
        key, last = (sources.tobytes(), sinks.tobytes()), graph._last_solved
        if last is not None and last[0] == key:
            return last[1]
    index = kept or _edge_index(n, tails, heads)
    found = _sub_solved(n, sources, sinks, index)
    if found is None:  # the sub-network reached half the nodes
        found = _dinic(n, sources, sinks, tails, heads)
    solved = _NodeFlow(labels, sources, sinks, index, found)
    if kept is not None and not (paths_only and graph._last_solved is not None):
        graph._last_solved = (key, solved)
    return solved


def _kept_index(graph, n: int, tails: np.ndarray, heads: np.ndarray):
    """The :func:`_edge_index` that a StateGraph over read-only arrays
    builds at its first CSR-sized question and keeps, or None for any
    other graph."""
    if (not isinstance(graph, StateGraph) or tails.flags.writeable
            or heads.flags.writeable):
        return None
    if graph._index is None:
        graph._index = _edge_index(n, tails, heads)
    return graph._index


def max_linking_size(
    graph: Mapping[Node, Sequence[Node]],
    available: Iterable[Node],
    targets: Iterable[Node],
) -> int:
    """Size of a maximum set of vertex-disjoint direct available-target paths."""
    return _solved(graph, _flatten(graph, available, targets),
                   paths_only=True).value


def maximum_linking(
    graph: Mapping[Node, Sequence[Node]],
    available: Iterable[Node],
    targets: Iterable[Node],
) -> Linking:
    """A maximum linking itself (deterministic witness): the flow's paths,
    each trimmed to run from its last available node to the first target
    after it, ordered by start node."""
    available, targets = tuple(available), tuple(targets)
    return _trimmed(_solved(graph, _flatten(graph, available, targets),
                            paths_only=True).paths(),
                    set(available), set(targets))


def lexicographic_basis(
    graph: Mapping[Node, Sequence[Node]],
    available: Iterable[Node],
    targets: Iterable[Node],
) -> tuple[tuple, Linking]:
    """The lexicographically smallest of the largest linkable subsets of the
    available set, ascending, with a linking from it.

    Keeps each available node, ascending, that some linking covers with
    those already kept (the matroid greedy; see the module docstring): one
    backward search from the sink per node kept and one unit pushed along
    the path found, until every target is covered.  The linking is the
    flow's paths, trimmed, so it starts at exactly the nodes kept; if they
    are fewer than the targets, it is :func:`maximum_linking`'s: below
    ``CSR_MIN_ARCS`` the greedy's flow is that flow, and from there on
    Dinic's is solved from the same reading of the graph.  A CSR-sized
    graph grows its flow on the node graph of its edge index and lays out
    no network over the whole graph.
    """
    available, targets = tuple(available), tuple(targets)
    flat = _flatten(graph, available, targets)
    labels, sources, sinks, tails, heads = flat
    n = len(labels)
    grown = (_solved(graph, flat) if n + len(tails) < CSR_MIN_ARCS else
             _greedy(labels, sources, sinks, _kept_index(graph, n, tails, heads)
                     or _edge_index(n, tails, heads)))
    paths = grown.paths()
    basis = tuple(path[0] for path in paths)
    if len(basis) < len(sinks) and not grown.listed:
        paths = _solved(graph, flat, paths_only=True).paths()
    return basis, _trimmed(paths, set(basis if len(basis) == len(sinks)
                                      else available), set(targets))


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
    return _solved(graph, _flatten(graph, available, targets)).separator()


def essential_start_analysis(
    graph: Mapping[Node, Sequence[Node]],
    available: Iterable[Node],
    targets: Iterable[Node],
) -> tuple[int, frozenset, frozenset]:
    """Maximum steering capacity and the unavoidable start nodes.

    Returns ``(value, essential, reaches_target)``: the maximum number of
    vertex-disjoint paths from distinct available to distinct target nodes
    (which may pass other nodes of either set), the available nodes without
    which it drops, and every node with a path to the target set.

    An available node a is essential iff the residual search from s misses
    its entry half a-: a labelled a- is reached over its unused source arc,
    or by a residual path that, with the reverse source arc, reroutes a's
    path elsewhere.  Both sets are one search each on the node graph (see
    the module docstring): from s, over the index's successors and the rows
    of the flow's path nodes, and from T over its predecessors.  A flow that
    the graph keeps keeps both searches too, so a later call on the same
    sets searches nothing.
    """
    net = _solved(graph, _flatten(graph, available, targets))
    return (net.value, net.essential(),
            frozenset(net.reaches_target(np.arange(len(net.labels)))))


def bipartite_matching(n_rows: int, n_cols: int, rows: np.ndarray,
                       cols: np.ndarray) -> np.ndarray:
    """Per row, the column matched to it by a maximum matching of the
    bipartite graph with an edge between row ``rows[k]`` and column
    ``cols[k]`` for each k, or -1 if it is unmatched.

    A matching is a linking from the columns into the rows of the digraph
    with an edge from each column to its rows, one flow path per matched
    pair.  Below ``CSR_MIN_ARCS`` nodes plus edges :func:`_solve` solves
    that network on the arc lists of :func:`_build_arrays`; from there on scipy's Hopcroft-Karp matches the pattern,
    in a fifth of the time of the Dinic flow on a 100 000-row pattern.
    """
    if n_rows + n_cols + len(rows) >= CSR_MIN_ARCS:
        from scipy.sparse import csr_array
        from scipy.sparse.csgraph import maximum_bipartite_matching
        pattern = csr_array((np.ones(len(rows), dtype=np.int8), (rows, cols)),
                            shape=(n_rows, n_cols))
        return np.asarray(maximum_bipartite_matching(pattern, perm_type="column"))
    # the columns are the nodes 0..n_cols-1 and the rows the nodes after them
    keys = np.unique(np.asarray(cols, dtype=np.int64) * n_rows + rows)
    tails, heads = np.divmod(keys, max(n_rows, 1))
    n = n_cols + n_rows
    adj, head, res, sink_arcs = _build_arrays(
        n, np.arange(n_cols), np.arange(n_cols, n), tails, heads + n_cols,
        n_rows + 1)
    _solve(adj, head, res, 2 * n, 2 * n + 1, sink_arcs)
    # edge k is arc 2(n + k), of capacity n_rows + 1, and it carries one
    # flow path, so its pair is matched, iff less of it is left
    carrying = np.array(res[2 * n:2 * (n + len(keys)):2]) <= n_rows
    match = np.full(n_rows, -1, dtype=np.int64)
    match[heads[carrying]] = tails[carrying]
    return match
