"""Graph computations of the benchmark's own, sharing no code with netctrl.

Nodes are 1-based ints; a graph is ``n`` plus an (e, 2) int array of
(tail, head) edges.  ``max_disjoint`` is the gammoid rank: the largest number
of vertex-disjoint paths that start at distinct ``sources`` and end at
distinct ``targets`` (other sources and targets may be passed through).  It
runs a plain augmenting-path search on small graphs and
``scipy.sparse.csgraph.maximum_flow`` on large ones.
"""

from __future__ import annotations

from collections import deque

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import breadth_first_order, maximum_flow

SMALL = 2000  # node count up to which the pure-Python kernel is used


def parse_text(text):
    """Read netctrl's line format into plain fields (no validation)."""
    sys_ = {"n": 0, "edges": [], "available": [], "targets": [],
            "inputs": [], "outputs": []}
    for raw in text.splitlines():
        tok = raw.split("#", 1)[0].split()
        if not tok:
            continue
        vals = [int(t) for t in tok[1:]]
        if tok[0] == "n":
            sys_["n"] = vals[0]
        elif tok[0] == "edge":
            sys_["edges"].append(vals)
        elif tok[0] in ("available", "targets"):
            sys_[tok[0]] = vals
        else:  # input k ... / output k ...
            sys_[tok[0] + "s"].append(vals[1:])
    sys_["edges"] = np.unique(np.array(sys_["edges"], dtype=np.int64).reshape(-1, 2),
                              axis=0)
    return sys_


def io_graph(sys_):
    """The system graph with inputs as nodes n+1.. and outputs after them."""
    n, m = sys_["n"], len(sys_["inputs"])
    extra = [(n + k + 1, i) for k, col in enumerate(sys_["inputs"]) for i in col]
    extra += [(i, n + m + k + 1) for k, row in enumerate(sys_["outputs"]) for i in row]
    edges = np.vstack([sys_["edges"], np.array(extra, dtype=np.int64).reshape(-1, 2)])
    return n + m + len(sys_["outputs"]), edges


def max_disjoint(n, edges, sources, targets):
    """Gammoid rank of ``sources`` into ``targets``."""
    return _flow(n, edges, sources, targets)[0]


def linking_starts(n, edges, sources, targets):
    """The sources that begin the paths of one maximum family."""
    return _flow(n, edges, sources, targets)[1]


def _flow(n, edges, sources, targets):
    sources = sorted(set(int(v) for v in sources))
    targets = sorted(set(int(v) for v in targets))
    if not sources or not targets:
        return 0, []
    kernel = _flow_py if n <= SMALL else _flow_scipy
    return kernel(n, edges, sources, targets)


def _flow_py(n, edges, sources, targets):
    # node v has entry 2v and exit 2v+1; source 0, sink 1 (v >= 1)
    res = {}

    def arc(u, w):
        res.setdefault(u, {})[w] = 1
        res.setdefault(w, {}).setdefault(u, 0)

    for v in range(1, n + 1):
        arc(2 * v, 2 * v + 1)
    for u, w in edges.tolist():
        arc(2 * u + 1, 2 * w)
    for a in sources:
        arc(0, 2 * a)
    for t in targets:
        arc(2 * t + 1, 1)
    value = 0
    while True:
        parent = {0: None}
        queue = deque([0])
        while queue and 1 not in parent:
            u = queue.popleft()
            for w, c in res[u].items():
                if c and w not in parent:
                    parent[w] = u
                    queue.append(w)
        if 1 not in parent:
            break
        w = 1
        while parent[w] is not None:
            u = parent[w]
            res[u][w] -= 1
            res[w][u] += 1
            w = u
        value += 1
    used = [a for a in sources if res[0][2 * a] == 0]
    return value, used


def _flow_scipy(n, edges, sources, targets):
    # node v (1-based) has entry 2(v-1) and exit 2(v-1)+1; source 2n, sink 2n+1
    src, snk = 2 * n, 2 * n + 1
    v = np.arange(n)
    sources = np.asarray(sources, dtype=np.int64)
    targets = np.asarray(targets, dtype=np.int64)
    tails = np.concatenate([2 * v, 2 * (edges[:, 0] - 1) + 1,
                            np.full(len(sources), src), 2 * (targets - 1) + 1])
    heads = np.concatenate([2 * v + 1, 2 * (edges[:, 1] - 1),
                            2 * (sources - 1), np.full(len(targets), snk)])
    net = csr_matrix((np.ones(len(tails), dtype=np.int32), (tails, heads)),
                     shape=(2 * n + 2, 2 * n + 2))
    result = maximum_flow(net, src, snk, method="dinic")
    row = result.flow.getrow(src).toarray().ravel()
    used = [int(a) for a in sources if row[2 * (a - 1)] > 0]
    return int(result.flow_value), used


def reachable(n, edges, starts, blocked=(), reverse=False):
    """Boolean mask over 1..n (index 0 unused) of nodes reachable from
    ``starts`` without entering ``blocked`` nodes; ``reverse`` follows edges
    backwards."""
    tail, head = (edges[:, 1], edges[:, 0]) if reverse else (edges[:, 0], edges[:, 1])
    bad = np.zeros(n + 1, dtype=bool)
    bad[list(blocked)] = True
    keep = ~bad[tail] & ~bad[head]
    live = [s for s in set(int(v) for v in starts) if not bad[s]]
    # node 0 is a virtual root joined to every live start
    tails = np.concatenate([tail[keep], np.zeros(len(live), dtype=np.int64)])
    heads = np.concatenate([head[keep], np.array(live, dtype=np.int64)])
    g = csr_matrix((np.ones(len(tails), dtype=np.int8), (tails, heads)),
                   shape=(n + 1, n + 1))
    order = breadth_first_order(g, 0, directed=True, return_predecessors=False)
    mask = np.zeros(n + 1, dtype=bool)
    mask[order] = True
    mask[0] = False
    return mask


class EdgeSet:
    """Membership test for (tail, head) pairs of one graph."""

    def __init__(self, n, edges):
        self.base = n + 1
        self.codes = np.unique(edges[:, 0] * self.base + edges[:, 1])

    def contains_all(self, pairs):
        if not len(pairs):
            return True
        pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
        codes = pairs[:, 0] * self.base + pairs[:, 1]
        pos = np.searchsorted(self.codes, codes)
        return bool((pos < len(self.codes)).all()
                    and (self.codes[np.minimum(pos, len(self.codes) - 1)] == codes).all())


def linking_problems(paths, edge_set, sources, targets):
    """Why ``paths`` is not a direct linking from ``sources`` to ``targets``
    along real edges (empty list when it is one)."""
    sources, targets = set(sources), set(targets)
    problems = []
    seen = set()
    pairs = []
    for path in paths:
        if not path:
            problems.append("empty path")
            continue
        if path[0] not in sources or path[-1] not in targets:
            problems.append(f"path {path} does not run from A to T")
        inner = path[1:-1]
        if any(v in sources or v in targets for v in inner) or (
                len(path) > 1 and (path[-1] in sources or path[0] in targets)):
            problems.append(f"path {path} is not direct")
        if seen.intersection(path) or len(set(path)) != len(path):
            problems.append(f"path {path} reuses a node")
        seen.update(path)
        pairs += list(zip(path[:-1], path[1:]))
    if not edge_set.contains_all(pairs):
        problems.append("a path uses a pair that is not an edge")
    return problems


def separator_problems(n, edges, sources, targets, separator):
    """Why ``separator`` does not cut every path from ``sources`` to
    ``targets`` (empty list when it does)."""
    sep = set(separator)
    if (set(sources) & set(targets)) - sep:
        return ["a node in both A and T is not in the separator"]
    mask = reachable(n, edges, sources, blocked=sep)
    if mask[list(targets)].any():
        return ["a target is still reachable around the separator"]
    return []
