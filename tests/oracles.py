"""Independent brute-force oracles for small graphs.

Everything here works by explicit enumeration so the answers cannot share a
code path (or a bug) with the flow-based implementation under test.
"""

from __future__ import annotations

from collections import deque
from itertools import combinations


def reachable_from(adj, starts):
    """All nodes reachable from the given start set (starts included)."""
    seen = set(starts)
    queue = deque(starts)
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if v not in seen:
                seen.add(v)
                queue.append(v)
    return seen


def simple_direct_paths(adj, sources, targets):
    """Every simple path with exactly one source node (first) and one target
    node (last), as node tuples.  Nodes in both sets yield length-0 paths."""
    sources = set(sources)
    targets = set(targets)
    paths = []
    for v in sorted(sources & targets):
        paths.append((v,))

    def extend(path, on_path):
        u = path[-1]
        for w in adj[u]:
            if w in on_path or w in sources:
                continue
            if w in targets:
                paths.append(tuple(path) + (w,))
                continue
            extend(path + [w], on_path | {w})

    for a in sorted(sources):
        if a in targets:
            continue  # only the zero-length path is direct from such a node
        extend([a], {a})
    return paths


def max_disjoint_paths(paths, upper_bound=None):
    """Maximum number of pairwise vertex-disjoint paths among the given ones."""
    masks = []
    node_ids = {}
    for path in paths:
        mask = 0
        for v in path:
            if v not in node_ids:
                node_ids[v] = len(node_ids)
            mask |= 1 << node_ids[v]
        masks.append(mask)
    best = 0

    def search(idx, used, count):
        nonlocal best
        if count > best:
            best = count
        if upper_bound is not None and best >= upper_bound:
            return
        if count + (len(masks) - idx) <= best:
            return
        for k in range(idx, len(masks)):
            if masks[k] & used == 0:
                search(k + 1, used | masks[k], count + 1)

    search(0, 0, 0)
    return best


def bf_max_linking_size(adj, sources, targets):
    """Maximum linking size by enumerating direct paths and disjoint subsets."""
    paths = simple_direct_paths(adj, sources, targets)
    bound = min(len(set(sources)), len(set(targets)))
    return max_disjoint_paths(paths, upper_bound=bound)


def bf_is_admissible(adj, steering, targets):
    """Whether a steering set supports one disjoint path per target.

    Directness is taken relative to the steering set itself: a path may pass
    through available nodes that are not in the chosen set.
    """
    targets = set(targets)
    return bf_max_linking_size(adj, set(steering), targets) == len(targets)


def bf_admissible_subsets(adj, available, targets):
    """All admissible subsets of the available set (ground truth for labels)."""
    available = sorted(set(available))
    out = []
    for r in range(len(available) + 1):
        for combo in combinations(available, r):
            if bf_is_admissible(adj, combo, targets):
                out.append(frozenset(combo))
    return out


def bf_classify(adj, available, targets):
    """Essential/useful/useless labels straight from their definitions.

    Essential: in every admissible set.  Useless: every admissible set
    containing it stays admissible after dropping it.  Returns None when no
    admissible set exists.
    """
    admissible = bf_admissible_subsets(adj, available, targets)
    if not admissible:
        return None
    admissible_set = set(admissible)
    labels = {}
    for a in sorted(set(available)):
        if all(a in d for d in admissible):
            labels[a] = "essential"
            continue
        containing = [d for d in admissible if a in d]
        if all(d - {a} in admissible_set for d in containing):
            labels[a] = "useless"
        else:
            labels[a] = "useful"
    return labels


def is_separator(adj, sources, targets, blocked):
    """Whether removing ``blocked`` leaves no source-to-target path.

    A node in both sets must itself be blocked (its length-0 path has no
    other node to cut).
    """
    sources = set(sources)
    targets = set(targets)
    blocked = set(blocked)
    if (sources & targets) - blocked:
        return False
    live = [a for a in sources if a not in blocked]
    seen = set(live)
    queue = deque(live)
    while queue:
        u = queue.popleft()
        if u in targets:
            return False
        for v in adj[u]:
            if v not in seen and v not in blocked:
                seen.add(v)
                queue.append(v)
    return not (seen & targets)


def bf_minimum_separators(adj, sources, targets, size):
    """All separators of exactly the given size (subsets of all nodes)."""
    nodes = sorted(adj)
    return [
        frozenset(combo)
        for combo in combinations(nodes, size)
        if is_separator(adj, sources, targets, combo)
    ]


def bf_all_maximum_linkings(adj, sources, targets):
    """All maximum-size families of disjoint direct paths, as path-sets."""
    paths = simple_direct_paths(adj, sources, targets)
    size = bf_max_linking_size(adj, sources, targets)
    out = []

    def search(idx, used, chosen):
        if len(chosen) == size:
            out.append(frozenset(chosen))
            return
        if len(chosen) + (len(paths) - idx) < size:
            return
        for k in range(idx, len(paths)):
            mask = masks[k]
            if mask & used == 0:
                search(k + 1, used | mask, chosen + [paths[k]])

    masks = []
    node_ids = {}
    for path in paths:
        mask = 0
        for v in path:
            if v not in node_ids:
                node_ids[v] = len(node_ids)
            mask |= 1 << node_ids[v]
        masks.append(mask)
    search(0, 0, [])
    return out


# ---------------------------------------------------------------------------
# Reference reader of the line-oriented system format
# ---------------------------------------------------------------------------

# largest n a system accepts: 2n + 2 flow-network node ids fit int32
MAX_N = (2**31 - 1 - 2) // 2


class ReferenceParseError(Exception):
    """A malformed line; ``line`` is its 1-based number, or None."""

    def __init__(self, message, line=None):
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")


class ReferenceValidationError(Exception):
    """An index out of range or a duplicate set member."""


def _reference_set(values, n, what):
    seen = []
    for v in values:
        if not 1 <= v <= n:
            raise ReferenceValidationError(f"{what} {v} out of range 1..{n}")
        if v in seen:
            raise ReferenceValidationError(f"duplicate {what} {v}")
        seen.append(v)
    return tuple(seen)


def reference_parse(text):
    """The fields of a system in the line format, read one line at a time
    with str.splitlines, str.split and int, then validated in field order.

    Returns a dict with the keys of the system's fields, edges sorted and
    distinct, input columns and output rows sorted.  Raises
    ReferenceParseError or ReferenceValidationError with the messages the
    format's reader gives.
    """
    n = None
    edges, available, targets, inputs, outputs = [], None, None, [], []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        keyword, *args = line.split()
        try:
            values = [int(t) for t in args]
        except ValueError:
            raise ReferenceParseError(f"expected integers after {keyword!r}",
                                      lineno) from None
        if keyword == "n":
            if n is not None:
                raise ReferenceParseError("duplicate 'n' directive", lineno)
            if len(values) != 1:
                raise ReferenceParseError("'n' takes exactly one integer", lineno)
            n = values[0]
        elif n is None:
            raise ReferenceParseError("'n' must be the first directive", lineno)
        elif keyword == "edge":
            if len(values) != 2:
                raise ReferenceParseError("'edge' takes exactly two integers",
                                          lineno)
            edges.append(tuple(values))
        elif keyword in ("available", "targets"):
            if (available if keyword == "available" else targets) is not None:
                raise ReferenceParseError(f"duplicate {keyword!r} directive",
                                          lineno)
            if keyword == "available":
                available = values
            else:
                targets = values
        elif keyword in ("input", "output"):
            rows = inputs if keyword == "input" else outputs
            if not values:
                what = "a column index" if keyword == "input" else "a row index"
                raise ReferenceParseError(f"{keyword!r} needs {what}", lineno)
            if values[0] != len(rows) + 1:
                what = "input columns" if keyword == "input" else "output rows"
                raise ReferenceParseError(
                    f"{what} must be numbered consecutively; expected "
                    f"{len(rows) + 1}, got {values[0]}", lineno)
            rows.append(values[1:])
        else:
            raise ReferenceParseError(f"unknown directive {keyword!r}", lineno)
    if n is None:
        raise ReferenceParseError("missing 'n' directive")
    if n < 1:
        raise ReferenceValidationError(f"n must be a positive integer, got {n!r}")
    if n > MAX_N:
        raise ReferenceValidationError(f"n must be at most {MAX_N}, got {n}")
    for i, j in edges:
        for v in (i, j):
            if not 1 <= v <= n:
                raise ReferenceValidationError(
                    f"edge endpoint {v} out of range 1..{n}")
    return {
        "n": n,
        "state_edges": tuple(sorted(set(edges))),
        "available": _reference_set(available or (), n, "available node"),
        "targets": _reference_set(targets or (), n, "target node"),
        "explicit_inputs": tuple(tuple(sorted(_reference_set(c, n, "input node")))
                                 for c in inputs),
        "explicit_outputs": tuple(tuple(sorted(_reference_set(r, n, "output node")))
                                  for r in outputs),
    }
