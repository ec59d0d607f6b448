"""Controllability decisions on structured systems.

Three graph-level questions are answered here, all generic (valid for almost
every parameter assignment compatible with the pattern):

* functional target/output controllability: can every smooth trajectory of
  the targeted variables be followed?  Equivalent to a maximum linking of
  size p between steering and target sets.
* minimal steering-set selection: the smallest subset of the available set
  that achieves functional target controllability, with a witness linking.
* classification of available nodes as essential / useful / useless with
  respect to all admissible steering sets.

Point-wise (full-state) structural controllability is also decided, via
input-connectedness plus a generic-rank test of the composite pattern.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Optional

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_bipartite_matching

from . import flow
from .errors import NetctrlError
from .flow import Linking
from .system import StructuredSystem, ValidationError, linking_graph


class UnsolvableError(NetctrlError, RuntimeError):
    """No admissible steering set exists for the requested targets."""

    def __init__(self, achieved_size: int, required: int):
        self.achieved_size = achieved_size
        self.required = required
        super().__init__(
            f"no admissible steering set: maximum linking size "
            f"{achieved_size} < {required} targets"
        )


class NodeLabel(str, Enum):
    ESSENTIAL = "essential"
    USEFUL = "useful"
    USELESS = "useless"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class NodeClassification:
    """Partition of the available set by importance for target controllability.

    A node is essential when it belongs to every admissible steering set,
    useless when dropping it from any admissible set containing it keeps the
    set admissible, and useful otherwise.
    """

    essential: frozenset
    useful: frozenset
    useless: frozenset

    def label(self, node: int) -> NodeLabel:
        if node in self.essential:
            return NodeLabel.ESSENTIAL
        if node in self.useful:
            return NodeLabel.USEFUL
        if node in self.useless:
            return NodeLabel.USELESS
        raise KeyError(f"node {node} is not in the available set")

    def as_dict(self) -> dict[int, str]:
        out = {}
        for v in self.essential:
            out[v] = NodeLabel.ESSENTIAL.value
        for v in self.useful:
            out[v] = NodeLabel.USEFUL.value
        for v in self.useless:
            out[v] = NodeLabel.USELESS.value
        return dict(sorted(out.items()))


@dataclass(frozen=True)
class FunctionalVerdict:
    """Outcome of a functional controllability test with its witness."""

    controllable: bool
    linking_size: int
    required: int
    witness: Optional[Linking]

    def __bool__(self) -> bool:
        return self.controllable


@dataclass(frozen=True)
class MtcpSolution:
    """Minimum steering set with a certifying linking.

    The steering set has exactly one node per target (size p) and consists of
    the start nodes of the witness linking; p vertex-disjoint paths need p
    distinct starts, so no smaller set can work.
    """

    steering: tuple
    witness: Linking


@dataclass(frozen=True)
class Unsolvable:
    """Negative answer to the minimal steering problem.

    ``achieved_size`` is the best linking size the available set supports;
    ``best_linking`` certifies it.
    """

    achieved_size: int
    required: int
    best_linking: Linking

    def __bool__(self) -> bool:
        return False


@dataclass(frozen=True)
class StructuralReport:
    """Point-wise structural controllability verdict with diagnostics.

    ``stems``/``cycles`` give a covering family of disjoint input-rooted paths
    and cycles when the system is controllable (reconstructed from the
    generic-rank matching); ``unreachable`` and ``uncovered`` locate the
    failing condition otherwise.
    """

    controllable: bool
    input_connected: bool
    unreachable: tuple
    generic_rank: int
    n: int
    uncovered: tuple
    stems: Optional[tuple] = None
    cycles: Optional[tuple] = None

    def __bool__(self) -> bool:
        return self.controllable


# ---------------------------------------------------------------------------
# Functional controllability and the minimal steering problem
# ---------------------------------------------------------------------------

def is_functional_target_controllable(
    sys: StructuredSystem,
    steering: Optional[Iterable[int]] = None,
    targets: Optional[Iterable[int]] = None,
) -> FunctionalVerdict:
    """Decide functional controllability of target states from steering states.

    Each steering state receives a dedicated input and each target state is
    read by a dedicated output; the system is functionally controllable for
    the pair iff a linking of size |targets| exists from steering to targets,
    in which case a witness linking is returned.  Defaults: the system's
    available set and target set.
    """
    s_set = tuple(steering) if steering is not None else sys.available
    t_set = tuple(targets) if targets is not None else sys.targets
    for v in s_set + t_set:
        if not 1 <= v <= sys.n:
            raise ValidationError(f"node {v} out of range 1..{sys.n}")
    graph = sys.state_adjacency()
    linking = flow.maximum_linking(graph, s_set, t_set)
    ok = linking.size == len(set(t_set))
    return FunctionalVerdict(
        controllable=ok,
        linking_size=linking.size,
        required=len(set(t_set)),
        witness=linking if ok else None,
    )


def is_functional_output_controllable(sys: StructuredSystem) -> FunctionalVerdict:
    """Decide functional output controllability for explicit input/output patterns.

    Uses the full system graph: the verdict is positive iff a maximum
    input-to-output linking has size equal to the number of outputs.
    """
    if not sys.explicit_inputs or not sys.explicit_outputs:
        raise ValidationError("explicit input and output patterns are required")
    graph, inputs, outputs = linking_graph(sys)
    linking = flow.maximum_linking(graph, inputs, outputs)
    ok = linking.size == len(outputs)
    return FunctionalVerdict(
        controllable=ok,
        linking_size=linking.size,
        required=len(outputs),
        witness=linking if ok else None,
    )


def solve_mtcp(
    sys: StructuredSystem, prefer_small_index: bool = False
) -> MtcpSolution | Unsolvable:
    """Find a minimum steering set within the available set, or prove none exists.

    Solvable iff a linking of size p = |targets| exists from the available
    set; the returned steering set consists of the p start nodes of a maximum
    linking.  With ``prefer_small_index`` the steering set is the
    lexicographically smallest admissible one (selected greedily, one extra
    flow computation per available node); otherwise the deterministic flow
    witness is returned directly.
    """
    if not sys.targets:
        raise ValidationError("system has no targets")
    graph = sys.state_adjacency()
    a_set, t_set = sys.available, sys.targets
    p = len(t_set)
    linking = flow.maximum_linking(graph, a_set, t_set)
    if linking.size < p:
        return Unsolvable(achieved_size=linking.size, required=p,
                          best_linking=linking)
    if prefer_small_index:
        chosen: list[int] = []
        for a in sorted(a_set):
            if len(chosen) == p:
                break
            if flow.max_linking_size(graph, chosen + [a], t_set) > len(chosen):
                chosen.append(a)
        linking = flow.maximum_linking(graph, chosen, t_set)
    steering = tuple(sorted(linking.start_nodes()))
    return MtcpSolution(steering=steering, witness=linking)


def classify_nodes(sys: StructuredSystem) -> NodeClassification:
    """Label every available node as essential, useful or useless.

    Useless nodes are those with no path to any target (dropping them from
    any admissible steering set changes nothing).  Essential nodes are those
    contained in every admissible steering set, detected on the steering flow
    network: a flow-used start node is essential iff no residual rerouting to
    it exists.  Remaining nodes are useful.

    Raises:
        UnsolvableError: when no admissible steering set exists, since the
            classification quantifies over admissible sets.
    """
    graph = sys.state_adjacency()
    p = len(sys.targets)
    value, essential, reaches_target = flow.essential_start_analysis(
        graph, sys.available, sys.targets
    )
    if value < p:
        raise UnsolvableError(achieved_size=value, required=p)
    useless = frozenset(a for a in sys.available if a not in reaches_target)
    useful = frozenset(
        a for a in sys.available if a in reaches_target and a not in essential
    )
    return NodeClassification(essential=essential, useful=useful, useless=useless)


# ---------------------------------------------------------------------------
# Point-wise structural controllability
# ---------------------------------------------------------------------------

def _input_reachability(sys: StructuredSystem) -> set[int]:
    """State nodes reachable from at least one input (multi-source BFS)."""
    succ = sys.state_adjacency()
    seeds = [i for col in sys.explicit_inputs for i in col]
    if isinstance(succ, flow.StateGraph):
        starts = np.unique(np.array(seeds, dtype=np.int64)) - 1
        mask = flow.reachable(sys.n, succ.tails, succ.heads, starts)
        return set((np.flatnonzero(mask) + 1).tolist())
    seen = set(seeds)
    queue = deque(seeds)
    while queue:
        u = queue.popleft()
        for v in succ[u]:
            if v not in seen:
                seen.add(v)
                queue.append(v)
    return seen


def generic_rank(sys: StructuredSystem) -> int:
    """Generic rank of the composite [state|input] pattern.

    Equals the maximum matching size in the bipartite row/column graph of the
    pattern (entries are independent parameters, so no generic cancellation).
    """
    match = _pattern_matching(sys)
    return int((match >= 0).sum())


def _pattern_matching(sys: StructuredSystem) -> np.ndarray:
    """Row-to-column maximum matching of the [state|input] pattern."""
    n, m = sys.n, len(sys.explicit_inputs)
    tails, heads = sys._edge_arrays
    inputs = [(i - 1, n + k) for k, col in enumerate(sys.explicit_inputs)
              for i in col]
    in_rows, in_cols = np.array(inputs, dtype=np.int64).reshape(-1, 2).T
    rows = np.concatenate([heads, in_rows])
    cols = np.concatenate([tails, in_cols])
    pattern = csr_matrix(
        (np.ones(len(rows), dtype=np.int8), (rows, cols)), shape=(n, n + m)
    )
    return np.asarray(maximum_bipartite_matching(pattern, perm_type="column"))


def is_structurally_controllable(sys: StructuredSystem) -> StructuralReport:
    """Decide generic point-wise controllability of the full state.

    True iff (a) every state node is reachable from an input and (b) the
    generic rank of the [state|input] pattern is n.  When both hold, a
    disjoint stem/cycle cover of the state nodes is reconstructed from the
    rank matching and reported.
    """
    if not sys.explicit_inputs:
        raise ValidationError("structural controllability needs explicit inputs")
    n = sys.n
    reachable = _input_reachability(sys)
    unreachable = tuple(i for i in range(1, n + 1) if i not in reachable)

    match = _pattern_matching(sys)
    rank = int((match >= 0).sum())
    uncovered = tuple(j + 1 for j in range(n) if match[j] < 0)
    controllable = not unreachable and rank == n

    stems = cycles = None
    if rank == n:
        stems_list, cycles_list = _cover_from_matching(sys, match)
        stems, cycles = tuple(stems_list), tuple(cycles_list)

    return StructuralReport(
        controllable=controllable,
        input_connected=not unreachable,
        unreachable=unreachable,
        generic_rank=rank,
        n=n,
        uncovered=uncovered,
        stems=stems,
        cycles=cycles,
    )


def _cover_from_matching(
    sys: StructuredSystem, match: np.ndarray
) -> tuple[list, list]:
    """Rebuild a disjoint stem/cycle cover from a full row matching.

    Row j matched to a state column i reads "state i precedes state j"; a row
    matched to an input column roots a stem.  Every state has exactly one
    predecessor and at most one successor, so components are input-rooted
    paths and cycles covering all states.
    """
    n = sys.n
    pred: dict[int, tuple[str, int]] = {}
    succ_of_state: dict[int, int] = {}
    stem_root_of: dict[int, int] = {}
    for j in range(n):
        c = int(match[j])
        state = j + 1
        if c < n:
            pred[state] = ("x", c + 1)
            succ_of_state[c + 1] = state
        else:
            k = c - n + 1
            pred[state] = ("u", k)
            stem_root_of[state] = k

    stems = []
    on_stem: set[int] = set()
    for state, k in sorted(stem_root_of.items()):
        chain = [("u", k)]
        cur: Optional[int] = state
        while cur is not None:
            chain.append(("x", cur))
            on_stem.add(cur)
            cur = succ_of_state.get(cur)
        stems.append(tuple(chain))

    cycles = []
    seen: set[int] = set(on_stem)
    for state in range(1, n + 1):
        if state in seen:
            continue
        cyc = []
        cur = state
        while cur not in seen:
            seen.add(cur)
            cyc.append(("x", cur))
            cur = succ_of_state[cur]
        cycles.append(tuple(cyc))
    return stems, cycles
