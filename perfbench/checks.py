"""Independent checks of netctrl's answers.

Nothing here imports netctrl.  Each answer is tested against a certificate
or a computation of the benchmark's own (``indep.py``), never against a
stored copy of an earlier answer:

* linkings: disjoint, direct, along real edges, from the steering set to T;
* Menger: the separator cuts every A-T path (own BFS) and is as large as the
  linking, so both are optimal;
* useless nodes: exactly the available nodes with no path to T;
* essential nodes: ``A - {a}`` no longer links all of T (own max flow), for
  every small system node by node, and on large systems for every node
  labelled essential plus a seeded sample of the useful ones;
* systems with n <= 10 also against the brute-force oracles of
  ``tests/oracles.py``;
* lexicographic solve: the matroid-greedy property (no smaller candidate was
  independent of the chosen nodes before it), by own max flow;
* structural controllability: input reachability plus generic rank by
  networkx matching;
* numeric: transfer rank equals the generic rank and is at most the
  point-wise rank; ``track``'s inputs re-simulated with scipy's own ZOH
  reproduce the reference at the grid points; max_error < 1e-3 at dt 0.01 and
  no larger at dt 0.005.

``check_all`` returns a list of problems; an empty list means every answer
holds.
"""

from __future__ import annotations

import json
import os
import random
import sys

import numpy as np

import indep
import worker

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BRUTE_N = 10          # systems this small are also checked by enumeration
EXACT_N = indep.SMALL  # up to here every available node's label is recomputed
USEFUL_SAMPLE = 4     # useful labels re-checked per large system
GRID_TOL = 1e-6       # re-simulated output vs reference at the grid points
MAX_ERROR = 1e-3      # inter-sample tracking error allowed at dt 0.01


class System:
    """One input system as the checker sees it, with cached derived data."""

    def __init__(self, text):
        f = indep.parse_text(text)
        self.n, self.edges = f["n"], f["edges"]
        self.available, self.targets = f["available"], f["targets"]
        self.inputs, self.outputs = f["inputs"], f["outputs"]
        self._edge_set = self._reach = None
        self._ranks = {}

    @property
    def edge_set(self):
        if self._edge_set is None:
            self._edge_set = indep.EdgeSet(self.n, self.edges)
        return self._edge_set

    def reaches_targets(self):
        if self._reach is None:
            self._reach = indep.reachable(self.n, self.edges, self.targets,
                                          reverse=True)
        return self._reach

    def rank(self, sources):
        key = frozenset(sources)
        if key not in self._ranks:
            self._ranks[key] = indep.max_disjoint(self.n, self.edges, key,
                                                  self.targets)
        return self._ranks[key]

    def adjacency(self):
        adj = {v: [] for v in range(1, self.n + 1)}
        for i, j in self.edges.tolist():
            adj[i].append(j)
        return adj


def load_systems(manifest):
    return {name: System(text)
            for name, text in worker.read_texts(manifest).items()}


def _oracles():
    if ROOT not in sys.path:
        sys.path.insert(0, ROOT)
    from tests import oracles
    return oracles


def _linking(s, paths, sources, size, what="linking"):
    problems = indep.linking_problems(paths or [], s.edge_set, sources, s.targets)
    if len(paths or []) != size:
        problems.append(f"{what} has {len(paths or [])} paths, expected {size}")
    return problems


def check_classify(s, q, ans, ctx):
    p = len(set(s.targets))
    avail = set(s.available)
    r = s.rank(avail)
    if "unsolvable" in ans:
        if r < p and ans["unsolvable"] == r and ans["required"] == p:
            return []
        return [f"reported unsolvable {ans} but A links {r} of {p} targets"]
    if r < p:
        return [f"classified a system whose A links only {r} of {p} targets"]
    labels = {v: k for k in ("essential", "useful", "useless") for v in ans[k]}
    if set(labels) != avail or sum(len(ans[k]) for k in ans) != len(avail):
        return ["labels do not partition the available set"]
    problems = []
    reach = s.reaches_targets()
    useless = {a for a in avail if not reach[a]}
    if set(ans["useless"]) != useless:
        problems.append("useless labels differ from the nodes with no path to T")
    if s.n <= EXACT_N:
        probe = sorted(avail - useless)
    else:
        rng = random.Random(ctx["seed"])
        useful = sorted(ans["useful"])
        probe = sorted(ans["essential"]) + rng.sample(useful, min(USEFUL_SAMPLE, len(useful)))
    for a in probe:
        essential = s.rank(avail - {a}) < p
        if essential != (labels[a] == "essential"):
            problems.append(f"node {a} labelled {labels[a]}, but A-{{a}} "
                            f"{'cannot' if essential else 'can'} link T")
    planted = ctx["planted"]
    if not set(planted.get("essential", ())) <= set(ans["essential"]):
        problems.append("a planted essential node is not labelled essential")
    if not set(planted.get("useless", ())) <= set(ans["useless"]):
        problems.append("a planted useless node is not labelled useless")
    if s.n <= BRUTE_N:
        expected = _oracles().bf_classify(s.adjacency(), s.available, s.targets)
        if expected != {a: labels[a] for a in sorted(avail)}:
            problems.append(f"labels differ from brute force {expected}")
    return problems


def _check_solve(s, ans, lexi):
    p = len(set(s.targets))
    avail = set(s.available)
    if "unsolvable" in ans:
        r = s.rank(avail)
        problems = _linking(s, ans["paths"], avail, r, "best linking")
        if not (ans["unsolvable"] == r < p and ans["required"] == p):
            problems.append(f"reported unsolvable {ans['unsolvable']}/{p}, own rank {r}")
        return problems
    steering = ans["steering"]
    problems = _linking(s, ans["paths"], steering if lexi else avail, p, "witness")
    starts = sorted(path[0] for path in ans["paths"])
    if starts != sorted(steering) or not set(steering) <= avail:
        problems.append("steering set is not the witness' start nodes within A")
    if lexi and not problems:
        chosen, picked = [], set(steering)
        for a in sorted(avail):
            if a > max(steering):
                break
            if a in picked:
                chosen.append(a)
            elif s.rank(chosen + [a]) > len(chosen):
                problems.append(f"candidate {a} was independent of {chosen}: "
                                "not the lexicographically smallest basis")
                break
    return problems


def check_solve(s, q, ans, ctx):
    return _check_solve(s, ans, lexi=False)


def check_solve_lexi(s, q, ans, ctx):
    return _check_solve(s, ans, lexi=True)


def _partner(ctx, q, kind):
    for other in ctx["by_system"].get(q["system"], ()):
        if other["kind"] == kind and str(other["id"]) in ctx["answers"]:
            return json.loads(ctx["answers"][str(other["id"])])
    return None


def check_linking(s, q, ans, ctx):
    paths = ans["paths"]
    problems = indep.linking_problems(paths, s.edge_set, s.available, s.targets)
    if _partner(ctx, q, "separator") is None and len(paths) != s.rank(s.available):
        problems.append("linking is not maximum")
    return problems


def check_separator(s, q, ans, ctx):
    sep = ans["separator"]
    problems = indep.separator_problems(s.n, s.edges, s.available, s.targets, sep)
    linking = _partner(ctx, q, "linking")
    size = len(linking["paths"]) if linking is not None else s.rank(s.available)
    if len(sep) != size:
        problems.append(f"separator of {len(sep)} nodes against a linking of {size}")
    if s.n <= BRUTE_N:
        bf = _oracles().bf_max_linking_size(s.adjacency(), set(s.available),
                                            set(s.targets))
        if bf != len(sep):
            problems.append(f"brute-force linking size {bf} != separator size")
    return problems


def check_check(s, q, ans, ctx):
    steering = q["steering"]
    p = len(set(s.targets))
    if ans["required"] != p:
        return [f"required {ans['required']} != {p}"]
    if ans["controllable"]:
        return _linking(s, ans["paths"], steering, p, "witness")
    r = s.rank(steering)
    if ans["paths"] is not None or not ans["size"] == r < p:
        return [f"negative verdict with size {ans['size']}, own rank {r} of {p}"]
    return []


def check_output(s, q, ans, ctx):
    n, m, k = s.n, len(s.inputs), len(s.outputs)
    size, edges = indep.io_graph({"n": n, "edges": s.edges, "inputs": s.inputs,
                                  "outputs": s.outputs})
    ins = list(range(n + 1, n + m + 1))
    outs = list(range(n + m + 1, n + m + k + 1))
    offset = {"u": n, "x": 0, "y": n + m}
    if ans["required"] != k:
        return [f"required {ans['required']} != {k} outputs"]
    if ans["controllable"]:
        paths = [[offset[v[0]] + int(v[1:]) for v in path] for path in ans["paths"]]
        problems = indep.linking_problems(paths, indep.EdgeSet(size, edges), ins, outs)
        if len(paths) != k:
            problems.append(f"witness has {len(paths)} paths for {k} outputs")
        return problems
    r = indep.max_disjoint(size, edges, ins, outs)
    if ans["paths"] is not None or not ans["size"] == r < k:
        return [f"negative verdict with size {ans['size']}, own rank {r} of {k}"]
    return []


def check_structural(s, q, ans, ctx):
    import networkx as nx

    n, m = s.n, len(s.inputs)
    seeds = [i for col in s.inputs for i in col]
    reach = indep.reachable(n, s.edges, seeds)
    unreachable = [i for i in range(1, n + 1) if not reach[i]]
    g = nx.Graph()
    rows = [("r", j) for j in range(n)]
    g.add_nodes_from(rows)
    g.add_nodes_from(("c", c) for c in range(n + m))
    g.add_edges_from((("r", j - 1), ("c", i - 1)) for i, j in s.edges.tolist())
    g.add_edges_from((("r", i - 1), ("c", n + k)) for k, col in enumerate(s.inputs)
                     for i in col)
    rank = len(nx.bipartite.hopcroft_karp_matching(g, top_nodes=rows)) // 2
    problems = []
    if ans["unreachable"] != unreachable or ans["input_connected"] != (not unreachable):
        problems.append(f"unreachable states {ans['unreachable']} != {unreachable}")
    if ans["generic_rank"] != rank or len(ans["uncovered"]) != n - rank:
        problems.append(f"generic rank {ans['generic_rank']} != matching {rank}")
    if ans["controllable"] != (not unreachable and rank == n):
        problems.append("verdict does not follow from reachability and rank")
    return problems


def _generic_rank(s):
    if s.inputs and s.outputs:
        n, m, k = s.n, len(s.inputs), len(s.outputs)
        size, edges = indep.io_graph({"n": n, "edges": s.edges, "inputs": s.inputs,
                                      "outputs": s.outputs})
        return indep.max_disjoint(size, edges, range(n + 1, n + m + 1),
                                  range(n + m + 1, n + m + k + 1))
    return s.rank(s.available)


def check_cross_validate(s, q, ans, ctx):
    rank = _generic_rank(s)
    problems = []
    if [t[0] for t in ans] != [q["seed"] + k for k in range(q["trials"])]:
        problems.append("trial seeds are not seed, seed+1, ...")
    for seed, structural, transfer, pointwise, agree in ans:
        if not (structural == transfer == rank and transfer <= pointwise and agree):
            problems.append(f"trial {seed}: structural {structural}, transfer "
                            f"{transfer}, point-wise {pointwise}, own rank {rank}")
    return problems


def reference(p, t):
    """The smooth reference netctrl's ``default_reference`` documents."""
    comps = []
    for l in range(p):
        k = l // 2 + 1
        comps.append(np.sin(k * t) * t**2 if l % 2 == 0 else (1 - np.cos(k * t)) * t)
    return np.stack(comps, axis=-1)


def check_track(s, q, ans, ctx):
    from scipy.signal import cont2discrete

    a = np.load(os.path.join(ctx["arrays_dir"], f"arrays-{q['id']}.npz"))
    A, B, C, u = a["A"], a["B"], a["C"], a["inputs"]
    problems = []
    pattern = np.zeros((s.n, s.n), dtype=bool)
    pattern[s.edges[:, 1] - 1, s.edges[:, 0] - 1] = True
    cols = s.inputs or [[v] for v in s.available]
    rows = s.outputs or [[v] for v in s.targets]
    b_pat = np.zeros((s.n, len(cols)), dtype=bool)
    for k, col in enumerate(cols):
        b_pat[np.array(col) - 1, k] = True
    c_pat = np.zeros((len(rows), s.n), dtype=bool)
    for k, row in enumerate(rows):
        c_pat[k, np.array(row) - 1] = True
    if not ((A != 0) == pattern).all() or not ((B != 0) == b_pat).all() \
            or not ((C != 0) == c_pat).all():
        problems.append("instance matrices do not follow the system's pattern")
    steps = int(round(q["horizon"] / q["dt"]))
    if u.shape != (steps, B.shape[1]):
        return problems + [f"input sequence has shape {u.shape}"]
    Ad, Bd, _, _, _ = cont2discrete((A, B, C, np.zeros((C.shape[0], B.shape[1]))),
                                    q["dt"], method="zoh")
    x = np.zeros(s.n)
    y = np.zeros((steps + 1, C.shape[0]))
    for k in range(steps):
        x = Ad @ x + Bd @ u[k]
        y[k + 1] = C @ x
    ref = reference(C.shape[0], q["dt"] * np.arange(steps + 1))
    r = ans["startup_steps"]
    err = float(np.abs(y[r:] - ref[r:]).max())
    if err > GRID_TOL:
        problems.append(f"re-simulated grid error {err:.2e} > {GRID_TOL:g}")
    if abs(q["dt"] - 0.01) < 1e-12 and not ans["max_error"] < MAX_ERROR:
        problems.append(f"max_error {ans['max_error']:.2e} at dt 0.01")
    for other in ctx["by_system"][q["system"]]:
        key = str(other["id"])
        if other["kind"] == "track" and other["seed"] == q["seed"] \
                and other["dt"] > q["dt"] and key in ctx["answers"]:
            coarse = json.loads(ctx["answers"][key])["max_error"]
            if ans["max_error"] > coarse:
                problems.append(f"max_error grew from {coarse:.2e} at dt "
                                f"{other['dt']} to {ans['max_error']:.2e}")
    return problems


def labels_from_cli(payload):
    """Labels printed by ``netctrl classify --json``, read with or without a
    ``{"command": "classify", ...}`` envelope around them.  The labels may be
    a mapping of node names to labels or of labels to lists of node names."""
    if "command" in payload:
        inner = [v for v in payload.values() if isinstance(v, dict)]
        if len(inner) != 1:
            raise ValueError("no label mapping under the classify envelope")
        payload = inner[0]
    labels = {"essential": [], "useful": [], "useless": []}
    for key, value in payload.items():
        if isinstance(value, list):
            labels[key] += [int(name.lstrip("x")) for name in value]
        else:
            labels[value].append(int(key.lstrip("x")))
    return {k: sorted(v) for k, v in labels.items()}


def check_cli(outputs):
    """Problems in the CLI runs on ``samples/steering.sys``: every
    subcommand gives a positive verdict there, and classify's labels hold."""
    problems = [f"cli {sub} exited {code}" for sub, (code, _) in outputs.items()
                if code != 0]
    with open(os.path.join(ROOT, "samples", "steering.sys"), encoding="utf-8") as fh:
        s = System(fh.read())
    try:
        labels = labels_from_cli(json.loads(outputs["classify"][1]))
    except (ValueError, KeyError, AttributeError) as exc:
        return problems + [f"cli classify output unreadable: {exc}"]
    ctx = {"planted": {}, "seed": 0}
    return problems + [f"cli classify: {p}" for p in check_classify(s, {}, labels, ctx)]


CHECKS = {
    "classify": check_classify, "solve": check_solve,
    "solve_lexi": check_solve_lexi, "separator": check_separator,
    "linking": check_linking, "check": check_check,
    "output_check": check_output, "structural": check_structural,
    "cross_validate": check_cross_validate, "track": check_track,
}


def check_all(manifest, answers, arrays_dir):
    """Problems found in ``answers`` (question id -> JSON answer)."""
    systems = load_systems(manifest)
    by_system = {}
    for q in manifest["questions"]:
        by_system.setdefault(q["system"], []).append(q)
    ctx = {"answers": answers, "by_system": by_system, "arrays_dir": arrays_dir,
           "planted": manifest.get("planted", {}), "seed": manifest["seed"]}
    problems = []
    for q in manifest["questions"]:
        key = str(q["id"])
        if key not in answers:
            continue
        found = CHECKS[q["kind"]](systems[q["system"]], q, json.loads(answers[key]), ctx)
        problems += [f"question {q['id']} ({q['kind']} on {q['system']}): {p}"
                     for p in found]
    return problems
