"""Seeded input generator for the netctrl benchmark.

Writes one workload's system files and its question list into
``perfbench/.cache/<workload>-<seed>/`` and records them in ``manifest.json``.
The same (workload, seed) always gives byte-identical files.  The generator
never imports netctrl: where it must know that an instance is solvable, it
uses the benchmark's own flow (``indep.py``).

    python3 perfbench/gen.py --workload large-sparse --seed 1 [--force]

prints the manifest path.  An existing, complete cache entry is reused
unless ``--force`` is given.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

import numpy as np

import indep

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CACHE = os.path.join(HERE, ".cache")
SAMPLES = ("chain.sys", "network.sys", "steering.sys")
# bump when the make-up of any workload changes, so stale caches are rebuilt
GENERATOR_VERSION = 5
WORKLOAD_CODES = {"large-sparse": 1, "small-batch": 2, "lexi-solve": 3,
                  "numeric-oracle": 4}

# Workload sizes.  ``tiny`` shrinks every workload for the self-tests.
SIZES = {
    False: {"large_n": 100_000, "large_e": 300_000, "large_a": 200,
            "large_t": 10, "large_essential": 3, "large_useless": 20,
            "small_count": 2000,
            "lexi_ns": (10_000, 11_000, 12_000, 13_000, 14_000),
            "lexi_a": 12, "lexi_t": 4, "numeric_n": 200,
            "horizon": 5.0},
    True: {"large_n": 3_000, "large_e": 9_000, "large_a": 40,
           "large_t": 6, "large_essential": 2, "large_useless": 5,
           "small_count": 40, "lexi_ns": (400, 500, 600), "lexi_a": 12,
           "lexi_t": 4, "numeric_n": 30, "horizon": 1.0},
}


def system_text(n, edges, available=(), targets=(), inputs=(), outputs=()):
    """A system in netctrl's line format (1-based node numbers)."""
    lines = [f"n {n}"]
    lines += [f"edge {i} {j}" for i, j in edges]
    if len(available):
        lines.append("available " + " ".join(map(str, available)))
    if len(targets):
        lines.append("targets " + " ".join(map(str, targets)))
    for k, col in enumerate(inputs, start=1):
        lines.append(f"input {k} " + " ".join(map(str, col)))
    for k, row in enumerate(outputs, start=1):
        lines.append(f"output {k} " + " ".join(map(str, row)))
    return "\n".join(lines) + "\n"


def _unique_edges(rng, n, count, keep=None):
    """``count`` distinct random (tail, head) pairs, 1-based, in draw order."""
    got = np.empty((0, 2), dtype=np.int64)
    while len(got) < count:
        more = rng.integers(1, n + 1, size=(2 * (count - len(got)) + 16, 2))
        if keep is not None:
            more = more[keep(more)]
        pool = np.vstack([got, more])
        _, first = np.unique(pool[:, 0] * (n + 1) + pool[:, 1],
                             return_index=True)
        got = pool[np.sort(first)]
    return got[:count]


# ---------------------------------------------------------------------------
# large-sparse
# ---------------------------------------------------------------------------

def make_large_sparse(rng, size):
    """Criterion-7 shape with planted essential and useless available nodes.

    Essential: each planted pair (a, t) has t's only in-edge coming from a,
    and a has no in-edge, so every linking that covers t starts at a.
    Useless: planted available nodes lose all their out-edges.
    """
    n, e = size["large_n"], size["large_e"]
    n_a, n_t = size["large_a"], size["large_t"]
    k_ess, k_useless = size["large_essential"], size["large_useless"]
    while True:
        picks = rng.choice(np.arange(1, n + 1), size=n_a + n_t, replace=False)
        available, targets = picks[:n_a], picks[n_a:]
        ess_a, ess_t = available[:k_ess], targets[:k_ess]
        useless = available[k_ess:k_ess + k_useless]
        blocked_head = np.zeros(n + 1, dtype=bool)
        blocked_head[ess_a] = True
        blocked_head[ess_t] = True
        blocked_tail = np.zeros(n + 1, dtype=bool)
        blocked_tail[useless] = True
        edges = _unique_edges(
            rng, n, e - k_ess,
            keep=lambda p: ~blocked_head[p[:, 1]] & ~blocked_tail[p[:, 0]])
        edges = np.vstack([edges, np.column_stack([ess_a, ess_t])])
        if indep.max_disjoint(n, edges, available, targets) == n_t:
            break
    order = rng.permutation(n_a)
    available = available[order]
    text = system_text(n, edges.tolist(), available.tolist(), targets.tolist())
    # an admissible set by the benchmark's own flow, grown by random extras,
    # is a certainly positive steering set; dropping a planted essential node
    # gives a certainly negative one
    basis = indep.linking_starts(n, edges, available, targets)
    rest = [int(a) for a in available if a not in set(basis)]
    extra = rng.choice(rest, size=min(len(rest), 3 * n_t), replace=False)
    positive = sorted(set(basis) | set(int(a) for a in extra))
    keep = [int(a) for a in available if a != ess_a[0]]
    negative = sorted(rng.choice(keep, size=(3 * len(keep)) // 4,
                                 replace=False).tolist())
    files = {"large.sys": text}
    questions = [
        {"kind": "classify", "system": "large.sys"},
        {"kind": "solve", "system": "large.sys"},
        {"kind": "separator", "system": "large.sys"},
        {"kind": "linking", "system": "large.sys"},
        {"kind": "check", "system": "large.sys", "steering": positive},
        {"kind": "check", "system": "large.sys", "steering": negative},
    ]
    planted = {"essential": sorted(int(a) for a in ess_a),
               "useless": sorted(int(a) for a in useless)}
    return files, questions, planted


# ---------------------------------------------------------------------------
# small-batch
# ---------------------------------------------------------------------------

def _random_small(rng):
    """Criterion-5 generator (n <= 30, |A| <= 8, |T| <= 5, e <= 2.5 n);
    every third system also gets explicit input columns and output rows."""
    n = int(rng.integers(2, 31))
    m_edges = int(rng.integers(0, max(1, int(2.5 * n)) + 1))
    edges = sorted({(int(i), int(j))
                    for i, j in rng.integers(1, n + 1, size=(m_edges, 2))})
    available = rng.choice(np.arange(1, n + 1), size=int(rng.integers(1, min(8, n) + 1)),
                           replace=False).tolist()
    targets = rng.choice(np.arange(1, n + 1), size=int(rng.integers(1, min(5, n) + 1)),
                         replace=False).tolist()
    inputs, outputs = [], []
    if rng.random() < 1 / 3:
        for _ in range(int(rng.integers(1, 4))):
            inputs.append(sorted(rng.choice(np.arange(1, n + 1),
                                            size=int(rng.integers(1, min(3, n) + 1)),
                                            replace=False).tolist()))
        for _ in range(int(rng.integers(1, 4))):
            outputs.append(sorted(rng.choice(np.arange(1, n + 1),
                                             size=int(rng.integers(1, min(3, n) + 1)),
                                             replace=False).tolist()))
    steering = rng.choice(available, size=int(rng.integers(1, len(available) + 1)),
                          replace=False).tolist()
    return system_text(n, edges, available, targets, inputs, outputs), steering


def _small_questions(name, text, steering):
    has = {line.split()[0] for line in text.splitlines() if line.strip()}
    qs = []
    if "available" in has and "targets" in has:
        qs += [{"kind": k, "system": name} for k in
               ("classify", "solve", "solve_lexi", "separator", "linking")]
        qs.append({"kind": "check", "system": name, "steering": steering})
    if "input" in has and "output" in has:
        qs.append({"kind": "output_check", "system": name})
    if "input" in has:
        qs.append({"kind": "structural", "system": name})
    return qs


def make_small_batch(rng, size):
    texts = {}
    for name in SAMPLES:
        with open(os.path.join(ROOT, "samples", name), encoding="utf-8") as fh:
            texts[name] = (fh.read(), [1, 2])
    for k in range(size["small_count"]):
        texts[f"r{k}.sys"] = _random_small(rng)
    questions = []
    for name, (text, steering) in texts.items():
        questions += _small_questions(name, text, steering)
    # all systems in one file, one block per system, so setup reads one file
    bundle = "".join(f"%% {name}\n{text}" for name, (text, _) in texts.items())
    return {"small.bundle": bundle}, questions, {}


# ---------------------------------------------------------------------------
# lexi-solve
# ---------------------------------------------------------------------------

def make_lexi_instance(rng, n, n_a, n_t):
    """Random 3-edges-per-node digraph whose lexicographic greedy scans most
    of the available set, and the same number of candidates on every seed.

    Nodes 1..n/2 form a funnel region that reaches the rest only through the
    gate node 1, so the low-numbered available nodes placed there have rank
    at most 1 together; the remaining available nodes, all numbered above
    the funnel, sit with the targets in the open region.  The greedy takes
    one funnel node, rejects the other funnel candidates one full flow each,
    then takes the first ``n_t - 1`` open candidates.  A draw on which the
    benchmark's own greedy does otherwise is redrawn.
    """
    half = n // 2
    n_funnel = n_a - (n_t + n_t // 2)
    in_funnel = np.zeros(n + 1, dtype=bool)
    in_funnel[1:half + 1] = True
    # funnel nodes other than the gate may not point into the open region
    keep = lambda p: ~(in_funnel[p[:, 0]] & ~in_funnel[p[:, 1]] & (p[:, 0] > 1))
    while True:
        funnel_a = np.sort(rng.choice(np.arange(2, half + 1), size=n_funnel,
                                      replace=False))
        open_picks = rng.choice(np.arange(half + 1, n + 1),
                                size=(n_a - n_funnel) + n_t, replace=False)
        open_a, targets = open_picks[:n_a - n_funnel], open_picks[n_a - n_funnel:]
        edges = _unique_edges(rng, n, 3 * n - 2, keep=keep)
        gate_out = np.column_stack([np.ones(2, dtype=np.int64),
                                    rng.integers(half + 1, n + 1, size=2)])
        edges = np.vstack([edges, gate_out])
        edges = edges[np.unique(edges[:, 0] * (n + 1) + edges[:, 1],
                                return_index=True)[1]]
        available = np.concatenate([funnel_a, open_a])
        if _greedy_examined(n, edges, available, targets) == n_funnel + n_t - 1:
            break
    return system_text(n, edges.tolist(), available.tolist(), targets.tolist())


def _greedy_examined(n, edges, available, targets):
    """Candidates the lexicographic greedy examines before it holds |T|
    nodes (by the benchmark's own flow); 0 if it never does."""
    chosen = []
    for k, a in enumerate(sorted(int(v) for v in available), start=1):
        if indep.max_disjoint(n, edges, chosen + [a], targets) > len(chosen):
            chosen.append(a)
            if len(chosen) == len(targets):
                return k
    return 0


def make_lexi_solve(rng, size):
    files, questions = {}, []
    for k, n in enumerate(size["lexi_ns"]):
        name = f"lexi{k}.sys"
        files[name] = make_lexi_instance(rng, n, size["lexi_a"], size["lexi_t"])
        questions.append({"kind": "solve_lexi", "system": name})
    return files, questions, {}


# ---------------------------------------------------------------------------
# numeric-oracle
# ---------------------------------------------------------------------------

def make_numeric_oracle(rng, size):
    n = size["numeric_n"]
    edges = _unique_edges(rng, n, 3 * n).tolist()
    picks = rng.choice(np.arange(1, n + 1), size=30, replace=False).tolist()
    text = system_text(n, edges, picks[:20], picks[20:])
    files = {"numeric.sys": text}
    for name in ("network.sys", "steering.sys"):
        with open(os.path.join(ROOT, "samples", name), encoding="utf-8") as fh:
            files[name] = fh.read()
    s1, s2 = (int(v) for v in rng.integers(0, 10**6, size=2))
    # The steering.sys track (m = 4 inputs > p = 2 outputs, so the input is
    # the minimum-norm one) costs more than the network.sys track at dt 0.01.
    # With five questions a round, the median question is then a dt 0.01
    # track, whose input does not depend on the seed.
    questions = [
        {"kind": "cross_validate", "system": "network.sys", "trials": 20,
         "seed": s1},
        {"kind": "cross_validate", "system": "numeric.sys", "trials": 5,
         "seed": s2},
        {"kind": "track", "system": "network.sys", "dt": 0.01,
         "horizon": size["horizon"], "seed": 42},
        {"kind": "track", "system": "steering.sys", "dt": 0.01,
         "horizon": size["horizon"], "seed": 42},
        {"kind": "track", "system": "network.sys", "dt": 0.005,
         "horizon": size["horizon"], "seed": 42},
    ]
    return files, questions, {}


MAKERS = {"large-sparse": make_large_sparse, "small-batch": make_small_batch,
          "lexi-solve": make_lexi_solve, "numeric-oracle": make_numeric_oracle}


def generate(workload, seed, tiny=False, force=False):
    """Write (or reuse) the cache entry; return the manifest path."""
    tag = f"{workload}-{seed}" + ("-tiny" if tiny else "")
    out = os.path.join(CACHE, tag)
    manifest_path = os.path.join(out, "manifest.json")
    if not force and os.path.exists(manifest_path):
        with open(manifest_path, encoding="utf-8") as fh:
            if json.load(fh).get("version") == GENERATOR_VERSION:
                return manifest_path
    rng = np.random.default_rng([seed, WORKLOAD_CODES[workload]])
    files, questions, planted = MAKERS[workload](rng, SIZES[tiny])
    tmp = out + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    for name, text in files.items():
        with open(os.path.join(tmp, name), "w", encoding="utf-8") as fh:
            fh.write(text)
    for q_id, q in enumerate(questions):
        q["id"] = q_id
    manifest = {"version": GENERATOR_VERSION, "workload": workload,
                "seed": seed, "tiny": tiny, "files": sorted(files),
                "questions": questions, "planted": planted}
    with open(os.path.join(tmp, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh)
    shutil.rmtree(out, ignore_errors=True)
    os.replace(tmp, out)
    return manifest_path


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(MAKERS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--tiny", action="store_true", help="self-test sizes")
    ap.add_argument("--force", action="store_true", help="rebuild the cache entry")
    args = ap.parse_args(argv)
    print(generate(args.workload, args.seed, args.tiny, args.force))
    return 0


if __name__ == "__main__":
    sys.exit(main())
