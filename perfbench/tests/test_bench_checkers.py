"""The checkers accept right answers and reject corrupted ones."""

import json
import os
import random
import subprocess
import sys

import networkx as nx
import numpy as np
import pytest

import checks
import indep

ROOT = checks.ROOT


def sample(name):
    with open(os.path.join(ROOT, "samples", name), encoding="utf-8") as fh:
        return checks.System(fh.read())


CTX = {"planted": {}, "seed": 0, "by_system": {}, "answers": {}}
# right answers for samples/steering.sys (see the top-level README)
LABELS = {"essential": [1], "useful": [2, 4], "useless": [3]}
SOLVED = {"steering": [1, 2], "paths": [[1, 6, 8], [2, 5, 9]]}


def test_right_answers_pass():
    s = sample("steering.sys")
    assert checks.check_classify(s, {}, LABELS, CTX) == []
    assert checks.check_solve(s, {}, SOLVED, CTX) == []
    assert checks.check_solve_lexi(s, {}, SOLVED, CTX) == []
    assert checks.check_linking(s, {"system": "x"}, {"paths": SOLVED["paths"]}, CTX) == []


def test_linking_that_reuses_a_node_is_rejected():
    s = sample("steering.sys")
    bad = {"steering": [1, 2], "paths": [[1, 6, 8], [2, 5, 6, 9]]}
    assert any("reuses" in p for p in checks.check_solve(s, {}, bad, CTX))


def test_linking_along_a_missing_edge_is_rejected():
    s = sample("steering.sys")
    bad = {"steering": [1, 2], "paths": [[1, 8], [2, 5, 9]]}
    assert any("not an edge" in p for p in checks.check_solve(s, {}, bad, CTX))


def test_wrong_label_is_rejected():
    s = sample("steering.sys")
    for wrong in ({"essential": [], "useful": [1, 2, 4], "useless": [3]},
                  {"essential": [1], "useful": [2, 3, 4], "useless": []},
                  {"essential": [1, 2], "useful": [4], "useless": [3]}):
        assert checks.check_classify(s, {}, wrong, CTX)


def test_not_lexicographically_smallest_is_rejected():
    s = sample("steering.sys")
    later = {"steering": [1, 4], "paths": [[1, 6, 8], [4, 5, 9]]}
    assert checks.check_solve(s, {}, later, CTX) == []
    assert any("lexicographically" in p
               for p in checks.check_solve_lexi(s, {}, later, CTX))


def test_separator_that_does_not_cut_or_is_too_big_is_rejected():
    s = sample("steering.sys")
    q = {"id": 0, "kind": "separator", "system": "x"}
    assert checks.check_separator(s, q, {"separator": [1, 5]}, CTX) == []
    assert checks.check_separator(s, q, {"separator": [1, 6]}, CTX)
    assert checks.check_separator(s, q, {"separator": [1, 5, 6]}, CTX)


def test_wrong_rank_is_rejected():
    s = sample("network.sys")
    q = {"seed": 7, "trials": 2}
    right = [[7, 2, 2, 2, True], [8, 2, 2, 2, True]]
    assert checks.check_cross_validate(s, q, right, CTX) == []
    for wrong in ([[7, 2, 1, 2, True], [8, 2, 2, 2, True]],
                  [[7, 1, 1, 1, True], [8, 1, 1, 1, True]],
                  [[7, 2, 2, 1, True], [8, 2, 2, 2, True]]):
        assert checks.check_cross_validate(s, q, wrong, CTX)
    ans = {"controllable": True, "input_connected": True, "unreachable": [],
           "generic_rank": 9, "n": 9, "uncovered": []}
    assert checks.check_structural(s, {}, ans, CTX) == []
    assert checks.check_structural(s, {}, dict(ans, generic_rank=8,
                                                  uncovered=[3]), CTX)


def test_wrong_verdict_is_rejected():
    s = sample("steering.sys")
    q = {"steering": [3, 4]}
    negative = {"controllable": False, "size": 1, "required": 2, "paths": None}
    assert checks.check_check(s, q, negative, CTX) == []
    assert checks.check_check(s, q, dict(negative, size=2), CTX)
    assert checks.check_check(s, {"steering": [1, 2]}, negative, CTX)


@pytest.mark.parametrize("seed", range(30))
def test_flow_kernels_agree_with_networkx(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 25)
    edges = np.unique(np.array([[rng.randint(1, n), rng.randint(1, n)]
                                for _ in range(rng.randint(1, 3 * n))]), axis=0)
    sources = rng.sample(range(1, n + 1), rng.randint(1, n))
    targets = rng.sample(range(1, n + 1), rng.randint(1, n))
    g = nx.DiGraph()
    for v in range(1, n + 1):
        g.add_edge(("in", v), ("out", v), capacity=1)
    for u, w in edges.tolist():
        g.add_edge(("out", u), ("in", w), capacity=1)
    for a in sources:
        g.add_edge("s", ("in", a), capacity=1)
    for t in targets:
        g.add_edge(("out", t), "t", capacity=1)
    expected = nx.maximum_flow_value(g, "s", "t")
    assert indep._flow_py(n, edges, sorted(sources), sorted(targets))[0] == expected
    assert indep._flow_scipy(n, edges, sorted(sources), sorted(targets))[0] == expected


def test_checkers_do_not_import_netctrl():
    code = ("import sys; sys.path.insert(0, %r); import checks, indep, gen; "
            "print('netctrl' in sys.modules)" % checks.HERE)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True).stdout
    assert json.loads(out.strip().lower()) is False


def test_cli_classify_is_read_with_or_without_envelope():
    bare = {"x1": "essential", "x2": "useful", "x3": "useless", "x4": "useful"}
    grouped = {"essential": ["x1"], "useful": ["x2", "x4"], "useless": ["x3"]}
    for payload in (bare, {"command": "classify", "labels": bare},
                    {"command": "classify", "solvable": True, "classes": grouped}):
        assert checks.labels_from_cli(payload) == LABELS
    assert checks.check_cli({"classify": [0, json.dumps(bare)]}) == []
    assert checks.check_cli({"classify": [0, json.dumps(dict(bare, x1="useful"))]})
    assert checks.check_cli({"classify": [1, json.dumps(bare)]})
    assert checks.check_cli({"classify": [0, "{\"command\": \"classify\"}"]})
