"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with ``pytest -v tests/test_acceptance.py`` for one pass/fail line per
criterion; the explicit prints below additionally show the measured values.
"""

import random
import time
from itertools import combinations

import numpy as np
import pytest

from netctrl import (
    StructuredSystem,
    TrajectoryTask,
    Unsolvable,
    UnsolvableError,
    build_auxiliary_graph,
    build_graph,
    classify_nodes,
    instantiate,
    is_functional_output_controllable,
    is_functional_target_controllable,
    is_structurally_controllable,
    max_flow,
    max_linking_size,
    maximum_linking,
    min_cut_source_set,
    minimal_left_separator,
    pointwise_output_ctrb_rank,
    solve_mtcp,
    state_ctrb_rank,
    track_trajectory,
    transfer_rank,
)
from netctrl.flow import SOURCE
from netctrl.numeric import PreconditionError

from .conftest import random_system
from .oracles import (
    bf_classify,
    bf_is_admissible,
    bf_max_linking_size,
    bf_minimum_separators,
    is_separator,
)
from .test_properties import count_networks


def _report(criterion: str, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS ({detail})")


def test_criterion_1_io_linking_foc_structural(io_system):
    g = build_graph(io_system).adjacency()
    inputs = [("u", 1), ("u", 2)]
    outputs = [("y", 1), ("y", 2)]

    # warm-up, then time one full evaluation of all three verdicts
    max_linking_size(g, inputs, outputs)
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        size = max_linking_size(g, inputs, outputs)
        foc = is_functional_output_controllable(io_system).controllable
        structural = is_structurally_controllable(io_system).controllable
        best = min(best, time.perf_counter() - start)

    assert size == 2
    assert foc is True
    assert structural is True
    assert best < 1e-3, f"took {best * 1e3:.3f} ms"
    _report("1", f"linking=2, FOC=true, structural=true in {best * 1e6:.0f} us")


def test_criterion_2_steering_separator_classes_mtcp(steering_system):
    adj = steering_system.state_adjacency()
    sep = minimal_left_separator(adj, (1, 2, 3, 4), (8, 9))
    assert sep == {1, 5}

    classes = classify_nodes(steering_system).as_dict()
    assert classes == {1: "essential", 2: "useful", 3: "useless", 4: "useful"}

    sol = solve_mtcp(steering_system)
    assert len(sol.steering) == 2
    assert 1 in sol.steering
    # x1 belongs to every solution: enumerate all admissible pairs
    for combo in combinations((1, 2, 3, 4), 2):
        if bf_is_admissible(adj, combo, (8, 9)):
            assert 1 in combo
    # and no singleton is admissible (minimum size really is 2)
    for single in ((1,), (2,), (3,), (4,)):
        assert not bf_is_admissible(adj, single, (8, 9))

    _report("2", "separator={x1,x5}, labels exact, MTCP size 2 with x1 mandatory")


def test_criterion_3_auxiliary_max_flow_and_labelled_cut(steering_system):
    aux = build_auxiliary_graph(
        steering_system.state_adjacency(), (1, 2, 3, 4), (8, 9)
    )
    flow = max_flow(aux)
    assert flow.value == 2
    expected = {
        SOURCE,
        (4, "-"), (4, "+"), (5, "-"),
        (3, "-"), (3, "+"),
        (2, "-"), (1, "-"), (2, "+"),
    }
    labelled = min_cut_source_set(aux, flow)
    assert labelled == expected
    _report("3", "max flow 2, labelled source set matches exactly")


def test_criterion_4_chain_ranks_and_verdicts(chain_system):
    # generic rank of the controllability matrix across seeds
    for seed in range(20):
        assert state_ctrb_rank(instantiate(chain_system, seed=seed),
                               rel_tol=1e-9) == 3

    def with_targets(targets):
        return StructuredSystem(
            n=4, state_edges=chain_system.state_edges,
            explicit_inputs=((1,),), targets=tuple(targets),
        )

    for targets, expected in [((1, 2, 3), 3), ((1, 3, 4), 3), ((3, 4), 2)]:
        inst = instantiate(with_targets(targets), seed=17)
        assert pointwise_output_ctrb_rank(inst, rel_tol=1e-9) == expected

    all_nonempty = [
        combo for r in range(1, 5) for combo in combinations((1, 2, 3, 4), r)
    ]
    for targets in all_nonempty:
        inst = instantiate(with_targets(targets), seed=29)
        assert transfer_rank(inst, rel_tol=1e-9) == 1

    for targets in all_nonempty:
        verdict = is_functional_target_controllable(
            chain_system, steering=(1,), targets=targets
        )
        assert verdict.controllable == (len(targets) == 1)

    _report("4", "K rank 3 over 20 seeds; pointwise/transfer ranks and FOC exact")


def test_criterion_5_genericity_suite():
    rng = random.Random(1234)
    start = time.perf_counter()
    trials = 0
    while trials < 200:
        sys_ = random_system(rng, max_n=30, max_available=8, max_targets=5,
                             edge_factor=2.5)
        structural = max_linking_size(
            sys_.state_adjacency(), sys_.available, sys_.targets
        )
        inst = instantiate(sys_, seed=rng.randrange(10**6))
        assert transfer_rank(inst, rel_tol=1e-9) == structural, (
            f"disagreement on {sys_}"
        )
        trials += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"took {elapsed:.1f} s"
    _report("5", f"200/200 trials agree in {elapsed:.1f} s")


def test_criterion_6_brute_force_equivalence():
    rng = random.Random(987)
    systems_checked = 0
    while systems_checked < 50:
        sys_ = random_system(rng, max_n=10, max_available=6, max_targets=3)
        adj = sys_.state_adjacency()
        a_set, t_set = sys_.available, sys_.targets
        p = len(t_set)

        # (a) minimality of the steering set against subset enumeration
        result = solve_mtcp(sys_)
        sizes_admissible = [
            r
            for r in range(len(a_set) + 1)
            for combo in combinations(sorted(a_set), r)
            if bf_is_admissible(adj, combo, t_set)
        ]
        if isinstance(result, Unsolvable):
            assert not sizes_admissible
            with pytest.raises(UnsolvableError):
                classify_nodes(sys_)
        else:
            assert min(sizes_admissible) == p == len(result.steering)
            assert bf_is_admissible(adj, result.steering, t_set)

            # (b) essential/useless labels against the definition
            expected = bf_classify(adj, a_set, t_set)
            assert classify_nodes(sys_).as_dict() == expected

        # (c) the left separator is a minimum separator
        sep = minimal_left_separator(adj, a_set, t_set)
        assert is_separator(adj, set(a_set), set(t_set), sep)
        assert len(sep) == bf_max_linking_size(adj, set(a_set), set(t_set))
        if sep:
            assert not bf_minimum_separators(adj, set(a_set), set(t_set),
                                             len(sep) - 1)
        systems_checked += 1

    _report("6", "50/50 systems agree with enumeration oracles")


def test_criterion_7_complexity_smoke(monkeypatch):
    # seed chosen so the instance is solvable (a random target with no
    # incoming edge would make classification undefined)
    rng = random.Random(8)
    n, n_edges = 100_000, 300_000
    edges = set()
    while len(edges) < n_edges:
        edges.add((rng.randint(1, n), rng.randint(1, n)))
    targets = tuple(rng.sample(range(1, n + 1), 10))
    available = tuple(rng.sample(range(1, n + 1), 200))
    sys_ = StructuredSystem(
        n=n, state_edges=tuple(edges), available=available, targets=targets
    )

    # the four questions on the system's own sets share one solve, on the
    # sub-network alone: none builds a network over the whole graph
    calls = {"build": 0, "solve": 0}
    count_networks(monkeypatch, calls, n)
    graph = sys_.state_adjacency()
    start = time.perf_counter()
    classification = classify_nodes(sys_)
    solution = solve_mtcp(sys_)
    separator = minimal_left_separator(graph, available, targets)
    linking = maximum_linking(graph, available, targets)
    elapsed = time.perf_counter() - start

    labelled = (
        classification.essential | classification.useful | classification.useless
    )
    assert labelled == set(available)
    assert len(solution.steering) == len(separator) == linking.size == 10
    assert calls == {"build": 0, "solve": 1}
    assert elapsed < 5.0, f"took {elapsed:.2f} s"
    _report("7", f"classified, solved, separated and linked n=100000, "
                 f"e=300000, p=10 in {elapsed:.2f} s")


def test_criterion_8_trajectory_demo(io_system, chain_system):
    inst = instantiate(io_system, seed=42)

    def reference(t):
        t = np.asarray(t, dtype=float)
        return np.stack([np.sin(t) * t**2, (1 - np.cos(t)) * t], axis=-1)

    coarse = track_trajectory(
        inst, TrajectoryTask(horizon=5.0, dt=0.01, reference=reference)
    )
    fine = track_trajectory(
        inst, TrajectoryTask(horizon=5.0, dt=0.005, reference=reference)
    )
    assert coarse.max_error < 1e-3, f"max error {coarse.max_error:.3e}"
    assert fine.max_error <= coarse.max_error, (
        f"{fine.max_error:.3e} > {coarse.max_error:.3e}"
    )

    two_target = StructuredSystem(
        n=4, state_edges=chain_system.state_edges,
        explicit_inputs=((1,),), targets=(3, 4),
    )
    with pytest.raises(PreconditionError):
        track_trajectory(
            instantiate(two_target, seed=0),
            TrajectoryTask(horizon=1.0, dt=0.01, reference=lambda t: np.zeros(
                np.shape(t) + (2,))),
        )

    _report(
        "8",
        f"errors {coarse.max_error:.2e} -> {fine.max_error:.2e} on dt halving; "
        "two-target request rejected",
    )
