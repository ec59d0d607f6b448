"""Numeric oracle: instantiation, ranks, transfer-matrix sampling, tracking."""

import random
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from netctrl import (
    StructuredSystem,
    TrajectoryTask,
    ValidationError,
    cross_validate,
    default_reference,
    generic_rank,
    instantiate,
    numeric_rank,
    parse_system,
    pointwise_output_ctrb_rank,
    state_ctrb_rank,
    track_trajectory,
    trajectory_to_csv,
    transfer_rank,
)
from netctrl.numeric import (
    NumericInstance,
    PreconditionError,
    _lstsq_inputs,
    discretize_zoh,
    relative_degree,
)

from .conftest import random_system

SAMPLES = Path(__file__).resolve().parent.parent / "samples"


class TestInstantiate:
    def test_io_nonzero_count(self, io_system):
        inst = instantiate(io_system, seed=42)
        nonzeros = (
            int((inst.A != 0).sum())
            + int((inst.B != 0).sum())
            + int((inst.C != 0).sum())
        )
        assert nonzeros == 21

    def test_pattern_faithful(self, io_system):
        inst = instantiate(io_system, seed=3)
        for i in range(9):
            for j in range(9):
                expected = (j + 1, i + 1) in io_system.state_edges
                assert (inst.A[i, j] != 0) == expected

    def test_empty_pattern(self):
        inst = instantiate(StructuredSystem(n=2, available=(1,), targets=(2,)))
        assert not inst.A.any()
        assert inst.B.shape == (2, 1)
        assert inst.C.shape == (1, 2)

    def test_reads_the_io_pattern(self):
        sys_ = StructuredSystem(n=4, available=(3, 1), targets=(2,),
                                explicit_outputs=((1, 4), (3,)))
        inst = instantiate(sys_, seed=1)
        assert ((inst.B != 0).astype(int).tolist()
                == [[0, 1], [0, 0], [1, 0], [0, 0]])
        assert ((inst.C != 0).astype(int).tolist()
                == [[1, 0, 0, 1], [0, 0, 1, 0]])

    def test_seed_determinism_and_variation(self, io_system):
        a = instantiate(io_system, seed=5)
        b = instantiate(io_system, seed=5)
        c = instantiate(io_system, seed=6)
        assert np.array_equal(a.A, b.A)
        assert (a.A != 0).sum() == (c.A != 0).sum()
        assert not np.array_equal(a.A, c.A)
        assert np.array_equal(a.A != 0, c.A != 0)

    def test_values_bounded_away_from_zero(self, io_system):
        inst = instantiate(io_system, seed=11)
        vals = np.concatenate(
            [inst.A[inst.A != 0], inst.B[inst.B != 0], inst.C[inst.C != 0]]
        )
        assert (np.abs(vals) >= 0.1).all()
        assert (np.abs(vals) <= 2.0).all()

    def test_matrices_read_only(self, io_system):
        inst = instantiate(io_system, seed=0)
        with pytest.raises(ValueError):
            inst.A[0, 0] = 1.0

    def test_draws_pinned(self):
        # every verify and track seed depends on this stream: one sign and
        # one magnitude per parameter, state edges in sorted order first
        with open(SAMPLES / "network.sys", encoding="utf-8") as fh:
            inst = instantiate(parse_system(fh.read()), seed=42)
        expected = {
            "A": [(1, 9, -0.18322715499573466), (2, 1, 0.9338690355288993),
                  (3, 2, -1.9536824681098364), (3, 4, -0.9557332820015775),
                  (5, 2, 1.5935221800262123), (5, 4, -1.8608534788123434),
                  (6, 1, 1.4249992552127915), (6, 5, 1.663247065214577),
                  (7, 5, -0.531753571391076), (8, 5, 0.22125278659793313),
                  (8, 6, 0.7735993394467499), (8, 7, 0.4698135449187384),
                  (9, 5, 1.3001623583319233), (9, 6, 1.7969301305121756)],
            "B": [(4, 1, -1.3977930111606638), (6, 2, -0.8038734414662508),
                  (7, 1, 1.938268491624999), (9, 2, -0.4599955822601428)],
            "C": [(1, 8, -1.003839359829274), (2, 8, -1.3726465898967697),
                  (2, 9, -1.682088572509891)],
        }
        for name, shape in (("A", (9, 9)), ("B", (9, 2)), ("C", (2, 9))):
            pinned = np.zeros(shape)
            for r, c, value in expected[name]:
                pinned[r - 1, c - 1] = value
            np.testing.assert_array_equal(getattr(inst, name), pinned)


class TestNumericRank:
    def test_identity(self):
        assert numeric_rank(np.eye(3)) == 3

    def test_rank_one_outer_product(self):
        rng = np.random.default_rng(1)
        u, v = rng.normal(size=6), rng.normal(size=4)
        assert numeric_rank(np.outer(u, v)) == 1

    def test_zero_matrix(self):
        assert numeric_rank(np.zeros((3, 5))) == 0

    def test_tol_validation(self):
        with pytest.raises(ValidationError):
            numeric_rank(np.eye(2), rel_tol=0.0)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_generic_rank_is_the_rank_of_a_b(self, io_system, chain_system, seed):
        # x2 and x3 are driven by x1 alone: rows 2 and 3 of [A | B] share
        # their one column
        fan = StructuredSystem(n=3, state_edges=((1, 2), (1, 3)),
                               explicit_inputs=((1,),))
        for sys_, rank in ((io_system, 9), (chain_system, 3), (fan, 2)):
            inst = instantiate(sys_, seed=seed)
            assert numeric_rank(np.hstack([inst.A, inst.B])) == rank
            assert generic_rank(sys_) == rank


class TestPointwiseRanks:
    def test_chain_pointwise_target_sets(self, chain_system):
        for targets, expected in [((1, 2, 3), 3), ((1, 3, 4), 3), ((3, 4), 2)]:
            sys_ = StructuredSystem(
                n=4,
                state_edges=chain_system.state_edges,
                explicit_inputs=((1,),),
                targets=targets,
            )
            inst = instantiate(sys_, seed=21)
            assert pointwise_output_ctrb_rank(inst) == expected

    def test_zero_output_matrix(self, chain_system):
        sys_ = StructuredSystem(
            n=4, state_edges=chain_system.state_edges,
            explicit_inputs=((1,),), targets=(2,),
        )
        inst = instantiate(sys_, seed=0)
        zeroed = type(inst)(A=inst.A, B=inst.B, C=np.zeros_like(inst.C),
                            seed=inst.seed)
        assert pointwise_output_ctrb_rank(zeroed) == 0

    def test_chain_state_rank_is_three(self, chain_system):
        for seed in range(25):
            assert state_ctrb_rank(instantiate(chain_system, seed=seed)) == 3

    def test_output_rank_holds_one_state_block(self):
        # C [B, AB, ...] is built block by block: the n x m blocks A^k B,
        # 12.8 MB here, are never held together
        n, m, p = 400, 10, 4
        rng = np.random.default_rng(3)
        inst = NumericInstance(A=rng.standard_normal((n, n)) / np.sqrt(n),
                               B=rng.standard_normal((n, m)),
                               C=rng.standard_normal((p, n)), seed=0)
        tracemalloc.start()
        try:
            assert pointwise_output_ctrb_rank(inst) == p
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2e6


class TestTransferRank:
    def test_io_example(self, io_system):
        assert transfer_rank(instantiate(io_system, seed=42)) == 2

    def test_chain_two_targets(self, chain_system):
        sys_ = StructuredSystem(
            n=4, state_edges=chain_system.state_edges,
            explicit_inputs=((1,),), targets=(3, 4),
        )
        assert transfer_rank(instantiate(sys_, seed=9)) == 1

    def test_zero_input_matrix(self, chain_system):
        sys_ = StructuredSystem(
            n=4, state_edges=chain_system.state_edges,
            explicit_inputs=((1,),), targets=(3,),
        )
        inst = instantiate(sys_, seed=1)
        zeroed = type(inst)(A=inst.A, B=np.zeros_like(inst.B), C=inst.C,
                            seed=inst.seed)
        assert transfer_rank(zeroed) == 0

    def test_deterministic(self, io_system):
        inst = instantiate(io_system, seed=2)
        assert transfer_rank(inst) == transfer_rank(inst)


class TestTracking:
    @pytest.fixture
    def io_instance(self, io_system):
        return instantiate(io_system, seed=42)

    def test_tracks_default_style_reference(self, io_instance):
        task = TrajectoryTask(horizon=2.0, dt=0.01, reference=default_reference(2))
        out = track_trajectory(io_instance, task)
        assert out.max_error < 1e-3
        assert out.grid_error < 1e-6
        assert out.inputs.shape == (200, 2)
        assert out.outputs.shape == (201, 2)
        assert np.array_equal(out.outputs[0], np.zeros(2))

    def test_zero_reference_gives_zero_input(self, io_instance):
        task = TrajectoryTask(
            horizon=1.0, dt=0.01,
            reference=lambda t: np.zeros(np.shape(t) + (2,)),
        )
        out = track_trajectory(io_instance, task)
        assert np.abs(out.inputs).max() < 1e-9
        assert out.max_error < 1e-9

    def test_two_target_chain_rejected(self, chain_system):
        sys_ = StructuredSystem(
            n=4, state_edges=chain_system.state_edges,
            explicit_inputs=((1,),), targets=(3, 4),
        )
        inst = instantiate(sys_, seed=0)
        task = TrajectoryTask(horizon=1.0, dt=0.01, reference=default_reference(2))
        with pytest.raises(PreconditionError):
            track_trajectory(inst, task)

    def test_one_precondition_error_class(self, chain_system):
        import netctrl

        assert netctrl.PreconditionError is netctrl.numeric.PreconditionError
        sys_ = StructuredSystem(
            n=4, state_edges=chain_system.state_edges,
            explicit_inputs=((1,),), targets=(3, 4),
        )
        task = TrajectoryTask(horizon=1.0, dt=0.01, reference=default_reference(2))
        with pytest.raises(netctrl.PreconditionError):
            track_trajectory(instantiate(sys_, seed=0), task)

    def test_nonvanishing_reference_rejected(self, io_instance):
        task = TrajectoryTask(
            horizon=1.0, dt=0.01,
            reference=lambda t: np.ones(np.shape(t) + (2,)),
        )
        with pytest.raises(ValidationError):
            track_trajectory(io_instance, task)

    def test_relative_degree_io_example(self, io_instance):
        # one output couples at the first power: C B has a nonzero entry
        assert relative_degree(io_instance) == 1

    def test_zoh_matches_series_for_nilpotent(self):
        A = np.array([[0.0, 0.0], [1.0, 0.0]])
        B = np.array([[1.0], [0.0]])
        Ad, Bd = discretize_zoh(A, B, 0.5)
        # A^2 = 0: exact exponential and integral are polynomial
        assert np.allclose(Ad, np.eye(2) + 0.5 * A)
        assert np.allclose(Bd, 0.5 * B + 0.125 * (A @ B))

    def test_csv_output(self, io_instance):
        task = TrajectoryTask(horizon=0.5, dt=0.05, reference=default_reference(2))
        out = track_trajectory(io_instance, task)
        csv_text = trajectory_to_csv(out)
        lines = csv_text.strip().splitlines()
        assert lines[0] == "t,ref_1,ref_2,y_1,y_2,u_1,u_2"
        assert len(lines) == 12  # header + 11 grid points

    @staticmethod
    def lstsq_inputs(inst, task):
        """Inputs and sigma_1 / sigma_min of the least-squares solve, built
        from the Markov parameters as track_trajectory builds them."""
        steps = int(round(task.horizon / task.dt))
        Ad, Bd = discretize_zoh(inst.A, inst.B, task.dt)
        markov = np.empty((steps, inst.p, inst.m))
        X = Bd
        for k in range(steps):
            markov[k] = inst.C @ X
            X = Ad @ X
        return _lstsq_inputs(markov, task.reference(task.dt * np.arange(1, steps + 1)))

    @pytest.mark.parametrize("dt", [0.01, 0.005])
    def test_recursion_matches_lstsq_on_network(self, dt):
        inst = instantiate(parse_system((SAMPLES / "network.sys").read_text()), seed=42)
        task = TrajectoryTask(horizon=5.0, dt=dt, reference=default_reference(2))
        out = track_trajectory(inst, task)
        u, condition = self.lstsq_inputs(inst, task)
        assert out.solver == "recursion"
        assert np.abs(out.inputs - u).max() <= 1e-6 * np.abs(u).max()
        # the gate's figure bounds the condition number from above
        assert out.condition >= condition

    def test_recursion_matches_lstsq_on_random_square_instances(self):
        # dense random (A, B, C) with m = p: C Bd is invertible and G well
        # conditioned on almost every draw
        recursions = 0
        for seed in range(12):
            rng = np.random.default_rng(seed)
            n, m = int(rng.integers(3, 13)), int(rng.integers(1, 4))
            inst = NumericInstance(
                A=rng.normal(size=(n, n)) * (rng.random((n, n)) < 0.4),
                B=rng.normal(size=(n, m)) * (rng.random((n, m)) < 0.5),
                C=rng.normal(size=(m, n)) * (rng.random((m, n)) < 0.5),
                seed=seed,
            )
            task = TrajectoryTask(horizon=1.0, dt=0.01, reference=default_reference(m))
            try:
                out = track_trajectory(inst, task)
            except PreconditionError:
                continue
            if out.solver != "recursion":
                continue
            recursions += 1
            u, condition = self.lstsq_inputs(inst, task)
            assert np.abs(out.inputs - u).max() <= 1e-6 * np.abs(u).max(), seed
            assert out.condition >= condition, seed
        assert recursions >= 10

    def test_gate_keeps_ill_conditioned_square_instance_on_lstsq(self, chain_system):
        # relative degree 3: a sampling zero outside the unit circle makes the
        # inverse system grow without bound, though C Bd is invertible
        sys_ = StructuredSystem(n=4, state_edges=chain_system.state_edges,
                                explicit_inputs=((1,),), targets=(3,))
        inst = instantiate(sys_, seed=0)
        task = TrajectoryTask(horizon=1.0, dt=0.01, reference=default_reference(1))
        Ad, Bd = discretize_zoh(inst.A, inst.B, task.dt)
        assert numeric_rank(inst.C @ Bd) == 1
        out = track_trajectory(inst, task)
        u, condition = self.lstsq_inputs(inst, task)
        assert out.solver == "lstsq"
        assert np.isfinite(out.inputs).all()
        assert np.array_equal(out.inputs, u)
        assert out.condition == condition

    def test_wide_instance_takes_lstsq(self, steering_system):
        inst = instantiate(steering_system, seed=42)
        task = TrajectoryTask(horizon=1.0, dt=0.01, reference=default_reference(2))
        out = track_trajectory(inst, task)
        assert out.solver == "lstsq"
        assert np.array_equal(out.inputs, self.lstsq_inputs(inst, task)[0])

    def test_untracked_task_has_no_csv(self):
        with pytest.raises(ValidationError):
            trajectory_to_csv(
                TrajectoryTask(horizon=1.0, dt=0.1, reference=default_reference(1))
            )


class TestCrossValidate:
    def test_io_example_agrees(self, io_system):
        reports = cross_validate(io_system, trials=5, seed=0)
        assert len(reports) == 5
        assert all(r.agree for r in reports)
        assert all(r.structural_rank == 2 for r in reports)

    def test_pointwise_at_least_transfer(self, io_system):
        for r in cross_validate(io_system, trials=10, seed=3):
            assert r.pointwise_rank >= r.transfer_rank

    def test_steering_target_mode(self, steering_system):
        reports = cross_validate(steering_system, trials=5, seed=1)
        assert all(r.structural_rank == 2 and r.agree for r in reports)

    @pytest.mark.parametrize("inputs, outputs", [(False, False), (True, False),
                                                 (False, True), (True, True)])
    def test_agrees_on_every_io_shape(self, inputs, outputs):
        # explicit columns or rows where given, else one per available node
        # and one per target: the graph and the instance read the same ones
        rng = random.Random(8 + 2 * inputs + outputs)

        def groups(n):
            return tuple(tuple(rng.sample(range(1, n + 1), rng.randint(1, min(2, n))))
                         for _ in range(rng.randint(1, 3)))

        for _ in range(15):
            base = random_system(rng)
            sys_ = StructuredSystem(
                n=base.n, state_edges=base.state_edges, available=base.available,
                targets=base.targets,
                explicit_inputs=groups(base.n) if inputs else (),
                explicit_outputs=groups(base.n) if outputs else (),
            )
            reports = cross_validate(sys_, trials=3, seed=rng.randrange(10**6))
            assert all(r.agree for r in reports), sys_
