"""Numeric cross-validation of structural verdicts on random instantiations.

Structural claims are generic: they hold for all parameter values outside a
measure-zero variety.  Drawing the free parameters at random therefore gives
concrete matrices whose numeric ranks must agree with the graph-theoretic
answers with probability one; this module provides the instantiation, the
rank evaluations (Kalman-style output controllability matrix and transfer
matrix at sampled frequencies), and a discretized trajectory-tracking
demonstration of functional controllability.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Iterable, Optional, Sequence

import numpy as np
from scipy.linalg import expm

from . import flow
from .errors import NetctrlError
from .flow import PreconditionError
from .system import StructuredSystem, ValidationError, linking_graph


class SingularSampleError(NetctrlError, RuntimeError):
    """Every attempted frequency sample was too close to an eigenvalue."""


DEFAULT_REL_TOL = 1e-9
DEFAULT_VALUE_RANGE = (0.1, 2.0)


@dataclass(frozen=True)
class NumericInstance:
    """Concrete (A, B, C) matrices drawn for a structured system's pattern.

    Structural zeros are exact 0.0; every free parameter is drawn with random
    sign and magnitude uniform in ``value_range`` (so |v| >= value_range[0]).
    Matrices are read-only; the draw is deterministic given the seed.
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    seed: int
    value_range: tuple[float, float]

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]

    @property
    def p(self) -> int:
        return self.C.shape[0]


def instantiate(
    sys: StructuredSystem,
    seed: int = 0,
    value_range: tuple[float, float] = DEFAULT_VALUE_RANGE,
    steering: Optional[Iterable[int]] = None,
) -> NumericInstance:
    """Draw a concrete instance of a structured system's pattern.

    The input matrix uses the explicit input columns when present, otherwise
    one dedicated column per steering node (default: the available set); the
    output matrix likewise uses explicit rows or one row per target.

    Parameters are drawn in a fixed order (state edges ascending, then input
    columns, then output rows), each as a random sign followed by a magnitude
    uniform in ``value_range``; the lower bound must be positive so values
    stay away from zero.
    """
    lo, hi = value_range
    if not (0 < lo <= hi):
        raise ValidationError(f"value_range must satisfy 0 < lo <= hi, got {value_range}")
    if seed < 0:
        raise ValidationError(f"seed must be a non-negative integer, got {seed}")
    rng = np.random.default_rng(seed)

    def draw() -> float:
        sign = -1.0 if rng.random() < 0.5 else 1.0
        return sign * rng.uniform(lo, hi)

    n = sys.n
    A = np.zeros((n, n))
    for i, j in sys._edge_pairs():
        A[j - 1, i - 1] = draw()

    if sys.explicit_inputs:
        columns: Sequence[Sequence[int]] = sys.explicit_inputs
    else:
        chosen = tuple(steering) if steering is not None else sys.available
        columns = [(i,) for i in chosen]
    B = np.zeros((n, len(columns)))
    for k, col in enumerate(columns):
        for i in sorted(col):
            B[i - 1, k] = draw()

    if sys.explicit_outputs:
        rows: Sequence[Sequence[int]] = sys.explicit_outputs
    else:
        rows = [(j,) for j in sys.targets]
    C = np.zeros((len(rows), n))
    for l, row in enumerate(rows):
        for j in sorted(row):
            C[l, j - 1] = draw()

    for M in (A, B, C):
        M.flags.writeable = False
    return NumericInstance(A=A, B=B, C=C, seed=seed, value_range=(lo, hi))


def numeric_rank(
    M: np.ndarray, rel_tol: float = DEFAULT_REL_TOL, noise_floor: float = 0.0
) -> int:
    """Rank as the number of singular values above rel_tol * largest.

    ``noise_floor`` is an absolute magnitude below which the largest singular
    value is treated as rounding debris of an exactly-zero matrix; callers
    that obtain M through inexact arithmetic supply a backward-error estimate
    (a relative threshold alone cannot tell a tiny rank-one matrix from the
    float residue of a zero one).
    """
    if not 0 < rel_tol < 1:
        raise ValidationError(f"rel_tol must lie in (0, 1), got {rel_tol}")
    M = np.asarray(M, dtype=float)
    if M.size == 0:
        return 0
    sv = np.linalg.svd(M, compute_uv=False)
    if sv[0] <= noise_floor:
        return 0
    return int((sv > rel_tol * sv[0]).sum())


def _ctrb_blocks(A: np.ndarray, B: np.ndarray) -> list[np.ndarray]:
    """Blocks B, AB, ..., A^(n-1)B, each rescaled to unit Frobenius norm.

    Per-block scaling multiplies column groups by positive scalars, which
    leaves the rank unchanged while containing the growth of matrix powers.
    """
    n = A.shape[0]
    blocks = []
    X = B.copy()
    for _ in range(n):
        blocks.append(X)
        norm = np.linalg.norm(X)
        if norm > 0:
            X = X / norm
        X = A @ X
    return blocks


def state_ctrb_rank(inst: NumericInstance, rel_tol: float = DEFAULT_REL_TOL) -> int:
    """Numeric rank of the Kalman controllability matrix [B, AB, ...]."""
    return numeric_rank(np.hstack(_ctrb_blocks(inst.A, inst.B)), rel_tol)


def pointwise_output_ctrb_rank(
    inst: NumericInstance, rel_tol: float = DEFAULT_REL_TOL
) -> int:
    """Numeric rank of C [B, AB, ..., A^(n-1)B].

    The instance is point-wise output controllable iff this equals the number
    of outputs.
    """
    blocks = [inst.C @ X for X in _ctrb_blocks(inst.A, inst.B)]
    return numeric_rank(np.hstack(blocks), rel_tol)


def transfer_rank(
    inst: NumericInstance,
    n_samples: int = 5,
    rel_tol: float = DEFAULT_REL_TOL,
) -> int:
    """Normal rank of the transfer matrix C (sI - A)^-1 B.

    The rank of a rational matrix is attained at all but finitely many
    points, so it is evaluated at ``n_samples`` random real points drawn from
    [1, 10] away from the eigenvalues of A (resampling near-singular draws),
    and the maximum is returned.  Deterministic given the instance seed.
    """
    if n_samples < 3:
        raise ValidationError(f"n_samples must be at least 3, got {n_samples}")
    rng = np.random.default_rng([inst.seed, 0x5EED])
    eigs = np.linalg.eigvals(inst.A)
    n = inst.n
    eps = np.finfo(float).eps
    best = 0
    for _ in range(n_samples):
        for _attempt in range(100):
            s = rng.uniform(1.0, 10.0)
            if np.abs(eigs - s).min() > 1e-6:
                break
        else:
            raise SingularSampleError(
                "could not sample a frequency away from the spectrum"
            )
        X = np.linalg.solve(s * np.eye(n) - inst.A, inst.B)
        T = inst.C @ X
        # entries of an exactly-zero T carry solve residue of this magnitude
        floor = n * eps * max(1.0, np.linalg.norm(inst.C) * np.linalg.norm(X))
        best = max(best, numeric_rank(T, rel_tol, noise_floor=floor))
    return best


# ---------------------------------------------------------------------------
# Trajectory tracking demo
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrajectoryTask:
    """Reference-following task and, once tracked, its results.

    ``reference`` maps an array of times to an array of output values of
    shape (len(times), p) and must vanish at t = 0.  After
    :func:`track_trajectory` the result fields are populated: ``inputs`` is
    the piecewise-constant input sequence (one row per step), ``outputs`` the
    achieved output at the grid points, ``max_error`` the post-startup
    maximum tracking error measured on a substep-refined simulation of the
    inter-sample behaviour, and ``grid_error`` the same measured at the grid
    points only.
    """

    horizon: float
    dt: float
    reference: Callable[[np.ndarray], np.ndarray]
    substeps: int = 8
    times: Optional[np.ndarray] = None
    reference_samples: Optional[np.ndarray] = None
    inputs: Optional[np.ndarray] = None
    outputs: Optional[np.ndarray] = None
    startup_steps: Optional[int] = None
    max_error: Optional[float] = None
    grid_error: Optional[float] = None

    def __post_init__(self):
        for name in ("horizon", "dt"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value > 0):
                raise ValidationError(f"{name} must be a finite positive number, got {value}")


def default_reference(p: int) -> Callable[[np.ndarray], np.ndarray]:
    """A smooth vanishing-at-zero reference with p independent components."""

    def ref(t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        comps = []
        for l in range(p):
            k = l // 2 + 1
            if l % 2 == 0:
                comps.append(np.sin(k * t) * t**2)
            else:
                comps.append((1 - np.cos(k * t)) * t)
        return np.stack(comps, axis=-1)

    return ref


def relative_degree(inst: NumericInstance) -> int:
    """Smallest k >= 1 with C A^(k-1) B nonzero (structural zeros are exact)."""
    X = inst.B.copy()
    for k in range(1, inst.n + 1):
        if np.abs(inst.C @ X).max() > 0.0:
            return k
        X = inst.A @ X
    return inst.n


def discretize_zoh(
    A: np.ndarray, B: np.ndarray, dt: float
) -> tuple[np.ndarray, np.ndarray]:
    """Exact zero-order-hold discretization via the augmented matrix exponential."""
    n, m = B.shape
    M = np.zeros((n + m, n + m))
    M[:n, :n] = A * dt
    M[:n, n:] = B * dt
    E = expm(M)
    return E[:n, :n], E[:n, n:]


def track_trajectory(inst: NumericInstance, task: TrajectoryTask) -> TrajectoryTask:
    """Compute an input sequence following a reference trajectory.

    The dynamics are discretized exactly (zero-order hold at ``task.dt``) and
    the input sequence minimizing the summed squared output error over the
    grid is found by least squares from zero initial state.  The reported
    ``max_error`` is the post-startup maximum deviation of the continuous
    response (simulated at ``task.substeps`` substeps per interval) from the
    reference; the startup window is the discrete relative degree, the number
    of steps before the input can influence the output at all.

    Raises:
        PreconditionError: if the instance is not right invertible
            (transfer rank below the number of outputs).
        ValidationError: if the instance has no outputs, or the reference
            does not vanish at t = 0.
    """
    p, m, n = inst.p, inst.m, inst.n
    if p == 0:
        raise ValidationError("nothing to track: the system has no targets or outputs")
    if transfer_rank(inst) != p:
        raise PreconditionError(
            "instance is not right invertible; trajectories cannot be tracked"
        )
    r0 = np.atleast_1d(np.asarray(task.reference(np.array(0.0)), dtype=float))
    if np.abs(r0).max() > 1e-12:
        raise ValidationError("reference trajectory must vanish at t = 0")

    dt = task.dt
    ratio = task.horizon / dt
    # the least-squares matrix G below holds (steps * p) x (steps * m) floats
    if ratio * ratio * p * m * 8 > np.iinfo(np.intp).max:
        raise ValidationError(
            f"horizon / dt asks for {ratio:.3g} steps, too many to solve")
    steps = int(round(ratio))
    r = relative_degree(inst)
    if steps < r:
        raise ValidationError(
            f"horizon covers {steps} step(s), fewer than the {r} startup step(s)")
    # allocated first, so that a task too large for memory fails at once
    G = np.zeros((steps, p, steps, m))
    # a large dt or horizon overflows to inf or nan, tested for below
    with np.errstate(over="ignore", invalid="ignore"):
        Ad, Bd = discretize_zoh(inst.A, inst.B, dt)
        markov = np.empty((steps, p, m))
        X = Bd.copy()
        for k in range(steps):
            markov[k] = inst.C @ X
            X = Ad @ X
        times = dt * np.arange(steps + 1)
        ref = np.asarray(task.reference(times), dtype=float).reshape(steps + 1, p)
    if not (np.isfinite(markov).all() and np.isfinite(ref).all()):
        raise ValidationError(
            f"dt {dt} and horizon {task.horizon} overflow the sampled "
            "dynamics or the reference")

    # y_k = sum_{j<k} markov[k-1-j] u_j: block-Toeplitz least squares
    for d in range(steps):
        rows = np.arange(d, steps)
        G[rows, :, rows - d, :] = markov[d]
    G = G.reshape(steps * p, steps * m)
    u = np.linalg.lstsq(G, ref[1:].reshape(-1), rcond=None)[0].reshape(steps, m)

    outputs = np.vstack([np.zeros((1, p)), (G @ u.reshape(-1)).reshape(steps, p)])

    grid_error = float(np.abs(outputs[r:] - ref[r:]).max())

    # substep simulation of the continuous inter-sample response
    sub = max(1, int(task.substeps))
    Ads, Bds = discretize_zoh(inst.A, inst.B, dt / sub)
    x = np.zeros(n)
    max_error = 0.0
    t_start = r * dt - 1e-12
    for k in range(steps):
        uk = u[k]
        for s_i in range(sub):
            x = Ads @ x + Bds @ uk
            t = (k + (s_i + 1) / sub) * dt
            if t >= t_start:
                err = float(np.abs(inst.C @ x - task.reference(np.array(t))).max())
                if err > max_error:
                    max_error = err

    return replace(
        task,
        times=times,
        reference_samples=ref,
        inputs=u,
        outputs=outputs,
        startup_steps=r,
        max_error=max_error,
        grid_error=grid_error,
    )


def trajectory_to_csv(task: TrajectoryTask) -> str:
    """Render a tracked task as CSV with t, reference, achieved, input columns."""
    if task.times is None or task.inputs is None:
        raise ValidationError("task has not been tracked yet")
    p = task.reference_samples.shape[1]
    m = task.inputs.shape[1]
    header = (
        ["t"]
        + [f"ref_{l+1}" for l in range(p)]
        + [f"y_{l+1}" for l in range(p)]
        + [f"u_{k+1}" for k in range(m)]
    )
    lines = [",".join(header)]
    steps = len(task.inputs)
    for k, t in enumerate(task.times):
        row = [f"{t:.6f}"]
        row += [f"{v:.9e}" for v in task.reference_samples[k]]
        row += [f"{v:.9e}" for v in task.outputs[k]]
        # input applied on [t_k, t_k+1); blank on the final grid point
        if k < steps:
            row += [f"{v:.9e}" for v in task.inputs[k]]
        else:
            row += [""] * m
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Structural / numeric agreement trials
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrialReport:
    """One structural-vs-numeric comparison on a random instantiation."""

    seed: int
    structural_rank: int
    transfer_rank: int
    pointwise_rank: int
    agree: bool


def structural_transfer_rank(sys: StructuredSystem) -> int:
    """Generic transfer rank from the graph: the maximum linking size."""
    return flow.max_linking_size(*linking_graph(sys))


def cross_validate(
    sys: StructuredSystem,
    trials: int = 20,
    seed: int = 0,
    rel_tol: float = DEFAULT_REL_TOL,
    n_samples: int = 5,
) -> list[TrialReport]:
    """Compare the structural transfer rank with numeric ranks across seeds.

    Random parameters sit outside the degenerate variety with probability
    one, so any disagreement indicates a bug or an ill-conditioned draw and
    is reported per trial rather than averaged away.
    """
    if trials < 1:
        raise ValidationError(f"trials must be at least 1, got {trials}")
    structural = structural_transfer_rank(sys)
    reports = []
    for k in range(trials):
        inst = instantiate(sys, seed=seed + k)
        tr = transfer_rank(inst, n_samples=n_samples, rel_tol=rel_tol)
        pw = pointwise_output_ctrb_rank(inst, rel_tol=rel_tol)
        reports.append(
            TrialReport(
                seed=seed + k,
                structural_rank=structural,
                transfer_rank=tr,
                pointwise_rank=pw,
                agree=tr == structural,
            )
        )
    return reports
