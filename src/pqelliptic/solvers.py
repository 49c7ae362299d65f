"""Damped Newton and the eps-continuation driver that realizes the
regularized approximation scheme numerically.

The continuation solves, for a decreasing schedule eps_k, the problem with
flux a + eps_k (1+|Du|^2)^((q+eps_k-2)/2) Du, warm-starting each solve from
the previous solution, and records the quantities tracked by the a priori
estimates: the global L^p gradient norm, interior sup norms of u and Du, a
discrete interior W^{2,2} seminorm, and W^{1,2} Cauchy increments between
consecutive solutions.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidExponents, NonConvergence, SingularJacobian
from .fem import (DiscreteField, Mesh, assemble_jacobian, assemble_residual,
                  assert_dirichlet, field_from_interior,
                  h2_seminorm_interior, interior_element_mask,
                  interior_node_mask, linf_gradient_interior,
                  linf_norm_interior, lp_gradient_norm, prolongations,
                  scatter_matrix, scatter_vector, w12_distance, zero_field,
                  _b_at_quad, _chunks, _loads, _matrix_pattern)
from .operators import (OperatorSpec, check_regularization_exponents,
                        regularize)

log = logging.getLogger("pq.solve")

# CG stops at a relative residual of CG_RTOL (a Newton step at its forcing
# term, see _forcing_term) or falls back to a direct LU after CG_MAXITER
# iterations; with the V-cycle it takes about 13 to CG_RTOL at any size.
CG_RTOL = 1e-12
CG_MAXITER = 30
# The V-cycle's damped Jacobi smoother: its weight, and its sweeps before and
# after each coarse correction.
JACOBI_WEIGHT = 0.6
JACOBI_SWEEPS = 2
MAX_STEPS = 10_000  # the longest eps schedule: each step is a Newton solve


@dataclass(frozen=True)
class NewtonConfig:
    abs_tol: float = 1e-10
    rel_tol: float = 1e-12
    max_iters: int = 100
    max_backtracks: int = 30

    def __post_init__(self):
        if not (0 < self.abs_tol < np.inf and 0 < self.rel_tol < np.inf):
            raise ValueError("tolerances must be positive and finite")
        if not min(self.max_iters, self.max_backtracks) >= 1:
            raise ValueError("iteration budgets must be >= 1")


@dataclass(frozen=True)
class EpsilonSchedule:
    """eps_k = eps0 * ratio^k, k < steps <= MAX_STEPS, strictly decreasing."""

    eps0: float
    ratio: float = 0.5
    steps: int = 5

    def __post_init__(self):
        if not self.eps0 > 0:
            raise InvalidExponents("eps0 must be positive")
        if not 0.0 < self.ratio < 1.0:
            raise InvalidExponents("ratio must lie in (0, 1)")
        if not self.steps >= 1:
            raise InvalidExponents("steps must be >= 1")
        if not self.eps0 * self.ratio ** (self.steps - 1) > 0:
            raise InvalidExponents(
                "the last eps, eps0 * ratio^(steps - 1), underflows to 0")
        if self.steps > MAX_STEPS:
            raise InvalidExponents(f"steps must be at most {MAX_STEPS}")

    def epsilons(self) -> np.ndarray:
        return self.eps0 * self.ratio ** np.arange(self.steps)

    def to_dict(self) -> dict:
        return {"eps0": self.eps0, "ratio": self.ratio, "steps": self.steps}

    @classmethod
    def from_dict(cls, d: dict) -> "EpsilonSchedule":
        return cls(eps0=d["eps0"], ratio=d.get("ratio", 0.5),
                   steps=d.get("steps", 5))


@dataclass
class SolveStats:
    method: str
    iterations: int
    residual_norm: float
    initial_residual: float = np.nan
    backtracks: int = 0
    converged: bool = False
    # residual 2-norms of the initial iterate and of each accepted one; a
    # diagnostic, not part of the serialized stats
    residuals: list = field(default_factory=list, repr=False)

    def to_dict(self) -> dict:
        return {"method": self.method, "iterations": self.iterations,
                "residual_norm": self.residual_norm,
                "initial_residual": self.initial_residual,
                "backtracks": self.backtracks, "converged": self.converged}


def _factor(A: sp.csr_matrix):
    """SuperLU factor of A; SingularJacobian if A is singular."""
    import scipy.sparse.linalg as spla  # loaded at first use, as in fem
    try:  # P1 patterns are structurally symmetric: minimum degree on A^T+A
        return spla.splu(A.tocsc(), permc_spec="MMD_AT_PLUS_A")
    except RuntimeError as exc:  # "Factor is exactly singular"
        raise SingularJacobian(str(exc)) from exc


class _VCycle:
    """Multigrid V-cycle for J over the mesh's levels: Galerkin coarse
    matrices P^T A P, damped Jacobi smoothing and an LU factor of the
    coarsest level only.  The cycle is a loop in a method, not a recursive
    closure, so it leaves no reference cycle to keep the levels alive."""

    def __init__(self, J: sp.csr_matrix, transfers: list):
        self.levels = []
        A = J
        for t in transfers:
            self.levels.append((A, JACOBI_WEIGHT / A.diagonal(), t))
            A = (t.PT @ A @ t.P).tocsr()
        self.coarse = _factor(A)

    def __call__(self, r: np.ndarray) -> np.ndarray:
        down = []
        for A, w, t in self.levels:
            x = w * r
            for _ in range(JACOBI_SWEEPS - 1):
                x += w * (r - A @ x)
            down.append((r, x))
            r = t.PT @ (r - A @ x)
        x = self.coarse.solve(r)
        for (A, w, t), (r, fine) in zip(reversed(self.levels), reversed(down)):
            fine += t.P @ x
            for _ in range(JACOBI_SWEEPS):
                fine += w * (r - A @ fine)
            x = fine
        return x


def _asymmetry(mesh: Mesh, J: sp.csr_matrix) -> float:
    """max |J - J^T| by one gather through the transpose permutation of the
    mesh's CSR pattern; inf for a matrix that is not on that pattern."""
    indptr, indices, _, transpose = _matrix_pattern(mesh)
    if not (np.array_equal(J.indptr, indptr)
            and np.array_equal(J.indices, indices)):
        return np.inf
    return float(np.abs(J.data - np.take(J.data, transpose)).max())


class _LinearSolves:
    """Solves J x = rhs on one mesh, with their counts.  A symmetric J is
    solved by CG preconditioned with a V-cycle over the mesh's levels
    (fem.prolongations).  A non-symmetric J, a CG run that fails, or a mesh
    of one level takes a direct LU of J."""

    def __init__(self, mesh: Mesh):
        self.mesh = mesh
        self.multigrid = self.cg_iterations = self.direct = 0

    def __str__(self) -> str:
        """The counts, with the finest and the coarsest level in nodes per
        axis, as in 257\u21929, or the only level."""
        shapes = [self.mesh.shape] + [t.shape
                                      for t in prolongations(self.mesh)[-1:]]
        levels = "\u2192".join(str(s[0]) if len(set(s)) == 1
                               else "x".join(map(str, s)) for s in shapes)
        return (f"{self.multigrid} multigrid-CG (levels {levels}), "
                f"{self.cg_iterations} CG iterations, {self.direct} direct LU")

    def solve(self, J: sp.csr_matrix, rhs: np.ndarray,
              rtol: float = CG_RTOL) -> np.ndarray:
        """J^{-1} rhs; CG stops at the relative residual ``rtol``."""
        import scipy.sparse.linalg as spla  # loaded at first use, as in fem
        transfers = prolongations(self.mesh)
        if transfers and (_asymmetry(self.mesh, J)
                          <= 1e-12 * np.abs(J.data).max(initial=0.0)):
            its = []  # one entry per CG iteration
            with np.errstate(all="ignore"):
                try:
                    M = spla.LinearOperator(J.shape, _VCycle(J, transfers),
                                            dtype=float)
                    sol, info = spla.cg(J, rhs, rtol=rtol, atol=0.0, M=M,
                                        maxiter=CG_MAXITER,
                                        callback=its.append)
                except SingularJacobian:  # at the coarsest level
                    info = -1
            self.cg_iterations += len(its)
            if info == 0 and np.all(np.isfinite(sol)):
                self.multigrid += 1
                log.debug("linear solve: mg-cg %d its to rtol %.1e",
                          len(its), rtol)
                return sol
        sol = _factor(J).solve(rhs)
        self.direct += 1
        if not np.all(np.isfinite(sol)):
            raise SingularJacobian("linear solve produced non-finite values")
        log.debug("linear solve: lu")
        return sol


def _forcing_term(residuals: list, tol: float) -> float:
    """Relative CG tolerance of a Newton step from the residual 2-norms so
    far: 0.9 (|R_k| / |R_k-1|)^2, the rate quadratic convergence can use
    (Eisenstat & Walker, SIAM J. Sci. Comput. 17 (1996), choice 2), but
    never below 0.01 tol / |R_k|: no step solves past a linear residual of
    a hundredth of the stopping tolerance.  Clipped to [CG_RTOL, 0.1]; an
    eta below 1 keeps every step a descent direction."""
    eta = 0.01 * tol / residuals[-1]
    if len(residuals) > 1:
        eta = max(0.9 * (residuals[-1] / residuals[-2]) ** 2, eta)
    return min(max(eta, CG_RTOL), 0.1)


# numpy's overflow warnings are off in solves: explicit checks catch each
# non-finite value and raise QuadratureFailure, SingularJacobian or the like
@np.errstate(over="ignore", invalid="ignore")
def newton_solve(mesh: Mesh, op: OperatorSpec, b_field, U0: DiscreteField,
                 cfg: NewtonConfig | None = None, *,
                 solves: _LinearSolves | None = None):
    """Damped Newton iteration on the interior unknowns.

    The step d = J(U)^{-1} R is solved inexactly, to the relative residual
    :func:`_forcing_term`, through ``solves`` (a fresh _LinearSolves by
    default).  The first of U - s d for s = 1, 1/2, 1/4, ... (at most
    ``max_backtracks`` halvings) that strictly lowers the residual 2-norm is
    accepted.  Stops when the residual reaches
    tol = max(abs_tol, rel_tol * r0).  Returns (DiscreteField, SolveStats);
    raises NonConvergence (with the best iterate attached) or
    SingularJacobian.
    """
    cfg = cfg or NewtonConfig()
    solves = solves or _LinearSolves(mesh)
    assert_dirichlet(U0)
    U = U0.copy()
    b_field = _b_at_quad(mesh, b_field)  # once per solve
    R = assemble_residual(mesh, op, b_field, U)
    rnorm = float(np.linalg.norm(R))
    tol = max(cfg.abs_tol, cfg.rel_tol * rnorm)
    stats = SolveStats("newton", 0, rnorm, initial_residual=rnorm,
                       residuals=[rnorm])
    stats.converged = rnorm <= tol
    while not stats.converged and stats.iterations < cfg.max_iters:
        d = solves.solve(assemble_jacobian(mesh, op, U), R,
                         rtol=_forcing_term(stats.residuals, tol))
        step = 1.0
        for _ in range(cfg.max_backtracks + 1):
            trial = U.values.copy()
            trial[mesh.interior] -= step * d
            Ut = DiscreteField(mesh, trial)
            Rt = assemble_residual(mesh, op, b_field, Ut)
            rt = float(np.linalg.norm(Rt))
            if rt < rnorm:
                break
            step *= 0.5
            stats.backtracks += 1
        else:
            stats.iterations += 1
            raise NonConvergence(
                f"newton backtracking stalled at residual {rnorm:.3e}",
                best=U, stats=stats)
        U, R, rnorm = Ut, Rt, rt
        stats.iterations += 1
        stats.residual_norm = rnorm
        stats.residuals.append(rnorm)
        stats.converged = rnorm <= tol
        log.debug("newton it=%d residual=%.3e step=%.2e", stats.iterations,
                  rnorm, step)
    if not stats.converged:
        raise NonConvergence(
            f"newton did not converge in {cfg.max_iters} iterations "
            f"(residual {rnorm:.3e}, tolerance {tol:.3e})",
            best=U, stats=stats)
    return U, stats


def p2_presolve(mesh: Mesh, b_field, *,
                solves: _LinearSolves | None = None) -> DiscreteField:
    """Solution of the p = 2 linear problem with the same right-hand side;
    the default initial guess of a continuation run.  The linear system goes
    through ``solves`` as in :func:`newton_solve`."""
    F = scatter_vector(mesh, ((e, c) for _, e, c in _loads(mesh, b_field)))
    # the Laplacian: every element of a class has the block area * G G^T
    K = scatter_matrix(mesh, (
        (e, np.tile((k.area * k.grads @ k.grads.T).ravel(),
                    (e.stop - e.start, 1))) for k, e in _chunks(mesh)))
    sol = (solves or _LinearSolves(mesh)).solve(K, -F)
    return field_from_interior(mesh, sol)


# ---------------------------------------------------------------------------
# continuation

@dataclass
class ContinuationStep:
    eps: float
    field: DiscreteField
    stats: SolveStats
    lp_gradient: float
    linf_u_interior: float
    linf_gradient_interior: float
    h2_interior: float
    cauchy_increment: float | None = None

    def to_dict(self) -> dict:
        return {"eps": self.eps, "stats": self.stats.to_dict(),
                "lp_gradient": self.lp_gradient,
                "linf_u_interior": self.linf_u_interior,
                "linf_gradient_interior": self.linf_gradient_interior,
                "h2_interior": self.h2_interior,
                "cauchy_increment_w12": self.cauchy_increment}


@dataclass
class ContinuationTrace:
    steps: list
    p: float
    q: float
    delta: float
    schedule: EpsilonSchedule
    mesh: Mesh
    meta: dict = field(default_factory=dict)

    @property
    def epsilons(self):
        return [s.eps for s in self.steps]

    @property
    def final_field(self) -> DiscreteField | None:
        """The last step's solution; None for a trace without steps."""
        return self.steps[-1].field if self.steps else None

    @property
    def extrapolated_field(self) -> DiscreteField | None:
        """Linear extrapolation to eps = 0 through the last two steps; a
        copy of the last solution for one step, None for none."""
        if len(self.steps) < 2:
            return self.steps[0].field.copy() if self.steps else None
        prev, last = self.steps[-2:]
        u_k, u_km1 = last.field.values, prev.field.values
        return DiscreteField(self.mesh, u_k + (u_k - u_km1)
                             * (last.eps / (prev.eps - last.eps)))

    def increments(self):
        return [s.cauchy_increment for s in self.steps
                if s.cauchy_increment is not None]

    def to_dict(self) -> dict:
        """All but the step fields, which ``from_dict`` takes apart."""
        return {"p": self.p, "q": self.q, "delta": self.delta,
                "schedule": self.schedule.to_dict(),
                "mesh": self.mesh.to_dict(), "meta": self.meta,
                "steps": [s.to_dict() for s in self.steps]}

    @classmethod
    def from_dict(cls, d: dict, fields: np.ndarray) -> "ContinuationTrace":
        """The trace of ``to_dict()`` whose k-th step field is ``fields[k]``;
        ValueError unless ``fields`` is float64 of shape (steps, nodes)."""
        mesh = Mesh.from_dict(d["mesh"])
        shape = (len(d["steps"]), mesh.n_nodes)
        if fields.dtype != np.float64 or fields.shape != shape:
            raise ValueError(f"fields are {fields.dtype} of shape "
                             f"{fields.shape}, not float64 of shape {shape}")
        steps = []
        for s, values in zip(d["steps"], fields):
            steps.append(ContinuationStep(
                eps=s["eps"], field=DiscreteField(mesh, values),
                stats=SolveStats(**s["stats"]), lp_gradient=s["lp_gradient"],
                linf_u_interior=s["linf_u_interior"],
                linf_gradient_interior=s["linf_gradient_interior"],
                h2_interior=s["h2_interior"],
                cauchy_increment=s.get("cauchy_increment_w12")))
        return cls(steps=steps, p=d["p"], q=d["q"], delta=d["delta"],
                   schedule=EpsilonSchedule.from_dict(d["schedule"]),
                   mesh=mesh, meta=d.get("meta") or {})


def interior_margin(mesh: Mesh, delta: float | None = None) -> float:
    """The interior margin of the tracked norms, by default a quarter of the
    smallest box width.  MeshError unless some element centroid and some
    node lie that far from the boundary."""
    if delta is None:
        delta = 0.25 * float(np.min(np.asarray(mesh.box.widths)))
    interior_element_mask(mesh, delta)
    interior_node_mask(mesh, delta)
    return delta


def _tracked_norms(U: DiscreteField, p: float, delta: float) -> dict:
    return {
        "lp_gradient": lp_gradient_norm(U, p),
        "linf_u_interior": linf_norm_interior(U, delta),
        "linf_gradient_interior": linf_gradient_interior(U, delta),
        "h2_interior": h2_seminorm_interior(U, delta),
    }


@np.errstate(over="ignore", invalid="ignore")
def continuation_solve(mesh: Mesh, op: OperatorSpec, b_field,
                       schedule: EpsilonSchedule,
                       cfg: NewtonConfig | None = None, *,
                       delta: float | None = None,
                       u0: DiscreteField | str | None = None,
                       meta: dict | None = None) -> ContinuationTrace:
    """Solve the regularized problems along the epsilon schedule.

    The first solve starts from the p = 2 pre-solve (or ``u0``); later
    solves warm-start from the previous solution, mirroring the extraction
    of a single convergent sequence in the limit passage.  The pre-solve
    and all eps steps share one ``_LinearSolves``, which counts the run's
    linear solves, and the rhs at the quadrature points, which is evaluated
    once.  A Newton failure raises NonConvergence naming the eps, with the
    partial trace attached.
    """
    cfg = cfg or NewtonConfig()
    check_regularization_exponents(op.p, op.q, op.dim, schedule.eps0)
    delta = interior_margin(mesh, delta)
    solves = _LinearSolves(mesh)
    b_field = _b_at_quad(mesh, b_field)
    if u0 is None:
        U_prev = p2_presolve(mesh, b_field, solves=solves)
    elif isinstance(u0, str) and u0 == "zero":
        U_prev = zero_field(mesh)
    else:
        U_prev = u0.copy()

    trace = ContinuationTrace(steps=[], p=op.p, q=op.q, delta=delta,
                              schedule=schedule, mesh=mesh,
                              meta=meta or {})
    prev_solution = None
    for eps in schedule.epsilons():
        rop = regularize(op, float(eps), schedule.eps0)
        try:
            U, stats = newton_solve(mesh, rop, b_field, U_prev, cfg,
                                    solves=solves)
        except NonConvergence as exc:
            raise NonConvergence(f"{exc} at eps={eps:.4g}", best=exc.best,
                                 stats=exc.stats, trace=trace) from exc
        norms = _tracked_norms(U, op.p, delta)
        if not all(np.isfinite(v) for v in norms.values()):
            raise NonConvergence(f"non-finite tracked norm at eps={eps:.4g}",
                                 best=U, trace=trace)
        inc = (None if prev_solution is None
               else w12_distance(U, prev_solution))
        trace.steps.append(ContinuationStep(
            eps=float(eps), field=U, stats=stats,
            cauchy_increment=inc, **norms))
        log.info("eps=%.4g: %d iterations, residual %.3e, |Du|_p=%.6g",
                 eps, stats.iterations, stats.residual_norm,
                 norms["lp_gradient"])
        prev_solution = U
        U_prev = U
    log.info("linear solves over %d eps steps: %s", len(trace.steps), solves)
    return trace
