"""Damped Newton, Kacanov fixed-point fallback and the eps-continuation
driver that realizes the regularized approximation scheme numerically.

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

from .errors import (InvalidExponents, NonConvergence, SingularJacobian,
                     Unsupported)
from .fem import (DiscreteField, Mesh, assemble_jacobian, assemble_residual,
                  assert_dirichlet, element_gradients, field_from_interior,
                  h2_seminorm_interior, linf_gradient_interior,
                  linf_norm_interior, load_contributions, lp_gradient_norm,
                  scatter_matrix, scatter_vector, w12_distance, zero_field,
                  _b_at_quad)
from .operators import (OperatorSpec, _sq, check_regularization_exponents,
                        regularize)

log = logging.getLogger("pq.solve")

# CG stops at a relative residual of CG_RTOL or falls back to a fresh LU after
# CG_MAXITER iterations: at 257^2 one splu costs about 35 triangular solves.
CG_RTOL = 1e-12
CG_MAXITER = 30


@dataclass(frozen=True)
class NewtonConfig:
    abs_tol: float = 1e-10
    rel_tol: float = 1e-12
    max_iters: int = 100
    max_backtracks: int = 30
    backtrack_factor: float = 0.5

    def __post_init__(self):
        if not (self.abs_tol > 0 and self.rel_tol > 0):
            raise ValueError("tolerances must be positive")
        if not min(self.max_iters, self.max_backtracks) >= 1:
            raise ValueError("iteration budgets must be >= 1")


@dataclass(frozen=True)
class EpsilonSchedule:
    """eps_k = eps0 * ratio^k for k = 0..steps-1, strictly decreasing."""

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

    def to_dict(self) -> dict:
        return {"method": self.method, "iterations": self.iterations,
                "residual_norm": self.residual_norm,
                "initial_residual": self.initial_residual,
                "backtracks": self.backtracks, "converged": self.converged}


class _LinearSolves:
    """Solves of nearby systems J x = rhs that share one LU factor: a
    symmetric J is solved by CG preconditioned with it; otherwise, or if CG
    stalls, the factor is dropped before J is factored afresh."""

    def __init__(self):
        self.lu, self.factorizations, self.cg_iterations = None, 0, 0

    def solve(self, J: sp.csr_matrix, rhs: np.ndarray) -> np.ndarray:
        import scipy.sparse.linalg as spla  # loaded at first use, as in fem
        if self.lu is not None and abs(J - J.T).max() <= 1e-12 * abs(J).max():
            its = []  # one entry per CG iteration
            M = spla.LinearOperator(J.shape, self.lu.solve, dtype=float)
            with np.errstate(all="ignore"):
                sol, info = spla.cg(J, rhs, rtol=CG_RTOL, atol=0.0, M=M,
                                    maxiter=CG_MAXITER, callback=its.append)
            self.cg_iterations += len(its)
            if info == 0 and np.all(np.isfinite(sol)):
                log.debug("linear solve: cg %d its", len(its))
                return sol
        self.lu = M = None  # M wraps it too; at most one factor is alive
        try:  # P1 patterns are structurally symmetric: minimum degree on A^T+A
            self.lu = spla.splu(J.tocsc(), permc_spec="MMD_AT_PLUS_A")
            sol = self.lu.solve(rhs)
        except RuntimeError as exc:  # "Factor is exactly singular"
            raise SingularJacobian(str(exc)) from exc
        self.factorizations += 1
        if not np.all(np.isfinite(sol)):
            raise SingularJacobian("linear solve produced non-finite values")
        log.debug("linear solve: lu")
        return sol


def _stiffness_blocks(mesh: Mesh) -> np.ndarray:
    """Element blocks area * G G^T (E, nv, nv) of the Laplacian."""
    return np.einsum("e,evd,ewd->evw", mesh.areas, mesh.grads, mesh.grads)


# numpy's overflow warnings are off in solves: explicit checks catch each
# non-finite value and raise QuadratureFailure, SingularJacobian or the like
@np.errstate(over="ignore", invalid="ignore")
def newton_solve(mesh: Mesh, op: OperatorSpec, b_field, U0: DiscreteField,
                 cfg: NewtonConfig | None = None, *,
                 solves: _LinearSolves | None = None):
    """Damped Newton iteration on the interior unknowns.

    Each accepted step strictly decreases the residual 2-norm; the step is
    halved up to ``max_backtracks`` times until it does.  The rhs is
    evaluated once; linear systems go through ``solves`` (a fresh
    _LinearSolves by default).  Returns (DiscreteField, SolveStats); raises
    NonConvergence (with the best iterate attached) or SingularJacobian.
    """
    cfg = cfg or NewtonConfig()
    solves = solves or _LinearSolves()
    assert_dirichlet(U0)
    U = U0.copy()
    b_field = _b_at_quad(mesh, b_field)  # once per solve
    R = assemble_residual(mesh, op, b_field, U)
    rnorm = float(np.linalg.norm(R))
    r0 = rnorm
    tol = max(cfg.abs_tol, cfg.rel_tol * r0)
    stats = SolveStats("newton", 0, rnorm, initial_residual=r0)
    for it in range(cfg.max_iters):
        if rnorm <= tol:
            stats.converged = True
            return U, stats
        J = assemble_jacobian(mesh, op, U)
        delta = solves.solve(J, R)
        step = 1.0
        accepted = False
        for _ in range(cfg.max_backtracks + 1):
            trial = U.values.copy()
            trial[mesh.interior] -= step * delta
            Ut = DiscreteField(mesh, trial)
            Rt = assemble_residual(mesh, op, b_field, Ut)
            rt = float(np.linalg.norm(Rt))
            if rt < rnorm:
                U, R, rnorm = Ut, Rt, rt
                accepted = True
                break
            step *= cfg.backtrack_factor
            stats.backtracks += 1
        stats.iterations = it + 1
        stats.residual_norm = rnorm
        log.debug("newton it=%d residual=%.3e step=%.2e", it + 1, rnorm, step)
        if not accepted:
            raise NonConvergence(
                f"backtracking stalled at residual {rnorm:.3e}",
                best=U, stats=stats)
    if rnorm <= tol:
        stats.converged = True
        return U, stats
    raise NonConvergence(
        f"newton did not reach tolerance {tol:.3e} in {cfg.max_iters} "
        f"iterations (residual {rnorm:.3e})", best=U, stats=stats)


@np.errstate(over="ignore", invalid="ignore")
def fixed_point_solve(mesh: Mesh, op: OperatorSpec, b_field,
                      U0: DiscreteField, cfg: NewtonConfig | None = None, *,
                      solves: _LinearSolves | None = None):
    """Lagged-coefficient (Kacanov) iteration for scalar-weight fluxes.

    Freezes w = scalar_weight(x, u_prev, |Du_prev|^2), solves the linear
    problem int w Du . Dv = -int b v, and relaxes toward the linear solve
    with a step halved until the nonlinear residual decreases (the plain
    lagged iteration 2-cycles for p > 2; relaxation keeps the same fixed
    points).  Stops when the W^{1,2} increment drops below abs_tol.
    Linear systems go through ``solves`` as in :func:`newton_solve`.
    """
    cfg = cfg or NewtonConfig()
    solves = solves or _LinearSolves()
    if op.scalar_weight is None:
        raise Unsupported(
            f"{op.family_tag}: flux is not of scalar-weight form")
    assert_dirichlet(U0)
    U = U0.copy()
    b_field = _b_at_quad(mesh, b_field)  # once per solve
    F = scatter_vector(mesh, load_contributions(mesh, b_field))
    # element stiffness blocks for w = 1; a weight scales them by mean_q(w)
    unit = _stiffness_blocks(mesh)
    rnorm = float(np.linalg.norm(assemble_residual(mesh, op, b_field, U)))
    stats = SolveStats("fixed-point", 0, rnorm, initial_residual=rnorm)
    tol = max(cfg.abs_tol, cfg.rel_tol * rnorm)
    for it in range(cfg.max_iters):
        if rnorm <= tol:
            stats.converged = True
            return U, stats
        xi = element_gradients(U)
        t = _sq(xi)[:, None]
        uq = np.einsum("qv,ev->eq", mesh.quad_bary, U.values[mesh.elements])
        wq = np.broadcast_to(op.scalar_weight(mesh.quad_points, uq, t),
                             uq.shape)
        K = scatter_matrix(mesh, (wq @ mesh.quad_frac)[:, None, None] * unit)
        sol = solves.solve(K, -F)
        direction = sol - U.values[mesh.interior]
        step = 1.0
        accepted = False
        for _ in range(cfg.max_backtracks + 1):
            trial = U.values.copy()
            trial[mesh.interior] += step * direction
            Ut = DiscreteField(mesh, trial)
            rt = float(np.linalg.norm(
                assemble_residual(mesh, op, b_field, Ut)))
            if rt < rnorm:
                accepted = True
                break
            step *= cfg.backtrack_factor
            stats.backtracks += 1
        if not accepted:
            stats.iterations = it + 1
            raise NonConvergence(
                f"fixed-point relaxation stalled at residual {rnorm:.3e}",
                best=U, stats=stats)
        diff = w12_distance(Ut, U)
        U, rnorm = Ut, rt
        stats.iterations = it + 1
        stats.residual_norm = rnorm
        log.debug("fixed-point it=%d increment=%.3e residual=%.3e step=%.2e",
                  it + 1, diff, rnorm, step)
        if diff <= cfg.abs_tol:
            stats.converged = True
            return U, stats
    raise NonConvergence(
        f"fixed-point increment stalled above {cfg.abs_tol:.3e} after "
        f"{cfg.max_iters} iterations", best=U, stats=stats)


def p2_presolve(mesh: Mesh, b_field) -> DiscreteField:
    """Solution of the p = 2 linear problem with the same right-hand side;
    the default initial guess of a continuation run."""
    F = scatter_vector(mesh, load_contributions(mesh,
                                                _b_at_quad(mesh, b_field)))
    # its own solves: the p = 2 factor preconditions later Jacobians poorly
    sol = _LinearSolves().solve(
        scatter_matrix(mesh, _stiffness_blocks(mesh)), -F)
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

    def norms_dict(self) -> dict:
        return {"lp_gradient": self.lp_gradient,
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
    final_field: DiscreteField = None
    extrapolated_field: DiscreteField = None
    meta: dict = field(default_factory=dict)

    @property
    def epsilons(self):
        return [s.eps for s in self.steps]

    def increments(self):
        return [s.cauchy_increment for s in self.steps
                if s.cauchy_increment is not None]

    def to_dict(self) -> dict:
        return {
            "p": self.p, "q": self.q, "delta": self.delta,
            "schedule": self.schedule.to_dict(),
            "mesh": self.mesh.to_dict(),
            "meta": self.meta,
            "steps": [
                {"eps": s.eps, "stats": s.stats.to_dict(),
                 **s.norms_dict(), "values": s.field.values.tolist()}
                for s in self.steps],
            "final_values": self.final_field.values.tolist(),
            "extrapolated_values": self.extrapolated_field.values.tolist(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ContinuationTrace":
        mesh = Mesh.from_dict(d["mesh"])
        steps = []
        for s in d["steps"]:
            st = s["stats"]
            stats = SolveStats(st["method"], st["iterations"],
                               st["residual_norm"],
                               st.get("initial_residual", np.nan),
                               st.get("backtracks", 0),
                               st.get("converged", False))
            steps.append(ContinuationStep(
                eps=s["eps"], field=DiscreteField(mesh, np.asarray(s["values"])),
                stats=stats, lp_gradient=s["lp_gradient"],
                linf_u_interior=s["linf_u_interior"],
                linf_gradient_interior=s["linf_gradient_interior"],
                h2_interior=s["h2_interior"],
                cauchy_increment=s.get("cauchy_increment_w12")))
        trace = cls(steps=steps, p=d["p"], q=d["q"], delta=d["delta"],
                    schedule=EpsilonSchedule.from_dict(d["schedule"]),
                    mesh=mesh, meta=d.get("meta") or {})
        trace.final_field = DiscreteField(mesh, np.asarray(d["final_values"]))
        trace.extrapolated_field = DiscreteField(
            mesh, np.asarray(d["extrapolated_values"]))
        return trace


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
    of a single convergent sequence in the limit passage.  On Newton
    failure a scalar-weight fixed-point fallback is attempted.  All eps
    steps share one ``_LinearSolves``, so one LU factor preconditions CG
    for the whole run.  Solver errors propagate with the partial trace.
    """
    cfg = cfg or NewtonConfig()
    check_regularization_exponents(op.p, op.q, op.dim, schedule.eps0)
    if delta is None:
        delta = 0.25 * float(np.min(np.asarray(mesh.box.widths)))

    if u0 is None:
        U_prev = p2_presolve(mesh, b_field)
    elif isinstance(u0, str) and u0 == "zero":
        U_prev = zero_field(mesh)
    else:
        U_prev = u0.copy()

    trace = ContinuationTrace(steps=[], p=op.p, q=op.q, delta=delta,
                              schedule=schedule, mesh=mesh,
                              meta=meta or {})
    prev_solution = None
    solves = _LinearSolves()
    for eps in schedule.epsilons():
        rop = regularize(op, float(eps), schedule.eps0)
        try:
            try:
                U, stats = newton_solve(mesh, rop, b_field, U_prev, cfg,
                                        solves=solves)
            except NonConvergence as exc:
                log.info("newton failed at eps=%.4g (%s); trying fixed point",
                         eps, exc)
                start = exc.best if exc.best is not None else U_prev
                U, stats = fixed_point_solve(mesh, rop, b_field, start, cfg,
                                             solves=solves)
        except (NonConvergence, SingularJacobian) as exc:
            if isinstance(exc, NonConvergence):
                exc.trace = trace
            raise
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
    log.info("linear solves over %d eps steps: %d LU, %d CG iterations",
             len(trace.steps), solves.factorizations, solves.cg_iterations)

    trace.final_field = trace.steps[-1].field
    if len(trace.steps) >= 2:
        u_k = trace.steps[-1].field.values
        u_km1 = trace.steps[-2].field.values
        e_k = trace.steps[-1].eps
        e_km1 = trace.steps[-2].eps
        extrap = u_k + (u_k - u_km1) * (e_k / (e_km1 - e_k))
        trace.extrapolated_field = DiscreteField(mesh, extrap)
    else:
        trace.extrapolated_field = trace.final_field.copy()
    return trace
