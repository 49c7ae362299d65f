"""A priori estimate instrumentation.

Computes the data brackets on the right-hand sides of the global L^p
gradient estimate and the interior gradient / second-derivative estimates,
measures the corresponding discrete left-hand sides from solves, and
reports empirical constants (lhs normalized by bracket) together with
uniformity-in-epsilon verdicts.  The unknown theoretical constants are
never invented: callers compare lhs/bracket ratios across epsilon.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidExponents, QuadratureFailure
from .fem import (DiscreteField, element_gradients, h2_seminorm,
                  region_mask, _b_at_quad, _chunks)
from .operators import _sq
from .verify import theta_exponent


def compute_pstar(n: int, p: float, q: float) -> float:
    """Sobolev conjugate: np/(n-p) for p < n; a free choice > q otherwise.

    For p >= n the theory may take any value above q; we take q+1,
    enlarged past the coercivity exponent 2p/(p-q+2) when that exceeds it,
    so the guaranteed relation theta < p* carries over to the free-choice
    branch as well.
    """
    _validate_pq_ratio(n, p, q)
    if p < n:
        return n * p / (n - p)
    return max(q, 2.0 * p / (p - q + 2.0)) + 1.0


def compute_alpha(n: int, p: float, q: float) -> float:
    """Interior gradient estimate exponent: alpha = 2p/((n+2)p - nq).

    Printed for n > 2 (so that alpha/p matches the stated exponent); the
    same formula is used at n = 2 (value 1 at p = q), flagged as
    extrapolated in EstimateReport.params["alpha_extrapolated"] and in the
    stderr line of ``pq estimates``.
    """
    _validate_pq_ratio(n, p, q)
    denom = (n + 2.0) * p - n * q
    if denom <= 0.0:
        raise InvalidExponents(f"(n+2)p - nq = {denom:.6g} must be positive")
    return 2.0 * p / denom


def alpha_is_extrapolated(n: int, p: float, q: float) -> bool:
    return n == 2 and q > p


def _validate_pq_ratio(n, p, q):
    if p < 2.0:
        raise InvalidExponents(f"p must be >= 2, got {p}")
    if not q / p < 1.0 + 1.0 / n:
        raise InvalidExponents(
            f"q/p = {q / p:.6g} must stay below 1+1/n = {1 + 1 / n:.6g}")


# ---------------------------------------------------------------------------
# global L^p gradient estimate

def _lp_norm_of(mesh, values_at_quad: np.ndarray, r: float) -> float:
    val = np.einsum("e,q,eq->", mesh.areas, mesh.quad_frac,
                    np.abs(values_at_quad) ** r)
    return float(val ** (1.0 / r))


def global_lp_rhs(mesh, op, b_field, p: float, pstar: float) -> float:
    """Data bracket (1 + ||a(.,0,0)||_{p'} + ||b||_{(p*)'})^(p/(p-1)).

    Norms are taken over the mesh by quadrature.  The unknown constant of
    the estimate is *not* included: callers compare ||Du||_p^p / bracket.
    """
    pprime = p / (p - 1.0)
    psprime = pstar / (pstar - 1.0)
    a0 = np.empty(mesh.quad_points.shape[:-1])
    for _, e in _chunks(mesh):
        xq = mesh.quad_points[e]
        a0[e] = np.sqrt(_sq(op.flux(xq, np.zeros(xq.shape[:-1]),
                                    np.zeros_like(xq))))
    bq = _b_at_quad(mesh, b_field)
    if not np.all(np.isfinite(a0)):
        raise QuadratureFailure("non-finite integrand in the data bracket")
    bracket = 1.0 + _lp_norm_of(mesh, a0, pprime) + _lp_norm_of(mesh, bq, psprime)
    return float(bracket ** (p / (p - 1.0)))


@dataclass
class UniformLpResult:
    ratio: float
    verdict: bool
    bound: float
    lhs_over_bracket: list | None = None


def lp_ratio(norms) -> float:
    """max / min of tracked gradient norms: 1 if all vanish (u = 0), inf if
    only some do."""
    hi, lo = max(norms), min(norms)
    return float(hi / lo) if lo > 0 else 1.0 if hi == 0 else np.inf


def check_uniform_lp(trace, bound: float = 1.5,
                     bracket: float | None = None) -> UniformLpResult:
    """Uniformity of ||Du_eps||_{L^p} across the continuation steps.

    ratio = max_k / min_k of the tracked norms; pass iff ratio <= bound
    (the theory guarantees an eps-independent constant, the band is ours).
    With a data bracket supplied, also reports ||Du||_p^p / bracket per step.
    """
    if len(trace.steps) < 2:
        raise ValueError("uniformity needs at least two continuation steps")
    norms = np.asarray([s.lp_gradient for s in trace.steps])
    ratio = lp_ratio(norms)
    per_step = None
    if bracket is not None:
        per_step = [float(v ** trace.p / bracket) for v in norms]
    return UniformLpResult(ratio=ratio, verdict=ratio <= bound, bound=bound,
                           lhs_over_bracket=per_step)


# ---------------------------------------------------------------------------
# interior estimates

def interior_constants(U: DiscreteField, p: float, q: float, rho: float,
                       R: float, eps: float = 0.0) -> tuple:
    """Empirical constants (c_gradient, c_hessian) of the interior gradient
    and W^{2,2} estimates over the concentric balls B_rho in B_R around the
    box centre, which must lie in the box: 0 < rho < R < half its smallest
    width.  A ball is the union of the elements whose centroid lies inside
    it; the second difference quotients are summed over its nodes.

    c_gradient solves
    ||Du||_{L^inf(B_rho)} = (c/(R-rho)^n int_{B_R} (1+|Du|^2)^(p/2))^(alpha/p)
    for c, with alpha = compute_alpha(n, p, q), and
    c_hessian = (R-rho)^2 * (discrete W^{2,2} seminorm on B_rho)^2
        / int_{B_R} (1+|Du|^2)^((q+eps)/2),
    eps being the continuation step's value (0 for the limit field).
    """
    mesh, n = U.mesh, U.mesh.dim
    half = 0.5 * float(np.min(np.asarray(mesh.box.widths)))
    if not 0.0 < rho < R < half:
        raise InvalidExponents(f"need 0 < rho < R < {half:g} (half the "
                               f"smallest box width), got rho={rho:g}, "
                               f"R={R:g}")
    inner = region_mask(mesh, "elements", "ball", rho)
    outer = region_mask(mesh, "elements", "ball", R)
    t = _sq(element_gradients(U))
    areas, t_R = mesh.areas[outer], t[outer]

    def integral(e):  # int_{B_R} (1 + |Du|^2)^(e/2)
        return float(np.sum(areas * (1.0 + t_R) ** (e / 2.0)))

    lhs = float(np.sqrt(t)[inner].max())
    alpha = compute_alpha(n, p, q)
    c_gradient = float((R - rho) ** n * lhs ** (p / alpha) / integral(p))
    sem = h2_seminorm(U, node_mask=region_mask(mesh, "nodes", "ball", rho))
    c_hessian = float((R - rho) ** 2 * sem ** 2 / integral(q + eps))
    return c_gradient, c_hessian


# ---------------------------------------------------------------------------
# per-trace report

@dataclass
class EstimateReport:
    rows: list          # one dict per continuation step
    params: dict        # rho, R, delta, p, q, n, alpha, pstar, bracket
    uniformity: UniformLpResult
    gradient_constant_ratio: float
    hessian_constant_ratio: float


def _spread(values) -> float:
    vals = np.asarray(values, float)
    if np.any(~np.isfinite(vals)) or np.any(vals <= 0.0):
        return float("inf")
    return float(vals.max() / vals.min())


def build_estimate_report(trace, op, b_field, rho_frac: float = 0.25,
                          R_frac: float = 0.4,
                          lp_bound: float = 1.5) -> EstimateReport:
    """Estimate instrumentation over a continuation trace.

    rho and R are fractions of the smallest box width (concentric balls
    around the box centre).
    """
    mesh = trace.mesh
    width = float(np.min(np.asarray(mesh.box.widths)))
    rho = rho_frac * width
    R = R_frac * width
    n, p, q = mesh.dim, trace.p, trace.q
    pstar = compute_pstar(n, p, q)
    alpha = compute_alpha(n, p, q)
    bracket = global_lp_rhs(mesh, op, b_field, p, pstar)
    uni = check_uniform_lp(trace, bound=lp_bound, bracket=bracket)

    rows = []
    for step, per in zip(trace.steps, uni.lhs_over_bracket):
        c_grad, c_hess = interior_constants(step.field, p, q, rho, R,
                                            eps=step.eps)
        rows.append({"eps": step.eps, "lp_grad": step.lp_gradient,
                     "bracket": bracket, "ratio": per,
                     "c_gradient": c_grad, "c_hessian": c_hess,
                     "alpha": alpha, "pstar": pstar})

    params = {"rho": rho, "R": R, "delta": trace.delta, "p": p, "q": q,
              "n": n, "alpha": alpha, "pstar": pstar, "bracket": bracket,
              "theta": theta_exponent(p, q, op.beta),
              "alpha_extrapolated": alpha_is_extrapolated(n, p, q)}
    return EstimateReport(
        rows=rows, params=params, uniformity=uni,
        gradient_constant_ratio=_spread([r["c_gradient"] for r in rows]),
        hessian_constant_ratio=_spread([r["c_hessian"] for r in rows]))
