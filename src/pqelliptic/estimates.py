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

from .errors import InvalidExponents
from .fem import (DiscreteField, ball_element_mask, ball_node_mask,
                  element_gradients, gradient_weight_integral, h2_seminorm)
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
    extrapolated in reports.
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
    from .fem import _b_at_quad
    pprime = p / (p - 1.0)
    psprime = pstar / (pstar - 1.0)
    xq = mesh.quad_points
    zero_u = np.zeros(xq.shape[:-1])
    zero_xi = np.zeros_like(xq)
    a0 = np.sqrt(_sq(op.flux(xq, zero_u, zero_xi)))
    bq = _b_at_quad(mesh, b_field)
    from .errors import QuadratureFailure
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

    def to_dict(self) -> dict:
        return {"ratio": self.ratio, "verdict": self.verdict,
                "bound": self.bound,
                "lhs_over_bracket": self.lhs_over_bracket}


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

def _resolve_balls(mesh, rho, R, center):
    if not 0.0 < rho < R:
        raise InvalidExponents("need 0 < rho < R")
    c = mesh.box.center if center is None else np.asarray(center, float)
    return c


def interior_gradient_constant(U: DiscreteField, p: float, q: float, n: int,
                               rho: float, R: float,
                               center=None) -> float:
    """Empirical constant of the interior gradient estimate.

    Solves ||Du||_{L^inf(B_rho)} = (c/(R-rho)^n int_{B_R} (1+|Du|^2)^(p/2))^(alpha/p)
    for c, with alpha = compute_alpha(n, p, q).  Balls are realized as the
    union of elements whose centroid lies inside.
    """
    mesh = U.mesh
    center = _resolve_balls(mesh, rho, R, center)
    inner = ball_element_mask(mesh, center, rho)
    outer = ball_element_mask(mesh, center, R)
    g = np.sqrt(_sq(element_gradients(U)))
    lhs = float(g[inner].max())
    integral = gradient_weight_integral(U, p, element_mask=outer)
    alpha = compute_alpha(n, p, q)
    return float((R - rho) ** n * lhs ** (p / alpha) / integral)


def second_derivative_constant(U: DiscreteField, q: float, rho: float,
                               R: float, eps: float = 0.0,
                               center=None) -> float:
    """Empirical constant of the interior W^{2,2} estimate.

    c = (R-rho)^2 * (discrete W^{2,2} seminorm on B_rho)^2
        / int_{B_R} (1+|Du|^2)^((q+eps)/2); eps is the continuation step's
    value (0 for the limit field).
    """
    mesh = U.mesh
    center = _resolve_balls(mesh, rho, R, center)
    node_mask = ball_node_mask(mesh, center, rho)
    sem = h2_seminorm(U, node_mask=node_mask)
    outer = ball_element_mask(mesh, center, R)
    integral = gradient_weight_integral(U, q + eps, element_mask=outer)
    return float((R - rho) ** 2 * sem ** 2 / integral)


# ---------------------------------------------------------------------------
# per-trace report

@dataclass
class EstimateReport:
    rows: list          # one dict per continuation step
    params: dict        # rho, R, delta, p, q, n, alpha, pstar, bracket
    uniformity: UniformLpResult
    gradient_constant_ratio: float
    hessian_constant_ratio: float

    def to_dict(self) -> dict:
        return {"rows": self.rows, "params": self.params,
                "uniformity": self.uniformity.to_dict(),
                "gradient_constant_ratio": self.gradient_constant_ratio,
                "hessian_constant_ratio": self.hessian_constant_ratio}


def _spread(values) -> float:
    vals = np.asarray(values, float)
    if np.any(~np.isfinite(vals)) or np.any(vals <= 0.0):
        return float("inf")
    return float(vals.max() / vals.min())


def build_estimate_report(trace, op, b_field, rho_frac: float = 0.25,
                          R_frac: float = 0.4, lp_bound: float = 1.5,
                          center=None) -> EstimateReport:
    """Estimate instrumentation over a continuation trace.

    rho and R are fractions of the smallest box width (concentric balls
    around the box center by default).
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
        c_grad = interior_gradient_constant(step.field, p, q, n, rho, R,
                                            center=center)
        c_hess = second_derivative_constant(step.field, q, rho, R,
                                            eps=step.eps, center=center)
        rows.append({"eps": step.eps, "lp_grad": step.lp_gradient,
                     "bracket": bracket, "ratio": per,
                     "c_gradient": c_grad, "c_hessian": c_hess,
                     "alpha": alpha, "pstar": pstar})

    params = {"rho": rho, "R": R, "delta": trace.delta, "p": p, "q": q,
              "n": n, "alpha": alpha, "pstar": pstar, "bracket": bracket,
              "theta": theta_exponent(p, q, 0.0),
              "alpha_extrapolated": alpha_is_extrapolated(n, p, q)}
    return EstimateReport(
        rows=rows, params=params, uniformity=uni,
        gradient_constant_ratio=_spread([r["c_gradient"] for r in rows]),
        hessian_constant_ratio=_spread([r["c_hessian"] for r in rows]))
