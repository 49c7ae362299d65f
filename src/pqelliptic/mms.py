"""Manufactured solutions and mesh-convergence studies.

Given an exact u* vanishing on the box boundary, the matching right-hand
side is b(x) = sum_i d/dx_i a^i(x, u*(x), Du*(x)), so that u* solves the
problem in the sign convention of the weak form

    int a(x, u, Du) . Dv dx + int b v dx = 0.

When the Hessian of u* is available the divergence is expanded through the
operator's analytic derivatives; otherwise it is a centered numeric
divergence with step h_div per axis.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import InconsistentExactData
from .fem import (SIMPLICES, DiscreteField, build_mesh, field_from_interior,
                  prolongations, _b_at_quad, _chunks)
from .operators import OperatorSpec, _sq
from .solvers import NewtonConfig, _LinearSolves, newton_solve, p2_presolve

log = logging.getLogger("pq.mms")

#: Step for the numeric divergence, as a fraction of the box width.
H_DIV_FRAC = 1e-4


@dataclass
class ManufacturedCase:
    name: str
    u_exact: object          # x -> real
    du_exact: object         # x -> n-vector
    b_field: object          # x -> real
    provenance: str          # "analytic" | "numeric-divergence"
    hessian_exact: object = None
    jet: object = None       # x, order -> (u*, Du*[, D^2 u*])

    def __post_init__(self):
        if self.jet is None:
            self.jet = _jet(self.u_exact, self.du_exact, self.hessian_exact)


def _jet(u_exact, du_exact, hessian_exact=None):
    """x, order -> u* and its derivatives up to ``order``, one callable
    each; a case that can share work between them passes its own jet."""
    def jet(x, order=2):
        fns = (u_exact, du_exact, hessian_exact)[:order + 1]
        return tuple(f(x) for f in fns)
    return jet


def _fd_gradient(u_exact, x, h):
    dim = x.shape[-1]
    cols = []
    for s in range(dim):
        e = np.zeros(dim)
        e[s] = h[s]
        cols.append((u_exact(x + e) - u_exact(x - e)) / (2.0 * h[s]))
    return np.stack(cols, axis=-1)


def _numeric_divergence(op, u_exact, du_exact, x, h):
    div = np.zeros(x.shape[:-1])
    dim = x.shape[-1]
    for s in range(dim):
        e = np.zeros(dim)
        e[s] = h[s]
        xp, xm = x + e, x - e
        ap = op.flux(xp, u_exact(xp), du_exact(xp))[..., s]
        am = op.flux(xm, u_exact(xm), du_exact(xm))[..., s]
        div += (ap - am) / (2.0 * h[s])
    return div


def make_manufactured(op: OperatorSpec, u_exact, du_exact,
                      hessian_exact=None, name: str = "custom", *,
                      jet=None) -> ManufacturedCase:
    """Derive b from u* so that u* solves the operator's Dirichlet problem.

    ``du_exact`` is spot-checked against finite differences of ``u_exact``
    (InconsistentExactData on mismatch), and the produced b is spot-checked
    at 16 probe points against a finer-step numeric divergence.  ``jet``
    (x, order -> u* and its derivatives up to ``order``) gives the three
    from one evaluation; by default it calls the three callables.
    """
    jet = jet or _jet(u_exact, du_exact, hessian_exact)
    box = op.domain
    widths = np.asarray(box.widths, float)
    probes = box.shrink(0.2).lattice(per_axis=max(2, round(16 ** (1 / box.dim))))
    if probes.shape[0] > 16:
        probes = probes[:: max(1, probes.shape[0] // 16)][:16]

    h_spot = 1e-5 * widths
    fd = _fd_gradient(u_exact, probes, h_spot)
    an = np.asarray(du_exact(probes), float)
    scale = max(1.0, float(np.abs(an).max()))
    if np.abs(fd - an).max() / scale > 1e-6:
        raise InconsistentExactData(
            "du_exact disagrees with finite differences of u_exact")

    if hessian_exact is not None:
        def b_field(x):
            x = np.asarray(x, float)
            u, du, H = (np.asarray(a, float) for a in jet(x))
            J = op.dflux_dxi(x, u, du)
            au = op.dflux_du(x, u, du)
            div = np.einsum("...ij,...ji->...", J, H)
            div = div + np.einsum("...i,...i->...", au, du)
            for s in range(op.dim):
                div = div + op.dflux_dx(x, u, du, s)[..., s]
            return div
        provenance = "analytic"
    else:
        h_div = H_DIV_FRAC * widths

        def b_field(x):
            return _numeric_divergence(op, u_exact, du_exact,
                                       np.asarray(x, float), h_div)
        provenance = "numeric-divergence"

    ref = _numeric_divergence(op, u_exact, du_exact, probes,
                              H_DIV_FRAC * widths / 4.0)
    got = np.asarray(b_field(probes), float)
    bscale = max(1.0, float(np.abs(ref).max()))
    if np.abs(got - ref).max() / bscale > 1e-4:
        raise InconsistentExactData(
            "b disagrees with the finer-step numeric divergence")

    return ManufacturedCase(name=name, u_exact=u_exact, du_exact=du_exact,
                            b_field=b_field, provenance=provenance,
                            hessian_exact=hessian_exact, jet=jet)


# ---------------------------------------------------------------------------
# built-in cases (defined on the operator's box through affine rescaling)

def _sine(s):
    S = np.sin(math.pi * s)
    return S, math.pi * np.cos(math.pi * s), -math.pi ** 2 * S


def _bump(s):
    return s * (1.0 - s), 1.0 - 2.0 * s, np.full(np.shape(s), -2.0)


#: Profiles f(s) on [0, 1] with f(0) = f(1) = 0: s -> (f, f', f'').
PROFILES = {"sine": _sine, "bump": _bump}

#: Built-in case name -> (profile, dimension).
BUILTIN_CASES = {"quad1d": ("bump", 1), "sine2d": ("sine", 2),
                 "bump2d": ("bump", 2)}


def builtin_case(name: str, op: OperatorSpec) -> ManufacturedCase:
    """Named exact solutions u*(x) = prod_i f(s_i) of a profile f in the
    box coordinates s = (x - lo) / w, listed in BUILTIN_CASES."""
    if name not in BUILTIN_CASES:
        raise InconsistentExactData(f"unknown manufactured case {name!r}")
    profile, dim = BUILTIN_CASES[name]
    if op.dim != dim:
        raise InconsistentExactData(f"{name} needs a {dim}D operator")
    profile = PROFILES[profile]
    lo = np.asarray(op.domain.lo)
    w = np.asarray(op.domain.widths, float)

    def others(F, *axes):
        """Product of F over the axes not listed: f vanishes on the
        boundary, so it is multiplied in, never divided out."""
        return math.prod(F[k] for k in range(dim) if k not in axes)

    def jet(x, order=2):
        """u* and its derivatives up to ``order`` from one evaluation of
        the profile per axis, in the box coordinates s = (x - lo) / w."""
        x = np.asarray(x, float)
        F, D1, D2 = zip(*(profile((x[..., k] - lo[k]) / w[k])
                          for k in range(dim)))
        out = [others(F)]
        if order >= 1:
            D1 = [d / wk for d, wk in zip(D1, w)]
            out.append(np.stack([D1[i] * others(F, i) for i in range(dim)],
                                axis=-1))
        if order >= 2:
            H = np.empty(F[0].shape + (dim, dim))
            for i in range(dim):
                H[..., i, i] = D2[i] / w[i] ** 2 * others(F, i)
                for j in range(i + 1, dim):
                    H[..., i, j] = H[..., j, i] = (D1[i] * D1[j]
                                                   * others(F, i, j))
            out.append(H)
        return tuple(out)

    return make_manufactured(op, lambda x: jet(x, 0)[0],
                             lambda x: jet(x, 1)[1],
                             hessian_exact=lambda x: jet(x)[2], name=name,
                             jet=jet)


# ---------------------------------------------------------------------------
# convergence study

@dataclass
class StudyRow:
    n: int
    h: float
    l2_error: float
    w12_error: float


@dataclass
class StudyResult:
    rows: list
    l2_orders: list
    w12_orders: list

    def to_dicts(self):
        out = []
        for i, r in enumerate(self.rows):
            out.append({"n": r.n, "h": r.h, "l2_error": r.l2_error,
                        "w12_error": r.w12_error,
                        "l2_order": self.l2_orders[i - 1] if i else None,
                        "w12_order": self.w12_orders[i - 1] if i else None})
        return out


def _refined_errors(mesh, U: DiscreteField, case: ManufacturedCase):
    """L2 and W^{1,2} errors against u*, integrated with one extra
    refinement of the quadrature rule (standard hygiene against
    superconvergence artifacts), with one u* jet per chunk of elements."""
    split = SIMPLICES[mesh.dim]
    # the mesh rule mapped into each child of one red refinement; a point
    # two children share (in 2D, 3 of the 12) is evaluated once, with the
    # sum of their weights
    bary = np.einsum("qk,ckv->cqv", split.quad_bary,
                     split.children).reshape(-1, mesh.dim + 1)
    bary, which = np.unique(bary, axis=0, return_inverse=True)
    frac = np.bincount(which.ravel(), np.tile(
        split.quad_frac, len(split.children))) / len(split.children)
    l2, w12g = np.zeros((2, mesh.n_elements))
    for k, e in _chunks(mesh, len(bary)):
        ve = U.values[mesh.elements[e]]         # (n, nv)
        u, du = case.jet(np.tensordot(bary, mesh.nodes[mesh.elements[e]],
                                      axes=(1, 1)), 1)
        # (points, n) terms, summed over the points in their order
        weight = frac[:, None] * mesh.areas[e]
        l2[e] = np.sum(weight * (bary @ ve.T - u) ** 2, axis=0)
        w12g[e] = np.sum(weight * _sq(ve @ k.grads - np.asarray(du, float)),
                         axis=0)
    return float(np.sqrt(l2.sum())), float(np.sqrt(l2.sum() + w12g.sum()))


def convergence_study(op: OperatorSpec, case, grid_sizes,
                      cfg: NewtonConfig | None = None) -> StudyResult:
    """Solve on a refining family of grids and report errors and orders.

    ``case`` is a ManufacturedCase or a built-in case name.  Observed order
    is log2 of successive error ratios (grids are expected to halve h).  On
    each mesh the start and Newton share one ``_LinearSolves`` and one
    evaluation of the rhs.  Newton starts from the previous grid's solution,
    interpolated exactly, when the mesh's first multigrid level is that grid
    (nested iteration); the first grid, and a grid that does not nest on the
    previous one, start from the p = 2 pre-solve.
    """
    sizes = [int(v) for v in grid_sizes]
    if len(sizes) < 3 or any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise ValueError("need at least 3 strictly refining grid sizes")
    if isinstance(case, str):
        case = builtin_case(case, op)
    cfg = cfg or NewtonConfig()

    rows, U = [], None
    for nside in sizes:
        mesh = build_mesh(op.dim, op.domain, nside)
        solves = _LinearSolves(mesh)
        bq = _b_at_quad(mesh, case.b_field)
        first = prolongations(mesh)[:1]
        if U is not None and first and first[0].shape == U.mesh.shape:
            U0 = field_from_interior(
                mesh, first[0].P @ U.values[U.mesh.interior])
            start = f"nested from {rows[-1].n}"
        else:
            U0, start = p2_presolve(mesh, bq, solves=solves), "presolve"
        U, stats = newton_solve(mesh, op, bq, U0, cfg, solves=solves)
        log.info("n=%d: start %s, %d Newton iterations, %d backtracks; "
                 "linear solves: %s", nside, start, stats.iterations,
                 stats.backtracks, solves)
        l2, w12 = _refined_errors(mesh, U, case)
        rows.append(StudyRow(n=nside, h=float(np.max(mesh.h)),
                             l2_error=l2, w12_error=w12))

    def orders(errs):
        out = []
        for e0, e1 in zip(errs, errs[1:]):
            out.append(float(np.log2(e0 / e1)) if e1 > 0 and e0 > 0 else np.inf)
        return out

    return StudyResult(rows=rows,
                       l2_orders=orders([r.l2_error for r in rows]),
                       w12_orders=orders([r.w12_error for r in rows]))
