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

import math
from dataclasses import dataclass

import numpy as np

from .errors import InconsistentExactData
from .fem import DiscreteField, build_mesh, zero_field
from .operators import OperatorSpec
from .solvers import NewtonConfig, newton_solve, p2_presolve

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
                      hessian_exact=None, name: str = "custom",
                      h_div_frac: float = H_DIV_FRAC) -> ManufacturedCase:
    """Derive b from u* so that u* solves the operator's Dirichlet problem.

    ``du_exact`` is spot-checked against finite differences of ``u_exact``
    (InconsistentExactData on mismatch), and the produced b is spot-checked
    at 16 probe points against a finer-step numeric divergence.
    """
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
            u = np.asarray(u_exact(x), float)
            du = np.asarray(du_exact(x), float)
            H = np.asarray(hessian_exact(x), float)
            J = op.dflux_dxi(x, u, du)
            au = op.dflux_du(x, u, du)
            div = np.einsum("...ij,...ji->...", J, H)
            div = div + np.einsum("...i,...i->...", au, du)
            for s in range(op.dim):
                div = div + op.dflux_dx(x, u, du, s)[..., s]
            return div
        provenance = "analytic"
    else:
        h_div = h_div_frac * widths

        def b_field(x):
            return _numeric_divergence(op, u_exact, du_exact,
                                       np.asarray(x, float), h_div)
        provenance = "numeric-divergence"

    ref = _numeric_divergence(op, u_exact, du_exact, probes,
                              h_div_frac * widths / 4.0)
    got = np.asarray(b_field(probes), float)
    bscale = max(1.0, float(np.abs(ref).max()))
    if np.abs(got - ref).max() / bscale > 1e-4:
        raise InconsistentExactData(
            "b disagrees with the finer-step numeric divergence")

    return ManufacturedCase(name=name, u_exact=u_exact, du_exact=du_exact,
                            b_field=b_field, provenance=provenance,
                            hessian_exact=hessian_exact)


# ---------------------------------------------------------------------------
# built-in cases (defined on the operator's box through affine rescaling)

def _scaled(box):
    lo = np.asarray(box.lo)
    w = np.asarray(box.widths, float)
    return lo, w


def builtin_case(name: str, op: OperatorSpec) -> ManufacturedCase:
    """Named exact solutions: 'quad1d', 'sine2d', 'bump2d'."""
    box = op.domain
    lo, w = _scaled(box)
    if name == "quad1d":
        if op.dim != 1:
            raise InconsistentExactData("quad1d needs a 1D operator")

        def u(x):
            s = (x[..., 0] - lo[0]) / w[0]
            return s * (1.0 - s)

        def du(x):
            s = (x[..., 0] - lo[0]) / w[0]
            return ((1.0 - 2.0 * s) / w[0])[..., None]

        def hess(x):
            shape = np.shape(x)[:-1]
            return np.full(shape + (1, 1), -2.0 / w[0] ** 2)

    elif name in ("sine2d", "bump2d"):
        if op.dim != 2:
            raise InconsistentExactData(f"{name} needs a 2D operator")
        if name == "sine2d":
            def u(x):
                s = (x - lo) / w
                return np.sin(math.pi * s[..., 0]) * np.sin(math.pi * s[..., 1])

            def du(x):
                s = (x - lo) / w
                sx, sy = s[..., 0], s[..., 1]
                return np.stack(
                    [math.pi / w[0] * np.cos(math.pi * sx) * np.sin(math.pi * sy),
                     math.pi / w[1] * np.sin(math.pi * sx) * np.cos(math.pi * sy)],
                    axis=-1)

            def hess(x):
                s = (x - lo) / w
                sx, sy = s[..., 0], s[..., 1]
                pxx = -(math.pi / w[0]) ** 2 * np.sin(math.pi * sx) * np.sin(math.pi * sy)
                pyy = -(math.pi / w[1]) ** 2 * np.sin(math.pi * sx) * np.sin(math.pi * sy)
                pxy = (math.pi ** 2 / (w[0] * w[1])
                       * np.cos(math.pi * sx) * np.cos(math.pi * sy))
                H = np.empty(sx.shape + (2, 2))
                H[..., 0, 0] = pxx
                H[..., 1, 1] = pyy
                H[..., 0, 1] = H[..., 1, 0] = pxy
                return H
        else:
            def u(x):
                s = (x - lo) / w
                sx, sy = s[..., 0], s[..., 1]
                return sx * (1 - sx) * sy * (1 - sy)

            def du(x):
                s = (x - lo) / w
                sx, sy = s[..., 0], s[..., 1]
                return np.stack(
                    [(1 - 2 * sx) * sy * (1 - sy) / w[0],
                     sx * (1 - sx) * (1 - 2 * sy) / w[1]], axis=-1)

            def hess(x):
                s = (x - lo) / w
                sx, sy = s[..., 0], s[..., 1]
                H = np.empty(sx.shape + (2, 2))
                H[..., 0, 0] = -2.0 * sy * (1 - sy) / w[0] ** 2
                H[..., 1, 1] = -2.0 * sx * (1 - sx) / w[1] ** 2
                H[..., 0, 1] = H[..., 1, 0] = ((1 - 2 * sx) * (1 - 2 * sy)
                                               / (w[0] * w[1]))
                return H
    else:
        raise InconsistentExactData(f"unknown manufactured case {name!r}")

    return make_manufactured(op, u, du, hessian_exact=hess, name=name)


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
    superconvergence artifacts)."""
    coords = mesh.nodes[mesh.elements]          # (E, nv, dim)
    uh_vert = U.values[mesh.elements]           # (E, nv)
    grad = np.einsum("evd,ev->ed", mesh.grads, uh_vert)

    if mesh.dim == 1:
        a = coords[:, 0, 0]
        b = coords[:, 1, 0]
        mid = 0.5 * (a + b)
        subs = [(a, mid), (mid, b)]
        l2 = np.zeros(mesh.n_elements)
        w12g = np.zeros(mesh.n_elements)
        for lo_, hi_ in subs:
            half = hi_ - lo_
            for frac, wq in ((0.5 - 0.5 / np.sqrt(3), 0.5),
                             (0.5 + 0.5 / np.sqrt(3), 0.5)):
                xq = (lo_ + frac * half)[:, None]
                uh = uh_vert[:, 0] + grad[:, 0] * (xq[:, 0] - coords[:, 0, 0])
                du_err = grad - np.asarray(case.du_exact(xq), float)
                l2 += wq * half * (uh - case.u_exact(xq)) ** 2
                w12g += wq * half * np.sum(du_err ** 2, axis=-1)
    else:
        A, B, C = coords[:, 0], coords[:, 1], coords[:, 2]
        mAB, mBC, mCA = 0.5 * (A + B), 0.5 * (B + C), 0.5 * (C + A)
        children = [(A, mAB, mCA), (mAB, B, mBC), (mCA, mBC, C),
                    (mAB, mBC, mCA)]
        bary = np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]])
        l2 = np.zeros(mesh.n_elements)
        w12g = np.zeros(mesh.n_elements)
        child_area = mesh.areas / 4.0
        for (P, Q, R_) in children:
            for q in range(3):
                xq = bary[q, 0] * P + bary[q, 1] * Q + bary[q, 2] * R_
                uh = uh_vert[:, 0] + np.einsum("ed,ed->e", grad, xq - A)
                du_err = grad - np.asarray(case.du_exact(xq), float)
                l2 += child_area / 3.0 * (uh - case.u_exact(xq)) ** 2
                w12g += child_area / 3.0 * np.sum(du_err ** 2, axis=-1)

    l2_err = float(np.sqrt(l2.sum()))
    w12_err = float(np.sqrt(l2.sum() + w12g.sum()))
    return l2_err, w12_err


def convergence_study(op: OperatorSpec, case, grid_sizes,
                      cfg: NewtonConfig | None = None,
                      start: str = "presolve") -> StudyResult:
    """Solve on a refining family of grids and report errors and orders.

    ``case`` is a ManufacturedCase or a built-in case name.  Observed order
    is log2 of successive error ratios (grids are expected to halve h).
    """
    sizes = [int(v) for v in grid_sizes]
    if len(sizes) < 3 or any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise ValueError("need at least 3 strictly refining grid sizes")
    if isinstance(case, str):
        case = builtin_case(case, op)
    cfg = cfg or NewtonConfig()

    rows = []
    for nside in sizes:
        mesh = build_mesh(op.dim, op.domain, nside)
        if start == "zero":
            U0 = zero_field(mesh)
        else:
            U0 = p2_presolve(mesh, case.b_field)
        U, _ = newton_solve(mesh, op, case.b_field, U0, cfg)
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
