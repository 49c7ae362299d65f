"""Vector fields a(x, u, xi) for divergence-form elliptic operators.

An :class:`OperatorSpec` bundles the flux ``a(x, u, xi)``, its three
analytic derivatives and the declared structural constants (ellipticity
exponent ``p``, growth exponent ``q``, ellipticity constant ``m``, growth
constant ``M``, and the lower-order exponents ``growth_alpha`` and
``beta``).  All evaluation callables broadcast over leading axes:
``x`` has shape ``(..., dim)``, ``u`` shape ``(...,)``, ``xi`` shape
``(..., dim)``.

An operator's dimension is that of its domain box, ``op.dim``.  The
isotropic families, a = w(x, u, |xi|^2) xi with ``dflux_du = 0``, are built
by one constructor from their radial pair ``(w, wt)`` (wt = dw/dt), which
they declare on ``radial``: the eps-regularization adds its term to the
pair, and the assembly skips the zero ``dflux_du`` and treats their
Jacobians as symmetric.  ``anisotropic`` and custom operators leave it
``None``.  :func:`regularize` returns an :class:`OperatorSpec` too.

Built-in families default to nondegenerate weights ``(1 + |xi|^2)^(s/2)``;
the degenerate variants (weight ``|xi|^s``) are kept so the verifier can
demonstrably flag them at ``xi = 0``.  Declared constants are derived
analytically per family (see each constructor) so that the sampled
inequality checks hold with nonnegative margins wherever the family
satisfies the corresponding hypothesis.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, Optional

import numpy as np

from .errors import ConfigError, InvalidExponents, NonnegativityViolation
from .report import AssumptionReport, nonstrict_entry, strict_entry

#: Relative step for the centered finite-difference fallback.
FD_SCALE = 1e-5

#: Lattice resolution (per axis) used to probe user-supplied coefficients.
PROBE_PER_AXIS = 32


# ---------------------------------------------------------------------------
# domain box

@dataclass(frozen=True)
class Box:
    """Axis-aligned box, the fixed computational domain of an operator."""

    lo: tuple
    hi: tuple

    def __post_init__(self):
        lo = tuple(float(v) for v in self.lo)
        hi = tuple(float(v) for v in self.hi)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        if len(lo) != len(hi) or len(lo) == 0:
            raise ConfigError("box corners must have equal positive length")
        if not all(-math.inf < l < h and h - l < math.inf
                   for l, h in zip(lo, hi)):
            raise ConfigError("box must have finite corners and positive, "
                              "finite widths")

    @property
    def dim(self) -> int:
        return len(self.lo)

    @property
    def widths(self) -> np.ndarray:
        return np.asarray(self.hi) - np.asarray(self.lo)

    @property
    def center(self) -> np.ndarray:
        return 0.5 * (np.asarray(self.hi) + np.asarray(self.lo))

    @property
    def measure(self) -> float:
        return float(np.prod(self.widths))

    def lattice(self, per_axis=PROBE_PER_AXIS) -> np.ndarray:
        """Closed tensor lattice, shape (prod(counts), dim), in C order of
        its axes; ``per_axis`` is one count for every axis or one per axis."""
        counts = np.broadcast_to(per_axis, (self.dim,))
        axes = [np.linspace(l, h, n)
                for l, h, n in zip(self.lo, self.hi, counts)]
        grids = np.meshgrid(*axes, indexing="ij")
        return np.stack([g.ravel() for g in grids], axis=-1)

    def shrink(self, fraction: float) -> "Box":
        w = self.widths
        lo = np.asarray(self.lo) + fraction * w
        hi = np.asarray(self.hi) - fraction * w
        return Box(tuple(lo), tuple(hi))

    def to_dict(self) -> dict:
        return {"min": list(self.lo), "max": list(self.hi)}

    @classmethod
    def from_dict(cls, d: dict) -> "Box":
        if not isinstance(d, dict) or set(d) != {"min", "max"}:
            raise ConfigError(f"domain must be {{'min': [..], 'max': [..]}}, "
                              f"got {d!r}")
        try:
            return cls(tuple(d["min"]), tuple(d["max"]))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad domain corners: {exc}") from exc


def unit_box(dim: int) -> Box:
    return Box((0.0,) * dim, (1.0,) * dim)


# ---------------------------------------------------------------------------
# operator spec

@dataclass(frozen=True)
class OperatorSpec:
    """A vector field a(x, u, xi) with derivatives and declared constants."""

    p: float
    q: float
    m: float
    M: float
    growth_alpha: float
    beta: float
    flux: Callable
    dflux_dxi: Callable
    dflux_du: Callable
    dflux_dx: Callable
    family_tag: str
    domain: Box
    descriptor: Optional[dict] = None
    # (w, wt) of an isotropic operator a = w(x, u, |xi|^2) xi with
    # dflux_du = 0, from which _radial_flux built flux and dflux_dxi; None
    # for any other operator
    radial: Optional[tuple] = None

    @property
    def dim(self) -> int:
        return self.domain.dim


# Reductions over the short trailing axis, one column at a time: the same
# bits as numpy's reductions (a sum starts from +0.0), without their
# per-call overhead on (N, 2) chunks.

def _dot(a, b):
    """np.sum(a * b, axis=-1)."""
    s = 0.0 + a[..., 0] * b[..., 0]
    for k in range(1, a.shape[-1]):
        s += a[..., k] * b[..., k]
    return s


def _sq(xi):
    return _dot(xi, xi)


def _scaled(w, xi):
    """w[..., None] * xi, one column at a time."""
    out = np.empty(np.broadcast_shapes(np.shape(w), xi.shape[:-1])
                   + xi.shape[-1:])
    for i in range(xi.shape[-1]):
        out[..., i] = w * xi[..., i]
    return out


def _radial_matrix(w, c, xi):
    """w[..., None, None] * I + c[..., None, None] * (xi xi^T), one entry at
    a time; w * 0.0 off the diagonal keeps the bits of the broadcast
    product."""
    d = xi.shape[-1]
    shape = np.broadcast_shapes(np.shape(w), np.shape(c), xi.shape[:-1])
    out = np.empty(shape + (d, d))
    for i in range(d):
        for j in range(i, d):  # the term is symmetric: one product per pair
            entry = (w if i == j else w * 0.0) + c * (xi[..., i] * xi[..., j])
            out[..., i, j] = out[..., j, i] = entry
    return out


def _max_abs(a, axes=1):
    """np.max(np.abs(a), axis=...) over the last ``axes`` axes."""
    a = np.abs(a)
    cols = a.reshape(a.shape[:-axes] + (math.prod(a.shape[-axes:]),))
    m = cols[..., 0]
    for k in range(1, cols.shape[-1]):
        m = np.maximum(m, cols[..., k])
    return m


# ---------------------------------------------------------------------------
# finite-difference fallbacks

def _quotients(diff, h2, out=None):
    """diff / h2[..., None], one column at a time."""
    if out is None:
        out = np.empty(np.broadcast_shapes(diff.shape, np.shape(h2) + (1,)))
    for i in range(diff.shape[-1]):
        np.divide(diff[..., i], h2, out=out[..., i])
    return out


def _steps(a, j, h):
    """(a + h e_j, a - h e_j); a + 0.0 turns -0.0 to +0.0 as a 0 step did."""
    plus, minus = a + 0.0, a.copy()
    plus[..., j] += h
    minus[..., j] -= h
    return plus, minus


def fd_dflux_dxi(flux, x, u, xi):
    """Centered difference of flux in xi; step FD_SCALE*max(1, |xi|) per
    sample."""
    x = np.asarray(x, float)
    u = np.asarray(u, float)
    xi = np.asarray(xi, float)
    h = FD_SCALE * np.maximum(1.0, np.sqrt(_sq(xi)))
    out = None
    for j in range(xi.shape[-1]):
        plus, minus = _steps(xi, j, h)
        diff = flux(x, u, plus) - flux(x, u, minus)
        if out is None:  # [..., i, j] = d a^i / d xi_j
            out = np.empty(np.broadcast_shapes(diff.shape[:-1], h.shape)
                           + diff.shape[-1:] + xi.shape[-1:])
        _quotients(diff, 2.0 * h, out[..., j])
    return out


def fd_dflux_du(flux, x, u, xi):
    u = np.asarray(u, float)
    h = FD_SCALE * np.maximum(1.0, np.abs(u))
    return _quotients(flux(x, u + h, xi) - flux(x, u - h, xi), 2.0 * h)


def fd_dflux_dx(flux, x, u, xi, s: int):
    x = np.asarray(x, float)
    h = FD_SCALE * np.maximum(1.0, np.abs(x[..., s]))
    plus, minus = _steps(x, s, h)
    return _quotients(flux(plus, u, xi) - flux(minus, u, xi), 2.0 * h)


# ---------------------------------------------------------------------------
# isotropic scalar-weight machinery: a(x,u,xi) = w(x,u,|xi|^2) xi

def _radial_flux(w, wt):
    """(flux, dflux_dxi) of a = w(x, u, |xi|^2) xi.

    ``wt`` must already be guarded at t == 0 (it multiplies xi xi^T, so the
    guarded value only has to be finite, not the analytic limit).
    """
    def flux(x, u, xi):
        return _scaled(w(x, u, _sq(xi)), xi)

    def dflux_dxi(x, u, xi):
        t = _sq(xi)
        return _radial_matrix(w(x, u, t), 2.0 * wt(x, u, t), xi)

    return flux, dflux_dxi


def _zero_dflux_du(x, u, xi):
    shape = np.broadcast_shapes(np.shape(u), np.shape(xi)[:-1])
    return np.zeros(shape + np.shape(xi)[-1:])


def _isotropic(p, q, m, M, tag, domain, w, wt, wx=None):
    """The operator a = w(x, u, |xi|^2) xi of a radial pair (w, wt) whose w
    does not depend on u.  Without ``wx`` (dw/dx_s), dflux_dx is a finite
    difference of the flux."""
    flux, dflux_dxi = _radial_flux(w, wt)
    if wx is not None:
        def dflux_dx(x, u, xi, s):
            return wx(x, u, _sq(xi), s)[..., None] * xi
    else:
        dflux_dx = partial(fd_dflux_dx, flux)

    return OperatorSpec(p, q, m, M, 0.0, 0.0, flux, dflux_dxi, _zero_dflux_du,
                        dflux_dx, tag, domain, radial=(w, wt))


def _validate_pq(p, q):
    if not (2.0 <= p <= q < p + 1.0):
        raise InvalidExponents(
            f"exponents must satisfy 2 <= p <= q < p+1, got p={p}, q={q}")


def _resolve_domain(params, default_dim=2):
    """The box of ``params``: its 'domain', else the unit box of its 'dim'
    (``default_dim`` when absent).  A 'dim' beside a domain must match it."""
    dim = params.get("dim", default_dim)
    if isinstance(dim, bool) or not isinstance(dim, numbers.Integral) \
            or dim < 1:
        raise ConfigError(
            f"params.dim must be a positive integer, got {dim!r}")
    dom = params.get("domain")
    if dom is None:
        box = unit_box(dim)
    else:
        box = dom if isinstance(dom, Box) else Box.from_dict(dom)
    if "dim" in params and box.dim != dim:
        raise ConfigError(f"params dim {dim!r} disagrees with the domain, "
                          f"which has dim {box.dim}")
    return box


def _probe(fun, domain, name):
    """``fun`` on the domain's probe lattice, which must be finite; an
    overflow there is refused, not warned about."""
    with np.errstate(all="ignore"):
        probe = np.asarray(fun(domain.lattice()), float)
    if not np.all(np.isfinite(probe)):
        raise ConfigError(f"{name} is not finite at a probe point")
    return probe


# ---------------------------------------------------------------------------
# family constructors

def _family_p_laplacian(params, degenerate):
    p = float(params["p"])
    _validate_pq(p, p)
    domain = _resolve_domain(params)
    e = (p - 2.0) / 2.0

    if degenerate:
        def w(x, u, t):
            return t ** e  # 0**0 == 1 covers p == 2

        def wt(x, u, t):
            if e == 0.0:
                return np.zeros(np.shape(t))
            ts = np.where(t > 0.0, t, 1.0)
            return np.where(t > 0.0, e * ts ** (e - 1.0), 0.0)
    else:
        def w(x, u, t):
            return (1.0 + t) ** e

        def wt(x, u, t):
            return e * (1.0 + t) ** (e - 1.0)

    m = float(params.get("m", 1.0))
    M = float(params.get("M", max(p - 1.0, 1.0)))
    tag = "p-laplacian-degenerate" if degenerate else "p-laplacian"
    return _isotropic(p, p, m, M, tag, domain, w, wt)


def _family_log(params, degenerate):
    p = float(params["p"])
    q = float(params["q"])
    _validate_pq(p, q)
    if q <= p:
        raise InvalidExponents("log family needs q > p (growth carries a log factor)")
    domain = _resolve_domain(params)
    e = (p - 2.0) / 2.0

    if degenerate:
        # a = log(1+|xi|^2) |xi|^(p-2) xi; flags itself at xi = 0.
        def w(x, u, t):
            return np.log1p(t) * t ** e

        def wt(x, u, t):
            ts = np.where(t > 0.0, t, 1.0)
            val = ts ** e / (1.0 + ts) + np.log1p(ts) * e * ts ** (e - 1.0)
            return np.where(t > 0.0, val, 0.0)
    else:
        # nondegenerate analogue: |xi| -> (1+|xi|^2)^(1/2) in both factors
        def w(x, u, t):
            return np.log(2.0 + t) * (1.0 + t) ** e

        def wt(x, u, t):
            return ((1.0 + t) ** e / (2.0 + t)
                    + np.log(2.0 + t) * e * (1.0 + t) ** (e - 1.0))

    # m = log 2: at xi=0 the nondegenerate Jacobian is exactly log(2) I, and
    # both radial/tangential eigenvalues dominate log(2) (1+t)^((p-2)/2).
    m = float(params.get("m", math.log(2.0)))
    # log(2+t) <= log 2 + (1+t)^s/(e*s) with s=(q-p)/2 gives the bound below.
    M_default = (p - 1.0) * (math.log(2.0) + 2.0 / (math.e * (q - p))) + 2.0
    M = float(params.get("M", M_default))
    tag = "log-degenerate" if degenerate else "log"
    return _isotropic(p, q, m, M, tag, domain, w, wt)


def _family_variable_exponent(params, degenerate):
    pfun = params["pfun"]
    pmin = float(params["pmin"])
    pmax = float(params["pmax"])
    dpfun = params.get("dpfun")
    _validate_pq(pmin, pmax)
    domain = _resolve_domain(params)

    probe = _probe(pfun, domain, "p(x)")
    if probe.min() < pmin - 1e-12 or probe.max() > pmax + 1e-12:
        raise InvalidExponents(
            f"p(x) probe range [{probe.min():.6g}, {probe.max():.6g}] leaves "
            f"declared [{pmin}, {pmax}]")

    if degenerate:
        def w(x, u, t):
            e = (np.asarray(pfun(x), float) - 2.0) / 2.0
            ts = np.where(t > 0.0, t, 1.0)
            at0 = np.where(e == 0.0, 1.0, 0.0)
            return np.where(t > 0.0, ts ** e, at0)

        def wt(x, u, t):
            e = (np.asarray(pfun(x), float) - 2.0) / 2.0
            ts = np.where(t > 0.0, t, 1.0)
            return np.where(t > 0.0, e * ts ** (e - 1.0), 0.0)

        def wx(x, u, t, s):
            e = (np.asarray(pfun(x), float) - 2.0) / 2.0
            dp = np.asarray(dpfun(x), float)[..., s]
            ts = np.where(t > 0.0, t, 1.0)
            return np.where(t > 0.0, ts ** e * 0.5 * dp * np.log(ts), 0.0)
    else:
        def w(x, u, t):
            e = (np.asarray(pfun(x), float) - 2.0) / 2.0
            return (1.0 + t) ** e

        def wt(x, u, t):
            e = (np.asarray(pfun(x), float) - 2.0) / 2.0
            return e * (1.0 + t) ** (e - 1.0)

        def wx(x, u, t, s):
            e = (np.asarray(pfun(x), float) - 2.0) / 2.0
            dp = np.asarray(dpfun(x), float)[..., s]
            return (1.0 + t) ** e * 0.5 * dp * np.log1p(t)

    m = float(params.get("m", 1.0))
    M = float(params.get("M", max(pmax - 1.0, 1.0)))
    tag = ("variable-exponent-degenerate" if degenerate
           else "variable-exponent")
    return _isotropic(pmin, pmax, m, M, tag, domain, w, wt,
                      wx if dpfun is not None else None)


def _family_anisotropic(params):
    exps = np.asarray(params["exponents"], float)
    p = float(exps.min())
    q = float(exps.max())
    _validate_pq(p, q)
    domain = _resolve_domain(params, default_dim=len(exps))
    dim = domain.dim
    if len(exps) != dim:
        raise ConfigError(f"anisotropic needs {dim} exponents, got {len(exps)}")

    e = (exps - 2.0) / 2.0  # per-component

    def flux(x, u, xi):
        return (1.0 + xi * xi) ** e * xi

    def dflux_dxi(x, u, xi):
        diag = (1.0 + xi * xi) ** (e - 1.0) * (1.0 + (exps - 1.0) * xi * xi)
        out = np.zeros(xi.shape + (dim,))
        idx = np.arange(dim)
        out[..., idx, idx] = diag
        return out

    def dflux_dx(x, u, xi, s):
        shape = np.broadcast_shapes(np.shape(x)[:-1], np.shape(xi)[:-1])
        return np.zeros(shape + (dim,))

    m = float(params.get("m", 1.0))
    M = float(params.get("M", max(q - 1.0, 1.0)))
    return OperatorSpec(p, q, m, M, 0.0, 0.0, flux, dflux_dxi, _zero_dflux_du,
                        dflux_dx, "anisotropic", domain)


def _family_double_phase(params):
    p = float(params["p"])
    q = float(params["q"])
    _validate_pq(p, q)
    weight = params["weight"]
    grad_weight = params.get("grad_weight")
    domain = _resolve_domain(params)

    probe = _probe(weight, domain, "double-phase weight")
    if probe.min() < -1e-12:
        raise NonnegativityViolation(
            f"double-phase weight is negative ({probe.min():.6g}) at a probe point")
    wmax = float(params.get("weight_max", probe.max()))

    ep = (p - 2.0) / 2.0
    eq = (q - 2.0) / 2.0

    def w(x, u, t):
        a = np.asarray(weight(x), float)
        return (1.0 + t) ** ep + a * (1.0 + t) ** eq

    def wt(x, u, t):
        a = np.asarray(weight(x), float)
        return ep * (1.0 + t) ** (ep - 1.0) + a * eq * (1.0 + t) ** (eq - 1.0)

    wx = None
    if grad_weight is not None:
        def wx(x, u, t, s):
            da = np.asarray(grad_weight(x), float)[..., s]
            return da * (1.0 + t) ** eq

    m = float(params.get("m", 1.0))
    M = float(params.get("M", (p - 1.0) + wmax * (q - 1.0)))
    return _isotropic(p, q, m, M, "double-phase", domain, w, wt, wx)


_FAMILY_BUILDERS = {
    "p-laplacian": lambda pr: _family_p_laplacian(pr, degenerate=False),
    "p-laplacian-degenerate": lambda pr: _family_p_laplacian(pr, degenerate=True),
    "log": lambda pr: _family_log(pr, degenerate=False),
    "log-degenerate": lambda pr: _family_log(pr, degenerate=True),
    "variable-exponent": lambda pr: _family_variable_exponent(pr, degenerate=False),
    "variable-exponent-degenerate":
        lambda pr: _family_variable_exponent(pr, degenerate=True),
    "anisotropic": _family_anisotropic,
    "double-phase": _family_double_phase,
}


def make_family(tag: str, params: dict | None = None, **kw) -> OperatorSpec:
    """Construct a built-in operator family.

    ``params`` (merged with keyword arguments) supplies the exponents and
    coefficient functions of the family; see the per-family builders for
    the accepted keys.  Declared (p, q) must satisfy 2 <= p <= q < p+1.
    """
    if tag not in _FAMILY_BUILDERS:
        raise ConfigError(f"unknown family {tag!r}; known: {sorted(_FAMILY_BUILDERS)}")
    merged = dict(params or {})
    merged.update(kw)
    return _FAMILY_BUILDERS[tag](merged)


def make_custom(flux, *, dim, p, q, m, M, growth_alpha=0.0, beta=0.0,
                domain: Box | None = None, dflux_dxi=None, dflux_du=None,
                dflux_dx=None, family_tag="custom") -> OperatorSpec:
    """Wrap user code, callables that broadcast over leading axes, in an
    OperatorSpec.

    Missing derivatives fall back to centered finite differences.  ``dim``
    must be the dimension of ``domain``, which defaults to the unit box of
    ``dim``.
    """
    _validate_pq(p, q)
    domain = domain or unit_box(dim)
    if domain.dim != dim:
        raise ConfigError(f"dim {dim!r} disagrees with the domain, which has "
                          f"dim {domain.dim}")
    return OperatorSpec(float(p), float(q), float(m), float(M),
                        float(growth_alpha), float(beta), flux,
                        dflux_dxi or partial(fd_dflux_dxi, flux),
                        dflux_du or partial(fd_dflux_du, flux),
                        dflux_dx or partial(fd_dflux_dx, flux), family_tag,
                        domain)


# ---------------------------------------------------------------------------
# epsilon regularization

def check_regularization_exponents(p, q, dim, eps0) -> None:
    if not eps0 > 0.0:
        raise InvalidExponents(f"eps0 must be positive, got {eps0}")
    if not (q + eps0) / p < 1.0 + 1.0 / dim:
        raise InvalidExponents(
            f"(q+eps0)/p = {(q + eps0) / p:.6g} must stay below "
            f"1+1/n = {1.0 + 1.0 / dim:.6g}")


def regularize(op: OperatorSpec, eps: float, eps0: float | None = None
               ) -> OperatorSpec:
    """Add the eps-term eps (1+|xi|^2)^((q+eps-2)/2) xi to the flux.

    The returned operator declares growth exponent q+eps; ellipticity
    constants (p, m) are inherited since the added term is monotone, and so
    are dflux_du and dflux_dx, on which the term has no effect.  For an
    operator that declares its radial pair the eps-term is added to the
    pair, so flux and dflux_dxi build one weight and one matrix per call,
    and the result declares the sum; otherwise the term's flux and
    dflux_dxi are added to the base's.
    """
    eps = float(eps)
    eps0 = float(eps if eps0 is None else eps0)
    if not 0.0 < eps <= eps0:
        raise InvalidExponents(f"need 0 < eps <= eps0, got eps={eps}, eps0={eps0}")
    check_regularization_exponents(op.p, op.q, op.dim, eps0)

    qe = op.q + eps
    se = (qe - 2.0) / 2.0

    def w_eps(x, u, t):
        return eps * (1.0 + t) ** se

    def wt_eps(x, u, t):
        return 0.5 * eps * (qe - 2.0) * (1.0 + t) ** (se - 1.0)

    if op.radial is not None:
        base_w, base_wt = op.radial
        radial = (lambda x, u, t: base_w(x, u, t) + w_eps(x, u, t),
                  lambda x, u, t: base_wt(x, u, t) + wt_eps(x, u, t))
        flux, dflux_dxi = _radial_flux(*radial)
    else:
        radial = None
        base_flux, base_dxi = op.flux, op.dflux_dxi
        flux_eps, dxi_eps = _radial_flux(w_eps, wt_eps)

        def flux(x, u, xi):
            return base_flux(x, u, xi) + flux_eps(x, u, xi)

        def dflux_dxi(x, u, xi):
            return base_dxi(x, u, xi) + dxi_eps(x, u, xi)

    return replace(op, q=qe, M=op.M + eps * (qe - 1.0), flux=flux,
                   dflux_dxi=dflux_dxi, family_tag=op.family_tag + "+eps",
                   descriptor=None, radial=radial)


# ---------------------------------------------------------------------------
# exponent-level assumption checks

def validate_assumptions(op: OperatorSpec, gamma: float | None = None,
                         s0: float | None = None) -> AssumptionReport:
    """Check the scalar exponent inequalities of the structural hypotheses
    in the operator's dimension n = op.dim.

    Strict inequalities are tested strictly (an exactly saturated bound
    fails); failures are report entries, never exceptions.  ``gamma`` and
    ``s0`` are the declared local summability exponents of |a(.,0,0)| and
    of the right-hand side; their entries appear only when supplied.
    """
    p, q, n = op.p, op.q, op.dim
    rep = AssumptionReport(meta={"family": op.family_tag, "n": n,
                                 "p": p, "q": q})
    rep.add(nonstrict_entry("p-lower", p - 2.0, 0.0,
                            notes="p >= 2"))
    rep.add(nonstrict_entry("p-le-q", q - p, 0.0, notes="p <= q"))
    rep.add(strict_entry("q-upper", (p + 1.0) - q, notes="q < p+1"))
    rep.add(strict_entry("qp-ratio", 1.0 + 1.0 / n - q / p,
                         notes="q/p < 1 + 1/n"))
    alpha_cap = 2.0 * (q - 2.0) / (q - p + 2.0)
    rep.add(nonstrict_entry(
        "alpha-range", min(op.growth_alpha, alpha_cap - op.growth_alpha), 0.0,
        fitted={"alpha_cap": alpha_cap},
        notes="0 <= alpha <= 2(q-2)/(q-p+2)"))
    rep.add(nonstrict_entry("beta-lower", op.beta, 0.0, notes="beta >= 0"))
    rep.add(strict_entry("beta-upper", (p - 1.0) - op.beta,
                         notes="beta < p-1"))
    if gamma is not None:
        rep.add(strict_entry("gamma-exponent", gamma - n / (p - 1.0),
                             notes="gamma > n/(p-1)"))
    if s0 is not None:
        rep.add(strict_entry("s0-exponent", s0 - n, notes="s0 > n"))
    return rep


# ---------------------------------------------------------------------------
# JSON descriptors

_AFFINE_KEYS = {"type", "offset", "coeffs", "value"}


def _function_from_descriptor(d: dict, dim: int):
    """Scalar coefficient function from a JSON-able descriptor.

    Supported: {"type": "constant", "value": v} and
    {"type": "affine", "offset": c0, "coeffs": [c1, ..., cn]}, with finite
    numbers.  Returns (callable, gradient callable or None).
    """
    if not isinstance(d, dict) or "type" not in d:
        raise ConfigError(f"bad function descriptor: {d!r}")
    extra = set(d) - _AFFINE_KEYS
    if extra:
        raise ConfigError(f"unknown function descriptor keys: {sorted(extra)}")
    kind = d["type"]
    if kind == "constant":
        v = float(d["value"])
        if not math.isfinite(v):
            raise ConfigError(f"constant value must be finite, got {v}")

        def fun(x):
            return np.full(np.shape(x)[:-1], v)

        def grad(x):
            return np.zeros(np.shape(x))

        return fun, grad
    if kind == "affine":
        c0 = float(d.get("offset", 0.0))
        coeffs = np.asarray(d.get("coeffs", [0.0] * dim), float)
        if coeffs.shape != (dim,):
            raise ConfigError(f"affine coeffs must have length {dim}")
        if not np.all(np.isfinite(np.append(coeffs, c0))):
            raise ConfigError("affine offset and coeffs must be finite")

        def fun(x):  # one 2-D product: a stacked x @ coeffs is slow
            x = np.asarray(x, float)
            return c0 + (x.reshape(-1, dim) @ coeffs).reshape(x.shape[:-1])

        def grad(x):
            return np.broadcast_to(coeffs, np.shape(x)).copy()

        return fun, grad
    raise ConfigError(f"unknown function type {kind!r}")


_DESCRIPTOR_KEYS = {"family", "p", "q", "m", "M", "params", "domain"}
# the params keys each family builder reads, less the gradients grad_weight
# and dpfun, which come from the weight and pfun descriptors; a degenerate
# variant reads the keys of its family
_PARAMS_KEYS = {
    "p-laplacian": {"p", "m", "M", "domain", "dim"},
    "log": {"p", "q", "m", "M", "domain", "dim"},
    "variable-exponent": {"pfun", "pmin", "pmax", "m", "M", "domain", "dim"},
    "anisotropic": {"exponents", "m", "M", "domain"},
    "double-phase": {"p", "q", "weight", "weight_max", "m", "M", "domain",
                     "dim"},
}


def operator_from_descriptor(desc: dict) -> OperatorSpec:
    """Build an operator from the JSON descriptor schema.

    Schema: {"family": ..., "p": ..., "q": ..., "m": ..., "M": ...,
    "params": {...}, "domain": {"min": [...], "max": [...]}}.  Unknown
    keys, at the top level and in params, are rejected.  Custom fluxes are
    code-level only.
    """
    if not isinstance(desc, dict):
        raise ConfigError("operator descriptor must be a JSON object")
    extra = set(desc) - _DESCRIPTOR_KEYS
    if extra:
        raise ConfigError(f"unknown operator descriptor keys: {sorted(extra)}")
    family = desc.get("family")
    if not isinstance(family, str) or family not in _FAMILY_BUILDERS:
        raise ConfigError(f"unknown or missing family {family!r}")

    if not isinstance(desc.get("params") or {}, dict):
        raise ConfigError("descriptor 'params' must be a JSON object")
    params = dict(desc.get("params") or {})
    extra = set(params) - _PARAMS_KEYS[family.removesuffix("-degenerate")]
    if extra:
        raise ConfigError(f"unknown {family} params keys: {sorted(extra)}")

    for key in ("p", "q", "m", "M", "weight_max"):
        if key in desc:
            params[key] = desc[key]
        v = params.get(key, 1.0)  # bool is an int; an int may overflow
        if isinstance(v, bool) or not isinstance(v, (int, float)) \
                or not abs(v) <= float(np.finfo(float).max) \
                or key in ("m", "M") and not v > 0:
            raise ConfigError(f"descriptor {key!r} must be a finite number"
                              + (" > 0" if key in ("m", "M") else ""))
    if "domain" in desc:
        params["domain"] = desc["domain"]

    try:
        # one box for the JSON functions and the family; anisotropic's
        # default dimension is its number of exponents
        params["domain"] = _resolve_domain(params, default_dim=(
            len(params["exponents"]) if family == "anisotropic" else 2))
        dim = params["domain"].dim
        # translate function-valued params from their JSON descriptors
        if family == "double-phase" and "weight" in params:
            params["weight"], params["grad_weight"] = (
                _function_from_descriptor(params["weight"], dim))
        if family.startswith("variable-exponent") and "pfun" in params:
            params["pfun"], params["dpfun"] = _function_from_descriptor(
                params["pfun"], dim)
        op = make_family(family, params)
    except KeyError as exc:  # a required parameter, e.g. double-phase weight
        raise ConfigError(f"{family} descriptor lacks {exc}") from exc
    except (TypeError, ValueError) as exc:  # a parameter of the wrong type
        raise ConfigError(f"bad {family} descriptor: {exc}") from exc

    def jsonable(v):
        return v if not isinstance(v, dict) else dict(v)

    clean = {k: jsonable(v) for k, v in desc.items()}
    return replace(op, descriptor=clean)
