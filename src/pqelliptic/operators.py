"""Vector fields a(x, u, xi) for divergence-form elliptic operators.

An :class:`OperatorSpec` bundles the flux ``a(x, u, xi)``, its three
analytic derivatives and the declared structural constants (ellipticity
exponent ``p``, growth exponent ``q``, ellipticity constant ``m``, growth
constant ``M``, and the lower-order exponents ``growth_alpha`` and
``beta``).  All evaluation callables broadcast over leading axes:
``x`` has shape ``(..., dim)``, ``u`` shape ``(...,)``, ``xi`` shape
``(..., dim)``.

Built-in families default to nondegenerate weights ``(1 + |xi|^2)^(s/2)``;
the degenerate variants (weight ``|xi|^s``) are kept so the verifier can
demonstrably flag them at ``xi = 0``.  Declared constants are derived
analytically per family (see each constructor) so that the sampled
inequality checks hold with nonnegative margins wherever the family
satisfies the corresponding hypothesis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .errors import (ConfigError, DerivativeUnavailable, DimensionMismatch,
                     InvalidExponents, NonnegativityViolation)
from .report import AssumptionReport, nonstrict_entry, strict_entry

#: Relative step for the centered finite-difference fallback.
FD_SCALE = 1e-5

#: Lattice resolution (per axis) used to probe user-supplied coefficients.
PROBE_PER_AXIS = 32

FAMILIES = (
    "p-laplacian",
    "p-laplacian-degenerate",
    "log",
    "log-degenerate",
    "variable-exponent",
    "variable-exponent-degenerate",
    "anisotropic",
    "double-phase",
)


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
        if not all(-math.inf < l < h < math.inf for l, h in zip(lo, hi)):
            raise ConfigError("box must have finite corners and positive widths")

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

    def contains(self, x, pad: float = 0.0) -> np.ndarray:
        x = np.asarray(x, float)
        lo = np.asarray(self.lo) - pad
        hi = np.asarray(self.hi) + pad
        return np.all((x >= lo) & (x <= hi), axis=-1)

    def lattice(self, per_axis: int = PROBE_PER_AXIS) -> np.ndarray:
        """Closed tensor lattice of probe points, shape (per_axis**dim, dim)."""
        axes = [np.linspace(l, h, per_axis) for l, h in zip(self.lo, self.hi)]
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

    dim: int
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
    scalar_weight: Optional[Callable] = None
    descriptor: Optional[dict] = None


@dataclass(frozen=True)
class RegularizedOperator(OperatorSpec):
    """a_eps = a + eps (1+|xi|^2)^((q+eps-2)/2) xi, with q+eps declared growth."""

    base: OperatorSpec = None
    eps: float = 0.0
    eps0: float = 0.0


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


def _max_abs(a, axes=1):
    """np.max(np.abs(a), axis=...) over the last ``axes`` axes."""
    a = np.abs(a)
    cols = a.reshape(a.shape[:-axes] + (math.prod(a.shape[-axes:]),))
    m = cols[..., 0]
    for k in range(1, cols.shape[-1]):
        m = np.maximum(m, cols[..., k])
    return m


def _check_point(op, xi):
    xi = np.asarray(xi, float)
    if xi.shape[-1:] != (op.dim,):
        raise DimensionMismatch(
            f"xi has trailing dimension {xi.shape[-1:]}, expected ({op.dim},)")
    return xi


def eval_flux(op: OperatorSpec, x, u, xi):
    """Evaluate a(x, u, xi); pure, broadcasts over leading axes."""
    xi = _check_point(op, xi)
    return op.flux(np.asarray(x, float), np.asarray(u, float), xi)


def eval_dflux_dxi(op: OperatorSpec, x, u, xi):
    """Matrix of partials d a^i / d xi_j, shape (..., dim, dim)."""
    xi = _check_point(op, xi)
    return op.dflux_dxi(np.asarray(x, float), np.asarray(u, float), xi)


def eval_dflux_du(op: OperatorSpec, x, u, xi):
    xi = _check_point(op, xi)
    return op.dflux_du(np.asarray(x, float), np.asarray(u, float), xi)


def eval_dflux_dx(op: OperatorSpec, x, u, xi, s: int):
    xi = _check_point(op, xi)
    if not 0 <= s < op.dim:
        raise DimensionMismatch(f"axis index {s} out of range for dim {op.dim}")
    return op.dflux_dx(np.asarray(x, float), np.asarray(u, float), xi, s)


# ---------------------------------------------------------------------------
# finite-difference fallbacks

def fd_dflux_dxi(flux, x, u, xi, scale: float = FD_SCALE):
    """Centered difference of flux in xi; step scale*max(1, |xi|) per sample."""
    x = np.asarray(x, float)
    u = np.asarray(u, float)
    xi = np.asarray(xi, float)
    dim = xi.shape[-1]
    h = scale * np.maximum(1.0, np.sqrt(_sq(xi)))
    cols = []
    for j in range(dim):
        e = np.zeros(dim)
        e[j] = 1.0
        step = h[..., None] * e
        cols.append((flux(x, u, xi + step) - flux(x, u, xi - step))
                    / (2.0 * h[..., None]))
    return np.stack(cols, axis=-1)  # [..., i, j] = d a^i / d xi_j


def fd_dflux_du(flux, x, u, xi, scale: float = FD_SCALE):
    u = np.asarray(u, float)
    h = scale * np.maximum(1.0, np.abs(u))
    return (flux(x, u + h, xi) - flux(x, u - h, xi)) / (2.0 * h[..., None])


def fd_dflux_dx(flux, x, u, xi, s: int, scale: float = FD_SCALE):
    x = np.asarray(x, float)
    dim = x.shape[-1]
    e = np.zeros(dim)
    e[s] = 1.0
    h = scale * np.maximum(1.0, np.abs(x[..., s]))
    step = h[..., None] * e
    return (flux(x + step, u, xi) - flux(x - step, u, xi)) / (2.0 * h[..., None])


def _fd_closures(flux):
    def dxi(x, u, xi):
        return fd_dflux_dxi(flux, x, u, xi)

    def du(x, u, xi):
        return fd_dflux_du(flux, x, u, xi)

    def dx(x, u, xi, s):
        return fd_dflux_dx(flux, x, u, xi, s)

    return dxi, du, dx


def _unavailable(name):
    def raiser(*args, **kwargs):
        raise DerivativeUnavailable(
            f"no analytic {name} and finite-difference fallback is disabled")
    return raiser


# ---------------------------------------------------------------------------
# isotropic scalar-weight machinery: a(x,u,xi) = w(x,u,|xi|^2) xi

def _isotropic_callables(dim, w, wt, wu=None, wx=None, flux_for_fd=None):
    """Build (flux, dflux_dxi, dflux_du, dflux_dx) from the radial weight.

    ``wt`` must already be guarded at t == 0 (it multiplies xi xi^T, so the
    guarded value only has to be finite, not the analytic limit).
    """
    eye = np.eye(dim)

    def flux(x, u, xi):
        t = _sq(xi)
        return w(x, u, t)[..., None] * xi

    def dflux_dxi(x, u, xi):
        t = _sq(xi)
        ww = w(x, u, t)
        cc = wt(x, u, t)
        outer = xi[..., :, None] * xi[..., None, :]
        ww, cc = np.broadcast_arrays(ww, cc)
        return ww[..., None, None] * eye + 2.0 * cc[..., None, None] * outer

    if wu is None:
        def dflux_du(x, u, xi):
            shape = np.broadcast_shapes(np.shape(u), np.shape(xi)[:-1])
            return np.zeros(shape + (dim,))
    else:
        def dflux_du(x, u, xi):
            t = _sq(xi)
            return wu(x, u, t)[..., None] * xi

    if wx is not None:
        def dflux_dx(x, u, xi, s):
            t = _sq(xi)
            return wx(x, u, t, s)[..., None] * xi
    else:
        base = flux_for_fd if flux_for_fd is not None else flux

        def dflux_dx(x, u, xi, s):
            return fd_dflux_dx(base, x, u, xi, s)

    return flux, dflux_dxi, dflux_du, dflux_dx


def _validate_pq(p, q):
    if not (2.0 <= p <= q < p + 1.0):
        raise InvalidExponents(
            f"exponents must satisfy 2 <= p <= q < p+1, got p={p}, q={q}")


def _resolve_domain(params, default_dim=2):
    dom = params.get("domain")
    if dom is None:
        return unit_box(params.get("dim", default_dim))
    if isinstance(dom, Box):
        return dom
    return Box.from_dict(dom)


# ---------------------------------------------------------------------------
# family constructors

def _family_p_laplacian(params, degenerate):
    p = float(params["p"])
    _validate_pq(p, p)
    domain = _resolve_domain(params)
    dim = domain.dim
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

    flux, dxi, du, dx = _isotropic_callables(dim, w, wt)
    m = float(params.get("m", 1.0))
    M = float(params.get("M", max(p - 1.0, 1.0)))
    tag = "p-laplacian-degenerate" if degenerate else "p-laplacian"
    return OperatorSpec(dim, p, p, m, M, 0.0, 0.0, flux, dxi, du, dx,
                        tag, domain, scalar_weight=lambda x, u, t: w(x, u, t))


def _family_log(params, degenerate):
    p = float(params["p"])
    q = float(params["q"])
    _validate_pq(p, q)
    if q <= p:
        raise InvalidExponents("log family needs q > p (growth carries a log factor)")
    domain = _resolve_domain(params)
    dim = domain.dim
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

    flux, dxi, du, dx = _isotropic_callables(dim, w, wt)
    # m = log 2: at xi=0 the nondegenerate Jacobian is exactly log(2) I, and
    # both radial/tangential eigenvalues dominate log(2) (1+t)^((p-2)/2).
    m = float(params.get("m", math.log(2.0)))
    # log(2+t) <= log 2 + (1+t)^s/(e*s) with s=(q-p)/2 gives the bound below.
    M_default = (p - 1.0) * (math.log(2.0) + 2.0 / (math.e * (q - p))) + 2.0
    M = float(params.get("M", M_default))
    tag = "log-degenerate" if degenerate else "log"
    return OperatorSpec(dim, p, q, m, M, 0.0, 0.0, flux, dxi, du, dx,
                        tag, domain, scalar_weight=lambda x, u, t: w(x, u, t))


def _family_variable_exponent(params, degenerate):
    pfun = params["pfun"]
    pmin = float(params["pmin"])
    pmax = float(params["pmax"])
    dpfun = params.get("dpfun")
    _validate_pq(pmin, pmax)
    domain = _resolve_domain(params)
    dim = domain.dim

    probe = np.asarray(pfun(domain.lattice()), float)
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
            if dpfun is None:
                return None
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
            if dpfun is None:
                return None
            e = (np.asarray(pfun(x), float) - 2.0) / 2.0
            dp = np.asarray(dpfun(x), float)[..., s]
            return (1.0 + t) ** e * 0.5 * dp * np.log1p(t)

    wx_arg = wx if dpfun is not None else None
    flux, dxi, du, dx = _isotropic_callables(dim, w, wt, wx=wx_arg)
    m = float(params.get("m", 1.0))
    M = float(params.get("M", max(pmax - 1.0, 1.0)))
    tag = ("variable-exponent-degenerate" if degenerate
           else "variable-exponent")
    return OperatorSpec(dim, pmin, pmax, m, M, 0.0, 0.0, flux, dxi, du, dx,
                        tag, domain, scalar_weight=lambda x, u, t: w(x, u, t))


def _family_anisotropic(params):
    exps = np.asarray(params["exponents"], float)
    p = float(exps.min())
    q = float(exps.max())
    _validate_pq(p, q)
    domain = params.get("domain")
    if domain is None:
        domain = unit_box(len(exps))
    elif not isinstance(domain, Box):
        domain = Box.from_dict(domain)
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

    def dflux_du(x, u, xi):
        shape = np.broadcast_shapes(np.shape(u), np.shape(xi)[:-1])
        return np.zeros(shape + (dim,))

    def dflux_dx(x, u, xi, s):
        shape = np.broadcast_shapes(np.shape(x)[:-1], np.shape(xi)[:-1])
        return np.zeros(shape + (dim,))

    m = float(params.get("m", 1.0))
    M = float(params.get("M", max(q - 1.0, 1.0)))
    return OperatorSpec(dim, p, q, m, M, 0.0, 0.0, flux, dflux_dxi,
                        dflux_du, dflux_dx, "anisotropic", domain)


def _family_double_phase(params):
    p = float(params["p"])
    q = float(params["q"])
    _validate_pq(p, q)
    weight = params["weight"]
    grad_weight = params.get("grad_weight")
    domain = _resolve_domain(params)
    dim = domain.dim

    probe = np.asarray(weight(domain.lattice()), float)
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

    flux, dxi, du, dx = _isotropic_callables(dim, w, wt, wx=wx)
    m = float(params.get("m", 1.0))
    M = float(params.get("M", (p - 1.0) + wmax * (q - 1.0)))
    return OperatorSpec(dim, p, q, m, M, 0.0, 0.0, flux, dxi, du, dx,
                        "double-phase", domain,
                        scalar_weight=lambda x, u, t: w(x, u, t))


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


def _batchify(fn, out_trailing):
    """Wrap a pointwise callable so it accepts leading batch axes."""
    def wrapped(x, u, xi, *rest):
        x = np.asarray(x, float)
        u = np.asarray(u, float)
        xi = np.asarray(xi, float)
        if xi.ndim == 1:
            return np.asarray(fn(x, float(u), xi, *rest), float)
        lead = np.broadcast_shapes(x.shape[:-1], u.shape, xi.shape[:-1])
        xb = np.broadcast_to(x, lead + x.shape[-1:])
        ub = np.broadcast_to(u, lead)
        xib = np.broadcast_to(xi, lead + xi.shape[-1:])
        out = np.empty(lead + out_trailing)
        for idx in np.ndindex(lead):
            out[idx] = fn(xb[idx], float(ub[idx]), xib[idx], *rest)
        return out
    return wrapped


def make_custom(flux, *, dim, p, q, m, M, growth_alpha=0.0, beta=0.0,
                domain: Box | None = None, dflux_dxi=None, dflux_du=None,
                dflux_dx=None, scalar_weight=None, fd_fallback=True,
                vectorized=True, family_tag="custom") -> OperatorSpec:
    """Wrap user code in an OperatorSpec.

    Missing derivatives fall back to centered finite differences unless
    ``fd_fallback`` is disabled, in which case evaluating them raises
    :class:`DerivativeUnavailable`.  Set ``vectorized=False`` when the
    callables only accept single points.
    """
    _validate_pq(p, q)
    domain = domain or unit_box(dim)
    if not vectorized:
        flux = _batchify(flux, (dim,))
        if dflux_dxi is not None:
            dflux_dxi = _batchify(dflux_dxi, (dim, dim))
        if dflux_du is not None:
            dflux_du = _batchify(dflux_du, (dim,))
        if dflux_dx is not None:
            dflux_dx = _batchify(dflux_dx, (dim,))
    fd_xi, fd_u, fd_x = _fd_closures(flux)
    if dflux_dxi is None:
        dflux_dxi = fd_xi if fd_fallback else _unavailable("dflux_dxi")
    if dflux_du is None:
        dflux_du = fd_u if fd_fallback else _unavailable("dflux_du")
    if dflux_dx is None:
        dflux_dx = fd_x if fd_fallback else _unavailable("dflux_dx")
    return OperatorSpec(dim, float(p), float(q), float(m), float(M),
                        float(growth_alpha), float(beta), flux, dflux_dxi,
                        dflux_du, dflux_dx, family_tag, domain,
                        scalar_weight=scalar_weight)


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
               ) -> RegularizedOperator:
    """Add the eps-term eps (1+|xi|^2)^((q+eps-2)/2) xi to the flux.

    The returned operator declares growth exponent q+eps; ellipticity
    constants (p, m) are inherited since the added term is monotone.
    """
    eps = float(eps)
    eps0 = float(eps if eps0 is None else eps0)
    if not 0.0 < eps <= eps0:
        raise InvalidExponents(f"need 0 < eps <= eps0, got eps={eps}, eps0={eps0}")
    check_regularization_exponents(op.p, op.q, op.dim, eps0)

    qe = op.q + eps
    se = (qe - 2.0) / 2.0
    eye = np.eye(op.dim)
    base_flux = op.flux
    base_dxi = op.dflux_dxi

    def flux(x, u, xi):
        t = _sq(xi)
        return base_flux(x, u, xi) + eps * ((1.0 + t) ** se)[..., None] * xi

    def dflux_dxi(x, u, xi):
        t = _sq(xi)
        outer = xi[..., :, None] * xi[..., None, :]
        term = (eps * ((1.0 + t) ** se)[..., None, None] * eye
                + eps * (qe - 2.0) * ((1.0 + t) ** (se - 1.0))[..., None, None]
                * outer)
        return base_dxi(x, u, xi) + term

    scalar_weight = None
    if op.scalar_weight is not None:
        base_w = op.scalar_weight

        def scalar_weight(x, u, t):
            return base_w(x, u, t) + eps * (1.0 + t) ** se

    return RegularizedOperator(
        dim=op.dim, p=op.p, q=qe, m=op.m, M=op.M + eps * (qe - 1.0),
        growth_alpha=op.growth_alpha, beta=op.beta, flux=flux,
        dflux_dxi=dflux_dxi, dflux_du=op.dflux_du, dflux_dx=op.dflux_dx,
        family_tag=op.family_tag + "+eps", domain=op.domain,
        scalar_weight=scalar_weight, descriptor=None,
        base=op, eps=eps, eps0=eps0)


# ---------------------------------------------------------------------------
# exponent-level assumption checks

def validate_assumptions(op: OperatorSpec, n: int, gamma: float | None = None,
                         s0: float | None = None) -> AssumptionReport:
    """Check the scalar exponent inequalities of the structural hypotheses.

    Strict inequalities are tested strictly (an exactly saturated bound
    fails); failures are report entries, never exceptions.  ``gamma`` and
    ``s0`` are the declared local summability exponents of |a(.,0,0)| and
    of the right-hand side; their entries appear only when supplied.
    """
    p, q = op.p, op.q
    rep = AssumptionReport(meta={"family": op.family_tag, "n": int(n),
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
    {"type": "affine", "offset": c0, "coeffs": [c1, ..., cn]}.
    Returns (callable, gradient callable or None).
    """
    if not isinstance(d, dict) or "type" not in d:
        raise ConfigError(f"bad function descriptor: {d!r}")
    extra = set(d) - _AFFINE_KEYS
    if extra:
        raise ConfigError(f"unknown function descriptor keys: {sorted(extra)}")
    kind = d["type"]
    if kind == "constant":
        v = float(d["value"])

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

        def fun(x):  # one 2-D product: a stacked x @ coeffs is slow
            x = np.asarray(x, float)
            return c0 + (x.reshape(-1, dim) @ coeffs).reshape(x.shape[:-1])

        def grad(x):
            return np.broadcast_to(coeffs, np.shape(x)).copy()

        return fun, grad
    raise ConfigError(f"unknown function type {kind!r}")


_DESCRIPTOR_KEYS = {"family", "p", "q", "m", "M", "params", "domain"}


def operator_from_descriptor(desc: dict) -> OperatorSpec:
    """Build an operator from the JSON descriptor schema.

    Schema: {"family": ..., "p": ..., "q": ..., "m": ..., "M": ...,
    "params": {...}, "domain": {"min": [...], "max": [...]}}.  Unknown
    keys are rejected.  Custom fluxes are code-level only.
    """
    if not isinstance(desc, dict):
        raise ConfigError("operator descriptor must be a JSON object")
    extra = set(desc) - _DESCRIPTOR_KEYS
    if extra:
        raise ConfigError(f"unknown operator descriptor keys: {sorted(extra)}")
    family = desc.get("family")
    if not isinstance(family, str) or family not in _FAMILY_BUILDERS:
        raise ConfigError(f"unknown or missing family {family!r}")

    domain = Box.from_dict(desc["domain"]) if "domain" in desc else None
    dim = domain.dim if domain is not None else 2
    if not isinstance(desc.get("params") or {}, dict):
        raise ConfigError("descriptor 'params' must be a JSON object")
    params = dict(desc.get("params") or {})

    for key in ("p", "q", "m", "M"):
        if key in desc:
            params[key] = desc[key]
        if not isinstance(params.get(key, 0.0), (int, float)):
            raise ConfigError(f"descriptor {key!r} must be a number")
    if domain is not None:
        params["domain"] = domain

    try:  # translate function-valued params from their JSON descriptors
        if family == "double-phase" and "weight" in params:
            fun, grad = _function_from_descriptor(params["weight"], dim)
            params["weight"] = fun
            params.setdefault("grad_weight", grad)
        if family.startswith("variable-exponent") and "pfun" in params:
            fun, grad = _function_from_descriptor(params["pfun"], dim)
            params["pfun"] = fun
            params.setdefault("dpfun", grad)
        op = make_family(family, params)
    except KeyError as exc:  # a required parameter, e.g. double-phase weight
        raise ConfigError(f"{family} descriptor lacks {exc}") from exc
    except (TypeError, ValueError) as exc:  # a parameter of the wrong type
        raise ConfigError(f"bad {family} descriptor: {exc}") from exc

    def jsonable(v):
        return v if not isinstance(v, dict) else dict(v)

    clean = {k: jsonable(v) for k, v in desc.items()}
    return replace(op, descriptor=clean)
