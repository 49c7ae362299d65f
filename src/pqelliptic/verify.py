"""Sampled verification of the structural hypotheses of an operator.

Every check evaluates its inequality on a deterministic, seeded sample
cloud plus a structured batch (xi = 0, axis vectors, and vectors of the
large asymptotic radius -- the inequalities are tightest at zero and at
infinity).  Margins are evaluated in fixed chunks in one thread, so a rerun
with the same seed gives a bit-identical report.

Margin convention: margin = (right-hand side) - (left-hand side) of the
bound, minimized over samples; an entry passes iff the worst margin is at
least -TOLERANCE, so a NaN margin fails.  Checks that *fit* a constant (the
paper only asserts existence of constants, never values) report the fitted
value and encode a stability criterion into the margin, as documented per
check.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace
from time import perf_counter

import numpy as np

from .errors import InvalidExponents
from .operators import OperatorSpec, _dot, _max_abs, _sq
from .report import AssumptionReport, CheckEntry, nonstrict_entry

log = logging.getLogger("pq.check")

#: Margins are evaluated CHUNK samples at a time, which bounds the memory
#: of a check's temporaries whatever the sample count.
CHUNK = 4096

#: |u|^(beta-1) with beta < 1 blows up at u = 0; the growth-u check keeps
#: that addendum only where |u| >= U_FLOOR (dropping a nonnegative term
#: only tightens the bound).
U_FLOOR = 1e-6

#: The coercivity fit fails when no c1 >= C1_FLOOR admits finite constants.
C1_FLOOR = 1e-6

#: A sampled non-strict bound passes when its worst margin is >= -TOLERANCE.
TOLERANCE = 1e-10

#: The derivative-consistency check passes when every analytic derivative
#: is within this relative error of its centered finite difference.
FD_REL_TOL = 1e-6

#: The largest count of a sample cloud: its base arrays alone hold 72 GB
#: in 2D.
MAX_SAMPLES = 10 ** 9

#: The sampling plans, each drawn from its own stream of the seed: the base
#: cloud's is default_rng(seed), and a plan k > 0 spawns from the seed, so no
#: two plans or seeds (below 2**128) share a stream.
BASE, DERIVATIVES, LARGE_XI, FRESH_HALF = range(4)


@dataclass(frozen=True)
class SampleConfig:
    """Deterministic sampling plan for the structure checks."""

    seed: int = 0
    count: int = 1000
    xi_radius: float = 10.0
    u_radius: float = 10.0
    large_xi_radius: float = 1e3

    def __post_init__(self):
        if not 1 <= self.count <= MAX_SAMPLES:
            raise ValueError(f"count must lie in [1, {MAX_SAMPLES}], got "
                             f"{self.count}")
        if not all(0 < 2 * r < np.inf for r in (
                self.xi_radius, self.u_radius, self.large_xi_radius)):
            raise ValueError("radii r must be > 0 with the span 2 r finite")


@dataclass
class Samples:
    x: np.ndarray      # (N, dim)
    u: np.ndarray      # (N,)
    xi: np.ndarray     # (N, dim)
    eta: np.ndarray | None = None
    lam: np.ndarray | None = None

    def __len__(self):
        return self.u.shape[0]

    def __getitem__(self, rows):
        """The samples at ``rows``; a slice gives views, not copies."""
        return Samples(x=self.x[rows], u=self.u[rows], xi=self.xi[rows],
                       eta=None if self.eta is None else self.eta[rows],
                       lam=None if self.lam is None else self.lam[rows])


def _unit_vectors(rng, out):
    """Fill ``out`` (n, dim) with random unit directions, in place."""
    rng.standard_normal(out=out)
    norms = np.sqrt(_sq(out))[:, None]
    norms[norms < 1e-12] = 1.0
    out /= norms
    return out


def _structured_block(dim, xi_radius, large_radius):
    """Deterministic (xi, eta, lam) rows; xi = 0 comes first so argmin
    ties resolve to the origin witness."""
    xis, etas, lams = [], [], []
    axes = np.eye(dim)
    for s in range(dim):
        xis.append(np.zeros(dim))
        etas.append(xi_radius * axes[s])
        lams.append(axes[s])
    for radius in (xi_radius, large_radius):
        for s in range(dim):
            for lam in (axes[s], axes[(s + 1) % dim]):
                xis.append(radius * axes[s])
                etas.append(-radius * axes[s])
                lams.append(lam)
    diag = np.ones(dim) / np.sqrt(dim)
    xis.append(large_radius * diag)
    etas.append(np.zeros(dim))
    lams.append(axes[0])
    return np.asarray(xis), np.asarray(etas), np.asarray(lams)


def draw_samples(op: OperatorSpec, cfg: SampleConfig, *, stream: int = BASE,
                 structured: bool = True, xi_low_frac: float = 0.0,
                 directions: bool = True) -> Samples:
    """Seeded sample cloud of the plan ``stream`` over the operator's domain.

    x is uniform in the box; u uniform in [-u_radius, u_radius]; xi, eta
    and lambda are random directions with magnitudes xi_radius |N(0,1)|.
    ``xi_low_frac > 0`` draws the xi magnitudes uniform in [xi_low_frac, 1]
    xi_radius instead (used by the derivative-consistency check, where
    degenerate built-ins are not twice differentiable at xi = 0).  eta and
    lambda are drawn last, so ``directions=False`` leaves them None and x, u
    and xi unchanged.  The arrays are read-only, so checks that share one
    cloud cannot change it.

    Each array is allocated once, structured rows first; the random rows
    are drawn into it and scaled in place.
    """
    dim = op.dim
    box = op.domain
    radius = cfg.xi_radius
    rng = np.random.default_rng(np.random.SeedSequence(
        cfg.seed, spawn_key=(stream,) if stream else ()))

    n = cfg.count
    xs, es, ls = (_structured_block(dim, radius, cfg.large_xi_radius)
                  if structured else np.empty((3, 0, dim)))
    k = xs.shape[0]
    x = np.empty((k + n, dim))
    u = np.empty(k + n)
    xi = np.empty((k + n, dim))
    x[:k], u[:k], xi[:k] = box.center, 0.0, xs

    lo = np.asarray(box.lo)
    rng.random(out=x[k:])
    x[k:] *= np.asarray(box.hi) - lo
    x[k:] += lo
    u[k:] = rng.uniform(-cfg.u_radius, cfg.u_radius, n)  # takes no out=
    if xi_low_frac > 0.0:
        mag = rng.random(n)
        mag *= 1.0 - xi_low_frac
        mag *= radius
        mag += xi_low_frac * radius
    else:
        mag = np.abs(rng.standard_normal(n))
        mag *= radius
    _unit_vectors(rng, xi[k:])
    xi[k:] *= mag[:, None]
    eta = lam = None
    if directions:
        eta = np.empty((k + n, dim))
        lam = np.empty((k + n, dim))
        eta[:k], lam[:k] = es, ls
        np.abs(rng.standard_normal(out=mag), out=mag)
        mag *= radius
        _unit_vectors(rng, eta[k:])
        eta[k:] *= mag[:, None]
        _unit_vectors(rng, lam[k:])
    for a in (x, u, xi, eta, lam):
        if a is not None:
            a.flags.writeable = False
    return Samples(x=x, u=u, xi=xi, eta=eta, lam=lam)


# ---------------------------------------------------------------------------
# chunked evaluation

def _chunks(n):
    """Slices of CHUNK samples covering range(n)."""
    return [slice(i0, min(i0 + CHUNK, n)) for i0 in range(0, n, CHUNK)]


def _chunked_margins(margin_fn, samples: Samples, keep=None):
    """Evaluate margins CHUNK samples at a time; returns the full vector.

    ``keep(chunk)``, when given, selects the samples the bound applies to:
    margin_fn sees only those, and the others get a margin of +inf, so the
    worst margin and its index are those of the kept samples.
    """
    out = np.empty(len(samples))
    for rows in _chunks(len(samples)):
        sub = samples[rows]
        kept = None if keep is None else keep(sub)
        if kept is None or kept.all():
            out[rows] = margin_fn(sub)
        else:
            out[rows] = np.inf
            out[rows][kept] = margin_fn(sub[kept])
    return out


def _worst(margins):
    idx = int(np.argmin(margins))
    return float(margins[idx]), idx


def _witness(samples: Samples, idx: int, *, eta=False, lam=False):
    w = {"x": samples.x[idx].tolist(), "u": float(samples.u[idx]),
         "xi": samples.xi[idx].tolist()}
    if eta and samples.eta is not None:
        w["eta"] = samples.eta[idx].tolist()
    if lam and samples.lam is not None:
        w["lambda"] = samples.lam[idx].tolist()
    return w


# ---------------------------------------------------------------------------
# margin kernels (vectorized; also used to re-evaluate witnesses)

def ellipticity_margin(op, x, u, xi, lam):
    J = op.dflux_dxi(np.asarray(x, float), np.asarray(u, float),
                     np.asarray(xi, float))
    lam = np.asarray(lam, float)
    t = _sq(np.asarray(xi, float))
    quad = np.einsum("...i,...ij,...j->...", lam, J, lam)
    return quad - op.m * (1.0 + t) ** ((op.p - 2.0) / 2.0)


def growth_xi_margin(op, x, u, xi):
    J = op.dflux_dxi(np.asarray(x, float), np.asarray(u, float),
                     np.asarray(xi, float))
    t = _sq(np.asarray(xi, float))
    u = np.asarray(u, float)
    bound = op.M * (1.0 + t) ** ((op.q - 2.0) / 2.0)
    if op.growth_alpha > 0.0:
        bound = bound + op.M * np.abs(u) ** op.growth_alpha
    return bound - _max_abs(J, 2)


def growth_u_margin(op, x, u, xi):
    """Margin of the u-derivative growth bound.

    For beta < 1 both sides may blow up as u -> 0; the bound is a growth
    condition meaningful away from u = 0, so the check restricts itself to
    |u| >= U_FLOOR (this kernel clips |u| at the floor; the check never
    selects samples below it).
    """
    au = op.dflux_du(np.asarray(x, float), np.asarray(u, float),
                     np.asarray(xi, float))
    t = _sq(np.asarray(xi, float))
    u_abs = np.abs(np.asarray(u, float))
    if op.beta < 1.0:
        u_abs = np.maximum(u_abs, U_FLOOR)
    bound = (op.M * (1.0 + t) ** ((op.p + op.q - 4.0) / 4.0)
             + op.M * u_abs ** (op.beta - 1.0))
    return bound - _max_abs(au)


def local_condition_ratios(op, x, u, xi):
    """(antisymmetry ratio, x-derivative ratio): lhs over its weight."""
    x, u, xi = (np.asarray(a, float) for a in (x, u, xi))
    J = op.dflux_dxi(x, u, xi)
    t = _sq(xi)
    d1 = (1.0 + t) ** ((op.p + op.q - 4.0) / 4.0)
    d2 = (1.0 + t) ** ((op.p + op.q - 2.0) / 4.0)
    antis = _max_abs(J - np.swapaxes(J, -1, -2), 2)
    ax = _max_abs(op.dflux_dx(x, u, xi, 0))
    for s in range(1, op.dim):
        ax = np.maximum(ax, _max_abs(op.dflux_dx(x, u, xi, s)))
    return antis / d1, ax / d2


def monotonicity_margin(op, x, u, xi, eta):
    x, u, xi, eta = (np.asarray(a, float) for a in (x, u, xi, eta))
    diff = xi - eta
    lhs = _dot(op.flux(x, u, xi) - op.flux(x, u, eta), diff)
    mid = 0.5 * (xi + eta)
    rhs = op.m * (1.0 + _sq(mid)) ** ((op.p - 2.0) / 2.0) * _sq(diff)
    return lhs - rhs


def coercivity_margin(op, x, u, xi, c1, c2, theta):
    x, u, xi = (np.asarray(a, float) for a in (x, u, xi))
    dot = _dot(op.flux(x, u, xi), xi)
    norm = np.sqrt(_sq(xi))
    return dot - c1 * norm ** op.p + c2 * np.abs(u) ** theta + b1_values(op, x)


def _a0_norm(op, x):
    """|a(x, 0, 0)|."""
    zeros_xi = np.zeros(x.shape[:-1] + (op.dim,))
    return np.sqrt(_sq(op.flux(x, np.zeros(x.shape[:-1]), zeros_xi)))


def b1_values(op, x):
    """b1(x) = 1 + |a(x, 0, 0)|^(p/(p-1))."""
    return 1.0 + _a0_norm(op, np.asarray(x, float)) ** (op.p / (op.p - 1.0))


def lemma_lower_ratio(op, x, u, xi):
    """-(a, xi) over the lemma's bracket |xi|^q + |u|^q + |a0|^(q') + 1."""
    x, u, xi = (np.asarray(a, float) for a in (x, u, xi))
    dot = _dot(op.flux(x, u, xi), xi)
    a0 = _a0_norm(op, x)
    norm = np.sqrt(_sq(xi))
    denom = (norm ** op.q + np.abs(u) ** op.q
             + a0 ** (op.q / (op.q - 1.0)) + 1.0)
    return -dot / denom


def regularized_growth_ratio(rop: OperatorSpec, x, u, xi):
    """|a_eps| over M-bracket |xi|^(q+eps-1) + |u|^(q+eps-1) + b1(x) of a
    regularized operator, whose q is q+eps; b1 is the base's, as
    a_eps(x, 0, 0) = a(x, 0, 0)."""
    x, u, xi = (np.asarray(a, float) for a in (x, u, xi))
    mag = np.sqrt(_sq(rop.flux(x, u, xi)))
    norm = np.sqrt(_sq(xi))
    denom = (norm ** (rop.q - 1.0) + np.abs(u) ** (rop.q - 1.0)
             + b1_values(rop, x))
    return mag / denom


def theta_exponent(p: float, q: float, beta: float) -> float:
    """theta = max{2p/(p-q+2), beta p/(p-1)} -- as printed; the remark
    q/p < 1+2/n <=> 2p/(p-q+2) < p* confirms the denominator."""
    return max(2.0 * p / (p - q + 2.0), beta * p / (p - 1.0))


# ---------------------------------------------------------------------------
# the checks

def check_ellipticity(op: OperatorSpec, cfg: SampleConfig, *,
                      samples: Samples | None = None) -> CheckEntry:
    """lambda^T (da/dxi) lambda >= m (1+|xi|^2)^((p-2)/2) |lambda|^2."""
    S = draw_samples(op, cfg) if samples is None else samples
    margins = _chunked_margins(
        lambda s: ellipticity_margin(op, s.x, s.u, s.xi, s.lam), S)
    worst, idx = _worst(margins)
    return nonstrict_entry("ellipticity", worst, TOLERANCE,
                           _witness(S, idx, lam=True))


def check_growth_xi(op: OperatorSpec, cfg: SampleConfig, *,
                    samples: Samples | None = None) -> CheckEntry:
    """|da^i/dxi_j| <= M (1+|xi|^2)^((q-2)/2) [+ M |u|^alpha if alpha > 0]."""
    S = draw_samples(op, cfg) if samples is None else samples
    margins = _chunked_margins(
        lambda s: growth_xi_margin(op, s.x, s.u, s.xi), S)
    worst, idx = _worst(margins)
    return nonstrict_entry("growth-xi", worst, TOLERANCE, _witness(S, idx))


def check_growth_u(op: OperatorSpec, cfg: SampleConfig, *,
                   samples: Samples | None = None) -> CheckEntry:
    """|da^i/du| <= M (1+|xi|^2)^((p+q-4)/4) + M |u|^(beta-1).

    For beta < 1 the inequality is evaluated only at |u| >= U_FLOOR, where
    it is meaningful as a growth condition; behavior below the floor is an
    open-question outcome, not a failure.
    """
    S = draw_samples(op, cfg) if samples is None else samples
    keep, notes = None, ""
    if op.beta < 1.0:
        def keep(s):
            return np.abs(s.u) >= U_FLOOR
        notes = f"beta<1: restricted to |u| >= {U_FLOOR:g}"
    margins = _chunked_margins(
        lambda s: growth_u_margin(op, s.x, s.u, s.xi), S, keep)
    worst, idx = _worst(margins)
    return nonstrict_entry("growth-u", worst, TOLERANCE, _witness(S, idx),
                           notes=notes)


def check_local_conditions(op: OperatorSpec, L: float, cfg: SampleConfig,
                           declared_ML: float | None = None, *,
                           samples: Samples | None = None) -> CheckEntry:
    """Antisymmetry and x-derivative bounds for |u| <= L on the central
    half of the domain on each axis, where the base cloud's x is mapped
    affinely (its u is scaled by L / u_radius) one chunk at a time.

    Fits the smallest M(L) covering both inequalities over the samples;
    when a declared M(L) is provided the margin is measured against it,
    otherwise the fitted constant is reported and the entry passes.
    """
    S = draw_samples(op, cfg) if samples is None else samples
    box, sub = op.domain, op.domain.shrink(0.25)

    def local(s):  # x, u and xi of the samples s, mapped
        return ((s.x - box.lo) * (sub.widths / box.widths) + sub.lo,
                s.u * (L / cfg.u_radius), s.xi)

    fit = _chunked_margins(
        lambda s: np.maximum(*local_condition_ratios(op, *local(s))), S)
    idx = int(np.argmax(fit))
    fitted = float(fit[idx])
    if declared_ML is None:
        worst = 0.0
        notes = "no declared M(L); fitted constant reported"
    else:
        # margin in the bound's units: min over samples of (declared - ratio)
        # times the weight is equivalent in sign to declared - max ratio.
        worst = float(declared_ML - fitted)
        notes = "margin against declared M(L)"
    return nonstrict_entry(
        "local-conditions", worst, TOLERANCE,
        _witness(Samples(*local(S[idx:idx + 1])), 0),
        fitted={"M_L": fitted, "L": float(L)}, notes=notes)


def check_monotonicity(op: OperatorSpec, cfg: SampleConfig, *,
                       samples: Samples | None = None) -> CheckEntry:
    """(a(x,u,xi)-a(x,u,eta), xi-eta) >= m (1+|mid|^2)^((p-2)/2) |xi-eta|^2."""
    S = draw_samples(op, cfg) if samples is None else samples
    margins = _chunked_margins(
        lambda s: monotonicity_margin(op, s.x, s.u, s.xi, s.eta), S,
        keep=lambda s: np.any(s.xi != s.eta, axis=-1))
    worst, idx = _worst(margins)
    return nonstrict_entry("monotonicity", worst, TOLERANCE,
                           _witness(S, idx, eta=True))


def _coercivity_terms(op, clouds):
    """The terms of the coercivity bound that do not depend on c1, for the
    samples of ``clouds`` in order: rows (a, xi), |xi|^p, b1(x) and |u| of
    a (4, N) array, evaluated CHUNK samples at a time."""
    terms = np.empty((4, sum(map(len, clouds))))
    i0 = 0
    for S in clouds:
        for rows in _chunks(len(S)):
            s = S[rows]
            at = slice(i0, i0 + len(s))
            terms[0, at] = _dot(op.flux(s.x, s.u, s.xi), s.xi)
            terms[1, at] = np.sqrt(_sq(s.xi)) ** op.p
            terms[2, at] = b1_values(op, s.x)
            terms[3, at] = np.abs(s.u)
            i0 = at.stop
    return terms


def _coercivity_feasible(terms, c1, theta, tol):
    """Feasibility of (a,xi) >= c1|xi|^p - c2|u|^theta - b1 on the samples
    of ``terms`` (see _coercivity_terms).

    Returns (feasible, needed c2): samples with |u| below the floor must
    satisfy the bound with c2 = 0 outright.
    """
    dot, xi_p, b1, abs_u = terms
    c2 = []
    for rows in _chunks(len(dot)):
        residual = c1 * xi_p[rows] - dot[rows] - b1[rows]
        small_u = abs_u[rows] < U_FLOOR
        if np.any(residual[small_u] > tol):
            return False, np.inf
        big = (residual > tol) & ~small_u
        if np.any(big):
            c2.append(np.max(residual[big] / abs_u[rows][big] ** theta))
    if not c2:
        return True, 0.0
    c2 = np.max(c2)
    return bool(np.isfinite(c2)), float(c2)


def check_coercivity_lower(op: OperatorSpec, cfg: SampleConfig, *,
                           samples: Samples | None = None) -> CheckEntry:
    """Fit constants for (a,xi) >= c1 |xi|^p - c2 |u|^theta - b1(x).

    c1 is found by bisection on (0, m] (40 iterations) with c2 fitted as the
    worst residual ratio; a large-|xi| batch, a plan of its own, joins the
    cloud.  The terms that do not depend on c1 are evaluated once per
    sample, so the bisection evaluates no flux.  The entry's fitted constants are c1, c2
    and theta; it fails if no c1 >= C1_FLOOR admits finite constants.
    """
    theta = theta_exponent(op.p, op.q, op.beta)
    S = draw_samples(op, cfg) if samples is None else samples
    B = draw_samples(op, replace(cfg, count=max(cfg.count // 4, 16),
                                 xi_radius=cfg.large_xi_radius),
                     stream=LARGE_XI, structured=False, directions=False)
    terms = _coercivity_terms(op, (S, B))

    feasible_m, c2_m = _coercivity_feasible(terms, op.m, theta, TOLERANCE)
    if feasible_m:
        c1, c2 = op.m, c2_m
    else:
        lo, hi = C1_FLOOR, op.m
        ok_lo, c2_lo = _coercivity_feasible(terms, lo, theta, TOLERANCE)
        if not ok_lo:
            return nonstrict_entry(
                "coercivity-lower", -np.inf, TOLERANCE, None,
                fitted={"c1": 0.0, "c2": np.inf, "theta": theta},
                notes=f"no feasible c1 >= {C1_FLOOR:g}")
        for _ in range(40):
            mid = 0.5 * (lo + hi)
            ok, c2_mid = _coercivity_feasible(terms, mid, theta, TOLERANCE)
            if ok:
                lo, c2_lo = mid, c2_mid
            else:
                hi = mid
        c1, c2 = lo, c2_lo

    # coercivity_margin's operation order, on the stored terms
    dot, xi_p, b1, abs_u = terms
    margins = np.empty(len(dot))
    for rows in _chunks(len(dot)):
        margins[rows] = (dot[rows] - c1 * xi_p[rows]
                         + c2 * abs_u[rows] ** theta + b1[rows])
    worst, idx = _worst(margins)
    witness = _witness(S, idx) if idx < len(S) else _witness(B, idx - len(S))
    return nonstrict_entry(
        "coercivity-lower", worst, TOLERANCE, witness,
        fitted={"c1": float(c1), "c2": float(c2), "theta": float(theta)})


def _stable_fit(ratio_fn, op, cfg, condition_id, constant_name,
                samples=None):
    """Fit c = max ratio; pass iff the fit is finite and stable under
    doubling the sample count (within factor 2).

    2n samples are the base cloud plus a fresh half, a plan of its own, so
    c_doubled = max(c, the fit on the fresh half).  The entry margin is
    min(0, 2*c - c_doubled): a NaN or infinite fit fails.  ``samples`` is
    the base cloud, or a list holding it, which the fit empties: a cloud
    held nowhere else is then freed before the fresh half is drawn.
    """
    if isinstance(samples, list):
        samples = samples.pop()
    S = draw_samples(op, cfg) if samples is None else samples
    del samples
    ratios = _chunked_margins(lambda s: ratio_fn(op, s.x, s.u, s.xi), S)
    idx = int(np.argmax(ratios))
    # np.maximum keeps a NaN, and + 0.0 turns a fit of -0.0 into 0.0
    c = float(np.maximum(ratios[idx], 0.0)) + 0.0
    witness = _witness(S, idx)
    del S, ratios

    S2 = draw_samples(op, cfg, stream=FRESH_HALF, structured=False,
                      directions=False)
    ratios2 = _chunked_margins(lambda s: ratio_fn(op, s.x, s.u, s.xi), S2)
    c2 = float(np.maximum(np.max(ratios2), c)) + 0.0

    worst = 0.0 if c2 <= TOLERANCE else min(2.0 * c - c2, 0.0)
    return nonstrict_entry(
        condition_id, worst, TOLERANCE, witness,
        fitted={constant_name: c, constant_name + "_doubled": c2},
        notes="margin includes 2x-stability under sample doubling")


def check_lemma_lower_bound(op: OperatorSpec, cfg: SampleConfig, *,
                            samples: Samples | list | None = None
                            ) -> CheckEntry:
    """(a,xi) >= -c (|xi|^q + |u|^q + |a(x,0,0)|^(q/(q-1)) + 1) for a
    finite, sample-stable c.  ``samples`` may be a list holding the base
    cloud: the check takes the cloud out of it (see _stable_fit)."""
    if not 0.0 <= op.beta <= op.p - 1.0:
        raise InvalidExponents("lemma lower bound needs 0 <= beta <= p-1")
    return _stable_fit(lemma_lower_ratio, op, cfg, "lemma-lower-bound", "c",
                       samples)


def check_regularized_growth(rop: OperatorSpec,
                             cfg: SampleConfig) -> CheckEntry:
    """|a_eps| <= M (|xi|^(q+eps-1) + |u|^(q+eps-1) + b1(x)) for a finite,
    sample-stable M."""
    return _stable_fit(regularized_growth_ratio, rop, cfg,
                       "regularized-growth", "M")


def check_derivative_consistency(op: OperatorSpec,
                                 cfg: SampleConfig) -> CheckEntry:
    """Analytic derivatives vs centered finite differences of the flux, to
    the relative error FD_REL_TOL.

    Relative error is measured entrywise against max(1, the larger of the
    two blocks).  Sample magnitudes are kept away from zero, where the
    degenerate built-ins are not twice differentiable.
    """
    from .operators import fd_dflux_du, fd_dflux_dx, fd_dflux_dxi

    S = draw_samples(op, cfg, stream=DERIVATIVES, structured=False,
                     xi_low_frac=0.05, directions=False)

    def rel_err(a, f):
        k = a.ndim - 1
        scale = np.maximum(1.0, np.maximum(_max_abs(a, k), _max_abs(f, k)))
        return _max_abs(a - f, k) / scale

    def margins(s):
        err = np.maximum(rel_err(op.dflux_dxi(s.x, s.u, s.xi),
                                 fd_dflux_dxi(op.flux, s.x, s.u, s.xi)),
                         rel_err(op.dflux_du(s.x, s.u, s.xi),
                                 fd_dflux_du(op.flux, s.x, s.u, s.xi)))
        for axis in range(op.dim):
            err = np.maximum(err, rel_err(
                op.dflux_dx(s.x, s.u, s.xi, axis),
                fd_dflux_dx(op.flux, s.x, s.u, s.xi, axis)))
        return FD_REL_TOL - err

    vals = _chunked_margins(margins, S)
    worst, idx = _worst(vals)
    return nonstrict_entry("derivative-consistency", worst, 0.0,
                           _witness(S, idx),
                           fitted={"rel_tol": FD_REL_TOL})


def run_structure_checks(op: OperatorSpec, cfg: SampleConfig,
                         L: float | None = None) -> AssumptionReport:
    """All structural checks on one operator, in a fixed order.

    The base cloud is drawn once and shared by the checks that use it; the
    lemma check, last, frees it before drawing its fresh half.  The size
    and wall time of the draw and per-check wall times are logged on
    ``pq.check`` at info level.
    """
    L = cfg.u_radius if L is None else L
    rep = AssumptionReport(meta={"family": op.family_tag, "p": op.p,
                                 "q": op.q, "m": op.m, "M": op.M,
                                 "seed": cfg.seed, "count": cfg.count})
    t0 = perf_counter()
    base = [draw_samples(op, cfg)]
    log.info("shared sample cloud: %d points, %.3f s", len(base[0]),
             perf_counter() - t0)
    for check in (
            lambda: check_derivative_consistency(op, cfg),
            lambda: check_ellipticity(op, cfg, samples=base[0]),
            lambda: check_growth_xi(op, cfg, samples=base[0]),
            lambda: check_growth_u(op, cfg, samples=base[0]),
            lambda: check_local_conditions(op, L, cfg, samples=base[0]),
            lambda: check_monotonicity(op, cfg, samples=base[0]),
            lambda: check_coercivity_lower(op, cfg, samples=base[0]),
            # takes the cloud out of ``base``, freeing it before the
            # fresh half is drawn
            lambda: check_lemma_lower_bound(op, cfg, samples=base)):
        t0 = perf_counter()
        entry = check()
        log.info("%s: %.3f s", entry.condition_id, perf_counter() - t0)
        rep.add(entry)
    return rep


def reevaluate_witness(op: OperatorSpec, entry: CheckEntry) -> float:
    """Recompute the margin at an entry's witness point.

    Valid for the pointwise checks (ellipticity, growth, monotonicity,
    coercivity with its fitted constants); fitted-ratio entries re-evaluate
    the ratio's slack against the fitted constant.
    """
    w = entry.witness
    x = np.asarray(w["x"])
    u = float(w["u"])
    xi = np.asarray(w["xi"])
    cid = entry.condition_id
    if cid == "ellipticity":
        return float(ellipticity_margin(op, x, u, xi, np.asarray(w["lambda"])))
    if cid == "growth-xi":
        return float(growth_xi_margin(op, x, u, xi))
    if cid == "growth-u":
        return float(growth_u_margin(op, x, u, xi))
    if cid == "monotonicity":
        return float(monotonicity_margin(op, x, u, xi, np.asarray(w["eta"])))
    if cid == "coercivity-lower":
        f = entry.fitted_constants
        return float(coercivity_margin(op, x, u, xi, f["c1"], f["c2"],
                                       f["theta"]))
    if cid == "local-conditions":
        r1, r2 = local_condition_ratios(op, x, u, xi)
        return float(entry.fitted_constants["M_L"] - max(float(r1), float(r2)))
    if cid == "lemma-lower-bound":
        c = entry.fitted_constants["c"]
        return float(c - lemma_lower_ratio(op, x, u, xi))
    if cid == "regularized-growth":
        M = entry.fitted_constants["M"]
        return float(M - regularized_growth_ratio(op, x, u, xi))
    raise KeyError(f"no witness kernel for {cid!r}")
