from pathlib import Path

import numpy as np
import pytest
from hypothesis.configuration import set_hypothesis_home_dir

import pqelliptic as pq

# Hypothesis caches what it reads of the sources, even with database=None:
# keep that in pytest's cache directory rather than a .hypothesis/ of its own
set_hypothesis_home_dir(
    Path(__file__).resolve().parents[1] / ".pytest_cache" / "hypothesis")


def dp_weight(x):
    return np.asarray(x)[..., 0]


def dp_weight_grad(x):
    g = np.zeros(np.shape(x))
    g[..., 0] = 1.0
    return g


def varexp_p(x):
    return 2.0 + 0.2 * np.asarray(x)[..., 0]


def varexp_dp(x):
    g = np.zeros(np.shape(x))
    g[..., 0] = 0.2
    return g


DP_DESCRIPTOR = {
    "family": "double-phase", "p": 2, "q": 2.2,
    "params": {"weight": {"type": "affine", "coeffs": [1.0, 0.0],
                          "offset": 0.0}},
    "domain": {"min": [0, 0], "max": [1, 1]},
}


@pytest.fixture(scope="session")
def cfg():
    return pq.SampleConfig(seed=42, count=2000)


@pytest.fixture(scope="session")
def suite_operators():
    """The operators of the structural acceptance suite."""
    return {
        "p-laplacian-2": pq.make_family("p-laplacian", {"p": 2}),
        "p-laplacian-3": pq.make_family("p-laplacian", {"p": 3}),
        "p-laplacian-4": pq.make_family("p-laplacian", {"p": 4}),
        "log": pq.make_family("log", {"p": 2, "q": 2.2}),
        "variable-exponent": pq.make_family(
            "variable-exponent",
            {"pfun": varexp_p, "pmin": 2.0, "pmax": 2.2, "dpfun": varexp_dp}),
        "anisotropic": pq.make_family("anisotropic", {"exponents": [2, 2.5]}),
        "double-phase": pq.make_family(
            "double-phase", {"p": 2, "q": 2.2, "weight": dp_weight,
                             "grad_weight": dp_weight_grad}),
    }


@pytest.fixture(scope="session")
def double_phase_op():
    return pq.operator_from_descriptor(DP_DESCRIPTOR)


class MaskBuilds(dict):
    """A mesh's mask cache that records each key stored in it: one entry
    per mask built."""

    def __init__(self):
        super().__init__()
        self.stored = []

    def __setitem__(self, key, value):
        self.stored.append(key)
        super().__setitem__(key, value)


def constant_rhs(value):
    def b(x):
        return np.full(np.shape(x)[:-1], float(value))
    return b


def assert_rhs_tiles_quad_points(calls, *meshes):
    """The recorded rhs arguments cover each mesh's quadrature points once,
    one chunk of elements after another in element order, mesh after mesh:
    the rhs is evaluated once per mesh, and never again (per Newton step,
    say), however many chunks that evaluation takes."""
    calls = iter(calls)
    for m in meshes:
        rows = 0
        while rows < m.n_elements:
            x = next(calls)
            assert x.ndim == 3 and x.shape[1:] == m.quad_points.shape[1:]
            assert np.array_equal(x, m.quad_points[rows:rows + len(x)])
            rows += len(x)
        assert rows == m.n_elements
    assert next(calls, None) is None


def u_dependent_test_op(p=2.0, beta=0.5, kappa=0.5, dim=2):
    """Additive lower-order u-term: a = (1+t)^((p-2)/2) xi + |u|^(b-1) u v0.

    The constant-vector term leaves the xi-Jacobian (hence ellipticity)
    untouched, satisfies the |u|^(beta-1) derivative growth, and makes the
    coercivity fit need a genuine c2 > 0.
    """
    v0 = np.zeros(dim)
    v0[0] = kappa
    e = (p - 2.0) / 2.0

    def flux(x, u, xi):
        t = np.sum(xi * xi, axis=-1)
        u = np.asarray(u, float)
        base = ((1.0 + t) ** e)[..., None] * xi
        # |u|^(beta-1) u written as sign(u) |u|^beta, finite at u = 0
        return base + (np.sign(u) * np.abs(u) ** beta)[..., None] * v0

    def dflux_dxi(x, u, xi):
        t = np.sum(xi * xi, axis=-1)
        outer = xi[..., :, None] * xi[..., None, :]
        w = (1.0 + t) ** e
        wt = e * (1.0 + t) ** (e - 1.0)
        return (w[..., None, None] * np.eye(dim)
                + 2.0 * wt[..., None, None] * outer)

    def dflux_du(x, u, xi):
        # genuinely unbounded as u -> 0 for beta < 1; the growth-u check
        # only looks at |u| above its floor, so define 0 at the singularity
        u = np.asarray(u, float)
        shape = np.broadcast_shapes(u.shape, np.shape(xi)[:-1])
        ub = np.abs(np.broadcast_to(u, shape))
        safe = np.where(ub > 0.0, ub, 1.0)
        coeff = np.where(ub > 0.0, beta * safe ** (beta - 1.0), 0.0)
        return coeff[..., None] * v0

    def dflux_dx(x, u, xi, s):
        shape = np.broadcast_shapes(np.shape(x)[:-1], np.shape(xi)[:-1])
        return np.zeros(shape + (dim,))

    return pq.make_custom(flux, dim=dim, p=p, q=p, m=1.0,
                          M=max(p - 1.0, beta * kappa, 1.0), beta=beta,
                          dflux_dxi=dflux_dxi, dflux_du=dflux_du,
                          dflux_dx=dflux_dx)


# The finite differences as broadcasts and np.stack, the form that
# operators.fd_dflux_* once had: those compute column by column and must
# keep these bits.

def ref_fd_dflux_dxi(flux, x, u, xi):
    x = np.asarray(x, float)
    u = np.asarray(u, float)
    xi = np.asarray(xi, float)
    dim = xi.shape[-1]
    h = pq.operators.FD_SCALE * np.maximum(1.0, np.sqrt(np.sum(xi * xi, -1)))
    cols = []
    for j in range(dim):
        e = np.zeros(dim)
        e[j] = 1.0
        step = h[..., None] * e
        cols.append((flux(x, u, xi + step) - flux(x, u, xi - step))
                    / (2.0 * h[..., None]))
    return np.stack(cols, axis=-1)


def ref_fd_dflux_du(flux, x, u, xi):
    u = np.asarray(u, float)
    h = pq.operators.FD_SCALE * np.maximum(1.0, np.abs(u))
    return (flux(x, u + h, xi) - flux(x, u - h, xi)) / (2.0 * h[..., None])


def ref_fd_dflux_dx(flux, x, u, xi, s):
    x = np.asarray(x, float)
    dim = x.shape[-1]
    e = np.zeros(dim)
    e[s] = 1.0
    h = pq.operators.FD_SCALE * np.maximum(1.0, np.abs(x[..., s]))
    step = h[..., None] * e
    return (flux(x + step, u, xi) - flux(x - step, u, xi)) / (2.0 * h[..., None])
