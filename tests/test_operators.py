import json

import numpy as np
import pytest

import pqelliptic as pq
from pqelliptic import (DimensionMismatch, InvalidExponents,
                        NonnegativityViolation, eval_dflux_dxi, eval_flux,
                        make_custom, make_family, regularize)
from conftest import (DP_DESCRIPTOR, dp_weight, u_dependent_test_op,
                      varexp_dp, varexp_p)


X = np.array([0.5, 0.5])


def test_p_laplacian_identity_at_p2():
    op = make_family("p-laplacian", {"p": 2})
    assert np.allclose(eval_flux(op, X, 0.0, [1.0, 0.0]), [1.0, 0.0])
    J = eval_dflux_dxi(op, X, 0.3, np.array([0.7, -0.2]))
    assert np.allclose(J, np.eye(2))


def test_p_laplacian_p4_value():
    op = make_family("p-laplacian", {"p": 4})
    # (1 + 1)^((4-2)/2) = 2
    assert np.allclose(eval_flux(op, X, 0.0, [1.0, 0.0]), [2.0, 0.0])
    # Jacobian at xi = 0 is the identity: (1+0)^1 I + 0
    assert np.allclose(eval_dflux_dxi(op, X, 0.0, [0.0, 0.0]), np.eye(2))


def test_double_phase_reduces_to_p_laplacian_where_weight_vanishes():
    # q must stay strictly below p+1 for the constructor
    op = make_family("double-phase",
                     {"p": 2, "q": 2.9, "weight": dp_weight})
    x0 = np.array([0.0, 0.7])  # weight x1 = 0 here
    assert np.allclose(eval_flux(op, x0, 0.0, [1.0, 0.0]), [1.0, 0.0])


def test_log_degenerate_vanishes_at_origin():
    op = make_family("log-degenerate", {"p": 3, "q": 3.3})
    zero = np.zeros(2)
    assert np.allclose(eval_flux(op, X, 0.0, zero), zero)
    assert np.allclose(eval_dflux_dxi(op, X, 0.0, zero), np.zeros((2, 2)))


def test_dimension_mismatch():
    op = make_family("p-laplacian", {"p": 2})
    with pytest.raises(DimensionMismatch):
        eval_flux(op, X, 0.0, [1.0, 0.0, 0.0])


def test_family_identities_on_samples():
    rng = np.random.default_rng(0)
    x = rng.random((50, 2))
    u = rng.standard_normal(50)
    xi = rng.standard_normal((50, 2)) * 3

    plap = make_family("p-laplacian", {"p": 2})
    aniso = make_family("anisotropic", {"exponents": [2, 2]})
    np.testing.assert_allclose(aniso.flux(x, u, xi), plap.flux(x, u, xi))

    dphase = make_family("double-phase",
                         {"p": 2, "q": 2.5,
                          "weight": lambda x: np.zeros(np.shape(x)[:-1])})
    np.testing.assert_allclose(dphase.flux(x, u, xi), plap.flux(x, u, xi))


def test_variable_exponent_constant_declares_p_eq_q():
    op = make_family("variable-exponent",
                     {"pfun": lambda x: np.full(np.shape(x)[:-1], 3.0),
                      "pmin": 3.0, "pmax": 3.0})
    assert op.p == 3.0 and op.q == 3.0


def test_variable_exponent_probe_rejects_out_of_range():
    with pytest.raises(InvalidExponents):
        make_family("variable-exponent",
                    {"pfun": varexp_p, "pmin": 2.0, "pmax": 2.1})


def test_invalid_exponent_combinations():
    with pytest.raises(InvalidExponents):
        make_family("p-laplacian", {"p": 1.5})
    with pytest.raises(InvalidExponents):
        make_family("log", {"p": 2, "q": 3.1})   # q >= p+1
    with pytest.raises(InvalidExponents):
        make_family("log", {"p": 2, "q": 2.0})   # log family needs q > p
    with pytest.raises(InvalidExponents):
        make_family("anisotropic", {"exponents": [2, 3.2]})


def test_double_phase_negative_weight_rejected():
    with pytest.raises(NonnegativityViolation):
        make_family("double-phase",
                    {"p": 2, "q": 2.2,
                     "weight": lambda x: np.asarray(x)[..., 0] - 0.5})


# ---------------------------------------------------------------------------
# regularization

def test_regularize_value_oracle():
    # p = q = 2, eps = 0.25, xi = (1,0):
    # flux_1 = 1 + 0.25 * (1+1)^((2+0.25-2)/2) = 1 + 0.25 * 2^0.125
    op = make_family("p-laplacian", {"p": 2})
    rop = regularize(op, 0.25, 0.25)
    expected = 1.0 + 0.25 * 2.0 ** 0.125
    got = eval_flux(rop, X, 0.0, [1.0, 0.0])
    assert abs(got[0] - expected) < 1e-15 and got[1] == 0.0
    # eps-term dot: 0.25 * 2^0.125 >= 0.25 = eps |xi|^(q+eps)
    assert got[0] - 1.0 >= 0.25


def test_regularize_declares_q_plus_eps_and_keeps_m():
    op = make_family("log", {"p": 2, "q": 2.2})
    rop = regularize(op, 0.1, 0.2)
    assert rop.q == pytest.approx(2.3)
    assert rop.p == op.p and rop.m == op.m


def test_regularize_limit_is_monotone_in_eps():
    op = make_family("p-laplacian", {"p": 3})
    rng = np.random.default_rng(1)
    x = rng.random((100, 2))
    u = rng.standard_normal(100)
    xi = rng.standard_normal((100, 2)) * 2
    base = op.flux(x, u, xi)
    first = None
    prev = None
    for eps in (0.2, 0.1, 0.05, 0.025, 0.0125):
        diff = np.linalg.norm(regularize(op, eps, 0.2).flux(x, u, xi) - base,
                              axis=-1)
        if prev is not None:
            assert np.all(diff <= prev + 1e-15)
        else:
            first = diff
        prev = diff
    # the eps-term scales at least linearly in eps: 16x smaller eps gives
    # at least a 16x smaller pointwise difference
    assert np.all(prev <= first / 16.0 + 1e-15)


def test_eps_term_positivity_property():
    # (a_eps - a, xi) >= eps |xi|^(q+eps) on seeded samples, all xi != 0
    op = make_family("log", {"p": 2, "q": 2.2})
    rng = np.random.default_rng(7)
    xi = rng.standard_normal((500, 2)) * rng.uniform(0.01, 10, (500, 1))
    x = rng.random((500, 2))
    u = rng.standard_normal(500)
    for eps in (0.05, 0.2):
        rop = regularize(op, eps, 0.2)
        dot = np.sum((rop.flux(x, u, xi) - op.flux(x, u, xi)) * xi, axis=-1)
        rhs = eps * np.sum(xi * xi, axis=-1) ** ((op.q + eps) / 2.0)
        assert np.all(dot >= rhs - 1e-12)


def test_regularize_rejects_bad_eps0():
    op = make_family("p-laplacian", {"p": 2})  # dim 2: need (2+eps0)/2 < 1.5
    with pytest.raises(InvalidExponents):
        regularize(op, 0.5, 1.1)
    with pytest.raises(InvalidExponents):
        regularize(op, 0.3, 0.2)  # eps > eps0


# ---------------------------------------------------------------------------
# derivative consistency against an independent finite-difference oracle

def _oracle_fd_jacobian(op, x, u, xi, h=1e-6):
    J = np.empty((op.dim, op.dim))
    for j in range(op.dim):
        e = np.zeros(op.dim)
        e[j] = h
        J[:, j] = (op.flux(x, u, xi + e) - op.flux(x, u, xi - e)) / (2 * h)
    return J


@pytest.mark.parametrize("tag,params", [
    ("p-laplacian", {"p": 2}),
    ("p-laplacian", {"p": 3}),
    ("p-laplacian", {"p": 4}),
    ("p-laplacian-degenerate", {"p": 4}),
    ("log", {"p": 2, "q": 2.2}),
    ("log-degenerate", {"p": 3, "q": 3.3}),
    ("anisotropic", {"exponents": [2, 2.5]}),
])
def test_builtin_jacobians_match_fd_oracle(tag, params):
    op = make_family(tag, params)
    rng = np.random.default_rng(3)
    for _ in range(25):
        x = rng.random(2)
        u = float(rng.standard_normal())
        xi = rng.standard_normal(2) * rng.uniform(0.5, 8.0)
        J = eval_dflux_dxi(op, x, u, xi)
        Jfd = _oracle_fd_jacobian(op, x, u, xi)
        scale = max(1.0, np.abs(J).max())
        assert np.abs(J - Jfd).max() / scale < 1e-6


def test_custom_fd_fallback_and_disable():
    def flux(x, u, xi):
        t = np.sum(xi * xi, axis=-1)
        return ((1.0 + t) ** 0.5)[..., None] * xi

    op = make_custom(flux, dim=2, p=3, q=3, m=1, M=2)
    xi = np.array([0.4, -0.3])
    J = eval_dflux_dxi(op, X, 0.0, xi)
    Jo = _oracle_fd_jacobian(op, X, 0.0, xi)
    assert np.abs(J - Jo).max() < 1e-7

    op2 = make_custom(flux, dim=2, p=3, q=3, m=1, M=2, fd_fallback=False)
    with pytest.raises(pq.DerivativeUnavailable):
        eval_dflux_dxi(op2, X, 0.0, xi)


def test_pointwise_custom_operator_is_batchified():
    def flux(x, u, xi):  # single-point signature
        return (1.0 + u * u) * xi

    op = make_custom(flux, dim=2, p=2, q=2, m=1, M=1, vectorized=False)
    xs = np.zeros((4, 2))
    us = np.array([0.0, 1.0, 2.0, 3.0])
    xis = np.tile([1.0, 0.0], (4, 1))
    out = op.flux(xs, us, xis)
    assert np.allclose(out[:, 0], 1.0 + us ** 2)


# ---------------------------------------------------------------------------
# exponent report

def test_validate_assumptions_pass_and_fail():
    op = make_family("log", {"p": 2, "q": 2.2})
    rep = pq.validate_assumptions(op, n=2)
    assert rep.passed
    assert rep.entry("qp-ratio").worst_margin == pytest.approx(1.5 - 1.1)

    # q/p bound is strict: (n=2, p=2, q=3) sits exactly on it and fails
    bad = make_custom(lambda x, u, xi: xi, dim=2, p=2, q=3 - 1e-15, m=1, M=1)
    rep = pq.validate_assumptions(bad, n=2)
    assert not rep.entry("qp-ratio").passed

    # beta = p-1 saturates the strict upper bound
    op_b = make_custom(lambda x, u, xi: xi, dim=2, p=2, q=2, m=1, M=1,
                       beta=1.0)
    rep = pq.validate_assumptions(op_b, n=2)
    assert not rep.entry("beta-upper").passed
    assert rep.entry("beta-lower").passed


def test_validate_assumptions_gamma_s0():
    op = make_family("p-laplacian", {"p": 2})
    rep = pq.validate_assumptions(op, n=2, gamma=2.5, s0=3.0)
    assert rep.entry("gamma-exponent").passed   # 2.5 > 2/(2-1) = 2
    assert rep.entry("s0-exponent").passed      # 3 > 2
    rep2 = pq.validate_assumptions(op, n=2, gamma=2.0, s0=2.0)
    assert not rep2.entry("gamma-exponent").passed
    assert not rep2.entry("s0-exponent").passed


# ---------------------------------------------------------------------------
# JSON descriptors

def test_descriptor_roundtrip_and_unknown_keys():
    op = pq.operator_from_descriptor(DP_DESCRIPTOR)
    assert op.family_tag == "double-phase"
    assert op.descriptor["family"] == "double-phase"
    assert json.dumps(op.descriptor)  # JSON-able

    bad = dict(DP_DESCRIPTOR)
    bad["extra"] = 1
    with pytest.raises(pq.ConfigError):
        pq.operator_from_descriptor(bad)


def _dp_with_dim(coeffs, **top):
    return {"family": "double-phase", "p": 2, "q": 2.2, **top,
            "params": {"dim": 3, "weight": {"type": "affine", "offset": 0.5,
                                            "coeffs": coeffs}}}


def test_descriptor_dim_reaches_functions_and_family():
    op = pq.operator_from_descriptor(_dp_with_dim([1.0, 0.0, 2.0]))
    assert op.dim == 3 and op.domain == pq.unit_box(3)
    x = np.array([[0.5, 0.25, 0.25]])
    xi = np.array([[1.0, 0.0, 0.0]])
    # a = ((1+t)^0 + w(x) (1+t)^0.1) xi with w(x) = 0.5 + x1 + 2 x3 = 1.5
    assert op.flux(x, np.zeros(1), xi)[0, 0] == pytest.approx(
        1.0 + 1.5 * 2.0 ** 0.1)


@pytest.mark.parametrize("desc,message", [
    (_dp_with_dim([1.0, 0.0]), "affine coeffs must have length 3"),
    (_dp_with_dim([1.0, 0.0], domain={"min": [0, 0], "max": [1, 1]}),
     "params dim 3 disagrees with the domain, which has dim 2"),
])
def test_descriptor_dim_conflicts_rejected(desc, message):
    with pytest.raises(pq.ConfigError, match=message):
        pq.operator_from_descriptor(desc)


# ---------------------------------------------------------------------------
# column-wise trailing-axis reductions

def _bits(a):
    return np.asarray(a, float).view(np.uint64)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_dot_and_sq_bitwise_equal_to_numpy(dim):
    from pqelliptic.operators import _dot, _sq

    rng = np.random.default_rng(dim)
    a = rng.standard_normal((500, dim))
    b = rng.standard_normal((500, dim))
    a[3] = 0.0                # an all-zero row
    a[4], b[4] = -0.0, 1.0    # only -0.0 products: numpy's sum gives +0.0
    assert np.array_equal(_bits(_dot(a, b)), _bits(np.sum(a * b, axis=-1)))
    assert np.array_equal(_bits(np.sqrt(_sq(a))),
                          _bits(np.linalg.norm(a, axis=-1)))
    wide = np.broadcast_to(a[:1], (7, dim))   # stride 0, not contiguous
    assert np.array_equal(_bits(_dot(wide, b[:7])),
                          _bits(np.sum(wide * b[:7], axis=-1)))
    back = a[::-2, ::-1]                      # negative strides
    assert np.array_equal(_bits(_sq(back)), _bits(np.sum(back ** 2, axis=-1)))
    blocks = rng.standard_normal((40, 3, dim))
    assert np.array_equal(_bits(_sq(blocks)),
                          _bits(np.sum(blocks * blocks, axis=-1)))


@pytest.mark.parametrize("shape, axes", [
    ((500, 1), 1), ((500, 2), 1), ((500, 3), 1), ((500, 2, 2), 2),
    ((500, 3, 3), 2), ((40, 3, 2, 2), 2), ((40, 3, 2, 2), 3)])
def test_max_abs_bitwise_equal_to_numpy(shape, axes):
    from pqelliptic.operators import _max_abs

    a = np.random.default_rng(len(shape) + axes).standard_normal(shape)
    a[3] = 0.0
    a[5].flat[0] = np.nan
    a[6].flat[-1] = -np.inf
    a[7].flat[-1] = np.nan
    a[7].flat[0] = np.inf
    trailing = tuple(range(-axes, 0))
    got = _max_abs(a, axes)
    assert got.shape == shape[:-axes]
    assert np.array_equal(_bits(got), _bits(np.max(np.abs(a), axis=trailing)))
    wide = np.broadcast_to(a[:1], (9,) + shape[1:])
    assert np.array_equal(_bits(_max_abs(wide, axes)),
                          _bits(np.max(np.abs(wide), axis=trailing)))


# ---------------------------------------------------------------------------
# the radial pair and its regularization

ISOTROPIC = {
    "p-laplacian": {"p": 2.5},
    "p-laplacian-degenerate": {"p": 2.5},
    "log": {"p": 2, "q": 2.2},
    "log-degenerate": {"p": 3, "q": 3.3},
    "variable-exponent": {"pfun": varexp_p, "pmin": 2.0, "pmax": 2.2,
                          "dpfun": varexp_dp},
    "variable-exponent-degenerate": {"pfun": varexp_p, "pmin": 2.0,
                                     "pmax": 2.2, "dpfun": varexp_dp},
    "double-phase": {"p": 2, "q": 2.2, "weight": dp_weight},
}


def _eps_term_added_to_base(op, eps):
    """The regularized flux and dflux_dxi as the base's plus the eps-term,
    the composition for an operator without a radial pair."""
    qe = op.q + eps
    se = (qe - 2.0) / 2.0

    def flux(x, u, xi):
        t = np.sum(xi * xi, axis=-1)
        return op.flux(x, u, xi) + (eps * (1.0 + t) ** se)[..., None] * xi

    def dflux_dxi(x, u, xi):
        t = np.sum(xi * xi, axis=-1)
        w = eps * (1.0 + t) ** se
        c = eps * (qe - 2.0) * (1.0 + t) ** (se - 1.0)
        return (op.dflux_dxi(x, u, xi) + w[..., None, None] * np.eye(op.dim)
                + c[..., None, None] * (xi[..., :, None] * xi[..., None, :]))

    return flux, dflux_dxi


@pytest.mark.parametrize("eps", [0.2, 0.0125])
@pytest.mark.parametrize("tag", sorted(ISOTROPIC))
def test_regularized_radial_pair_agrees_with_base_plus_eps_term(tag, eps):
    op = make_family(tag, ISOTROPIC[tag])
    rop = regularize(op, eps, 0.2)
    assert op.radial is not None and rop.radial is not None
    rng = np.random.default_rng(3)
    x = rng.random((400, 2))
    u = rng.standard_normal(400)
    xi = rng.standard_normal((400, 2)) * 3.0
    xi[:50] = 0.0              # the degenerate variants' singular point
    xi[50:100, 1] = 0.0        # on an axis
    flux, dflux_dxi = _eps_term_added_to_base(op, eps)
    np.testing.assert_allclose(rop.flux(x, u, xi), flux(x, u, xi),
                               rtol=1e-14, atol=0.0)
    np.testing.assert_allclose(rop.dflux_dxi(x, u, xi),
                               dflux_dxi(x, u, xi), rtol=1e-14, atol=0.0)
    # the base's other derivatives are kept
    assert rop.dflux_du is op.dflux_du and rop.dflux_dx is op.dflux_dx


@pytest.mark.parametrize("eps", [0.2, 0.0125])
def test_regularized_operator_without_pair_is_base_plus_eps_term(eps):
    rng = np.random.default_rng(4)
    x = rng.random((400, 2))
    u = rng.standard_normal(400)
    xi = rng.standard_normal((400, 2)) * 3.0
    xi[:50] = 0.0
    t = np.sum(xi * xi, axis=-1)
    for op in (make_family("anisotropic", {"exponents": [2, 2.5]}),
               u_dependent_test_op()):
        rop = regularize(op, eps, 0.2)
        qe = op.q + eps
        w = eps * (1.0 + t) ** ((qe - 2.0) / 2.0)
        c = eps * (qe - 2.0) * (1.0 + t) ** ((qe - 2.0) / 2.0 - 1.0)
        flux = op.flux(x, u, xi) + w[:, None] * xi
        dflux_dxi = op.dflux_dxi(x, u, xi) + (
            w[:, None, None] * np.eye(2)
            + c[:, None, None] * (xi[:, :, None] * xi[:, None, :]))
        assert rop.flux(x, u, xi).tobytes() == flux.tobytes()
        assert rop.dflux_dxi(x, u, xi).tobytes() == dflux_dxi.tobytes()


def test_regularize_returns_an_operator_spec(double_phase_op):
    op, eps = double_phase_op, 0.1
    rop = regularize(op, eps, 0.2)
    assert type(rop) is pq.OperatorSpec and op.descriptor is not None
    assert rop.q == op.q + eps and rop.descriptor is None
    assert rop.family_tag == "double-phase+eps" and rop.domain is op.domain
    assert rop.dflux_du is op.dflux_du and rop.dflux_dx is op.dflux_dx
    # the composed pair: the base's plus the eps-term's weight
    qe = op.q + eps
    x, u, t = np.array([[0.3, 0.7]]), np.zeros(1), np.array([2.0])
    (w, wt), (bw, bwt) = rop.radial, op.radial
    assert w(x, u, t) == bw(x, u, t) + eps * (1.0 + t) ** ((qe - 2.0) / 2.0)
    assert wt(x, u, t) == (bwt(x, u, t) + 0.5 * eps * (qe - 2.0)
                           * (1.0 + t) ** ((qe - 2.0) / 2.0 - 1.0))


def test_custom_dim_must_match_domain():
    with pytest.raises(pq.ConfigError, match="disagrees with the domain"):
        make_custom(lambda x, u, xi: xi, dim=3, p=2, q=2, m=1, M=1,
                    domain=pq.unit_box(2))
    op = make_custom(lambda x, u, xi: xi, dim=3, p=2, q=2, m=1, M=1)
    assert op.dim == op.domain.dim == 3


def test_operators_without_radial_pair(double_phase_op):
    aniso = make_family("anisotropic", {"exponents": [2, 2.5]})
    custom = make_custom(lambda x, u, xi: xi, dim=2, p=2, q=2, m=1, M=1)
    for op in (aniso, custom, u_dependent_test_op()):
        assert op.radial is None
        assert regularize(op, 0.1, 0.2).radial is None
    # a descriptor keeps its family's pair
    assert double_phase_op.radial is not None
