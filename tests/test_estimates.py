import numpy as np
import pytest

import pqelliptic as pq
from pqelliptic import (DiscreteField, InvalidExponents, build_mesh,
                        compute_alpha, compute_pstar, interpolate,
                        make_family, unit_box)
from pqelliptic.operators import _sq
from pqelliptic.verify import theta_exponent
from conftest import MaskBuilds, constant_rhs


def test_pstar_values():
    assert compute_pstar(3, 2.0, 2.2) == pytest.approx(6.0)   # np/(n-p)
    # p >= n: free choice q+1, lifted above 2p/(p-q+2) when needed
    assert compute_pstar(2, 2.0, 2.0) == pytest.approx(3.0)
    big_theta = 2.0 * 3.0 / (3.0 - 3.9 + 2.0)
    assert compute_pstar(2, 3.0, 3.9) == pytest.approx(big_theta + 1.0)
    with pytest.raises(InvalidExponents):
        compute_pstar(2, 2.0, 3.0)  # q/p at the 1+1/n bound


def test_alpha_values():
    assert compute_alpha(3, 2.0, 2.0) == pytest.approx(1.0)
    assert compute_alpha(3, 2.0, 2.2) == pytest.approx(4.0 / 3.4)
    assert pq.alpha_is_extrapolated(2, 2.0, 2.2)
    assert not pq.alpha_is_extrapolated(3, 2.0, 2.2)
    assert compute_alpha(4, 2.0, 2.4) > 0  # q/p = 1.2 < 1.25, admissible
    with pytest.raises(InvalidExponents):
        compute_alpha(4, 2.0, 2.5)  # q/p sits exactly on 1 + 1/n


def test_alpha_sweep_identity_and_lower_bound():
    rng = np.random.default_rng(99)
    for _ in range(200):
        n = int(rng.integers(2, 6))
        p = float(rng.uniform(2.0, 5.0))
        qmax = min(p + 1.0, p * (1.0 + 1.0 / n)) - 1e-9
        q = float(rng.uniform(p, qmax))
        a = compute_alpha(n, p, q)
        assert a >= 1.0 - 1e-12
        if n > 2:
            assert abs(a / p - 2.0 / ((n + 2) * p - n * q)) < 1e-12


def test_theta_below_pstar_for_admissible_parameters():
    rng = np.random.default_rng(7)
    for _ in range(200):
        n = int(rng.integers(2, 6))
        p = float(rng.uniform(2.0, 5.0))
        qmax = min(p + 1.0, p * (1.0 + 1.0 / n)) - 1e-9
        q = float(rng.uniform(p, qmax))
        beta = float(rng.uniform(0.0, p - 1.0 - 1e-9))
        assert theta_exponent(p, q, beta) < compute_pstar(n, p, q)


# ---------------------------------------------------------------------------
# data bracket

def test_bracket_trivial_and_hand_value():
    op = make_family("p-laplacian", {"p": 2})
    m = build_mesh(2, unit_box(2), 9)
    # a(x,0,0) = 0 and b = 0: bracket = 1
    assert pq.global_lp_rhs(m, op, constant_rhs(0.0), 2.0, 3.0) \
        == pytest.approx(1.0)
    # b = -2 on the unit square: any (p*)'-norm of the constant is 2,
    # bracket = (1 + 0 + 2)^(p/(p-1)) = 9
    assert pq.global_lp_rhs(m, op, constant_rhs(-2.0), 2.0, 3.2) \
        == pytest.approx(9.0)


def test_chunked_bracket_equals_one_pass_bitwise(monkeypatch):
    # a(x, 0, 0) != 0, so both norms of the bracket are nonzero
    op = pq.make_custom(lambda x, u, xi: xi + np.sin(3.0 * x), dim=2, p=2,
                        q=2, m=1, M=1)
    m = build_mesh(2, unit_box(2), 17)

    def b(x):
        return np.cos(3.0 * x[..., 0]) - x[..., 1] ** 2

    xq = m.quad_points
    a0 = np.sqrt(np.sum(op.flux(xq, np.zeros(xq.shape[:-1]),
                                np.zeros_like(xq)) ** 2, axis=-1))
    norms = [np.einsum("e,q,eq->", m.areas, m.quad_frac, np.abs(v) ** r)
             ** (1.0 / r) for v, r in ((a0, 2.0), (b(xq), 1.5))]
    ref = float((1.0 + float(norms[0]) + float(norms[1])) ** 2.0)
    monkeypatch.setattr(pq.fem, "JACOBIAN_CHUNK", 7)
    assert pq.global_lp_rhs(m, op, b, 2.0, 3.0) == ref


def test_bracket_monotone_in_rhs():
    op = make_family("p-laplacian", {"p": 2})
    m = build_mesh(2, unit_box(2), 9)
    vals = [pq.global_lp_rhs(m, op, constant_rhs(-v), 2.0, 3.0)
            for v in (0.5, 1.0, 2.0, 4.0)]
    assert all(b > a for a, b in zip(vals, vals[1:]))


# ---------------------------------------------------------------------------
# uniformity

def _mini_trace(double_phase_op, n=17, steps=3):
    m = build_mesh(2, unit_box(2), n)
    sched = pq.EpsilonSchedule(eps0=0.2, ratio=0.5, steps=steps)
    return pq.continuation_solve(m, double_phase_op, constant_rhs(-2.0),
                                 sched)


def test_check_uniform_lp(double_phase_op):
    tr = _mini_trace(double_phase_op)
    res = pq.check_uniform_lp(tr, bound=1.5)
    assert res.verdict and 1.0 <= res.ratio <= 1.5
    # constant trace has ratio exactly 1
    for s in tr.steps:
        s.lp_gradient = 0.25
    res2 = pq.check_uniform_lp(tr)
    assert res2.ratio == pytest.approx(1.0)


def test_uniform_lp_reports_lhs_over_bracket(double_phase_op):
    tr = _mini_trace(double_phase_op)
    m = tr.mesh
    bracket = pq.global_lp_rhs(m, double_phase_op, constant_rhs(-2.0), tr.p,
                               compute_pstar(2, tr.p, tr.q))
    res = pq.check_uniform_lp(tr, bracket=bracket)
    assert len(res.lhs_over_bracket) == len(tr.steps)
    assert res.lhs_over_bracket[0] == pytest.approx(
        tr.steps[0].lp_gradient ** tr.p / bracket)


# ---------------------------------------------------------------------------
# interior constants

def test_interior_gradient_constant_zero_field():
    m = build_mesh(2, unit_box(2), 9)
    U = DiscreteField(m, np.zeros(m.n_nodes))
    assert pq.interior_constants(U, 2.0, 2.0, 0.25, 0.4)[0] == 0.0


def test_interior_gradient_constant_linear_field_closed_form():
    # |Du| = g constant: c = (R-rho)^n g^(p/alpha) / ((1+g^2)^(p/2) |B_R|),
    # with |B_R| realized as the union of elements with centroid inside
    m = build_mesh(2, unit_box(2), 33)
    g = 2.0
    U = interpolate(m, lambda x: g * x[..., 0])
    p, q, n, rho, R = 2.0, 2.2, 2, 0.25, 0.4
    c, _ = pq.interior_constants(U, p, q, rho, R)
    center = m.box.center
    inside = np.linalg.norm(m.centroids - center, axis=1) <= R
    area_R = m.areas[inside].sum()
    alpha = compute_alpha(n, p, q)
    expected = (R - rho) ** n * g ** (p / alpha) / ((1 + g * g) ** (p / 2)
                                                    * area_R)
    assert c == pytest.approx(expected, rel=1e-12)


def test_interior_gradient_constant_empty_ball_errors():
    m = build_mesh(2, unit_box(2), 5)
    U = DiscreteField(m, np.zeros(m.n_nodes))
    with pytest.raises(pq.MeshError):
        pq.interior_constants(U, 2.0, 2.0, 1e-6, 0.4)


def test_interior_balls_must_lie_in_the_box():
    # B_rho in B_R in Omega, centred in the box: 0 < rho < R < half the
    # smallest width (0.5 here); inf and 1e308 used to reach the power
    m = build_mesh(2, pq.Box((0.0, 0.0), (2.0, 1.0)), 9)
    U = interpolate(m, lambda x: x[..., 0] * x[..., 1])
    assert np.all(np.isfinite(pq.interior_constants(U, 2.0, 2.2, 0.2, 0.45)))
    for rho, R in ((0.25, 0.5), (0.25, 0.55), (0.25, np.inf), (0.25, 1e308),
                   (0.25, np.nan), (0.3, 0.3), (0.0, 0.4), (-0.1, 0.4)):
        with pytest.raises(InvalidExponents, match="half the smallest"):
            pq.interior_constants(U, 2.0, 2.2, rho, R)


def test_second_derivative_constant_linear_is_zero():
    m = build_mesh(2, unit_box(2), 9)
    U = interpolate(m, lambda x: 3.0 * x[..., 0] - x[..., 1])
    assert pq.interior_constants(U, 2.0, 2.0, 0.25, 0.4)[1] == \
        pytest.approx(0.0, abs=1e-20)


def test_second_derivative_constant_x2_hand_oracle():
    # interpolant of x1^2 on a fixed 9x9 grid, q = 2: compute numerator and
    # denominator by explicit loops
    n = 9
    m = build_mesh(2, unit_box(2), n)
    U = interpolate(m, lambda x: x[..., 0] ** 2)
    rho, R = 0.25, 0.4
    _, c = pq.interior_constants(U, 2.0, 2.0, rho, R)

    h = 1.0 / (n - 1)
    G = U.values.reshape(n, n)
    center = np.array([0.5, 0.5])
    num = 0.0
    for i in range(1, n - 1):
        for j in range(1, n - 1):
            xn = np.array([i * h, j * h])
            if np.linalg.norm(xn - center) <= rho:
                dxx = (G[i + 1, j] - 2 * G[i, j] + G[i - 1, j]) / h ** 2
                dyy = (G[i, j + 1] - 2 * G[i, j] + G[i, j - 1]) / h ** 2
                dxy = (G[i + 1, j + 1] - G[i + 1, j - 1]
                       - G[i - 1, j + 1] + G[i - 1, j - 1]) / (4 * h * h)
                num += h * h * (dxx ** 2 + dyy ** 2 + 2 * dxy ** 2)
    den = 0.0
    grads = pq.element_gradients(U)
    for e in range(m.n_elements):
        if np.linalg.norm(m.centroids[e] - center) <= R:
            den += m.areas[e] * (1.0 + grads[e] @ grads[e])
    expected = (R - rho) ** 2 * num / den
    assert c == pytest.approx(expected, rel=1e-12)


def test_constants_are_functions_of_the_field_only(double_phase_op):
    tr = _mini_trace(double_phase_op)
    U = tr.steps[-1].field
    a = pq.interior_constants(U, 2.0, 2.2, 0.25, 0.4)
    b = pq.interior_constants(U.copy(), 2.0, 2.2, 0.25, 0.4)
    assert a == b


def _reference_constants(U, p, q, rho, R, eps):
    """The two constants as separate functions computed them, each with its
    own ball masks, gradients and B_R integral: the float operations that
    estimates.csv was written with."""
    m, n = U.mesh, U.mesh.dim
    center = np.asarray(m.box.center)
    ball = np.sqrt(_sq(m.centroids - center))
    node_ball = np.sqrt(_sq(m.nodes - center))

    def integral(exponent, mask):
        t = _sq(pq.element_gradients(U))[mask]
        return float(np.sum(m.areas[mask] * (1.0 + t) ** (exponent / 2.0)))

    g = np.sqrt(_sq(pq.element_gradients(U)))
    lhs = float(g[ball <= rho].max())
    c_grad = float((R - rho) ** n * lhs ** (p / compute_alpha(n, p, q))
                   / integral(p, ball <= R))
    sem = pq.h2_seminorm(U, node_mask=node_ball <= rho)
    c_hess = float((R - rho) ** 2 * sem ** 2 / integral(q + eps, ball <= R))
    return c_grad, c_hess


@pytest.mark.parametrize("eps", [0.0, 0.05])
def test_interior_constants_equal_the_separate_formulas_bit_for_bit(eps):
    m = build_mesh(2, unit_box(2), 33)
    U = DiscreteField(m, np.random.default_rng(5).standard_normal(m.n_nodes))
    got = pq.interior_constants(U, 2.0, 2.2, 0.25, 0.4, eps=eps)
    want = _reference_constants(U, 2.0, 2.2, 0.25, 0.4, eps)
    assert [v.hex() for v in got] == [v.hex() for v in want]


def test_estimate_report_builds_each_ball_once_and_one_gradient_per_step(
        double_phase_op, monkeypatch):
    tr = _mini_trace(double_phase_op, steps=5)
    tr.mesh.region_masks = masks = MaskBuilds()
    calls = []
    real = pq.fem.element_gradients
    for module in (pq.fem, pq.estimates):
        monkeypatch.setattr(module, "element_gradients",
                            lambda U: calls.append(U) or real(U))
    rep = pq.build_estimate_report(tr, double_phase_op, constant_rhs(-2.0))
    assert len(rep.rows) == 5
    rho, R = rep.params["rho"], rep.params["R"]
    assert sorted(masks.stored) == [("elements", "ball", rho),
                                    ("elements", "ball", R),
                                    ("nodes", "ball", rho)]
    assert len(calls) == 5
    assert all(U is s.field for U, s in zip(calls, tr.steps))


def test_estimate_report(double_phase_op):
    tr = _mini_trace(double_phase_op)
    rep = pq.build_estimate_report(tr, double_phase_op, constant_rhs(-2.0))
    assert rep.uniformity.verdict
    assert len(rep.rows) == len(tr.steps)
    for row in rep.rows:
        assert np.isfinite(row["c_gradient"]) and np.isfinite(row["c_hessian"])
    assert rep.gradient_constant_ratio <= 2.0
    assert rep.hessian_constant_ratio <= 2.0
    assert rep.params["alpha_extrapolated"]  # n = 2, q > p
