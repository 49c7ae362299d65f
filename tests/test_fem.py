import numpy as np
import pytest

import pqelliptic as pq
from pqelliptic import (DiscreteField, MeshError, QuadratureFailure,
                        assemble_jacobian, assemble_residual, build_mesh,
                        interpolate, make_family, unit_box, zero_field)
from pqelliptic import fem
from pqelliptic.solvers import _LinearSolves
from conftest import constant_rhs


def test_mesh_counts_1d():
    m = build_mesh(1, unit_box(1), 3)
    assert m.n_elements == 2
    assert set(np.flatnonzero(m.boundary_mask)) == {0, 2}


def test_mesh_counts_2d():
    m = build_mesh(2, unit_box(2), 3)
    assert m.n_elements == 8
    assert int(m.boundary_mask.sum()) == 8


def test_mesh_area_partition():
    box = pq.Box((0.0, -1.0), (2.0, 3.0))
    m = build_mesh(2, box, (7, 5))
    assert abs(m.areas.sum() - box.measure) < 1e-12


def _loop_elements(nx, ny):
    tris = []
    for i in range(nx - 1):
        for j in range(ny - 1):
            n00, n10 = i * ny + j, (i + 1) * ny + j
            n01, n11 = i * ny + j + 1, (i + 1) * ny + j + 1
            if (i + j) % 2 == 0:
                tris += [(n00, n10, n11), (n00, n11, n01)]
            else:
                tris += [(n00, n10, n01), (n10, n11, n01)]
    return np.asarray(tris, dtype=np.int64)


@pytest.mark.parametrize("shape", [(3, 5), (4, 4), (9, 7)])
def test_mesh_elements_match_cell_loop(shape):
    m = build_mesh(2, unit_box(2), shape)
    np.testing.assert_array_equal(m.elements, _loop_elements(*shape))


def test_mesh_errors():
    with pytest.raises(MeshError):
        build_mesh(2, unit_box(2), 2)
    with pytest.raises(pq.ConfigError):
        pq.Box((0.0, 0.0), (0.0, 1.0))


def test_quadrature_exact_for_quadratics():
    # monomial integrals over the box, against closed forms
    m = build_mesh(2, unit_box(2), 5)

    def integrate(f):
        vals = f(m.quad_points)
        return float(np.einsum("e,q,eq->", m.areas, m.quad_frac, vals))

    assert integrate(lambda x: np.ones(x.shape[:-1])) == pytest.approx(1.0)
    assert integrate(lambda x: x[..., 0]) == pytest.approx(0.5)
    assert integrate(lambda x: x[..., 0] ** 2) == pytest.approx(1.0 / 3.0)
    assert integrate(lambda x: x[..., 0] * x[..., 1]) == pytest.approx(0.25)

    m1 = build_mesh(1, unit_box(1), 4)

    def integrate1(f):
        vals = f(m1.quad_points)
        return float(np.einsum("e,q,eq->", m1.areas, m1.quad_frac, vals))

    assert integrate1(lambda x: x[..., 0] ** 2) == pytest.approx(1.0 / 3.0)
    assert integrate1(lambda x: x[..., 0] ** 3) == pytest.approx(0.25)


# ---------------------------------------------------------------------------
# assembly

def test_residual_zero_field_constant_rhs_1d():
    # R_j = int b phi_j = -2h for interior hats
    op = make_family("p-laplacian", {"p": 2, "domain": unit_box(1)})
    m = build_mesh(1, unit_box(1), 17)
    R = assemble_residual(m, op, constant_rhs(-2.0), zero_field(m))
    h = 1.0 / 16.0
    np.testing.assert_allclose(R, -2.0 * h, rtol=1e-13)


def test_residual_vanishes_at_discrete_solution():
    op = make_family("p-laplacian", {"p": 2, "domain": unit_box(1)})
    m = build_mesh(1, unit_box(1), 17)
    U, _ = pq.newton_solve(m, op, constant_rhs(-2.0), zero_field(m))
    R = assemble_residual(m, op, constant_rhs(-2.0), U)
    assert np.abs(R).max() < 1e-12


def test_residual_translation_equivariance():
    # x-independent operator, constant rhs: shifting the box leaves the
    # residual of identical nodal data unchanged
    op = make_family("p-laplacian", {"p": 3})
    vals = np.zeros(11 * 11)
    rng = np.random.default_rng(1)
    m0 = build_mesh(2, unit_box(2), 11)
    vals[m0.interior] = rng.standard_normal(m0.interior.size)
    shifted = pq.Box((5.0, -3.0), (6.0, -2.0))
    m1 = build_mesh(2, shifted, 11)
    R0 = assemble_residual(m0, op, constant_rhs(1.0), DiscreteField(m0, vals))
    R1 = assemble_residual(m1, op, constant_rhs(1.0), DiscreteField(m1, vals))
    np.testing.assert_allclose(R0, R1, atol=1e-13)


def test_stiffness_matrix_1d_tridiagonal_oracle():
    op = make_family("p-laplacian", {"p": 2, "domain": unit_box(1)})
    n = 9
    m = build_mesh(1, unit_box(1), n)
    h = 1.0 / (n - 1)
    J = assemble_jacobian(m, op, zero_field(m)).toarray()
    k = n - 2
    oracle = (np.diag(2.0 * np.ones(k)) - np.diag(np.ones(k - 1), 1)
              - np.diag(np.ones(k - 1), -1)) / h
    np.testing.assert_allclose(J, oracle, atol=1e-13)


def _u_dependent_op(dim):
    """a(x, u, xi) = (1 + u^2) xi + u e_1: dflux_du != 0, so J is not
    symmetric."""
    e1 = np.eye(dim)[0]

    def flux(x, u, xi):
        return (1.0 + u ** 2)[..., None] * xi + u[..., None] * e1

    def dflux_dxi(x, u, xi):
        return (1.0 + u ** 2)[..., None, None] * np.eye(dim)

    def dflux_du(x, u, xi):
        return 2.0 * u[..., None] * xi + e1

    return pq.make_custom(flux, dim=dim, p=2, q=2, m=1, M=2,
                          dflux_dxi=dflux_dxi, dflux_du=dflux_du)


@pytest.mark.parametrize("tag,params", [
    ("p-laplacian", {"p": 4}),
    ("double-phase", {"p": 2, "q": 2.2, "weight": lambda x: np.asarray(x)[..., 0]}),
    ("u-dependent", None),
])
def test_jacobian_matches_directional_fd(tag, params):
    op = _u_dependent_op(2) if params is None else make_family(tag, params)
    m = build_mesh(2, unit_box(2), 9)
    rng = np.random.default_rng(0)
    vals = np.zeros(m.n_nodes)
    vals[m.interior] = 0.1 * rng.standard_normal(m.interior.size)
    U = DiscreteField(m, vals)
    J = assemble_jacobian(m, op, U)
    V = rng.standard_normal(m.interior.size)
    h = 1e-6

    def res(v):
        w = np.zeros(m.n_nodes)
        w[m.interior] = v
        return assemble_residual(m, op, constant_rhs(0.0), DiscreteField(m, w))

    fd = (res(vals[m.interior] + h * V) - res(vals[m.interior] - h * V)) / (2 * h)
    rel = np.abs(J @ V - fd).max() / max(np.abs(J @ V).max(), 1e-30)
    assert rel < 1e-6
    if params is None:
        assert abs(J - J.T).max() > 1e-3
    solves = _LinearSolves()
    sol = solves.solve(J, V)
    lu = solves.lu
    np.testing.assert_allclose(J @ sol, V, atol=1e-10)
    # with a factor held, a symmetric J is solved by CG with it; the
    # non-symmetric u-dependent J takes the LU path and a new factor
    sol = solves.solve(J, V)
    np.testing.assert_allclose(J @ sol, V, atol=1e-10)
    assert (solves.lu is lu) == (params is not None)
    assert solves.factorizations == (1 if params is not None else 2)


@pytest.mark.parametrize("dim,n", [(1, 9), (2, 7)])
def test_fixed_pattern_matches_coo_reference(dim, n):
    op = _u_dependent_op(dim)
    m = build_mesh(dim, unit_box(dim), n)
    rng = np.random.default_rng(3)
    vals = np.zeros(m.n_nodes)
    vals[m.interior] = rng.standard_normal(m.interior.size)
    U = DiscreteField(m, vals)
    # reference: per-quadrature-point element blocks, COO scatter
    xi = pq.element_gradients(U)[:, None, :]
    uq = np.einsum("qv,ev->eq", m.quad_bary, vals[m.elements])
    Jq = op.dflux_dxi(m.quad_points, uq, xi)
    au = op.dflux_du(m.quad_points, uq, xi)
    block = m.areas[:, None, None] * (
        np.einsum("q,evi,eqij,ewj->evw", m.quad_frac, m.grads, Jq, m.grads)
        + np.einsum("q,eqd,evd,qw->evw", m.quad_frac, au, m.grads,
                    m.quad_bary))
    nv = m.elements.shape[1]
    rows = np.repeat(m.elements, nv, axis=1).ravel()
    cols = np.tile(m.elements, (1, nv)).ravel()
    dense = np.zeros((m.n_nodes, m.n_nodes))
    np.add.at(dense, (rows, cols), block.ravel())
    touched = np.zeros(dense.shape, bool)
    touched[rows, cols] = True
    interior = np.ix_(m.interior, m.interior)

    J1 = assemble_jacobian(m, op, U)
    np.testing.assert_allclose(J1.toarray(), dense[interior], rtol=1e-13,
                               atol=1e-13)
    assert J1.nnz == touched[interior].sum()
    J2 = assemble_jacobian(m, op, zero_field(m))
    assert np.shares_memory(J1.indptr, J2.indptr)
    assert np.shares_memory(J1.indices, J2.indices)
    assert J1.has_sorted_indices and J1.has_canonical_format


def _one_shot_jacobian(m, op, U):
    """The Jacobian kernel over all elements at once."""
    vals = U.values
    xi = np.einsum("evd,ev->ed", m.grads, vals[m.elements])[:, None, :]
    uq = vals[m.elements] @ m.quad_bary.T
    Jq = op.dflux_dxi(m.quad_points, uq, xi)
    au = op.dflux_du(m.quad_points, uq, xi)
    J_mean = np.einsum("q,eqij->eij", m.quad_frac, Jq)
    au = np.broadcast_to(au, (*uq.shape, m.dim)).transpose(0, 2, 1)
    au_phi = au @ (m.quad_frac[:, None] * m.quad_bary)
    block = m.grads @ (J_mean @ m.grads.transpose(0, 2, 1) + au_phi)
    return fem.scatter_matrix(m, m.areas[:, None, None] * block)


@pytest.mark.parametrize("case", ["1d", "2d", "double-phase-eps",
                                  "u-dependent"])
def test_chunked_jacobian_equals_one_shot_bitwise(monkeypatch,
                                                  double_phase_op, case):
    op = {"1d": make_family("p-laplacian", {"p": 3,
                                            "domain": unit_box(1)}),
          "2d": make_family("p-laplacian", {"p": 4}),
          "double-phase-eps": pq.regularize(double_phase_op, 0.1, 0.2),
          "u-dependent": _u_dependent_op(2)}[case]
    m = build_mesh(op.dim, op.domain, 30 if op.dim == 1 else 9)
    assert m.n_elements > 7 and m.n_elements % 7  # a ragged last chunk
    rng = np.random.default_rng(5)
    vals = np.zeros(m.n_nodes)
    vals[m.interior] = rng.standard_normal(m.interior.size)
    U = DiscreteField(m, vals)
    monkeypatch.setattr(fem, "JACOBIAN_CHUNK", 7)
    J, ref = assemble_jacobian(m, op, U), _one_shot_jacobian(m, op, U)
    for attr in ("data", "indices", "indptr"):
        a, b = getattr(J, attr), getattr(ref, attr)
        assert a.dtype == b.dtype and np.array_equal(a, b), attr


@pytest.mark.parametrize("derivative", ["dflux_dxi", "dflux_du"])
def test_chunked_jacobian_nonfinite_in_late_chunk(monkeypatch, derivative):
    def late_nan(name, x, value):
        """value, with NaN near x_1 = 1 (the last chunks) in ``derivative``"""
        if name == derivative:
            bad = x[..., 0] > 0.9
            value = np.where(bad.reshape(bad.shape + (1,) * (value.ndim - 2)),
                             np.nan, value)
        return value

    op = pq.make_custom(
        lambda x, u, xi: xi, dim=2, p=2, q=2, m=1, M=1,
        dflux_dxi=lambda x, u, xi: late_nan(
            "dflux_dxi", x, np.broadcast_to(np.eye(2), (*u.shape, 2, 2))),
        dflux_du=lambda x, u, xi: late_nan(
            "dflux_du", x, np.zeros((*u.shape, 2))))
    m = build_mesh(2, unit_box(2), 9)
    monkeypatch.setattr(fem, "JACOBIAN_CHUNK", 7)
    first_bad = np.flatnonzero((m.quad_points[..., 0] > 0.9).any(axis=1))[0]
    assert first_bad >= 7 * 10
    with pytest.raises(QuadratureFailure):
        assemble_jacobian(m, op, zero_field(m))


def test_jacobian_symmetric_for_u_independent_gradient_flux():
    op = make_family("p-laplacian", {"p": 4})
    m = build_mesh(2, unit_box(2), 9)
    rng = np.random.default_rng(2)
    vals = np.zeros(m.n_nodes)
    vals[m.interior] = rng.standard_normal(m.interior.size)
    J = assemble_jacobian(m, op, DiscreteField(m, vals))
    assert abs(J - J.T).max() < 1e-13


def test_quadrature_failure_on_nonfinite_flux():
    op = pq.make_custom(lambda x, u, xi: np.full_like(xi, np.nan),
                        dim=2, p=2, q=2, m=1, M=1)
    m = build_mesh(2, unit_box(2), 5)
    with pytest.raises(QuadratureFailure):
        assemble_residual(m, op, constant_rhs(0.0), zero_field(m))


def test_solver_rejects_nonzero_boundary():
    op = make_family("p-laplacian", {"p": 2})
    m = build_mesh(2, unit_box(2), 5)
    U = DiscreteField(m, np.ones(m.n_nodes))
    with pytest.raises(MeshError):
        pq.newton_solve(m, op, constant_rhs(0.0), U)


# ---------------------------------------------------------------------------
# norms

def test_lp_gradient_norm_of_linear_interpolant():
    m = build_mesh(1, unit_box(1), 17)
    U = interpolate(m, lambda x: x[..., 0])
    for p in (2.0, 3.0, 4.5):
        assert pq.lp_gradient_norm(U, p) == pytest.approx(1.0)


def test_lp_gradient_norm_homogeneous_and_monotone_in_domain():
    m = build_mesh(2, unit_box(2), 9)
    rng = np.random.default_rng(3)
    U = DiscreteField(m, rng.standard_normal(m.n_nodes))
    n1 = pq.lp_gradient_norm(U, 2.0)
    n3 = pq.lp_gradient_norm(DiscreteField(m, 3.0 * U.values), 2.0)
    assert n3 == pytest.approx(3.0 * n1)
    inner = pq.lp_gradient_norm(U, 2.0, element_mask=(
        m.boundary_distance_centroids() >= 0.25))
    assert inner <= n1 + 1e-15


def test_h2_seminorm_linear_field_is_zero():
    m = build_mesh(2, unit_box(2), 9)
    U = interpolate(m, lambda x: 1.0 + 2 * x[..., 0] - x[..., 1])
    assert pq.h2_seminorm_interior(U, 0.2) == pytest.approx(0.0, abs=1e-12)


def test_h2_seminorm_quadratic_exact_quotients():
    # interpolant of x^2: pure quotient exactly 2 at interior nodes
    n = 9
    m = build_mesh(1, unit_box(1), n)
    U = interpolate(m, lambda x: x[..., 0] ** 2)
    h = 1.0 / (n - 1)
    sem = pq.h2_seminorm(U)
    # (n-2) interior nodes each contribute h * 2^2
    assert sem == pytest.approx(np.sqrt((n - 2) * h * 4.0))


def test_interior_norms_and_delta_errors():
    m = build_mesh(2, unit_box(2), 9)
    U = interpolate(m, lambda x: x[..., 0])
    assert pq.linf_gradient_interior(U, 0.2) == pytest.approx(1.0)
    with pytest.raises(MeshError):
        pq.linf_gradient_interior(U, 0.49999)
    with pytest.raises(MeshError):
        pq.h2_seminorm_interior(U, 10.0)


def test_mesh_serialization_roundtrip():
    m = build_mesh(2, pq.Box((0.0, 1.0), (2.0, 4.0)), (5, 7))
    d = m.to_dict(include_arrays=True)
    m2 = pq.Mesh.from_dict(d)
    assert np.array_equal(m.nodes, m2.nodes)
    assert np.array_equal(m.elements, m2.elements)
    assert d["nodes"] == m.nodes.tolist()
