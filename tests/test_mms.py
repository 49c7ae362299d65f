import dataclasses
import logging
import math
import tracemalloc

import numpy as np
import pytest

import pqelliptic as pq
from pqelliptic import (DiscreteField, InconsistentExactData, MeshError,
                        build_mesh, builtin_case, convergence_study,
                        make_family, make_manufactured, unit_box)
from pqelliptic.mms import _refined_errors
from conftest import assert_rhs_tiles_quad_points


def _zero_boundary(mesh, f):
    """The nodal values of f, zero on the boundary."""
    return DiscreteField(mesh, np.where(mesh.boundary_mask, 0.0,
                                        f(mesh.nodes)))


def test_quad1d_rhs_is_minus_two():
    # u* = x(1-x), a = Du: b = div Du* = u*'' = -2
    op = make_family("p-laplacian", {"p": 2, "domain": unit_box(1)})
    case = builtin_case("quad1d", op)
    x = np.linspace(0.1, 0.9, 7)[:, None]
    np.testing.assert_allclose(case.b_field(x), -2.0, rtol=1e-12)
    assert case.provenance == "analytic"


def test_sine2d_rhs_hand_value():
    # p = 2: b = laplace(u*) = -2 pi^2 sin(pi x) sin(pi y)
    op = make_family("p-laplacian", {"p": 2})
    case = builtin_case("sine2d", op)
    rng = np.random.default_rng(0)
    x = rng.uniform(0.1, 0.9, (40, 2))
    expected = -2.0 * np.pi ** 2 * np.sin(np.pi * x[:, 0]) * np.sin(np.pi * x[:, 1])
    np.testing.assert_allclose(case.b_field(x), expected, rtol=1e-10)


def test_zero_exact_solution_gives_zero_rhs():
    op = make_family("p-laplacian", {"p": 3})

    def u(x):
        return np.zeros(np.shape(x)[:-1])

    def du(x):
        return np.zeros(np.shape(x))

    case = make_manufactured(op, u, du)
    x = np.random.default_rng(1).uniform(0.2, 0.8, (20, 2))
    np.testing.assert_allclose(case.b_field(x), 0.0, atol=1e-9)


def test_numeric_divergence_agrees_with_analytic():
    op = make_family("p-laplacian", {"p": 4})
    analytic = builtin_case("sine2d", op)

    numeric = make_manufactured(op, analytic.u_exact, analytic.du_exact)
    assert numeric.provenance == "numeric-divergence"
    x = np.random.default_rng(2).uniform(0.15, 0.85, (50, 2))
    a = analytic.b_field(x)
    b = numeric.b_field(x)
    assert np.abs(a - b).max() / max(1.0, np.abs(a).max()) < 1e-6


def test_inconsistent_exact_data_rejected():
    op = make_family("p-laplacian", {"p": 2})

    def u(x):
        return np.sin(np.pi * x[..., 0]) * np.sin(np.pi * x[..., 1])

    def bad_du(x):
        return np.zeros(np.shape(x))

    with pytest.raises(InconsistentExactData):
        make_manufactured(op, u, bad_du)


# ---------------------------------------------------------------------------
# convergence studies

def test_convergence_orders_p2_sine2d():
    op = make_family("p-laplacian", {"p": 2})
    res = convergence_study(op, "sine2d", [9, 17, 33, 65])
    assert min(res.l2_orders) >= 1.9
    assert min(res.w12_orders) >= 0.95


def test_nodal_exactness_quadratic_1d():
    op = make_family("p-laplacian", {"p": 2, "domain": unit_box(1)})
    case = builtin_case("quad1d", op)
    for n in (9, 17, 33):
        mesh = build_mesh(1, unit_box(1), n)
        U, _ = pq.newton_solve(mesh, op, case.b_field, pq.zero_field(mesh))
        x = mesh.nodes[:, 0]
        assert np.abs(U.values - x * (1 - x)).max() < 1e-12


def test_convergence_orders_p4_regression_band():
    # nonlinear rate is not claimed by the theory; accepted band from a
    # converged regression run
    op = make_family("p-laplacian", {"p": 4})
    res = convergence_study(op, "sine2d", [9, 17, 33])
    assert min(res.l2_orders) >= 1.7


def test_interpolant_residual_consistency():
    # residual of the interpolant of u* with the manufactured b vanishes
    # under refinement at second order (max-norm over interior entries)
    op = make_family("p-laplacian", {"p": 2})
    case = builtin_case("sine2d", op)
    norms = []
    for n in (9, 17, 33, 65):
        mesh = build_mesh(2, unit_box(2), n)
        U = _zero_boundary(mesh, case.u_exact)
        R = pq.assemble_residual(mesh, op, case.b_field, U)
        norms.append(np.abs(R).max())
    orders = [np.log2(a / b) for a, b in zip(norms, norms[1:])]
    assert min(orders) >= 1.5


def test_study_input_validation():
    op = make_family("p-laplacian", {"p": 2})
    with pytest.raises(ValueError):
        convergence_study(op, "sine2d", [9, 17])
    with pytest.raises(ValueError):
        convergence_study(op, "sine2d", [17, 9, 33])


def test_builtin_case_dimension_guard():
    op = make_family("p-laplacian", {"p": 2})
    with pytest.raises(InconsistentExactData):
        builtin_case("quad1d", op)
    with pytest.raises(InconsistentExactData):
        builtin_case("nope", op)


@pytest.mark.parametrize("dim", [1, 2])
def test_refined_errors_vanish_for_linear_exact_solution(dim):
    # u* = 1 + 2x - y is in the P1 space, so its interpolant has no error
    slope = np.array([2.0, -1.0])[:dim]

    def u(x):
        return 1.0 + x @ slope

    def du(x):
        return np.broadcast_to(slope, np.shape(x)).copy()

    case = pq.ManufacturedCase(name="linear", u_exact=u, du_exact=du,
                               b_field=None, provenance="analytic")
    mesh = build_mesh(dim, unit_box(dim), 9)
    l2, w12 = _refined_errors(mesh, DiscreteField(mesh, u(mesh.nodes)), case)
    assert l2 < 1e-13 and w12 < 1e-13


@pytest.mark.parametrize("name,dim", [("quad1d", 1), ("sine2d", 2)])
def test_refined_errors_match_the_rule_with_coincident_points(name, dim):
    # reference: every point of the mesh rule in every child, shared or not
    op = make_family("p-laplacian", {"p": 3, "domain": unit_box(dim)})
    case = builtin_case(name, op)
    mesh = build_mesh(dim, unit_box(dim), 9)
    U = _zero_boundary(mesh, lambda x: 1.1 * case.u_exact(x))
    split = pq.fem.SIMPLICES[dim]
    bary = np.einsum("qk,ckv->cqv", split.quad_bary,
                     split.children).reshape(-1, dim + 1)
    frac = np.tile(split.quad_frac, len(split.children)) / len(split.children)
    uh_vert, grad = U.values[mesh.elements], pq.element_gradients(U)
    l2 = grad2 = 0.0
    for b, w in zip(bary, frac):
        x = b @ mesh.nodes[mesh.elements]
        l2 += np.sum(w * mesh.areas * (uh_vert @ b - case.u_exact(x)) ** 2)
        grad2 += np.sum(w * mesh.areas
                        * np.sum((grad - case.du_exact(x)) ** 2, axis=-1))
    assert _refined_errors(mesh, U, case) == pytest.approx(
        (np.sqrt(l2), np.sqrt(l2 + grad2)), rel=1e-13)


def _refined_rule(dim):
    """The refined rule's distinct barycentric points and their weights."""
    split = pq.fem.SIMPLICES[dim]
    bary = np.einsum("qk,ckv->cqv", split.quad_bary,
                     split.children).reshape(-1, dim + 1)
    bary, which = np.unique(bary, axis=0, return_inverse=True)
    return bary, np.bincount(which.ravel(), np.tile(
        split.quad_frac, len(split.children))) / len(split.children)


def _whole_mesh_refined_errors(mesh, U, case):
    """_refined_errors in one pass over the mesh: a (points, E, dim) array
    of refined points and one gather of the vertex values."""
    bary, frac = _refined_rule(mesh.dim)
    uh_vert = U.values[mesh.elements]
    grad = pq.element_gradients(U)
    points = np.tensordot(bary, mesh.nodes[mesh.elements], axes=(1, 1))
    l2 = np.zeros(mesh.n_elements)
    w12g = np.zeros(mesh.n_elements)
    for xq, uh, wq in zip(points, bary @ uh_vert.T, frac):
        weight = wq * mesh.areas
        u, du = case.jet(xq, 1)
        l2 += weight * (uh - u) ** 2
        w12g += weight * np.sum((grad - du) ** 2, axis=-1)
    return float(np.sqrt(l2.sum())), float(np.sqrt(l2.sum() + w12g.sum()))


@pytest.mark.parametrize("name,dim", [("quad1d", 1), ("sine2d", 2)])
def test_chunked_refined_errors_equal_one_pass_bitwise(monkeypatch, name,
                                                       dim):
    # the kernel holds JACOBIAN_CHUNK points, so this gives chunks of 7
    # elements: in 1D two classes of 14, since a one-element chunk can
    # round its refined points differently (a matrix-vector product), and
    # in 2D classes of 64, each with a ragged last chunk
    op = make_family("p-laplacian", {"p": 3, "domain": unit_box(dim)})
    case = builtin_case(name, op)
    mesh = build_mesh(dim, unit_box(dim), 29 if dim == 1 else 17)
    U = _zero_boundary(mesh, lambda x: 1.1 * case.u_exact(x) + 0.01)
    monkeypatch.setattr(pq.fem, "JACOBIAN_CHUNK",
                        7 * len(_refined_rule(dim)[0]))
    assert _refined_errors(mesh, U, case) == _whole_mesh_refined_errors(
        mesh, U, case)


def _traced_peak(fn):
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def sine2d_129(double_phase_op):
    case = builtin_case("sine2d", double_phase_op)
    mesh = build_mesh(2, double_phase_op.domain, 129)
    return mesh, case


def test_refined_errors_peak_memory_stays_chunk_sized(sine2d_129):
    # a whole-mesh pass held the (9, E, 2) refined points and the vertex
    # values: 49 (E,) float arrays at the peak
    mesh, case = sine2d_129
    U = DiscreteField(mesh, case.u_exact(mesh.nodes))
    _, peak = _traced_peak(lambda: _refined_errors(mesh, U, case))
    assert peak <= 16 * 8 * mesh.n_elements, peak / (8 * mesh.n_elements)


def test_rhs_peak_memory_stays_chunk_sized(sine2d_129):
    # the analytic rhs on all E * nq points at once peaked at 19x its result
    mesh, case = sine2d_129
    bq, peak = _traced_peak(lambda: pq.fem._b_at_quad(mesh, case.b_field))
    assert peak <= 5 * bq.nbytes, peak / bq.nbytes


def test_bump2d_rhs_hand_value():
    # p = 2: b = laplace(u*) = -2 [y(1-y) + x(1-x)], -0.9 at (0.3, 0.6)
    op = make_family("p-laplacian", {"p": 2})
    case = builtin_case("bump2d", op)
    assert case.b_field(np.array([[0.3, 0.6]]))[0] == pytest.approx(-0.9,
                                                                    rel=1e-12)


@pytest.mark.parametrize("name,box", [
    ("quad1d", pq.Box((-1.0,), (2.0,))),
    ("sine2d", pq.Box((-1.0, 0.5), (2.0, 1.0))),
    ("bump2d", pq.Box((-1.0, 0.5), (2.0, 1.0))),
])
def test_builtin_cases_on_non_square_box(name, box):
    # make_manufactured spot-checks Du and b against finite differences
    op = make_family("p-laplacian", {"p": 3, "domain": box})
    case = builtin_case(name, op)
    assert case.provenance == "analytic"
    x = box.shrink(0.1).lattice(5)
    corners = box.lattice(2)
    np.testing.assert_allclose(case.u_exact(corners), 0.0, atol=1e-15)
    h = 1e-5 * box.widths
    fd = np.stack([(case.du_exact(x + h * e) - case.du_exact(x - h * e))
                   / (2.0 * h @ e) for e in np.eye(box.dim)], axis=-1)
    np.testing.assert_allclose(case.hessian_exact(x), fd, rtol=1e-6,
                               atol=1e-6)


def _separate_closures(name, op):
    """u*, Du* and D^2 u* of a built-in case as three closures, each
    evaluating the profile itself."""
    f, df, ddf = {
        "sine": (lambda s: np.sin(np.pi * s),
                 lambda s: np.pi * np.cos(np.pi * s),
                 lambda s: -np.pi ** 2 * np.sin(np.pi * s)),
        "bump": (lambda s: s * (1.0 - s), lambda s: 1.0 - 2.0 * s,
                 lambda s: np.full(np.shape(s), -2.0)),
    }[pq.mms.BUILTIN_CASES[name][0]]
    lo, w, dim = np.asarray(op.domain.lo), np.asarray(op.domain.widths), op.dim

    def prod(F, *skip):
        return math.prod(F[k] for k in range(dim) if k not in skip)

    def u(x):
        return prod([f((x[..., k] - lo[k]) / w[k]) for k in range(dim)])

    def du(x):
        s = [(x[..., k] - lo[k]) / w[k] for k in range(dim)]
        F = [f(sk) for sk in s]
        return np.stack([df(s[i]) / w[i] * prod(F, i) for i in range(dim)],
                        axis=-1)

    def hess(x):
        s = [(x[..., k] - lo[k]) / w[k] for k in range(dim)]
        F = [f(sk) for sk in s]
        D1 = [df(sk) / wk for sk, wk in zip(s, w)]
        H = np.empty(s[0].shape + (dim, dim))
        for i in range(dim):
            H[..., i, i] = ddf(s[i]) / w[i] ** 2 * prod(F, i)
            for j in range(i + 1, dim):
                H[..., i, j] = H[..., j, i] = D1[i] * D1[j] * prod(F, i, j)
        return H

    return u, du, hess


@pytest.mark.parametrize("name,box", [
    ("quad1d", pq.Box((-1.0,), (2.0,))),
    ("sine2d", pq.Box((-1.0, 0.5), (2.0, 1.0))),
    ("bump2d", unit_box(2)),
])
def test_builtin_jet_equals_separate_profile_evaluations(name, box,
                                                         monkeypatch):
    op = make_family("p-laplacian", {"p": 3, "domain": box})
    case = builtin_case(name, op)
    x = box.shrink(0.05).lattice(7)
    ref = _separate_closures(name, op)
    for got, want in zip(case.jet(x), ref):
        assert got.shape == want(x).shape
        assert got.tobytes() == want(x).tobytes()
    # one profile evaluation per axis, for the rhs and for the errors
    profile, dim = pq.mms.BUILTIN_CASES[name]
    calls = []
    real = pq.mms.PROFILES[profile]
    monkeypatch.setitem(pq.mms.PROFILES, profile,
                        lambda s: calls.append(1) or real(s))
    case = builtin_case(name, op)
    calls.clear()
    case.b_field(x)
    case.jet(x, 1)
    assert len(calls) == 2 * dim


def test_convergence_study_evaluates_rhs_once_per_mesh():
    op = make_family("p-laplacian", {"p": 3})
    case = builtin_case("sine2d", op)
    calls = []

    def b(x):
        calls.append(np.array(x))
        return case.b_field(x)

    convergence_study(op, dataclasses.replace(case, b_field=b), [9, 17, 33])
    assert_rhs_tiles_quad_points(calls, *(build_mesh(2, op.domain, n)
                                          for n in (9, 17, 33)))


# ---------------------------------------------------------------------------
# nested iteration

UNIT_SQUARE = {"min": [0, 0], "max": [1, 1]}

#: The five families of the structural zoo, each on the unit square.
ZOO = {
    "double-phase": {"family": "double-phase", "p": 2, "q": 2.2, "params": {
        "weight": {"type": "affine", "coeffs": [1.0, 0.0], "offset": 0.0}}},
    "log": {"family": "log", "p": 2, "q": 2.2},
    "variable-exponent": {"family": "variable-exponent", "params": {
        "pfun": {"type": "affine", "offset": 2.0, "coeffs": [0.2, 0.0]},
        "pmin": 2.0, "pmax": 2.2}},
    "anisotropic": {"family": "anisotropic",
                    "params": {"exponents": [2, 2.5]}},
    "p-laplacian-degenerate": {"family": "p-laplacian-degenerate", "p": 4},
}


def _spy(monkeypatch, name):
    """Record the results of ``mms.<name>`` while calling through."""
    real, results = getattr(pq.mms, name), []

    def spy(*args, **kwargs):
        results.append(real(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(pq.mms, name, spy)
    return results


@pytest.mark.parametrize("grids,presolves", [([9, 17, 33, 65], 1),
                                             ([9, 17, 30], 2)])
def test_only_grids_that_do_not_nest_presolve(monkeypatch, grids, presolves):
    # 9 is the first grid; 17 and 33 nest on the grid before them, 30 does
    # not (an even node count has no coarser level)
    calls = _spy(monkeypatch, "p2_presolve")
    convergence_study(make_family("p-laplacian", {"p": 3}), "sine2d", grids)
    assert len(calls) == presolves


@pytest.mark.parametrize("family", sorted(ZOO))
def test_nested_start_errors_match_presolve_start(monkeypatch, family):
    op = pq.operator_from_descriptor({**ZOO[family], "domain": UNIT_SQUARE})
    nested = convergence_study(op, "sine2d", [9, 17, 33])
    # with no multigrid level on any mesh, every grid starts from the
    # pre-solve, as the first one does
    calls = _spy(monkeypatch, "p2_presolve")
    monkeypatch.setattr(pq.mms, "prolongations", lambda mesh: [])
    presolved = convergence_study(op, "sine2d", [9, 17, 33])
    assert len(calls) == 3
    for a, b in zip(nested.rows, presolved.rows):
        assert a.l2_error == pytest.approx(b.l2_error, rel=1e-6)
        assert a.w12_error == pytest.approx(b.w12_error, rel=1e-6)


def test_degenerate_p4_nested_start_takes_no_backtracks(monkeypatch):
    solves = _spy(monkeypatch, "newton_solve")
    op = make_family("p-laplacian-degenerate", {"p": 4})
    convergence_study(op, "sine2d", [17, 33, 65])
    assert [stats.backtracks for _, stats in solves] == [0, 0, 0]


def test_study_logs_one_line_per_grid(caplog):
    op = make_family("p-laplacian", {"p": 3})
    with caplog.at_level(logging.INFO, logger="pq.mms"):
        convergence_study(op, "sine2d", [9, 17, 33])
    lines = [r.getMessage() for r in caplog.records if r.name == "pq.mms"]
    assert [line.split(",")[0] for line in lines] == [
        "n=9: start presolve", "n=17: start nested from 9",
        "n=33: start nested from 17"]
    assert "linear solves: 0 multigrid-CG (levels 9)" in lines[0]
    assert "multigrid-CG (levels 33→9)" in lines[2]
    assert all(line.endswith(" direct LU") for line in lines)


def test_grid_sizes_are_checked_before_the_first_solve(monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("newton_solve called")

    monkeypatch.setattr(pq.mms, "newton_solve", no_solve)
    op = make_family("p-laplacian", {"p": 3})
    with pytest.raises(MeshError):
        convergence_study(op, "sine2d", (5, 9, 10_000_000))
