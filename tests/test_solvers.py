import dataclasses
import gc
import logging
import re

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import pqelliptic as pq
from pqelliptic import (EpsilonSchedule, InvalidExponents, NewtonConfig,
                        NonConvergence, SingularJacobian,
                        build_mesh, make_family, unit_box, zero_field)
from pqelliptic.fem import _matrix_pattern, scatter_matrix
from pqelliptic.solvers import (CG_RTOL, MAX_STEPS, _LinearSolves,
                                 _asymmetry)
from conftest import (assert_rhs_tiles_quad_points, constant_rhs, dp_weight,
                      dp_weight_grad, u_dependent_test_op)


def test_newton_1d_poisson_nodal_exactness():
    # b = -2 with div a(Du) = b and a = Du gives u = x(1-x); P1 collocates
    # the 1D Green's function, so nodal values are exact
    op = make_family("p-laplacian", {"p": 2, "domain": unit_box(1)})
    m = build_mesh(1, unit_box(1), 33)
    U, stats = pq.newton_solve(m, op, constant_rhs(-2.0), zero_field(m))
    assert stats.iterations == 1  # linear problem
    x = m.nodes[:, 0]
    assert np.abs(U.values - x * (1.0 - x)).max() < 1e-12


def test_fixed_point_p2_first_iterate_is_solution():
    # p = 2 is linear, so the first Newton iterate is already the fixed
    # point: its step, solved to the forcing term's floor of 0.01 tol / |R|,
    # lands within rounding of the exact linear solve
    op = make_family("p-laplacian", {"p": 2})
    m = build_mesh(2, unit_box(2), 17)
    b = constant_rhs(-2.0)
    U, stats = pq.newton_solve(m, op, b, zero_field(m))
    assert stats.iterations == 1 and stats.converged
    assert pq.w12_distance(U, pq.p2_presolve(m, b)) < 1e-12


def test_fixed_point_accepts_last_iterate_within_tolerance():
    # the one allowed iterate solves the p = 2 problem to rounding, and
    # that last iterate is accepted rather than reported as NonConvergence
    op = make_family("p-laplacian", {"p": 2})
    m = build_mesh(2, unit_box(2), 17)
    U, stats = pq.newton_solve(m, op, constant_rhs(-2.0), zero_field(m),
                               NewtonConfig(max_iters=1))
    assert stats.converged and stats.iterations == 1
    assert stats.residual_norm <= 1e-10


def test_newton_zero_rhs_exits_immediately():
    op = make_family("p-laplacian", {"p": 3})
    m = build_mesh(2, unit_box(2), 9)
    U, stats = pq.newton_solve(m, op, constant_rhs(0.0), zero_field(m))
    assert stats.iterations == 0 and stats.converged
    assert np.all(U.values == 0.0)


def test_newton_p4_manufactured_converges_within_budget():
    op = make_family("p-laplacian", {"p": 4})
    case = pq.builtin_case("sine2d", op)
    m = build_mesh(2, unit_box(2), 33)
    U0 = pq.p2_presolve(m, case.b_field)
    U, stats = pq.newton_solve(m, op, case.b_field, U0)
    assert stats.converged
    assert stats.iterations <= 25  # regression baseline for the 33x33 grid


def test_newton_nonconvergence_carries_best_iterate():
    op = make_family("p-laplacian", {"p": 4})
    case = pq.builtin_case("sine2d", op)
    m = build_mesh(2, unit_box(2), 17)
    cfg = NewtonConfig(max_iters=1)
    with pytest.raises(NonConvergence) as err:
        pq.newton_solve(m, op, case.b_field, zero_field(m), cfg)
    assert err.value.best is not None
    assert err.value.stats.iterations == 1


def test_singular_jacobian():
    # constant flux: Jacobian identically zero
    op = pq.make_custom(lambda x, u, xi: np.ones_like(xi), dim=2,
                        p=2, q=2, m=1, M=1,
                        dflux_dxi=lambda x, u, xi: np.zeros(xi.shape + (2,)),
                        dflux_du=lambda x, u, xi: np.zeros_like(xi),
                        dflux_dx=lambda x, u, xi, s: np.zeros_like(xi))
    m = build_mesh(2, unit_box(2), 5)
    with pytest.raises(SingularJacobian):
        pq.newton_solve(m, op, constant_rhs(1.0), zero_field(m))


def test_residual_strictly_decreases_along_newton():
    op = make_family("p-laplacian", {"p": 4})
    case = pq.builtin_case("sine2d", op)
    m = build_mesh(2, unit_box(2), 17)
    U = zero_field(m)
    norms = [np.linalg.norm(pq.assemble_residual(m, op, case.b_field, U))]
    cfg = NewtonConfig(max_iters=1)
    for _ in range(6):
        try:
            U, stats = pq.newton_solve(m, op, case.b_field, U, cfg)
        except NonConvergence as err:
            U = err.best
        norms.append(np.linalg.norm(pq.assemble_residual(m, op, case.b_field, U)))
    assert all(b < a for a, b in zip(norms, norms[1:]))


# ---------------------------------------------------------------------------
# per-solve work: one rhs evaluation; multigrid-preconditioned CG that factors
# only the coarsest level

def test_rhs_evaluated_once_per_solve(monkeypatch):
    op = make_family("p-laplacian", {"p": 4})
    m = build_mesh(2, unit_box(2), 17)
    monkeypatch.setattr(pq.fem, "JACOBIAN_CHUNK", 50)  # several per class
    calls = []

    def b(x):
        calls.append(np.array(x))
        return np.full(np.shape(x)[:-1], -2.0)

    U0 = pq.p2_presolve(m, b)
    calls.clear()
    _, stats = pq.newton_solve(m, op, b, U0)
    assert stats.iterations > 1 and len(calls) > len(m.classes)
    assert_rhs_tiles_quad_points(calls, m)


def _weighted_stiffness(m, weights):
    """The P1 Laplacian with the element blocks area * G G^T scaled by
    ``weights``, summed as one whole-mesh chunk."""
    blocks = np.concatenate([
        np.broadcast_to(k.area * k.grads @ k.grads.T,
                        (k.elements.stop - k.elements.start, m.dim + 1,
                         m.dim + 1))
        for k in m.classes])
    block = weights[:, None, None] * blocks
    return scatter_matrix(m, [(slice(None), block.reshape(m.n_elements, -1))])


@pytest.mark.parametrize("dim,n", [(1, 17), (2, 17), (2, 65)])
def test_galerkin_coarse_stiffness_is_rediscretized(dim, n):
    # the meshes nest, so P^T K_h P is the stiffness matrix of the coarse mesh
    m = build_mesh(dim, unit_box(dim), n)
    t = pq.fem.prolongations(m)[0]
    coarse = build_mesh(dim, unit_box(dim), t.shape)
    K_c = _weighted_stiffness(coarse, np.ones(coarse.n_elements)).toarray()
    galerkin = (t.PT @ _weighted_stiffness(m, np.ones(m.n_elements))
                @ t.P).toarray()
    assert t.shape == ((n + 1) // 2,) * dim
    assert np.abs(galerkin - K_c).max() <= 1e-14 * np.abs(K_c).max()


def _double_phase_jacobian(op, n):
    m = build_mesh(2, unit_box(2), n)
    U = pq.p2_presolve(m, constant_rhs(-2.0))
    return m, pq.assemble_jacobian(m, pq.regularize(op, 0.1, 0.2), U)


def test_multigrid_cg_matches_direct_lu(double_phase_op):
    m, J = _double_phase_jacobian(double_phase_op, 65)
    rhs = np.random.default_rng(4).standard_normal(m.interior.size)
    solves = _LinearSolves(m)
    sol = solves.solve(J, rhs)
    assert solves.multigrid == 1 and solves.direct == 0
    assert 0 < solves.cg_iterations <= 20
    direct = spla.splu(J.tocsc()).solve(rhs)
    assert np.abs(sol - direct).max() <= 1e-10 * np.abs(direct).max()


def test_failed_multigrid_cg_falls_back_to_direct_lu(monkeypatch):
    m = build_mesh(2, unit_box(2), 17)
    A = _weighted_stiffness(m, np.ones(m.n_elements))
    rhs = np.random.default_rng(5).standard_normal(m.interior.size)
    monkeypatch.setattr(pq.solvers, "CG_MAXITER", 2)
    solves = _LinearSolves(m)
    sol = solves.solve(A, rhs)  # CG stops unconverged after 2 iterations
    assert solves.cg_iterations == 2 and solves.direct == 1
    assert solves.multigrid == 0
    np.testing.assert_allclose(A @ sol, rhs, rtol=0, atol=1e-10)
    # a zero J: its coarsest level fails to factor, and so does J itself
    with pytest.raises(SingularJacobian):
        solves.solve(sp.csr_matrix(A.shape), rhs)
    assert solves.direct == 1 and solves.multigrid == 0


def test_continuation_factors_only_the_coarsest_level(double_phase_op,
                                                      monkeypatch, caplog):
    shapes = []
    real_splu = spla.splu

    def splu(A, *args, **kwargs):
        shapes.append(A.shape)
        return real_splu(A, *args, **kwargs)

    monkeypatch.setattr(spla, "splu", splu)
    m = build_mesh(2, unit_box(2), 65)
    with caplog.at_level(logging.INFO, logger="pq.solve"):
        tr = pq.continuation_solve(m, double_phase_op, constant_rhs(-2.0),
                                   EpsilonSchedule(eps0=0.2))
    # the 9x9 level, 49 unknowns, once per linear solve
    assert shapes and all(max(s) <= 49 for s in shapes)
    assert [s.stats.iterations for s in tr.steps] == [3, 2, 2, 2, 2]
    assert [s.stats.backtracks for s in tr.steps] == [0] * 5
    lines = [r.getMessage() for r in caplog.records
             if r.getMessage().startswith("linear solves")]
    assert len(lines) == 1
    assert lines[0].startswith("linear solves over 5 eps steps: "
                               f"{len(shapes)} multigrid-CG (levels 65\u21929), ")
    assert lines[0].endswith(" CG iterations, 0 direct LU")


def test_mesh_that_cannot_coarsen_is_one_level_direct_lu():
    m = build_mesh(2, unit_box(2), 10)
    assert pq.fem.prolongations(m) == []
    A = _weighted_stiffness(m, np.ones(m.n_elements))
    rhs = np.random.default_rng(5).standard_normal(m.interior.size)
    solves = _LinearSolves(m)
    sol = solves.solve(A, rhs)
    assert solves.direct == 1 and solves.multigrid == 0
    assert solves.cg_iterations == 0
    np.testing.assert_allclose(A @ sol, rhs, atol=1e-10)


def test_nonsymmetric_jacobian_takes_direct_lu():
    op = u_dependent_test_op(beta=1.0)
    m = build_mesh(2, unit_box(2), 17)
    rng = np.random.default_rng(6)
    vals = np.zeros(m.n_nodes)
    vals[m.interior] = rng.standard_normal(m.interior.size)
    J = pq.assemble_jacobian(m, op, pq.DiscreteField(m, vals))
    assert abs(J - J.T).max() > 1e-3
    rhs = rng.standard_normal(m.interior.size)
    solves = _LinearSolves(m)
    sol = solves.solve(J, rhs)
    assert solves.direct == 1 and solves.multigrid == 0
    assert solves.cg_iterations == 0
    np.testing.assert_allclose(J @ sol, rhs, atol=1e-10)


def test_multigrid_solves_leave_no_reference_cycles(double_phase_op):
    m, J = _double_phase_jacobian(double_phase_op, 33)
    rhs = np.ones(m.interior.size)
    solves = _LinearSolves(m)
    solves.solve(J, rhs)  # build the mesh's prolongations first
    gc.collect()
    gc.disable()
    try:
        for _ in range(3):
            solves.solve(J, rhs)
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert solves.multigrid == 4


def _jacobian_at(op, m, f):
    U = pq.interpolate(m, f, zero_boundary=True)
    return pq.assemble_jacobian(m, op, U)


def _bump(x):
    return np.prod(np.sin(np.pi * x), axis=-1)


@pytest.mark.parametrize("dim", [1, 2])
def test_gather_asymmetry_equals_sparse_transpose(dim):
    m = build_mesh(dim, unit_box(dim), 17)
    transpose = _matrix_pattern(m)[3]
    assert transpose.dtype == np.int32
    assert np.array_equal(transpose[transpose], np.arange(transpose.size))
    double_phase = make_family("double-phase", {
        "p": 2, "q": 2.2, "weight": dp_weight, "grad_weight": dp_weight_grad,
        "domain": unit_box(dim)})
    J = _jacobian_at(double_phase, m, _bump)
    assert _asymmetry(m, J) == abs(J - J.T).max()
    assert _asymmetry(m, J) <= 1e-12 * abs(J).max()
    K = _jacobian_at(u_dependent_test_op(beta=1.0, dim=dim), m, _bump)
    assert _asymmetry(m, K) == abs(K - K.T).max() > 1e-3
    # off the mesh's pattern: the zero matrix has no nonzeros at all
    assert _asymmetry(m, sp.csr_matrix(J.shape)) == np.inf


def test_symmetric_jacobian_at_257_takes_multigrid(double_phase_op):
    # at 257^2, row * n + column keys of the 255^2 interior unknowns pass
    # the int32 range, (255^2)^2 > 2^31: a transpose permutation built from
    # int32 keys sends every solve there to the direct LU
    m = build_mesh(2, unit_box(2), 257)
    J = _jacobian_at(pq.regularize(double_phase_op, 0.1, 0.2), m, _bump)
    assert _asymmetry(m, J) <= 1e-12 * abs(J).max()
    solves = _LinearSolves(m)
    rhs = np.ones(m.interior.size)
    sol = solves.solve(J, rhs, rtol=1e-6)
    assert solves.multigrid == 1 and solves.direct == 0
    assert np.linalg.norm(J @ sol - rhs) <= 1e-6 * np.linalg.norm(rhs)


def _continuation_65(op, caplog):
    """The 65^2 double-phase run and its total CG iterations."""
    m = build_mesh(2, unit_box(2), 65)
    with caplog.at_level(logging.DEBUG, logger="pq.solve"):
        tr = pq.continuation_solve(m, op, constant_rhs(-2.0),
                                   EpsilonSchedule(eps0=0.2))
    line, = [r.getMessage() for r in caplog.records
             if r.getMessage().startswith("linear solves")]
    return tr, int(re.search(r"(\d+) CG iterations", line).group(1))


def test_newton_solves_to_the_forcing_term(double_phase_op, monkeypatch,
                                           caplog):
    forcing = []
    real_forcing_term = pq.solvers._forcing_term

    def forcing_term(residuals, tol):
        forcing.append(real_forcing_term(residuals, tol))
        return forcing[-1]

    monkeypatch.setattr(pq.solvers, "_forcing_term", forcing_term)
    tr, inexact = _continuation_65(double_phase_op, caplog)
    debug = [r.getMessage() for r in caplog.records
             if r.getMessage().startswith("linear solve: mg-cg")]
    # the pre-solve to CG_RTOL, then one solve per Newton iteration
    assert len(debug) == 1 + len(forcing) == 12
    assert debug[0].endswith(f" to rtol {CG_RTOL:.1e}")
    for line, eta in zip(debug[1:], forcing):
        assert line.endswith(f" to rtol {eta:.1e}")
        assert CG_RTOL <= eta <= 0.1
    assert [s.stats.iterations for s in tr.steps] == [3, 2, 2, 2, 2]
    assert [s.stats.backtracks for s in tr.steps] == [0] * 5
    cfg = NewtonConfig()
    for s in tr.steps:
        tol = max(cfg.abs_tol, cfg.rel_tol * s.stats.initial_residual)
        assert s.stats.residual_norm <= tol
        history = s.stats.residuals
        assert len(history) == s.stats.iterations + 1
        assert history[0] == s.stats.initial_residual
        assert history[-1] == s.stats.residual_norm
        assert all(b < a for a, b in zip(history, history[1:]))
        assert "residuals" not in s.stats.to_dict()

    caplog.clear()
    monkeypatch.setattr(pq.solvers, "_forcing_term",
                        lambda residuals, tol: CG_RTOL)
    exact_tr, exact = _continuation_65(double_phase_op, caplog)
    assert inexact < exact
    assert [s.stats.iterations for s in exact_tr.steps] == [3, 2, 2, 2, 2]
    assert pq.w12_distance(tr.final_field, exact_tr.final_field) <= 1e-9


# ---------------------------------------------------------------------------
# schedules and continuation

def test_schedule_validation_and_sequence():
    s = EpsilonSchedule(eps0=0.2, ratio=0.5, steps=5)
    eps = s.epsilons()
    assert np.allclose(eps, 0.2 * 0.5 ** np.arange(5))
    assert np.all(np.diff(eps) < 0)
    for eps0 in (-1.0, float("nan")):
        with pytest.raises(InvalidExponents):
            EpsilonSchedule(eps0=eps0)
    with pytest.raises(InvalidExponents):
        EpsilonSchedule(eps0=0.1, ratio=1.5)


@pytest.mark.parametrize("steps", [1074, 2000, 10 ** 18])
def test_schedule_whose_last_eps_underflows_is_rejected(steps):
    # 0.2 * 0.5^1072 is the last positive double of the sequence; a later
    # eps is 0, which regularize would refuse after every earlier solve
    assert EpsilonSchedule(eps0=0.2, ratio=0.5, steps=1073).epsilons()[-1] > 0
    with pytest.raises(InvalidExponents, match="underflows"):
        EpsilonSchedule(eps0=0.2, ratio=0.5, steps=steps)


def test_schedule_longer_than_max_steps_is_rejected():
    # each step is a Newton solve: a schedule of 1e15 steps whose last eps
    # stays positive could only run out of memory in epsilons(), or of time
    assert EpsilonSchedule(eps0=0.2, ratio=0.999,
                           steps=MAX_STEPS).epsilons()[-1] > 0
    for ratio, steps in ((0.999, MAX_STEPS + 1), (0.999, 100_000),
                         (0.9999999999999999, 10 ** 15)):
        with pytest.raises(InvalidExponents, match="at most"):
            EpsilonSchedule(eps0=0.2, ratio=ratio, steps=steps)


def test_newton_config_rejects_nonpositive_and_nan_tolerances():
    for tol in (0.0, -1.0, float("nan")):
        with pytest.raises(ValueError):
            NewtonConfig(abs_tol=tol)
        with pytest.raises(ValueError):
            NewtonConfig(rel_tol=tol)


def test_newton_config_rejects_infinite_tolerances():
    # an infinite tolerance would stop Newton before its first iteration
    with pytest.raises(ValueError, match="finite"):
        NewtonConfig(abs_tol=np.inf)
    with pytest.raises(ValueError, match="finite"):
        NewtonConfig(rel_tol=np.inf)


def test_continuation_guard_rejects_bad_eps0_before_solving():
    op = make_family("p-laplacian", {"p": 2})
    m = build_mesh(2, unit_box(2), 9)

    def exploding_b(x):
        raise AssertionError("must not be evaluated")

    with pytest.raises(InvalidExponents):
        pq.continuation_solve(m, op, exploding_b,
                              EpsilonSchedule(eps0=2.0, steps=2))


def test_continuation_linear_perturbation_oracle():
    # p = q = 2: the eps-term is a bounded perturbation; solutions are
    # within O(eps) of each other and increments decay ~ schedule.ratio
    op = make_family("p-laplacian", {"p": 2})
    m = build_mesh(2, unit_box(2), 17)
    sched = EpsilonSchedule(eps0=0.2, ratio=0.5, steps=5)
    tr = pq.continuation_solve(m, op, constant_rhs(-2.0), sched)
    incs = tr.increments()
    assert len(incs) == 4
    ratios = [b / a for a, b in zip(incs, incs[1:])]
    assert all(0.3 <= r <= 0.7 for r in ratios)
    # O(eps) distance to the last iterate, calibrated on the first gap
    eps = tr.epsilons
    last = tr.steps[-1].field
    c = pq.w12_distance(tr.steps[0].field, last) / eps[0]
    for k, s in enumerate(tr.steps[:-1]):
        assert pq.w12_distance(s.field, last) <= 2.0 * c * eps[k]


def test_warm_start_single_step_equals_direct_solve_bitwise(double_phase_op):
    m = build_mesh(2, unit_box(2), 17)
    b = constant_rhs(-2.0)
    U0 = pq.p2_presolve(m, b)
    tr = pq.continuation_solve(m, double_phase_op, b,
                               EpsilonSchedule(eps0=0.1, steps=1), u0=U0)
    rop = pq.regularize(double_phase_op, 0.1, 0.1)
    Ud, _ = pq.newton_solve(m, rop, b, U0)
    assert np.array_equal(tr.steps[0].field.values, Ud.values)


def test_discrete_minty_uniqueness_check():
    # strictly monotone u-independent operator: runs from different starts
    # land on the same discrete solution
    op = make_family("p-laplacian", {"p": 4})
    case = pq.builtin_case("sine2d", op)
    m = build_mesh(2, unit_box(2), 17)
    cfg = NewtonConfig()
    Ua, _ = pq.newton_solve(m, op, case.b_field,
                            pq.p2_presolve(m, case.b_field), cfg)
    Ub, _ = pq.newton_solve(m, op, case.b_field, zero_field(m), cfg)
    assert pq.w12_distance(Ua, Ub) <= 10.0 * cfg.abs_tol


def test_continuation_trace_contents(double_phase_op):
    m = build_mesh(2, unit_box(2), 17)
    sched = EpsilonSchedule(eps0=0.2, ratio=0.5, steps=3)
    tr = pq.continuation_solve(m, double_phase_op, constant_rhs(-2.0), sched,
                               meta={"operator": double_phase_op.descriptor,
                                     "rhs": "constant:-2"})
    assert [s.eps for s in tr.steps] == sorted(tr.epsilons, reverse=True)
    assert tr.steps[0].cauchy_increment is None
    for s in tr.steps:
        for v in (s.lp_gradient, s.linf_u_interior,
                  s.linf_gradient_interior, s.h2_interior):
            assert np.isfinite(v)
    # extrapolated field keeps the boundary values at zero
    assert np.all(tr.extrapolated_field.values[m.boundary_mask] == 0.0)
    # serialization roundtrip
    d = tr.to_dict()
    assert all("values" not in s for s in d["steps"])
    tr2 = pq.ContinuationTrace.from_dict(d, _fields(tr))
    assert np.array_equal(tr2.final_field.values, tr.final_field.values)
    assert tr2.epsilons == tr.epsilons


def _fields(trace):
    """The step fields of ``trace`` as one (steps, nodes) array."""
    return np.stack([s.field.values for s in trace.steps])


def _reference_fields(steps):
    """The final and extrapolated fields as continuation_solve stored them
    before both were derived from the steps."""
    u_k = steps[-1].field.values
    if len(steps) == 1:
        return u_k, u_k.copy()
    u_km1 = steps[-2].field.values
    e_k, e_km1 = steps[-1].eps, steps[-2].eps
    return u_k, u_k + (u_k - u_km1) * (e_k / (e_km1 - e_k))


def test_final_and_extrapolated_fields_are_derived_from_the_steps(
        double_phase_op):
    # any trace, also one cut from a longer run or read back from its
    # dict, gives the fields of its own last steps, bit for bit
    m = build_mesh(2, unit_box(2), 17)
    tr = pq.continuation_solve(m, double_phase_op, constant_rhs(-2.0),
                               EpsilonSchedule(eps0=0.2, ratio=0.5, steps=5))
    for k in (1, 2, 5):
        sub = dataclasses.replace(tr, steps=tr.steps[:k])
        final, extrap = _reference_fields(sub.steps)
        for t in (sub, pq.ContinuationTrace.from_dict(sub.to_dict(),
                                                      _fields(sub))):
            assert t.final_field.values.tobytes() == final.tobytes()
            assert t.extrapolated_field.values.tobytes() == extrap.tobytes()
        assert sub.final_field is sub.steps[-1].field
        # never the step's own array, so writing to it leaves the step alone
        assert sub.extrapolated_field is not sub.final_field
    empty = dataclasses.replace(tr, steps=[])
    assert empty.final_field is None and empty.extrapolated_field is None


def test_continuation_computes_interior_masks_once(double_phase_op,
                                                   monkeypatch):
    # pq continuation checks the margin, then every eps step reads the
    # masks of three tracked norms: the distances are computed once
    calls = []
    for name in ("boundary_distance_centroids", "boundary_distance_nodes"):
        real = getattr(pq.fem.Mesh, name)
        monkeypatch.setattr(pq.fem.Mesh, name,
                            lambda self, _r=real, _n=name:
                            calls.append(_n) or _r(self))
    m = build_mesh(2, unit_box(2), 17)
    pq.solvers.interior_margin(m)
    tr = pq.continuation_solve(m, double_phase_op, constant_rhs(-2.0),
                               EpsilonSchedule(eps0=0.2, ratio=0.5, steps=3))
    assert len(tr.steps) == 3
    assert sorted(calls) == ["boundary_distance_centroids",
                             "boundary_distance_nodes"]


def test_continuation_shares_one_linear_solves(double_phase_op,
                                              monkeypatch):
    m = build_mesh(2, unit_box(2), 17)
    seen = []  # the _LinearSolves passed to the pre-solve and each eps step
    real_presolve, real_newton = pq.solvers.p2_presolve, pq.solvers.newton_solve

    def presolve(*args, solves=None, **kwargs):
        seen.append(solves)
        return real_presolve(*args, solves=solves, **kwargs)

    def newton(*args, solves=None, **kwargs):
        seen.append(solves)
        return real_newton(*args, solves=solves, **kwargs)

    monkeypatch.setattr(pq.solvers, "p2_presolve", presolve)
    monkeypatch.setattr(pq.solvers, "newton_solve", newton)
    tr = pq.continuation_solve(m, double_phase_op, constant_rhs(-2.0),
                               EpsilonSchedule(eps0=0.2))
    assert len(tr.steps) == 5
    assert len(seen) == 6 and all(s is seen[0] for s in seen)
    assert isinstance(seen[0], _LinearSolves)


# The hardest cases known for Newton: degenerate fluxes under a large load,
# eps down to 2e-6, from the pre-solve and from zero.
@pytest.mark.parametrize("start", [None, "zero"], ids=["presolve", "zero"])
@pytest.mark.parametrize("family,params", [
    ("p-laplacian-degenerate", {"p": 4}),
    ("log-degenerate", {"p": 3, "q": 3.3})], ids=["p4", "log"])
def test_continuation_newton_alone_on_degenerate_cases(family, params, start):
    op = make_family(family, params)
    m = build_mesh(2, unit_box(2), 33)
    tr = pq.continuation_solve(m, op, constant_rhs(-5000.0),
                               EpsilonSchedule(eps0=0.2, ratio=0.1, steps=6),
                               u0=start)
    assert len(tr.steps) == 6
    assert tr.steps[-1].eps == pytest.approx(2e-6)
    assert all(s.stats.converged for s in tr.steps)
    assert [s.stats.method for s in tr.steps] == ["newton"] * 6


def test_continuation_propagates_failure_with_partial_trace(double_phase_op):
    m = build_mesh(2, unit_box(2), 9)
    cfg = NewtonConfig(max_iters=1, max_backtracks=1)
    with pytest.raises(NonConvergence) as err:
        pq.continuation_solve(m, double_phase_op, constant_rhs(-200.0),
                              EpsilonSchedule(eps0=0.2, steps=3), cfg,
                              u0="zero")
    assert err.value.trace is not None and err.value.trace.steps == []
    assert str(err.value).endswith(" at eps=0.2")
    assert err.value.best is not None
    assert err.value.stats.method == "newton"


@pytest.mark.parametrize("shape,delta,message", [
    ((3, 3), None, "no interior elements"),   # the default, 0.25
    ((4, 4), 0.34, "no interior nodes")])     # nodes at 1/3 and 2/3
def test_continuation_checks_the_margin_before_any_solve(
        double_phase_op, monkeypatch, shape, delta, message):
    def no_solve(*args, **kwargs):
        raise AssertionError("solved on a mesh too coarse for the margin")

    monkeypatch.setattr(pq.solvers, "p2_presolve", no_solve)
    monkeypatch.setattr(pq.solvers, "newton_solve", no_solve)
    m = build_mesh(2, unit_box(2), shape)
    with pytest.raises(pq.MeshError, match=message):
        pq.continuation_solve(m, double_phase_op, constant_rhs(-2.0),
                              EpsilonSchedule(eps0=0.2, steps=2), delta=delta)
