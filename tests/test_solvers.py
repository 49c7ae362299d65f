import logging
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import pqelliptic as pq
from pqelliptic import (EpsilonSchedule, InvalidExponents, NewtonConfig,
                        NonConvergence, SingularJacobian, Unsupported,
                        build_mesh, make_family, unit_box, zero_field)
from pqelliptic.fem import scatter_matrix
from pqelliptic.solvers import _LinearSolves, _stiffness_blocks
from conftest import constant_rhs


def test_newton_1d_poisson_nodal_exactness():
    # b = -2 with div a(Du) = b and a = Du gives u = x(1-x); P1 collocates
    # the 1D Green's function, so nodal values are exact
    op = make_family("p-laplacian", {"p": 2, "domain": unit_box(1)})
    m = build_mesh(1, unit_box(1), 33)
    U, stats = pq.newton_solve(m, op, constant_rhs(-2.0), zero_field(m))
    assert stats.iterations == 1  # linear problem
    x = m.nodes[:, 0]
    assert np.abs(U.values - x * (1.0 - x)).max() < 1e-12


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
# per-solve work: one rhs evaluation, a factor reused through CG, one factor
# per continuation run

def test_rhs_evaluated_once_per_solve():
    op = make_family("p-laplacian", {"p": 4})
    m = build_mesh(2, unit_box(2), 17)
    calls = []

    def b(x):
        calls.append(1)
        return np.full(np.shape(x)[:-1], -2.0)

    U0 = pq.p2_presolve(m, b)
    calls.clear()
    _, stats = pq.newton_solve(m, op, b, U0)
    assert stats.iterations > 1 and len(calls) == 1
    calls.clear()
    _, stats = pq.fixed_point_solve(m, op, b, U0)
    assert stats.iterations > 1 and len(calls) == 1


def _weighted_stiffness(m, weights):
    return scatter_matrix(m, weights[:, None, None] * _stiffness_blocks(m))


def test_sparse_solve_reuses_nearby_factor_through_cg():
    m = build_mesh(2, unit_box(2), 17)
    rng = np.random.default_rng(4)
    A = _weighted_stiffness(m, np.ones(m.n_elements))
    B = _weighted_stiffness(m, 1.0 + 0.2 * rng.random(m.n_elements))
    rhs = rng.standard_normal(m.interior.size)
    solves = _LinearSolves()
    solves.solve(A, rhs)
    lu = solves.lu
    sol = solves.solve(B, rhs)
    assert solves.lu is lu
    assert solves.factorizations == 1 and solves.cg_iterations > 0
    fresh = _LinearSolves().solve(B, rhs)
    np.testing.assert_allclose(sol, fresh, rtol=0, atol=1e-10)


class _Factor:
    """A SuperLU factor that a weak reference can follow."""

    def __init__(self, lu):
        self._lu = lu

    def solve(self, rhs):
        return self._lu.solve(rhs)


def test_sparse_solve_falls_back_to_lu_with_unrelated_factor(monkeypatch):
    m = build_mesh(2, unit_box(2), 17)
    rng = np.random.default_rng(5)
    A = _weighted_stiffness(m, np.ones(m.n_elements))
    n = m.interior.size
    D = sp.diags(10.0 ** rng.uniform(-6, 6, n)).tocsr()
    rhs = rng.standard_normal(n)
    solves = _LinearSolves()
    factors, at_call = [], []
    real_splu = spla.splu

    def splu(*args, **kwargs):
        # what is alive when a new factor is made: the held one, and any
        # earlier factor that something else still references
        at_call.append((solves.lu, [f() for f in factors]))
        factor = _Factor(real_splu(*args, **kwargs))
        factors.append(weakref.ref(factor))
        return factor

    monkeypatch.setattr(spla, "splu", splu)
    solves.solve(D, rhs)
    sol = solves.solve(A, rhs)  # CG with D's factor fails: a new factor
    assert solves.cg_iterations > 0 and solves.factorizations == 2
    assert at_call == [(None, []), (None, [None])]
    np.testing.assert_allclose(A @ sol, rhs, rtol=0, atol=1e-10)
    np.testing.assert_array_equal(solves.lu.solve(rhs), sol)
    # a singular J breaks CG down (quietly) and then fails to factor
    with pytest.raises(SingularJacobian):
        solves.solve(sp.csr_matrix(A.shape), rhs)
    assert solves.lu is None and solves.factorizations == 2


def test_continuation_factors_once_per_run(double_phase_op, monkeypatch,
                                           caplog):
    calls = []
    real_splu = spla.splu

    def splu(*args, **kwargs):
        calls.append(1)
        return real_splu(*args, **kwargs)

    monkeypatch.setattr(spla, "splu", splu)
    m = build_mesh(2, unit_box(2), 17)
    with caplog.at_level(logging.INFO, logger="pq.solve"):
        tr = pq.continuation_solve(m, double_phase_op, constant_rhs(-2.0),
                                   EpsilonSchedule(eps0=0.2))
    # the p = 2 presolve and the first Newton step; later steps run CG
    assert len(calls) == 2
    assert [s.stats.iterations for s in tr.steps] == [3, 2, 2, 2, 2]
    assert [s.stats.backtracks for s in tr.steps] == [0] * 5
    lines = [r.getMessage() for r in caplog.records
             if r.getMessage().startswith("linear solves")]
    assert len(lines) == 1
    assert lines[0].startswith("linear solves over 5 eps steps: 1 LU, ")


# ---------------------------------------------------------------------------
# fixed point

def test_fixed_point_p2_first_iterate_is_solution():
    op = make_family("p-laplacian", {"p": 2})
    m = build_mesh(2, unit_box(2), 17)
    U, stats = pq.fixed_point_solve(m, op, constant_rhs(-2.0), zero_field(m))
    assert stats.iterations == 1 and stats.converged
    Un, _ = pq.newton_solve(m, op, constant_rhs(-2.0), zero_field(m))
    assert pq.w12_distance(U, Un) < 1e-12


def test_fixed_point_agrees_with_newton_p4():
    op = make_family("p-laplacian", {"p": 4})
    case = pq.builtin_case("sine2d", op)
    m = build_mesh(2, unit_box(2), 33)
    U0 = pq.p2_presolve(m, case.b_field)
    Un, _ = pq.newton_solve(m, op, case.b_field, U0)
    Uf, _ = pq.fixed_point_solve(m, op, case.b_field, U0)
    assert pq.w12_distance(Un, Uf) <= 1e-8


def test_fixed_point_unsupported_for_anisotropic():
    op = make_family("anisotropic", {"exponents": [2, 2.5]})
    m = build_mesh(2, unit_box(2), 9)
    with pytest.raises(Unsupported):
        pq.fixed_point_solve(m, op, constant_rhs(-1.0), zero_field(m))


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


def test_newton_config_rejects_nonpositive_and_nan_tolerances():
    for tol in (0.0, -1.0, float("nan")):
        with pytest.raises(ValueError):
            NewtonConfig(abs_tol=tol)
        with pytest.raises(ValueError):
            NewtonConfig(rel_tol=tol)


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
    tr2 = pq.ContinuationTrace.from_dict(d)
    assert np.array_equal(tr2.final_field.values, tr.final_field.values)
    assert tr2.epsilons == tr.epsilons


def test_continuation_propagates_failure_with_partial_trace(double_phase_op):
    m = build_mesh(2, unit_box(2), 9)
    cfg = NewtonConfig(max_iters=1, max_backtracks=1)
    with pytest.raises(NonConvergence) as err:
        pq.continuation_solve(m, double_phase_op, constant_rhs(-200.0),
                              EpsilonSchedule(eps0=0.2, steps=3), cfg,
                              u0="zero")
    assert err.value.trace is not None
