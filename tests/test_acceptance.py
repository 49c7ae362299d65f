"""Acceptance suite: one test per criterion, tolerances pinned.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail
line per criterion.
"""

import json

import numpy as np
import pytest

import pqelliptic as pq
from pqelliptic import (EpsilonSchedule, SampleConfig, build_mesh,
                        compute_alpha, compute_pstar, make_family, regularize,
                        unit_box)
from pqelliptic.cli import main as pq_main
from pqelliptic.verify import theta_exponent
from conftest import (DP_DESCRIPTOR, constant_rhs, dp_weight, dp_weight_grad,
                      varexp_dp, varexp_p)

SEED = 20240612


def _report(criterion: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status} {detail}")
    assert passed, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def reference_experiment():
    """Double-phase p=2, q=2.2 on the unit square, b = -2,
    eps_k = 0.2 * 0.5^k for k = 0..4, on 65x65 and one refinement."""
    op = pq.operator_from_descriptor(DP_DESCRIPTOR)
    b = constant_rhs(-2.0)
    sched = EpsilonSchedule(eps0=0.2, ratio=0.5, steps=5)
    traces = {}
    for n in (65, 129):
        mesh = build_mesh(2, unit_box(2), n)
        traces[n] = pq.continuation_solve(mesh, op, b, sched)
    return op, b, traces


def suite_ops():
    return {
        "p-laplacian p=2": make_family("p-laplacian", {"p": 2}),
        "p-laplacian p=3": make_family("p-laplacian", {"p": 3}),
        "p-laplacian p=4": make_family("p-laplacian", {"p": 4}),
        "log": make_family("log", {"p": 2, "q": 2.2}),
        "variable-exponent": make_family(
            "variable-exponent", {"pfun": varexp_p, "pmin": 2.0,
                                  "pmax": 2.2, "dpfun": varexp_dp}),
        "anisotropic": make_family("anisotropic", {"exponents": [2, 2.5]}),
        "double-phase": make_family(
            "double-phase", {"p": 2, "q": 2.2, "weight": dp_weight,
                             "grad_weight": dp_weight_grad}),
    }


def test_criterion_1_structural_suite():
    cfg = SampleConfig(seed=SEED, count=10000)
    checks = ["ellipticity", "growth-xi", "growth-u", "local-conditions",
              "monotonicity", "coercivity-lower", "lemma-lower-bound"]
    worst = {}
    ok = True
    for name, op in suite_ops().items():
        rep = pq.run_structure_checks(op, cfg)
        for cid in checks:
            e = rep.entry(cid)
            ok &= e.passed and e.worst_margin >= -1e-10
            worst[f"{name}/{cid}"] = e.worst_margin
    _report("1 structural suite", ok,
            f"worst margin {min(worst.values()):.3e} over "
            f"{len(worst)} (operator, check) pairs")


def test_criterion_2_negative_controls():
    cfg = SampleConfig(seed=SEED, count=10000)
    deg = make_family("p-laplacian-degenerate", {"p": 4})
    e = pq.check_ellipticity(deg, cfg)
    witness_origin = np.allclose(e.witness["xi"], 0.0)

    import pqelliptic.operators as ops
    bad_q = ops.make_custom(lambda x, u, xi: xi, dim=2, p=2.0,
                            q=np.nextafter(3.0, 0.0), m=1, M=1)
    qp_rejected = not pq.validate_assumptions(bad_q).entry("qp-ratio").passed
    # exactly q = 3 also fails the strict bound q/p < 1.5
    exact = 1.0 + 1.0 / 2 - 3.0 / 2.0
    qp_rejected &= exact < 1e-14

    bad_beta = ops.make_custom(lambda x, u, xi: xi, dim=2, p=2.0, q=2.0,
                               m=1, M=1, beta=1.0)  # beta = p-1
    beta_rejected = not pq.validate_assumptions(bad_beta) \
        .entry("beta-upper").passed

    _report("2 negative controls",
            (not e.passed) and witness_origin and qp_rejected and beta_rejected,
            f"ellipticity margin {e.worst_margin:.3g} at xi="
            f"{e.witness['xi']}; q/p and beta bounds strict")


def test_criterion_3_derivative_consistency():
    cfg = SampleConfig(seed=SEED, count=100)
    fams = list(suite_ops().items()) + [
        ("p-laplacian-degenerate", make_family("p-laplacian-degenerate", {"p": 4})),
        ("log-degenerate", make_family("log-degenerate", {"p": 3, "q": 3.3})),
        ("variable-exponent-degenerate", make_family(
            "variable-exponent-degenerate",
            {"pfun": varexp_p, "pmin": 2.0, "pmax": 2.2, "dpfun": varexp_dp})),
    ]
    worst = 0.0
    ok = True
    for name, op in fams:
        e = pq.check_derivative_consistency(op, cfg)
        ok &= e.passed
        worst = max(worst, 1e-6 - e.worst_margin)

    # assembled Jacobian vs directional finite differences of the residual
    op = make_family("p-laplacian", {"p": 4})
    mesh = build_mesh(2, unit_box(2), 9)
    rng = np.random.default_rng(SEED)
    vals = np.zeros(mesh.n_nodes)
    vals[mesh.interior] = 0.1 * rng.standard_normal(mesh.interior.size)
    U = pq.DiscreteField(mesh, vals)
    J = pq.assemble_jacobian(mesh, op, U)
    V = rng.standard_normal(mesh.interior.size)
    h = 1e-6

    def res(v):
        w = np.zeros(mesh.n_nodes)
        w[mesh.interior] = v
        return pq.assemble_residual(mesh, op, constant_rhs(0.0),
                                    pq.DiscreteField(mesh, w))

    fd = (res(vals[mesh.interior] + h * V)
          - res(vals[mesh.interior] - h * V)) / (2 * h)
    jac_rel = np.abs(J @ V - fd).max() / np.abs(J @ V).max()
    ok &= jac_rel <= 1e-6
    _report("3 derivative consistency", ok,
            f"worst pointwise rel err {worst:.2e}, jacobian-vs-FD "
            f"{jac_rel:.2e} (tol 1e-6)")


def test_criterion_4_mms_orders():
    op2 = make_family("p-laplacian", {"p": 2})
    res = pq.convergence_study(op2, "sine2d", [9, 17, 33, 65])
    l2_ok = min(res.l2_orders) >= 1.9
    w12_ok = min(res.w12_orders) >= 0.95

    op1 = make_family("p-laplacian", {"p": 2, "domain": unit_box(1)})
    case = pq.builtin_case("quad1d", op1)
    mesh = build_mesh(1, unit_box(1), 33)
    U, _ = pq.newton_solve(mesh, op1, case.b_field, pq.zero_field(mesh))
    x = mesh.nodes[:, 0]
    nodal_err = float(np.abs(U.values - x * (1 - x)).max())
    _report("4 manufactured solutions", l2_ok and w12_ok and nodal_err <= 1e-12,
            f"L2 orders {['%.2f' % o for o in res.l2_orders]}, "
            f"W12 orders {['%.2f' % o for o in res.w12_orders]}, "
            f"1D nodal err {nodal_err:.2e}")


def test_criterion_5_continuation_reference(reference_experiment):
    _, _, traces = reference_experiment
    tr = traces[65]
    converged = all(s.stats.converged for s in tr.steps) and len(tr.steps) == 5
    uni = pq.check_uniform_lp(tr, bound=1.5)
    incs = tr.increments()
    decreasing = incs[-3] > incs[-2] > incs[-1]
    _report("5 epsilon continuation", converged and uni.verdict and decreasing,
            f"all 5 solves converged, |Du|_p ratio {uni.ratio:.4f} <= 1.5, "
            f"last increments {['%.3e' % i for i in incs[-3:]]} decreasing")


def test_criterion_6_estimate_uniformity(reference_experiment):
    op, b, traces = reference_experiment
    values = {"c_gradient": [], "c_hessian": []}
    finite = True
    for n, tr in traces.items():
        rep = pq.build_estimate_report(tr, op, b)
        for row in rep.rows:
            finite &= np.isfinite(row["c_gradient"]) and np.isfinite(row["c_hessian"])
            values["c_gradient"].append(row["c_gradient"])
            values["c_hessian"].append(row["c_hessian"])
    rg = max(values["c_gradient"]) / min(values["c_gradient"])
    rh = max(values["c_hessian"]) / min(values["c_hessian"])
    _report("6 estimate constants", finite and rg <= 2.0 and rh <= 2.0,
            f"across eps and one refinement: c_gradient x{rg:.3f}, "
            f"c_hessian x{rh:.3f} (bound 2)")


def test_criterion_7_exponent_algebra_sweep():
    rng = np.random.default_rng(SEED)
    count, ok = 0, True
    while count < 200:
        n = int(rng.integers(2, 6))
        p = float(rng.uniform(2.0, 5.0))
        hi = min(p + 1.0, p * (1.0 + 1.0 / n)) - 1e-9
        q = float(rng.uniform(p, hi))
        beta = float(rng.uniform(0.0, p - 1.0 - 1e-9))
        count += 1
        alpha = compute_alpha(n, p, q)
        ok &= alpha >= 1.0 - 1e-12
        if n > 2:
            ok &= abs(alpha / p - 2.0 / ((n + 2) * p - n * q)) <= 1e-12
        ok &= theta_exponent(p, q, beta) < compute_pstar(n, p, q)
    _report("7 exponent algebra sweep", ok,
            f"{count} admissible (n,p,q,beta) tuples")


def test_criterion_8_monotone_composition():
    cfg = SampleConfig(seed=SEED, count=10000)
    ok = True
    details = []
    for name, op in suite_ops().items():
        base = pq.check_monotonicity(op, cfg)
        if not base.passed:
            continue
        for eps in (0.05, 0.1, 0.2):
            rop = regularize(op, eps, eps)
            e = pq.check_monotonicity(rop, cfg)  # same m, same p
            ok &= e.passed
            if not e.passed:
                details.append(f"{name}@{eps}")
    _report("8 monotone composition", ok,
            "regularized operators keep the base m" +
            (f"; failures: {details}" if details else ""))


def test_criterion_9_reproducibility(tmp_path):
    opfile = tmp_path / "dp.json"
    opfile.write_text(json.dumps(DP_DESCRIPTOR))
    outs = {}
    for run in ("1", "2"):
        d = tmp_path / f"run{run}"
        d.mkdir()
        rc = pq_main(["continuation", "--operator", str(opfile),
                      "--rhs", "constant:-2", "--mesh", "2d:65x65",
                      "--schedule", "eps0=0.2,ratio=0.5,steps=5",
                      "--out", str(d / "trace.json")])
        assert rc == 0
        rc = pq_main(["estimates", "--trace", str(d / "trace.json"),
                      "--rho", "0.25", "--R", "0.4",
                      "--out", str(d / "estimates.csv")])
        assert rc == 0
        rc = pq_main(["check", "--operator", str(opfile),
                      "--samples", "10000", "--seed", str(SEED),
                      "--out", str(d / "report.json")])
        assert rc == 0
        outs[run] = d
    identical = all(
        (outs["1"] / name).read_bytes() == (outs["2"] / name).read_bytes()
        for name in ("trace.json", "trace.csv", "estimates.csv",
                     "report.json"))
    _report("9 reproducibility", identical,
            "byte-identical trace.json/trace.csv/estimates.csv/report.json "
            "over two identical runs")
