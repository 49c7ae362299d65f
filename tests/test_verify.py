import logging
import math
import re
from dataclasses import replace

import numpy as np
import pytest

import pqelliptic as pq
from pqelliptic import SampleConfig, make_family, regularize
from pqelliptic.operators import _dot, _sq
from pqelliptic.verify import (BASE, DERIVATIVES, FRESH_HALF, LARGE_XI,
                               b1_values, draw_samples, ellipticity_margin,
                               growth_u_margin, growth_xi_margin,
                               lemma_lower_ratio, local_condition_ratios,
                               monotonicity_margin, theta_exponent)
from conftest import u_dependent_test_op


def coercivity_margin(op, x, u, xi, c1, c2, theta):
    """(a,xi) - c1 |xi|^p + c2 |u|^theta + b1(x), in the operation order of
    check_coercivity_lower's margins."""
    x, u, xi = (np.asarray(a, float) for a in (x, u, xi))
    dot = _dot(op.flux(x, u, xi), xi)
    norm = np.sqrt(_sq(xi))
    return dot - c1 * norm ** op.p + c2 * np.abs(u) ** theta + b1_values(op, x)


def reevaluate_witness(op, entry) -> float:
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
    raise KeyError(f"no witness kernel for {cid!r}")


def test_sampler_is_deterministic_and_structured_first():
    op = make_family("p-laplacian", {"p": 2})
    cfg = SampleConfig(seed=9, count=100)
    a = draw_samples(op, cfg)
    b = draw_samples(op, cfg)
    assert np.array_equal(a.xi, b.xi) and np.array_equal(a.u, b.u)
    assert np.allclose(a.xi[0], 0.0)  # xi = 0 leads the structured block
    mags = np.linalg.norm(a.xi, axis=-1)
    assert mags.max() >= cfg.large_xi_radius  # asymptotic batch present


# ---------------------------------------------------------------------------
# ellipticity

def test_ellipticity_p2_margin_zero(cfg):
    op = make_family("p-laplacian", {"p": 2})
    e = pq.check_ellipticity(op, cfg)
    assert e.passed and abs(e.worst_margin) < 1e-14


def test_ellipticity_degenerate_fails_at_origin(cfg):
    op = make_family("p-laplacian-degenerate", {"p": 4})
    e = pq.check_ellipticity(op, cfg)
    assert not e.passed
    assert e.worst_margin == pytest.approx(-op.m)
    assert np.allclose(e.witness["xi"], 0.0)


def test_ellipticity_p4_against_eigenvalue_oracle():
    # brute-force diagonalization oracle: min eigenvalue of sym(J) already
    # dominates the weight, so the sampled quadratic form must as well
    op = make_family("p-laplacian", {"p": 4})
    cfg = SampleConfig(seed=5, count=10000)
    S = draw_samples(op, cfg)
    J = op.dflux_dxi(S.x, S.u, S.xi)
    sym = 0.5 * (J + np.swapaxes(J, -1, -2))
    lam_min = np.linalg.eigvalsh(sym)[..., 0]
    t = np.sum(S.xi * S.xi, axis=-1)
    oracle_margin = lam_min - op.m * (1.0 + t) ** ((op.p - 2.0) / 2.0)
    assert oracle_margin.min() >= -1e-10
    entry = pq.check_ellipticity(op, cfg)
    assert entry.passed
    assert entry.worst_margin >= oracle_margin.min() - 1e-12


# ---------------------------------------------------------------------------
# growth

def test_growth_xi_p2_margin_zero_on_diagonal(cfg):
    # |J_ij| = delta_ij and the bound is exactly M = 1: margin 0
    op = make_family("p-laplacian", {"p": 2})
    e = pq.check_growth_xi(op, cfg)
    assert e.passed and abs(e.worst_margin) < 1e-14


def test_growth_u_zero_lhs_for_u_independent(cfg):
    op = make_family("double-phase", {"p": 2, "q": 2.2,
                                      "weight": lambda x: np.asarray(x)[..., 0]})
    e = pq.check_growth_u(op, cfg)
    assert e.passed
    assert e.worst_margin >= op.M  # margin = bound >= M since lhs == 0


def test_growth_xi_log_family_fitted_by_oracle():
    # sampled maximization oracle over |xi| <= 1e6: the declared M must
    # cover the worst ratio |J| / (1+|xi|^2)^((q-2)/2)
    op = make_family("log", {"p": 2, "q": 2.2})
    t = np.geomspace(1e-8, 1e12, 4000)
    xi = np.zeros((t.size, 2))
    xi[:, 0] = np.sqrt(t)
    x = np.full((t.size, 2), 0.5)
    u = np.zeros(t.size)
    J = op.dflux_dxi(x, u, xi)
    ratio = np.abs(J).max(axis=(-2, -1)) / (1.0 + t) ** ((op.q - 2.0) / 2.0)
    assert op.M >= ratio.max()
    cfg = SampleConfig(seed=2, count=4000, large_xi_radius=1e6)
    assert pq.check_growth_xi(op, cfg).passed


def test_growth_u_beta_floor():
    # beta = 0.5 < 1: the |u|^(beta-1) addendum must only enter at
    # |u| >= the floor; the check passes for the custom u-dependent field
    op = u_dependent_test_op(beta=0.5, kappa=0.5)
    cfg = SampleConfig(seed=11, count=4000)
    e = pq.check_growth_u(op, cfg)
    assert e.passed


# ---------------------------------------------------------------------------
# local conditions

def test_local_conditions_symmetric_jacobian_zero_antisymmetry(cfg):
    op = make_family("p-laplacian", {"p": 3})
    r1, r2 = local_condition_ratios(op, np.array([0.5, 0.5]), 0.2,
                                    np.array([1.0, 2.0]))
    assert abs(r1) < 1e-14 and abs(r2) < 1e-14  # x-independent, gradient-type
    e = pq.check_local_conditions(op, 5.0, cfg)
    assert e.passed and e.fitted_constants["M_L"] < 1e-14


def test_local_conditions_double_phase_fit_matches_formula(cfg):
    # weight x1 has gradient e1, so the fitted M(L) is the sampled sup of
    # |xi_i| (1+t)^((q-2)/2) / (1+t)^((p+q-2)/4); compute it directly
    op = make_family("double-phase",
                     {"p": 2, "q": 2.2,
                      "weight": lambda x: np.asarray(x)[..., 0],
                      "grad_weight": lambda x: np.stack(
                          [np.ones(np.shape(x)[:-1]),
                           np.zeros(np.shape(x)[:-1])], axis=-1)})
    e = pq.check_local_conditions(op, 10.0, cfg)
    assert e.passed
    S = draw_samples(op, cfg)  # the mapped base cloud keeps its xi
    t = np.sum(S.xi * S.xi, axis=-1)
    expected = np.max(np.abs(S.xi).max(axis=-1)
                      * (1.0 + t) ** ((op.q - 2.0) / 2.0)
                      / (1.0 + t) ** ((op.p + op.q - 2.0) / 4.0))
    assert e.fitted_constants["M_L"] == pytest.approx(expected, rel=1e-12)


# ---------------------------------------------------------------------------
# monotonicity

def test_monotonicity_identity_flux_margin_zero(cfg):
    op = make_family("p-laplacian", {"p": 2})
    e = pq.check_monotonicity(op, cfg)
    assert e.passed and abs(e.worst_margin) < 1e-12


def test_monotonicity_hand_value_p4():
    # xi=(1,0), eta=(-1,0), p=4, m=1: lhs = (2-(-2))*2 = 8, rhs = 1*4 = 4
    op = make_family("p-laplacian", {"p": 4})
    margin = monotonicity_margin(op, np.array([0.5, 0.5]), 0.0,
                                 np.array([1.0, 0.0]), np.array([-1.0, 0.0]))
    assert margin == pytest.approx(4.0)


def test_regularized_monotonicity_margin_dominates_base():
    op = make_family("log", {"p": 2, "q": 2.2})
    rop = regularize(op, 0.1, 0.2)
    rng = np.random.default_rng(8)
    x = rng.random((400, 2))
    u = rng.standard_normal(400)
    xi = rng.standard_normal((400, 2)) * 4
    eta = rng.standard_normal((400, 2)) * 4
    base = monotonicity_margin(op, x, u, xi, eta)
    reg = monotonicity_margin(rop, x, u, xi, eta)
    assert np.all(reg >= base - 1e-12)


# ---------------------------------------------------------------------------
# coercivity and lemma bound

def test_coercivity_p_laplacian_exact_constants(cfg):
    op = make_family("p-laplacian", {"p": 2})
    entry = pq.check_coercivity_lower(op, cfg)
    assert entry.passed
    consts = entry.fitted_constants
    assert consts["c1"] == pytest.approx(1.0)
    assert consts["c2"] == 0.0
    assert consts["theta"] == pytest.approx(2.0)  # max{2p/(p-q+2), 0}, p=q=2
    # b1 == 1 wherever a(x,0,0) = 0
    assert np.allclose(pq.verify.b1_values(
        op, np.random.default_rng(0).random((5, 2))), 1.0)


def test_theta_formula_hand_value():
    # beta=0.5, p=2, q=2: theta = max{2, 1} = 2
    assert theta_exponent(2.0, 2.0, 0.5) == pytest.approx(2.0)
    # q near p+1 inflates the first branch: p=2, q=2.9 -> 4/1.1
    assert theta_exponent(2.0, 2.9, 0.0) == pytest.approx(4.0 / 1.1)


def test_coercivity_u_dependent_needs_c2(cfg):
    op = u_dependent_test_op(beta=0.5, kappa=0.5)
    entry = pq.check_coercivity_lower(op, cfg)
    assert entry.passed
    assert 0.0 < entry.fitted_constants["c1"] <= 1.0
    assert np.isfinite(entry.fitted_constants["c2"])
    # the witness margin reproduces on re-evaluation
    again = reevaluate_witness(op, entry)
    assert again == pytest.approx(entry.worst_margin, abs=1e-12)


def test_lemma_lower_bound_monotone_coercive_gives_zero(cfg):
    op = make_family("p-laplacian", {"p": 3})
    e = pq.check_lemma_lower_bound(op, cfg)
    assert e.passed
    assert e.fitted_constants["c"] == 0.0


def test_lemma_lower_bound_u_dependent_stable(cfg):
    op = u_dependent_test_op(beta=0.5, kappa=0.8)
    e = pq.check_lemma_lower_bound(op, cfg)
    assert e.passed
    c = e.fitted_constants["c"]
    assert np.isfinite(c)
    # doubling the sample radius moves the fit by at most 2x
    wide = SampleConfig(seed=cfg.seed, count=cfg.count,
                        xi_radius=2 * cfg.xi_radius,
                        u_radius=2 * cfg.u_radius)
    e2 = pq.check_lemma_lower_bound(op, wide)
    cw = e2.fitted_constants["c"]
    assert cw <= 2.0 * max(c, 1e-12) + 1e-12


# ---------------------------------------------------------------------------
# derivative consistency and witnesses

def test_derivative_consistency_catches_corruption(cfg):
    op = make_family("p-laplacian", {"p": 3})
    good = pq.check_derivative_consistency(op, cfg)
    assert good.passed

    import dataclasses
    corrupted = dataclasses.replace(
        op, dflux_dxi=lambda x, u, xi: 1.01 * op.dflux_dxi(x, u, xi))
    bad = pq.check_derivative_consistency(corrupted, cfg)
    assert not bad.passed
    assert bad.witness is not None


def test_witness_reproduces_margin(cfg, suite_operators):
    # pointwise checks must reproduce the stored margin exactly (ulp scale);
    # fitted checks re-evaluate the slack against the fitted constant, which
    # is zero at the fitting witness and only bounds the stability margin
    pointwise = {"ellipticity", "growth-xi", "growth-u", "monotonicity",
                 "coercivity-lower"}
    for op in suite_operators.values():
        rep = pq.run_structure_checks(op, cfg)
        for entry in rep.entries:
            if entry.condition_id == "derivative-consistency":
                continue  # FD-vs-FD margin, tested above
            again = reevaluate_witness(op, entry)
            if entry.condition_id in pointwise:
                assert again == pytest.approx(entry.worst_margin, abs=1e-13)
            else:
                assert again >= min(entry.worst_margin, 0.0) - 1e-12


# ---------------------------------------------------------------------------
# the shared base cloud

def test_drawn_samples_are_read_only():
    S = draw_samples(make_family("p-laplacian", {"p": 2}),
                     SampleConfig(seed=1, count=50))
    for a in (S.x, S.u, S.xi, S.eta, S.lam):
        with pytest.raises(ValueError):
            a[0] = 0.0


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_unit_vectors_bitwise_equal_to_linalg_norm(dim):
    from pqelliptic.verify import _unit_vectors

    v = np.random.default_rng(dim).standard_normal((1000, dim))
    v[7] = 0.0  # takes the norms < 1e-12 guard

    class Fixed:
        def standard_normal(self, *, out):
            assert out.shape == v.shape
            out[...] = v
            return out

    norms = np.linalg.norm(v, axis=-1, keepdims=True)
    norms[norms < 1e-12] = 1.0
    got = _unit_vectors(Fixed(), np.empty_like(v))
    assert _same_bits(got, v / norms)
    assert np.array_equal(got[7], np.zeros(dim))
    # the magnitudes scale each column in place, as xi *= mag[:, None] did
    mag = 10.0 * np.abs(np.random.default_rng(dim + 3).standard_normal(1000))
    scaled = v / norms
    scaled *= mag[:, None]
    assert _same_bits(_unit_vectors(Fixed(), np.empty_like(v), mag), scaled)


def test_structure_checks_draw_four_clouds(monkeypatch):
    import pqelliptic.verify as verify

    calls, streams = [], []
    real = verify.draw_samples

    def counting(*args, **kwargs):
        S = real(*args, **kwargs)
        calls.append(S.eta is not None and S.lam is not None)
        streams.append(kwargs.get("stream", BASE))
        return S

    monkeypatch.setattr(verify, "draw_samples", counting)
    op = make_family("p-laplacian", {"p": 3})
    pq.run_structure_checks(op, SampleConfig(seed=2, count=200))
    # base, derivative-consistency, large-|xi|, fresh half, each from its
    # own stream; local conditions read the base cloud, and only the base
    # cloud draws eta and lambda
    assert calls == [True, False, False, False]
    assert streams == [BASE, DERIVATIVES, LARGE_XI, FRESH_HALF]


@pytest.mark.parametrize("seed", [4, 11])
@pytest.mark.parametrize("family, params", [
    ("double-phase", {"p": 2, "q": 2.2,
                      "weight": lambda x: np.asarray(x)[..., 0]}),
    ("p-laplacian-degenerate", {"p": 4}),
    ("anisotropic", {"exponents": [2, 2.5]}),
])
def test_structure_checks_equal_standalone_checks(family, params, seed):
    op = make_family(family, params)
    cfg = SampleConfig(seed=seed, count=3000)
    alone = [pq.check_derivative_consistency(op, cfg),
             pq.check_ellipticity(op, cfg),
             pq.check_growth_xi(op, cfg),
             pq.check_growth_u(op, cfg),
             pq.check_local_conditions(op, cfg.u_radius, cfg),
             pq.check_monotonicity(op, cfg),
             pq.check_coercivity_lower(op, cfg),
             pq.check_lemma_lower_bound(op, cfg)]
    rep = pq.run_structure_checks(op, cfg)
    assert [e.to_dict() for e in rep.entries] == [e.to_dict() for e in alone]
    if family == "p-laplacian-degenerate":
        ell = rep.entries[1]
        assert not ell.passed and np.allclose(ell.witness["xi"], 0.0)


def test_structure_checks_log_timings_at_info_only(caplog):
    op = make_family("p-laplacian", {"p": 3})
    cfg = SampleConfig(seed=6, count=300)
    with caplog.at_level(logging.WARNING, logger="pq.check"):
        quiet = pq.run_structure_checks(op, cfg)
    assert not [r for r in caplog.records if r.name == "pq.check"]
    with caplog.at_level(logging.INFO, logger="pq.check"):
        loud = pq.run_structure_checks(op, cfg)
    lines = [r.getMessage() for r in caplog.records if r.name == "pq.check"]
    n = len(draw_samples(op, cfg))
    assert re.fullmatch(rf"shared sample cloud: {n} points, \d+\.\d{{3}} s",
                        lines[0])
    ids = [e.condition_id for e in loud.entries]
    assert [line.split(":")[0] for line in lines[1:]] == ids
    assert all(line.endswith(" s") for line in lines[1:])
    # dflux_dx is the operator's own finite difference, so it is not
    # compared with one
    assert lines[1].startswith(
        "derivative-consistency: compares dflux_dxi, dflux_du; ")
    assert loud.to_dict() == quiet.to_dict()


def test_plans_and_seeds_draw_from_distinct_streams():
    op = make_family("p-laplacian", {"p": 2})  # on the unit square
    seeds = (0, 1, 5, 2 ** 32 + 5)
    xs = {}
    for seed in seeds:
        cfg = SampleConfig(seed=seed, count=64)
        for stream in (BASE, DERIVATIVES, LARGE_XI, FRESH_HALF):
            # the first 16 random rows: the large-|xi| batch has 16, and
            # the base cloud's structured rows come before its random ones
            x = draw_samples(op, cfg, stream=stream).x[-cfg.count:]
            xs[seed, stream] = x[:16].tobytes()
        # the base plan keeps the bits of default_rng(seed): x is its first
        # draw, scaled by the unit widths
        want = np.random.default_rng(seed).random((16, 2))
        assert xs[seed, BASE] == want.tobytes()
    assert len(set(xs.values())) == len(xs)
    # the next seed's base cloud is not the large-|xi| batch of this one
    assert xs[1, BASE] != xs[0, LARGE_XI]
    # nor does a seed above 2**32 draw another seed's plan
    assert xs[2 ** 32 + 5, BASE] != xs[5, DERIVATIVES]


def test_lemma_zero_fit_is_positive_zero():
    op = _zoo_operator("double-phase")
    e = pq.check_lemma_lower_bound(op, SampleConfig(seed=0, count=1000))
    assert e.passed
    for key in ("c", "c_doubled"):
        value = e.fitted_constants[key]
        assert value == 0.0 and math.copysign(1.0, value) == 1.0, key


def test_lemma_doubling_adds_a_fresh_half():
    from pqelliptic.verify import lemma_lower_ratio

    op = u_dependent_test_op(beta=0.5, kappa=0.8)
    cfg = SampleConfig(seed=4, count=3000)
    e = pq.check_lemma_lower_bound(op, cfg)
    base = draw_samples(op, cfg)
    fresh = draw_samples(op, cfg, stream=FRESH_HALF)
    assert len(fresh) == cfg.count and fresh.eta is None
    c = e.fitted_constants["c"]
    assert c == np.max(lemma_lower_ratio(op, base.x, base.u, base.xi)) > 0.0
    fit = np.max(lemma_lower_ratio(op, fresh.x, fresh.u, fresh.xi))
    assert e.fitted_constants["c_doubled"] == max(c, fit)

    def rows(S):
        return {r.tobytes() for r in np.column_stack([S.x, S.u, S.xi])}

    assert not rows(base) & rows(fresh)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("cloud", ["base", "fresh half"])
def test_stable_fit_fails_on_a_nan_or_infinite_ratio(monkeypatch, bad,
                                                      cloud):
    clouds = []

    def ratio(op, x, u, xi):  # each cloud is one chunk: base first
        out = np.full(len(u), 0.5)
        if ["base", "fresh half"][len(clouds)] == cloud:
            out[3] = bad
        clouds.append(len(u))
        return out

    monkeypatch.setattr(pq.verify, "lemma_lower_ratio", ratio)
    op = make_family("p-laplacian", {"p": 3})
    e = pq.check_lemma_lower_bound(op, SampleConfig(seed=1, count=1000))
    assert len(clouds) == 2
    assert not e.passed


def _reference_local_conditions(op, L, cfg):
    """check_local_conditions on a cloud drawn over the subdomain with u in
    [-L, L] from the base stream, as it was drawn before the check read
    the base cloud."""
    from pqelliptic.report import nonstrict_entry

    x, u, xi, _, _ = _vstack_draw(op, cfg, box=op.domain.shrink(0.25),
                                  u_cap=L, directions=False)
    r1, r2 = local_condition_ratios(op, x, u, xi)
    fit = np.maximum(r1, r2)
    idx = int(np.argmax(fit))
    return nonstrict_entry(
        "local-conditions", 0.0, 1e-10,
        {"x": x[idx].tolist(), "u": float(u[idx]), "xi": xi[idx].tolist()},
        fitted={"M_L": float(fit[idx]), "L": float(L)},
        notes="no declared M(L); fitted constant reported")


@pytest.mark.parametrize("name", ["double-phase", "variable-exponent"])
def test_local_conditions_read_the_mapped_base_cloud(name):
    op = _zoo_operator(name)
    cfg = SampleConfig(seed=3, count=9000)
    alone = pq.check_local_conditions(op, cfg.u_radius, cfg)
    shared = pq.check_local_conditions(op, cfg.u_radius, cfg,
                                       samples=draw_samples(op, cfg))
    assert alone.to_dict() == shared.to_dict()
    # on the unit square at L = u_radius the map is exact
    ref = _reference_local_conditions(op, cfg.u_radius, cfg)
    assert alone.to_dict() == ref.to_dict()
    assert alone.fitted_constants["M_L"] > 0.0
    # off the origin, or with L != u_radius, it rounds differently
    moved = pq.operator_from_descriptor(
        {**ZOO[name], "domain": {"min": [0.25, -1.0], "max": [1.0, 0.5]}})
    for o, L in ((moved, cfg.u_radius), (op, 3.0), (moved, 3.0)):
        fit = _reference_local_conditions(o, L, cfg).fitted_constants["M_L"]
        got = pq.check_local_conditions(o, L, cfg)
        assert got.fitted_constants["M_L"] == pytest.approx(fit, rel=1e-12)


def test_nan_margin_fails():
    from pqelliptic.report import nonstrict_entry, strict_entry

    assert not nonstrict_entry("x", float("nan"), 0.0).passed
    assert not strict_entry("x", float("nan")).passed
    assert nonstrict_entry("x", -1e-11, 1e-10).passed
    assert not nonstrict_entry("x", -1e-9, 1e-10).passed
    assert not strict_entry("x", 0.0).passed
    assert strict_entry("x", 1e-13).passed


@pytest.mark.parametrize("field", ["xi_radius", "u_radius", "large_xi_radius"])
@pytest.mark.parametrize("value", [float("nan"), 0.0, -1.0, float("inf"),
                                   1e308])
def test_sample_config_rejects_bad_radius(field, value):
    with pytest.raises(ValueError):
        SampleConfig(**{field: value})


@pytest.mark.parametrize("count", [0, pq.verify.MAX_SAMPLES + 1])
def test_sample_config_rejects_bad_count(count):
    with pytest.raises(ValueError):
        SampleConfig(count=count)


# ---------------------------------------------------------------------------
# margin kernels against the reductions they replaced

ZOO = {
    "double-phase": {"family": "double-phase", "p": 2, "q": 2.2,
                     "params": {"weight": {"type": "affine",
                                           "coeffs": [1.0, 0.0],
                                           "offset": 0.0}}},
    "log": {"family": "log", "p": 2, "q": 2.2},
    "variable-exponent": {
        "family": "variable-exponent",
        "params": {"pfun": {"type": "affine", "offset": 2.0,
                            "coeffs": [0.2, 0.0]},
                   "pmin": 2.0, "pmax": 2.2}},
    "anisotropic": {"family": "anisotropic",
                    "params": {"exponents": [2, 2.5]}},
    "p-laplacian-degenerate": {"family": "p-laplacian-degenerate", "p": 4},
}


def _same_bits(a, b):
    a, b = np.asarray(a, float), np.asarray(b, float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("name", sorted(ZOO))
def test_margin_kernels_bitwise_equal_to_numpy_reductions(name):
    from pqelliptic import verify as v

    op = pq.operator_from_descriptor(
        {**ZOO[name], "domain": {"min": [0, 0], "max": [1, 1]}})
    S = draw_samples(op, SampleConfig(seed=3, count=3000))
    x, u, xi, eta, lam = S.x, S.u, S.xi, S.eta, S.lam
    p, q, m, M = op.p, op.q, op.m, op.M
    J = op.dflux_dxi(x, u, xi)
    t = np.sum(xi ** 2, axis=-1)
    zero_u, zero_xi = np.zeros_like(u), np.zeros_like(xi)
    a0 = np.linalg.norm(op.flux(x, zero_u, zero_xi), axis=-1)
    dot = np.sum(op.flux(x, u, xi) * xi, axis=-1)
    norm = np.sqrt(np.sum(xi * xi, axis=-1))
    b1 = 1.0 + a0 ** (p / (p - 1.0))

    quad = np.einsum("...i,...ij,...j->...", lam, J, lam)
    assert _same_bits(v.ellipticity_margin(op, x, u, xi, lam),
                      quad - m * (1.0 + t) ** ((p - 2.0) / 2.0))
    bound = M * (1.0 + t) ** ((q - 2.0) / 2.0)
    if op.growth_alpha > 0.0:
        bound = bound + M * np.abs(u) ** op.growth_alpha
    assert _same_bits(v.growth_xi_margin(op, x, u, xi),
                      bound - np.max(np.abs(J), axis=(-2, -1)))
    keep = np.abs(u) >= v.U_FLOOR
    u_abs = np.abs(u[keep])
    bound = (M * (1.0 + t[keep]) ** ((p + q - 4.0) / 4.0)
             + M * u_abs ** (op.beta - 1.0))
    au = op.dflux_du(x[keep], u[keep], xi[keep])
    assert _same_bits(v.growth_u_margin(op, x[keep], u[keep], xi[keep]),
                      bound - np.max(np.abs(au), axis=-1))
    antis = np.max(np.abs(J - np.swapaxes(J, -1, -2)), axis=(-2, -1))
    ax = np.stack([np.abs(op.dflux_dx(x, u, xi, s)).max(axis=-1)
                   for s in range(op.dim)], axis=-1).max(axis=-1)
    r1, r2 = local_condition_ratios(op, x, u, xi)
    assert _same_bits(r1, antis / (1.0 + t) ** ((p + q - 4.0) / 4.0))
    assert _same_bits(r2, ax / (1.0 + t) ** ((p + q - 2.0) / 4.0))
    diff, mid = xi - eta, 0.5 * (xi + eta)
    lhs = np.sum((op.flux(x, u, xi) - op.flux(x, u, eta)) * diff, axis=-1)
    rhs = (m * (1.0 + np.sum(mid * mid, axis=-1)) ** ((p - 2.0) / 2.0)
           * np.sum(diff * diff, axis=-1))
    assert _same_bits(monotonicity_margin(op, x, u, xi, eta), lhs - rhs)
    assert _same_bits(v.b1_values(op, x), b1)
    theta = theta_exponent(p, q, op.beta)
    assert _same_bits(coercivity_margin(op, x, u, xi, 0.5, 2.0, theta),
                      dot - 0.5 * norm ** p + 2.0 * np.abs(u) ** theta + b1)
    residual = 0.5 * norm ** p - dot - b1
    big = (residual > 1e-10) & (np.abs(u) >= v.U_FLOOR)
    c2 = np.max(residual[big] / np.abs(u[big]) ** theta) if big.any() else 0.0
    terms = v._coercivity_terms(op, [S])
    assert v._coercivity_feasible(terms, 0.5, theta, 1e-10) == (
        True, float(c2))
    denom = norm ** q + np.abs(u) ** q + a0 ** (q / (q - 1.0)) + 1.0
    assert _same_bits(v.lemma_lower_ratio(op, x, u, xi), -dot / denom)


def _custom_flux_only():
    """The log family's flux as a custom operator: its three derivatives
    are finite-difference fallbacks."""
    log = make_family("log", {"p": 2, "q": 2.2})
    return pq.make_custom(log.flux, dim=2, p=2, q=2.2, m=log.m, M=log.M)


_EVERY = "dflux_dxi dflux_du dflux_dx[0] dflux_dx[1]"

#: name -> the derivatives check_derivative_consistency compares
CONSISTENCY_OPERATORS = {
    "double-phase": _EVERY,  # its dflux_dx comes from grad_weight
    "log": "dflux_dxi dflux_du",  # dflux_dx is its finite difference
    "variable-exponent": _EVERY,
    "anisotropic": _EVERY,
    "p-laplacian-degenerate": "dflux_dxi dflux_du",
    "u-dependent": _EVERY,
    "custom-flux-only": "",
}


@pytest.mark.parametrize("name", sorted(CONSISTENCY_OPERATORS))
def test_derivative_consistency_equals_numpy_reductions(name):
    # the reference compares every derivative, a fallback with itself too
    # (an error of 0), with numpy's reductions and the broadcast finite
    # differences
    from conftest import ref_fd_dflux_du, ref_fd_dflux_dx, ref_fd_dflux_dxi

    op = (_custom_flux_only() if name == "custom-flux-only"
          else _zoo_operator(name))
    cfg = SampleConfig(seed=3, count=3000)
    S = draw_samples(op, cfg, stream=DERIVATIVES)
    x, u, xi = S.x, S.u, S.xi

    def rel_err(a, f):
        axes = tuple(range(1, a.ndim))
        scale = np.maximum(1.0, np.maximum(np.max(np.abs(a), axis=axes),
                                           np.max(np.abs(f), axis=axes)))
        return np.max(np.abs(a - f), axis=axes) / scale

    errs = [rel_err(op.dflux_dxi(x, u, xi),
                    ref_fd_dflux_dxi(op.flux, x, u, xi)),
            rel_err(op.dflux_du(x, u, xi), ref_fd_dflux_du(op.flux, x, u, xi))]
    errs += [rel_err(op.dflux_dx(x, u, xi, s),
                     ref_fd_dflux_dx(op.flux, x, u, xi, s))
             for s in range(op.dim)]
    ref = 1e-6 - np.max(np.stack(errs), axis=0)
    entry = pq.check_derivative_consistency(op, cfg)
    assert _same_bits(entry.worst_margin, ref.min())
    assert entry.witness["xi"] == xi[int(np.argmin(ref))].tolist()
    compared = " ".join(
        pair[0] for pair in pq.verify._compared_derivatives(op))
    assert compared == CONSISTENCY_OPERATORS[name]
    if not compared:  # FD_REL_TOL at the first sample
        assert entry.worst_margin == pq.verify.FD_REL_TOL
        assert entry.witness["xi"] == xi[0].tolist()


def test_nan_flux_fails_the_checks():
    # a flux that is NaN on half of the domain: the derivatives compared
    # with finite differences fail derivative consistency, and a custom
    # flux with no derivative of its own still fails the structure checks
    base = make_family("p-laplacian", {"p": 3})

    def flux(x, u, xi):
        a = base.flux(x, u, xi)
        a[np.asarray(x)[..., 0] > 0.5] = np.nan
        return a

    cfg = SampleConfig(seed=4, count=500)
    analytic = pq.make_custom(flux, dim=2, p=3, q=3, m=1, M=2,
                              dflux_dxi=base.dflux_dxi)
    entry = pq.check_derivative_consistency(analytic, cfg)
    assert not entry.passed and math.isnan(entry.worst_margin)
    assert entry.witness["x"][0] > 0.5
    only_flux = pq.make_custom(flux, dim=2, p=3, q=3, m=1, M=2)
    rep = pq.run_structure_checks(only_flux, cfg)
    failed = {e.condition_id for e in rep.entries if not e.passed}
    assert {"ellipticity", "growth-xi", "monotonicity"} <= failed


def test_traced_and_untraced_runs_make_the_same_flux_calls(monkeypatch):
    # a tracer re-wraps op.flux after construction, as perfbench does; the
    # fallback keeps the flux it was built from, so an identity test on
    # op.flux would compare it with a finite difference only when traced
    import pqelliptic.operators as operators

    calls = []
    radial = operators._scaled  # the flux of an isotropic operator

    def counted(w, xi):
        calls.append(len(xi))
        return radial(w, xi)

    monkeypatch.setattr(operators, "_scaled", counted)
    op = _zoo_operator("log")
    cfg = SampleConfig(seed=5, count=3000)
    pq.check_derivative_consistency(op, cfg)
    untraced = list(calls)
    flux, through = op.flux, []

    def traced_flux(x, u, xi):
        through.append(len(xi))
        return flux(x, u, xi)

    calls.clear()
    traced = replace(op, flux=traced_flux)
    assert traced.dflux_dx.args[0] is not traced.flux
    pq.check_derivative_consistency(traced, cfg)
    assert calls == untraced and through
    assert len(through) == 2 * op.dim + 2  # one chunk: dflux_dxi, dflux_du


# ---------------------------------------------------------------------------
# one cloud at a time: references that copy, as the checks once did

def _stream_rng(seed, stream):
    """The generator of sampling plan ``stream``: the seed's own for the
    base plan, and the seed's spawned child number ``stream`` otherwise."""
    seq = np.random.SeedSequence(seed)
    return np.random.default_rng(seq.spawn(stream + 1)[stream] if stream
                                 else seq)


def _vstack_draw(op, cfg, *, box=None, u_cap=None, xi_radius=None,
                 stream=BASE, structured=True, xi_low_frac=0.0,
                 directions=True):
    """draw_samples built from whole draws joined with np.vstack; a ``box``
    other than the domain rebuilds the local-conditions cloud as it was
    drawn before it read the base cloud."""
    from pqelliptic.verify import _structured_block

    dim = op.dim
    box = box or op.domain
    radius = cfg.xi_radius if xi_radius is None else xi_radius
    u_cap = cfg.u_radius if u_cap is None else u_cap
    rng = _stream_rng(cfg.seed, stream)

    def unit(n):
        v = rng.standard_normal((n, dim))
        norms = np.linalg.norm(v, axis=-1, keepdims=True)
        norms[norms < 1e-12] = 1.0
        return v / norms

    n = cfg.count
    lo = np.asarray(box.lo)
    x = lo + rng.random((n, dim)) * (np.asarray(box.hi) - lo)
    u = rng.uniform(-u_cap, u_cap, size=n)
    if xi_low_frac > 0.0:
        mag = (xi_low_frac * radius
               + rng.random(n) * (1.0 - xi_low_frac) * radius)
    else:
        mag = np.abs(rng.standard_normal(n)) * radius
    xi = unit(n) * mag[:, None]
    eta = lam = None
    if directions:
        mag_eta = np.abs(rng.standard_normal(n)) * radius
        eta = unit(n) * mag_eta[:, None]
        lam = unit(n)
    if structured:
        xs, es, ls = _structured_block(dim, radius, cfg.large_xi_radius)
        k = xs.shape[0]
        x = np.vstack([np.broadcast_to(box.center, (k, dim)), x])
        u = np.concatenate([np.zeros(k), u])
        xi = np.vstack([xs, xi])
        if directions:
            eta = np.vstack([es, eta])
            lam = np.vstack([ls, lam])
    return x, u, xi, eta, lam


def _copy_chunked(margin_fn, arrays):
    """Margins of copied arrays, 4096 rows at a time, joined."""
    n = len(arrays[0])
    return np.concatenate([margin_fn(*(a[i:i + 4096] for a in arrays))
                           for i in range(0, n, 4096)])


def _reference_entry(cid, margins, arrays, cfg, **kwargs):
    from pqelliptic.report import nonstrict_entry

    idx = int(np.argmin(margins))
    x, u, xi = (a[idx] for a in arrays[:3])
    witness = {"x": x.tolist(), "u": float(u), "xi": xi.tolist()}
    if len(arrays) > 3:
        witness["eta"] = arrays[3][idx].tolist()
    return nonstrict_entry(cid, float(margins[idx]), 1e-10, witness,
                           **kwargs)


def _reference_coercivity(op, cfg, S):
    """check_coercivity_lower on the stacked copy of the base cloud and
    the large-|xi| batch, with the flux evaluated at every feasibility
    test."""
    from dataclasses import replace

    from pqelliptic import verify as v

    theta = theta_exponent(op.p, op.q, op.beta)
    B = draw_samples(op, cfg, stream=LARGE_XI)
    x, u, xi = (np.concatenate([getattr(S, a), getattr(B, a)])
                for a in ("x", "u", "xi"))

    def feasible(c1):
        dot = np.sum(op.flux(x, u, xi) * xi, axis=-1)
        residual = c1 * np.sqrt(np.sum(xi * xi, axis=-1)) ** op.p - dot
        residual = residual - v.b1_values(op, x)
        small_u = np.abs(u) < v.U_FLOOR
        if np.any(residual[small_u] > 1e-10):
            return False, np.inf
        pos = (residual > 1e-10) & ~small_u
        if not np.any(pos):
            return True, 0.0
        c2 = np.max(residual[pos] / np.abs(u[pos]) ** theta)
        return bool(np.isfinite(c2)), float(c2)

    ok, c2 = feasible(op.m)
    c1 = op.m
    if not ok:
        lo, hi = 1e-6, op.m
        ok, c2 = feasible(lo)
        assert ok
        for _ in range(40):
            mid = 0.5 * (lo + hi)
            ok, c2_mid = feasible(mid)
            if ok:
                lo, c2 = mid, c2_mid
            else:
                hi = mid
        c1 = lo
    margins = coercivity_margin(op, x, u, xi, c1, c2, theta)
    return _reference_entry(
        "coercivity-lower", margins, (x, u, xi), cfg,
        fitted={"c1": float(c1), "c2": float(c2), "theta": float(theta)})


def _zoo_operator(name):
    if name == "u-dependent":  # beta = 1/2, and the bisection runs
        return u_dependent_test_op(beta=0.5, kappa=0.5)
    return pq.operator_from_descriptor(
        {**ZOO[name], "domain": {"min": [0, 0], "max": [1, 1]}})


@pytest.mark.parametrize("name", sorted(ZOO) + ["u-dependent"])
def test_masked_and_chunked_checks_equal_copying_references(name):
    from pqelliptic import verify as v

    op = _zoo_operator(name)
    cfg = SampleConfig(seed=3, count=9000)  # three chunks, the last short
    S = draw_samples(op, cfg)

    keep = np.any(S.xi != S.eta, axis=-1)
    keep[[5, 4100, 8200]] = False  # as if xi == eta at chunk-spread rows
    arrays = tuple(a[keep] for a in (S.x, S.u, S.xi, S.eta))
    margins = _copy_chunked(
        lambda x, u, xi, eta: v.monotonicity_margin(op, x, u, xi, eta),
        arrays)
    ref = _reference_entry("monotonicity", margins, arrays, cfg)
    eta = S.eta.copy()
    eta[[5, 4100, 8200]] = S.xi[[5, 4100, 8200]]
    masked = v.Samples(x=S.x, u=S.u, xi=S.xi, eta=eta, lam=S.lam)
    got = pq.check_monotonicity(op, cfg, samples=masked)
    assert got.to_dict() == ref.to_dict()

    keep = np.abs(S.u) >= v.U_FLOOR if op.beta < 1.0 else slice(None)
    arrays = tuple(a[keep] for a in (S.x, S.u, S.xi))
    margins = _copy_chunked(
        lambda x, u, xi: v.growth_u_margin(op, x, u, xi), arrays)
    ref = _reference_entry(
        "growth-u", margins, arrays, cfg,
        notes=f"beta<1: restricted to |u| >= {v.U_FLOOR:g}"
        if op.beta < 1.0 else "")
    assert pq.check_growth_u(op, cfg, samples=S).to_dict() == ref.to_dict()

    got = pq.check_coercivity_lower(op, cfg, samples=S)
    assert got.to_dict() == _reference_coercivity(op, cfg, S).to_dict()


@pytest.mark.parametrize("kwargs", [
    {"stream": BASE},
    {"stream": DERIVATIVES, "structured": False, "xi_low_frac": 0.05,
     "directions": False},
    {"stream": LARGE_XI, "count": 1250, "xi_radius": 2e3,
     "structured": False, "directions": False},
    {"stream": FRESH_HALF, "structured": False, "directions": False},
])
@pytest.mark.parametrize("name", ["anisotropic", "double-phase"])
def test_draw_samples_bitwise_equal_to_vstack_reference(name, kwargs):
    # each plan against the reference's statement of its draw: its count,
    # xi radius and magnitudes, and whether it has the structured rows and
    # eta and lambda
    op = _zoo_operator(name)
    cfg = SampleConfig(seed=7, count=5000, u_radius=2.0, large_xi_radius=2e3)
    kwargs = dict(kwargs)
    count = kwargs.pop("count", cfg.count)
    got = draw_samples(op, cfg, stream=kwargs["stream"])
    ref = _vstack_draw(op, replace(cfg, count=count), **kwargs)
    for field, want in zip(("x", "u", "xi", "eta", "lam"), ref):
        a = getattr(got, field)
        if want is None:
            assert a is None, field
        else:
            assert _same_bits(a, want), field
            assert not a.flags.writeable


@pytest.mark.parametrize("name", ["double-phase", "anisotropic",
                                  "p-laplacian-degenerate"])
def test_reports_do_not_depend_on_chunk(monkeypatch, name):
    # margins are per sample and the coercivity fit's maxima are exact, so
    # the chunk size moves no bit; 8200 samples are three chunks of 4096
    # and two of 8192
    import pqelliptic.verify as verify

    assert verify.CHUNK == 8192
    op = _zoo_operator(name)
    cfg = SampleConfig(seed=2, count=8200)
    reports = []
    for chunk in (7, 4096, 8192):
        monkeypatch.setattr(verify, "CHUNK", chunk)
        reports.append(pq.run_structure_checks(op, cfg).to_dict())
    texts = [repr(r) for r in reports]  # repr keeps every bit of a float
    assert texts[0] == texts[1] == texts[2]
    if name == "p-laplacian-degenerate":
        ell = next(e for e in reports[0]["entries"]
                   if e["condition_id"] == "ellipticity")
        assert not ell["passed"] and not any(ell["witness"]["xi"])


def test_structure_checks_peak_memory_is_two_base_clouds():
    # checks evaluate CHUNK rows at a time and never copy a cloud; the
    # lemma's fresh half is drawn after the base cloud is freed
    import tracemalloc

    op = _zoo_operator("double-phase")
    cfg = SampleConfig(seed=1, count=100_000)
    S = draw_samples(op, cfg)
    base = sum(a.nbytes for a in (S.x, S.u, S.xi, S.eta, S.lam))
    del S
    pq.run_structure_checks(op, SampleConfig(seed=1, count=500))  # warm-up
    tracemalloc.start()
    try:
        pq.run_structure_checks(op, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * base, f"peak {peak / base:.2f} base clouds"
