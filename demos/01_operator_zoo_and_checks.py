"""Tour of the built-in operator families and the structural verifier.

Each family declares its ellipticity/growth constants; the verifier samples
the corresponding inequalities (ellipticity, growth of the xi- and
u-derivatives, local conditions, monotonicity, coercivity, and the lower
bound lemma) and reports worst margins with witnesses.  A degenerate
p-Laplacian is included to show the verifier flagging a genuine failure at
xi = 0.
"""

import numpy as np

import pqelliptic as pq

cfg = pq.SampleConfig(seed=0, count=5000)

families = {
    "p-Laplacian (p=3)": pq.make_family("p-laplacian", {"p": 3}),
    "log form (p=2, q=2.2)": pq.make_family("log", {"p": 2, "q": 2.2}),
    "anisotropic (2, 2.5)": pq.make_family("anisotropic",
                                           {"exponents": [2, 2.5]}),
    "double phase (p=2, q=2.2, a(x)=x1)": pq.make_family(
        "double-phase", {"p": 2, "q": 2.2,
                         "weight": lambda x: np.asarray(x)[..., 0]}),
    "variable exponent (p(x)=2+0.2 x1)": pq.make_family(
        "variable-exponent",
        {"pfun": lambda x: 2.0 + 0.2 * np.asarray(x)[..., 0],
         "pmin": 2.0, "pmax": 2.2}),
}

for name, op in families.items():
    report = pq.run_structure_checks(op, cfg)
    print(f"\n{name}:  p={op.p}, q={op.q}, m={op.m:.4g}, M={op.M:.4g}")
    for entry in report.entries:
        mark = "ok " if entry.passed else "FAIL"
        fitted = ", ".join(f"{k}={v:.4g}" for k, v in
                           entry.fitted_constants.items())
        print(f"  [{mark}] {entry.condition_id:24s} "
              f"margin={entry.worst_margin:+.3e}  {fitted}")

print("\nNegative control: the degenerate p-Laplacian |Du|^(p-2) Du has a")
print("vanishing Jacobian at Du = 0 and must fail the ellipticity check:")
deg = pq.make_family("p-laplacian-degenerate", {"p": 4})
entry = pq.check_ellipticity(deg, cfg)
print(f"  passed={entry.passed}, worst margin {entry.worst_margin:+.3e} "
      f"witnessed at xi={entry.witness['xi']}")

print("\nExponent bookkeeping is strict: q/p < 1 + 1/n fails at equality,")
rep = pq.validate_assumptions(
    pq.make_custom(lambda x, u, xi: xi, dim=2, p=2.0,
                   q=np.nextafter(3.0, 0.0), m=1, M=1))
print(f"  (n=2, p=2, q->3): qp-ratio passed = {rep.entry('qp-ratio').passed}")
