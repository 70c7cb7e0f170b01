"""Acceptance suite: ten numbered criteria, one test and one line each.

Each test prints `CRITERION n: PASS/FAIL — detail` so a plain test run
doubles as the sign-off sheet.  Tolerances are part of the contract and
are not to be loosened; where a criterion needs an interpretation call
(noted inline) the stricter defensible reading was taken.
"""

import math
import time

import numpy as np

from tubeke import (
    Point,
    TangentPair,
    TubeParams,
    axis_sweep,
    bis_extremes,
    bisectional,
    boundary_limit_bis,
    einstein_residual,
    extremal_sectional_vector,
    metric_jet,
    origin_closed_forms,
    solve_potential,
    tensor_from_jet,
)

ORIGIN = Point(0j, 0j)


def announce(n: int, passed: bool, detail: str) -> None:
    print(f"CRITERION {n}: {'PASS' if passed else 'FAIL'} — {detail}")


def sample_points(params, rng, n, x_cap):
    p = params.p
    pts = []
    for _ in range(n):
        x = rng.uniform(-x_cap, x_cap)
        r = rng.uniform(0.2, 3.0)
        y1, y2 = rng.uniform(-2.0, 2.0, 2)
        pts.append(Point(complex((1.0 - r) / (4 * p), y1),
                         complex(x * r ** (1.0 / (2 * p)), y2)))
    return pts


def unit_vectors(rng, n):
    v = rng.normal(size=(n, 2)) + 1j * rng.normal(size=(n, 2))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def test_criterion_01_p1_closed_form_potential():
    t0 = time.perf_counter()
    sol = solve_potential(TubeParams(p=1))
    runtime = time.perf_counter() - t0
    f0_err = abs(sol.F0 - math.log(2.0) / 3.0)
    xs = np.linspace(0.0, 0.999, 1000)
    F_err = float(np.max(np.abs(sol.eval_F(xs)
                                - (math.log(2.0) / 3.0 - np.log(1.0 - xs**2)))))
    passed = f0_err < 1e-6 and F_err < 1e-5 and runtime < 1.0
    announce(1, passed, f"F0 err {f0_err:.2e} (<1e-6), max F err {F_err:.2e} "
                        f"(<1e-5), solve {runtime:.2f}s (<1s)")
    assert passed


def test_criterion_02_origin_tensor_closed_forms(sols):
    worst = 0.0
    for p, sol in sols.items():
        vals = origin_closed_forms(sol.params)
        f1_0 = sol.eval_f_derivs(0.0, 1)[1]
        tensor = tensor_from_jet(metric_jet(sol, ORIGIN))
        targets = [
            (tensor.R1111, float(vals.R1111)),
            (tensor.R1122, float(vals.R1122) * f1_0),
            (tensor.R1212, float(vals.R1212) * f1_0),
            (tensor.R2222, float(vals.R2222_coeff) * f1_0**2),
        ]
        for observed, expected in targets:
            # p=1 makes the third target exactly 0; measure that one
            # against the natural scale f'(0) instead of dividing by 0
            scale = abs(expected) if expected != 0.0 else f1_0
            worst = max(worst, abs(observed - expected) / scale)
    passed = worst <= 1e-8
    announce(2, passed, f"worst relative tensor error {worst:.2e} (<=1e-8), "
                        f"p in {{1,2,3}}")
    assert passed


def test_criterion_03_origin_pinching(sols):
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    worst_end, worst_violation = 0.0, 0.0
    for p, sol in sols.items():
        lo = -3.0 + 3.0 / (2 * p + 1)
        hi = -3.0 / (2 * p + 1)
        ext = bis_extremes(sol, ORIGIN)
        worst_end = max(worst_end, abs(ext.min - lo), abs(ext.max - hi))
        vs, ws = unit_vectors(rng, 10_000), unit_vectors(rng, 10_000)
        values = bisectional(sol, ORIGIN, TangentPair(v=vs, w=ws))
        worst_violation = max(worst_violation, lo - values.min(),
                              values.max() - hi, 0.0)
    runtime = time.perf_counter() - t0
    passed = worst_end < 1e-6 and worst_violation <= 1e-9 and runtime < 10.0
    announce(3, passed, f"extreme err {worst_end:.2e} (<1e-6), bound violation "
                        f"{worst_violation:.2e} (<=1e-9), {runtime:.1f}s (<10s)")
    assert passed


def test_criterion_04_sectional_bound(sols):
    rng = np.random.default_rng(0)
    worst_gap, worst_at_vstar, worst_violation = 0.0, 0.0, 0.0
    for p, sol in sols.items():
        K = sol.params.K_float
        expected = -1.5 - 1.0 / (2 * p * K)
        vs = unit_vectors(rng, 10_000)
        sampled = bisectional(sol, ORIGIN, TangentPair(v=vs, w=vs))
        vstar = extremal_sectional_vector(sol)
        at_vstar = bisectional(sol, ORIGIN, TangentPair(v=vstar, w=vstar))
        # a 1e4 random sample tops out ~1e-3 below the true supremum, so
        # the documented extremal direction joins the candidate pool; the
        # sample still independently certifies the upper-bound side
        pooled_max = max(float(sampled.max()), at_vstar)
        worst_gap = max(worst_gap, abs(pooled_max - expected))
        worst_at_vstar = max(worst_at_vstar, abs(at_vstar - expected))
        worst_violation = max(worst_violation, float(sampled.max()) - expected, 0.0)
    passed = (worst_gap <= 1e-4 and worst_at_vstar <= 1e-6
              and worst_violation <= 1e-9)
    announce(4, passed, f"max-vs-closed-form gap {worst_gap:.2e} (<=1e-4), "
                        f"at extremal vector {worst_at_vstar:.2e} (<=1e-6), "
                        f"sample violation {worst_violation:.2e}")
    assert passed


def test_criterion_05_blowup_asymptotics(sols):
    d = 1e-4
    x = 1.0 - d
    worst_f, worst_Z, worst_k = 0.0, 0.0, 0.0
    for p, sol in sols.items():
        f, f1, f2, f3 = sol.eval_f_derivs(x, 3)
        Z = sol.eval_Z(x, 0)[0]
        target = (2 * p - 1) / 4.0
        worst_f = max(worst_f, abs(f * d - 1.0))
        worst_Z = max(worst_Z, abs(d**3 * Z - target) / target)
        worst_k = max(worst_k, abs(f1 * d**2 - 1.0), abs(f2 * d**3 / 2.0 - 1.0),
                      abs(f3 * d**4 / 6.0 - 1.0))
    passed = worst_f <= 1e-2 and worst_Z <= 1e-2 and worst_k <= 3e-2
    announce(5, passed, f"f law {worst_f:.2e} (<=1e-2), Z law {worst_Z:.2e} rel "
                        f"(<=1e-2), derivative laws {worst_k:.2e} (<=3e-2)")
    assert passed


def test_criterion_06_einstein_residual(sols):
    rng = np.random.default_rng(0)
    worst = 0.0
    for p, sol in sols.items():
        worst = max(worst, max(einstein_residual(sol, z)
                               for z in sample_points(sol.params, rng, 100, 0.99)))
    passed = worst <= 1e-8
    announce(6, passed, f"max det[g]=e^(3g) residual {worst:.2e} (<=1e-8) "
                        f"over 100 points x 3 domains")
    assert passed


def test_criterion_07_bisectional_invariance(sols):
    rng = np.random.default_rng(0)
    worst = worst_direct = 0.0
    for p, sol in sols.items():
        for z in sample_points(sol.params, rng, 100, 0.99):
            v = rng.normal(size=2) + 1j * rng.normal(size=2)
            w = rng.normal(size=2) + 1j * rng.normal(size=2)
            pair = TangentPair(v=v, w=w)
            at_z = bisectional(sol, z, pair, normalize=False)
            on_axis = bisectional(sol, z, pair, normalize=True)
            worst = max(worst, abs(at_z - on_axis) / abs(at_z))
            # the tube formula reads one closed-form M in both frames; the
            # 16-term sum reads the raw jet's own tensor at z
            at_z = bisectional(sol, z, pair, normalize=False, formula="direct")
            on_axis = bisectional(sol, z, pair, normalize=True, formula="direct")
            worst_direct = max(worst_direct, abs(at_z - on_axis) / abs(at_z))
    passed = worst <= 1e-7 and worst_direct <= 1e-7
    announce(7, passed, f"worst |Bis_z - Bis_axis|/|Bis_z| = {worst:.2e} (tube), "
                        f"{worst_direct:.2e} (direct) (<=1e-7)")
    assert passed


def test_criterion_08_boundary_limit(sols):
    rng = np.random.default_rng(0)
    vs, ws = unit_vectors(rng, 1000), unit_vectors(rng, 1000)
    passed = True
    details = []
    for p in (1, 2):
        sol = sols[p]
        E = {}
        for x in (0.9, 0.99, 0.999):
            z = Point(0j, complex(x))
            jet = metric_jet(sol, z)
            values = bisectional(sol, z, TangentPair(v=vs, w=ws))
            gap = 0.0
            for i in range(1000):
                limit = boundary_limit_bis(jet, TangentPair(v=vs[i], w=ws[i]))
                gap = max(gap, abs(values[i] - limit))
            E[x] = gap
        # p=1 is the constant-holomorphic-curvature case: E vanishes
        # identically there, so a strict decrease is meaningless and the
        # requirement degenerates to "all gaps at rounding level"
        degenerate = max(E.values()) <= 1e-8
        chain = E[0.999] < E[0.99] < E[0.9]
        ok = (chain or degenerate) and E[0.999] <= 0.05
        passed = passed and ok
        details.append(f"p={p}: E={E[0.9]:.2e}/{E[0.99]:.2e}/{E[0.999]:.2e}"
                       + (" (noise floor)" if degenerate else ""))
    announce(8, passed, "; ".join(details) + " — need decreasing, E(0.999)<=0.05")
    assert passed


def test_criterion_09_sweep_pinching(sols):
    passed = True
    details = []
    for p, sol in sols.items():
        t0 = time.perf_counter()
        rows = axis_sweep(sol, x_min=0.0, x_max=1.0 - 1e-4, n=500)
        runtime = time.perf_counter() - t0
        xs = [row.x for row in rows]
        finite = all(
            math.isfinite(getattr(row, c)) for row in rows
            for c in ("x", "F", "f", "f1", "f2", "f3", "Z", "det_g",
                      "bis_min", "bis_max", "sect_max"))
        increasing = all(a < b for a, b in zip(xs, xs[1:]))
        worst_max = max(row.bis_max for row in rows)
        worst_min = min(row.bis_min for row in rows)
        ok = (len(rows) == 500 and finite and increasing
              and worst_max <= -0.1 and worst_min >= -5.0 and runtime < 60.0)
        passed = passed and ok
        details.append(f"p={p}: bis in [{worst_min:.3f}, {worst_max:.3f}], "
                       f"{runtime:.0f}s")
    announce(9, passed, "; ".join(details) + " — need [-5,-0.1], <60s per sweep")
    assert passed


def test_criterion_10_jet_vs_finite_differences(sols):
    rng = np.random.default_rng(0)
    h = 1e-4
    worst = 0.0
    for p, sol in sols.items():
        for z in sample_points(sol.params, rng, 20, 0.9):
            jet = metric_jet(sol, z)

            def g_at(d1, d2):
                return metric_jet(sol, Point(z.z1 + d1, z.z2 + d2)).metric

            shifts = {1: (h, 0.0), 2: (0.0, h)}
            for k in (1, 2):
                d1, d2 = shifts[k]
                fd3 = (g_at(d1, d2) - g_at(-d1, -d2)) / (4.0 * h)
                for i in (1, 2):
                    for j in (1, 2):
                        val = jet.deriv(i, j, k)
                        if abs(val) > 1e-8 * (1.0 + abs(fd3[i - 1, j - 1])):
                            worst = max(worst, abs(fd3[i - 1, j - 1] - val) / abs(val))
            for k, l in ((1, 1), (1, 2), (2, 2)):
                da, db = shifts[k], shifts[l]
                fd4 = (g_at(da[0] + db[0], da[1] + db[1])
                       - g_at(da[0] - db[0], da[1] - db[1])
                       - g_at(-da[0] + db[0], -da[1] + db[1])
                       + g_at(-da[0] - db[0], -da[1] - db[1])) / (16.0 * h * h)
                for i in (1, 2):
                    for j in (1, 2):
                        val = jet.deriv(i, j, k, l)
                        if abs(val) > 1e-8 * (1.0 + abs(fd4[i - 1, j - 1])):
                            worst = max(worst, abs(fd4[i - 1, j - 1] - val) / abs(val))
    passed = worst <= 1e-4
    announce(10, passed, f"worst relative jet-vs-FD error {worst:.2e} (<=1e-4) "
                         f"at 20 points x 3 domains")
    assert passed
