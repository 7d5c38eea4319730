"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
pass/fail lines.
"""

import time

import numpy as np

from hypdiss.cli import EXIT_OK, main
from hypdiss.conditions import (
    check_d1,
    check_d2,
    check_d3,
    check_ha,
    check_hb,
    check_uniform_dissipativity,
    rho_profile,
)
from hypdiss.linear_spectral import GaussianData, decay_study
from hypdiss.model import (
    FluidParameters,
    builtin_barotropic_fluid,
    builtin_convected_damped_wave,
    builtin_damped_wave,
    ensure_normalized,
    model_from_dict,
)
from hypdiss.paradiff import (
    GridFunction,
    Lattice,
    SeparableFamily,
    check_adjoint_product_errors,
    check_garding,
    cutoff_mask,
    lp_decompose,
    make_cutoff,
    separable_symbol,
    smooth_symbol,
)
from hypdiss.simulator import (
    EnergyForm,
    LinearPart,
    PeriodicBumpData,
    SimConfig,
    TrigData,
    energy_monitor,
    initial_state,
    run,
    step_rk4,
)
from hypdiss.symbols import (
    assemble_calA_stack,
    assemble_calB_stack,
    assemble_M,
    assemble_Mbar,
    directional_stack,
)

from oracles import fluid_bases, k_family

FLUID = FluidParameters(r=3, mu=2, nu=1, eta=1, zeta=0)
FLUID_SETS = [
    FluidParameters(r=3, mu=2, nu=1, eta=1, zeta=0),
    FluidParameters(r=2, mu=3, nu=1.5, eta=1, zeta=0.5),
    FluidParameters(r=1, mu=2.5, nu=0.7, eta=1.2, zeta=0.1),
]


def verdict(num, label, ok, detail=""):
    print(f"[criterion {num}] {label}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num} failed: {label} {detail}"


def test_criterion_1_decay_rate():
    # combined-norm exponent in [-0.85, -0.65] on t in [5, 200] for the d=3
    # fluid and the d=3 damped wave with Gaussian data, < 60 s per model
    results = []
    t0 = time.time()
    f = builtin_barotropic_fluid(FLUID)
    data = [GaussianData(amplitude=1e-2, sigma=3.0, component=c) for c in range(4)]
    sf = decay_study(f, data, s=2.0, fit_window=(5.0, 200.0))
    t_fluid = time.time() - t0
    results.append(("fluid", sf.fit.exponent, t_fluid))

    t0 = time.time()
    m = builtin_damped_wave(2.0, d=3)
    sm = decay_study(m, GaussianData(amplitude=1e-2, sigma=2.0), s=2.0,
                     fit_window=(5.0, 200.0))
    t_dw = time.time() - t0
    results.append(("damped-wave", sm.fit.exponent, t_dw))

    ok = all(-0.85 <= ex <= -0.65 for _, ex, _ in results)
    ok = ok and all(rt < 60.0 for _, _, rt in results)
    detail = " ".join(f"{n}: {ex:+.4f} ({rt:.1f}s)" for n, ex, rt in results)
    verdict(1, "decay rate -d/4 band", ok, detail)


def test_criterion_2_uniform_dissipativity():
    # damped wave certificate c_abs = 0.5 +- 1e-3 against the closed-form
    # eigenvalue oracle; fluid c_abs > 0 with bounded certificate
    # conditioning and no growth trend at either end of the xi log grid
    rep_dw = check_uniform_dissipativity(builtin_damped_wave(2.0, d=1))
    xis = np.array(rep_dw.trace["xi_grid"])
    alpha = np.where(xis < 1.0, -(1.0 - np.sqrt(np.maximum(1.0 - xis**2, 0.0))), -1.0)
    oracle = float(np.min(-alpha / rho_profile(xis)))
    ok_dw = abs(rep_dw.c_bar - 0.5) <= 1e-3 and abs(rep_dw.c_bar - oracle) <= 1e-9

    rep_f = check_uniform_dissipativity(builtin_barotropic_fluid(FLUID))
    tr = rep_f.trace
    ok_f = (
        tr["c_abs"] > 0.0
        and tr["cond_max"] < 1e8
        and abs(tr["cond_tail_slope"]) < 0.05
        and abs(tr["cond_head_slope"]) < 0.05
    )
    verdict(
        2,
        "uniform dissipativity certificates",
        ok_dw and ok_f,
        f"dw c_abs={rep_dw.c_bar:.6f} fluid c_abs={tr['c_abs']:.4f} "
        f"cond_max={tr['cond_max']:.1f} slopes=({tr['cond_head_slope']:+.4f},"
        f"{tr['cond_tail_slope']:+.4f})",
    )


def test_criterion_3_condition_checkers_on_fluid():
    details = []
    ok = True
    for p in FLUID_SETS:
        f = builtin_barotropic_fluid(p)
        ha = check_ha(f)
        hb = check_hb(f)
        verdicts = {
            "HA": ha.report.verdict,
            "HB": hb.report.verdict,
            "D1": check_d1(f, ha=ha).verdict,
            "D2": check_d2(f, hb=hb).verdict,
            "D3": check_d3(f).verdict,
        }
        ok = ok and all(v == "pass" for v in verdicts.values())
        details.append(f"(r={p.r},mu={p.mu}): {','.join(verdicts.values())}")

        # transverse damped-wave identification via block reassembly
        rng = np.random.default_rng(1)
        u = f.reference_state
        for _ in range(10):
            om = rng.normal(size=3)
            om /= np.linalg.norm(om)
            _, (A_dir,), (B_dir,), (C_dir,) = directional_stack(f, u, om)
            full = {"A0": f.A(0, u), "A": A_dir, "B00": f.B(0, 0, u),
                    "B": B_dir, "C": C_dir}
            Fl, Ft = fluid_bases(om)
            t = {k: Ft.T @ v @ Ft for k, v in full.items()}
            ok = ok and np.allclose(t["A0"], np.eye(2), atol=1e-12)
            ok = ok and np.allclose(t["A"], 0.0, atol=1e-12)
            ok = ok and np.allclose(t["B00"], -p.nu * np.eye(2), atol=1e-12)
            ok = ok and np.allclose(t["B"], p.eta * np.eye(2), atol=1e-12)
            ok = ok and np.allclose(t["C"], 0.0, atol=1e-12)
            for key, mat in full.items():
                parts = Fl @ (Fl.T @ mat @ Fl) @ Fl.T + Ft @ (Ft.T @ mat @ Ft) @ Ft.T
                ok = ok and np.abs(parts - mat).max() < 1e-12
    verdict(3, "fluid condition checkers + transverse blocks", ok, "; ".join(details))


def test_criterion_4_subcharacteristic_threshold():
    # D1 margin matches 2(a^2 - 1) to 1e-9; verdict flips across a = 1,
    # localized to 1e-3 by bisection
    ok = True
    for a in (0.3, 0.5, 0.9, 1.1, 1.5):
        rep = check_d1(builtin_convected_damped_wave(a))
        ok = ok and abs(rep.margin - 2.0 * (a**2 - 1.0)) < 1e-9

    def passes(a):
        return check_d1(builtin_convected_damped_wave(a)).verdict == "pass"

    lo, hi = 0.5, 1.5
    while hi - lo > 2e-4:
        mid = 0.5 * (lo + hi)
        if passes(mid):
            lo = mid
        else:
            hi = mid
    threshold = 0.5 * (lo + hi)
    ok = ok and abs(threshold - 1.0) < 1e-3
    ok = ok and passes(1.0 - 1e-3) and not passes(1.0 + 1e-3)
    verdict(4, "sub-characteristic threshold", ok, f"bisected flip at a={threshold:.6f}")


def test_criterion_5_symbol_identity_suite():
    # M = Z Mbar Z^{-1}; |xi| K(u, 1/|xi|, w) ~ M via Ztilde; K(u,0,w) = calB;
    # d_eta K|_0 = calA -- each to 1e-10 over 100 random samples, < 5 s
    t0 = time.time()
    rng = np.random.default_rng(99)
    f = ensure_normalized(builtin_barotropic_fluid(FLUID))
    u = f.reference_state
    worst = 0.0
    for _ in range(100):
        om = rng.normal(size=3)
        om /= np.linalg.norm(om)
        x = rng.uniform(0.2, 50.0)
        xi = x * om

        M = assemble_M(f, u, xi)
        mbar = assemble_Mbar(f, u, xi)
        Z = np.diag(np.r_[np.full(f.n, np.sqrt(1.0 + xi @ xi)), np.ones(f.n)])
        e1 = np.abs(M - Z @ mbar @ np.linalg.inv(Z)).max() / max(np.abs(M).max(), 1.0)

        K = k_family(f, u, 1.0 / x, om)
        Zt = np.diag(np.r_[np.full(f.n, np.sqrt(1.0 + x**2) / x), np.ones(f.n)])
        lhs = x * K
        rhs = np.linalg.solve(Zt, M @ Zt)
        e2 = np.abs(lhs - rhs).max() / max(np.abs(lhs).max(), 1.0)

        e3 = np.abs(k_family(f, u, 0.0, om) - assemble_calB_stack(f, u, om[None])[0]).max()

        h = 1e-4
        dK = (k_family(f, u, h, om) - k_family(f, u, -h, om)) / (2 * h)
        e4 = np.abs(dK - assemble_calA_stack(f, u, om[None])[0]).max()

        worst = max(worst, e1, e2, e3, e4)
    elapsed = time.time() - t0
    ok = worst < 1e-10 and elapsed < 5.0
    verdict(5, "symbol identity suite", ok, f"worst={worst:.2e} ({elapsed:.2f}s)")


def test_criterion_6_paradiff_property_suite():
    lat = Lattice(d=1, N=128)
    chi = make_cutoff(0.2, 0.5)
    x = lat.x_vectors()[:, 0]
    bracket = lambda v: np.sqrt(1.0 + np.sum(v**2, axis=1))

    sym = separable_symbol(lat, np.exp(np.cos(x)), bracket)
    parts = lp_decompose(sym)
    lp_err = float(np.abs(sum(p.values for p in parts) - sym.values).max())

    sm = smooth_symbol(sym, cutoff_mask(lat, chi))
    hat = lat.fft(sm.values[:, :, 0, 0])
    eta = lat.xi_mags()
    br = lat.brackets()
    forbidden = eta[:, None] >= chi.eps2 * br[None, :]
    supp_err = float(np.abs(hat[forbidden]).max() / np.abs(sm.values).max())

    u0 = GridFunction(lat, 0.5 * np.exp(-((x - np.pi) ** 2) / (2 * 0.6**2)) + 0j)
    F = SeparableFamily(lambda uv: uv[:, 0], bracket, 1.0)
    G = SeparableFamily(lambda uv: 1.0 + uv[:, 0], bracket, 1.0)
    rep = check_adjoint_product_errors(F, G, chi, u0)

    Fs = SeparableFamily(lambda uv: 1j * uv[:, 0], bracket, 1.0)
    grep = check_garding(Fs, u0, chi)

    ok = (
        lp_err < 1e-13
        and supp_err < 1e-12
        and abs(rep.adjoint_slope - 1.0) <= 0.2
        and abs(rep.product_slope - 1.0) <= 0.2
        and grep.any_negativity
        and -0.1 <= grep.constant_slope <= 0.7
    )
    verdict(
        6,
        "para-differential property suite",
        ok,
        f"lp={lp_err:.1e} supp={supp_err:.1e} adj={rep.adjoint_slope:.3f} "
        f"prod={rep.product_slope:.3f} garding_c={grep.constant_slope:.3f}",
    )


def test_criterion_7_simulator_consistency():
    import scipy.linalg as sla

    lat = Lattice(d=1, N=64)
    m = builtin_convected_damped_wave(0.5)
    lin = LinearPart(m, lat)

    # (a) frozen-coefficient per-mode agreement with exp(t Mbar) to 1e-8
    st = initial_state(
        lin, [TrigData(amplitude=1e-2, wavenumber=(1,)),
              TrigData(amplitude=5e-3, wavenumber=(5,))],
    )
    u0h, v0h = lat.fft(st.u), lat.fft(st.ut)
    cur = st
    for _ in range(1000):
        cur = step_rk4(lin, cur, 1e-3)
    uh, vh = lat.fft(cur.u), lat.fft(cur.ut)
    xi = lat.xi_vectors()
    per_mode = 0.0
    for k in range(lat.points):
        U0 = np.array([u0h[k, 0], v0h[k, 0]])
        if np.abs(U0).max() < 1e-16:
            continue
        want = sla.expm(assemble_Mbar(m, m.reference_state, xi[k])) @ U0
        per_mode = max(per_mode, np.abs(np.array([uh[k, 0], vh[k, 0]]) - want).max())
    ok_mode = per_mode < 1e-8

    # (b) RK4 order-4 Richardson slope 4 +- 0.2
    k3 = int(np.argmin(np.abs(xi[:, 0] - 3.0)))
    mbar3 = assemble_Mbar(m, m.reference_state, np.array([3.0]))
    errs = []
    for dt in (1e-2, 5e-3, 2.5e-3):
        s2 = initial_state(lin, TrigData(amplitude=1.0, wavenumber=(3,)))
        U0 = np.array([lat.fft(s2.u)[k3, 0], lat.fft(s2.ut)[k3, 0]])
        for _ in range(int(round(1.0 / dt))):
            s2 = step_rk4(lin, s2, dt)
        U = np.array([lat.fft(s2.u)[k3, 0], lat.fft(s2.ut)[k3, 0]])
        errs.append(np.abs(U - sla.expm(mbar3) @ U0).max())
    slopes = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    ok_rk4 = np.all(np.abs(slopes - 4.0) <= 0.2)

    # (c) quadratic small-amplitude signature across eps in {1e-2, 1e-3}
    mnl = model_from_dict(
        {
            "n": 1, "d": 1, "reference_state": [0.0],
            "A": {"0": [[1.0]], "1": [[[[0.5, 0], [1.0, 1]]]]},
            "B": {"0,0": [[-1.0]], "1,1": [[1.0]]},
        }
    )
    cfg = SimConfig(lattice=lat, t_final=3.0, snapshots=7)
    ratios = []
    for eps in (1e-2, 1e-3):
        trn = run(mnl, TrigData(amplitude=eps, wavenumber=(1,)), cfg)
        trl = run(m, TrigData(amplitude=eps, wavenumber=(1,)), cfg)
        ratios.append(np.abs(trn.final_state.u - trl.final_state.u).max() / eps**2)
    ok_quad = 0.5 < ratios[1] / ratios[0] < 2.0

    # (d) bounded norms on [0, 100] and the energy inequality at 20 snapshots
    cfg_long = SimConfig(lattice=Lattice(d=1, N=128), t_final=100.0, snapshots=21)
    tr = run(m, PeriodicBumpData(amplitude=1e-2), cfg_long)
    ok_bounded = tr.w_norm.max() <= 2.0 * tr.w_norm[0]

    form = EnergyForm(lin)
    st = initial_state(lin, PeriodicBumpData(amplitude=1e-2))
    ok_energy = True
    for _ in range(20):
        res = energy_monitor(form, st)
        ok_energy = ok_energy and res.satisfied
        for _ in range(25):
            st = step_rk4(lin, st, 0.02)

    ok = bool(ok_mode and ok_rk4 and ok_quad and ok_bounded and ok_energy)
    verdict(
        7,
        "simulator consistency",
        ok,
        f"mode={per_mode:.1e} rk4={slopes.round(3).tolist()} "
        f"quad_ratio={ratios[1] / ratios[0]:.2f} "
        f"bound={tr.w_norm.max() / tr.w_norm[0]:.2f} energy={'ok' if ok_energy else 'violated'}",
    )


def test_criterion_8_determinism(tmp_path):
    import os

    def dir_bytes(p):
        return {
            name: open(os.path.join(p, name), "rb").read()
            for name in sorted(os.listdir(p))
        }

    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["check", "--builtin", "damped-wave", "--a", "2",
                 "--output-dir", a]) == EXIT_OK
    assert main(["check", "--builtin", "damped-wave", "--a", "2",
                 "--output-dir", b]) == EXIT_OK
    same_check = dir_bytes(a) == dir_bytes(b)

    c, d = str(tmp_path / "c"), str(tmp_path / "d")
    assert main(["decay", "--builtin", "fluid", "--output-dir", c]) == EXIT_OK
    assert main(["decay", "--builtin", "fluid", "--output-dir", d]) == EXIT_OK
    same_decay = dir_bytes(c) == dir_bytes(d)

    verdict(8, "byte-identical repeated runs", same_check and same_decay,
            f"check={same_check} decay={same_decay}")
