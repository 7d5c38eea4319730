"""Command-line front end.

Subcommands: check (condition certificates), dispersion (root curves),
decay (linear decay-rate study), simulate (nonlinear run), paradiff-test
(para-differential invariant battery), report (re-render a summary).

All outputs are JSON and CSV files written atomically into --output-dir;
identical command lines produce byte-identical files.
HYPDISS_THREADS overrides the BLAS/OpenMP thread count.
"""

import argparse
import json
import os
import sys

_THREADS = os.environ.get("HYPDISS_THREADS")
if _THREADS:
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, _THREADS)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_FAIL = 2
EXIT_MARGINAL = 3

#: paradiff-test's Littlewood-Paley reconstruction gate, in rounding units
#: eps * max|a| of the tested symbol (the error is 0 to 0.74 of one on
#: lattices of 16 to 512 points)
LP_RECONSTRUCTION_ULPS = 2


def _add_model_args(p):
    p.add_argument("--builtin", choices=["damped-wave", "convected-damped-wave", "fluid"])
    p.add_argument("--model", help="path to a model JSON document")
    p.add_argument("--a", type=float, default=2.0, help="damping / convection coefficient")
    p.add_argument("--d", type=int, default=1, help="space dimension for damped-wave")
    p.add_argument("--r", type=float, default=3.0)
    p.add_argument("--mu", type=float, default=2.0)
    p.add_argument("--nu", type=float, default=1.0)
    p.add_argument("--eta", type=float, default=1.0)
    p.add_argument("--zeta", type=float, default=0.0)


def _add_common_args(p):
    p.add_argument("--output-dir", default="hypdiss-out")


def _add_config_args(p):
    p.add_argument("--config", help="JSON file of CheckConfig fields (tolerances and grids)")
    p.add_argument("--xi-lo", type=float, default=None)
    p.add_argument("--xi-hi", type=float, default=None)
    p.add_argument("--xi-count", type=int, default=None)


def build_parser():
    ap = argparse.ArgumentParser(prog="hypdiss", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="run all condition checkers")
    _add_model_args(p)
    _add_common_args(p)
    _add_config_args(p)
    p.add_argument("--floor", type=float, default=None, help="strictness floor")
    p.add_argument("--cluster-tol", type=float, default=None)

    p = sub.add_parser("dispersion", help="write dispersion root curves")
    _add_model_args(p)
    _add_common_args(p)
    _add_config_args(p)

    p = sub.add_parser("decay", help="linear decay-rate study")
    _add_model_args(p)
    _add_common_args(p)
    p.add_argument("--s", type=float, default=2.0)
    p.add_argument("--sigma", type=float, default=None,
                   help="Gaussian data width (default 2.0, fluid 3.0)")
    p.add_argument("--amplitude", type=float, default=1e-2)
    p.add_argument("--window-lo", type=float, default=5.0)
    p.add_argument("--window-hi", type=float, default=200.0)
    p.add_argument("--band", type=float, default=0.1,
                   help="accepted deviation of the exponent from -d/4")
    p.add_argument("--self-test", action="store_true",
                   help="fit a synthetic exact power law instead of a model")

    p = sub.add_parser("simulate", help="nonlinear pseudo-spectral run")
    _add_model_args(p)
    _add_common_args(p)
    p.add_argument("--epsilon", type=float, default=1e-2)
    p.add_argument("--t-final", type=float, default=10.0)
    p.add_argument("--n-grid", type=int, default=None,
                   help="lattice points per axis (default: the largest power of two "
                        "<= 128 that the simulator accepts for the model)")
    p.add_argument("--snapshots", type=int, default=41)
    p.add_argument("--monitor", action="store_true")

    p = sub.add_parser("paradiff-test", help="para-differential invariant battery")
    _add_common_args(p)
    p.add_argument("--n-grid", type=int, default=128)

    p = sub.add_parser("report", help="rewrite summary.json from the reports of a check run")
    p.add_argument("--output-dir", default="hypdiss-out")
    return ap


def _effective_config(args):
    cfg = {}
    if getattr(args, "config", None):
        from .conditions import CheckConfig
        from .errors import InvalidParameter

        with open(args.config) as f:
            cfg.update(json.load(f))
        unknown = sorted(set(cfg) - set(CheckConfig.__dataclass_fields__))
        if unknown:
            raise InvalidParameter(f"--config keys {unknown} are not CheckConfig fields")
    for key, attr in (
        ("strictness_floor", "floor"),
        ("cluster_tolerance", "cluster_tol"),
        ("xi_lo", "xi_lo"),
        ("xi_hi", "xi_hi"),
        ("xi_count", "xi_count"),
    ):
        val = getattr(args, attr, None)
        if val is not None:
            cfg[key] = val
    return cfg


def _load_model(args):
    from .model import load_model, model_from_dict

    if args.model:
        return load_model(args.model)
    if args.builtin is None:
        raise SystemExit("no model selected: pass --builtin or --model")
    params = {"a": args.a, "d": args.d, "r": args.r, "mu": args.mu,
              "nu": args.nu, "eta": args.eta, "zeta": args.zeta}
    return model_from_dict({"builtin": {"name": args.builtin, "params": params}})


def _outdir(args):
    os.makedirs(args.output_dir, exist_ok=True)
    return args.output_dir


def _write_summary(out, model_label, verdicts, cfg):
    """summary.json of a check run; True when every verdict is a pass."""
    from .io import write_json_atomic

    all_pass = all(v == "pass" for v in verdicts.values())
    write_json_atomic(os.path.join(out, "summary.json"), {
        "model": model_label, "verdicts": verdicts, "all_pass": all_pass, "config": cfg})
    return all_pass


def cmd_check(args):
    from .conditions import CONDITION_ORDER, CheckConfig, run_all_checks
    from .io import write_atomic, write_json_atomic

    out = _outdir(args)
    cfg_dict = _effective_config(args)
    config = CheckConfig(**cfg_dict)
    model = _load_model(args)
    reports = run_all_checks(model, config=config)

    verdicts = {}
    rows = text = None
    for name in CONDITION_ORDER:
        rep = reports[name]
        payload = rep.to_json_dict()
        payload["config"] = cfg_dict
        payload["model"] = model.label
        write_json_atomic(os.path.join(out, f"report_{name}.json"), payload)
        if rep.per_point:
            # D3 and UNIFORM report the same rows: their text is formatted once
            if rep.per_point != rows:
                rows, text = rep.per_point, rep.margins_csv()
            write_atomic(os.path.join(out, f"margins_{name}.csv"), text)
        verdicts[name] = rep.verdict
    _write_summary(out, model.label, verdicts, cfg_dict)
    for name in CONDITION_ORDER:
        print(f"{name}: {verdicts[name]}")
    if any(v == "fail" for v in verdicts.values()):
        return EXIT_FAIL
    if any(v == "marginal" for v in verdicts.values()):
        return EXIT_MARGINAL
    return EXIT_OK


def cmd_dispersion(args):
    import numpy as np

    from .conditions import CheckConfig, frequency_grid
    from .grids import antipodal_expand, antipodal_fold
    from .io import write_csv_atomic
    from .symbols import dispersion_root_stack, sorted_roots

    out = _outdir(args)
    config = CheckConfig(**_effective_config(args))
    model = _load_model(args)
    omegas, _, xi, idx, mags, _ = frequency_grid(model, config=config)
    # the roots at -xi are the conjugates of those at xi (real coefficients)
    keep, src = antipodal_fold(xi)
    roots = dispersion_root_stack(model, model.reference_state, xi[keep])
    roots = sorted_roots(antipodal_expand(roots, xi, keep, src))
    parts = np.stack([roots.real, roots.imag], axis=-1).reshape(len(xi), -1)
    rows = [[i, x] + r for i, x, r in zip(idx.tolist(), mags.tolist(), parts.tolist())]
    hdr = ["omega_index", "xi"]
    for k in range(2 * model.n):
        hdr += [f"re_{k}", f"im_{k}"]
    write_csv_atomic(os.path.join(out, "dispersion.csv"), hdr, rows)
    print(f"wrote {len(rows)} root rows for {len(omegas)} directions")
    return EXIT_OK


def cmd_decay(args):
    from .io import write_json_atomic
    from .linear_spectral import GaussianData, decay_fit, decay_study, default_decay_times

    out = _outdir(args)
    window = (args.window_lo, args.window_hi)

    if args.self_test:
        times = default_decay_times(args.window_hi)
        norms = 3.0 * (1.0 + times) ** (-0.75)
        fit = decay_fit(times, norms, window)
        payload = {
            "mode": "self-test",
            "exponent": fit.exponent,
            "amplitude": fit.amplitude,
            "residual": fit.residual,
            "reliable": fit.reliable,
        }
        write_json_atomic(os.path.join(out, "decay_fit.json"), payload)
        ok = abs(fit.exponent + 0.75) < 1e-10
        print(f"self-test exponent {fit.exponent:+.12f} ({'ok' if ok else 'MISMATCH'})")
        return EXIT_OK if ok else EXIT_FAIL

    model = _load_model(args)
    sigma = args.sigma if args.sigma is not None else (3.0 if model.is_fluid else 2.0)
    data = [
        GaussianData(amplitude=args.amplitude, sigma=sigma, component=c)
        for c in range(model.n)
    ]
    study = decay_study(model, data, s=args.s, fit_window=window)
    study.write_csv(os.path.join(out, "decay_trajectory.csv"))
    target = -model.d / 4.0
    in_band = abs(study.fit.exponent - target) <= args.band
    payload = {
        "model": model.label,
        "s": args.s,
        "sigma": sigma,
        "exponent": study.fit.exponent,
        "amplitude": study.fit.amplitude,
        "residual": study.fit.residual,
        "span_decades": study.fit.span_decades,
        "reliable": study.fit.reliable,
        "fit_window": list(study.fit.fit_window),
        "target_exponent": target,
        "band": args.band,
        "in_band": bool(in_band),
        "asserted": model.d >= 3,
    }
    write_json_atomic(os.path.join(out, "decay_fit.json"), payload)
    print(
        f"fitted exponent {study.fit.exponent:+.4f} (target {target:+.2f}, "
        f"residual {study.fit.residual:.3f})"
    )
    if model.d < 3:
        print("warning: d < 3, decay-rate band not asserted")
        return EXIT_OK
    return EXIT_OK if in_band else EXIT_FAIL


def cmd_simulate(args):
    from .io import write_json_atomic
    from .paradiff import Lattice
    from .simulator import PeriodicBumpData, SimConfig, run

    out = _outdir(args)
    model = _load_model(args)
    sim_cfg = SimConfig(
        lattice=None if args.n_grid is None else Lattice(d=model.d, N=args.n_grid),
        t_final=args.t_final,
        snapshots=args.snapshots,
        monitor=args.monitor,
    )
    trace = run(model, PeriodicBumpData(amplitude=args.epsilon), sim_cfg)
    trace.write_csv(os.path.join(out, "trace.csv"))
    payload = {
        "model": model.label,
        "epsilon": args.epsilon,
        "t_final": args.t_final,
        "w_norm_initial": float(trace.w_norm[0]),
        "w_norm_final": float(trace.w_norm[-1]),
        "w_norm_max": float(trace.w_norm.max()),
        "dissipation_integral": float(trace.dissipation_integral[-1]),
    }
    write_json_atomic(os.path.join(out, "simulate.json"), payload)
    print(
        f"W-norm {trace.w_norm[0]:.4e} -> {trace.w_norm[-1]:.4e} "
        f"(max {trace.w_norm.max():.4e})"
    )
    return EXIT_OK


def cmd_paradiff_test(args):
    import numpy as np

    from .io import write_json_atomic
    from .paradiff import (
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
    from .simulator import _refuse_above_limit

    # the battery holds dense P x P complex symbols and operator matrices:
    # 24.9 to 28.1 of them at its tracemalloc peak for N = 64 ... 724
    _refuse_above_limit(32 * args.n_grid**2 * np.dtype(complex).itemsize,
                        f"the paradiff-test battery on {args.n_grid} lattice points")
    out = _outdir(args)
    lat = Lattice(d=1, N=args.n_grid)
    chi = make_cutoff(0.2, 0.5)
    x = lat.x_vectors()[:, 0]
    results = {}

    bracket = lambda v: np.sqrt(1.0 + np.sum(v**2, axis=1))
    sym = separable_symbol(lat, np.exp(np.cos(x)), bracket)
    parts = lp_decompose(sym)
    rec_err = float(np.abs(sum(p.values for p in parts) - sym.values).max())
    results["lp_reconstruction_error"] = rec_err
    # rounding alone: the symbol grows like <xi>, so the gate is relative
    rec_bound = LP_RECONSTRUCTION_ULPS * np.finfo(float).eps * float(np.abs(sym.values).max())

    sm = smooth_symbol(sym, cutoff_mask(lat, chi))
    eta = lat.xi_mags()
    br = lat.brackets()
    hatx = lat.fft(sm.values[:, :, 0, 0])
    forbidden = eta[:, None] >= chi.eps2 * br[None, :]
    scale = max(float(np.abs(sm.values).max()), 1e-300)
    supp_err = float(np.abs(hatx[forbidden]).max() / scale)
    results["smoothed_support_violation"] = supp_err

    bump = np.exp(-((x - np.pi) ** 2) / (2 * 0.6**2))
    u0 = GridFunction(lat, 0.5 * bump + 0j)
    F = SeparableFamily(lambda uv: uv[:, 0], bracket, 1.0)
    G = SeparableFamily(lambda uv: 1.0 + uv[:, 0], bracket, 1.0)
    rep = check_adjoint_product_errors(F, G, chi, u0)
    results["adjoint_slope"] = rep.adjoint_slope
    results["product_slope"] = rep.product_slope

    Fs = SeparableFamily(lambda uv: 1j * uv[:, 0], bracket, 1.0)
    grep = check_garding(Fs, u0, chi)
    results["garding_negativity_slope"] = grep.negativity_slope
    results["garding_constant_slope"] = grep.constant_slope

    ok = (
        rec_err <= rec_bound
        and supp_err < 1e-12
        and abs(rep.adjoint_slope - 1.0) <= 0.2
        and abs(rep.product_slope - 1.0) <= 0.2
        and grep.constant_slope <= 0.7
        and grep.constant_slope >= -0.1
    )
    results["all_green"] = bool(ok)
    write_json_atomic(os.path.join(out, "paradiff_report.json"), results)
    for k, v in results.items():
        print(f"{k}: {v}")
    return EXIT_OK if ok else EXIT_FAIL


def cmd_report(args):
    out = args.output_dir
    reports = []
    for name in sorted(os.listdir(out)):
        if name.startswith("report_") and name.endswith(".json"):
            with open(os.path.join(out, name)) as f:
                reports.append(json.load(f))
    if not reports:
        raise FileNotFoundError(f"no report_*.json in {out}")
    verdicts = {rep["condition"]: rep["verdict"] for rep in reports}
    all_pass = _write_summary(out, reports[0]["model"], verdicts, reports[0]["config"])
    for k, v in verdicts.items():
        print(f"{k}: {v}")
    return EXIT_OK if all_pass else EXIT_FAIL


def main(argv=None):
    args = build_parser().parse_args(argv)
    handlers = {
        "check": cmd_check,
        "dispersion": cmd_dispersion,
        "decay": cmd_decay,
        "simulate": cmd_simulate,
        "paradiff-test": cmd_paradiff_test,
        "report": cmd_report,
    }
    try:
        return handlers[args.command](args)
    except SystemExit:
        raise
    except Exception as e:  # load/solver errors map to exit 1
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
