import json
import os
import warnings

import numpy as np
import pytest

from hypdiss.cli import EXIT_ERROR, EXIT_FAIL, EXIT_OK, main


def read_dir_bytes(path):
    out = {}
    for name in sorted(os.listdir(path)):
        with open(os.path.join(path, name), "rb") as f:
            out[name] = f.read()
    return out


class TestCheck:
    def test_damped_wave_all_pass(self, tmp_path):
        out = tmp_path / "out"
        code = main(["check", "--builtin", "damped-wave", "--a", "2",
                     "--output-dir", str(out)])
        assert code == EXIT_OK
        summary = json.loads((out / "summary.json").read_text())
        assert summary["all_pass"]
        assert set(summary["verdicts"]) == {"HA", "HB", "D1", "D2", "D3", "UNIFORM"}
        rep = json.loads((out / "report_UNIFORM.json").read_text())
        assert rep["c_bar"] == pytest.approx(0.5, abs=1e-3)
        assert "config" in rep

    def test_supercharacteristic_fails(self, tmp_path):
        out = tmp_path / "out"
        code = main(["check", "--builtin", "convected-damped-wave", "--a", "1.5",
                     "--output-dir", str(out)])
        assert code == EXIT_FAIL
        summary = json.loads((out / "summary.json").read_text())
        assert summary["verdicts"]["D1"] == "fail"

    def test_fluid_all_pass(self, tmp_path):
        out = tmp_path / "out"
        code = main(["check", "--builtin", "fluid", "--r", "3", "--mu", "2",
                     "--nu", "1", "--eta", "1", "--zeta", "0",
                     "--output-dir", str(out)])
        assert code == EXIT_OK

    def test_margin_csv_columns(self, tmp_path):
        out = tmp_path / "out"
        main(["check", "--builtin", "damped-wave", "--a", "2", "--output-dir", str(out)])
        lines = (out / "margins_D3.csv").read_text().splitlines()
        assert lines[0] == "xi,omega_index,margin"
        assert len(lines) > 1

    def test_margin_csv_bytes(self, tmp_path):
        # D3 and UNIFORM write the same text: CRLF lines, floats that read back
        # bit-equal to the reports' per_point rows
        from hypdiss.conditions import CheckConfig, run_all_checks
        from hypdiss.model import FluidParameters, builtin_barotropic_fluid

        out = tmp_path / "out"
        main(["check", "--builtin", "fluid", "--r", "3", "--mu", "2", "--nu", "1", "--eta", "1",
              "--zeta", "0", "--output-dir", str(out)])
        text = (out / "margins_D3.csv").read_bytes()
        assert text == (out / "margins_UNIFORM.csv").read_bytes()
        lines = text.decode().split("\r\n")
        assert lines[0] == "xi,omega_index,margin" and lines[-1] == ""
        assert not any("\n" in line or "\r" in line for line in lines)
        rows = [(float(x), int(i), float(mg)) for x, i, mg in (ln.split(",") for ln in lines[1:-1])]
        reports = run_all_checks(builtin_barotropic_fluid(FluidParameters(3, 2, 1, 1, 0)),
                                 CheckConfig())
        assert rows == reports["D3"].per_point == reports["UNIFORM"].per_point
        # the structural reports leave xi empty
        hb = (out / "margins_HB.csv").read_bytes().decode().split("\r\n")
        assert hb[1].startswith(",0,") and float(hb[1].split(",")[2]) == reports["HB"].per_point[0][2]

    def test_invalid_model_exit_one(self, tmp_path):
        code = main(["check", "--builtin", "fluid", "--mu", "0.5",
                     "--output-dir", str(tmp_path / "out")])
        assert code == 1

    def test_non_finite_model_exit_one(self, tmp_path, capsys):
        path = tmp_path / "nan.json"
        path.write_text('{"n": 1, "d": 1, "A": {"0": [[NaN]]}, '
                        '"B": {"0,0": [[-1.0]], "1,1": [[1.0]]}}')
        code = main(["check", "--model", str(path), "--output-dir", str(tmp_path / "out")])
        assert code == 1
        assert "InvalidParameter" in capsys.readouterr().err

    def test_non_integer_exponent_exit_one(self, tmp_path, capsys):
        path = tmp_path / "power.json"
        path.write_text('{"n": 1, "d": 1, "A": {"0": [[1.0]], "1": [[[[1.0, 1.5]]]]}, '
                        '"B": {"0,0": [[-1.0]], "1,1": [[1.0]]}}')
        code = main(["check", "--model", str(path), "--output-dir", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err
        assert "InvalidParameter" in err and "A['1'][0][0]" in err

    def test_null_entry_exit_one(self, tmp_path, capsys):
        path = tmp_path / "null.json"
        path.write_text('{"n": 1, "d": 1, "A": {"0": [[null]]}, '
                        '"B": {"0,0": [[-1.0]], "1,1": [[1.0]]}}')
        code = main(["check", "--model", str(path), "--output-dir", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err
        assert "InvalidParameter" in err and "A['0'][0][0]" in err

    def test_key_outside_the_model_exit_one(self, tmp_path, capsys):
        # "2" is no coefficient index at d = 1; it used to be dropped silently
        path = tmp_path / "key.json"
        path.write_text('{"n": 1, "d": 1, "A": {"0": [[1.0]], "2": [[1.0]]}, '
                        '"B": {"0,0": [[-1.0]], "1,1": [[1.0]]}}')
        code = main(["check", "--model", str(path), "--output-dir", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err
        assert "InvalidParameter" in err and "A['2']" in err

    def test_cluster_ambiguity_names_state_and_direction(self, tmp_path, capsys):
        # i calB has the speeds 1 and sqrt(1.0000005): clusters 2.5e-7 apart,
        # inside the 10 x tolerance guard, at every state and direction
        path = tmp_path / "close.json"
        path.write_text('{"n": 2, "d": 1, "A": {"0": [[1.0, 0.0], [0.0, 1.0]]}, '
                        '"B": {"0,0": [[-1.0, 0.0], [0.0, -1.0]], '
                        '"1,1": [[1.0, 0.0], [0.0, 1.0000005]]}}')
        code = main(["check", "--model", str(path), "--output-dir", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ClusterAmbiguity: clusters separated by 2.500e-07")
        assert err.rstrip().endswith("at state index 0, omega index 0")

    def test_singular_a0_names_the_state(self, tmp_path, capsys):
        # A^0 = u vanishes at the state sample u = 0, the third Halton point
        path = tmp_path / "a0.json"
        path.write_text(json.dumps({
            "n": 1, "d": 1, "reference_state": [0.5],
            "A": {"0": [[[[1.0, 1]]]], "1": [[1.0]]},
            "B": {"0,0": [[-1.0]], "1,1": [[1.0]]},
        }))
        code = main(["check", "--model", str(path), "--output-dir", str(tmp_path / "out")])
        assert code == 1
        assert capsys.readouterr().err.rstrip() == (
            "error: SingularA0: A^0 is singular at state index 2")

    def test_overflowing_symbol_names_state_and_direction(self, tmp_path, capsys):
        # A^1 = u^3 overflows to -inf at the first state sample u = -1e110;
        # with every warning an error, the typed error is still the only line
        # on stderr (no RuntimeWarning from the monomial power)
        path = tmp_path / "cube.json"
        path.write_text(json.dumps({
            "n": 1, "d": 1, "reference_state": [0.0],
            "domain_lo": [-1e110], "domain_hi": [1e110],
            "A": {"0": [[1.0]], "1": [[[[1.0, 3]]]]},
            "B": {"0,0": [[-1.0]], "1,1": [[1.0]]},
        }))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["check", "--model", str(path), "--output-dir", str(tmp_path / "out")])
        assert code == 1
        assert capsys.readouterr().err.rstrip() == (
            "error: EigensolverFailure: matrix has non-finite entries "
            "at state index 0, omega index 0")

    @pytest.mark.parametrize("count,error", [("0", "GridEmpty"), ("1", "InvalidParameter")])
    def test_degenerate_radial_grid_exit_one(self, tmp_path, capsys, count, error):
        code = main(["check", "--builtin", "fluid", "--xi-count", count,
                     "--output-dir", str(tmp_path / "out")])
        assert code == 1
        assert f"error: {error}:" in capsys.readouterr().err


class TestInputGuards:
    SIM = ["simulate", "--builtin", "convected-damped-wave", "--a", "0.5", "--n-grid", "16",
           "--t-final", "0.1"]

    @pytest.mark.parametrize("argv", [
        SIM + ["--snapshots", "0"],
        SIM + ["--snapshots", "1"],
        SIM + ["--t-final", "-1"],
        SIM + ["--t-final", "nan"],
        SIM + ["--n-grid", "0"],
        SIM + ["--n-grid", "1"],
        ["check", "--builtin", "damped-wave", "--d", "0"],
        # --sigma -1 used to fit an exponent, --amplitude inf to warn before DegenerateFit
        ["decay", "--builtin", "damped-wave", "--a", "2", "--d", "3", "--sigma=-1"],
        ["decay", "--builtin", "damped-wave", "--a", "2", "--d", "3", "--amplitude", "inf"],
    ], ids=["snapshots-0", "snapshots-1", "t-final-negative", "t-final-nan", "n-grid-0",
            "n-grid-1", "d-0", "sigma-negative", "amplitude-inf"])
    def test_refused_with_invalid_parameter(self, tmp_path, capsys, argv):
        code = main(argv + ["--output-dir", str(tmp_path / "out")])
        assert code == 1
        assert "error: InvalidParameter:" in capsys.readouterr().err

    @pytest.mark.parametrize("window", [["--window-hi", "inf"], ["--window-hi", "-1"],
                                        ["--window-hi", "nan"], ["--window-lo", "300"]],
                             ids=["hi-inf", "hi-negative", "hi-nan", "lo-above-hi"])
    def test_bad_fit_window_is_refused_before_the_study(self, tmp_path, capsys, window):
        # these used to decompose every mode first, then raise DegenerateFit
        # (and print RuntimeWarnings at --window-hi inf)
        out = tmp_path / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["decay", "--builtin", "damped-wave", "--a", "2", "--d", "3", *window,
                         "--output-dir", str(out)])
        assert code == EXIT_ERROR
        assert "error: InvalidParameter: fit window" in capsys.readouterr().err
        assert not (out / "decay_fit.json").exists()
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    @pytest.mark.parametrize("band", ["nan", "inf", "-1"])
    def test_bad_band_is_refused_before_the_study(self, tmp_path, capsys, band):
        # --band nan used to write "band": NaN, which is not JSON, and --band
        # inf to accept any exponent
        out = tmp_path / "out"
        code = main(["decay", "--builtin", "damped-wave", "--a", "2", "--d", "3", "--band", band,
                     "--output-dir", str(out)])
        assert code == EXIT_ERROR
        assert "error: InvalidParameter: --band" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv, error, written", [
        (["decay", "--builtin", "damped-wave", "--a", "2", "--d", "3", "--s", "inf"],
         "InvalidParameter: s = inf", "decay_fit.json"),
        (["decay", "--builtin", "damped-wave", "--a", "2", "--d", "3", "--s", "1e300"],
         "InvalidParameter: s = 1e+300", "decay_fit.json"),
        (SIM + ["--epsilon", "inf"], "InvalidParameter: PeriodicBumpData.amplitude", "simulate.json"),
        (SIM + ["--epsilon=-inf"], "InvalidParameter: PeriodicBumpData.amplitude", "simulate.json"),
    ], ids=["s-inf", "s-1e300", "epsilon-inf", "epsilon-minus-inf"])
    def test_overflowing_input_is_refused_without_warnings(self, tmp_path, capsys, argv, error, written):
        # --s inf and --s 1e300 used to print 2 and 3 RuntimeWarnings before
        # DegenerateFit (the H^s weight <xi>^{2(s-1)} overflows), and
        # --epsilon inf one before BlowUp
        out = tmp_path / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(argv + ["--output-dir", str(out)])
        assert code == EXIT_ERROR
        assert f"error: {error}" in capsys.readouterr().err
        assert not (out / written).exists()
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    def test_one_snapshot_at_t_final_zero_is_accepted(self, tmp_path):
        out = tmp_path / "out"
        assert main(self.SIM + ["--t-final", "0", "--snapshots", "1",
                                "--output-dir", str(out)]) == EXIT_OK
        assert json.loads((out / "simulate.json").read_text())["t_final"] == 0.0
        assert len((out / "trace.csv").read_text().splitlines()) == 2


class TestFlagScope:
    @pytest.mark.parametrize("argv", [
        ["decay", "--builtin", "damped-wave", "--floor", "1"],
        ["simulate", "--builtin", "convected-damped-wave", "--floor", "1"],
        ["paradiff-test", "--floor", "1"],
        ["dispersion", "--builtin", "damped-wave", "--cluster-tol", "1"],
        ["report", "--seed", "1"],
        ["check", "--builtin", "damped-wave", "--seed", "1"],
        ["decay", "--builtin", "damped-wave", "--seed", "1"],
        ["paradiff-test", "--seed", "1"],
    ], ids=["decay-floor", "simulate-floor", "paradiff-floor", "dispersion-cluster-tol",
            "report-seed", "check-seed", "decay-seed", "paradiff-seed"])
    def test_flag_a_command_does_not_read_is_refused(self, tmp_path, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--output-dir", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key", ["state_samples", "xi_cout", "dissipation_threshold"])
    def test_config_key_that_is_no_check_setting_is_refused(self, tmp_path, capsys, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: 64 if key == "state_samples" else 5}))
        code = main(["check", "--builtin", "damped-wave", "--config", str(cfg),
                     "--output-dir", str(tmp_path / "out")])
        assert code == EXIT_ERROR
        err = capsys.readouterr().err
        assert "InvalidParameter" in err and key in err
        assert not (tmp_path / "out" / "summary.json").exists()

    @pytest.mark.parametrize("doc", [
        {"strictness_floor": -2}, {"structural_tol": -1e-9}, {"cluster_tolerance": 0},
        {"cond_ceiling": -1.0}, {"xi_count": 20.7}, {"directions_2d": 3.5},
        {"strictness_floor": "x"}, {"xi_hi": True}, {"xi_lo": None},
    ], ids=lambda doc: "-".join(f"{k}={v}" for k, v in doc.items()))
    def test_config_value_out_of_range_is_refused(self, tmp_path, capsys, doc):
        # a negative floor used to pass the supercharacteristic D2 and D3; a
        # negative ceiling flipped UNIFORM; 20.7 radii silently scanned 20
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        code = main(["check", "--builtin", "convected-damped-wave", "--a", "1.5",
                     "--config", str(cfg), "--output-dir", str(tmp_path / "out")])
        assert code == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: InvalidParameter: CheckConfig.") and next(iter(doc)) in err
        assert not (tmp_path / "out" / "summary.json").exists()

    @pytest.mark.parametrize("argv", [["--floor", "-2"], ["--cluster-tol", "0"], ["--xi-lo", "nan"]])
    def test_config_flag_out_of_range_is_refused(self, tmp_path, capsys, argv):
        code = main(["check", "--builtin", "damped-wave", *argv, "--output-dir", str(tmp_path / "out")])
        assert code == EXIT_ERROR
        assert capsys.readouterr().err.startswith("error: InvalidParameter: CheckConfig.")


class TestDeterminism:
    def test_check_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["check", "--builtin", "convected-damped-wave", "--a", "0.5",
              "--output-dir", str(a)])
        main(["check", "--builtin", "convected-damped-wave", "--a", "0.5",
              "--output-dir", str(b)])
        assert read_dir_bytes(a) == read_dir_bytes(b)

    def test_decay_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        args = ["decay", "--builtin", "damped-wave", "--a", "2", "--d", "3"]
        main(args + ["--output-dir", str(a)])
        main(args + ["--output-dir", str(b)])
        assert read_dir_bytes(a) == read_dir_bytes(b)


class TestDecay:
    def test_self_test_mode(self, tmp_path):
        out = tmp_path / "out"
        code = main(["decay", "--self-test", "--output-dir", str(out)])
        assert code == EXIT_OK
        fit = json.loads((out / "decay_fit.json").read_text())
        assert fit["exponent"] == pytest.approx(-0.75, abs=1e-10)

    def test_damped_wave_d3_in_band(self, tmp_path):
        out = tmp_path / "out"
        code = main(["decay", "--builtin", "damped-wave", "--a", "2", "--d", "3",
                     "--output-dir", str(out)])
        assert code == EXIT_OK
        fit = json.loads((out / "decay_fit.json").read_text())
        assert fit["in_band"] and fit["asserted"]
        assert fit["reliable"] is True
        csv_lines = (out / "decay_trajectory.csv").read_text().splitlines()
        assert csv_lines[0] == "t,norm_Hs_u,norm_Hs1_ut,combined"

    def test_low_dimension_warns_not_fails(self, tmp_path):
        out = tmp_path / "out"
        with pytest.warns(UserWarning):
            code = main(["decay", "--builtin", "damped-wave", "--a", "2", "--d", "2",
                         "--output-dir", str(out)])
        assert code == EXIT_OK
        fit = json.loads((out / "decay_fit.json").read_text())
        assert not fit["asserted"]

    @pytest.mark.parametrize("flag", ["--amplitude", "--s"])
    def test_nan_norms_exit_one(self, tmp_path, capsys, flag):
        # these used to write "exponent": NaN and exit 2
        out = tmp_path / "out"
        code = main(["decay", "--builtin", "damped-wave", "--a", "2", "--d", "3",
                     flag, "nan", "--output-dir", str(out)])
        assert code == EXIT_ERROR
        assert "error: DegenerateFit:" in capsys.readouterr().err
        assert not (out / "decay_fit.json").exists()

    @pytest.mark.parametrize("argv", [
        ["--builtin", "fluid", "--sigma", "1e300"],
        ["--builtin", "damped-wave", "--d", "1", "--sigma", "1e200"],
        ["--builtin", "damped-wave", "--d", "3", "--sigma", "1e150"],
    ], ids=["fluid-1e300", "dw-d1-1e200", "dw-d3-1e150"])
    def test_overflowing_sigma_is_refused(self, tmp_path, capsys, argv):
        # a sigma**d or sigma**2 beyond the float range used to exit with a raw OverflowError
        out = tmp_path / "out"
        code = main(["decay", *argv, "--output-dir", str(out)])
        assert code == EXIT_ERROR
        err = capsys.readouterr().err
        assert "error: InvalidParameter: GaussianData.sigma" in err and "d = " in err
        assert not (out / "decay_fit.json").exists()

    def test_underflowing_sigma_is_a_degenerate_fit(self, tmp_path, capsys):
        # sigma**3 underflows to 0: every norm is 0, which the fit refuses
        out = tmp_path / "out"
        code = main(["decay", "--builtin", "fluid", "--sigma", "1e-300", "--output-dir", str(out)])
        assert code == EXIT_ERROR
        assert "error: DegenerateFit:" in capsys.readouterr().err
        assert not (out / "decay_fit.json").exists()

    def test_fit_window_beyond_200_is_evolved_to_its_end(self, tmp_path):
        out = tmp_path / "out"
        main(["decay", "--builtin", "damped-wave", "--a", "2", "--d", "3",
              "--window-hi", "400", "--output-dir", str(out)])
        fit = json.loads((out / "decay_fit.json").read_text())
        assert fit["fit_window"] == [5.0, 400.0]
        last = (out / "decay_trajectory.csv").read_text().splitlines()[-1]
        assert float(last.split(",")[0]) == 400.0


class TestOtherCommands:
    def test_dispersion_csv(self, tmp_path):
        out = tmp_path / "out"
        code = main(["dispersion", "--builtin", "damped-wave", "--a", "2",
                     "--output-dir", str(out)])
        assert code == EXIT_OK
        lines = (out / "dispersion.csv").read_text().splitlines()
        assert lines[0] == "omega_index,xi,re_0,im_0,re_1,im_1"
        # branch check: Re lambda = -1 +- sqrt(1 - xi^2) at small xi
        import numpy as np

        row = lines[1].split(",")
        xi = float(row[1])
        res = sorted([float(row[2]), float(row[4])])
        assert res[0] == pytest.approx(-1.0 - np.sqrt(1 - xi**2), abs=1e-9)
        assert res[1] == pytest.approx(-1.0 + np.sqrt(1 - xi**2), abs=1e-9)

    @pytest.mark.parametrize("name, params", [
        ("fluid", {"r": 3, "mu": 2, "nu": 1, "eta": 1, "zeta": 0}),
        ("damped-wave", {"a": 2, "d": 2}),
    ])
    def test_dispersion_folds_antipodal_pairs(self, tmp_path, monkeypatch, name, params):
        # one solve per pair {xi, -xi}; each row lists the roots of the
        # unfolded solve in the same canonical order, to 1e-12, also where
        # the real parts of a complex pair tie to rounding
        from hypdiss import symbols
        from hypdiss.conditions import CheckConfig, frequency_grid
        from hypdiss.model import model_from_dict

        solved = []
        real_stack = symbols.dispersion_root_stack

        def counted(model, u, xi):
            solved.append(len(xi))
            return real_stack(model, u, xi)

        monkeypatch.setattr(symbols, "dispersion_root_stack", counted)
        out = tmp_path / "out"
        flags = [s for k, v in params.items() for s in (f"--{k}", str(v))]
        assert main(["dispersion", "--builtin", name, *flags, "--output-dir", str(out)]) == EXIT_OK
        a = np.loadtxt(out / "dispersion.csv", delimiter=",", skiprows=1)
        got = a[:, 2::2] + 1j * a[:, 3::2]
        model = model_from_dict({"builtin": {"name": name, "params": params}})
        xi = frequency_grid(model, config=CheckConfig())[2]
        want = real_stack(model, model.reference_state, xi)
        assert solved == [len(xi) // 2]
        assert np.abs(got - symbols.sorted_roots(want)).max() <= 1e-12

    def test_dispersion_reads_check_config(self, tmp_path):
        # a --config file sets the same frequency grid for dispersion as for check
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"directions_2d": 8}))
        out = tmp_path / "out"
        code = main(["dispersion", "--builtin", "damped-wave", "--d", "2",
                     "--config", str(cfg), "--output-dir", str(out)])
        assert code == EXIT_OK
        lines = (out / "dispersion.csv").read_text().splitlines()
        assert len(lines) == 1 + 8 * 49
        assert {line.split(",")[0] for line in lines[1:]} == {str(k) for k in range(8)}

    def test_simulate_flat_trace_for_zero_amplitude(self, tmp_path):
        out = tmp_path / "out"
        code = main(["simulate", "--builtin", "convected-damped-wave", "--a", "0.5",
                     "--epsilon", "0", "--t-final", "1", "--n-grid", "32",
                     "--output-dir", str(out)])
        assert code == EXIT_OK
        info = json.loads((out / "simulate.json").read_text())
        assert info["w_norm_initial"] == 0.0 and info["w_norm_final"] == 0.0

    def test_paradiff_battery(self, tmp_path):
        out = tmp_path / "out"
        code = main(["paradiff-test", "--n-grid", "128", "--output-dir", str(out)])
        assert code == EXIT_OK
        rep = json.loads((out / "paradiff_report.json").read_text())
        assert rep["all_green"]

    def test_paradiff_fine_lattice_passes_reconstruction_gate(self, tmp_path):
        # at N = 512 rounding alone puts the reconstruction error at one ulp of
        # max|a| (about 696), above the old absolute 1e-13 gate
        out = tmp_path / "out"
        code = main(["paradiff-test", "--n-grid", "512", "--output-dir", str(out)])
        assert code == EXIT_OK
        rep = json.loads((out / "paradiff_report.json").read_text())
        assert rep["all_green"]
        assert 1e-13 < rep["lp_reconstruction_error"] <= 2 * 2.0**-52 * 700

    def test_paradiff_refuses_large_lattice_without_allocating(self, tmp_path, capsys):
        # N = 4096 holds 256 MiB per dense P x P complex array
        import tracemalloc

        array_bytes = 4096**2 * 16
        tracemalloc.start()
        try:
            code = main(["paradiff-test", "--n-grid", "4096", "--output-dir", str(tmp_path / "out")])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == EXIT_ERROR
        err = capsys.readouterr().err
        assert "InvalidParameter" in err and str(32 * array_bytes) in err
        assert peak < array_bytes // 100
        assert not (tmp_path / "out").exists()

    def test_paradiff_estimate_bounds_measured_peak(self, tmp_path, monkeypatch, capsys):
        # at N = 64 the guard refuses just below its estimate, and the
        # battery's traced peak stays under that estimate
        import tracemalloc

        import hypdiss.conditions  # noqa: F401  (imported outside the trace)
        import hypdiss.simulator as sim

        estimate = 32 * 64**2 * 16
        argv = ["paradiff-test", "--n-grid", "64", "--output-dir", str(tmp_path / "out")]
        monkeypatch.setattr(sim, "SYMBOL_FIELD_MAX_BYTES", estimate - 1)
        assert main(argv) == EXIT_ERROR
        assert str(estimate) in capsys.readouterr().err
        monkeypatch.setattr(sim, "SYMBOL_FIELD_MAX_BYTES", estimate)
        tracemalloc.start()
        try:
            code = main(argv)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == EXIT_OK
        assert peak <= estimate

    def test_report_rerender(self, tmp_path):
        out = tmp_path / "out"
        main(["check", "--builtin", "damped-wave", "--a", "2", "--output-dir", str(out)])
        code = main(["report", "--output-dir", str(out)])
        assert code == EXIT_OK
        summary = json.loads((out / "summary.json").read_text())
        assert summary["all_pass"]

    @pytest.mark.parametrize("argv", [
        ["--builtin", "damped-wave", "--a", "2"],
        ["--builtin", "convected-damped-wave", "--a", "1.5", "--xi-count", "9"],
    ], ids=["pass", "fail"])
    def test_report_writes_checks_summary(self, tmp_path, argv):
        out = tmp_path / "out"
        code = main(["check"] + argv + ["--output-dir", str(out)])
        written = (out / "summary.json").read_bytes()
        (out / "summary.json").unlink()
        assert main(["report", "--output-dir", str(out)]) == (EXIT_OK if code == EXIT_OK else EXIT_FAIL)
        assert (out / "summary.json").read_bytes() == written

    def test_report_without_reports_exit_one(self, tmp_path, capsys):
        out = tmp_path / "out"
        out.mkdir()
        assert main(["report", "--output-dir", str(out)]) == EXIT_ERROR
        assert "report_" in capsys.readouterr().err
        assert list(out.iterdir()) == []


def test_readme_lines_run_without_scipy(tmp_path):
    # scipy is no runtime dependency: with every import of it failing, the
    # README lines and the lines whose eigenbases are not trusted (13 Jordan
    # points of the d = 3 damped wave in UNIFORM, 13 defective decay modes)
    # exit as they do with scipy present
    import subprocess
    import sys

    import hypdiss

    lines = [
        ["check", "--builtin", "fluid", "--r", "3", "--mu", "2", "--nu", "1", "--eta", "1",
         "--zeta", "0"],
        ["check", "--builtin", "damped-wave", "--a", "2", "--d", "3"],
        ["decay", "--builtin", "damped-wave", "--a", "2.074450190814114", "--d", "3"],
        ["decay", "--builtin", "damped-wave", "--a", "2", "--d", "3"],
        ["decay", "--self-test"],
        ["dispersion", "--builtin", "damped-wave", "--a", "2"],
        ["simulate", "--builtin", "convected-damped-wave", "--a", "0.5", "--epsilon", "1e-2",
         "--t-final", "10", "--monitor"],
    ]
    script = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "from hypdiss.cli import main\n"
        f"print([main(argv + ['--output-dir', {str(tmp_path)!r} + f'/out{{k}}'])\n"
        f"       for k, argv in enumerate({lines!r})])\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(hypdiss.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == str([EXIT_OK] * len(lines))
    for k in (0, 1):
        assert json.loads((tmp_path / f"out{k}" / "summary.json").read_text())["all_pass"]
    fit = json.loads((tmp_path / "out2" / "decay_fit.json").read_text())
    assert fit["in_band"]
