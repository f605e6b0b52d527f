import json
import resource
import subprocess
import sys

import pytest

from szeta.cli import main

CMD = [sys.executable, "-m", "szeta.cli"]


def run_cli(*args):
    return subprocess.run(CMD + list(args), capture_output=True,
                          text=True)


class TestExitCodes:
    def test_missing_required_flag_is_usage_error(self):
        r = run_cli("extremal", "poisson", "--delta", "1", "--l1")
        assert r.returncode == 2

    def test_unknown_subcommand(self):
        r = run_cli("frobnicate")
        assert r.returncode == 2

    def test_region_violation_exit3_names_inequality(self):
        r = run_cli("bound", "--n", "1", "--alpha", "0.95",
                    "--t", "1e30", "--c", "1")
        assert r.returncode == 3
        assert "log log t" in r.stderr

    def test_missing_zeros_exit4(self):
        r = run_cli("verify", "gw", "--kernel", "poisson",
                    "--delta", "1", "--t", "50",
                    "--zeros", "/no/such/file.txt")
        assert r.returncode == 4

    def test_malformed_zeros_exit4(self, tmp_path):
        p = tmp_path / "z.txt"
        p.write_text("14.134725\nnot-a-number\n")
        r = run_cli("verify", "gw", "--kernel", "poisson",
                    "--delta", "1", "--t", "50", "--zeros", str(p))
        assert r.returncode == 4
        assert "line 2" in r.stderr

    def test_gw_beyond_zero_table_exit3(self, zeros):
        r = run_cli("verify", "gw", "--kernel", "poisson",
                    "--delta", "1", "--t", "3000")
        assert r.returncode == 3
        assert r.stderr.count("\n") == 1
        assert repr(float(zeros.ordinates[-1])) in r.stderr

    def test_rep_beyond_zero_table_exit3(self, zeros):
        r = run_cli("verify", "rep", "--n", "1", "--alpha", "0.6",
                    "--t", "2600")
        assert r.returncode == 3
        assert r.stderr.count("\n") == 1
        assert repr(float(zeros.ordinates[-1])) in r.stderr

    def test_verify_ok_exit0(self):
        r = run_cli("verify", "rep", "--n", "1", "--alpha", "0.6",
                    "--t", "100")
        assert r.returncode == 0
        out = json.loads(r.stdout)
        assert out["within_band"] is True

    @pytest.mark.parametrize("argv,prefix", [
        ("extremal odd --m 0 --alpha 1.2 --delta 1 --l1",
         "region violation: "),
        ("extremal poisson --beta 0.7 --delta 1 --l1", "region violation: "),
        ("verify gw --kernel odd --m 0 --alpha 0.55 --delta 3 --t 30",
         "resource limit: "),
        # NaN and infinity fail the range checks by name; these printed
        # "nan" with exit 0 or 1, or ended in a traceback
        ("verify gw --kernel poisson --delta 1.5 --t nan",
         "outside the zero table: "),
        ("verify gw --kernel poisson --delta nan --t 50",
         "region violation: delta"),
        ("verify gw --kernel odd --delta inf --t 50",
         "region violation: delta"),
        ("verify rep --n 1 --alpha 0.6 --t nan", "region violation: t"),
        ("verify appendix --id B4 --x nan --beta 0.25",
         "region violation: x"),
        ("extremal poisson --beta 0.25 --delta nan --l1",
         "region violation: delta"),
        ("bound --n 1 --alpha 0.75 --t 1e30 --c nan", "region violation: c"),
        ("bound --n 1 --alpha 0.75 --t 1e30 --c -1", "region violation: c"),
        # zeta too close to a zero ended in a traceback with exit 1
        ("verify rep --n -1 --alpha 0.5000001 --t 14.134725141734693",
         "ill-conditioned: "),
        ("verify envelope --n 1 --alpha 0.5000001 --t 14.134725141734693",
         "ill-conditioned: "),
    ], ids=["odd alpha", "poisson beta", "gw sieve", "gw t nan",
            "gw delta nan", "gw delta inf", "rep t nan", "appendix x nan",
            "extremal delta nan", "bound c nan", "bound c negative",
            "rep near a zero", "envelope near a zero"])
    def test_library_error_exit3_one_line(self, argv, prefix, capsys):
        assert main(argv.split()) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.count("\n") == 1 and err.startswith(prefix)

    def test_odd_eval_far_out_exit0(self, capsys):
        # the pair's mixture costs O(1) at any x: at x = 1e7 the target is
        # y (nu_0 - nu_1 y + ...), y = 1/x^2, with nu_0 = int rho(u) u du
        # over [1/4, 1] = 27/128
        argv = "extremal odd --m 0 --alpha 0.75 --delta 1 --eval 1e7"
        assert main(argv.split()) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["minorant"] <= out["target"] <= out["majorant"]
        assert out["target"] == pytest.approx(27 / 128 / 1e14, rel=1e-12)

    @pytest.mark.parametrize("t", ["1e9", "1e30"])
    def test_zeta_height_limit_exit3_one_line(self, t):
        # in a child with 1 GiB of address space: beyond the zeta height
        # limit the direct route fails by name before allocating its sum
        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
        r = subprocess.run(CMD + ["verify", "envelope", "--n", "0",
                                  "--alpha", "0.75", "--t", t,
                                  "--c", "0.1"],
                           capture_output=True, text=True, timeout=60,
                           preexec_fn=limit)
        assert r.returncode == 3
        assert r.stdout == "" and r.stderr.count("\n") == 1
        assert r.stderr.startswith("resource limit: ")

    def test_selftest_missing_zeros_exit4(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["selftest", "--zeros", "/no/such/file"])
        assert exc.value.code == 4
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "/no/such/file" in err

    @pytest.mark.parametrize("argv,band", [
        (["--id", "A1", "--alpha", "0.7", "--m", "0"], 20.0),
        (["--id", "B1", "--alpha", "0.7", "--m", "1"], 4000.0),
        (["--id", "B4", "--beta", "0.25"], None)])
    def test_appendix_slack_only_without_a_calibrated_band(self, argv,
                                                           band, capsys):
        # a --slack on a calibrated (id, m) was silently ignored
        argv = ["verify", "appendix", "--x", "1e5", *argv, "--slack",
                "1e-12"]
        if band is None:
            assert main(argv) == 1
            assert json.loads(capsys.readouterr().out)["band"] == 1e-12
            return
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"calibrated band {band:g}" in err
        assert main(argv[:-2]) == 0
        assert json.loads(capsys.readouterr().out)["band"] == band

    @pytest.mark.parametrize("argv,unread", [
        ("verify appendix --id A4 --x 1e5 --alpha 0.7 --m 3 --k 2 "
         "--beta 0.1", ("--m", "--k", "--beta")),
        ("verify appendix --id A1 --x 1e5 --alpha 0.7 --m 0 --k 1",
         ("--k",)),
        ("verify gw --kernel odd --beta 0.3 --delta 1.5 --t 50",
         ("--beta",)),
    ], ids=["appendix A4", "appendix A1", "gw odd"])
    def test_option_the_target_does_not_read_is_usage_error(self, argv,
                                                            unread, capsys):
        # these exited 0, echoing or ignoring the option
        with pytest.raises(SystemExit) as exc:
            main(argv.split())
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert err.split(" not read")[0].split() == ["error:", *(
            f"{flag}," for flag in unread[:-1]), unread[-1]]

    @pytest.mark.parametrize("item,given,missing", [
        ("A1", "", "--m, --alpha"), ("A2", "--alpha 0.7 --m 0", "--k"),
        ("B4", "", "--beta")], ids=["A1", "A2", "B4"])
    def test_appendix_option_the_item_needs_is_usage_error(
            self, item, given, missing, capsys):
        # these exited 3 with "region violation: missing parameter"
        with pytest.raises(SystemExit) as exc:
            main(["verify", "appendix", "--id", item, "--x", "1e5",
                  *given.split()])
        assert exc.value.code == 2
        assert capsys.readouterr() == (
            "", f"error: {missing} required by --id {item}\n")

    @pytest.mark.parametrize("kernel,params", [
        ("poisson", {"beta": 0.25}), ("odd", {"m": 0, "alpha": 0.75})])
    def test_gw_fills_the_defaults_of_its_kernel_family(self, kernel,
                                                        params, capsys):
        assert main(["verify", "gw", "--kernel", kernel, "--delta", "1.5",
                     "--t", "50"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["kernel"] == {"family": kernel, **params, "delta": 1.5}

    def test_envelope_report_only_exit0(self):
        r = run_cli("verify", "envelope", "--n", "0", "--alpha",
                    "0.75", "--t", "500")
        assert r.returncode == 0
        out = json.loads(r.stdout)
        assert out["region_ok"] is False


class TestDeterminism:
    def test_byte_identical_json(self):
        args = ("extremal", "odd", "--m", "0", "--alpha", "0.6",
                "--delta", "1", "--ft", "0.25", "--l1")
        a = run_cli(*args)
        b = run_cli(*args)
        assert a.returncode == b.returncode == 0
        assert a.stdout == b.stdout

    def test_float_format(self):
        r = run_cli("extremal", "poisson", "--beta", "0.25",
                    "--delta", "1", "--l1")
        out = json.loads(r.stdout)
        # 15 significant digits, scientific notation
        assert '"l1_majorant": 1.64892339699122e+00' in r.stdout
        assert out["beta"] == 0.25


class TestExtremal:
    def test_poisson_values_match_library(self):
        from szeta.poisson_extremal import PoissonExtremalPair
        r = run_cli("extremal", "poisson", "--beta", "0.25",
                    "--delta", "1", "--l1", "--ft", "0.5",
                    "--eval", "0.3")
        out = json.loads(r.stdout)
        p = PoissonExtremalPair(beta=0.25, delta=1.0)
        assert out["l1_majorant"] == pytest.approx(p.l1_gap("+"))
        assert out["ft_minorant"] == pytest.approx(p.ft_m("-", 0.5))
        assert out["majorant"] == pytest.approx(
            float(p.m_real("+", 0.3)))

    def test_odd_eval_brackets_target(self):
        r = run_cli("extremal", "odd", "--m", "0", "--alpha", "0.6",
                    "--delta", "1", "--eval", "0.37")
        assert r.returncode == 0, r.stderr
        out = json.loads(r.stdout)
        assert out["minorant"] <= out["target"] <= out["majorant"]

    @pytest.mark.parametrize("argv,formula", [
        ("odd --m 0 --alpha 0.5 --delta 1 --ft 0 --l1",
         {"ft": "poisson_mixture", "l1_gap": "closed_sigma_integral"}),
        ("poisson --beta 0.25 --delta 1 --eval 0.3 --ft 0.5 --l1",
         dict.fromkeys(("real", "ft", "l1_gap"), "closed_form")),
        ("poisson --beta 0.25 --delta 1", None),
    ], ids=["odd ft l1", "poisson eval ft l1", "nothing asked"])
    def test_formula_names_each_printed_quantity(self, argv, formula,
                                                 capsys):
        # one "formula" string, the last quantity's, hid the others'
        assert main(["extremal", *argv.split()]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out.get("formula") == formula
        if formula is not None:
            assert list(out)[-1] == "formula"

    def test_formula_output_text(self, capsys):
        assert main(["extremal", "odd", "--m", "0", "--alpha", "0.5",
                     "--delta", "1", "--ft", "0", "--l1", "--output",
                     "text"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[-2:] == ["formula.ft: poisson_mixture",
                              "formula.l1_gap: closed_sigma_integral"]

    def test_odd_ft_at_zero(self):
        r = run_cli("extremal", "odd", "--m", "0", "--alpha", "0.5",
                    "--delta", "1", "--ft", "0")
        out = json.loads(r.stdout)
        assert out["ft_majorant"] > out["ft_minorant"] > 0


class TestBound:
    def test_json_point(self):
        r = run_cli("bound", "--n", "1", "--alpha", "0.75",
                    "--t", "1e30", "--c", "0.25")
        out = json.loads(r.stdout)
        assert out["lower_main"] < 0 < out["upper_main"]

    @pytest.mark.parametrize("output", ["json", "text"])
    def test_sweep_with_output_is_usage_error(self, output, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bound", "--n", "1", "--t", "1e30", "--c", "0.1",
                  "--sweep", "alpha:0.6:0.8:0.05", "--output", output])
        assert exc.value.code == 2
        assert "--output" in capsys.readouterr().err

    def test_point_output_text(self, capsys):
        assert main(["bound", "--n", "1", "--alpha", "0.75", "--t", "1e30",
                     "--c", "0.25", "--output", "text"]) == 0
        assert "lower_main: " in capsys.readouterr().out

    @pytest.mark.parametrize("spec", [
        "alpha:0.6:0.8:0", "alpha:0.6:0.8:-0.05", "alpha:0.6",
        "alpha:a:b:c", "alpha:0.6:0.8:0.05:1", "beta:0.6:0.8:0.05",
        "alpha:0.8:0.6:0.05", "alpha:nan:0.8:0.05", "alpha:0.6:inf:0.05",
        "alpha:0.6:0.8:1e-6"])
    def test_malformed_sweep_is_usage_error(self, spec):
        # in a child with a timeout and 1 GiB of address space: a sweep
        # that never ends must fail here, not hang or fill the memory
        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
        r = subprocess.run(CMD + ["bound", "--n", "1", "--t", "1e30",
                                  "--c", "0.1", "--sweep", spec],
                           capture_output=True, text=True, timeout=30,
                           preexec_fn=limit)
        assert r.returncode == 2
        assert r.stdout == "" and r.stderr.count("\n") == 1

    def test_sweep_monotone_alpha_column(self):
        r = run_cli("bound", "--n", "1", "--t", "1e30", "--c", "0.1",
                    "--sweep", "alpha:0.6:0.8:0.05")
        lines = r.stdout.strip().splitlines()
        assert lines[0] == "n,alpha,t,lower_main,upper_main,ell,err_scale"
        alphas = [float(l.split(",")[1]) for l in lines[1:]]
        assert alphas == sorted(alphas)
        assert len(alphas) == 5


class TestConfigFile:
    def test_zeros_path_from_config(self, tmp_path, zeros):
        import numpy as np
        p = tmp_path / "z.txt"
        np.savetxt(p, zeros.ordinates[:300])
        cfg = tmp_path / "szeta.cfg"
        cfg.write_text(f"zeros_path={p}\n")
        r = run_cli("verify", "rep", "--n", "0", "--alpha", "0.6",
                    "--t", "70", "--config", str(cfg))
        assert r.returncode == 0

    def test_flag_beats_config(self, tmp_path):
        cfg = tmp_path / "szeta.cfg"
        cfg.write_text("zeros_path=/no/such/file.txt\n")
        # explicit flag pointing at a second missing file still exits 4,
        # proving the flag (not the config default) was used
        r = run_cli("verify", "gw", "--kernel", "poisson",
                    "--delta", "1", "--t", "50", "--config", str(cfg),
                    "--zeros", "/also/missing.txt")
        assert r.returncode == 4
        assert "/also/missing.txt" in r.stderr

    def test_zero_tol_flag_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "gw", "--kernel", "poisson", "--delta", "1",
                  "--t", "50", "--tol", "0"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "tol" in err

    @pytest.mark.parametrize("tol", ["nan", "inf"])
    def test_nonfinite_tol_flag_is_usage_error(self, tol, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "gw", "--kernel", "poisson", "--delta", "1",
                  "--t", "50", "--tol", tol])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "tol" in err

    @pytest.mark.parametrize("argv", [
        "verify envelope --n 0 --alpha 0.75 --t 500 --slack -5",
        "verify envelope --n 0 --alpha 0.75 --t 500 --slack nan",
        "verify envelope --n 0 --alpha 0.75 --t 500 --slack inf",
        "verify appendix --id B4 --x 1e5 --beta 0.25 --slack -5",
        "verify appendix --id B4 --x 1e5 --beta 0.25 --slack nan",
    ], ids=["envelope -5", "envelope nan", "envelope inf", "appendix -5",
            "appendix nan"])
    def test_negative_or_nonfinite_slack_is_usage_error(self, argv, capsys):
        # these printed an inverted or NaN band and exited 0 or 1
        with pytest.raises(SystemExit) as exc:
            main(argv.split())
        assert exc.value.code == 2
        assert capsys.readouterr() == (
            "", "error: slack must be finite and >= 0\n")

    def test_zero_slack_flag_is_used(self, capsys):
        rc = main(["verify", "envelope", "--n", "0", "--alpha", "0.75",
                   "--t", "500", "--slack", "0"])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["slack"] == 0.0


_ARGV = {
    "extremal poisson": ["extremal", "poisson", "--beta", "0.25",
                         "--delta", "1", "--l1"],
    "extremal odd": ["extremal", "odd", "--m", "0", "--alpha", "0.6",
                     "--delta", "1", "--l1"],
    "bound": ["bound", "--n", "1", "--alpha", "0.75", "--t", "1e30"],
    "verify gw": ["verify", "gw", "--kernel", "poisson", "--delta", "1",
                  "--t", "50"],
    "verify rep": ["verify", "rep", "--n", "1", "--alpha", "0.6",
                   "--t", "100"],
    "verify appendix": ["verify", "appendix", "--id", "B4", "--x", "1e5",
                        "--beta", "0.25"],
    "verify envelope": ["verify", "envelope", "--n", "0", "--alpha",
                        "0.75", "--t", "500"],
    "selftest": ["selftest"],
}
_UNREAD = {
    "extremal poisson": ("--config", "--zeros", "--tol", "--slack"),
    "extremal odd": ("--config", "--zeros", "--tol", "--slack"),
    "bound": ("--config", "--zeros", "--tol", "--slack", "--sweep"),
    "verify gw": ("--slack", "--m", "--alpha"),
    "verify rep": ("--tol", "--slack"),
    "verify appendix": ("--config", "--zeros", "--tol", "--alpha", "--m",
                        "--k"),
    "verify envelope": ("--tol", "--zeros", "--config"),
    "selftest": ("--output", "--tol", "--slack"),
}


# the value each unread flag is given: one the command would accept
_VALUE = {"--output": "json", "--sweep": "alpha:0.6:0.7:0.05"}


@pytest.mark.parametrize("command,flag,value", [
    *((c, f, _VALUE.get(f, "1")) for c, flags in _UNREAD.items()
      for f in flags),
    *((c, "--output", "csv") for c in _ARGV if c != "selftest"),
])
def test_flag_a_command_does_not_read_is_usage_error(command, flag, value,
                                                     capsys):
    with pytest.raises(SystemExit) as exc:
        main(_ARGV[command] + [flag, value])
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err


class TestConfigKeys:
    @pytest.mark.parametrize("explicit", [True, False])
    def test_unknown_key_is_usage_error(self, tmp_path, monkeypatch,
                                        capsys, explicit):
        (tmp_path / "szeta.cfg").write_text("tol=1e-5\n")
        monkeypatch.chdir(tmp_path)
        argv = _ARGV["verify rep"] + (["--config", "szeta.cfg"]
                                      if explicit else [])
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "'tol'" in err

    def test_line_without_equals_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "typo.cfg"
        cfg.write_text("# zeros\n\nzeros_path /no/such/file\n")
        with pytest.raises(SystemExit) as exc:
            main(_ARGV["verify rep"] + ["--config", str(cfg)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert str(cfg) in err and "line 3" in err

    def test_missing_explicit_config_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(_ARGV["verify rep"] + ["--config", "/no/such.cfg"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "/no/such.cfg" in err


def test_dumps_writes_numpy_scalars_by_value():
    import numpy as np
    from szeta.cli import dumps
    obj = {"b": np.True_, "f": np.float64(0.25), "i": np.int64(3),
           "c": np.bool_(False), "g": np.float32(0.5)}
    assert json.loads(dumps(obj)) == {"b": True, "f": 0.25, "i": 3,
                                      "c": False, "g": 0.5}
    assert dumps(obj) == dumps({"b": True, "f": 0.25, "i": 3, "c": False,
                                "g": 0.5})


@pytest.mark.parametrize("argv", [
    ["verify", "envelope", "--n", "0", "--alpha", "0.75", "--t", "500"],
    ["verify", "appendix", "--id", "A4", "--x", "1e5", "--alpha",
     "0.7"],
    ["verify", "gw", "--kernel", "odd", "--delta", "1.5", "--t", "50"],
], ids=["envelope", "appendix", "gw"])
def test_output_text_prints_one_line_per_leaf(argv, capsys):
    # nested fields printed as a dict repr, such as 'alpha': 0.75
    main(argv)
    leaves = {}
    for k, v in json.loads(capsys.readouterr().out).items():
        for kk, vv in (v.items() if isinstance(v, dict) else [(None, v)]):
            leaves[k if kk is None else f"{k}.{kk}"] = vv
    main(argv + ["--output", "text"])
    lines = capsys.readouterr().out.splitlines()
    assert not any(c in "".join(lines) for c in "{}'")
    assert [line.split(": ")[0] for line in lines] == list(leaves)
    for line, v in zip(lines, leaves.values()):
        text = line.split(": ")[1]
        if isinstance(v, float):
            assert text == f"{v:.14e}"


def test_main_callable_in_process(capsys):
    rc = main(["extremal", "poisson", "--beta", "0.2", "--delta",
               "1.5", "--l1"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["delta"] == 1.5


def test_cli_does_not_import_selftest():
    code = "import sys, szeta.cli; print('szeta.selftest' in sys.modules)"
    r = subprocess.run([sys.executable, "-c", code], capture_output=True,
                       text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "False"


@pytest.mark.parametrize("m", [0, 1, 2])
def test_gw_odd_alpha_half_within_band(m):
    r = run_cli("verify", "gw", "--kernel", "odd", "--m", str(m), "--alpha",
                "0.5", "--delta", "1.5", "--t", "50")
    assert r.returncode == 0 and r.stderr == ""
    assert json.loads(r.stdout)["within_band"] is True


# scipy is a test oracle only: no command may import it
_NO_SCIPY = """import sys
from szeta.cli import main
rc = main(sys.argv[1:])
print("scipy modules:", [m for m in sys.modules if m.startswith("scipy")])
sys.exit(rc)
"""


@pytest.mark.parametrize("argv", [
    ["extremal", "poisson", "--beta", "0.25", "--delta", "1", "--l1"],
    ["extremal", "odd", "--m", "0", "--alpha", "0.5", "--delta", "1",
     "--ft", "0"],
    ["bound", "--n", "1", "--alpha", "0.75", "--t", "1e30", "--c", "0.25"],
    ["bound", "--n", "1", "--t", "1e30", "--c", "0.1", "--sweep",
     "alpha:0.6:0.8:0.05"],
    ["verify", "gw", "--kernel", "poisson", "--beta", "0.25", "--delta",
     "1.5", "--t", "50"],
    ["verify", "rep", "--n", "1", "--alpha", "0.6", "--t", "100"],
    ["verify", "appendix", "--id", "B1", "--x", "1e6", "--alpha", "0.75",
     "--m", "0"],
    ["verify", "envelope", "--n", "0", "--alpha", "0.75", "--t", "500",
     "--with-observed"],
], ids=["extremal poisson", "extremal odd", "bound", "bound sweep",
        "verify gw", "verify rep", "verify appendix", "verify envelope"])
def test_readme_command_imports_no_scipy(argv):
    r = subprocess.run([sys.executable, "-c", _NO_SCIPY, *argv],
                       capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout.splitlines()[-1] == "scipy modules: []"


def test_selftest_imports_no_scipy():
    code = ("import sys, szeta.selftest; "
            "print([m for m in sys.modules if m.startswith('scipy')])")
    r = subprocess.run([sys.executable, "-c", code], capture_output=True,
                       text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "[]"
