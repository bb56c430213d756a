import math

import numpy as np
import pytest

from iondec.cli import BA_EXAMPLE, load_config, main, parse_config
from iondec.continuum import ContinuumModel
from iondec.errors import ValidationError
from iondec.physmodel import Multipole


def run(capsys, argv):
    rc = main(argv)
    return rc, capsys.readouterr().out.splitlines()


# ---------------------------------------------------------------- config


def test_preset_values():
    cfg = parse_config(BA_EXAMPLE)
    assert cfg.species.name == "Ba+"
    assert cfg.species.omega0 == pytest.approx(2 * math.pi * 1.7e14, rel=1e-15)
    assert cfg.species.tau_s == 50.0
    assert cfg.species.multipole is Multipole.E2
    assert cfg.trap.omega_z == pytest.approx(2 * math.pi * 1e5, rel=1e-15)
    assert cfg.trap.omega_t == pytest.approx(2 * math.pi * 2e7, rel=1e-15)
    assert cfg.trap.n_ions == 1000
    assert cfg.model is ContinuumModel.DUBIN_FLUID
    assert cfg.qsq_constant == 1.0
    assert cfg.chain_tol == 1e-12
    assert cfg.max_iter == 200


def test_model_section_is_optional():
    trimmed = BA_EXAMPLE.split("[model]")[0]
    cfg = parse_config(trimmed)
    assert cfg.model is ContinuumModel.DUBIN_FLUID
    assert cfg.max_iter == 200


def test_empty_config_lists_required_sections():
    with pytest.raises(ValidationError) as err:
        parse_config("")
    assert "[species]" in str(err.value) and "[trap]" in str(err.value)


def test_unknown_section_and_key_named():
    with pytest.raises(ValidationError, match=r"unknown section \[laser\]"):
        parse_config(BA_EXAMPLE + "\n[laser]\npower = 1\n")
    with pytest.raises(ValidationError, match="color"):
        parse_config(BA_EXAMPLE.replace("name = Ba+", "name = Ba+\ncolor = blue"))


def test_missing_keys_listed():
    with pytest.raises(ValidationError, match="charge_e"):
        parse_config("[species]\nname = X\n[trap]\nfz_hz = 1e5\nft_hz = 2e7\n"
                     "n_ions = 10\n")


def test_bad_values_name_the_key():
    with pytest.raises(ValidationError) as err:
        parse_config(BA_EXAMPLE.replace("mass_amu = 137.33", "mass_amu = -1"))
    assert err.value.field == "mass_amu"
    with pytest.raises(ValidationError) as err:
        parse_config(BA_EXAMPLE.replace("f0_hz = 1.7e14", "f0_hz = fast"))
    assert err.value.field == "f0_hz"
    with pytest.raises(ValidationError) as err:
        parse_config(BA_EXAMPLE.replace("multipole = E2", "multipole = M1"))
    assert err.value.field == "multipole"
    with pytest.raises(ValidationError) as err:
        parse_config(BA_EXAMPLE.replace("n_ions = 1000", "n_ions = 2.5"))
    assert err.value.field == "n_ions"
    with pytest.raises(ValidationError) as err:
        parse_config(BA_EXAMPLE.replace("continuum = dubin_fluid",
                                        "continuum = solid"))
    assert err.value.field == "continuum"
    assert "dubin_fluid" in str(err.value)


def test_malformed_lines_report_line_numbers():
    with pytest.raises(ValidationError, match="line 1"):
        parse_config("mass_amu = 137\n")
    with pytest.raises(ValidationError, match="line 2"):
        parse_config("[species]\njunk without equals\n")


def test_load_config_file_and_missing(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(BA_EXAMPLE.replace("n_ions = 1000", "n_ions = 7"))
    assert load_config(str(path)).trap.n_ions == 7
    with pytest.raises(ValidationError, match="ba_example"):
        load_config(str(tmp_path / "nope.ini"))


# ---------------------------------------------------------------- outputs


def test_scales_output(capsys):
    rc, lines = run(capsys, ["scales"])
    assert rc == 0
    assert lines[0] == "# Q^2 = 1 * hbar/(tau_s * k0^5) (E2 lifetime convention)"
    assert lines[1] == "quantity,value,unit"
    assert lines[2] == "d0,1.36845119481e-05,m"
    assert lines[3] == "k0,3562936.53732,1/m"
    assert lines[4] == "q2_coul,2.30707755234e-28,J*m"
    assert lines[5] == "q_sq,3.67337886081e-69,J*m^5"
    assert lines[6] == "tau_rad,0.1,s"


def test_scales_multipole_override(capsys):
    rc, lines = run(capsys, ["scales", "--multipole", "E1"])
    assert rc == 0
    assert "k0^3" in lines[0] and "E1" in lines[0]
    assert lines[5].startswith("q_sq,") and lines[5].endswith(",J*m^3")


def test_equilibrium_output(capsys):
    rc, lines = run(capsys, ["equilibrium", "--n-ions", "3"])
    assert rc == 0
    assert lines[0].startswith("# N = 3, residual = ")
    assert lines[1] == "index,u_dimensionless,z_meters,local_spacing_dimensionless"
    rows = [line.split(",") for line in lines[2:]]
    assert len(rows) == 3
    d0 = 1.36845119481e-05
    for row in rows:
        assert len(row) == 4
        assert float(row[2]) == pytest.approx(float(row[1]) * d0, rel=1e-9, abs=1e-30)
    assert abs(float(rows[1][1])) < 1e-12          # middle ion at the origin
    assert float(rows[2][1]) == pytest.approx(1.0772173450159418, rel=1e-10)


def test_continuum_output(capsys):
    rc, lines = run(capsys, ["continuum", "--n-ions", "100", "--points", "11"])
    assert rc == 0
    assert lines[0].startswith("# nearest_neighbor: L = ")
    assert lines[1] == "# dubin_fluid: L = 10.9480848344 d0, s0 = 0.145974464458 d0"
    assert lines[2] == "z_over_L,s_over_d0_nn,s_over_d0_dubin"
    rows = [line.split(",") for line in lines[3:]]
    assert len(rows) == 11
    assert float(rows[0][0]) == -0.99 and float(rows[-1][0]) == 0.99
    mid = rows[5]
    assert float(mid[0]) == 0.0
    assert float(mid[1]) == pytest.approx(0.31609423, rel=1e-6)   # nn s0
    assert float(mid[2]) == pytest.approx(0.14597446, rel=1e-6)   # dubin s0


def test_sums_output(capsys):
    rc, lines = run(capsys, ["sums", "--n-ions", "11", "--exponent", "8"])
    assert rc == 0
    assert lines[0] == "# N = 11, n = 8"
    assert lines[1] == "i,u_i,S_n_exact,S_n_approx,rel_err"
    rows = [line.split(",") for line in lines[2:]]
    assert len(rows) == 11
    center = rows[5]
    assert abs(float(center[4])) < 1e-2
    assert all(float(r[2]) > 0 for r in rows)


def test_adiabatic_output(capsys):
    rc, lines = run(capsys, ["adiabatic", "--theta-end", "50"])
    assert rc == 0
    assert lines[0].startswith("# eps/omega0 = 0.01, rot/omega0 = 0.001, "
                               "norm_drift = ")
    assert lines[1] == "omega0_t,re_overlap,cos_phi,abs_error"
    rows = [line.split(",") for line in lines[2:]]
    assert len(rows) == 1001          # 1000 steps of 0.05, all stored
    assert rows[0][:3] == ["0", "1", "1"]
    assert float(rows[0][3]) < 1e-15
    last = rows[-1]
    assert float(last[0]) == pytest.approx(50.0, rel=1e-12)
    assert float(last[3]) == pytest.approx(
        abs(float(last[1]) - float(last[2])), rel=1e-6, abs=1e-15)


def test_decohere_discrete_output(capsys):
    rc, lines = run(capsys, ["decohere", "--mode", "discrete", "--n-ions", "5"])
    assert rc == 0
    assert lines[0] == "i,tau_i_seconds"
    rows = [line.split(",") for line in lines[1:6]]
    taus = [float(r[1]) for r in rows]
    assert taus == taus[::-1]                     # mirror symmetry
    assert min(taus) == taus[2]                   # center dephases fastest
    assert lines[6].startswith("# tau_vib = ")
    assert lines[7] == "# tau_rad = 20"
    assert lines[8] == "# t_d = 20"               # radiative window dominates
    assert lines[9] == "# mode = discrete_sum"
    assert lines[10].startswith("# Qsq_convention = Q^2 = 1 * hbar/(tau_s * k0^5)")
    assert "tau_vib = " in lines[10] and "tau_s" in lines[10]


def test_decohere_closed_output(capsys):
    rc, lines = run(capsys, ["decohere", "--mode", "closed"])
    assert rc == 0
    assert lines[0] == "i,tau_i_seconds"
    assert lines[1].startswith("# tau_vib = 2438766711.14")
    assert lines[4] == "# mode = continuum_closed_form"


def test_scaling_output(capsys):
    rc, lines = run(capsys, ["scaling", "--n-min", "100", "--n-max", "1000"])
    assert rc == 0
    assert lines[0] == "N,omega_z_hz,d0_m,s0_m,rate_vib_hz,rate_rad_hz"
    rows = [line.split(",") for line in lines[1:18]]
    assert len(rows) == 17 and all(len(r) == 6 for r in rows)
    assert rows[0][0] == "100" and rows[-1][0] == "1000"
    assert all(float(r[1]) == pytest.approx(1e5, rel=1e-12) for r in rows)
    assert lines[18].startswith("# fit: slope = 5.34583668465, ")
    assert lines[18].endswith("log_power = none")
    assert lines[19].startswith("# fit: slope = 5.83333333333, ")
    assert lines[19].endswith("log_power = -2.66666666667")
    assert lines[20] == "# reference: fixed_voltage_e2 = 5.83333333333"


def test_scaling_fixed_spacing_output(capsys):
    rc, lines = run(capsys, ["scaling", "--policy", "fixed_spacing",
                             "--n-min", "100", "--n-max", "1000"])
    assert rc == 0
    rows = [line.split(",") for line in lines[1:18]]
    s0_col = {r[3] for r in rows}
    assert len(s0_col) == 1                      # spacing actually held
    assert float(next(iter(s0_col))) == pytest.approx(4.9552e-07, rel=1e-4)
    assert lines[-1].startswith("# fit: slope = 0.5, ")
    assert "reference" not in "".join(lines)     # no quoted-figure footer here


def test_scaling_e1_reference(capsys):
    rc, lines = run(capsys, ["scaling", "--multipole", "E1",
                             "--n-min", "100", "--n-max", "1000"])
    assert rc == 0
    assert lines[-1] == "# reference: fixed_voltage_e1 = 4.5"
    assert lines[-2].endswith("log_power = -2")


# ----------------------------------------------------------- determinism

DETERMINISM_CASES = [
    ["scales"],
    ["equilibrium", "--n-ions", "50"],
    ["continuum", "--n-ions", "100", "--points", "21"],
    ["sums", "--n-ions", "21"],
    ["adiabatic", "--theta-end", "50"],
    ["decohere", "--mode", "discrete", "--n-ions", "21"],
    ["scaling", "--n-min", "100", "--n-max", "1000"],
]


@pytest.mark.parametrize("argv", DETERMINISM_CASES,
                         ids=[c[0] for c in DETERMINISM_CASES])
def test_byte_identical_reruns(argv, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    blob = a.read_bytes()
    assert blob == b.read_bytes()
    assert b"\r" not in blob
    assert blob.endswith(b"\n")


def test_out_file_matches_stdout(capsys, tmp_path):
    path = tmp_path / "o.csv"
    assert main(["scales", "--out", str(path)]) == 0
    capsys.readouterr()
    rc, lines = run(capsys, ["scales"])
    assert rc == 0
    assert path.read_text().splitlines() == lines


def test_float_format_is_idempotent(capsys):
    """%.12g output re-parsed and re-formatted reproduces itself, so
    downstream tools can round-trip the CSV without diff noise."""
    rc, lines = run(capsys, ["equilibrium", "--n-ions", "50"])
    assert rc == 0
    for line in lines[2:]:
        for field in line.split(",")[1:]:
            assert "%.12g" % float(field) == field


# ------------------------------------------------------------ exit codes


def test_exit_missing_config(capsys):
    assert main(["scales", "--config", "/no/such/file.ini"]) == 1
    assert "error:" in capsys.readouterr().err


def test_exit_bad_exponent(capsys):
    assert main(["sums", "--exponent", "1", "--n-ions", "5"]) == 1
    capsys.readouterr()


def test_exit_bad_n_ions(capsys):
    assert main(["scales", "--n-ions", "0"]) == 1
    capsys.readouterr()


def test_exit_solver_failure(capsys, tmp_path):
    path = tmp_path / "tight.ini"
    path.write_text(BA_EXAMPLE.replace("max_iter = 200", "max_iter = 1"))
    rc = main(["equilibrium", "--config", str(path), "--n-ions", "50"])
    assert rc == 2
    assert "numerical failure" in capsys.readouterr().err


def test_exit_unwritable_output(capsys, tmp_path):
    rc = main(["scales", "--out", str(tmp_path / "missing_dir" / "x.csv")])
    assert rc == 3
    assert "i/o error" in capsys.readouterr().err


REFUSED_CASES = [
    ["adiabatic", "--eps-ratio", "nan"],
    ["adiabatic", "--eps-ratio", "inf"],
    ["adiabatic", "--rot-ratio", "nan"],
    ["adiabatic", "--theta-end", "nan"],
    ["adiabatic", "--theta-end", "inf"],
    ["continuum", "--points", "-1"],
    ["continuum", "--points", "0"],
    ["scaling", "--policy", "fixed_spacing", "--s0-target=inf"],
    ["scaling", "--policy", "fixed_spacing", "--s0-target=1e300"],
    ["scaling", "--policy", "fixed_spacing", "--s0-target=1e-300"],
    ["scaling", "--policy", "fixed_spacing", "--s0-target=1e50"],
]


@pytest.mark.parametrize("argv", REFUSED_CASES, ids=[" ".join(c) for c in REFUSED_CASES])
def test_bad_input_refused_with_one_line(argv, capsys, recwarn):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert not recwarn.list


BAD_SOLVER_SETTINGS = [
    ("max_iter = 200", "max_iter = inf"),
    ("max_iter = 200", "max_iter = nan"),
    ("max_iter = 200", "max_iter = 0.5"),
    ("max_iter = 200", "max_iter = 1e400"),
    ("chain_tol = 1e-12", "chain_tol = inf"),
    ("chain_tol = 1e-12", "chain_tol = nan"),
    ("chain_tol = 1e-12", "chain_tol = 1e400"),
]


@pytest.mark.parametrize("old,new", BAD_SOLVER_SETTINGS,
                         ids=[new for _, new in BAD_SOLVER_SETTINGS])
def test_bad_solver_settings_refused_with_one_line(old, new, tmp_path, capsys, recwarn):
    path = tmp_path / "solver.ini"
    path.write_text(BA_EXAMPLE.replace(old, new))
    assert main(["equilibrium", "--config", str(path), "--n-ions", "50"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert new.split(" = ")[0] in lines[0]
    assert not recwarn.list


def test_integer_valued_max_iter_accepted(tmp_path):
    path = tmp_path / "solver.ini"
    path.write_text(BA_EXAMPLE.replace("max_iter = 200", "max_iter = 2e2"))
    assert load_config(str(path)).max_iter == 200


def test_argparse_usage_errors():
    with pytest.raises(SystemExit):
        main([])
    with pytest.raises(SystemExit):
        main(["frobnicate"])
    with pytest.raises(SystemExit):
        main(["decohere", "--mode", "sideways"])
