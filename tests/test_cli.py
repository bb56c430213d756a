import contextlib
import io
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import iondec
from iondec.cli import (BA_EXAMPLE, MAX_POINTS, _fmt, _profile_grid, _table,
                        load_config, main, parse_config)
from iondec.continuum import ContinuumModel
from iondec.decoherence import DecoherenceMode, build_report
from iondec.errors import ValidationError
from iondec.physmodel import DEFAULT_MAX_ITER, DEFAULT_TOL, Multipole


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
    assert cfg.species.qsq_constant == 1.0
    assert cfg.chain_tol == 1e-12
    assert cfg.max_iter == 200


def test_model_section_is_optional():
    trimmed = BA_EXAMPLE.split("[model]")[0]
    cfg = parse_config(trimmed)
    assert cfg.model is ContinuumModel.DUBIN_FLUID
    assert (cfg.chain_tol, cfg.max_iter) == (DEFAULT_TOL, DEFAULT_MAX_ITER)


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


# SHA-256 of `iondec sums --n-ions N --exponent n` stdout on the preset,
# recorded before the pair powers moved off libm powl
SUMS_SHA256 = {
    (10, 2): "f14638b3bee50992e53e7d2b2e68b64cbaf90cc20c306a176a562aa04a8dc187",
    (10, 6): "66a1c2549ffd6264245c43866883a48bb1d938bb3704c40b05005b51e4fdafd9",
    (10, 8): "37c1e0b3cfb0268262d4ae07997575ae543b497dc5e68a210b7dd4ff6a9ca239",
    (10, 16): "f8d3c6753966b2c31ae7b5885bcf4c588c617d1c04096b40ce82b69d916488e6",
    (60, 2): "0d3e4a065bba4c9c1cfad803c7bfea70f76fbd2476b4cea0e735c5d0e2f0fec5",
    (60, 6): "947cf5d6c592bf66e76e137c65cfba4470b978f298091d8a742bc8397df32c59",
    (60, 8): "df000f82d9f2a38895a64ff115e52d95ea184b556191c5cc0bc2e15a0c1bfc60",
    (60, 16): "d83be7128c5f75f92cfa94a69b2b01d0ecc319b3fe04ffc2b1a5dc4fe0f8cf7c",
}


@pytest.mark.parametrize("threads", [1, 2])
def test_sums_bytes_pinned(threads):
    """`sums` stdout keeps its bytes, at one and at two BLAS threads (a
    chain of N <= 60 solves to the same bits at either count)."""
    src = str(Path(iondec.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
               OMP_NUM_THREADS=str(threads), MKL_NUM_THREADS=str(threads),
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import contextlib, hashlib, io\n"
            "from iondec.cli import main\n"
            "for n, p in " + repr(list(SUMS_SHA256)) + ":\n"
            "    out = io.StringIO()\n"
            "    with contextlib.redirect_stdout(out):\n"
            "        assert main(['sums', '--n-ions', str(n), '--exponent', str(p)]) == 0\n"
            "    print(n, p, hashlib.sha256(out.getvalue().encode()).hexdigest())\n")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    got = {}
    for line in out.splitlines():
        n, p, digest = line.split()
        got[int(n), int(p)] = digest
    assert got == SUMS_SHA256


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


def test_decohere_tau_vib_finite_when_squared_rates_underflow(capsys, tmp_path):
    """At fz = 1e-30 Hz every per-ion rate is ~1e-225 1/s, so each squared
    rate underflows; tau_vib must still be the finite aggregate."""
    path = tmp_path / "soft.ini"
    path.write_text(BA_EXAMPLE.replace("fz_hz = 1e5", "fz_hz = 1e-30"))
    rc, lines = run(capsys, ["decohere", "--config", str(path), "--n-ions", "10"])
    assert rc == 0
    taus = [float(line.split(",")[1]) for line in lines[1:11]]
    tau_vib = float(lines[11].removeprefix("# tau_vib = "))
    assert all(math.isfinite(t) for t in taus)
    fastest = min(taus)
    expected = fastest / math.sqrt(sum((fastest / t) ** 2 for t in taus))
    assert tau_vib == pytest.approx(expected, rel=1e-9)


@pytest.mark.parametrize("fz_hz", ["1e-60", "1e-70"])
def test_decohere_refuses_rates_outside_the_float_range(fz_hz, capsys, tmp_path, recwarn):
    path = tmp_path / "soft.ini"
    path.write_text(BA_EXAMPLE.replace("fz_hz = 1e5", f"fz_hz = {fz_hz}"))
    assert main(["decohere", "--config", str(path), "--n-ions", "10"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert not recwarn.list


# Configs whose derived scales (d0, k0, q2_coul, q_sq) leave the float range.
OUT_OF_RANGE_SCALES = {
    "fz=1e190,ft=1e200": [("fz_hz = 1e5", "fz_hz = 1e190"), ("ft_hz = 2e7", "ft_hz = 1e200")],
    "f0=1e300": [("f0_hz = 1.7e14", "f0_hz = 1e300")],
    "charge=1e300": [("charge_e = 1", "charge_e = 1e300")],
    "fz=1e-300": [("fz_hz = 1e5", "fz_hz = 1e-300")],
}


@pytest.mark.parametrize("command", ["scales", "equilibrium", "decohere", "scaling"])
@pytest.mark.parametrize("edits", list(OUT_OF_RANGE_SCALES.values()),
                         ids=list(OUT_OF_RANGE_SCALES))
def test_scales_outside_the_float_range_refused(edits, command, capsys, tmp_path, recwarn):
    text = BA_EXAMPLE
    for old, new in edits:
        assert old in text
        text = text.replace(old, new)
    path = tmp_path / "extreme.ini"
    path.write_text(text)
    assert main([command, "--config", str(path), "--n-ions", "10"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert not recwarn.list


# Configs whose trouble shows only in one subcommand's own arithmetic:
# |f|^2 overflows in the adiabatic phase; d0^16 underflows to 0 with a
# zero rate above it, so the per-ion rates are 0/0.
ONE_COMMAND_OUT_OF_RANGE = {
    "adiabatic f0=1e300": ("f0_hz = 1.7e14", "f0_hz = 1e300", ["adiabatic"]),
    "decohere mass=1e300": ("mass_amu = 137.33", "mass_amu = 1e300",
                            ["decohere", "--n-ions", "10"]),
}


@pytest.mark.parametrize("old, new, argv", list(ONE_COMMAND_OUT_OF_RANGE.values()),
                         ids=list(ONE_COMMAND_OUT_OF_RANGE))
def test_float_range_refused_with_one_line(old, new, argv, capsys, tmp_path, recwarn):
    assert old in BA_EXAMPLE
    path = tmp_path / "extreme.ini"
    path.write_text(BA_EXAMPLE.replace(old, new))
    assert main(argv + ["--config", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert not recwarn.list


def test_qsq_constant_sets_the_species_convention(capsys, tmp_path):
    path = tmp_path / "qsq.ini"
    path.write_text(BA_EXAMPLE.replace("qsq_constant = 1.0", "qsq_constant = 7.5"))
    _, default = run(capsys, ["scales"])
    rc, scaled = run(capsys, ["scales", "--config", str(path)])
    assert rc == 0
    assert scaled[0] == "# Q^2 = 7.5 * hbar/(tau_s * k0^5) (E2 lifetime convention)"
    assert float(scaled[5].split(",")[1]) == pytest.approx(
        7.5 * float(default[5].split(",")[1]), rel=1e-14)

    def tau_vib(lines):
        return float(next(line for line in lines if line.startswith("# tau_vib = "))
                     .removeprefix("# tau_vib = "))

    _, default = run(capsys, ["decohere", "--mode", "closed"])
    rc, scaled = run(capsys, ["decohere", "--mode", "closed", "--config", str(path)])
    assert rc == 0
    # printed with 12 significant digits, so equal to 1e-11 on the page
    assert tau_vib(scaled) == pytest.approx(tau_vib(default) / 7.5, rel=1e-11)
    assert scaled[-1].startswith("# Qsq_convention = Q^2 = 7.5 * hbar/(tau_s * k0^5)")
    closed = DecoherenceMode.CONTINUUM_CLOSED_FORM
    base, convention = (build_report(cfg.species, cfg.trap, closed).tau_vib
                        for cfg in (load_config("ba_example"), load_config(str(path))))
    assert convention == pytest.approx(base / 7.5, rel=1e-12)


@pytest.mark.parametrize("argv", [
    ["scales"], ["equilibrium", "--n-ions", "3"], ["continuum", "--points", "5"],
    ["sums", "--n-ions", "5"], ["adiabatic", "--theta-end", "10"],
    ["decohere", "--n-ions", "5"], ["scaling", "--n-min", "10", "--n-max", "100"],
], ids=lambda argv: argv[0])
def test_bad_qsq_constant_refused_by_every_subcommand(argv, capsys, tmp_path, recwarn):
    path = tmp_path / "qsq.ini"
    path.write_text(BA_EXAMPLE.replace("qsq_constant = 1.0", "qsq_constant = 1e400"))
    assert main(argv + ["--config", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "qsq_constant" in lines[0]
    assert not recwarn.list


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


FMT_CASES = [
    (np.int64(10**15 + 1), "1000000000000001"),
    (np.int32(-7), "-7"),
    (np.uint8(255), "255"),
    (10**15 + 1, "1000000000000001"),
    (True, "1"),
    (np.float64(1e15 + 1), "1e+15"),
    (np.float64(0.1), "0.1"),
    (np.bool_(True), "1"),
]


@pytest.mark.parametrize("value, text", FMT_CASES,
                         ids=[repr(v) for v, _ in FMT_CASES])
def test_fmt_prints_integers_whole_and_the_rest_at_12_digits(value, text):
    """Python and numpy integers (bool too) print every digit; np.float64
    and np.bool_ go through %.12g."""
    assert _fmt(value) == text


def _old_row(*values):
    """The CSV row format of the subcommand tables before _table: _fmt on
    every value that is not a string."""
    return ",".join(_fmt(v) if not isinstance(v, str) else v for v in values)


def test_table_rows_equal_the_old_row_format():
    """One %-format per row over .tolist() columns prints what _fmt printed
    per numpy value, for Python and numpy integers and every float class."""
    floats = np.array([math.nan, math.inf, -math.inf, -0.0, 1e-300, 1e300, 0.1,
                       1e15 + 1, 5e-324, -123456.7890123456])
    ints = np.array([0, 7, -3, 10**15 + 1, 2**62, -(2**63), 1, 2, 3, 4])
    rows = list(_table("%d,%.12g,%d,%.12g", range(floats.size), floats.tolist(),
                       ints.tolist(), floats[::-1].tolist()))
    assert rows == [_old_row(i, f, k, g) for i, f, k, g in
                    zip(range(floats.size), floats, ints, floats[::-1])]
    assert rows[3] == "3,-0,1000000000000001,0.1"


@pytest.mark.parametrize("points", [1, 2, 3, 101, 301, 10**5])
def test_profile_grid_is_linspace_bit_for_bit(points):
    assert list(_profile_grid(points)) == np.linspace(-0.99, 0.99, points).tolist()


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


def _refused_with_one_line(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: config: ")
    return lines[0]


def test_exit_config_not_utf8(capsys, tmp_path):
    path = tmp_path / "latin1.ini"
    path.write_bytes(BA_EXAMPLE.replace("Ba+", "Ba\xff").encode("latin-1"))
    line = _refused_with_one_line(capsys, ["scales", "--config", str(path)])
    assert line.endswith("is not UTF-8 text")


def test_exit_config_unreadable(capsys, tmp_path):
    """A directory stands in for an unreadable file: run as root, a file
    without read permission would still be read."""
    line = _refused_with_one_line(capsys, ["scales", "--config", str(tmp_path)])
    assert str(tmp_path) in line and line.endswith("Is a directory")


def test_warnings_printed_one_line_each_after_the_output(capsys):
    rc = main(["adiabatic", "--eps-ratio", "0.2", "--rot-ratio", "0.3"])
    captured = capsys.readouterr()
    assert rc == 0
    assert captured.out.startswith("# eps/omega0 = 0.2, rot/omega0 = 0.3, ")
    lines = captured.err.splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("warning: drive amplitude is 0.2 ")
    assert lines[1].startswith("warning: drive rotation rate is 0.3 ")


def test_refused_call_drops_its_warnings(capsys):
    rc = main(["adiabatic", "--eps-ratio", "3", "--theta-end", "100"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("numerical failure: norm drifted")


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


ADIABATIC_FLAG_REFUSALS = [
    ("--theta-end=-1", "--theta-end: must be finite and >= 0, got -1"),
    ("--theta-end=nan", "--theta-end: must be finite and >= 0, got nan"),
    ("--theta-end=3e8", "--theta-end: 300000000 needs more than MAX_STEPS = "
                        "4e+09 steps of 0.05/omega0"),
    ("--eps-ratio=-1", "--eps-ratio: must be finite and >= 0, got -1"),
    ("--eps-ratio=inf", "--eps-ratio: must be finite and >= 0, got inf"),
    ("--eps-ratio=1e300", "--eps-ratio: 1e+300 leaves the float range in SI "
                          "units (omega0 = 1.06814150222e+15 rad/s)"),
    ("--rot-ratio=-inf", "--rot-ratio: must be finite, got -inf"),
    ("--rot-ratio=1e300", "--rot-ratio: 1e+300 leaves the float range in SI "
                          "units (omega0 = 1.06814150222e+15 rad/s)"),
]


@pytest.mark.parametrize("flag, message", ADIABATIC_FLAG_REFUSALS,
                         ids=[flag for flag, _ in ADIABATIC_FLAG_REFUSALS])
def test_adiabatic_refusal_names_the_flag_and_its_value(flag, message, capsys):
    assert main(["adiabatic", flag]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_adiabatic_theta_end_limit_is_read_from_the_integrator(capsys, monkeypatch):
    """The flag's MAX_STEPS check uses the integrator's own limit and step."""
    from iondec import adiabatic
    monkeypatch.setattr(adiabatic, "MAX_STEPS", 1000)
    assert main(["adiabatic", "--theta-end=50"]) == 0
    assert capsys.readouterr().out.count("\n") == 2 + 1001
    assert main(["adiabatic", "--theta-end=50.1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: --theta-end: 50.1 needs more than MAX_STEPS = "
                            "1e+03 steps of 0.05/omega0\n")


def test_adiabatic_theta_end_beyond_the_float_range_in_seconds(capsys, tmp_path):
    path = tmp_path / "slow.ini"
    path.write_text(BA_EXAMPLE.replace("f0_hz = 1.7e14", "f0_hz = 1e-10"))
    assert main(["adiabatic", "--config", str(path), "--theta-end=1e300"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: --theta-end: 1e+300 leaves the float range in "
                            "SI units (omega0 = 6.28318530718e-10 rad/s)\n")


REFUSED_CASES = [
    ["adiabatic", "--eps-ratio", "nan"],
    ["adiabatic", "--eps-ratio", "inf"],
    ["adiabatic", "--rot-ratio", "nan"],
    ["adiabatic", "--theta-end", "nan"],
    ["adiabatic", "--theta-end", "inf"],
    ["adiabatic", "--theta-end", "1e20"],
    ["adiabatic", "--theta-end", "1e300"],
    ["continuum", "--points", "-1"],
    ["continuum", "--points", "0"],
    ["continuum", "--points", "1000001"],
    ["continuum", "--points", "100000000000"],
    ["scaling", "--policy", "fixed_spacing", "--s0-target=inf"],
    ["scaling", "--policy", "fixed_spacing", "--s0-target=1e300"],
    ["scaling", "--policy", "fixed_spacing", "--s0-target=1e-300"],
    ["scaling", "--policy", "fixed_spacing", "--s0-target=1e50"],
    ["scaling", "--policy", "fixed_voltage", "--s0-target", "1e-6"],
    ["scaling", "--n-min", "10", "--n-max", str(10**20)],
    ["scaling", "--n-min", "1"],
    ["scaling", "--n-min", "100", "--n-max", "100"],
    ["scales", "--n-ions", "0"],
    ["sums", "--n-ions", "5", "--exponent", "5000"],
    ["sums", "--n-ions", "3", "--exponent", "100000"],
    ["decohere", "--mode", "closed", "--n-ions", str(10**30)],
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
    # a subcommand takes only the override flags of values it reads
    for argv in (["sums", "--multipole", "E1"], ["adiabatic", "--n-ions", "5"]):
        with pytest.raises(SystemExit):
            main(argv)


# ---------------------------------------------------------- module loads

def _child_env():
    """The environment of a fresh python that imports this checkout's iondec."""
    src = str(Path(iondec.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def _python(*args):
    """A fresh ``python args`` that imports this checkout's iondec."""
    return subprocess.run([sys.executable, *args], env=_child_env(),
                          capture_output=True, text=True)


def _imported(*args, rc=0):
    """Every module a fresh ``python -X importtime args`` imports; the call
    must exit with ``rc``."""
    proc = _python("-X", "importtime", *args)
    assert proc.returncode == rc, proc.stderr[-500:]
    return {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
            if line.startswith("import time:")}


def _unwanted(modules):
    return sorted(m for m in modules if m.split(".")[0] == "scipy"
                  or m == "numpy.ma" or m.startswith("numpy.ma."))


def test_import_iondec_loads_no_submodule():
    loaded = _imported("-c", "import iondec")
    assert "iondec" in loaded
    assert sorted(m for m in loaded if m.startswith("iondec.")
                  or m.split(".")[0] == "numpy") == []
    assert _unwanted(_imported("-c", "import iondec.cli")) == []
    assert set(iondec.__all__) <= set(dir(iondec))
    assert all(getattr(iondec, name) is not None for name in iondec.__all__)
    with pytest.raises(AttributeError):
        iondec.no_such_name


# What parsing a config needs; it loads no numpy.
BASE_MODULES = {"iondec", "iondec.errors", "iondec.physmodel", "iondec.continuum"}
# The iondec modules each subcommand loads beyond BASE_MODULES.
SUBCOMMAND_MODULES = [
    (["scales"], set()),
    (["continuum", "--points", "5"], set()),
    (["equilibrium", "--n-ions", "5"], {"chain"}),
    (["sums", "--n-ions", "5"], {"chain", "sums"}),
    (["adiabatic", "--theta-end", "10"], {"adiabatic"}),
    (["decohere", "--n-ions", "5"], {"chain", "sums", "decoherence"}),
    (["decohere", "--mode", "closed"], {"sums", "decoherence"}),
    (["scaling", "--n-min", "10", "--n-max", "100"], {"sums", "decoherence", "scaling"}),
    (["scaling", "--policy", "fixed_spacing", "--n-min", "10", "--n-max", "100"],
     {"sums", "decoherence", "scaling"}),
]


@pytest.mark.parametrize("argv, extra", SUBCOMMAND_MODULES,
                         ids=[" ".join(argv) for argv, _ in SUBCOMMAND_MODULES])
def test_subcommand_loads_only_its_modules(argv, extra):
    loaded = _imported("-m", "iondec.cli", *argv)
    assert {m for m in loaded if m.split(".")[0] == "iondec"} == \
        BASE_MODULES | {f"iondec.{m}" for m in extra}
    assert _unwanted(loaded) == []


_CLOSED = {"sums", "decoherence"}
_SCALING = {"sums", "decoherence", "scaling"}
# Calls that compute no array, with their exit codes and the iondec modules
# they load beyond BASE_MODULES: scales, continuum, decohere --mode closed,
# and refusals that the argv, the config or a scalar check decide before any
# array is built (every bad input of the cli_presets benchmark among them).
NUMPY_FREE_CALLS = [
    (["scales"], 0, set()),
    (["scales", "--multipole", "E1"], 0, set()),
    (["continuum"], 0, set()),
    (["continuum", "--points", "301", "--n-ions", "10000"], 0, set()),
    (["decohere", "--mode", "closed"], 0, _CLOSED),
    (["decohere", "--mode", "closed", "--multipole", "E1"], 0, _CLOSED),
    (["decohere", "--mode", "closed", "--n-ions", "10000"], 0, _CLOSED),
    (["scales", "--n-ions", "0"], 1, set()),
    (["scales", "--n-ions", "-3"], 1, set()),
    (["scales", "--config", "no-such.ini"], 1, set()),
    (["scales", "--config", "no-such-config.ini"], 1, set()),
    (["equilibrium", "--n-ions", "0"], 1, set()),
    (["equilibrium", "--n-ions", "20000"], 1, set()),
    (["sums", "--exponent", "1"], 1, set()),
    (["sums", "--n-ions", "50", "--exponent", "1"], 1, set()),
    (["sums", "--n-ions", "1"], 1, set()),
    (["continuum", "--n-ions", "1"], 1, set()),
    (["continuum", "--points", "0"], 1, set()),
    (["adiabatic", "--theta-end", "-5"], 1, set()),
    (["adiabatic", "--eps-ratio", "-0.01"], 1, set()),
    (["adiabatic", "--rot-ratio=1e300"], 1, set()),
    (["decohere", "--mode", "closed", "--n-ions", "1"], 1, _CLOSED),
    (["scaling", "--policy", "fixed_voltage", "--s0-target", "1e-6"], 1, set()),
    (["scaling", "--n-min", "1", "--n-max", "10"], 1, _SCALING),
    (["scaling", "--n-min", "100", "--n-max", "50"], 1, _SCALING),
    (["scaling", "--policy", "fixed_spacing", "--s0-target=-1e-6"], 1, _SCALING),
]


@pytest.mark.parametrize("argv, rc, extra", NUMPY_FREE_CALLS,
                         ids=[" ".join(argv) for argv, _, _ in NUMPY_FREE_CALLS])
def test_call_without_arrays_loads_no_numpy(argv, rc, extra):
    loaded = _imported("-m", "iondec.cli", *argv, rc=rc)
    assert sorted(m for m in loaded if m.split(".")[0] == "numpy") == []
    assert {m for m in loaded if m.split(".")[0] == "iondec"} == \
        BASE_MODULES | {f"iondec.{m}" for m in extra}


@pytest.mark.parametrize("argv, rc", [(["scales"], 0),
                                      (["equilibrium", "--n-ions", "0"], 1)])
def test_python_m_iondec_is_the_cli(argv, rc):
    package, module = _python("-m", "iondec", *argv), _python("-m", "iondec.cli", *argv)
    assert package.returncode == module.returncode == rc
    assert package.stdout == module.stdout
    assert package.stderr == module.stderr
    assert bool(package.stdout) == (rc == 0)


# Runs the argv after it and prints that child's peak RSS in KiB on stderr.
# Linux carries a process's peak RSS into the child it forks, so the CLI is
# started from this small python rather than from the test process.
_PEAK_RSS = """\
import os, subprocess, sys
proc = subprocess.Popen(sys.argv[1:])
_, status, usage = os.wait4(proc.pid, 0)
proc.returncode = os.waitstatus_to_exitcode(status)
print(usage.ru_maxrss, file=sys.stderr)
sys.exit(proc.returncode)
"""


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux")
def test_continuum_at_max_points_streams_its_rows():
    """At MAX_POINTS the rows are formatted and written as they are produced,
    so the CLI's peak RSS stays near the interpreter's own, far below the
    size of its 47 MB of output."""
    proc = subprocess.Popen([sys.executable, "-c", _PEAK_RSS, sys.executable, "-m",
                             "iondec", "continuum", "--points", str(MAX_POINTS)],
                            env=_child_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    newlines, tail = 0, b""
    with proc.stdout, proc.stderr:
        for chunk in iter(lambda: proc.stdout.read(1 << 16), b""):
            newlines += chunk.count(b"\n")
            tail = (tail + chunk)[-200:]
        peak_kib = int(proc.stderr.read())
    assert proc.wait() == 0
    assert newlines == MAX_POINTS + 3
    assert tail.splitlines()[-1].startswith(b"0.99,")
    assert peak_kib < 64 * 1024


# ------------------------------------------------------------ config fuzz

FUZZ_KEYS = ("mass_amu", "charge_e", "f0_hz", "tau_s_s", "fz_hz", "ft_hz",
             "qsq_constant")
FUZZ_COMMANDS = [
    ["scales"],
    ["equilibrium", "--n-ions", "3"],
    ["continuum", "--n-ions", "10", "--points", "5"],
    ["sums", "--n-ions", "5"],
    ["adiabatic", "--theta-end", "10"],
    ["decohere", "--n-ions", "5"],
    ["decohere", "--mode", "closed", "--n-ions", "5"],
    ["scaling", "--n-min", "10", "--n-max", "100"],
    ["scaling", "--policy", "fixed_spacing", "--n-min", "10", "--n-max", "100"],
    ["scaling", "--policy", "fixed_spacing", "--s0-target", "5e-7", "--n-min", "10",
     "--n-max", "100"],
]


@pytest.fixture(scope="module")
def fuzz_config(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "fuzz.ini"


@settings(derandomize=True, max_examples=40, deadline=None)
@given(edits=st.dictionaries(st.sampled_from(FUZZ_KEYS),
                             st.floats(-300.0, 300.0).map(lambda e: 10.0 ** e)))
# |f|^2 overflows in the adiabatic phase; d0^16 underflows under a zero rate
@example(edits={"f0_hz": 1e300})
@example(edits={"mass_amu": 1e300})
# the vibrational prefactor's denominator underflows to 0
@example(edits={"mass_amu": 1e-273})
# every rate is subnormal, so tau_vib = 1/rate overflows
@example(edits={"fz_hz": 1e-50})
# tau_vib is finite but tau_vib/tau_s overflows
@example(edits={"fz_hz": 1e-50, "tau_s_s": 1e-10})
# q^2 overflows in the fixed-spacing retuning under an explicit s0 target
@example(edits={"charge_e": 1e200})
def test_config_fuzz_exits_cleanly(fuzz_config, edits):
    """Any species and trap values from 1e-300 to 1e300 end in a documented
    exit code: a finite table and nothing on stderr, or one stderr line."""
    text = BA_EXAMPLE
    for key, value in edits.items():
        text = re.sub(rf"^{key} = .*$", f"{key} = {value!r}", text, flags=re.M)
    fuzz_config.write_text(text)
    with warnings.catch_warnings(record=True) as caught:
        for argv in FUZZ_COMMANDS:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = main(argv + ["--config", str(fuzz_config)])
            assert rc in (0, 1, 2, 3), argv
            if rc:
                assert len(err.getvalue().splitlines()) == 1, argv
                assert out.getvalue() == "", argv
            else:
                assert err.getvalue() == "", argv
                assert not re.search(r"\b(nan|inf)\b", out.getvalue(), re.I), argv
    assert [str(w.message) for w in caught] == []


# -------------------------------------------------------------- argv fuzz

def _option(name, values):
    """Leave the option out, or pass it as --name=value, so a value with a
    leading '-' (-inf, -1e-06) is never taken for an option."""
    return st.one_of(st.just([]), values.map(lambda v: [f"--{name}={v}"]))


def _command(name, overrides, **options):
    """argv for one subcommand with any subset of its options drawn, the
    config-override flags among them that it takes (names in _OVERRIDES)."""
    options = {**{key: _OVERRIDES[key] for key in overrides}, **options}
    return st.tuples(*(_option(key, values) for key, values in options.items())).map(
        lambda parts: [name] + [arg for part in parts for arg in part])


# A chain solve at 400 < N <= 10^4 takes seconds to minutes, so the ion
# count stays small or lands just past MAX_IONS and far beyond it.
_N_IONS = st.one_of(st.integers(-3, 400), st.sampled_from([10**4 + 1, 10**30]))
_EDGES = st.sampled_from([math.nan, math.inf, -math.inf, -1.0, 0.0, 1e-300, 1e300])
_RATIO = st.one_of(_EDGES, st.floats(-0.2, 0.2))
_OVERRIDES = {"n-ions": _N_IONS, "multipole": st.sampled_from(["E1", "E2"])}
_BOTH = ("n-ions", "multipole")
FUZZ_ARGV = st.one_of(
    _command("scales", _BOTH),
    _command("equilibrium", ("n-ions",)),
    _command("continuum", ("n-ions",),
             points=st.one_of(st.integers(-2, 300), st.just(10**6 + 1))),
    _command("sums", ("n-ions",),
             exponent=st.one_of(st.integers(-2, 64), st.just(10**20))),
    _command("adiabatic", (), **{"theta-end": st.one_of(_EDGES, st.floats(0.0, 2e3)),
                                 "eps-ratio": _RATIO, "rot-ratio": _RATIO}),
    _command("decohere", _BOTH, mode=st.sampled_from(["discrete", "closed"])),
    _command("scaling", _BOTH, policy=st.sampled_from(["fixed_voltage", "fixed_spacing"]),
             **{"n-min": st.integers(-2, 10**5), "n-max": st.integers(-2, 10**5),
                "s0-target": st.one_of(
                    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -1e-6,
                                     1e-300, 1e300]),
                    st.floats(1e-7, 1e-5))}),
)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(argv=FUZZ_ARGV)
# the far corners of the drawn ranges, where the derandomized draws seldom go
@example(argv=["sums", "--n-ions=400", "--exponent=64"])
@example(argv=["decohere", "--n-ions=400", "--mode=discrete", "--multipole=E1"])
@example(argv=["adiabatic", "--theta-end=2000.0", "--eps-ratio=0.2",
               "--rot-ratio=-0.2"])
@example(argv=["adiabatic", "--theta-end=1e-300", "--rot-ratio=1e300"])
@example(argv=["scaling", "--policy=fixed_spacing", "--n-min=2", "--n-max=100000",
               "--s0-target=1e-05"])
@example(argv=["scaling", "--n-min=2", "--n-max=100000", "--multipole=E1"])
@example(argv=["continuum", f"--n-ions={10**30}", "--points=300"])
def test_argv_fuzz_exits_cleanly(argv):
    """Any argv that argparse accepts ends in a documented exit code: a
    table without NaN and only warning lines on stderr, or one stderr line
    and nothing on stdout.  inf is a legitimate single-ion time."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    assert rc in (0, 1, 2), argv
    lines = err.getvalue().splitlines()
    if rc:
        assert out.getvalue() == "", argv
        assert len(lines) == 1, argv
        assert lines[0].startswith(("error: ", "numerical failure: ")), argv
    else:
        assert all(line.startswith("warning: ") for line in lines), argv
        assert not re.search(r"\bnan\b", out.getvalue(), re.I), argv
