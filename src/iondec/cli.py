"""Command-line interface: INI config in, deterministic CSV out.

Physics parameters live in a sectioned key = value file ([species],
[trap], [model]); command flags select what to compute and may override
the ion count or multipole order.  All numeric output is printed with
12 significant digits and LF line endings so identical configs produce
byte-identical files at a fixed BLAS thread count (the equilibrium
solve's linear algebra can round differently with the number of
OpenBLAS threads, moving the last printed digit).  Exit codes: 0 ok,
1 bad config/validation, 2 numerical failure, 3 output I/O failure.
"""
from __future__ import annotations

import argparse
import configparser
import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from .adiabatic import DriveField, adiabatic_phase, integrate_tls, overlap_fidelity
from .chain import local_spacings, solve_equilibrium
from .continuum import C0_DUBIN, ContinuumModel, chain_length, min_spacing
from .decoherence import DecoherenceMode, build_report, closed_form_rate
from .errors import AccuracyError, DomainError, SolverError, ValidationError
from .physmodel import (IonSpecies, Multipole, TrapConfig, derive_scales,
                        qsq_convention_stamp)
from .scaling import (LOG_POWERS, ScalingPolicy, default_n_grid, fit_exponent,
                      scan)
from .sums import pair_sum_approx, pair_sum_exact_all

BA_EXAMPLE = """\
[species]
name = Ba+
mass_amu = 137.33
charge_e = 1
f0_hz = 1.7e14
tau_s_s = 50
multipole = E2

[trap]
fz_hz = 1e5
ft_hz = 2e7
n_ions = 1000

[model]
continuum = dubin_fluid
qsq_constant = 1.0
chain_tol = 1e-12
max_iter = 200
"""

PRESETS = {"ba_example": BA_EXAMPLE}

_SECTIONS = {
    "species": {"name", "mass_amu", "charge_e", "f0_hz", "tau_s_s", "multipole"},
    "trap": {"fz_hz", "ft_hz", "n_ions"},
    "model": {"continuum", "qsq_constant", "chain_tol", "max_iter"},
}
_REQUIRED = ("species", "trap")


@dataclass(frozen=True)
class RunConfig:
    species: IonSpecies
    trap: TrapConfig
    model: ContinuumModel
    qsq_constant: float
    chain_tol: float
    max_iter: int


def _number(section, key, raw):
    try:
        return float(raw)
    except ValueError:
        raise ValidationError(key, f"[{section}] {key} is not a number: {raw!r}") from None


def _positive(section, key, raw):
    value = _number(section, key, raw)
    if not value > 0:
        raise ValidationError(key, f"[{section}] {key} must be positive, got {raw}")
    return value


def _finite_positive(section, key, raw):
    value = _positive(section, key, raw)
    if not math.isfinite(value):
        raise ValidationError(key, f"[{section}] {key} must be finite, got {raw}")
    return value


def parse_config(text: str) -> RunConfig:
    """Validate sectioned key = value text into a RunConfig."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.MissingSectionHeaderError as exc:
        raise ValidationError("config", f"line {exc.lineno}: {exc.message.splitlines()[0]}"
                              if exc.message else f"line {exc.lineno}: no section header") from None
    except configparser.ParsingError as exc:
        where = ", ".join(f"line {lineno}" for lineno, _ in exc.errors)
        raise ValidationError("config", f"parse error at {where}") from None
    except configparser.Error as exc:
        raise ValidationError("config", str(exc)) from None

    for section in parser.sections():
        if section not in _SECTIONS:
            raise ValidationError("config", f"unknown section [{section}]")
        for key in parser[section]:
            if key not in _SECTIONS[section]:
                raise ValidationError(key, f"unknown key {key!r} in [{section}]")
    missing = [s for s in _REQUIRED if not parser.has_section(s)]
    if missing:
        raise ValidationError("config", "missing required section(s) "
                              + ", ".join(f"[{s}]" for s in missing))
    for section in _REQUIRED:
        absent = _SECTIONS[section] - set(parser[section])
        if absent:
            raise ValidationError("config", f"[{section}] is missing "
                                  + ", ".join(sorted(absent)))

    sp = parser["species"]
    multipole_raw = sp["multipole"].strip().upper()
    if multipole_raw not in ("E1", "E2"):
        raise ValidationError("multipole", f"expected E1 or E2, got {sp['multipole']!r}")
    species = IonSpecies.from_lab_units(
        name=sp["name"].strip(),
        mass_amu=_positive("species", "mass_amu", sp["mass_amu"]),
        charge_e=_positive("species", "charge_e", sp["charge_e"]),
        f0_hz=_positive("species", "f0_hz", sp["f0_hz"]),
        tau_s_s=_positive("species", "tau_s_s", sp["tau_s_s"]),
        multipole=Multipole[multipole_raw])

    tr = parser["trap"]
    n_raw = tr["n_ions"].strip()
    try:
        n_ions = int(n_raw)
    except ValueError:
        raise ValidationError("n_ions", f"[trap] n_ions is not an integer: {n_raw!r}") from None
    trap = TrapConfig.from_lab_units(
        fz_hz=_positive("trap", "fz_hz", tr["fz_hz"]),
        ft_hz=_positive("trap", "ft_hz", tr["ft_hz"]),
        n_ions=n_ions)

    model = ContinuumModel.DUBIN_FLUID
    qsq_constant, chain_tol, max_iter = 1.0, 1e-12, 200
    if parser.has_section("model"):
        mo = parser["model"]
        if "continuum" in mo:
            kind = mo["continuum"].strip().lower()
            try:
                model = ContinuumModel(kind)
            except ValueError:
                raise ValidationError(
                    "continuum", f"expected one of "
                    f"{[m.value for m in ContinuumModel]}, got {kind!r}") from None
        if "qsq_constant" in mo:
            qsq_constant = _positive("model", "qsq_constant", mo["qsq_constant"])
        if "chain_tol" in mo:
            chain_tol = _finite_positive("model", "chain_tol", mo["chain_tol"])
        if "max_iter" in mo:
            value = _finite_positive("model", "max_iter", mo["max_iter"])
            if value != int(value):
                raise ValidationError("max_iter", "[model] max_iter must be an "
                                      f"integer, got {mo['max_iter']}")
            max_iter = int(value)
    return RunConfig(species=species, trap=trap, model=model,
                     qsq_constant=qsq_constant, chain_tol=chain_tol,
                     max_iter=max_iter)


def load_config(path_or_preset: str) -> RunConfig:
    if path_or_preset in PRESETS:
        return parse_config(PRESETS[path_or_preset])
    try:
        with open(path_or_preset, "r", encoding="utf-8") as handle:
            text = handle.read()
    except FileNotFoundError:
        raise ValidationError(
            "config", f"{path_or_preset!r} is neither a readable file nor one of "
            f"the presets {sorted(PRESETS)}") from None
    return parse_config(text)


def _fmt(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return "%.12g" % float(value)


def _row(*values) -> str:
    return ",".join(_fmt(v) if not isinstance(v, str) else v for v in values)


def _cmd_scales(cfg, args):
    scales = derive_scales(cfg.species, cfg.trap, cfg.qsq_constant)
    two_p = 2 * cfg.species.multipole.pair_exponent
    qsq_unit = f"J*m^{two_p - 3}"
    tau_rad = 2.0 * cfg.species.tau_s / cfg.trap.n_ions
    return [
        f"# {qsq_convention_stamp(cfg.species, cfg.qsq_constant)}",
        "quantity,value,unit",
        _row("d0", scales.d0, "m"),
        _row("k0", scales.k0, "1/m"),
        _row("q2_coul", scales.q2_coul, "J*m"),
        _row("q_sq", scales.q_sq, qsq_unit),
        _row("tau_rad", tau_rad, "s"),
    ]


def _cmd_equilibrium(cfg, args):
    chain = solve_equilibrium(cfg.trap.n_ions, tol=cfg.chain_tol,
                              max_iter=cfg.max_iter)
    d0 = derive_scales(cfg.species, cfg.trap, cfg.qsq_constant).d0
    spacings = local_spacings(chain)
    lines = [f"# N = {chain.n_ions}, residual = {_fmt(chain.residual)}, "
             f"d0_m = {_fmt(d0)}",
             "index,u_dimensionless,z_meters,local_spacing_dimensionless"]
    u = chain.positions.astype(float)
    lines += [_row(i, u[i], u[i] * d0, spacings[i]) for i in range(chain.n_ions)]
    return lines


def _cmd_continuum(cfg, args):
    if args.points < 1:
        raise ValidationError("points", f"must be >= 1, got {args.points}")
    n = cfg.trap.n_ions
    header = []
    for model in ContinuumModel:
        header.append(f"# {model.value}: L = {_fmt(chain_length(n, model))} d0, "
                      f"s0 = {_fmt(min_spacing(n, model))} d0")
    x = np.linspace(-0.99, 0.99, args.points)
    s_nn = min_spacing(n, ContinuumModel.NEAREST_NEIGHBOR) / (1.0 - x**2)
    s_du = min_spacing(n, ContinuumModel.DUBIN_FLUID) / (1.0 - x**2)
    lines = header + ["z_over_L,s_over_d0_nn,s_over_d0_dubin"]
    lines += [_row(x[i], s_nn[i], s_du[i]) for i in range(x.size)]
    return lines


def _cmd_sums(cfg, args):
    n_exp = args.exponent
    if n_exp < 2:
        raise ValidationError("exponent", f"need an integer >= 2, got {n_exp}")
    chain = solve_equilibrium(cfg.trap.n_ions, tol=cfg.chain_tol,
                              max_iter=cfg.max_iter)
    exact = pair_sum_exact_all(chain, n_exp)
    spacings = local_spacings(chain)
    u = chain.positions.astype(float)
    lines = [f"# N = {chain.n_ions}, n = {n_exp}",
             "i,u_i,S_n_exact,S_n_approx,rel_err"]
    for i in range(chain.n_ions):
        approx = pair_sum_approx(float(spacings[i]), n_exp)
        rel = (approx - exact[i]) / exact[i]
        lines.append(_row(i, u[i], exact[i], approx, rel))
    return lines


def _cmd_adiabatic(cfg, args):
    omega0 = cfg.species.omega0
    drive = DriveField.circular(args.eps_ratio * omega0, args.rot_ratio * omega0)
    t_end = args.theta_end / omega0
    initial = (1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0))
    traj = integrate_tls(omega0, drive, initial, t_end)
    overlap = overlap_fidelity(traj)
    phase_rate = adiabatic_phase(drive, omega0, 1.0)  # rad per second
    cos_phi = np.cos(phase_rate * traj.theta / omega0)
    lines = [f"# eps/omega0 = {_fmt(args.eps_ratio)}, rot/omega0 = "
             f"{_fmt(args.rot_ratio)}, norm_drift = {_fmt(traj.norm_drift)}",
             "omega0_t,re_overlap,cos_phi,abs_error"]
    for k in range(traj.theta.size):
        lines.append(_row(traj.theta[k], overlap[k], cos_phi[k],
                          abs(overlap[k] - cos_phi[k])))
    return lines


_MODES = {"discrete": DecoherenceMode.DISCRETE_SUM,
          "closed": DecoherenceMode.CONTINUUM_CLOSED_FORM}


def _cmd_decohere(cfg, args):
    mode = _MODES[args.mode]
    chain = None
    if mode is DecoherenceMode.DISCRETE_SUM and cfg.trap.n_ions > 1:
        chain = solve_equilibrium(cfg.trap.n_ions, tol=cfg.chain_tol,
                                  max_iter=cfg.max_iter)
    report = build_report(cfg.species, cfg.trap, mode, cfg.model,
                          cfg.qsq_constant, chain=chain)
    lines = ["i,tau_i_seconds"]
    if report.per_ion_tau is not None:
        lines += [_row(i, tau) for i, tau in enumerate(report.per_ion_tau)]
    lines += [
        f"# tau_vib = {_fmt(report.tau_vib)}",
        f"# tau_rad = {_fmt(report.tau_rad)}",
        f"# t_d = {_fmt(report.t_d)}",
        f"# mode = {report.mode.value}",
        f"# Qsq_convention = {report.notes}",
    ]
    return lines


_POLICIES = ("fixed_voltage", "fixed_spacing")


def _cmd_scaling(cfg, args):
    if args.n_min < 2 or args.n_max <= args.n_min:
        raise ValidationError("n_min", "need 2 <= n-min < n-max")
    grid = default_n_grid(args.n_min, args.n_max)
    if args.policy == "fixed_voltage":
        policy = ScalingPolicy.fixed_voltage(cfg.trap.omega_z, cfg.trap.omega_t)
    else:
        target = args.s0_target
        if target is None:
            scales = derive_scales(cfg.species, cfg.trap, cfg.qsq_constant)
            target = min_spacing(cfg.trap.n_ions, cfg.model) * scales.d0
        policy = ScalingPolicy.fixed_spacing(target)
    series = scan(policy, grid, cfg.species, cfg.trap, cfg.model, cfg.qsq_constant)
    lines = ["N,omega_z_hz,d0_m,s0_m,rate_vib_hz,rate_rad_hz"]
    two_pi = 2.0 * math.pi
    for k in range(series.n_ions.size):
        lines.append(_row(int(series.n_ions[k]), series.omega_z[k] / two_pi,
                          series.d0_m[k], series.s0_m[k], series.rate_vib[k],
                          series.rate_rad[k]))
    raw = fit_exponent(series)
    lines.append(f"# fit: slope = {_fmt(raw.slope)}, width = {_fmt(raw.width)}, "
                 "log_power = none")
    key = f"fixed_voltage_{cfg.species.multipole.name.lower()}"
    if args.policy == "fixed_voltage" and key in LOG_POWERS:
        corr = fit_exponent(series, log_power=LOG_POWERS[key])
        lines.append(f"# fit: slope = {_fmt(corr.slope)}, width = "
                     f"{_fmt(corr.width)}, log_power = {_fmt(corr.log_power)}")
        lines.append(f"# reference: {key} = {_fmt(series.reference[key])}")
    return lines


_COMMANDS = {
    "scales": _cmd_scales,
    "equilibrium": _cmd_equilibrium,
    "continuum": _cmd_continuum,
    "sums": _cmd_sums,
    "adiabatic": _cmd_adiabatic,
    "decohere": _cmd_decohere,
    "scaling": _cmd_scaling,
}


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="iondec",
        description="Ion-chain decoherence calculations: equilibrium structure, "
                    "lattice sums, adiabatic dynamics, and decoherence windows.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", default="ba_example",
                       help="config file path or preset name (default: ba_example)")
        p.add_argument("--out", default=None, help="output CSV path (default: stdout)")
        p.add_argument("--n-ions", type=int, default=None,
                       help="override [trap] n_ions")
        p.add_argument("--multipole", choices=("E1", "E2"), default=None,
                       help="override [species] multipole")

    common(sub.add_parser("scales", help="derived trap scales and conventions"))
    common(sub.add_parser("equilibrium", help="solved ion positions"))
    p = sub.add_parser("continuum", help="continuum spacing profiles")
    common(p)
    p.add_argument("--points", type=int, default=101, help="profile sample count")
    p = sub.add_parser("sums", help="per-ion lattice sums, exact vs shortcut")
    common(p)
    p.add_argument("--exponent", type=int, default=8, help="sum exponent n")
    p = sub.add_parser("adiabatic", help="driven two-level overlap vs cos(Phi)")
    common(p)
    p.add_argument("--eps-ratio", type=float, default=0.01, help="drive amplitude/omega0")
    p.add_argument("--rot-ratio", type=float, default=1e-3, help="drive rotation/omega0")
    p.add_argument("--theta-end", type=float, default=1e4, help="omega0 * t_end")
    p = sub.add_parser("decohere", help="per-ion rates and decoherence window")
    common(p)
    p.add_argument("--mode", choices=sorted(_MODES), default="discrete")
    p = sub.add_parser("scaling", help="rate scaling with ion number")
    common(p)
    p.add_argument("--policy", choices=_POLICIES, default="fixed_voltage")
    p.add_argument("--n-min", type=int, default=1000)
    p.add_argument("--n-max", type=int, default=10000)
    p.add_argument("--s0-target", type=float, default=None,
                   help="held spacing in meters (fixed_spacing; default: the "
                        "config's own s0)")
    return parser


def _apply_overrides(cfg: RunConfig, args) -> RunConfig:
    if args.n_ions is not None:
        if args.n_ions < 1:
            raise ValidationError("n_ions", f"must be >= 1, got {args.n_ions}")
        cfg = replace(cfg, trap=replace(cfg.trap, n_ions=args.n_ions))
    if args.multipole is not None:
        cfg = replace(cfg, species=replace(cfg.species,
                                           multipole=Multipole[args.multipole]))
    return cfg


def _write_output(path, lines):
    text = "\n".join(lines) + "\n"
    if path is None:
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(text)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _apply_overrides(load_config(args.config), args)
        lines = _COMMANDS[args.command](cfg, args)
        _write_output(args.out, lines)
    except (ValidationError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (SolverError, AccuracyError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
