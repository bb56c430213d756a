"""Command-line interface: INI config in, deterministic CSV out.

Physics parameters live in a sectioned key = value file ([species] and
[trap], both required; any other section or key is refused, the retired
[model] among them); command flags select what to compute, and a subcommand
that reads the ion count or the multipole order takes a flag that
overrides it: ``--n-ions`` every subcommand but ``adiabatic``,
``--multipole`` only ``scales``, ``decohere`` and ``scaling``.  Each
count, from a flag or the config, is checked by errors.check_integer,
the library's own rule.  All numeric output is printed with 12
significant digits and LF line endings so identical configs produce
byte-identical files.  The equilibrium solve's linear algebra can round
differently with the number of BLAS threads, moving the last printed
digit, so ``main`` sets OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and
MKL_NUM_THREADS to 1 before numpy loads, unless the environment already
names a count.  ``scaling --policy fixed_spacing`` holds the config's
own central spacing, min_spacing(n_ions, DUBIN_FLUID) * d0.  Exit codes: 0 ok
(``--help`` too), 1 bad command line, config or value (a missing,
unreadable or non-UTF-8 config file included), 2 numerical failure, 3
output I/O failure.  A refused call writes one ``error:`` or ``numerical
failure:`` line to stderr and nothing to stdout; a call that succeeds
writes each warning its command raised as one ``warning:`` line on
stderr, after the output.  Each subcommand makes every refusal and
computes every array before the first byte, then its CSV rows are
formatted and written as they are produced.

Every call is a fresh process, so this module loads at import only what
parsing a config needs: errors, physmodel and continuum, and not numpy.
Each subcommand first makes the refusals that its flags and config
decide, then imports the modules it runs: ``scales`` and ``continuum``
nothing more; ``equilibrium`` chain; ``sums`` sums and chain;
``adiabatic`` adiabatic; ``decohere`` decoherence and sums, and chain
for ``--mode discrete``; ``scaling`` scaling, decoherence and sums.
Only chain and adiabatic import numpy at import; errors, continuum,
sums, decoherence and scaling import it (and sums the chain kernel)
inside the functions that take or return arrays, after their argument
checks, and physmodel never does.  So ``scales``, ``continuum``,
``decohere --mode closed`` and every refusal that an argv, a config or a
scalar check decides load no numpy: a bad config, an ion count below 1
(or below 2 where a command needs pairs, ``equilibrium`` among them), an
ion count above MAX_IONS for the calls that solve a chain
(``equilibrium``, ``sums`` and ``decohere --mode discrete``; ``scales``,
``continuum``, ``decohere --mode closed`` and ``scaling`` solve nothing
and take it, up to a count whose scales leave the float range), a bad
``--exponent``, ``--points``, ``adiabatic`` ratio flag, ``--theta-end``
below the step limit or ``--n-min``/``--n-max`` range (under a decade
included).  No subcommand loads scipy or numpy.ma.

The ``iondec`` script, ``python -m iondec`` and ``python -m iondec.cli``
all enter through ``run``, which ends the process as soon as ``main``
returns, skipping the interpreter's teardown: its full garbage
collections over numpy's objects and the freeing of every module's state
took 28-35 ms of a numpy subcommand's 225-375 ms and 15-18 ms of a
numpy-free one's 115-145 ms on a 2-core x86-64 host.  That is safe
because ``main`` releases everything it holds before it returns: stdout is
flushed inside its ``try`` (so a full disk or a closed pipe is the exit-3
``i/o error:`` line, not a message from teardown), an ``--out`` file is
closed by its ``with`` block, ``_threads._in_two`` has joined its worker,
and each warning has been written; ``run`` flushes stderr last.  ``--help``
and an unexpected exception leave ``main`` by raising and take Python's
normal exit.  ``main(argv)`` returns the exit code and never ends the
process, for callers in process.
"""
from __future__ import annotations

import argparse
import configparser
import contextlib
import itertools
import math
import numbers
import os
import re
import sys
import warnings
from dataclasses import dataclass, replace

from .continuum import ContinuumModel, _profile, chain_length, min_spacing
from .errors import (AccuracyError, DomainError, SolverError, ValidationError, _shown,
                     check_finite, check_instance, check_integer, check_nonnegative)
from .physmodel import (MAX_IONS, IonSpecies, Multipole, TrapConfig, derive_scales,
                        qsq_convention_stamp, radiative_time)

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
"""

PRESETS = {"ba_example": BA_EXAMPLE}

# Largest continuum --points, checked before anything is allocated.  Rows are
# written as they are produced, so a call at the cap peaks at about 17 MB, the
# interpreter's own, and takes about 2 s on a 2-core x86-64 host.
MAX_POINTS = 10**6

_SECTIONS = {
    "species": {"name", "mass_amu", "charge_e", "f0_hz", "tau_s_s", "multipole"},
    "trap": {"fz_hz", "ft_hz", "n_ions"},
}


@dataclass(frozen=True)
class RunConfig:
    species: IonSpecies
    trap: TrapConfig


def _number(section, key, raw):
    try:
        return float(raw)
    except ValueError:
        raise ValidationError(key, f"[{section}] {key} is not a number: {_shown(raw)}") from None


def parse_config(text: str) -> RunConfig:
    """Validate sectioned key = value text into a RunConfig."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(check_instance("config", text, str))
    except configparser.MissingSectionHeaderError as exc:
        raise ValidationError("config", f"line {exc.lineno}: {exc.message.splitlines()[0]}"
                              if exc.message else f"line {exc.lineno}: no section header") from None
    except configparser.ParsingError as exc:
        where = ", ".join(f"line {lineno}" for lineno, _ in exc.errors)
        raise ValidationError("config", f"parse error at {where}") from None
    except (configparser.DuplicateSectionError, configparser.DuplicateOptionError) as exc:
        # str(exc) starts "While reading from '<string>' [line 13]: "
        raise ValidationError("config", f"line {exc.lineno}: "
                              f"{exc.message.partition(']: ')[2]}") from None

    for section in parser.sections():
        if section not in _SECTIONS:
            raise ValidationError("config", f"unknown section [{section}]")
        for key in parser[section]:
            if key not in _SECTIONS[section]:
                raise ValidationError(key, f"unknown key {key!r} in [{section}]")
    missing = [s for s in _SECTIONS if not parser.has_section(s)]
    if missing:
        raise ValidationError("config", "missing required section(s) "
                              + ", ".join(f"[{s}]" for s in missing))
    for section in _SECTIONS:
        absent = _SECTIONS[section] - set(parser[section])
        if absent:
            raise ValidationError("config", f"[{section}] is missing "
                                  + ", ".join(sorted(absent)))

    sp = parser["species"]
    multipole_raw = sp["multipole"].strip().upper()
    if multipole_raw not in ("E1", "E2"):
        raise ValidationError("multipole", f"expected E1 or E2, got {_shown(sp['multipole'])}")
    # IonSpecies and TrapConfig check that each number is positive and finite
    species = IonSpecies.from_lab_units(
        name=sp["name"].strip(),
        mass_amu=_number("species", "mass_amu", sp["mass_amu"]),
        charge_e=_number("species", "charge_e", sp["charge_e"]),
        f0_hz=_number("species", "f0_hz", sp["f0_hz"]),
        tau_s_s=_number("species", "tau_s_s", sp["tau_s_s"]),
        multipole=Multipole[multipole_raw])

    tr = parser["trap"]
    n_raw = tr["n_ions"].strip()
    try:
        n_ions = int(n_raw)
    except ValueError:
        raise ValidationError("n_ions", "[trap] n_ions is not an integer: "
                              f"{_shown(n_raw)}") from None
    trap = TrapConfig.from_lab_units(
        fz_hz=_number("trap", "fz_hz", tr["fz_hz"]),
        ft_hz=_number("trap", "ft_hz", tr["ft_hz"]),
        n_ions=n_ions)
    return RunConfig(species=species, trap=trap)


def load_config(path_or_preset: str) -> RunConfig:
    if check_instance("config", path_or_preset, str) in PRESETS:
        return parse_config(PRESETS[path_or_preset])
    try:
        with open(path_or_preset, "r", encoding="utf-8") as handle:
            text = handle.read()
    except FileNotFoundError:
        raise ValidationError(
            "config", f"{path_or_preset!r} is neither a readable file nor one of "
            f"the presets {sorted(PRESETS)}") from None
    except OSError as exc:
        raise ValidationError("config", f"{path_or_preset!r} cannot be read: "
                              f"{exc.strerror or exc}") from None
    except UnicodeDecodeError:
        raise ValidationError("config", f"{path_or_preset!r} is not UTF-8 text") from None
    return parse_config(text)


def _fmt(value) -> str:
    if isinstance(value, numbers.Integral):
        return str(int(value))
    return "%.12g" % float(value)


def _table(fmt, *columns):
    """One CSV line ``fmt % row`` per row of the columns, which are ranges or
    Python lists (an array's ``.tolist()``), formatted as it is read: %d for
    integers, %.12g for floats, the strings _fmt gives each value."""
    return (fmt % row for row in zip(*columns))


def _cmd_scales(cfg, args):
    scales = derive_scales(cfg.species, cfg.trap)
    two_p = 2 * cfg.species.multipole.pair_exponent
    rows = [("d0", scales.d0, "m"),
            ("k0", scales.k0, "1/m"),
            ("q2_coul", scales.q2_coul, "J*m"),
            ("q_sq", scales.q_sq, f"J*m^{two_p - 3}"),
            ("tau_rad", radiative_time(cfg.species, cfg.trap.n_ions), "s")]
    return [f"# {qsq_convention_stamp(cfg.species)}",
            "quantity,value,unit"] + ["%s,%.12g,%s" % row for row in rows]


def _solve(cfg):
    """The config's equilibrium chain; an ion count out of range is refused
    before the chain module (and numpy) loads."""
    check_integer("n_ions", cfg.trap.n_ions, 1, MAX_IONS)
    from .chain import solve_equilibrium

    return solve_equilibrium(cfg.trap.n_ions)


def _cmd_equilibrium(cfg, args):
    check_integer("n_ions", cfg.trap.n_ions, 2)  # local_spacings needs a pair
    chain = _solve(cfg)
    from .chain import local_spacings

    d0 = derive_scales(cfg.species, cfg.trap).d0
    u = chain.positions.astype(float)
    lines = [f"# N = {chain.n_ions}, residual = {_fmt(chain.residual)}, "
             f"d0_m = {_fmt(d0)}",
             "index,u_dimensionless,z_meters,local_spacing_dimensionless"]
    return itertools.chain(lines, _table(
        "%d,%.12g,%.12g,%.12g", range(chain.n_ions), u.tolist(),
        (u * d0).tolist(), local_spacings(chain).tolist()))


def _cmd_continuum(cfg, args):
    check_integer("points", args.points, 1, MAX_POINTS)
    n = cfg.trap.n_ions
    header = []
    for model in ContinuumModel:
        header.append(f"# {model.value}: L = {_fmt(chain_length(n, model))} d0, "
                      f"s0 = {_fmt(min_spacing(n, model))} d0")
    header.append("z_over_L,s_over_d0_nn,s_over_d0_dubin")
    s0_nn = min_spacing(n, ContinuumModel.NEAREST_NEIGHBOR)
    s0_du = min_spacing(n, ContinuumModel.DUBIN_FLUID)
    rows = ("%.12g,%.12g,%.12g" % (z, _profile(s0_nn, z), _profile(s0_du, z))
            for z in _profile_grid(args.points))
    return itertools.chain(header, rows)


def _profile_grid(points: int):
    """np.linspace(-0.99, 0.99, points) in Python floats, one at a time, with
    its bits: i * step + start, and the last point set to the end."""
    start, end = -0.99, 0.99
    if points == 1:
        yield start
        return
    step = (end - start) / (points - 1)
    for i in range(points - 1):
        yield i * step + start
    yield end


def _cmd_sums(cfg, args):
    n_exp = check_integer("exponent", args.exponent, 2)
    check_integer("n_ions", cfg.trap.n_ions, 2)
    chain = _solve(cfg)
    import numpy as np

    from .chain import local_spacings
    from .sums import pair_sum_approx, pair_sum_exact_all

    exact = pair_sum_exact_all(chain, n_exp)
    approx = np.array([pair_sum_approx(s, n_exp)
                       for s in local_spacings(chain).tolist()])
    rel = (approx - exact) / exact
    lines = [f"# N = {chain.n_ions}, n = {n_exp}",
             "i,u_i,S_n_exact,S_n_approx,rel_err"]
    return itertools.chain(lines, _table(
        "%d,%.12g,%.12g,%.12g,%.12g", range(chain.n_ions),
        chain.positions.astype(float).tolist(), exact.tolist(), approx.tolist(),
        rel.tolist()))


def _cmd_adiabatic(cfg, args):
    # The flags are in units of omega0.  integrate_tls and DriveField check
    # the SI values too, but would name their own parameters and print SI
    # numbers, so the flag the user typed is checked here first.
    omega0 = cfg.species.omega0
    check_nonnegative("--eps-ratio", args.eps_ratio)
    check_finite("--rot-ratio", args.rot_ratio)
    check_nonnegative("--theta-end", args.theta_end)
    amplitude, rotation = args.eps_ratio * omega0, args.rot_ratio * omega0
    t_end = args.theta_end / omega0
    for flag, ratio, si_value in (("--eps-ratio", args.eps_ratio, amplitude),
                                  ("--rot-ratio", args.rot_ratio, rotation),
                                  ("--theta-end", args.theta_end, t_end)):
        if not math.isfinite(si_value):
            raise ValidationError(flag, f"{_fmt(ratio)} leaves the float range in "
                                  f"SI units (omega0 = {_fmt(omega0)} rad/s)")
    import numpy as np

    from .adiabatic import (DEFAULT_DTHETA, MAX_STEPS, DriveField, adiabatic_phase,
                            integrate_tls, overlap_fidelity)

    if args.theta_end > MAX_STEPS * DEFAULT_DTHETA:
        raise ValidationError("--theta-end", f"{_fmt(args.theta_end)} needs more than "
                              f"MAX_STEPS = {MAX_STEPS:.0e} steps of "
                              f"{DEFAULT_DTHETA}/omega0")
    drive = DriveField.circular(amplitude, rotation)
    initial = (1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0))
    traj = integrate_tls(omega0, drive, initial, t_end)
    overlap = overlap_fidelity(traj)
    phase_rate = adiabatic_phase(drive, omega0, 1.0)  # rad per second
    cos_phi = np.cos(phase_rate * traj.theta / omega0)
    lines = [f"# eps/omega0 = {_fmt(args.eps_ratio)}, rot/omega0 = "
             f"{_fmt(args.rot_ratio)}, norm_drift = {_fmt(traj.norm_drift)}",
             "omega0_t,re_overlap,cos_phi,abs_error"]
    return itertools.chain(lines, _table(
        "%.12g,%.12g,%.12g,%.12g", traj.theta.tolist(), overlap.tolist(),
        cos_phi.tolist(), np.abs(overlap - cos_phi).tolist()))


# --mode value -> DecoherenceMode member name
_MODES = {"discrete": "DISCRETE_SUM", "closed": "CONTINUUM_CLOSED_FORM"}


def _cmd_decohere(cfg, args):
    from .decoherence import DecoherenceMode, build_report

    mode = DecoherenceMode[_MODES[args.mode]]
    chain = _solve(cfg) if mode is DecoherenceMode.DISCRETE_SUM else None
    report = build_report(cfg.species, cfg.trap, mode, chain=chain)
    tau = [] if report.per_ion_tau is None else report.per_ion_tau.tolist()
    footer = [
        f"# tau_vib = {_fmt(report.tau_vib)}",
        f"# tau_rad = {_fmt(report.tau_rad)}",
        f"# t_d = {_fmt(report.t_d)}",
        f"# mode = {mode.value}",
        f"# Qsq_convention = {report.notes}",
    ]
    return itertools.chain(["i,tau_i_seconds"],
                           _table("%d,%.12g", range(len(tau)), tau), footer)


_POLICIES = ("fixed_voltage", "fixed_spacing")


def _cmd_scaling(cfg, args):
    from .scaling import (LOG_POWERS, REFERENCE_EXPONENTS, check_n_range,
                          default_n_grid, fit_exponent, scan)

    # default_n_grid's checks, fit_exponent's and scan's, made before numpy loads
    n_min, n_max = check_n_range(args.n_min, args.n_max)
    if n_max / n_min < 10.0 - 1e-9:
        raise ValidationError("--n-max", f"the fit needs a decade in N: --n-max {n_max} "
                              f"is under 10 * --n-min {n_min}")
    grid = default_n_grid(args.n_min, args.n_max)
    target = None
    if args.policy == "fixed_spacing":
        scales = derive_scales(cfg.species, cfg.trap)
        target = min_spacing(cfg.trap.n_ions, ContinuumModel.DUBIN_FLUID) * scales.d0
    series = scan(grid, cfg.species, cfg.trap, s0_target=target)
    raw = fit_exponent(series)
    fits = [f"# fit: slope = {_fmt(raw.slope)}, width = {_fmt(raw.width)}, "
            "log_power = none"]
    key = f"fixed_voltage_{cfg.species.multipole.name.lower()}"
    if args.policy == "fixed_voltage" and key in LOG_POWERS:
        corr = fit_exponent(series, log_power=LOG_POWERS[key])
        fits.append(f"# fit: slope = {_fmt(corr.slope)}, width = "
                    f"{_fmt(corr.width)}, log_power = {_fmt(LOG_POWERS[key])}")
        fits.append(f"# reference: {key} = {_fmt(REFERENCE_EXPONENTS[key])}")
    return itertools.chain(["N,omega_z_hz,d0_m,s0_m,rate_vib_hz,rate_rad_hz"], _table(
        "%d,%.12g,%.12g,%.12g,%.12g,%.12g", series.n_ions.tolist(),
        (series.omega_z / (2.0 * math.pi)).tolist(), series.d0_m.tolist(),
        series.s0_m.tolist(), series.rate_vib.tolist(), series.rate_rad.tolist()), fits)


_COMMANDS = {
    "scales": _cmd_scales,
    "equilibrium": _cmd_equilibrium,
    "continuum": _cmd_continuum,
    "sums": _cmd_sums,
    "adiabatic": _cmd_adiabatic,
    "decohere": _cmd_decohere,
    "scaling": _cmd_scaling,
}


class _Parser(argparse.ArgumentParser):
    """argparse, but a usage error is a ValidationError naming the command,
    so main reports it as every refusal (exit 1, one ``error:`` line), and a
    negative number in exponent form (``--rot-ratio -1e-3``) is a value, as
    ``-0.001`` is.  Subcommand parsers are of this class too."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse's own pattern, ^-\d+$|^-\d*\.\d+$, misses the exponent form
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")

    def error(self, message):
        # an argument that holds a line break must not break the one line
        raise ValidationError(self.prog, " ".join(message.splitlines()))


def _build_parser():
    parser = _Parser(
        prog="iondec",
        description="Ion-chain decoherence calculations: equilibrium structure, "
                    "lattice sums, adiabatic dynamics, and decoherence windows.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, summary, n_ions=True, multipole=False):
        """A subcommand with --config and --out, and the override flags of
        the config values it reads."""
        p = sub.add_parser(name, help=summary)
        p.add_argument("--config", default="ba_example",
                       help="config file path or preset name (default: ba_example)")
        p.add_argument("--out", default=None, help="output CSV path (default: stdout)")
        if n_ions:
            p.add_argument("--n-ions", type=int, default=None,
                           help="override [trap] n_ions")
        if multipole:
            p.add_argument("--multipole", choices=("E1", "E2"), default=None,
                           help="override [species] multipole")
        return p

    command("scales", "derived trap scales and conventions", multipole=True)
    command("equilibrium", "solved ion positions")
    p = command("continuum", "continuum spacing profiles")
    p.add_argument("--points", type=int, default=101, help="profile sample count")
    p = command("sums", "per-ion lattice sums, exact vs shortcut")
    p.add_argument("--exponent", type=int, default=8, help="sum exponent n")
    p = command("adiabatic", "driven two-level overlap vs cos(Phi)", n_ions=False)
    p.add_argument("--eps-ratio", type=float, default=0.01, help="drive amplitude/omega0")
    p.add_argument("--rot-ratio", type=float, default=1e-3, help="drive rotation/omega0")
    p.add_argument("--theta-end", type=float, default=1e4, help="omega0 * t_end")
    p = command("decohere", "per-ion rates and decoherence window", multipole=True)
    p.add_argument("--mode", choices=sorted(_MODES), default="discrete")
    p = command("scaling", "rate scaling with ion number", multipole=True)
    p.add_argument("--policy", choices=_POLICIES, default="fixed_voltage")
    p.add_argument("--n-min", type=int, default=1000)
    p.add_argument("--n-max", type=int, default=10000)
    return parser


def _apply_overrides(cfg: RunConfig, args) -> RunConfig:
    """cfg with the --n-ions and --multipole values given, where the
    subcommand takes those flags."""
    if getattr(args, "n_ions", None) is not None:
        cfg = replace(cfg, trap=replace(cfg.trap, n_ions=args.n_ions))
    if getattr(args, "multipole", None) is not None:
        cfg = replace(cfg, species=replace(cfg.species,
                                           multipole=Multipole[args.multipole]))
    return cfg


def _write_output(path, lines):
    """Write the lines, each LF-ended, to the path or stdout as they come,
    and flush them: run skips the flush of teardown (module docstring)."""
    with (contextlib.nullcontext(sys.stdout) if path is None
          else open(path, "w", encoding="utf-8", newline="\n")) as handle:
        lines = iter(lines)
        while block := list(itertools.islice(lines, 4096)):
            handle.write("\n".join(block) + "\n")
        handle.flush()


def main(argv=None) -> int:
    # one BLAS thread unless the caller names a count (module docstring);
    # it takes effect only while numpy is not loaded, as in a CLI process
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    try:
        args = _build_parser().parse_args(argv)
        cfg = _apply_overrides(load_config(args.config), args)
        with warnings.catch_warnings(record=True) as caught:
            # each command makes its refusals and computes its arrays before
            # it returns; its lines are formatted as they are written
            _write_output(args.out, _COMMANDS[args.command](cfg, args))
        for warning in caught:
            print(f"warning: {warning.message}", file=sys.stderr)
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


def run():
    """The process entry point: main, then end the process without the
    interpreter's teardown (module docstring)."""
    code = main()
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
