"""The input contract of every entry point that takes a count, a positive
real, a non-negative real, a finite real, an array of reals or an object
of an iondec class: ion counts
are integers (Python or numpy, never a bool, float or string), and a numpy
integer gives exactly the Python int's result; positive, non-negative and
plain finite reals are real numbers, never a bool or a string, and finite
as a float.  An array (a chain's positions, a sampled drive's tables, the
per-ion rates and the times of a fidelity curve) is a 1-D array of integer
or float dtype, or an iterable, read once, of such finite reals; numpy and
Python numbers give the same bits.  A two-level state is a pair of
numbers, complex allowed.  A drive's time is a finite real or an integer
or float array of finite times.  An object argument (a species, trap,
chain, model, mode, multipole, drive, continuum sites, scaling series or
spin trajectory) is an instance of its class, checked before any of its
attributes is read, so a wrong object never ends in AttributeError or in
another object's defaults.  Each refusal is a ValidationError naming the
parameter, and shows the refused value in at most about SHOWN_MAX
characters.  A computed value that leaves the float range is refused
with a DomainError and no warning, whichever function computes it.

Scalar rows that existing tests already cover (chain_length's and
min_spacing's bad counts) are not repeated here; the array table tries every bad kind at every array entry
point, since one rule owns them all.
"""
import math
import warnings

import numpy as np
import pytest

from iondec.adiabatic import DriveField, adiabatic_phase, integrate_tls, overlap_fidelity
from iondec.chain import IonChain, local_spacings, solve_equilibrium
from iondec.continuum import ContinuumModel, chain_length, min_spacing
from iondec.decoherence import (DecoherenceMode, _prefactor, aggregate_tau_vib,
                                build_report, closed_form_rate, fidelity_curve,
                                per_ion_rates)
from iondec.errors import (SHOWN_MAX, DomainError, ValidationError, check_finite, check_instance,
                           check_integer, check_nonnegative, check_positive, check_reals,
                           in_float_range)
from iondec.physmodel import (IonSpecies, Multipole, TrapConfig, derive_scales,
                              radiative_time)
from iondec.scaling import default_n_grid, fit_exponent, scan
from iondec.sums import (chain_total_asymptotic, chain_total_exact, continuum_sites,
                         pair_sum_approx, pair_sum_exact_all, zeta)

DU = ContinuumModel.DUBIN_FLUID
BA = IonSpecies.from_lab_units("Ba+", mass_amu=137.33, charge_e=1.0, f0_hz=1.7e14,
                               tau_s_s=50.0, multipole=Multipole.E2)
TRAP = TrapConfig.from_lab_units(fz_hz=1e5, ft_hz=2e7, n_ions=10)
W0 = 1.0e3
EQUAL = (1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0))
DRIVE = DriveField.circular(0.01 * W0, 1e-3 * W0)
SAMPLED = DriveField.sampled([0.0, 1.0, 3.0], [1.0, 0.0, 2.0], [0.0, 1.0, 1.0])

# entry point -> (the field a bad count is refused under, a call whose
# result's repr shows every bit and every type computed from the count)
COUNTS = {
    "TrapConfig": ("n_ions", lambda n: TrapConfig(1.0, 2.0, n)),
    "radiative_time": ("n_ions", lambda n: radiative_time(BA, n)),
    "chain_length": ("n_ions", lambda n: chain_length(n, DU)),
    "min_spacing": ("n_ions", lambda n: min_spacing(n, DU)),
    "solve_equilibrium": ("n_ions", lambda n: solve_equilibrium(n).positions.tolist()),
    "closed_form_rate": ("n_ions", lambda n: closed_form_rate(n, BA, TRAP)),
    "default_n_grid": ("n_min", lambda n: default_n_grid(n, 100).tolist()),
    "scan": ("n_values", lambda n: [column.tolist() for column
                                    in vars(scan([n, 100], BA, TRAP)).values()]),
}
# chain_length and min_spacing refuse these in tests/test_continuum.py
REFUSED_COUNTS = [(name, bad) for name in COUNTS
                  if name not in ("chain_length", "min_spacing")
                  for bad in (True, 2.5, "5")]

# entry point -> (field, a call passing the value as that positive real)
REALS = {
    "IonSpecies": ("mass", lambda x: IonSpecies("X", x, BA.charge, BA.omega0,
                                                BA.tau_s, Multipole.E2)),
    "TrapConfig": ("omega_z", lambda x: TrapConfig(x, 2.0, 5)),
    "integrate_tls(omega0)": ("omega0", lambda x: integrate_tls(x, DRIVE, EQUAL, 0.01)),
    "integrate_tls(dt)": ("dt", lambda x: integrate_tls(W0, DRIVE, EQUAL, 0.01, dt=x)),
    "scan(s0_target)": ("s0_target", lambda x: scan([10, 100], BA, TRAP, s0_target=x)),
}
# a bool, a string, and an int beyond the float range, by test id
BAD_REALS = {"True": True, "'1'": "1", "10**400": 10**400}
REFUSED_REALS = [(name, label) for name in REALS for label in BAD_REALS]


@pytest.mark.parametrize("name", COUNTS)
def test_numpy_integer_count_gives_the_int_result(name):
    call = COUNTS[name][1]
    assert repr(call(np.int64(10))) == repr(call(10))


@pytest.mark.parametrize("name, bad", REFUSED_COUNTS,
                         ids=[f"{name}-{bad!r}" for name, bad in REFUSED_COUNTS])
def test_count_that_is_not_an_integer_is_refused(name, bad):
    field, call = COUNTS[name]
    with pytest.raises(ValidationError) as err:
        call(bad)
    assert err.value.field == field


def test_scan_refuses_fractional_counts_rather_than_truncating():
    with pytest.raises(ValidationError) as err:
        scan([10.9, 100.7, 1000.2], BA, TRAP)
    assert err.value.field == "n_values"


@pytest.mark.parametrize("name, label", REFUSED_REALS,
                         ids=[f"{name}-{label}" for name, label in REFUSED_REALS])
def test_positive_real_that_is_not_a_finite_real_is_refused(name, label):
    field, call = REALS[name]
    with pytest.raises(ValidationError) as err:
        call(BAD_REALS[label])
    assert err.value.field == field


# entry point -> (field, a call passing the value as that non-negative real)
NONNEGATIVE = {
    "integrate_tls(t_end)": ("t_end", lambda x: integrate_tls(W0, DRIVE, EQUAL, x)),
    "DriveField.circular": ("amplitude", lambda x: DriveField.circular(x, 1.0)),
    "DriveField(amplitude)": ("amplitude", lambda x: DriveField("circular", amplitude=x)),
    "adiabatic_phase": ("t", lambda x: adiabatic_phase(DRIVE, W0, x)),
}
BAD_NONNEGATIVE = {**BAD_REALS, "-1e-300": -1e-300, "nan": math.nan, "inf": math.inf}


@pytest.mark.parametrize("label", BAD_NONNEGATIVE)
@pytest.mark.parametrize("name", NONNEGATIVE)
def test_nonnegative_real_that_is_not_a_finite_real_is_refused(name, label):
    field, call = NONNEGATIVE[name]
    with pytest.raises(ValidationError) as err:
        call(BAD_NONNEGATIVE[label])
    assert err.value.field == field


@pytest.mark.parametrize("name", NONNEGATIVE)
def test_nonnegative_real_takes_zero_and_numpy_reals(name):
    call = NONNEGATIVE[name][1]
    call(0)
    # str, not repr: numpy 2 writes a float64 result as np.float64(...)
    assert str(call(np.float64(1e-3))) == str(call(1e-3))


# entry point -> (field, a call passing the value as that finite real)
FINITE = {
    "DriveField.circular(rotation)": ("rotation", lambda x: DriveField.circular(0.1, x)),
    "DriveField.constant(fx)": ("fx", lambda x: DriveField.constant(x, 0.0)),
    "DriveField.constant(fy)": ("fy", lambda x: DriveField.constant(0.0, x)),
    "DriveField(rotation)": ("rotation",
                             lambda x: DriveField("circular", amplitude=1.0, rotation=x)),
    "DriveField(fx)": ("fx", lambda x: DriveField("constant", fx=x)),
    "DriveField(fy)": ("fy", lambda x: DriveField("constant", fy=x)),
    "DriveField.components": ("t", DRIVE.components),
    "DriveField.magnitude": ("t", SAMPLED.magnitude),
}
BAD_FINITE = {**BAD_REALS, "nan": math.nan, "inf": math.inf, "-inf": -math.inf}


@pytest.mark.parametrize("label", BAD_FINITE)
@pytest.mark.parametrize("name", FINITE)
def test_finite_real_that_is_not_a_finite_real_is_refused(name, label):
    field, call = FINITE[name]
    with pytest.raises(ValidationError) as err:
        call(BAD_FINITE[label])
    assert err.value.field == field


@pytest.mark.parametrize("name", FINITE)
def test_finite_real_takes_negatives_zero_and_numpy_reals(name):
    call = FINITE[name][1]
    call(0)
    call(-1e300)
    assert repr(call(np.float64(-1e-3))) == repr(call(-1e-3))


# DriveField.sampled's tables: label -> (the field refused, times, fx, fy)
BAD_SAMPLES = {
    "string times": ("times", ["a", "b"], [0.0, 0.0], [0.0, 0.0]),
    "string array times": ("times", np.array(["0", "1"]), [0.0, 0.0], [0.0, 0.0]),
    "10**400 times": ("times", [0, 10**400], [0.0, 0.0], [0.0, 0.0]),
    "scalar times": ("times", 5.0, [0.0], [0.0]),
    "bool fx": ("fx", [0.0, 1.0], [False, True], [0.0, 0.0]),
    "10**400 fx": ("fx", [0.0, 1.0], [0, 10**400], [0.0, 0.0]),
    "complex fx": ("fx", [0.0, 1.0], [0.0, 1j], [0.0, 0.0]),
    "bool array fy": ("fy", [0.0, 1.0], [0.0, 0.0], np.array([False, True])),
    "nan array fy": ("fy", [0.0, 1.0], [0.0, 0.0], np.array([0.0, math.nan])),
    "short fy": ("fy", [0.0, 1.0], [0.0, 0.0], [0.0]),
}


@pytest.mark.parametrize("label", BAD_SAMPLES)
def test_sampled_drive_refuses_tables_that_are_not_finite_reals(label):
    field, times, fx, fy = BAD_SAMPLES[label]
    with pytest.raises(ValidationError) as err:
        DriveField.sampled(times, fx, fy)
    assert err.value.field == field


def test_sampled_drive_takes_numpy_and_python_numbers_alike():
    want = DriveField.sampled([0.0, 2.0], [0.0, 1.0], [1.0, 2.0])
    got = DriveField.sampled(np.array([0, 2]), (0, np.float64(1.0)), [1, 2.0])
    for name in ("times", "fx_samples", "fy_samples"):
        assert getattr(got, name).dtype == float
        assert np.array_equal(getattr(got, name), getattr(want, name))


# numpy float scalars of every width: a float16 or float32 compared with
# the float maximum would cast that maximum to its own type and overflow
NUMPY_FLOATS = {"float16": np.float16(2.0), "float32": np.float32(2.0),
                "float64": np.float64(2.0)}


@pytest.mark.parametrize("rule", [check_positive, check_nonnegative, check_finite])
@pytest.mark.parametrize("label", NUMPY_FLOATS)
def test_real_rules_take_numpy_floats_of_every_width_without_a_warning(label, rule):
    value = NUMPY_FLOATS[label]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert rule("x", value) is value
        with pytest.raises(ValidationError):
            check_integer("n", value, 1)


@pytest.mark.parametrize("rule", [check_positive, check_nonnegative, check_finite])
def test_real_rules_refuse_an_int_beyond_the_float_range(rule):
    with pytest.raises(ValidationError) as err:
        rule("x", 10**400)
    assert err.value.field == "x"


def test_count_rule_bounds_an_int_beyond_the_float_range_as_an_int():
    assert check_integer("n", 10**400, 1) == 10**400
    with pytest.raises(ValidationError):
        check_integer("n", 10**400, 1, 10)


# check function -> a call that refuses the value it is given
SHOWN = {
    "check_integer": lambda v: check_integer("x", v, 1, 10),
    "check_positive": lambda v: check_positive("x", v),
    "check_nonnegative": lambda v: check_nonnegative("x", v),
    "check_finite": lambda v: check_finite("x", v),
    "check_reals": lambda v: check_reals("x", v),
    "check_reals(element)": lambda v: check_reals("x", [0.0, v]),
    "check_instance": lambda v: check_instance("x", v, str),
}


@pytest.mark.parametrize("name", SHOWN)
def test_refusal_shows_an_int_beyond_the_float_range_by_its_digit_count(name):
    """Its repr would fill the line with digits, and from 4300 digits on
    Python refuses to write it."""
    for value, shown in ((10**5000, "an integer of 5001 digits"),
                         (-10**5000, "a negative integer of 5001 digits"),
                         (10**400, "an integer of 401 digits"),
                         (10**400 - 1, "an integer of 400 digits")):
        with pytest.raises(ValidationError) as err:
            SHOWN[name](value)
        assert err.value.field == "x"
        assert str(err.value).endswith(f"got {shown}")


@pytest.mark.parametrize("name", SHOWN)
def test_refusal_cuts_a_long_value_to_its_head_and_length(name):
    """A value whose repr is longer than SHOWN_MAX is shown by the head of
    its repr and its length, so no refusal message grows with its input."""
    for value in (b"x" * (SHOWN_MAX - 2), b"x" * 10**5):
        text = repr(value)
        with pytest.raises(ValidationError) as err:
            SHOWN[name](value)
        assert str(err.value).endswith(
            f"got {text[:SHOWN_MAX - 20]}... ({len(text)} characters)")
        assert len(str(err.value)) < 2 * SHOWN_MAX


@pytest.mark.parametrize("name", SHOWN)
def test_refusal_shows_a_short_value_whole(name):
    """Up to SHOWN_MAX characters the refused value's repr is shown as it
    is, so every message of a short value reads as it always has."""
    for value in (b"x" * (SHOWN_MAX - 3), b"1e-3", None):
        with pytest.raises(ValidationError) as err:
            SHOWN[name](value)
        assert str(err.value).endswith(f"got {value!r}")


def test_an_integer_within_the_float_range_is_cut_like_any_long_repr():
    """An integer within the float range is shown by its repr, cut like any
    other once it is longer than SHOWN_MAX; only one beyond the float range
    is shown by its digit count."""
    for value, shown in ((10**(SHOWN_MAX - 1), str(10**(SHOWN_MAX - 1))),
                         (-10**(SHOWN_MAX - 2), str(-10**(SHOWN_MAX - 2))),
                         (10**SHOWN_MAX, f"{str(10**SHOWN_MAX)[:SHOWN_MAX - 20]}... "
                                         f"({SHOWN_MAX + 1} characters)"),
                         (-10**300, f"{str(-10**300)[:SHOWN_MAX - 20]}... (302 characters)")):
        with pytest.raises(ValidationError) as err:
            check_integer("x", value, 1, 10)
        assert str(err.value).endswith(f"got {shown}")


# numpy integers are integers too: each refusal shows the value's repr and
# raises the rule's own error, never a bare ValueError from the display.
NUMPY_INT_REFUSALS = {
    "check_integer(0)": (lambda: check_integer("x", np.int64(0), 1, 10), ValidationError,
                         "x: need an integer in [1, 10], got np.int64(0)"),
    "check_integer(-5)": (lambda: check_integer("x", np.int32(-5), 1, 10), ValidationError,
                          "x: need an integer in [1, 10], got np.int32(-5)"),
    "chain_length(0)": (lambda: chain_length(np.int64(0), DU), ValidationError,
                        "n_ions: need an integer >= 2, got np.int64(0)"),
    "chain_length(1)": (lambda: chain_length(np.int64(1), DU), ValidationError,
                        "n_ions: need an integer >= 2, got np.int64(1)"),
    "TrapConfig(0)": (lambda: TrapConfig(1.0, 2.0, np.int64(0)), ValidationError,
                      "n_ions: need an integer >= 1, got np.int64(0)"),
    "zeta(0)": (lambda: zeta(np.int64(0)), DomainError,
                "lattice sums need integer n >= 2, got np.int64(0)"),
    "zeta(-5)": (lambda: zeta(np.int32(-5)), DomainError,
                 "lattice sums need integer n >= 2, got np.int32(-5)"),
}


@pytest.mark.parametrize("name", NUMPY_INT_REFUSALS)
def test_a_numpy_integer_is_refused_with_its_repr(name):
    call, error, message = NUMPY_INT_REFUSALS[name]
    with pytest.raises(error) as err:
        call()
    assert type(err.value) is error
    assert str(err.value) == message


def test_a_long_list_of_the_wrong_type_is_refused_in_one_short_line():
    """The whole repr of this list would make a message of about 690,000
    characters."""
    with pytest.raises(ValidationError) as err:
        local_spacings(list(range(10**5)))
    assert err.value.field == "chain"
    assert str(err.value) == ("chain: expected IonChain, got "
                              f"{repr(list(range(10**5)))[:SHOWN_MAX - 20]}... "
                              "(688890 characters)")


# The object rule, errors.check_instance: an object argument of another
# type is refused, neither replaced by the Dubin formulas (a model) nor
# failed on with AttributeError.  The test keeps its first rows' name.
# entry point -> (field, a call passing the value as that argument)
CHAIN = solve_equilibrium(10)
DISCRETE, CLOSED = DecoherenceMode.DISCRETE_SUM, DecoherenceMode.CONTINUUM_CLOSED_FORM
OBJECTS = {
    "chain_length": ("model", lambda m: chain_length(100, m)),
    "min_spacing": ("model", lambda m: min_spacing(100, m)),
    "continuum_sites": ("model", lambda m: continuum_sites(100, m)),
    "chain_total_asymptotic": ("model", lambda m: chain_total_asymptotic(100, 16, m)),
    "integrate_tls": ("drive", lambda d: integrate_tls(W0, d, EQUAL, 0.01)),
    "adiabatic_phase": ("drive", lambda d: adiabatic_phase(d, W0, 1.0)),
    "derive_scales(species)": ("species", lambda v: derive_scales(v, TRAP)),
    "derive_scales(trap)": ("trap", lambda v: derive_scales(BA, v)),
    "radiative_time": ("species", lambda v: radiative_time(v, 10)),
    "IonSpecies": ("multipole", lambda v: IonSpecies("X", BA.mass, BA.charge, BA.omega0,
                                                     BA.tau_s, v)),
    "IonSpecies.from_lab_units": ("multipole", lambda v: IonSpecies.from_lab_units(
        "X", 137.33, 1.0, 1.7e14, 50.0, v)),
    "per_ion_rates(chain)": ("chain", lambda v: per_ion_rates(v, BA, TRAP)),
    "per_ion_rates(species)": ("species", lambda v: per_ion_rates(
        IonChain([0.0]), v, TrapConfig(1.0, 2.0, 1))),
    "per_ion_rates(trap)": ("trap", lambda v: per_ion_rates(CHAIN, BA, v)),
    "closed_form_rate(species)": ("species", lambda v: closed_form_rate(100, v, TRAP)),
    "closed_form_rate(trap)": ("trap", lambda v: closed_form_rate(100, BA, v)),
    "build_report(species)": ("species", lambda v: build_report(v, TRAP, CLOSED)),
    "build_report(trap)": ("trap", lambda v: build_report(BA, v, CLOSED)),
    "build_report(mode)": ("mode", lambda v: build_report(BA, TRAP, v)),
    "build_report(chain)": ("chain", lambda v: build_report(BA, TRAP, DISCRETE, chain=v)),
    "local_spacings": ("chain", local_spacings),
    "pair_sum_exact_all": ("chain", lambda v: pair_sum_exact_all(v, 8)),
    "chain_total_exact": ("sites", lambda v: chain_total_exact(v, 8)),
    "scan(species)": ("species", lambda v: scan([10, 100], v, TRAP)),
    "scan(trap)": ("trap", lambda v: scan([10, 100], BA, v)),
    "fit_exponent": ("series", fit_exponent),
    "overlap_fidelity": ("trajectory", overlap_fidelity),
}
BAD_OBJECTS = {"None": None, "'nearest_neighbor'": "nearest_neighbor",
               "'dubin_fluid'": "dubin_fluid", "'circular'": "circular"}


@pytest.mark.parametrize("label", BAD_OBJECTS)
@pytest.mark.parametrize("name", OBJECTS)
def test_model_or_drive_of_another_type_is_refused(name, label):
    field, call = OBJECTS[name]
    with pytest.raises(ValidationError) as err:
        call(BAD_OBJECTS[label])
    assert err.value.field == field


def test_object_rule_returns_the_object_itself():
    assert check_instance("model", DU, ContinuumModel) is DU
    assert check_instance("drive", DRIVE, DriveField) is DRIVE


@pytest.mark.parametrize("label", NUMPY_FLOATS)
def test_circular_drive_takes_numpy_floats_of_every_width(label):
    value = NUMPY_FLOATS[label]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        drive = DriveField.circular(value, value)
    assert repr(drive) == repr(DriveField.circular(2.0, 2.0))


# an array every array entry point takes: increasing and non-negative
GOOD = [0.0, 2.0]
# array entry point -> (field, a call passing the value as that array,
# returning what it computed from it)
ARRAYS = {
    "IonChain": ("positions", lambda v: IonChain(v).positions),
    "DriveField.sampled(times)": ("times", lambda v: DriveField.sampled(v, GOOD, GOOD).times),
    "DriveField.sampled(fx)": ("fx", lambda v: DriveField.sampled(GOOD, v, GOOD).fx_samples),
    "DriveField.sampled(fy)": ("fy", lambda v: DriveField.sampled(GOOD, GOOD, v).fy_samples),
    "DriveField(times)": ("times", lambda v: DriveField(
        "sampled", times=v, fx_samples=GOOD, fy_samples=GOOD).times),
    "DriveField(fx_samples)": ("fx", lambda v: DriveField(
        "sampled", times=GOOD, fx_samples=v, fy_samples=GOOD).fx_samples),
    "aggregate_tau_vib": ("per_ion", aggregate_tau_vib),
    "fidelity_curve(per_ion)": ("per_ion", lambda v: fidelity_curve(v, GOOD).product),
    "fidelity_curve(times)": ("times", lambda v: fidelity_curve(GOOD, v).product),
}
BAD_ARRAYS = {
    "bool": [0.0, True],
    "strings": ["0", "2"],
    "string": "02",
    "bytes": bytearray(b"02"),
    "complex": [0.0, 2.0 + 1j],
    "ragged": [[0.0], [1.0, 2.0]],
    "2-D": np.array([[0.0, 1.0], [2.0, 3.0]]),
    "scalar": 2.0,
    "10**400": [0, 10**400],
    "nan": [0.0, math.nan],
}


def _bits(result):
    """Every value bit of a result, longdouble included (its repr is exact;
    its padding bytes are not values)."""
    return [repr(x) for x in np.asarray(result).ravel().tolist()]


@pytest.mark.parametrize("label", BAD_ARRAYS)
@pytest.mark.parametrize("name", ARRAYS)
def test_array_that_is_not_finite_reals_is_refused(name, label):
    field, call = ARRAYS[name]
    with pytest.raises(ValidationError) as err:
        call(BAD_ARRAYS[label])
    assert err.value.field == field


@pytest.mark.parametrize("name", ARRAYS)
def test_array_takes_numpy_python_and_one_shot_numbers_alike(name):
    call = ARRAYS[name][1]
    want = _bits(call(GOOD))
    for given in ([0, 2], (np.float64(0.0), np.int64(2)), np.array(GOOD),
                  np.array([0, 2], dtype=np.uint8), (x for x in GOOD)):
        assert _bits(call(given)) == want


@pytest.mark.parametrize("initial", [(True, False), ("1", "0"), [[1], [0, 1]], "10",
                                     np.array([True, False]), 1.0],
                         ids=["bool", "strings", "ragged", "string", "bool array", "scalar"])
def test_state_that_is_not_a_pair_of_numbers_is_refused(initial):
    with pytest.raises(ValidationError) as err:
        integrate_tls(W0, DRIVE, initial, 0.01)
    assert err.value.field == "initial"


def test_state_takes_complex_and_numpy_numbers():
    want = integrate_tls(W0, DRIVE, (1j, 0), 0.01)
    got = integrate_tls(W0, DRIVE, np.array([1j, 0.0]), 0.01)
    assert np.array_equal(got.u_plus, want.u_plus)
    assert np.array_equal(got.u_minus, want.u_minus)


def test_drive_of_unknown_kind_is_refused():
    with pytest.raises(ValidationError) as err:
        DriveField("bogus")
    assert err.value.field == "kind"


@pytest.mark.parametrize("kind, given, field", [
    ("sampled", {}, "times"),
    ("sampled", {"times": GOOD, "fx_samples": GOOD}, "fy"),
    ("circular", {"amplitude": 1.0, "fx": 1.0}, "fx"),
    ("constant", {"fx": 1.0, "rotation": 0.0}, "rotation"),
    ("circular", {"amplitude": 1.0, "times": GOOD}, "times"),
], ids=["no tables", "no fy table", "circular fx", "constant rotation", "circular times"])
def test_drive_refuses_missing_fields_and_fields_of_another_kind(kind, given, field):
    with pytest.raises(ValidationError) as err:
        DriveField(kind, **given)
    assert err.value.field == field


def test_drive_constructor_and_classmethods_build_the_same_drive():
    assert repr(DriveField("circular", amplitude=1, rotation=np.float32(2.0))) == \
        repr(DriveField.circular(1.0, 2.0))
    assert repr(DriveField("constant", fx=1, fy=-2)) == repr(DriveField.constant(1.0, -2.0))
    given = DriveField("sampled", times=[0, 1, 3], fx_samples=[1, 0, 2], fy_samples=[0, 1, 1])
    for name in ("times", "fx_samples", "fy_samples"):
        assert np.array_equal(getattr(given, name), getattr(SAMPLED, name))


@pytest.mark.parametrize("t", [None, np.array([True]), np.array(["1"]),
                               np.array([0.0, math.inf]), np.array([[math.nan]]), [0.0, 1.0]],
                         ids=["None", "bool array", "string array", "inf array", "nan array",
                              "list"])
def test_drive_time_that_is_not_a_finite_real_or_real_array_is_refused(t):
    for method in (DRIVE.components, DRIVE.magnitude, SAMPLED.components):
        with pytest.raises(ValidationError) as err:
            method(t)
        assert err.value.field == "t"


def test_drive_time_array_of_any_shape_gives_the_float_array_result():
    t = np.arange(6).reshape(2, 3)
    for drive in (DRIVE, SAMPLED, DriveField.constant(1.0, 2.0)):
        got, want = drive.components(t), drive.components(t.astype(float))
        for g, w in zip(got, want):
            assert g.shape == t.shape and np.array_equal(g, w)
        assert drive.magnitude(t[0, 1]) == drive.magnitude(1.0)


# The float-range rule, errors.in_float_range: label -> (a call whose
# computed value leaves the float range, a fragment of its refusal).  The
# first nine rows are a refusal of each function that wrote the rule out
# by hand; the rest are calls that ended in an OverflowError, a
# ZeroDivisionError, an inf, a NaN or a RuntimeWarning.
SOFT = TrapConfig.from_lab_units(fz_hz=1e-60, ft_hz=2e7, n_ions=10)
FLOAT_RANGE = {
    "derive_scales": (lambda: derive_scales(IonSpecies.from_lab_units(
        "X", 137.33, 1e300, 1.7e14, 50.0, Multipole.E2), TRAP), "derived scale"),
    "vibrational_prefactor": (lambda: _prefactor(IonSpecies.from_lab_units(
        "X", 1e-200, 1.0, 1.7e14, 50.0, Multipole.E2, qsq_constant=1e200), TRAP),
        "vibrational prefactor"),
    "per_ion_rates": (lambda: per_ion_rates(solve_equilibrium(10), BA, SOFT), "per-ion rate"),
    "closed_form_rate": (lambda: closed_form_rate(10, BA, SOFT), "closed-form rate"),
    "build_report": (lambda: build_report(
        BA, TrapConfig.from_lab_units(1e-50, 2e7, 10), DecoherenceMode.DISCRETE_SUM,
        chain=solve_equilibrium(10)), "vibrational time"),
    "pair_sum_exact_all": (lambda: pair_sum_exact_all(IonChain([-0.5, 0.0, 0.5]), 5000),
                           "S_5000"),
    "pair_sum_approx": (lambda: pair_sum_approx(0.5, 5000), "s\\^5000"),
    "adiabatic_phase": (lambda: adiabatic_phase(DriveField.circular(1e200, 0.0), 1e202, 1.0),
                        "adiabatic phase"),
    "_solve_omega_z": (lambda: scan([10, 100], BA, TRAP, s0_target=1e300), "omega_z"),
    "chain_length(10**400)": (lambda: chain_length(10**400, DU), "half-length"),
    "min_spacing(10**400)": (lambda: min_spacing(10**400, DU), "half-length"),
    "radiative_time(10**400)": (lambda: radiative_time(BA, 10**400), "tau_rad"),
    "closed_form_rate(10**400)": (lambda: closed_form_rate(10**400, BA, TRAP), "half-length"),
    "chain_total_asymptotic(10**30)": (lambda: chain_total_asymptotic(10**30, 16, DU), "T_16"),
    "chain_total_asymptotic(n=400)": (lambda: chain_total_asymptotic(10**5, 400, DU), "T_400"),
    "pair_sum_approx(1e-160)": (lambda: pair_sum_approx(1e-160, 2), "s\\^2"),
    "chain_total_exact(n=400)": (lambda: chain_total_exact(continuum_sites(100, DU), 400),
                                 "T_400"),
    "fidelity_curve(1e300 x 1e10)": (lambda: fidelity_curve([1e300], [1e10]), "float range"),
}


@pytest.mark.parametrize("label", FLOAT_RANGE)
def test_value_beyond_the_float_range_is_refused_without_a_warning(label):
    call, fragment = FLOAT_RANGE[label]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=fragment):
            call()


@pytest.mark.parametrize("result, allow_zero, refused", [
    (1.0, False, False), (0.0, False, True), (0.0, True, False), (-0.0, True, False),
    (-1e-300, True, True), (math.inf, True, True), (math.nan, True, True),
    ((1.0, np.array([1.0, math.inf])), False, True), ((2.0, np.array([0.0])), True, False),
    (np.array([[1.0, math.nan]]), True, True), (np.array([]), False, False),
    (np.array([1, 2]), False, False), (np.float32(1e-30), False, False),
])
def test_float_range_rule_checks_every_number_of_the_result(result, allow_zero, refused):
    if refused:
        with pytest.raises(DomainError, match="^out$"):
            in_float_range("out", lambda: result, allow_zero)
    else:
        assert in_float_range("out", lambda: result, allow_zero) is result


@pytest.mark.parametrize("error", [OverflowError, ZeroDivisionError])
def test_float_range_rule_refuses_an_overflow_or_a_division_by_zero(error):
    def compute():
        raise error
    with pytest.raises(DomainError, match="^out$"):
        in_float_range("out", compute)


def test_float_range_rule_turns_numpy_warnings_off_only_inside():
    before = np.geterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError):
            in_float_range("out", lambda: np.array([1e300]) * 1e300)
        assert np.geterr() == before
        with pytest.raises(RuntimeWarning):
            np.array([1e300]) * 1e300
