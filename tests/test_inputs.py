"""The input contract of every entry point that takes a count, a positive
real, a non-negative real or a finite real: ion counts are integers (Python or numpy,
never a bool, float or string), and a numpy integer gives exactly the
Python int's result; positive, non-negative and plain finite reals are
real numbers, never a bool or a string, and finite as a float; the sample
tables of a sampled drive hold finite reals by the same rule.  Each refusal
is a ValidationError naming the parameter.

Rows that existing tests already cover (chain_length's and min_spacing's
bad counts, solve_equilibrium's string tolerance) are not repeated here.
"""
import math
import warnings

import numpy as np
import pytest

from iondec.adiabatic import DriveField, adiabatic_phase, integrate_tls
from iondec.chain import solve_equilibrium
from iondec.continuum import ContinuumModel, chain_length, min_spacing
from iondec.decoherence import closed_form_rate
from iondec.errors import (ValidationError, check_finite, check_integer,
                           check_nonnegative, check_positive)
from iondec.physmodel import IonSpecies, Multipole, TrapConfig, radiative_time
from iondec.scaling import default_n_grid, scan

DU = ContinuumModel.DUBIN_FLUID
BA = IonSpecies.from_lab_units("Ba+", mass_amu=137.33, charge_e=1.0, f0_hz=1.7e14,
                               tau_s_s=50.0, multipole=Multipole.E2)
TRAP = TrapConfig.from_lab_units(fz_hz=1e5, ft_hz=2e7, n_ions=10)
W0 = 1.0e3
EQUAL = (1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0))
DRIVE = DriveField.circular(0.01 * W0, 1e-3 * W0)

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
    "solve_equilibrium(tol)": ("tol", lambda x: solve_equilibrium(5, tol=x)),
    "scan(s0_target)": ("s0_target", lambda x: scan([10, 100], BA, TRAP, s0_target=x)),
}
# a bool, a string, and an int beyond the float range, by test id
BAD_REALS = {"True": True, "'1'": "1", "10**400": 10**400}
# tests/test_chain.py refuses a string tolerance
REFUSED_REALS = [(name, label) for name in REALS for label in BAD_REALS
                 if (name, label) != ("solve_equilibrium(tol)", "'1'")]


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


@pytest.mark.parametrize("label", NUMPY_FLOATS)
def test_circular_drive_takes_numpy_floats_of_every_width(label):
    value = NUMPY_FLOATS[label]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        drive = DriveField.circular(value, value)
    assert repr(drive) == repr(DriveField.circular(2.0, 2.0))
