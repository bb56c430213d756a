"""The input contract of every entry point that takes a count or a positive
real: ion counts are integers (Python or numpy, never a bool, float or
string), and a numpy integer gives exactly the Python int's result;
positive reals are real numbers, never a bool or a string, and finite as
a float.  Each refusal is a ValidationError naming the parameter.

Rows that existing tests already cover (chain_length's and min_spacing's
bad counts, solve_equilibrium's string tolerance) are not repeated here.
"""
import math

import numpy as np
import pytest

from iondec.adiabatic import DriveField, integrate_tls
from iondec.chain import solve_equilibrium
from iondec.continuum import ContinuumModel, chain_length, min_spacing
from iondec.decoherence import closed_form_rate
from iondec.errors import ValidationError
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
