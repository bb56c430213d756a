import math
from dataclasses import replace

import pytest

from iondec.errors import ValidationError
from iondec.physmodel import (CONSTANTS, IonSpecies, Multipole, TrapConfig,
                              derive_scales, qsq_convention_stamp,
                              radiative_time)

# Reference values for the Ba+ parameter set (137.33 u, q = e,
# f0 = 1.7e14 Hz, tau_s = 50 s, fz = 100 kHz), frozen from a separate
# constants-plugging script.
BA_D0 = 1.36845119481e-05
BA_K0 = 3562936.53732
BA_Q2COUL = 2.30707755234e-28
BA_QSQ_E2 = 3.67337886081e-69
BA_DSQ_E1 = 4.66317695473e-56


@pytest.fixture()
def trap():
    return TrapConfig.from_lab_units(fz_hz=1e5, ft_hz=2e7, n_ions=3)


def test_lab_unit_conversions(ba):
    assert ba.mass == pytest.approx(137.33 * CONSTANTS.atomic_mass, rel=1e-12)
    assert ba.charge == pytest.approx(CONSTANTS.elementary_charge, rel=1e-12)
    assert ba.omega0 == pytest.approx(2.0 * math.pi * 1.7e14, rel=1e-12)
    assert ba.tau_s == 50.0


def test_trap_lab_units(trap):
    assert trap.omega_z == pytest.approx(2.0 * math.pi * 1e5, rel=1e-12)
    assert trap.omega_t == pytest.approx(2.0 * math.pi * 2e7, rel=1e-12)
    assert trap.n_ions == 3


def test_constants_spot_values():
    assert CONSTANTS.hbar == 1.054571817e-34
    assert CONSTANTS.elementary_charge == 1.602176634e-19
    assert CONSTANTS.c_light == 299792458.0


@pytest.mark.parametrize("kwargs,field", [
    (dict(mass_amu=-1.0), "mass_amu"),
    (dict(mass_amu=0.0), "mass_amu"),
    (dict(charge_e=-2.0), "charge_e"),
    (dict(f0_hz=0.0), "f0_hz"),
    (dict(tau_s_s=-5.0), "tau_s_s"),
    (dict(qsq_constant=0.0), "qsq_constant"),
    (dict(qsq_constant=math.inf), "qsq_constant"),
])
def test_species_rejects_nonpositive(kwargs, field):
    base = dict(name="X", mass_amu=1.0, charge_e=1.0, f0_hz=1e14,
                tau_s_s=1.0, multipole=Multipole.E2)
    base.update(kwargs)
    with pytest.raises(ValidationError) as err:
        IonSpecies.from_lab_units(**base)
    assert err.value.field == field


def test_species_rejects_a_multipole_given_by_name(ba):
    with pytest.raises(ValidationError) as err:
        IonSpecies(name="X", mass=ba.mass, charge=ba.charge, omega0=ba.omega0,
                   tau_s=ba.tau_s, multipole="E2")
    assert err.value.field == "multipole"


def test_trap_requires_transverse_stiffer():
    with pytest.raises(ValidationError):
        TrapConfig.from_lab_units(fz_hz=1e6, ft_hz=1e5, n_ions=2)
    with pytest.raises(ValidationError):
        TrapConfig.from_lab_units(fz_hz=1e5, ft_hz=2e7, n_ions=0)


def test_derived_scales_ba(ba, trap):
    scales = derive_scales(ba, trap)
    assert scales.d0 == pytest.approx(BA_D0, rel=1e-11)
    assert scales.k0 == pytest.approx(BA_K0, rel=1e-11)
    assert scales.q2_coul == pytest.approx(BA_Q2COUL, rel=1e-11)
    assert scales.q_sq == pytest.approx(BA_QSQ_E2, rel=1e-11)


def test_d0_matches_trap_length_scale(ba, trap):
    """d0^3 * m * omega_z^2 reproduces q^2/(4 pi eps0) by construction."""
    scales = derive_scales(ba, trap)
    assert scales.d0**3 * ba.mass * trap.omega_z**2 == pytest.approx(
        scales.q2_coul, rel=1e-14)


def test_k0_is_omega_over_c(ba, trap):
    assert derive_scales(ba, trap).k0 == pytest.approx(
        ba.omega0 / CONSTANTS.c_light, rel=1e-15)


def test_d0_cube_root_scaling(ba):
    """Multiplying omega_z^2 by 8 halves d0."""
    t1 = TrapConfig(omega_z=1e5, omega_t=1e9, n_ions=2)
    t8 = TrapConfig(omega_z=1e5 * math.sqrt(8.0), omega_t=1e9, n_ions=2)
    d1 = derive_scales(ba, t1).d0
    d8 = derive_scales(ba, t8).d0
    assert d8 == pytest.approx(d1 / 2.0, rel=1e-12)


def test_scale_consistency(ba, trap):
    """(m, omega_z) -> (lam*m, omega_z/sqrt(lam)) leaves d0 unchanged."""
    lam = 3.7
    heavy = IonSpecies(name="X", mass=lam * ba.mass, charge=ba.charge,
                       omega0=ba.omega0, tau_s=ba.tau_s, multipole=ba.multipole)
    slow = TrapConfig(omega_z=trap.omega_z / math.sqrt(lam),
                      omega_t=trap.omega_t, n_ions=trap.n_ions)
    assert derive_scales(heavy, slow).d0 == pytest.approx(
        derive_scales(ba, trap).d0, rel=1e-12)


def test_qsq_monotone_decreasing(ba, trap):
    longer = IonSpecies(name="X", mass=ba.mass, charge=ba.charge,
                        omega0=ba.omega0, tau_s=2 * ba.tau_s, multipole=ba.multipole)
    bluer = IonSpecies(name="X", mass=ba.mass, charge=ba.charge,
                       omega0=2 * ba.omega0, tau_s=ba.tau_s, multipole=ba.multipole)
    base = derive_scales(ba, trap).q_sq
    assert derive_scales(longer, trap).q_sq < base
    assert derive_scales(bluer, trap).q_sq < base


def test_e1_convention(ba, ba_e1, trap):
    scales = derive_scales(ba_e1, trap)
    assert scales.q_sq == pytest.approx(BA_DSQ_E1, rel=1e-11)
    # E1 uses k0^3, and the value is hbar/(tau_s * k0^3) verbatim
    assert scales.q_sq == pytest.approx(
        CONSTANTS.hbar / (ba_e1.tau_s * scales.k0**3), rel=1e-14)
    assert "k0^3" in qsq_convention_stamp(ba_e1)
    assert "k0^5" in qsq_convention_stamp(ba)


def test_qsq_constant_multiplier(ba, trap):
    scaled = replace(ba, qsq_constant=7.5)
    assert derive_scales(scaled, trap).q_sq == pytest.approx(
        7.5 * BA_QSQ_E2, rel=1e-11)
    stamp = qsq_convention_stamp(scaled)
    assert "7.5" in stamp and "k0^5" in stamp


def test_pair_exponent():
    assert Multipole.E1.pair_exponent == 3
    assert Multipole.E2.pair_exponent == 4


def test_radiative_time(ba):
    assert radiative_time(ba, 1) == pytest.approx(2 * ba.tau_s)
    assert radiative_time(ba, 1000) == pytest.approx(0.1)
    assert radiative_time(ba, 500) == pytest.approx(2 * radiative_time(ba, 1000))
    with pytest.raises(ValidationError):
        radiative_time(ba, 0)


def test_outputs_finite_positive(ba, ba_e1, trap):
    for species in (ba, ba_e1):
        scales = derive_scales(species, trap)
        for value in (scales.d0, scales.k0, scales.q2_coul, scales.q_sq):
            assert math.isfinite(value) and value > 0
