import math
import os
import platform
import subprocess
import sys
import textwrap
import threading
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iondec import _threads, adiabatic
from iondec.adiabatic import (DEFAULT_DTHETA, DriveField, SpinTrajectory,
                              adiabatic_phase, integrate_tls, overlap_fidelity)
from iondec.adiabatic import _build_steps, _ChunkLayout, _coupling, _reduce_steps, _work_size
from iondec.errors import AccuracyError, DomainError, ValidationError

W0 = 1.0
EQUAL = (2**-0.5, 2**-0.5)


def demo_drive(eps=0.01, rot=1e-3):
    return DriveField.circular(eps * W0, rot * W0)


def keep_every(monkeypatch, t_end, stride):
    """Cap adiabatic._MAX_STORED so a default-step window of t_end / W0
    stores every stride-th step, the last chunk taking what is left."""
    n_steps = math.ceil(t_end * W0 / DEFAULT_DTHETA - 1e-9)
    cap = -(-n_steps // stride)
    assert -(-n_steps // cap) == stride
    monkeypatch.setattr(adiabatic, "_MAX_STORED", cap)
    return n_steps


def test_no_drive_keeps_state():
    traj = integrate_tls(W0, DriveField.constant(0.0, 0.0), EQUAL, 50.0)
    assert np.allclose(traj.u_plus, EQUAL[0], atol=1e-15)
    assert np.allclose(traj.u_minus, EQUAL[1], atol=1e-15)
    assert np.allclose(overlap_fidelity(traj), 1.0, atol=1e-15)
    assert traj.norm_drift == 0.0


def test_zero_window_is_a_single_point():
    traj = integrate_tls(W0, demo_drive(), EQUAL, 0.0)
    assert traj.theta.shape == (1,)
    assert overlap_fidelity(traj)[0] == pytest.approx(1.0, abs=1e-15)


def test_demo_overlap_tracks_cos_phi():
    """Phi = eps^2 t/w0 reaches 1 rad at w0*t = 1e4 for eps = 0.01 w0."""
    traj = integrate_tls(W0, demo_drive(), EQUAL, 1e4 / W0)
    ov = overlap_fidelity(traj)
    assert ov[-1] == pytest.approx(math.cos(1.0), abs=0.03)
    assert ov[-1] == pytest.approx(0.5395643240890332, abs=1e-9)  # regression
    assert traj.norms()[-1] == pytest.approx(1.0, abs=1e-9)
    assert traj.norm_drift <= 1e-9


def test_overlap_vanishes_at_quarter_turn():
    t_end = (math.pi / 2) * 1e4 / W0
    traj = integrate_tls(W0, demo_drive(), EQUAL, t_end)
    assert overlap_fidelity(traj)[-1] == pytest.approx(0.0, abs=0.03)
    assert traj.norm_drift <= 1e-9


@pytest.mark.parametrize("eps", [0.01, 0.005])
def test_adiabatic_theorem_bound(eps):
    """The residual fast amplitude is O(f/w0), so the overlap stays
    within 3 eps/w0 of cos Phi at every stored instant."""
    drive = demo_drive(eps=eps)
    traj = integrate_tls(W0, drive, EQUAL, 1e4 / W0)
    phi = adiabatic_phase(drive, W0, 1.0) * (traj.theta / W0)
    dev = np.max(np.abs(overlap_fidelity(traj) - np.cos(phi)))
    assert dev <= 3 * eps
    assert dev > 0


def test_unitarity_long_window_with_suggested_step():
    """Norm conserved to 1e-9 out to w0*t = 1e5 at eps = 0.05 w0.

    The default step cannot hold that budget over so long a window
    (drift grows like theta * dtheta^4); the step below, from the
    empirical drift model drift ~ 1e-3 * theta * (eps/w0)^2 * dtheta^4,
    lands comfortably inside.
    """
    drive = DriveField.circular(0.05 * W0, 1e-2 * W0)
    dt = 0.007952707287670507 / W0
    traj = integrate_tls(W0, drive, EQUAL, 1e5 / W0, dt=dt)
    assert traj.norm_drift <= 1e-9


def test_halving_step_converged():
    coarse = integrate_tls(W0, demo_drive(), EQUAL, 1e4)
    fine = integrate_tls(W0, demo_drive(), EQUAL, 1e4, dt=DEFAULT_DTHETA / 2)
    delta = abs(overlap_fidelity(coarse)[-1] - overlap_fidelity(fine)[-1])
    assert delta <= 1e-6


def test_accuracy_abort_on_tight_budget(monkeypatch):
    t_end = (math.pi / 2) * 1e4 / W0
    monkeypatch.setattr(adiabatic, "DEFAULT_NORM_BUDGET", 1e-10)
    with pytest.raises(AccuracyError):
        integrate_tls(W0, demo_drive(), EQUAL, t_end)
    monkeypatch.setattr(adiabatic, "DEFAULT_NORM_BUDGET", math.nan)
    with pytest.raises(AccuracyError):  # a NaN budget certifies nothing
        integrate_tls(W0, demo_drive(), EQUAL, 1.0)


def test_storage_is_decimated():
    traj = integrate_tls(W0, demo_drive(), EQUAL, 1e4)  # 200k steps
    assert 1000 <= traj.theta.size <= 4100
    assert traj.theta[0] == 0.0
    assert traj.theta[-1] == pytest.approx(1e4, rel=1e-12)
    dense = integrate_tls(W0, demo_drive(), EQUAL, 5.0)  # 100 steps, all kept
    assert np.allclose(np.diff(dense.theta), DEFAULT_DTHETA, rtol=1e-9)


def test_step_and_state_validation():
    with pytest.raises(ValidationError):
        integrate_tls(W0, demo_drive(), EQUAL, 1.0, dt=0.2 / W0)
    with pytest.raises(ValidationError):
        integrate_tls(W0, demo_drive(), (1.0, 1.0), 1.0)
    with pytest.raises(ValidationError):
        integrate_tls(W0, demo_drive(), (1.0, 0.0, 0.0), 1.0)
    with pytest.raises(ValidationError):
        integrate_tls(-1.0, demo_drive(), EQUAL, 1.0)
    with pytest.raises(ValidationError):
        integrate_tls(W0, demo_drive(), EQUAL, -1.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValidationError, match="omega0"):
            integrate_tls(bad, demo_drive(), EQUAL, 1.0)
        with pytest.raises(ValidationError, match="t_end"):
            integrate_tls(W0, demo_drive(), EQUAL, bad)
        with pytest.raises(ValidationError, match="dt"):
            integrate_tls(W0, demo_drive(), EQUAL, 1.0, dt=bad)
    with pytest.raises(ValidationError, match="initial"):
        integrate_tls(W0, demo_drive(), (math.nan, 0.0), 1.0)
    # the boundary step itself is allowed
    integrate_tls(W0, demo_drive(), EQUAL, 1.0, dt=0.1 / W0)


def test_windows_beyond_max_steps_refused(monkeypatch, recwarn):
    """Refused before anything is allocated: at theta_end = 1e20 one chunk
    alone would ask numpy for exabytes."""
    for theta_end in (1e20, 1e300, 2.0001e8):
        with pytest.raises(ValidationError, match="MAX_STEPS"):
            integrate_tls(W0, demo_drive(), EQUAL, theta_end / W0)
    monkeypatch.setattr(adiabatic, "MAX_STEPS", 1000)
    at_cap = integrate_tls(W0, demo_drive(), EQUAL, 50.0 / W0)  # 1000 steps
    assert at_cap.theta.size == 1001
    with pytest.raises(ValidationError, match="MAX_STEPS"):
        integrate_tls(W0, demo_drive(), EQUAL, 50.1 / W0)
    assert not recwarn.list


def test_overlap_rejects_other_initial_states():
    traj = integrate_tls(W0, demo_drive(), (1.0, 0.0), 10.0)
    with pytest.raises(ValidationError):
        overlap_fidelity(traj)


def test_overlap_rejects_a_nan_start():
    """A NaN compares false with the tolerance, so it must not pass as the
    equal superposition."""
    traj = SpinTrajectory(np.zeros(2), np.array([np.nan, 1.0]), np.array([np.nan, 0.0]))
    with pytest.raises(ValidationError, match="trajectory"):
        overlap_fidelity(traj)


def test_phase_closed_forms():
    assert adiabatic_phase(demo_drive(), W0, 1e4) == pytest.approx(1.0, rel=1e-12)
    assert adiabatic_phase(DriveField.constant(0.003, 0.004), W0, 10.0) == \
        pytest.approx(2.5e-5 * 10.0, rel=1e-12)
    assert adiabatic_phase(DriveField.constant(0.0, 0.0), W0, 100.0) == 0.0
    with pytest.raises(ValidationError):
        adiabatic_phase(demo_drive(), W0, -1.0)
    with pytest.raises(ValidationError):
        adiabatic_phase(demo_drive(), W0, math.nan)


@pytest.mark.parametrize("omega0", [0, -1, math.nan])
def test_phase_and_regime_ratios_refuse_a_bad_omega0(omega0):
    """Not a ZeroDivisionError at 0, nor a phase of the wrong sign below."""
    for drive in (demo_drive(), DriveField.constant(0.003, 0.004),
                  DriveField.sampled([0.0, 1.0], [0.0, 1.0], [1.0, 0.0])):
        with pytest.raises(ValidationError, match="omega0"):
            adiabatic_phase(drive, omega0, 1.0)
        with pytest.raises(ValidationError, match="omega0"):
            drive.regime_ratios(omega0)


@pytest.mark.parametrize("drive, omega0, t", [
    (DriveField.circular(1e200, 0.0), 1e202, 1.0),
    (DriveField.constant(0.0, 1e160), 1e162, 1.0),
    (DriveField.circular(1e100, 0.0), 1.0, 1e200),
    (DriveField.sampled([0.0, 1.0], [1e200, 0.0], [0.0, 1e200]), 1e202, 2.0),
], ids=["circular", "constant", "times_t", "sampled"])
def test_phase_outside_the_float_range_refused(drive, omega0, t, recwarn):
    """|f|^2 overflows (or |f|^2 t does): refused, not an OverflowError,
    an inf, or a RuntimeWarning."""
    with pytest.raises(DomainError, match="float range"):
        adiabatic_phase(drive, omega0, t)
    assert not recwarn.list


def test_phase_sampled_quadrature_exact():
    """|f|^2 is piecewise quadratic for a piecewise-linear table, so the
    per-segment Simpson rule is exact, not approximate."""
    drive = DriveField.sampled([0.0, 1.0, 2.0], [0.0, 1.0, 3.0], [2.0, 0.0, 1.0])
    # int_0^1 (t^2 + 4(1-t)^2) = 5/3;  int_1^2 (1+2u)^2 + u^2 du = 14/3
    assert adiabatic_phase(drive, W0, 2.0) == pytest.approx(19.0 / 3.0, rel=1e-13)
    assert adiabatic_phase(drive, W0, 1.0) == pytest.approx(5.0 / 3.0, rel=1e-13)
    # beyond the table the drive holds its end value, |f|^2 = 10
    assert adiabatic_phase(drive, W0, 3.0) == pytest.approx(19.0 / 3.0 + 10.0,
                                                            rel=1e-13)
    assert adiabatic_phase(drive, 2.0, 2.0) == pytest.approx(19.0 / 6.0, rel=1e-13)


def test_phase_consistency_with_instantaneous_frequency():
    """Phi equals half the excess precession angle for V = 2 hbar |f|,
    using the second-order frequency w0 + V^2/(2 w0) (the identity is
    exact there)."""
    for drive in (demo_drive(), DriveField.constant(0.002, 0.007)):
        t = 123.0
        V = 2.0 * float(drive.magnitude(0.0))
        second = W0 + V**2 / (2.0 * W0)
        excess = (second - W0) * t
        assert adiabatic_phase(drive, W0, t) == pytest.approx(0.5 * excess,
                                                              rel=1e-12)


def test_regime_warnings():
    with pytest.warns(UserWarning, match="amplitude"):
        integrate_tls(W0, DriveField.circular(0.2 * W0, 1e-3 * W0), EQUAL, 1.0)
    with pytest.warns(UserWarning, match="rotation"):
        integrate_tls(W0, DriveField.circular(0.01 * W0, 0.15 * W0), EQUAL, 1.0)


def test_sampled_drive_interpolation():
    drive = DriveField.sampled([0.0, 2.0], [0.0, 4.0], [1.0, 1.0])
    fx, fy = drive.components(1.0)
    assert fx == pytest.approx(2.0) and fy == pytest.approx(1.0)
    fx, _ = drive.components(10.0)  # constant beyond the table
    assert fx == pytest.approx(4.0)
    assert drive.magnitude(2.0) == pytest.approx(math.hypot(4.0, 1.0), rel=1e-12)


def test_sampled_regime_estimate_matches_circular():
    t = np.linspace(0.0, 2000.0, 4001)
    ref = DriveField.circular(0.02, 1e-3)
    fx, fy = ref.components(t)
    sampled = DriveField.sampled(t, fx, fy)
    eps_ratio, rot_ratio = sampled.regime_ratios(W0)
    assert eps_ratio == pytest.approx(0.02, rel=1e-6)
    assert rot_ratio == pytest.approx(1e-3, rel=1e-3)


def test_drive_validation():
    with pytest.raises(ValidationError):
        DriveField.circular(-0.1, 0.0)
    with pytest.raises(ValidationError):
        DriveField.sampled([0.0], [1.0], [1.0])
    with pytest.raises(ValidationError):
        DriveField.sampled([0.0, 1.0], [1.0], [1.0, 2.0])
    with pytest.raises(ValidationError):
        DriveField.sampled([0.0, 0.0], [1.0, 1.0], [1.0, 2.0])
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValidationError, match="amplitude"):
            DriveField.circular(bad, 0.0)
        with pytest.raises(ValidationError, match="rotation"):
            DriveField.circular(0.1, bad)
        with pytest.raises(ValidationError, match="fx"):
            DriveField.constant(bad, 0.0)
        with pytest.raises(ValidationError, match="fy"):
            DriveField.constant(0.0, bad)
        with pytest.raises(ValidationError, match="times"):
            DriveField.sampled([0.0, bad], [1.0, 1.0], [1.0, 2.0])
        with pytest.raises(ValidationError, match="fx"):
            DriveField.sampled([0.0, 1.0], [bad, 1.0], [1.0, 2.0])
        with pytest.raises(ValidationError, match="fy"):
            DriveField.sampled([0.0, 1.0], [1.0, 1.0], [1.0, bad])


@settings(max_examples=25, deadline=None)
@given(eps=st.floats(min_value=0.0, max_value=0.05),
       rot=st.floats(min_value=0.0, max_value=0.01),
       theta_end=st.floats(min_value=1.0, max_value=100.0))
def test_short_window_unitarity(eps, rot, theta_end):
    drive = DriveField.circular(eps * W0, rot * W0)
    traj = integrate_tls(W0, drive, EQUAL, theta_end / W0)
    assert traj.norm_drift <= 1e-9
    assert np.max(np.abs(traj.norms() - 1.0)) <= 1e-9


def test_trajectory_fields_consistent():
    traj = integrate_tls(W0, demo_drive(), EQUAL, 100.0)
    assert isinstance(traj, SpinTrajectory)
    assert traj.theta.shape == traj.u_plus.shape == traj.u_minus.shape
    assert traj.norm_drift == pytest.approx(np.max(np.abs(traj.norms() - 1.0)),
                                            abs=1e-15)
    # the certificate is derived from the amplitudes, never given
    with pytest.raises(TypeError):
        SpinTrajectory(theta=traj.theta, u_plus=traj.u_plus,
                       u_minus=traj.u_minus, norm_drift=math.nan)


_SAMPLED = np.linspace(0.0, 600.0, 13)

# Final amplitudes and norm drift of windows that exercise every way the
# steps split into stored chunks, recorded from the one-chunk-at-a-time
# stepper.  Exact equality: regrouping the operator products must not move
# a single bit.  The fourth field is the stored-point stride, reached by
# capping _MAX_STORED (None: the default decimation).
PINNED = [
    ("circular", DriveField.circular(0.01, 1e-3), 500.0, None,
     complex(0.720219765332157, -0.03546502880220957),
     complex(0.6919401629369368, 0.03527792934310391), 2.698041789983563e-11),
    ("constant", DriveField.constant(0.006, -0.003), 500.0, None,
     complex(0.7138269322656258, -0.009977263450643186),
     complex(0.6999095333189818, 0.021868016981863084), 1.1231682250922859e-11),
    ("sampled", DriveField.sampled(_SAMPLED, 0.01 * np.cos(1e-2 * _SAMPLED),
                                   0.005 * np.sin(2e-2 * _SAMPLED)), 500.0, None,
     complex(0.7147205522850668, -0.017132759807201345),
     complex(0.6988523314070837, 0.022054922007744313), 1.5166312650194413e-11),
    ("store_every_1", DriveField.circular(0.01, 1e-3), 20.0, 1,
     complex(0.7111376192254538, -0.007773021522582989),
     complex(0.7029915758172715, -0.005070600535552398), 1.078692690725802e-12),
    ("store_every_1500", DriveField.circular(0.01, 1e-3), 150.0, 1500,
     complex(0.7098518908598873, -0.00509886935265174),
     complex(0.7041451701374255, 0.016244197558401677), 8.212763802362133e-12),
    ("leftover_chunk", DriveField.circular(0.01, 1e-3), 123.456, 7,
     complex(0.7188234361729807, -0.0036882317617935832),
     complex(0.6950441534699566, 0.013888458826432264), 6.401990049198503e-12),
]


@pytest.mark.parametrize("name, drive, t_end, stride, up, um, drift", PINNED,
                         ids=[case[0] for case in PINNED])
def test_output_is_bit_identical_to_pinned(name, drive, t_end, stride,
                                           up, um, drift, monkeypatch):
    if stride is not None:
        keep_every(monkeypatch, t_end, stride)
    traj = integrate_tls(W0, drive, EQUAL, t_end)
    assert traj.u_plus[-1] == up
    assert traj.u_minus[-1] == um
    assert traj.norm_drift == drift


@pytest.mark.parametrize("stride", [1, 7, 1500])
@pytest.mark.parametrize("case", [0, 2], ids=["circular", "sampled"])
def test_batched_chunks_match_one_chunk_per_call(case, stride, monkeypatch):
    """Reference: the stored-point loop building one chunk operator per call.

    2999 steps: strides 7 and 1500 each leave a shorter last chunk."""
    drive, t_end = PINNED[case][1], 149.93
    n_steps = keep_every(monkeypatch, t_end, stride)
    traj = integrate_tls(W0, drive, EQUAL, t_end)
    dtheta = t_end / n_steps
    u = np.array(EQUAL, dtype=complex)
    stored = [u]
    for pos in range(0, n_steps, stride):
        m = min(stride, n_steps - pos)
        layout = _layout(1, m, dtheta)
        u = _build_and_reduce(drive, W0, np.array([pos * dtheta]), layout)[0] @ u
        stored.append(u)
    stored = np.array(stored)
    assert np.array_equal(traj.u_plus, stored[:, 0])
    assert np.array_equal(traj.u_minus, stored[:, 1])


def _build_and_reduce(drive, omega0, theta0, layout):
    """The products of B chunks of m one-step operators, a (B, 2, 2) view
    into the layout's area: _build_steps, then _reduce_steps, as
    integrate_tls runs them on one area."""
    _build_steps(drive, omega0, theta0, layout)
    return _reduce_steps(layout)


def _layout(B, m, dtheta):
    """A _ChunkLayout of a fresh work area for B chunks of m steps."""
    return _ChunkLayout(np.empty(_work_size(B, m), dtype=complex), B, m, dtheta)


def _stacked_chunk_operator(drive, omega0, theta0, dtheta, m):
    """The RK4 assembly on stacked (B, m, 2, 2) matrix products, with the
    coupling evaluated three times per step: the form _build_steps'
    component assembly replaced, kept as its bit-for-bit reference."""
    k = np.arange(m)
    theta0 = np.asarray(theta0, dtype=float)[:, None]

    def coupling(theta):
        out = (*(np.empty(theta.shape, complex) for _ in range(3)), np.empty(theta.shape))
        return _coupling(drive, omega0, theta, out)

    g1 = coupling(theta0 + k * dtheta)
    g2 = coupling(theta0 + (k + 0.5) * dtheta)
    g3 = coupling(theta0 + (k + 1.0) * dtheta)

    zeros = np.zeros_like(g1)
    def mat(g):
        return np.stack([np.stack([zeros, -1j * g], axis=-1),
                         np.stack([-1j * np.conj(g), zeros], axis=-1)], axis=-2)

    m1, m2, m3 = mat(g1), mat(g2), mat(g3)
    eye = np.eye(2, dtype=complex)
    k1 = m1
    k2 = m2 @ (eye + 0.5 * dtheta * k1)
    k3 = m2 @ (eye + 0.5 * dtheta * k2)
    k4 = m3 @ (eye + dtheta * k3)
    ops = eye + (dtheta / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    while ops.shape[1] > 1:
        n = ops.shape[1]
        half = ops[:, 1::2] @ ops[:, 0:n - 1:2]
        if n % 2:
            half = np.concatenate([half, ops[:, -1:]], axis=1)
        ops = half
    return ops[:, 0]


BIT_DRIVES = {
    "circular_up": DriveField.circular(0.01, 1e-3),
    "circular_down": DriveField.circular(0.02, -3e-3),
    "constant_fy0": DriveField.constant(0.006, 0.0),
    "undriven": DriveField.constant(0.0, 0.0),
    "sampled": PINNED[2][1],
}


@pytest.mark.parametrize("stride", [1, 7, 1500])
@pytest.mark.parametrize("drive", list(BIT_DRIVES.values()), ids=list(BIT_DRIVES))
def test_batch_size_moves_no_bit(drive, stride, monkeypatch):
    """theta and u± keep every int64 word at any _BATCH_STEPS, on one CPU
    (one work area) and on two (the lockstep schedule's two areas).  The
    2999-step window is one batch at stride 1 of 4096 steps, and 2999
    batches at stride 1 of 1 step; it leaves a shorter last full batch at
    1024 and 2048 steps (stride 1: 951 chunks after whole batches; stride
    7: 136, so all three batch shapes), a 3-step leftover chunk at stride
    7 and a 1499-step one at stride 1500 (two batches)."""
    t_end = 149.93
    keep_every(monkeypatch, t_end, stride)
    words = []
    for batch in (1, 7, 1024, 2048, 4096):
        monkeypatch.setattr(adiabatic, "_BATCH_STEPS", batch)
        for cpus in (1, 2):
            monkeypatch.setattr(adiabatic, "_usable_cpus", lambda: cpus)
            traj = integrate_tls(W0, drive, EQUAL, t_end)
            words.append(np.concatenate([traj.theta, traj.u_plus.view(float),
                                         traj.u_minus.view(float)]).view(np.int64))
    for other in words[1:]:
        assert np.array_equal(other, words[0])


def _count_calls(monkeypatch, name, before=None):
    """Wrap adiabatic.<name> so that each call appends the calling thread's
    id to the returned list, after running before(len(list)) if given."""
    calls, kernel = [], getattr(adiabatic, name)

    def counted(*args):
        if before is not None:
            before(len(calls))
        calls.append(threading.get_ident())
        return kernel(*args)
    monkeypatch.setattr(adiabatic, name, counted)
    return calls


@pytest.mark.parametrize("cpus", [1, 2])
def test_refused_window_stops_after_its_first_bad_batch(cpus, monkeypatch):
    """The norm is checked batch by batch as the caller propagates, so a
    refused run stops at the first batch whose norm leaves the budget: one
    batch later on two CPUs, whose worker builds the next batch meanwhile,
    not at the last of the window's 100 batches (200,000 steps stored
    every 50th, 40 chunks a batch)."""
    monkeypatch.setattr(adiabatic, "_usable_cpus", lambda: cpus)
    builds = _count_calls(monkeypatch, "_build_steps")
    monkeypatch.setattr(adiabatic, "DEFAULT_NORM_BUDGET", math.inf)
    norms = integrate_tls(W0, demo_drive(), EQUAL, 1e4).norms()
    drift = np.abs(norms - norms[0])
    assert len(builds) == 100
    budget = float(np.max(drift[:1001]))
    first_bad = (np.argmax(drift > budget) - 1) // 40
    assert first_bad == 25
    builds.clear()
    monkeypatch.setattr(adiabatic, "DEFAULT_NORM_BUDGET", budget)
    with pytest.raises(AccuracyError, match=r"^norm drifted by \S+ \(budget "):
        integrate_tls(W0, demo_drive(), EQUAL, 1e4)
    assert len(builds) == first_bad + cpus


@pytest.mark.parametrize("cpus", [1, 2])
def test_stage_build_failure_surfaces_and_leaves_no_thread(cpus, monkeypatch):
    """An exception in batch 3's stage build, on the worker when two CPUs
    are usable, is raised from integrate_tls, and the worker is joined."""
    class Failing(Exception):
        pass

    def fail_at_batch_3(batch):
        if batch == 3:
            raise Failing

    monkeypatch.setattr(adiabatic, "_usable_cpus", lambda: cpus)
    builds = _count_calls(monkeypatch, "_build_steps", before=fail_at_batch_3)
    running = threading.active_count()
    with pytest.raises(Failing):
        integrate_tls(W0, demo_drive(), EQUAL, 1e4)
    assert len(builds) == 3
    assert threading.active_count() == running


@pytest.mark.parametrize("cpus", [1, 2])
def test_blas_runs_on_the_calling_thread_only(cpus, monkeypatch):
    """Every reduction (its stacked matmul is BLAS, as is the propagation's
    dot) runs on the caller's thread; with two CPUs usable and more than
    one batch, every stage build runs on one worker."""
    monkeypatch.setattr(adiabatic, "_usable_cpus", lambda: cpus)
    builds = _count_calls(monkeypatch, "_build_steps")
    reductions = _count_calls(monkeypatch, "_reduce_steps")
    integrate_tls(W0, demo_drive(), EQUAL, 1e3)
    caller = threading.get_ident()
    assert len(reductions) == len(builds) == 10
    assert set(reductions) == {caller}
    if cpus == 1:
        assert set(builds) == {caller}
    else:
        assert len(set(builds)) == 1 and caller not in builds


def test_one_usable_cpu_starts_no_thread(monkeypatch):
    """With one CPU in the affinity set, a pinned window of five batches
    runs on the caller and keeps its bits."""
    def no_thread(*args, **kwargs):
        raise AssertionError("integrate_tls started a thread")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(_threads, "threading", types.SimpleNamespace(Thread=no_thread))
    name, drive, t_end, _, up, um, drift = PINNED[0]
    traj = integrate_tls(W0, drive, EQUAL, t_end)
    assert (traj.u_plus[-1], traj.u_minus[-1], traj.norm_drift) == (up, um, drift)


@pytest.mark.parametrize("B, m", [(1, 1), (1, 7), (3, 333), (205, 5), (1, 1024)])
@pytest.mark.parametrize("drive", list(BIT_DRIVES.values()), ids=list(BIT_DRIVES))
def test_chunk_operator_bits_match_stacked_matmul(drive, B, m):
    """Same bits as the stacked-matmul assembly, compared as int64 so that
    a signed zero (equal under ==) counts as a difference."""
    dtheta = 123.456 / 2470
    theta0 = np.arange(B) * (m * dtheta)
    got = _build_and_reduce(drive, W0, theta0, _layout(B, m, dtheta))
    want = _stacked_chunk_operator(drive, W0, theta0, dtheta, m)
    assert got.shape == (B, 2, 2)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("B, m", [(1, 1), (1, 1024), (205, 5), (1024, 1),
                                  (1, 2048), (409, 5), (2048, 1)])
def test_chunk_operator_writes_into_the_area_it_is_handed(B, m):
    """With its area laid out (a 2048-step batch takes ~0.6 MB) the
    operators are a view into it, and a warm call builds no view of the
    area and no half-step row.  What it still allocates is numpy's cast
    buffer where _coupling multiplies the float phases into complex arrays,
    16 B per half-step grid point, plus ~1.3 KB of scalars and headers;
    measured: 1264 B at (1, 1), 99520 B at (2048, 1).  The bound leaves no
    room for slicing the area in the call (~3.7 KB of views) or for
    rebuilding the half-step row (16 B per half step)."""
    dtheta = 0.05
    theta0 = np.arange(B) * (m * dtheta)
    work = np.empty(_work_size(B, m), dtype=complex)
    layout = _ChunkLayout(work, B, m, dtheta)
    drive = demo_drive()
    ops = _build_and_reduce(drive, W0, theta0, layout)
    assert np.shares_memory(ops, work)
    tracemalloc.start()
    try:
        _build_and_reduce(drive, W0, theta0, layout)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * B * (2 * m + 1) + 2048


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="counts page faults under glibc's allocator")
def test_window_does_not_fault_its_temporaries_back_in():
    """With glibc's mmap threshold fixed, as the benchmark fixes it, the
    trim threshold stays at 128 KiB, so temporaries that grow the heap by
    more are handed back at every free and faulted in again at the next
    chunk call.  One work area per run touches its pages once: a 4e5-step
    window took ~28,000 minor faults with per-call temporaries, ~130 with
    the work area."""
    code = textwrap.dedent("""
        import resource
        from iondec.adiabatic import DriveField, integrate_tls
        drive = DriveField.circular(0.005, 1e-3)
        integrate_tls(1.0, drive, (2**-0.5, 2**-0.5), 50.0)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        integrate_tls(1.0, drive, (2**-0.5, 2**-0.5), 2e4)
        print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    """)
    src = os.path.dirname(os.path.dirname(adiabatic.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, MALLOC_MMAP_THRESHOLD_="1048576", PYTHONPATH=path)
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert int(run.stdout) < 2000


def test_one_chunk_window_stays_under_the_step_budget(monkeypatch):
    """MAX_STEPS is sized for chunk memory of at most ~420 B per step (a
    1e6-step chunk in ~0.42 GB).  One chunk of 20000 steps peaks at ~320 B
    per step: the 288 B work area and the index row of the half-step grid
    (~416 B per step with fresh temporaries)."""
    monkeypatch.setattr(adiabatic, "_MAX_STORED", 1)
    tracemalloc.start()
    try:
        integrate_tls(W0, demo_drive(), EQUAL, 20000 * DEFAULT_DTHETA / W0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 360 * 20000


def exact_amplitudes(drive, omega0, initial, theta):
    """Closed-form u±(theta) for a circular or constant drive.

    With rho = rotation/w0 (0 for a constant drive), delta = 1 - rho and
    w = f_-(0)/w0, the substitution u± = e^{±i delta theta/2} v± removes
    the time dependence: i dv/dtheta = H v with H = [[delta/2, w],
    [w*, -delta/2]], so v(theta) = (cos(W theta) - i sin(W theta) H/W) v(0)
    with W = sqrt(delta^2/4 + |w|^2).
    """
    if drive.kind == "circular":
        rho, w = drive.rotation / omega0, drive.amplitude / omega0
    else:
        rho, w = 0.0, complex(drive.fx, -drive.fy) / omega0
    delta = 1.0 - rho
    freq = math.sqrt(delta**2 / 4 + abs(w) ** 2)
    cos, sinc = np.cos(freq * theta), np.sin(freq * theta) / freq
    up0, um0 = initial
    vp = cos * up0 - 1j * sinc * (delta / 2 * up0 + w * um0)
    vm = cos * um0 - 1j * sinc * (np.conj(w) * up0 - delta / 2 * um0)
    return np.exp(0.5j * delta * theta) * vp, np.exp(-0.5j * delta * theta) * vm


def error_vs_exact(drive, initial, theta_end, dtheta):
    traj = integrate_tls(W0, drive, initial, theta_end / W0, dt=dtheta / W0)
    up, um = exact_amplitudes(drive, W0, initial, traj.theta)
    return float(np.max(np.hypot(np.abs(traj.u_plus - up),
                                 np.abs(traj.u_minus - um))))


# RK4 error model for these drives: max |u_RK4 - u_exact| over the stored
# points ~ C * theta * (eps/w0)^2 * dtheta^4, the second-order coupling's
# phase error accumulated over the window.  Measured C = 2.03e-3 to 2.14e-3
# over theta_end = 1e2..1e4, eps = 0.003..0.05 w0, dtheta = 0.025..0.1 and
# both drive forms; the bound below carries a 1.5x margin.
_EXACT_ERROR_COEFF = 3e-3

EXACT_CASES = [
    ("circular_cli_defaults", DriveField.circular(0.01, 1e-3), EQUAL, 1e4, 0.05),
    ("circular_down", DriveField.circular(0.02, -3e-3), EQUAL, 3e3, 0.05),
    ("circular_coarse", DriveField.circular(0.005, 2e-3), (0.6, 0.8j), 1e4, 0.1),
    ("constant", DriveField.constant(0.006, -0.008), EQUAL, 1e4, 0.05),
    ("constant_fy0", DriveField.constant(0.05, 0.0), (1.0, 0.0), 1e2, 0.05),
]


@pytest.mark.parametrize("drive, initial, theta_end, dtheta",
                         [case[1:] for case in EXACT_CASES],
                         ids=[case[0] for case in EXACT_CASES])
def test_error_against_exact_solution(drive, initial, theta_end, dtheta):
    eps = drive.regime_ratios(W0)[0]
    err = error_vs_exact(drive, initial, theta_end, dtheta)
    assert err <= _EXACT_ERROR_COEFF * theta_end * eps**2 * dtheta**4


def test_halving_step_cuts_exact_error_sixteenfold():
    """Fourth order: half the step, 1/16 of the error against the exact
    solution (measured 16.0 on the CLI defaults)."""
    coarse = error_vs_exact(demo_drive(), EQUAL, 1e4, DEFAULT_DTHETA)
    fine = error_vs_exact(demo_drive(), EQUAL, 1e4, DEFAULT_DTHETA / 2)
    assert 14.0 <= coarse / fine <= 18.0
