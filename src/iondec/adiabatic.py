"""Driven two-level dynamics and the adiabatic-phase prediction.

The state is written u_+(t) e^{-i w0 t/2}|+> + u_-(t) e^{+i w0 t/2}|->,
so the equations of motion couple the slowly varying amplitudes only
through the transverse drive:

    i du+/dt = e^{+i w0 t} f_-(t) u_-,      f_± = f_x ± i f_y,
    i du-/dt = e^{-i w0 t} f_+(t) u_+.

Everything integrates in the dimensionless phase theta = w0 t with a
fixed-step classical RK4.  One RK4 step of a linear system is itself a
linear map, so the stepper materializes the 2x2 one-step operators and
combines the steps of each stored chunk pairwise (matrix products
associate); that keeps 10^7-step windows at numpy speed without changing
the method or its numbers.

The one-step operators are assembled entry by entry on component arrays.
The RK4 stages multiply by the coupling matrix [[0, -i g], [-i g*, 0]],
whose diagonal is zero, so each entry of a stage is a single complex
product; written out, it rounds exactly as the stacked 2x2 matrix product
did, and the output keeps its bits.  The three stage times of every step
lie on one grid of half steps, so the coupling is evaluated once per half
step (2m + 1 points for m steps), not three times per step.  The pairwise
reduction stays on stacked matrix products: there the products of general
2x2 matrices are fused by BLAS, and the same sums written elementwise
round differently in the last bits.

The operators are built for many stored chunks at once (about
_BATCH_STEPS steps per numpy call), each chunk paired exactly as if it
were built alone, so the output is bit-identical to building one chunk per
call, and short windows do not pay numpy's per-call overhead once per
stored point.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import AccuracyError, DomainError, ValidationError, check_positive

DEFAULT_DTHETA = 0.05
MAX_DTHETA = 0.1
DEFAULT_NORM_BUDGET = 1e-6
_MAX_STORED = 4000
# Longest window, in RK4 steps.  A chunk's operators take ~420 B of numpy
# temporaries per step, and decimated to _MAX_STORED points a chunk is at
# most MAX_STEPS / _MAX_STORED = 1e6 steps (~0.42 GB).
MAX_STEPS = 4_000_000_000
# RK4 steps whose operators one _chunk_operator call builds at once.  A
# 1024-step call peaks at ~0.45 MB of numpy temporaries (4096: ~1.8 MB) and
# takes ~0.45 ms, of which numpy's fixed per-call cost (~50 us) is a tenth.
_BATCH_STEPS = 1024
# Empirical norm-drift model for this stepper: drift ~ C * theta * (eps/w0)^2
# * dtheta^4.  Measured C is ~9e-5; the value below carries a ~10x margin.
_DRIFT_COEFF = 1e-3

_REGIME_LIMIT = 0.1


def _require_finite(name, value):
    if not math.isfinite(value):
        raise ValidationError(name, f"must be finite, got {value!r}")


@dataclass(frozen=True)
class DriveField:
    """Transverse drive f(t) = (f_x, f_y, 0) in angular-frequency units.

    The z component is identically zero by construction.  Three forms are
    supported: a constant-magnitude circular sweep, a constant vector, and
    a sampled table with linear interpolation (constant beyond the ends).
    """

    kind: str
    amplitude: float = 0.0
    rotation: float = 0.0
    fx: float = 0.0
    fy: float = 0.0
    times: np.ndarray | None = field(default=None, repr=False)
    fx_samples: np.ndarray | None = field(default=None, repr=False)
    fy_samples: np.ndarray | None = field(default=None, repr=False)

    @classmethod
    def circular(cls, amplitude, rotation):
        """f(t) = amplitude * (cos(rotation*t), sin(rotation*t))."""
        if not 0 <= amplitude < math.inf:
            raise ValidationError("amplitude", f"must be finite and >= 0, got {amplitude!r}")
        _require_finite("rotation", rotation)
        return cls(kind="circular", amplitude=float(amplitude), rotation=float(rotation))

    @classmethod
    def constant(cls, fx, fy):
        _require_finite("fx", fx)
        _require_finite("fy", fy)
        return cls(kind="constant", fx=float(fx), fy=float(fy))

    @classmethod
    def sampled(cls, times, fx, fy):
        t = np.asarray(times, dtype=float)
        x = np.asarray(fx, dtype=float)
        y = np.asarray(fy, dtype=float)
        if t.ndim != 1 or t.size < 2:
            raise ValidationError("times", "need at least two samples")
        if x.shape != t.shape or y.shape != t.shape:
            raise ValidationError("fx", "sample arrays must match the time grid")
        for name, values in (("times", t), ("fx", x), ("fy", y)):
            if not np.all(np.isfinite(values)):
                raise ValidationError(name, "samples must be finite")
        if np.any(np.diff(t) <= 0):
            raise ValidationError("times", "must be strictly increasing")
        return cls(kind="sampled", times=t, fx_samples=x, fy_samples=y)

    def components(self, t):
        """(f_x, f_y) at time t (scalar or array), angular-frequency units."""
        t = np.asarray(t, dtype=float)
        if self.kind == "circular":
            return (self.amplitude * np.cos(self.rotation * t),
                    self.amplitude * np.sin(self.rotation * t))
        if self.kind == "constant":
            return (np.full_like(t, self.fx), np.full_like(t, self.fy))
        return (np.interp(t, self.times, self.fx_samples),
                np.interp(t, self.times, self.fy_samples))

    def magnitude(self, t):
        fx, fy = self.components(t)
        return np.hypot(fx, fy)

    def regime_ratios(self, omega0):
        """(max|f|/w0, rotation-rate/w0); the adiabatic analysis wants both << 1."""
        if self.kind == "circular":
            return self.amplitude / omega0, abs(self.rotation) / omega0
        if self.kind == "constant":
            return math.hypot(self.fx, self.fy) / omega0, 0.0
        eps = float(np.max(self.magnitude(self.times))) / omega0
        angle = np.unwrap(np.arctan2(self.fy_samples, self.fx_samples))
        rates = np.abs(np.diff(angle) / np.diff(self.times))
        return eps, float(np.max(rates)) / omega0


def _warn_regime(drive, omega0):
    eps_ratio, rot_ratio = drive.regime_ratios(omega0)
    if eps_ratio >= _REGIME_LIMIT:
        warnings.warn(f"drive amplitude is {eps_ratio:.3g} of the precession "
                      "frequency; the adiabatic treatment assumes it is small",
                      stacklevel=3)
    if rot_ratio >= _REGIME_LIMIT:
        warnings.warn(f"drive rotation rate is {rot_ratio:.3g} of the precession "
                      "frequency; the adiabatic treatment assumes it is small",
                      stacklevel=3)
    return eps_ratio, rot_ratio


@dataclass(frozen=True)
class SpinTrajectory:
    """Amplitudes u±(theta) at the stored points theta = w0*t of one run."""

    theta: np.ndarray
    u_plus: np.ndarray
    u_minus: np.ndarray

    def norms(self):
        return np.abs(self.u_plus) ** 2 + np.abs(self.u_minus) ** 2

    @property
    def norm_drift(self) -> float:
        """max | |u|^2 - |u(0)|^2 | over the stored points: the norm certificate.

        It bounds the norm, not the state error: on the CLI defaults the
        amplitudes are some 20x further from the exact solution.
        """
        norms = self.norms()
        return float(np.max(np.abs(norms - norms[0])))


def suggested_step(omega0, drive, t_end, norm_budget=1e-9):
    """A fixed step (seconds) keeping predicted norm drift under budget.

    Uses the empirical drift model above; capped at the default step.
    """
    theta_end = omega0 * t_end
    eps_ratio = drive.regime_ratios(omega0)[0]
    if theta_end <= 0 or eps_ratio <= 0:
        return DEFAULT_DTHETA / omega0
    dtheta = (norm_budget / (_DRIFT_COEFF * theta_end * eps_ratio**2)) ** 0.25
    return min(DEFAULT_DTHETA, dtheta) / omega0


def integrate_tls(omega0, drive, initial, t_end, dt=None):
    """Integrate the two-level amplitudes from 0 to t_end.

    The trajectory keeps the start and at most 4000 further points,
    evenly decimated.  A run whose norm drifts by more than
    DEFAULT_NORM_BUDGET = 1e-6 at a stored point is aborted with
    AccuracyError.

    Parameters
    ----------
    omega0 : float
        Precession (fast) angular frequency, rad/s.
    drive : DriveField
    initial : pair of complex
        (u_plus, u_minus) at t = 0; must be normalized.
    t_end : float
        Integration window in seconds.
    dt : float, optional
        Fixed step in seconds; default 0.05/omega0, and at most 0.1/omega0
        so the fast phase stays resolved.  The step is shrunk slightly so
        an integer number of steps lands exactly on t_end.

    A window of more than MAX_STEPS = 4e9 steps (theta_end = 2e8 at the
    default step) is refused with ValidationError before anything is
    allocated.
    """
    check_positive("omega0", omega0)
    if not 0 <= t_end < math.inf:
        raise ValidationError("t_end", f"must be finite and >= 0, got {t_end!r}")
    u0 = np.asarray(initial, dtype=complex)
    if u0.shape != (2,):
        raise ValidationError("initial", "expected a (u_plus, u_minus) pair")
    norm0 = float(np.abs(u0[0])**2 + np.abs(u0[1])**2)
    if not abs(norm0 - 1.0) <= 1e-9:
        raise ValidationError("initial", f"state must be normalized, |u|^2 = {norm0!r}")
    dt = DEFAULT_DTHETA / omega0 if dt is None else check_positive("dt", dt)
    if dt * omega0 > MAX_DTHETA * (1 + 1e-12):
        raise ValidationError(
            "dt", f"step {dt * omega0:.4g}/omega0 does not resolve the fast phase "
            f"(need <= {MAX_DTHETA}/omega0)")
    theta_end = omega0 * t_end
    if not theta_end <= MAX_STEPS * (omega0 * dt):
        raise ValidationError(
            "t_end", f"the window needs more than MAX_STEPS = {MAX_STEPS:.0e} "
            f"steps of {omega0 * dt:.3g}/omega0")
    n_steps = max(1, math.ceil(theta_end / (omega0 * dt) - 1e-9)) if theta_end > 0 else 0
    _warn_regime(drive, omega0)

    if n_steps == 0:
        theta = np.zeros(1)
        return SpinTrajectory(theta=theta, u_plus=u0[:1] * np.ones(1),
                              u_minus=u0[1:] * np.ones(1))
    dtheta = theta_end / n_steps
    stride = max(1, -(-n_steps // _MAX_STORED))

    # Chunk j covers steps [starts[j], starts[j] + stride); the last one
    # is shorter when stride does not divide n_steps.
    starts = np.arange(0, n_steps, stride)
    whole = starts[:n_steps // stride]
    per_batch = max(1, _BATCH_STEPS // stride)
    batches = [(whole[lo:lo + per_batch], stride)
               for lo in range(0, whole.size, per_batch)]
    if n_steps % stride:
        batches.append((starts[whole.size:], n_steps % stride))

    n_stored = starts.size + 1
    theta = np.empty(n_stored)
    up = np.empty(n_stored, dtype=complex)
    um = np.empty(n_stored, dtype=complex)
    theta[0], up[0], um[0] = 0.0, u0[0], u0[1]
    theta[1:] = np.append(starts[1:], n_steps) * dtheta

    u = u0.copy()
    out = 1
    for batch_starts, m in batches:
        for op in _chunk_operator(drive, omega0, batch_starts * dtheta, dtheta, m):
            u = op @ u
            up[out], um[out] = u[0], u[1]
            out += 1

    traj = SpinTrajectory(theta=theta, u_plus=up, u_minus=um)
    drift = traj.norm_drift
    if not drift <= DEFAULT_NORM_BUDGET:
        raise AccuracyError(
            f"norm drifted by {drift:.3e} (budget {DEFAULT_NORM_BUDGET:.1e}); "
            "reduce the step")
    return traj


def _coupling(drive, omega0, theta):
    """g(theta) = e^{i theta} f_-(theta/w0)/w0, for an array of theta."""
    fx, fy = drive.components(theta / omega0)
    return np.exp(1j * theta) * (fx - 1j * fy) / omega0


def _chunk_operator(drive, omega0, theta0, dtheta, m):
    """Products of m consecutive RK4 one-step operators, one per chunk start.

    theta0 is a vector of B chunk starts; the result is a (B, 2, 2) stack.
    Each step is u_{k+1} = A_k u_k with A_k assembled from the coupling at
    theta_k, theta_k + dtheta/2 and theta_k + dtheta, all read off one grid
    of 2m + 1 half steps (j * (dtheta/2) is bitwise k * dtheta at j = 2k).

    With M_i = [[0, b_i], [c_i, 0]], b = -i g, c = -i g*, the stages are
    k1 = M_1, k2 = M_2 (I + dtheta/2 k1), k3 = M_2 (I + dtheta/2 k2) and
    k4 = M_3 (I + dtheta k3), and A_k = I + dtheta/6 (k1 + 2k2 + 2k3 + k4).
    Each stage entry is held as a (B, m) array, in row-major entry order;
    M's zero diagonal leaves one complex product per entry, which is how
    the stacked matmul rounded it.  The off-diagonal "0 +" keeps the signed
    zeros of an undriven step as the matmul left them.

    Within each chunk the A_k then combine by pairwise matrix products
    along the step axis, on stacked matmul: a general 2x2 product written
    elementwise would not round as BLAS does.
    """
    h = 0.5 * dtheta
    theta0 = np.asarray(theta0, dtype=float)[:, None]
    g = _coupling(drive, omega0, theta0 + np.arange(2 * m + 1) * h)
    b = -1j * g
    c = -1j * np.conj(g)
    b1, b2, b3 = b[:, 0:2 * m:2], b[:, 1::2], b[:, 2::2]
    c1, c2, c3 = c[:, 0:2 * m:2], c[:, 1::2], c[:, 2::2]

    k2 = (b2 * (h * c1), b2, c2, c2 * (h * b1))
    x = (1 + h * k2[0], h * k2[1], h * k2[2], 1 + h * k2[3])
    k3 = (b2 * x[2], b2 * x[3], c2 * x[0], c2 * x[1])
    x = (1 + dtheta * k3[0], dtheta * k3[1], dtheta * k3[2], 1 + dtheta * k3[3])
    k4 = (b3 * x[2], b3 * x[3], c3 * x[0], c3 * x[1])

    s = dtheta / 6.0
    ops = np.empty(g.shape[:1] + (m, 2, 2), dtype=complex)
    ops[..., 0, 0] = 1 + s * (2.0 * k2[0] + 2.0 * k3[0] + k4[0])
    ops[..., 0, 1] = 0 + s * (b1 + 2.0 * k2[1] + 2.0 * k3[1] + k4[1])
    ops[..., 1, 0] = 0 + s * (c1 + 2.0 * k2[2] + 2.0 * k3[2] + k4[2])
    ops[..., 1, 1] = 1 + s * (2.0 * k2[3] + 2.0 * k3[3] + k4[3])

    while ops.shape[1] > 1:
        n = ops.shape[1]
        half = ops[:, 1::2] @ ops[:, 0:n - 1:2]
        if n % 2:
            half = np.concatenate([half, ops[:, -1:]], axis=1)
        ops = half
    return ops[:, 0]


def adiabatic_phase(drive, omega0, t):
    """Accumulated phase Phi(t) = int_0^t |f|^2/omega0 dt'.

    Closed form eps^2 t/omega0 when |f| is constant (circular or constant
    drives); otherwise segment-wise Simpson quadrature, which is exact for
    the piecewise-linear sampled form.  A phase outside the float range
    (|f|^2 overflows, or the product with t does) is refused with
    DomainError.
    """
    if not t >= 0:
        raise ValidationError("t", f"must be >= 0, got {t!r}")
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            if drive.kind == "circular":
                phase = drive.amplitude**2 * t / omega0
            elif drive.kind == "constant":
                phase = (drive.fx**2 + drive.fy**2) * t / omega0
            else:
                knots = drive.times[(drive.times > 0) & (drive.times < t)]
                edges = np.concatenate([[0.0], knots, [t]])
                mids = 0.5 * (edges[:-1] + edges[1:])
                f2_edges = drive.magnitude(edges) ** 2
                f2_mids = drive.magnitude(mids) ** 2
                seg = (edges[1:] - edges[:-1]) / 6.0 * (
                    f2_edges[:-1] + 4.0 * f2_mids + f2_edges[1:])
                phase = float(np.sum(seg)) / omega0
    except OverflowError:
        phase = math.inf
    if not phase < math.inf:
        raise DomainError(f"the adiabatic phase at t = {t!r} s leaves the float "
                          f"range (omega0 = {omega0!r} rad/s)")
    return phase


def overlap_fidelity(trajectory):
    """Re<psi_0(t)|psi(t)> along the trajectory, psi_0 the undriven state.

    The fast phases cancel in the inner product, leaving Re[(u+ + u-)/sqrt(2)]
    for the equal-superposition start.  Rejects trajectories that did not
    start in the equal superposition, where this reduction fails.
    """
    start = np.array([trajectory.u_plus[0], trajectory.u_minus[0]])
    if np.max(np.abs(start - 1.0 / np.sqrt(2.0))) > 1e-9:
        raise ValidationError(
            "trajectory", "overlap formula assumes u+(0) = u-(0) = 1/sqrt(2)")
    return np.real((trajectory.u_plus + trajectory.u_minus) / np.sqrt(2.0))

