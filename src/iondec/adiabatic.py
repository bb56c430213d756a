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
_BATCH_STEPS = 2048 steps per numpy call), each chunk paired exactly as if
it were built alone, so the output is bit-identical to building one chunk
per call, and short windows do not pay numpy's per-call overhead once per
stored point.  Every batch writes all of its intermediates into a work
area the run allocates, laid out once per batch shape (_ChunkLayout), and
the kernels allocate no scratch of their own, not even a numpy cast or
broadcast buffer, for the reason chain._work_area gives.

A run's two lanes (``_threads``): in step i, lane 0 reduces batch i - 1
(_reduce_steps) and propagates its stored points, and lane 1 builds batch
i (_build_steps, ufuncs only).  Lane 1 runs on a worker when two CPUs are
usable and the window has more than one batch, building batch i in area
i mod 2 of two; otherwise the caller runs lane 0 before lane 1, and one
area serves both.  So every BLAS call, the reduction's matmul and the
propagation's dot, stays on the caller's thread: two reductions at once
ran slower than one after the other, while a build beside a reduction
paid off.

The caller propagates the state into one (stored points, 2) array, each
row written in place by the chunk operator's dot with the row before;
after each batch it checks that batch's stored norms, so a run that
leaves the norm budget is refused at its first bad batch, not at the
end of the window.
"""
from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass, field, fields

import numpy as np

from ._threads import _in_two, _usable_cpus
from .errors import (AccuracyError, ValidationError, _shown, check_finite, check_instance,
                     check_nonnegative, check_positive, check_reals, in_float_range)

DEFAULT_DTHETA = 0.05
MAX_DTHETA = 0.1
DEFAULT_NORM_BUDGET = 1e-6
_MAX_STORED = 4000
# Longest window, in RK4 steps.  A chunk's operators take a work area of
# 288 B per step plus 32 B per chunk (_work_size) and a layout whose
# half-step offsets take 16 B per step, and decimated to _MAX_STORED points
# a chunk is at most MAX_STEPS / _MAX_STORED = 1e6 steps (~0.3 GB; twice
# that on two CPUs, which build the next batch in a second area).
MAX_STEPS = 4_000_000_000
# RK4 steps whose operators one batch builds at once: enough that a
# batch's fixed cost (~45 numpy calls on a laid-out area, ~80-130 us) is a
# small share of it.  A 2048-step batch takes a ~0.6 MB work area
# (_work_size), below the benchmark's 1 MiB mmap threshold; 4096
# steps were no faster.
_BATCH_STEPS = 2048

_REGIME_LIMIT = 0.1


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

    def __post_init__(self):
        """Every construction checks its kind's own fields and stores them as floats
        (arrays for a sampled table); other kinds' fields must keep their defaults."""
        if self.kind == "circular":
            own = {"amplitude": float(check_nonnegative("amplitude", self.amplitude)),
                   "rotation": float(check_finite("rotation", self.rotation))}
        elif self.kind == "constant":
            own = {name: float(check_finite(name, getattr(self, name))) for name in ("fx", "fy")}
        elif self.kind == "sampled":
            t = check_reals("times", self.times, least=2)
            own = {"times": t, "fx_samples": check_reals("fx", self.fx_samples),
                   "fy_samples": check_reals("fy", self.fy_samples)}
            for name in ("fx", "fy"):
                if own[f"{name}_samples"].shape != t.shape:
                    raise ValidationError(name, "sample arrays must match the time grid")
            if np.any(np.diff(t) <= 0):
                raise ValidationError("times", "must be strictly increasing")
        else:
            raise ValidationError("kind", f"unknown drive kind {_shown(self.kind)}")
        for spec in fields(self)[1:]:  # every field after kind
            if spec.name in own:
                object.__setattr__(self, spec.name, own[spec.name])
            elif getattr(self, spec.name) is not spec.default:
                raise ValidationError(spec.name, f"does not apply to a {self.kind} drive")

    @classmethod
    def circular(cls, amplitude, rotation):
        """f(t) = amplitude * (cos(rotation*t), sin(rotation*t))."""
        return cls(kind="circular", amplitude=amplitude, rotation=rotation)

    @classmethod
    def constant(cls, fx, fy):
        return cls(kind="constant", fx=fx, fy=fy)

    @classmethod
    def sampled(cls, times, fx, fy):
        return cls(kind="sampled", times=times, fx_samples=fx, fy_samples=fy)

    def components(self, t):
        """(f_x, f_y) at time t, angular-frequency units: scalars for a finite real
        t, arrays for an integer or float array of finite times of any shape."""
        if not isinstance(t, np.ndarray):
            check_finite("t", t)
        elif t.dtype.kind not in "iuf" or not np.all(np.isfinite(t)):
            raise ValidationError("t", f"need finite real numbers, got a {t.dtype} array")
        t = np.asarray(t, dtype=float)
        fx, fy = np.empty_like(t), np.empty_like(t)
        self._components_into(t, fx, fy)
        return fx[()], fy[()]  # scalars for a scalar t

    def _components_into(self, t, fx, fy):
        """Write f_x(t) into fx and f_y(t) into fy, float arrays of t's
        shape; fy may be t itself, which is then overwritten."""
        if self.kind == "circular":
            np.multiply(self.rotation, t, out=fy)
            np.cos(fy, out=fx)
            np.multiply(self.amplitude, fx, out=fx)
            np.sin(fy, out=fy)
            np.multiply(self.amplitude, fy, out=fy)
        elif self.kind == "constant":
            fx.fill(self.fx)
            fy.fill(self.fy)
        else:
            fx[...] = np.interp(t, self.times, self.fx_samples)
            fy[...] = np.interp(t, self.times, self.fy_samples)

    def magnitude(self, t):
        fx, fy = self.components(t)
        return np.hypot(fx, fy)

    def regime_ratios(self, omega0):
        """(max|f|/w0, rotation-rate/w0); the adiabatic analysis wants both << 1."""
        check_positive("omega0", omega0)
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
        return _norms(self.u_plus, self.u_minus)

    @property
    def norm_drift(self) -> float:
        """max | |u|^2 - |u(0)|^2 | over the stored points: the norm certificate.

        It bounds the norm, not the state error: on the CLI defaults the
        amplitudes are some 20x further from the exact solution.
        """
        norms = self.norms()
        return float(np.max(np.abs(norms - norms[0])))


def _norms(u_plus, u_minus):
    return np.abs(u_plus) ** 2 + np.abs(u_minus) ** 2


def integrate_tls(omega0, drive, initial, t_end, dt=None):
    """Integrate the two-level amplitudes from 0 to t_end.

    The trajectory keeps the start and at most 4000 further points,
    evenly decimated.  A run whose norm drifts by more than
    DEFAULT_NORM_BUDGET = 1e-6 at a stored point is aborted with
    AccuracyError once the batch of stored points that holds it is
    checked, without integrating the rest of the window.

    Parameters
    ----------
    omega0 : float
        Precession (fast) angular frequency, rad/s.
    drive : DriveField
    initial : pair of complex
        (u_plus, u_minus) at t = 0, numbers (not bools); must be normalized.
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
    check_instance("drive", drive, DriveField)
    check_nonnegative("t_end", t_end)
    pair = tuple(initial) if np.iterable(initial) else ()
    if len(pair) != 2 or any(isinstance(u, bool) or not isinstance(u, numbers.Complex)
                             for u in pair):
        raise ValidationError("initial", "expected a (u_plus, u_minus) pair of numbers")
    u0 = np.array(pair, dtype=complex)
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

    # Chunk j covers steps [starts[j], starts[j] + stride), from phase
    # starts[j] * dtheta; the last one is shorter when stride does not
    # divide n_steps.
    starts = np.arange(0, n_steps, stride)
    chunk_theta = starts * dtheta
    whole = chunk_theta[:n_steps // stride]
    per_batch = max(1, _BATCH_STEPS // stride)
    batches = [(whole[lo:lo + per_batch], stride)
               for lo in range(0, whole.size, per_batch)]
    if n_steps % stride:
        batches.append((chunk_theta[whole.size:], n_steps % stride))

    n_stored = starts.size + 1
    theta = np.empty(n_stored)
    theta[0] = 0.0
    theta[1:] = np.append(starts[1:], n_steps) * dtheta
    # one row (u_+, u_-) per stored point, written in place row after row
    states = np.empty((n_stored, 2), dtype=complex)
    states[0] = u0
    start = _norms(u0[:1], u0[1:])
    rows = iter(states)
    u, done = next(rows), 1

    def propagate(ops):
        """Step the state across a batch's chunks, one stored row each, and
        refuse the run at the first batch whose norm leaves the budget."""
        nonlocal u, done
        for op, row in zip(ops, rows):
            op.dot(u, out=row)
            u = row
        batch = states[done:done + len(ops)]
        done += len(ops)
        drift = float(np.max(np.abs(_norms(batch[:, 0], batch[:, 1]) - start)))
        if not drift <= DEFAULT_NORM_BUDGET:
            raise AccuracyError(
                f"norm drifted by {drift:.3e} (budget {DEFAULT_NORM_BUDGET:.1e}); "
                "pass a smaller step dt, or integrate a shorter window")

    # Batches run from the largest, in chunks and in steps, down, and those
    # of one shape run together, so an area is sized by its first batch and
    # lays each shape out once.
    two = len(batches) > 1 and _usable_cpus() > 1
    areas = [np.empty(_work_size(theta0.size, m), dtype=complex)
             for theta0, m in batches[:1 + two]]
    layouts = [None] * len(areas)

    def layout(i):
        """Batch i's layout of area i mod len(areas)."""
        theta0, m = batches[i]
        a = i % len(areas)
        if layouts[a] is None or layouts[a].shape != (theta0.size, m):
            layouts[a] = _ChunkLayout(areas[a], theta0.size, m, dtheta)
        return layouts[a]

    def step(i):
        """Step i of the run's two lanes (module docstring)."""
        def run(k):
            if k and i < len(batches):
                _build_steps(drive, omega0, batches[i][0], layout(i))
            elif not k and i:
                propagate(_reduce_steps(layouts[(i - 1) % len(areas)]))
        return run

    _in_two(*map(step, range(len(batches) + 1)), threaded=two)
    return SpinTrajectory(theta=theta, u_plus=states[:, 0].copy(),
                          u_minus=states[:, 1].copy())


def _coupling(drive, omega0, theta, out):
    """g(theta) = e^{i theta} f_-(theta/w0)/w0, for a float array theta,
    which is overwritten.

    out = (g, e, f, fx) are three complex arrays and a float array of
    theta's shape: g is built in g, and the others are scratch (fx may
    share g's memory).  e = i theta and f = fx - i fy are written part by
    part, with the bits of 1j * theta and fx - 1j * fy (signed zeros
    included, for theta >= 0), so no float array is cast to complex.
    """
    g, e, f, fx = out
    e.real = 0.0
    e.imag = theta
    np.exp(e, out=e)
    t = np.divide(theta, omega0, out=theta)
    drive._components_into(t, fx, t)
    np.subtract(fx, np.multiply(0.0, t, out=f.real), out=f.real)
    np.subtract(0.0, t, out=f.imag)
    np.multiply(e, f, out=g)
    return np.divide(g, omega0, out=g)


def _work_size(B, m):
    """Complex elements of the work area of a batch of B chunks of m
    steps: 18 per step and 2 per chunk, so 288 B per step plus 32 B per
    chunk, at most 320 B per step."""
    return 18 * B * m + 2 * B


class _ChunkLayout:
    """Every view of a work area that a batch of B chunks of m steps of
    dtheta reads or writes, and the half-step offsets of its grid.

    integrate_tls lays its area out once for each (B, m) it meets, at most
    three (the full batch, a shorter last full batch and the leftover
    chunk), so a batch only issues its ufunc and matmul calls.  The area is
    [b | c | ops | stage], b and c holding the couplings on B rows of
    2m + 1 half steps; the stage area first holds the coupling's scratch,
    then ten (B, m) stage arrays, then the reduction's odd levels.
    """

    def __init__(self, work, B, m, dtheta):
        half_steps = 2 * m + 1
        n, gl = B * m, B * half_steps
        reals = work.view(float)

        def cplx(at, *shape):
            return work[at:at + math.prod(shape)].reshape(shape)

        def real(at, *shape):
            return reals[2 * at:2 * at + math.prod(shape)].reshape(shape)

        self.shape = (B, m)
        self.dtheta, self.h, self.s = dtheta, 0.5 * dtheta, dtheta / 6.0
        # j * (dtheta/2) is bitwise k * dtheta at j = 2k
        self.offsets = np.arange(half_steps) * self.h
        b, c = cplx(0, B, half_steps), cplx(gl, B, half_steps)
        ops = cplx(2 * gl, B, m, 2, 2)
        stage = 2 * gl + 4 * n
        self.b, self.c = b, c
        self.grid = real(stage + gl, B, half_steps)
        self.starts = real(gl, B, half_steps)  # each row's chunk start, in c
        self.coupling = (b, cplx(stage, B, half_steps), c, real(0, B, half_steps))
        # b and c at theta_k, theta_k + dtheta/2 and theta_k + dtheta
        b1, b2, b3 = b[:, 0:2 * m:2], b[:, 1::2], b[:, 2::2]
        c1, c2, c3 = c[:, 0:2 * m:2], c[:, 1::2], c[:, 2::2]
        self.m12 = (b1, b2, c1, c2)
        self.stages = tuple(cplx(stage + i * n, B, m) for i in range(10))

        # A = one + s (k1 + 2 k2 + 2 k3 + k4), entry by entry, with
        # k4 = (b3 x2, b3 x3, c3 x0, c3 x1) formed in the spent k3 entry;
        # acc is a free stage array
        k20, k23, k30, k31, k32, k33, x0, x1, x2, x3 = self.stages
        self.entries = (
            (1, None, k20, k30, b3, x2, k20, ops[..., 0, 0]),
            (0, b1, b2, k31, b3, x3, x2, ops[..., 0, 1]),
            (0, c1, c2, k32, c3, x0, x2, ops[..., 1, 0]),
            (1, None, k23, k33, c3, x1, k23, ops[..., 1, 1]))

        # pairwise reduction, alternating between ops and the stage area;
        # an odd level's last operator passes through
        levels = []
        src, dst = ops, cplx(stage, B, m - m // 2, 2, 2)
        while m > 1:
            half = m // 2
            tail = (dst[:, half], src[:, m - 1]) if m % 2 else None
            levels.append((src[:, 1:m:2], src[:, 0:m - 1:2], dst[:, :half], tail))
            m -= half
            src, dst = dst, src
        self.levels = tuple(levels)
        self.result = src[:, 0]


def _build_steps(drive, omega0, theta0, layout):
    """The RK4 one-step operators A_k of B chunks of m steps, written into
    the layout's operator stack: ufuncs only, so no BLAS call.

    theta0 is a vector of B chunk starts and layout a _ChunkLayout of
    shape (B, m).  Each step is u_{k+1} = A_k u_k with A_k assembled from
    the coupling at theta_k, theta_k + dtheta/2 and theta_k + dtheta, all
    read off one grid of 2m + 1 half steps.

    With M_i = [[0, b_i], [c_i, 0]], b = -i g, c = -i g*, the stages are
    k1 = M_1, k2 = M_2 (I + dtheta/2 k1), k3 = M_2 (I + dtheta/2 k2) and
    k4 = M_3 (I + dtheta k3), and A_k = I + dtheta/6 (k1 + 2k2 + 2k3 + k4).
    Each stage entry is held as a (B, m) array, in row-major entry order;
    M's zero diagonal leaves one complex product per entry, which is how
    the stacked matmul rounded it.  The off-diagonal "0 +" keeps the signed
    zeros of an undriven step as the matmul left them.

    Every intermediate is written into the layout's views of the work
    area, by ufuncs with the operands of the plain expressions in their
    order, so the bits are those of freshly allocated temporaries.
    """
    h, dtheta, s = layout.h, layout.dtheta, layout.s
    b, c = layout.b, layout.c
    # full-size operands: numpy would buffer broadcast ones, 16 B per point
    np.copyto(layout.starts, np.asarray(theta0, dtype=float)[:, None])
    np.copyto(layout.grid, layout.offsets)
    np.add(layout.starts, layout.grid, out=layout.grid)
    g = _coupling(drive, omega0, layout.grid, layout.coupling)
    np.conjugate(g, out=c)
    np.multiply(-1j, c, out=c)
    np.multiply(-1j, g, out=b)
    b1, b2, c1, c2 = layout.m12

    # No product of two arrays is written over one of its operands: numpy
    # rounds a one-element complex product in place otherwise than into
    # fresh memory.
    k20, k23, k30, k31, k32, k33, x0, x1, x2, x3 = layout.stages
    # k2 = (b2 (h c1), b2, c2, c2 (h b1))
    np.multiply(b2, np.multiply(h, c1, out=x0), out=k20)
    np.multiply(c2, np.multiply(h, b1, out=x1), out=k23)
    # x = I + h k2
    np.add(1, np.multiply(h, k20, out=x0), out=x0)
    np.multiply(h, b2, out=x1)
    np.multiply(h, c2, out=x2)
    np.add(1, np.multiply(h, k23, out=x3), out=x3)
    # k3 = (b2 x2, b2 x3, c2 x0, c2 x1)
    np.multiply(b2, x2, out=k30)
    np.multiply(b2, x3, out=k31)
    np.multiply(c2, x0, out=k32)
    np.multiply(c2, x1, out=k33)
    # x = I + dtheta k3
    np.add(1, np.multiply(dtheta, k30, out=x0), out=x0)
    np.multiply(dtheta, k31, out=x1)
    np.multiply(dtheta, k32, out=x2)
    np.add(1, np.multiply(dtheta, k33, out=x3), out=x3)

    # A, entry by entry (see _ChunkLayout)
    for one, k1, k2, k3, m3, x, acc, entry in layout.entries:
        np.multiply(2.0, k2, out=acc)
        if k1 is not None:
            np.add(k1, acc, out=acc)
        np.add(acc, np.multiply(2.0, k3, out=k3), out=acc)
        np.add(acc, np.multiply(m3, x, out=k3), out=acc)
        np.add(one, np.multiply(s, acc, out=acc), out=entry)


def _reduce_steps(layout):
    """Each chunk's product of the one-step operators _build_steps left in
    the layout, a (B, 2, 2) view into its work area.

    The A_k combine by pairwise matrix products along the step axis, on
    stacked matmul: a general 2x2 product written elementwise would not
    round as BLAS does.
    """
    # tail = (dst, src) passes an odd level's last operator through
    for later, earlier, out, tail in layout.levels:
        np.matmul(later, earlier, out=out)
        if tail is not None:
            np.copyto(*tail)
    return layout.result


def adiabatic_phase(drive, omega0, t):
    """Accumulated phase Phi(t) = int_0^t |f|^2/omega0 dt'.

    Closed form eps^2 t/omega0 when |f| is constant (circular or constant
    drives); otherwise segment-wise Simpson quadrature, which is exact for
    the piecewise-linear sampled form.  A phase outside the float range
    (|f|^2 overflows, or the product with t does) is refused with
    DomainError.
    """
    check_instance("drive", drive, DriveField)
    check_positive("omega0", omega0)
    check_nonnegative("t", t)

    def phase():
        if drive.kind == "circular":
            return drive.amplitude**2 * t / omega0
        if drive.kind == "constant":
            return (drive.fx**2 + drive.fy**2) * t / omega0
        knots = drive.times[(drive.times > 0) & (drive.times < t)]
        edges = np.concatenate([[0.0], knots, [t]])
        mids = 0.5 * (edges[:-1] + edges[1:])
        f2_edges = drive.magnitude(edges) ** 2
        f2_mids = drive.magnitude(mids) ** 2
        seg = (edges[1:] - edges[:-1]) / 6.0 * (
            f2_edges[:-1] + 4.0 * f2_mids + f2_edges[1:])
        return float(np.sum(seg)) / omega0
    return in_float_range(f"the adiabatic phase at t = {t!r} s leaves the float "
                          f"range (omega0 = {omega0!r} rad/s)", phase, allow_zero=True)


def overlap_fidelity(trajectory):
    """Re<psi_0(t)|psi(t)> along the trajectory, psi_0 the undriven state.

    The fast phases cancel in the inner product, leaving Re[(u+ + u-)/sqrt(2)]
    for the equal-superposition start.  Rejects trajectories that did not
    start in the equal superposition, where this reduction fails, and a
    start that holds a NaN.
    """
    check_instance("trajectory", trajectory, SpinTrajectory)
    start = np.array([trajectory.u_plus[0], trajectory.u_minus[0]])
    if not np.max(np.abs(start - 1.0 / np.sqrt(2.0))) <= 1e-9:
        raise ValidationError(
            "trajectory", "overlap formula assumes u+(0) = u-(0) = 1/sqrt(2)")
    return np.real((trajectory.u_plus + trajectory.u_minus) / np.sqrt(2.0))

