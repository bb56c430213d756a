"""Inverse-power lattice sums over the ion chain.

S_n(i) = sum_{j != i} |u_i - u_j|^-n has the useful shortcut
2 zeta(n)/s^n in terms of the local spacing s, and the chain total
T_n = sum_i s^-n(z_i) has an integral asymptotic (L/s0^(n+1)) *
sqrt(4 pi/(4n+7)).  Everything here stays in dimensionless d0 units;
dimensional prefactors belong to the decoherence module (s0^-16 in
meters would underflow/overflow long before physics entered).

The exact pair sums of every ion (pair_sum_exact_all) run on the chain
module's pairwise kernel, which hands _inverse_power the distances
|u_i - u_j| > 0 of each pair once.  Each term's relative error is at most
2n * 2^-64, below half a float64 ulp for n < 512; the float64 sums may
differ from a libm powl evaluation in their last bit.  An IonChain is
immutable, so the sums are memoized on the chain per exponent; callers
get a copy and may modify it freely.  zeta is a table of recorded bits,
the same on every host.  A sum or total that leaves the float range
raises DomainError (an exact one may underflow to 0).
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .continuum import ContinuumModel, _length_and_spacing, _profile, invert_cubic_count
from .errors import (DomainError, _shown, check_instance, check_integer, check_positive,
                     in_float_range)

if TYPE_CHECKING:
    import numpy as np

    from .chain import IonChain

# zeta(n) for n = 2...52, recorded as float.hex: the bits that
#     float(np.sum(np.arange(1, 10**6 + 1, dtype=float) ** -float(n))) + tail,
#     tail = 0.5 * (1e6 ** (1 - n) + (1e6 + 1) ** (1 - n)) / (n - 1),
# returns with numpy 2.4.6 on an x86-64 host with AVX-512 (numpy's SVML
# float64 power); tests/test_sums.py::test_zeta_bits_match_one_array_sum
# recomputes them.  From n = 53 on that sum is exactly 1.0.
_ZETA = tuple(map(float.fromhex, (
    "0x1.a51a6625307d3p+0", "0x1.33ba004f00620p+0", "0x1.151322ac7d848p+0",
    "0x1.097418eca7ccep+0", "0x1.0470984c09243p+0", "0x1.02232da14cf3ap+0",
    "0x1.010b36af86396p+0", "0x1.00839f3d816b7p+0", "0x1.00412e33a5bb9p+0",
    "0x1.0020631be48b2p+0", "0x1.001020a5b2cd3p+0", "0x1.00080ac9d08bcp+0",
    "0x1.00040392bcad4p+0", "0x1.0002012f797e3p+0", "0x1.00010064cdeb2p+0",
    "0x1.00008021839b4p+0", "0x1.0000400b2654ep+0", "0x1.00002003b611fp+0",
    "0x1.000010013c595p+0", "0x1.00000800695d6p+0", "0x1.000004002319bp+0",
    "0x1.000002000bb1ep+0", "0x1.0000010003e5ap+0", "0x1.00000080014c7p+0",
    "0x1.00000040006edp+0", "0x1.000000200024fp+0", "0x1.00000010000c5p+0",
    "0x1.0000000800042p+0", "0x1.0000000400016p+0", "0x1.0000000200007p+0",
    "0x1.0000000100002p+0", "0x1.0000000080001p+0", "0x1.0000000040000p+0",
    "0x1.0000000020000p+0", "0x1.0000000010000p+0", "0x1.0000000008000p+0",
    "0x1.0000000004000p+0", "0x1.0000000002000p+0", "0x1.0000000001000p+0",
    "0x1.0000000000800p+0", "0x1.0000000000400p+0", "0x1.0000000000200p+0",
    "0x1.0000000000100p+0", "0x1.0000000000080p+0", "0x1.0000000000040p+0",
    "0x1.0000000000020p+0", "0x1.0000000000010p+0", "0x1.0000000000008p+0",
    "0x1.0000000000004p+0", "0x1.0000000000002p+0", "0x1.0000000000001p+0",
)))


def zeta(n: int) -> float:
    """Riemann zeta(n) for integer n >= 2, relative error <= 4e-16.

    A lookup in _ZETA, the recorded bits of a direct summation of j^-n up
    to j = 1e6 plus the midpoint of the two integral tail bounds, so every
    host returns the same bits.  The bound is tested against mpmath for
    n = 2...64.
    """
    n = _check_exponent(n)
    return _ZETA[n - 2] if n - 2 < len(_ZETA) else 1.0


def pair_sum_exact_all(chain: IonChain, n: int) -> np.ndarray:
    """S_n(i) for every ion in one mirrored pass, memoized on the chain."""
    n = _check_exponent(n)
    from .chain import IonChain, _area, _row_sums

    check_integer("n_ions", check_instance("chain", chain, IonChain).n_ions, 2)
    sums = chain._pair_sums.get(n)
    if sums is None:
        sums = in_float_range(f"S_{n} overflows a float on this chain", lambda: _row_sums(
            chain.positions, lambda d, spare: _inverse_power(d, n, spare), odd=False,
            work=_area(chain.n_ions)).astype(float), allow_zero=True)
        chain._pair_sums[n] = sums
    return sums.copy()


def _inverse_power(d: np.ndarray, n: int, spare: np.ndarray) -> np.ndarray:
    """d^-n for integer n >= 1, computed in d's own buffer and returned.

    One reciprocal, then left-to-right square-and-multiply over the bits
    of n; only an n that is not a power of two needs a second buffer, for
    the base: the start of ``spare``, flat, of d's dtype and at least
    d.size long.  d holds distances d > 0, and +inf gives 0.
    """
    import numpy as np

    np.reciprocal(d, out=d)
    bits = bin(n)[3:]
    base = None
    if "1" in bits:
        base = spare[:d.size].reshape(d.shape)
        base[...] = d
    for bit in bits:
        np.multiply(d, d, out=d)
        if bit == "1":
            np.multiply(d, base, out=d)
    return d


def pair_sum_approx(s_local: float, n: int) -> float:
    """Zeta shortcut 2 zeta(n)/s^n for a locally uniform chain."""
    n = _check_exponent(n)
    check_positive("s_local", s_local)
    return in_float_range(f"s^{n} at s = {s_local!r} leaves the float range",
                          lambda: 2.0 * zeta(n) / s_local ** float(n))


@dataclass(frozen=True)
class ContinuumSites:
    """Ion sites predicted by a continuum model, with the model spacing there.

    Sites come from inverting the cumulative count n(z) = (z - z^3/3L^2)/s0
    at the centered indices m = i - (N+1)/2; the spacing at each site is the
    profile value s0/(1 - z^2/L^2).  All in d0 units.
    """

    sites: np.ndarray
    spacings: np.ndarray


def continuum_sites(n_ions: int, model: ContinuumModel) -> ContinuumSites:
    """Predict all N ion sites from a continuum model.

    For DubinFluid the count inversion covers every ion (the density
    integrates to exactly N).  The NearestNeighbor normalization
    integrates to N/3 (4L/(3 s0) with L^3 = pi^2 N/2), so its cubic has no
    solution for the outer ions and it is rejected here rather than
    silently placing only the inner third of the chain.
    """
    L, s0 = _length_and_spacing(n_ions, model)
    import numpy as np

    z = invert_cubic_count(np.arange(n_ions) - (n_ions - 1) / 2.0, L, s0)
    return ContinuumSites(sites=z, spacings=_profile(s0, z / L))


def chain_total_exact(sites: ContinuumSites, n: int) -> float:
    """T_n = sum_i s_i^-n over predicted ion sites, in d0 units.

    s_i is the model spacing at each site: the form whose integral
    approximation is chain_total_asymptotic.
    """
    n = _check_exponent(n)
    check_instance("sites", sites, ContinuumSites)
    import numpy as np

    return in_float_range(f"T_{n} overflows a float on these sites",
                          lambda: float(np.sum(sites.spacings ** -float(n))), allow_zero=True)


def chain_total_asymptotic(n_ions: int, n: int, model: ContinuumModel) -> float:
    """T_n from the continuum integral (L/s0^(n+1)) sqrt(4 pi/(4n+7)).

    L and s0 are the model's half-length and central spacing at N ions.
    sqrt(4 pi/(4n+7)) is the large-n form of the integral of (1 -
    x^2)^(n+1) over [-1, 1], sqrt(pi) Gamma(n+2)/Gamma(n+5/2), and is high
    by less than 1/(64 (n+1)^2) relative for n = 2...64.
    """
    length, s0 = _length_and_spacing(n_ions, model)
    return _total_asymptotic(n_ions, _check_exponent(n), length, s0)


def _total_asymptotic(n_ions: int, n: int, length: float, s0: float) -> float:
    """chain_total_asymptotic from the model's L and s0 at n_ions, for a
    caller that has them already."""
    return in_float_range(
        f"T_{n} from the continuum integral at N = {n_ions:.6g} leaves the float range",
        lambda: (length / s0 ** (n + 1.0)) * math.sqrt(4.0 * math.pi / (4.0 * n + 7.0)))


def _check_exponent(n: int) -> int:
    """n as an int, if it is an integer (Python or numpy) >= 2."""
    if not isinstance(n, numbers.Integral) or n < 2:
        raise DomainError(f"lattice sums need integer n >= 2, got {_shown(n)}")
    return int(n)
