"""Complex polynomials, the Lagrange denominators of a simple pole set, and
circle-positive spectral factorization.

Everything here is plain double-precision arithmetic over small degrees.
A polynomial is the array of its ascending complex coefficients, evaluated
by Horner's rule in `_horner`. A trigonometric polynomial
sum_{|m| <= k} d_m z^m is the array of its full hermitian band
(d_{-k}, ..., d_k). Roots come from the balanced companion matrix, and the
factorization routine splits the root pairs (w, 1/conj(w)) of such a band
when it stays strictly positive on the unit circle; one sampling of the band
there feeds its positivity gate, gamma's R(1) and its residual gate.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np


class DegreeZeroError(ValueError):
    """Root finding needs degree >= 1."""


class NotPositiveOnCircleError(ValueError):
    """Input is not strictly positive on the unit circle."""


class RootOnCircleError(ValueError):
    """A factorization root sits numerically on the unit circle."""


# minimum pairwise gap for a usable simple-pole configuration
POLE_GAP = 1e-9
# a root this close to |w| = 1 cannot be assigned to either side of the circle
CIRCLE_ROOT_TOL = 1e-7
# absolute tolerance when matching a root w against the mirror 1/conj(w)
MIRROR_PAIR_TOL = 1e-6
# a factorization input counts as positive on the circle when its smallest
# sample exceeds this fraction of its largest
POSITIVITY_GATE = 1e-10
# equispaced circle points on which that gate is checked
POSITIVITY_SAMPLES = 4096
# the factorization residual is checked on every RESIDUAL_STRIDE-th of them
RESIDUAL_STRIDE = 8
# relative tolerance for the two sides of a full hermitian band to be conjugate
HERMITIAN_BAND_TOL = 1e-9


def from_roots(roots) -> np.ndarray:
    """Coefficients of the monic polynomial prod_r (z - roots[r]), one
    linear factor convolved in at a time."""
    acc = np.array([1.0 + 0.0j])
    for r in roots:
        acc = np.convolve(acc, np.array([-complex(r), 1.0]))
    return acc


def _horner(coeffs: np.ndarray, z) -> np.ndarray:
    """sum_i coeffs[..., i] z^i by Horner's rule along the last axis.

    Each row of ascending coefficients is evaluated at the points z, which
    broadcast against coeffs[..., 0]: a (k, n) stack at k points gives
    row j at point j, a (k, 1, n) stack at m points gives a (k, m) table.
    Rows without coefficients are the zero polynomial.
    """
    acc = np.zeros(np.shape(z), dtype=complex)
    for i in range(coeffs.shape[-1] - 1, -1, -1):
        acc = acc * z + coeffs[..., i]
    return acc


@lru_cache(maxsize=4)
def circle_points(n: int) -> np.ndarray:
    """The n equispaced points exp(2 pi i j / n), j = 0..n-1, built once
    per n and shared read-only by every check that samples the circle."""
    zs = np.exp(1j * np.linspace(0.0, 2.0 * np.pi, n, endpoint=False))
    zs.flags.writeable = False
    return zs


def poly_roots(coeffs) -> np.ndarray:
    """All degree-many roots of the polynomial with ascending coefficients
    coeffs, from the balanced companion matrix, as a complex array.

    Roots are sorted by (principal argument, modulus) so repeated calls on
    the same coefficients produce the same ordering.

    Raises
    ------
    DegreeZeroError
        If the polynomial is constant (the zero polynomial included).
    """
    cs = np.trim_zeros(np.asarray(coeffs, dtype=complex), "b")
    if len(cs) < 2:
        raise DegreeZeroError("root finding needs a polynomial of degree >= 1")
    # numpy.polynomial's companion matrix, without importing it
    companion = np.eye(len(cs) - 1, k=-1, dtype=complex)
    companion[:, -1] -= cs[:-1] / cs[-1]
    roots = np.linalg.eigvals(companion)
    # hypot is the modulus abs() takes of a complex scalar, to the last bit
    order = np.lexsort((np.hypot(roots.real, roots.imag), np.angle(roots)))
    return roots[order]


def lagrange_denominators(poles) -> np.ndarray:
    """a_r = prod_{t != r} (poles[r] - poles[t]); the empty product is 1."""
    ps = np.asarray(poles, dtype=complex)
    diff = ps[:, None] - ps[None, :]
    np.fill_diagonal(diff, 1.0)
    return diff.prod(axis=1)


def inverse_powers(points: np.ndarray, count: int) -> np.ndarray:
    """P[m - 1, r] = (1/points[r])^m for m = 1..count, by running
    products of the reciprocal. For a pole the reciprocal lies in the
    open disc, so the powers of a far pole underflow towards 0 where
    alpha_r^-m would overflow. On the benchmark's measure pool, running
    products left slightly less rounding drift in the Taylor engine's
    forward differences than numpy's power of the reciprocal."""
    inverse = 1.0 / points
    return np.cumprod(np.broadcast_to(inverse, (count, len(inverse))), axis=0)


def _band_on_circle(upper: np.ndarray, z) -> np.ndarray:
    """d_0 + 2 Re sum_{m >= 1} d_m z^m, the exactly real values at unimodular
    z of the hermitian band with closed side upper = (d_0, ..., d_k)."""
    return upper[0].real + 2.0 * (_horner(upper[1:], z) * z).real


def fejer_riesz_factor(band):
    """Factor R(z) = gamma * prod_j |z - alpha_j|^2 on |z| = 1, where R is
    the hermitian band sum_{|m| <= k} d_m z^m given as the full array
    (d_{-k}, ..., d_k), ascending in the exponent.

    The two sides must be conjugate, d_{-m} = conj(d_m), within
    HERMITIAN_BAND_TOL relative to the largest entry; their average is
    factored, which makes the symmetry and d_0 exactly real, and zero
    outermost pairs are dropped. R is sampled once, at the POSITIVITY_SAMPLES
    equispaced circle points from z = 1, and must be strictly positive there
    (min > POSITIVITY_GATE * max). The roots of z^k R(z) come in mirror
    pairs (w, 1/conj(w)); the representatives outside the closed unit disc
    are returned sorted by (argument, modulus), and

        gamma = R(1) / prod_j |1 - alpha_j|^2,

    with R(1) read off sample 0. A RuntimeError is raised unless this product
    form matches R within 1e-8 of its max on every RESIDUAL_STRIDE-th sample.

    Returns
    -------
    (gamma, alphas) : (float, complex ndarray)
        gamma > 0 and all |alpha_j| > 1. A bandwidth-0 input returns d_0
        and an empty array.

    Raises
    ------
    ValueError
        If the band is not 1-D of odd length, has a non-finite entry, or
        is not hermitian.
    NotPositiveOnCircleError
        If the positivity gate fails.
    RootOnCircleError
        If any root sits within CIRCLE_ROOT_TOL of the circle, or the
        mirror pairing cannot be completed within MIRROR_PAIR_TOL.
    """
    full = np.asarray(band, dtype=complex)
    if full.ndim != 1 or len(full) % 2 != 1:
        raise ValueError(f"band has shape {full.shape}, not (2k + 1,)")
    mid = len(full) // 2
    bad = np.flatnonzero(~np.isfinite(full))
    if len(bad):
        raise ValueError(f"band entry d_{bad[0] - mid} is {full[bad[0]]}, "
                         "not finite")
    closed, mirrored = full[mid:], np.conj(full[mid::-1])
    gap = np.abs(closed - mirrored).max()
    if gap > HERMITIAN_BAND_TOL * max(np.abs(full).max(), 1e-300):
        raise ValueError("band is not hermitian within tolerance")
    upper = 0.5 * (closed + mirrored)
    upper = upper[:int(np.flatnonzero(upper).max(initial=0)) + 1]

    vals = _band_on_circle(upper, circle_points(POSITIVITY_SAMPLES))
    vmin, vmax = float(vals.min()), float(vals.max())
    if vmax <= 0.0:
        raise NotPositiveOnCircleError(
            f"max of {POSITIVITY_SAMPLES} circle samples is {vmax:.3e}, "
            "not positive")
    if vmin <= POSITIVITY_GATE * vmax:
        raise NotPositiveOnCircleError(
            f"relative sampling gate: min/max of {POSITIVITY_SAMPLES} circle "
            f"samples is {vmin / vmax:.3e}, needs > {POSITIVITY_GATE:.0e} "
            f"(min {vmin:.3e}, max {vmax:.3e})")
    k = len(upper) - 1
    if k == 0:
        return float(upper[0].real), np.empty(0, dtype=complex)

    # z^k R(z) has ascending coefficients equal to the full band of R
    roots = poly_roots(np.concatenate([np.conj(upper[:0:-1]), upper]))
    moduli = np.hypot(roots.real, roots.imag)
    on_circle = np.flatnonzero(np.abs(moduli - 1.0) <= CIRCLE_ROOT_TOL)
    if on_circle.size:
        w = complex(roots[on_circle[0]])
        raise RootOnCircleError(f"root {w} has modulus {abs(w)}")
    # both are subsequences of the sorted roots, so sorted themselves
    outer, inner = roots[moduli > 1.0], roots[moduli < 1.0]
    if len(outer) != k or len(inner) != k:
        raise RootOnCircleError(
            f"expected {k} roots on each side of the circle, "
            f"got {len(outer)} outside and {len(inner)} inside")
    # each outer root in turn takes the nearest inner root not yet taken
    gaps = np.abs(inner[None, :] - 1.0 / np.conj(outer)[:, None])
    for w, row in zip(outer, gaps):
        best = int(np.argmin(row))
        if row[best] > MIRROR_PAIR_TOL:
            raise RootOnCircleError(
                f"no mirror partner for root {w}: nearest is off by {row[best]:.3e}")
        gaps[:, best] = np.inf

    gamma = float(vals[0]) / float(np.prod(np.abs(1.0 - outer) ** 2))
    if gamma <= 0.0:
        raise NotPositiveOnCircleError(f"factor constant {gamma} is not positive")

    # residual gate: the reconstruction must match R on the circle
    zs = circle_points(POSITIVITY_SAMPLES)[::RESIDUAL_STRIDE]
    recon = gamma * np.prod(np.abs(zs[:, None] - outer) ** 2, axis=1)
    resid = np.abs(recon - vals[::RESIDUAL_STRIDE]).max()
    if resid > 1e-8 * max(vmax, 1e-300):
        raise RuntimeError(
            f"factorization residual {resid:.3e} exceeds 1e-8 * {vmax:.3e}")
    return gamma, outer
