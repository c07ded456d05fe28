"""Complex polynomials, the Lagrange denominators of a simple pole set, and
circle-positive spectral factorization.

Everything here is plain double-precision arithmetic over small degrees.
A polynomial is the array of its ascending complex coefficients, evaluated
by Horner's rule in `_horner`. A trigonometric polynomial
sum_{|m| <= k} d_m z^m is the array of its full hermitian band
(d_{-k}, ..., d_k). Roots come from the balanced companion matrix, and the
factorization routine splits the root pairs (w, 1/conj(w)) of such a band
when it stays strictly positive on the unit circle; one sampling of the band
there feeds its positivity gate and gamma's R(1).
"""
from __future__ import annotations

import numpy as np


class NotPositiveOnCircleError(ValueError):
    """Input is not strictly positive on the unit circle."""


class RootOnCircleError(ValueError):
    """A factorization root sits numerically on the unit circle."""


# minimum pairwise gap for a usable simple-pole configuration
POLE_GAP = 1e-9
# a root this close to |w| = 1 cannot be assigned to either side of the circle
CIRCLE_ROOT_TOL = 1e-7
# a factorization input counts as positive on the circle when its smallest
# sample exceeds this fraction of its largest
POSITIVITY_GATE = 1e-10
# the n = 4096 equispaced circle points exp(2 pi i j / n) from z = 1, shared
# read-only by every check that samples the circle: that gate and
# density_min read all of them, a symbol's Schur bound every
# RESIDUAL_STRIDE-th
CIRCLE = np.exp(1j * np.linspace(0.0, 2.0 * np.pi, 4096, endpoint=False))
CIRCLE.flags.writeable = False
# not 1: on all of CIRCLE, float excess near the atoms of five perfbench pool
# symbols (5/10 by 5.1e-6) breaks the Schur bound; the 512 points miss it
RESIDUAL_STRIDE = 8
# relative tolerance for the two sides of a full hermitian band to be conjugate
HERMITIAN_BAND_TOL = 1e-9


def check_at_most(value, bound, what: str, error: type[Exception], *args) -> None:
    """The rule of the pipeline's checks against a bound: raise error unless
    value <= bound, so a NaN value or bound fails (`value > bound` passes
    it), naming the check, what.format(*args), its value and its bound to
    9 digits, which tell a row norm of 1 + 4e-7 from a bound of 1 + 1e-8."""
    if not value <= bound:
        raise error(f"{what.format(*args)} check: {value:.9g} is not <= {bound:.9g}")


def check_above(value, floor, what: str, error: type[Exception], *args) -> None:
    """check_at_most's strict twin: raise error unless value > floor, so a
    NaN fails, naming the check, its value and its floor the same way."""
    if not value > floor:
        raise error(f"{what.format(*args)} check: {value:.9g} is not > {floor:.9g}")


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


def poly_roots(coeffs) -> np.ndarray:
    """All degree-many roots of the polynomial with ascending coefficients
    coeffs, from the balanced companion matrix, as a complex array.

    Roots are sorted by (principal argument, modulus) so repeated calls on
    the same coefficients produce the same ordering. The caller's z^k R(z)
    has degree 2k >= 2 and a top coefficient of modulus 1 (boundary_polynomial).
    """
    cs = np.asarray(coeffs, dtype=complex)
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
    (d_{-k}, ..., d_k), ascending in the exponent; boundary_polynomial
    gives a 1-D band of length 2k + 1 with ends of modulus 1.

    The two sides must be conjugate, d_{-m} = conj(d_m), within
    HERMITIAN_BAND_TOL relative to the largest entry; their average is
    factored, which makes the symmetry and d_0 exactly real. R is sampled
    once, on CIRCLE, and must be strictly positive there
    (min > POSITIVITY_GATE * max, which a NaN sample fails). The roots of
    z^k R(z) come in mirror pairs (w, 1/conj(w)); the representatives
    outside the closed unit disc are returned sorted by (argument,
    modulus), and

        gamma = R(1) / prod_j |1 - alpha_j|^2,

    with R(1) read off sample 0. A RuntimeError is raised unless the
    coefficients of gamma q(z) z^k conj(q(1/conj z)), q = prod_j (z - alpha_j),
    match those of z^k R(z) within 1e-8 of R's max sample in l1.

    Returns
    -------
    (gamma, alphas, q) : (float, complex ndarray, complex ndarray)
        gamma > 0, all |alpha_j| > 1 and q = from_roots(alphas). A
        bandwidth-0 input returns d_0, an empty array and q = [1].

    Raises
    ------
    ValueError
        If the band has a non-finite entry or is not hermitian.
    NotPositiveOnCircleError
        If the positivity gate fails.
    RootOnCircleError
        If any root sits within CIRCLE_ROOT_TOL of the circle, or the
        roots do not split k outside and k inside.
    """
    full = np.asarray(band, dtype=complex)
    mid = len(full) // 2
    bad = np.flatnonzero(~np.isfinite(full))
    if len(bad):
        raise ValueError(f"band entry d_{bad[0] - mid} is {full[bad[0]]}, "
                         "not finite")
    closed, mirrored = full[mid:], np.conj(full[mid::-1])
    check_at_most(np.abs(closed - mirrored).max(),
                  HERMITIAN_BAND_TOL * max(np.abs(full).max(), 1e-300),
                  "hermitian band side gap", ValueError)
    # a band near the float range overflows to samples the gate rejects
    with np.errstate(over="ignore", invalid="ignore"):
        upper = 0.5 * (closed + mirrored)
        vals = _band_on_circle(upper, CIRCLE)
    vmin, vmax = float(vals.min()), float(vals.max())
    check_above(vmin, POSITIVITY_GATE * vmax, "smallest circle sample vs {:g} x largest",
                NotPositiveOnCircleError, POSITIVITY_GATE)
    k = len(upper) - 1
    if k == 0:
        return float(upper[0].real), np.empty(0, dtype=complex), from_roots(())

    # the averaged band: the ascending coefficients of z^k R(z)
    band = np.concatenate([np.conj(upper[:0:-1]), upper])
    roots = poly_roots(band)
    moduli = np.hypot(roots.real, roots.imag)
    distance = np.abs(moduli - 1.0)
    closest = int(np.argmin(distance))
    check_above(distance[closest], CIRCLE_ROOT_TOL, "distance to the circle of root {}",
                RootOnCircleError, roots[closest])
    # a subsequence of the sorted roots, so sorted itself
    outer = roots[moduli > 1.0]
    if len(outer) != k:
        raise RootOnCircleError(
            f"expected {k} roots on each side of the circle, "
            f"got {len(outer)} outside and {2 * k - len(outer)} inside")

    # roots near the float range overflow the product, and gamma is 0
    with np.errstate(over="ignore", invalid="ignore"):
        gamma = float(vals[0]) / float(np.prod(np.abs(1.0 - outer) ** 2))
    check_above(gamma, 0.0, "factor constant gamma", NotPositiveOnCircleError)

    # residual gate: on |z| = 1 the l1 gap bounds |gamma |q(z)|^2 - R(z)|
    q = from_roots(outer)
    check_at_most(np.abs(gamma * np.convolve(q, np.conj(q[::-1])) - band).sum(),
                  1e-8 * max(vmax, 1e-300), "factorization residual", RuntimeError)
    return gamma, outer, q
