"""Second derivations of symbol-level quantities, kept as test oracles:
the rotated measure, for the rotation covariance of the pipeline; the
boundary band with each partial product convolved from scratch, which
`symbolpipe.boundary_polynomial` continues from shared prefixes; the
kernel sum_t p_t(z) conj(p_t(w)) / (q(z) conj(q(w))) evaluated on a grid,
for comparing symbols built along different routes; and the atom Gram
matrix built entry by entry from one polynomial per atom, with its
condition number, which `symbolpipe.gram_from_outer` assembles as array
passes over all atoms at once; the numerator matrix eta = C^H C, which the
report no longer prints; the split of a numerator matrix by eigh, a clip
to the PSD cone and a phase-fixed QR, which `symbolpipe.measure_to_symbol`
replaced by its Cholesky factor; and two forms of the Fejer-Riesz
constant that `RationalSymbol.gamma_fr` reads off the poles, the antipodal
closed form (rp - cp)^2 / 4 and a 50-digit evaluation at Newton-polished
poles; and, at 60 digits, the radical form of the antipodal closed form
that `symbolpipe.closed_form_antipodal`'s product form replaced.
"""
import cmath
import math

import mpmath
import numpy as np
from numpy.polynomial import polynomial as npoly

from cauchydual.symbolpipe import (
    CircleMeasure,
    EtaNotPSDError,
    GramData,
    GramSingularError,
    OuterData,
    RationalSymbol,
)


class NotUnimodularError(ValueError):
    """Rotation parameter must lie on the unit circle."""


def rotate_measure(mu: CircleMeasure, zeta: complex) -> CircleMeasure:
    """Pull the measure back along z -> zeta * z.

    Every atom location zeta_j moves to conj(zeta) * zeta_j; weights are
    unchanged. zeta must be unimodular to 1e-12.
    """
    zeta = complex(zeta)
    if abs(abs(zeta) - 1.0) > 1e-12:
        raise NotUnimodularError(f"|zeta| = {abs(zeta)}")
    phi = cmath.phase(zeta)
    return CircleMeasure(tuple(t - phi for t in mu.thetas), mu.weights)


def boundary_band(mu: CircleMeasure) -> np.ndarray:
    """The full hermitian band of prod_j |z-zeta_j|^2 + sum_j c_j
    prod_{l!=j} |z-zeta_l|^2, every product convolved left to right from
    [1]: k^2 convolutions for k atoms."""
    factors = [
        np.array([-z, 2.0, -np.conj(z)], dtype=complex) for z in mu.zetas()
    ]

    def band_product(fs):
        acc = np.array([1.0 + 0.0j])
        for f in fs:
            acc = np.convolve(acc, f)
        return acc

    k = mu.size
    acc = np.zeros(2 * k + 1, dtype=complex)
    acc += band_product(factors)
    for j, c in enumerate(mu.weights):
        partial = band_product(factors[:j] + factors[j + 1:])
        lo = (len(acc) - len(partial)) // 2
        acc[lo: lo + len(partial)] += c * partial
    return acc


def eta_values(sym: RationalSymbol, z, w) -> np.ndarray:
    """Kernel sum_t p_t(z) conj(p_t(w)) / (q(z) conj(q(w))) on a grid.

    z and w are 1-d arrays; the result has shape (len(z), len(w)).
    """
    zs = np.asarray(z, dtype=complex).ravel()
    ws = np.asarray(w, dtype=complex).ravel()
    acc = np.zeros((len(zs), len(ws)), dtype=complex)
    for p in sym.coefficients:
        acc += np.outer(npoly.polyval(zs, p), np.conj(npoly.polyval(ws, p)))
    return acc / np.outer(npoly.polyval(zs, sym.q), np.conj(npoly.polyval(ws, sym.q)))


def eta(sym: RationalSymbol) -> np.ndarray:
    """Numerator matrix eta = C^H C, hermitianized, where row t of C holds
    the coefficients of z^1, ..., z^k in p_t, so that

        sum_t p_t(z) conj(p_t(w)) = sum_{i,j} eta[j, i] z^{i+1} conj(w)^{j+1}.
    """
    C = np.ascontiguousarray(sym.coefficients[:, 1:])
    out = C.conj().T @ C
    return 0.5 * (out + out.conj().T)


def _phase_fixed_upper(R: np.ndarray) -> np.ndarray:
    out = R.copy()
    for i in range(out.shape[0]):
        d = out[i, i]
        if abs(d) > 1e-300:
            out[i, :] *= np.conj(d) / abs(d)
    return out


def psd_split(A: np.ndarray) -> np.ndarray:
    """Upper triangular P with P* P the PSD projection of the hermitian A:
    eigenvalues below -1e-8 of the largest are an EtaNotPSDError, smaller
    negative ones are clipped to 0, and the QR factor of
    sqrt(clipped) V* has each row's phase turned to make its diagonal
    real and nonnegative."""
    evals, vecs = np.linalg.eigh(A)
    norm = max(float(np.abs(evals).max()), 1e-300)
    if evals.min() < -1e-8 * norm:
        raise EtaNotPSDError(f"numerator matrix eigenvalues {evals}")
    clipped = np.clip(evals, 0.0, None)
    A_psd = (vecs * clipped) @ vecs.conj().T
    A_psd = 0.5 * (A_psd + A_psd.conj().T)

    M = (np.sqrt(clipped)[:, None]) * vecs.conj().T
    P = _phase_fixed_upper(np.linalg.qr(M)[1])
    split = np.abs(P.conj().T @ P - A_psd).max()
    if split > 1e-10 * max(norm, 1.0):
        raise RuntimeError(f"cholesky split residual {split:.3e}")
    return P


def antipodal_gamma(c1: float, c2: float) -> float:
    """Fejer-Riesz constant of c1 delta_{+1} + c2 delta_{-1} in closed
    form: (rp - cp)^2 / 4 with cp = sqrt(c1) + sqrt(c2) and
    rp = sqrt(4 + cp^2)."""
    cp = math.sqrt(c1) + math.sqrt(c2)
    rp = math.sqrt(4.0 + cp * cp)
    return (rp - cp) ** 2 / 4.0


def antipodal_radicals_60_digits(c1: float, c2: float):
    """((alpha1, alpha2), (gamma1, gamma2, gamma3)) of
    `symbolpipe.closed_form_antipodal(c1, c2)` at 60 digits, by the radical
    form that its product form replaced. In floats the gamma3 radicand
    cancels (1.2e-6 relative off at 1e-4 : 1e4, 6.7e-5 at 1e-12 : 1e-12);
    at 60 digits it keeps more than 30 digits over the tested weights."""
    with mpmath.workdps(60):
        r1, r2 = mpmath.sqrt(mpmath.mpf(c1)), mpmath.sqrt(mpmath.mpf(c2))
        cp, cm = r1 + r2, r1 - r2
        rp, rm = mpmath.sqrt(4 + cp ** 2), mpmath.sqrt(4 + cm ** 2)
        alpha1, alpha2 = (cm + rm) * (cp + rp) / 4, (cm - rm) * (cp + rp) / 4
        s, prod = alpha1 + alpha2, alpha1 * alpha2
        g1 = mpmath.sqrt(s * s + prod * (1 - alpha1 ** 2) * (1 - alpha2 ** 2)
                         / (prod - 1))
        g2 = -s * (1 + prod) / g1
        g3 = mpmath.sqrt(1 - prod * (3 - prod - alpha1 ** 2 - alpha2 ** 2)
                         / (prod - 1) - g2 * g2)
        return (alpha1, alpha2), (g1, g2, g3)


def _convolve(a: list, b: list) -> list:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def fejer_riesz_gamma_50_digits(mu: CircleMeasure, alphas) -> float:
    """The Fejer-Riesz constant gamma = 1/prod_r |alpha_r| at 50 digits.

    On the circle z |z - zeta|^2 = (z - zeta)(1 - conj(zeta) z), so z^k
    times the boundary weight is the polynomial
    prod_j h_j + sum_j c_j z prod_{l != j} h_l, built here in mpmath from
    the exact atoms; each float pole is polished by four Newton steps on
    it, from the 1e-12 of the float roots to beyond 50 digits."""
    with mpmath.workdps(50):
        factors = [[-z, 2, -mpmath.conj(z)]
                   for z in (mpmath.expj(mpmath.mpf(t)) for t in mu.thetas)]

        def product(fs):
            acc = [mpmath.mpc(1)]
            for f in fs:
                acc = _convolve(acc, f)
            return acc

        poly = product(factors)
        for j, c in enumerate(mu.weights):
            partial = [0] + product(factors[:j] + factors[j + 1:]) + [0]
            poly = [a + mpmath.mpf(c) * b for a, b in zip(poly, partial)]
        size = mpmath.mpf(1)
        for a in alphas:
            z = mpmath.mpc(a)
            for _ in range(4):
                value, slope = mpmath.polyval(poly[::-1], z, derivative=True)
                z -= value / slope
            size *= abs(z)
        return float(1 / size)


def gram_from_outer(mu: CircleMeasure, outer: OuterData) -> GramData:
    """Hermitian Gram matrix of the functions (p/q) / (O'(zeta_j)(z - zeta_j)).

    Diagonal entries are c_j zeta_j f_j'(zeta_j); off-diagonal entries are
    1 / (O'(zeta_i) conj(O'(zeta_j)) (1 - zeta_i conj(zeta_j))).
    """
    zetas = mu.zetas()
    k = mu.size
    # p is monic times the scale e^{i theta0}/sqrt(gamma), so p[-1] is it
    scale = outer.p[-1]
    U = np.array([scale * npoly.polyfromroots(np.delete(zetas, j))
                  for j in range(k)])

    def u(i, z, der=0):
        return npoly.polyval(z, npoly.polyder(U[i], der))

    def q(z, der=0):
        return npoly.polyval(z, npoly.polyder(outer.q, der))

    oprime = np.array([u(j, zetas[j]) / q(zetas[j]) for j in range(k)])

    G = np.empty((k, k), dtype=complex)
    for i in range(k):
        # f_i = u_i / (O'(zeta_i) q); quotient rule at the atom itself
        z = zetas[i]
        fprime = (u(i, z, 1) * q(z) - u(i, z) * q(z, 1)) / (oprime[i] * q(z) ** 2)
        G[i, i] = mu.weights[i] * zetas[i] * fprime
        for j in range(k):
            if j == i:
                continue
            G[i, j] = 1.0 / (
                oprime[i] * np.conj(oprime[j]) * (1.0 - zetas[i] * np.conj(zetas[j])))
    G = 0.5 * (G + G.conj().T)
    evals = np.linalg.eigvalsh(G)
    if evals.min() <= 1e-13 * max(abs(evals).max(), 1e-300):
        raise GramSingularError(f"Gram eigenvalues {evals}")
    inv = np.linalg.solve(G, np.eye(k, dtype=complex))
    cond = float(abs(evals).max() / abs(evals).min())
    resid = np.abs(G @ inv - np.eye(k)).max()
    if resid > 1e-9 * cond:
        raise GramSingularError(f"inversion residual {resid:.3e} at condition {cond:.3e}")
    return GramData(G, inv, oprime, U)


def condition(gram: GramData) -> float:
    """Spectral condition number of the Gram matrix."""
    evals = np.linalg.eigvalsh(gram.gram)
    return float(evals.max() / evals.min())
