"""Subnormality certificates for the Cauchy dual of the shift attached to
a row symbol.

The decision chain, in the order `run_certificates` applies it: the
necessary measure supported on [0, 1], whose failure is a definitive
refutation even where orthogonality passes; exact numerator orthogonality
at the poles, a sufficient condition; when every off-diagonal pole product
is a distinct point outside the ray [1, oo), orthogonality is also
necessary, so its failure refutes without waiting for a truncation
witness; and last, truncated Agler-type positivity matrices computed by
two engines (pole side and Taylor side) in one shared basis, with the
Taylor side's distance from that basis measured once. A symbol that passes
orthogonality also gets its explicit representing measure, whose moments
are checked against the kernel table (representing_measure).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import kernels
from .polyrat import circle_points
from .symbolpipe import RationalSymbol

VERDICT_CERTIFIED = "CertifiedSubnormal"
VERDICT_REFUTED = "RefutedAtLevel"
VERDICT_INCONCLUSIVE = "InconclusiveAtTruncation"


class InsufficientRowsError(ValueError):
    """Taylor table is too short for the requested truncation and levels."""


@dataclass(frozen=True)
class CertificateConfig:
    """Truncation sizes for the certificate battery; the tolerances are
    the module constants TOL_PSD and TOL_ORTH."""

    levels: int = 12
    trunc: int = 40

    def __post_init__(self):
        if self.levels < 1 or self.trunc < 2:
            raise ValueError("need levels >= 1 and trunc >= 2")


@dataclass(frozen=True, eq=False)
class PolePairing:
    """Numerator values paired at the poles.

    pair[r, t] = sum_j p_j(alpha_r) conj(p_j(alpha_t)); cross is the cross
    Gram matrix C = pair / (a conj(a)^T), hermitian with nonnegative
    diagonal, where a_r are the Lagrange denominators of the pole set.
    """

    pair: np.ndarray
    cross: np.ndarray


def pole_pairing(sym: RationalSymbol) -> PolePairing:
    """Evaluate the numerators at the poles once and pair them."""
    vals = sym.numerators_at_poles
    pair = (vals.conj().T @ vals).conj()
    a = sym.lagrange_denominators
    C = pair / np.outer(a, np.conj(a))
    return PolePairing(pair, 0.5 * (C + C.conj().T))


def orthogonality_test(pairing: PolePairing):
    """Relative size of the worst off-diagonal numerator pairing at the poles.

    Returns (residual, passed); a symbol with fewer than two poles passes
    vacuously with residual 0.
    """
    pair = pairing.pair
    if len(pair) <= 1:
        return 0.0, True
    diag = np.abs(np.diag(pair).real)
    off = np.abs(pair - np.diag(np.diag(pair)))
    residual = float(off.max() / max(diag.max(), 1e-300))
    return residual, residual <= TOL_ORTH


@dataclass(frozen=True)
class LevelStat:
    """One Agler level: the smallest eigenvalue and the largest eigenvalue
    modulus of its N x N truncation, and the Taylor engine's gap to the
    pole engine's core (agler_taylor_test; 0 for the pole engine)."""

    level: int
    min_eig: float
    norm: float
    gap: float = 0.0

    def passes(self) -> bool:
        """min_eig >= -TOL_PSD norm and gap <= TOL_PSD norm: a level that
        drifted beyond the tolerance cannot vouch for positivity."""
        bound = TOL_PSD * max(self.norm, 1e-300)
        return self.min_eig >= -bound and self.gap <= bound


def _level_stats(H: np.ndarray, trunc: int, gap=0.0) -> tuple:
    """LevelStat per level from the hermitian r x r matrices H[l - 1]
    that stand for N x N matrices of rank r, N = trunc, with one batched
    eigvalsh; when N > r the N - r zero eigenvalues count as one 0. For
    r = 0 every stat is 0 and nothing is solved."""
    levels, r = len(H), H.shape[-1]
    lows, norms = np.zeros(levels), np.zeros(levels)
    if r:
        evals = np.linalg.eigvalsh(H)
        if trunc > r:
            evals = np.concatenate((evals, np.zeros((levels, 1))), axis=1)
        lows, norms = evals.min(axis=1), np.abs(evals).max(axis=1)
    return tuple(map(LevelStat, range(1, levels + 1), lows.tolist(),
                     norms.tolist(), np.broadcast_to(gap, levels).tolist()))


def pole_basis(sym: RationalSymbol, trunc: int) -> tuple:
    """Reduced QR, V^T = Q R, of the trunc x k matrix
    V^T[m, r] = (1/alpha_r)^(m+2): Q is trunc x r with orthonormal columns
    and R is r x k, r = min(k, trunc). Every level matrix of the N x N
    truncation, N = trunc, is V^T X_l conj(V) for a k x k core X_l, so
    both engines work in this basis."""
    return np.linalg.qr(sym.inverse_pole_powers(trunc + 1)[1:])


def pole_cores(sym: RationalSymbol, cross: np.ndarray, R: np.ndarray,
               levels: int) -> np.ndarray:
    """H[l - 1] = R X_l R^H, hermitian, for l = 1..levels, where
    X_l = C o G^l with G = 1 - 1/(alpha conj(alpha)^T) is the k x k core
    of level l: the level's matrix in the pole basis, shape
    (levels, r, r)."""
    G = 1.0 - 1.0 / sym.pole_products
    X = np.empty((levels,) + G.shape, dtype=complex)
    np.multiply(cross, G, out=X[0])
    for l in range(1, levels):
        np.multiply(X[l - 1], G, out=X[l])
    H = R @ X @ R.conj().T
    return 0.5 * (H + H.conj().swapaxes(1, 2))


def agler_pole_test(cores: np.ndarray, cfg: CertificateConfig) -> tuple:
    """LevelStat per level 1..levels of the N x N pole-side truncation

        M_l[m, n] = sum_{r,t} C[r,t] (1 - 1/(alpha_r conj(alpha_t)))^l
                    * alpha_r^-(m+2) conj(alpha_t)^-(n+2),

    N = cfg.trunc. M_l = V^T X_l conj(V) = Q (R X_l R^H) Q^H with the
    pole basis Q, R, so the nonzero eigenvalues of M_l are those of its
    r x r core from pole_cores, and the other N - r are exactly zero.
    """
    return _level_stats(cores, cfg.trunc)


def _taylor_windows(taylor: np.ndarray, cfg: CertificateConfig) -> np.ndarray:
    """A = [A_0 ... A_L], N x (L + 1) k: A_j holds the Taylor rows j + 1 ..
    j + N (table rows j .. j + N - 1), N = trunc and L = levels."""
    N, L = cfg.trunc, cfg.levels
    if len(taylor) < N + L:
        raise InsufficientRowsError(
            f"need {N + L} rows, table has {len(taylor)}")
    windows = sliding_window_view(taylor[:N + L], N, axis=0)
    return windows.transpose(2, 0, 1).reshape(N, -1)


def taylor_projection(taylor: np.ndarray, Q: np.ndarray,
                      cfg: CertificateConfig) -> tuple:
    """(A, Y): the Taylor windows A of _taylor_windows and their
    coordinates Y = Q^H A in the pole basis Q, built once for
    agler_taylor_test and taylor_basis_residual."""
    A = _taylor_windows(taylor, cfg)
    return A, Q.conj().T @ A


def agler_taylor_test(Y: np.ndarray, cores: np.ndarray,
                      cfg: CertificateConfig) -> tuple:
    """LevelStat per level 1..levels of the same truncation from the raw
    Taylor rows, M_l = sum_{j=0}^{l} (-1)^j binom(l, j) A_j A_j^H with the
    windows A_j of _taylor_windows. With Y = [Y_0 ... Y_L], Y_j = Q^H A_j
    in the pole basis Q (taylor_projection), P_l = Q^H M_l Q is the l-th
    forward difference of the r x r Grams Y_j Y_j^H (all levels in one
    batched eigvalsh, plus a 0 for the N - r directions outside the basis);
    in exact arithmetic it is the whole level when the windows lie in the
    basis (taylor_basis_residual). gap = ||P_l - cores[l - 1]||_F is where
    rounding in the alternating sums shows.
    """
    Y = Y.reshape(len(Y), cfg.levels + 1, Y.shape[1] // (cfg.levels + 1))
    Y = Y.transpose(1, 0, 2)
    G = Y @ Y.conj().swapaxes(1, 2)
    P = np.empty_like(cores)
    for l in range(cfg.levels):
        G = G[:-1] - G[1:]
        P[l] = G[0]
    P = 0.5 * (P + P.conj().swapaxes(1, 2))
    return _level_stats(P, cfg.trunc, np.linalg.norm(P - cores, axis=(1, 2)))


def taylor_basis_residual(A: np.ndarray, Y: np.ndarray, Q: np.ndarray) -> float:
    """||A - Q Y||_F / ||A||_F, Y = Q^H A, for the Taylor windows A (0 for
    an empty table): 0 exactly when every window lies in the pole basis Q.
    It bounds the windows, not each level, which sums 2^l window Grams."""
    scale = max(np.linalg.norm(A), 1e-300)
    return float(np.linalg.norm(A - Q @ Y) / scale)


# Two pole products closer than COINCIDENCE_TOL share a class; a location
# closer than SEGMENT_TOL to [0, 1] counts as lying on it. TOL_PSD bounds a
# negative eigenvalue or a drift relative to its norm, and the necessary
# measure's violations relative to its total variation; TOL_ORTH bounds the
# off-diagonal numerator pairing relative to the largest diagonal one.
COINCIDENCE_TOL = 1e-9
SEGMENT_TOL = 1e-8
TOL_PSD = 1e-8
TOL_ORTH = 1e-9


@dataclass(frozen=True, eq=False)
class CoincidenceClasses:
    """The pole products alpha_r conj(alpha_t), chained into classes of
    points within COINCIDENCE_TOL of each other. order holds the row-major
    flat indices of the products class by class, each class in increasing
    order, and class c takes sizes[c] entries from order[starts[c]] on;
    classes come in the order of their first member. locations[c] is the
    reciprocal of the mean product of class c, and off_segment[c] says it
    lies farther than SEGMENT_TOL from [0, 1]."""

    products: np.ndarray
    order: np.ndarray
    starts: np.ndarray
    sizes: np.ndarray
    locations: np.ndarray
    off_segment: np.ndarray


def _segment_distance(x: np.ndarray) -> np.ndarray:
    return np.hypot(x.real - np.clip(x.real, 0.0, 1.0), x.imag)


def coincidence_classes(sym: RationalSymbol) -> CoincidenceClasses:
    """Group the pole products once for the necessary measure and the
    exactness condition."""
    products = sym.pole_products
    flat = products.ravel()
    close = np.abs(flat[:, None] - flat[None, :]) <= COINCIDENCE_TOL
    # every product takes the smallest index it is chained to
    label = np.arange(flat.size)
    while flat.size:
        lowest = np.where(close, label[None, :], flat.size).min(axis=1)
        if (lowest == label).all():
            break
        label = lowest
    # a label is its class's first member, so a stable sort keeps both orders
    order = np.argsort(label, kind="stable")
    starts = np.flatnonzero(label[order] == order)
    sizes = np.diff(starts, append=flat.size)
    locations = 1.0 / (np.add.reduceat(flat[order], starts) / sizes)
    return CoincidenceClasses(products, order, starts, sizes, locations,
                              _segment_distance(locations) > SEGMENT_TOL)


@dataclass(frozen=True, eq=False)
class NecessaryMeasure:
    """Aggregated necessary measure: one atom per coincidence class of the
    pole products alpha_r conj(alpha_t), located at 1/(alpha_r conj(alpha_t)).
    locations and weights are complex arrays in report order."""

    locations: np.ndarray
    weights: np.ndarray
    worst_violation: float
    worst_location: complex | None


def necessary_measure_test(cross: np.ndarray, classes: CoincidenceClasses):
    """Aggregate the necessary measure and check it is positive on [0, 1].

    Weights of classes located off the segment must vanish; weights on the
    segment must be real and nonnegative, all relative to TOL_PSD times
    the total variation. Failure refutes subnormality outright.
    """
    raw = (cross / classes.products ** 2).ravel()
    weights = np.add.reduceat(raw[classes.order], classes.starts)
    # hypot is the modulus abs() takes of a complex scalar, to the last bit
    sizes = np.hypot(weights.real, weights.imag)
    locations = classes.locations
    scale = max(sum(sizes.tolist()), 1e-300)
    step = TOL_PSD * scale
    # descending weight in steps of TOL_PSD scale, then location
    # with the real part in steps of COINCIDENCE_TOL: a conjugate pair ties in both
    perm = np.lexsort((locations.imag, np.rint(locations.real / COINCIDENCE_TOL),
                       -np.rint(sizes / step)))
    weights, sizes, locations = weights[perm], sizes[perm], locations[perm]
    off = classes.off_segment[perm]

    bad = np.where(off, sizes, np.maximum(np.maximum(-weights.real,
                                                     np.abs(weights.imag)), 0.0))
    worst = float(bad.max(initial=0.0))
    # the first atom in report order among the largest violations counted in
    # the same steps, rounded up so that any violation outranks none
    worst_loc = None
    if worst > 0.0:
        worst_loc = complex(locations[np.argmax(np.ceil(bad / step))])
    passed = worst <= step
    return NecessaryMeasure(locations, weights, float(worst / scale),
                            worst_loc), passed


def exactness_applies(classes: CoincidenceClasses) -> bool:
    """True when there are at least two poles and every off-diagonal pole
    product forms a class of its own located off [0, 1], that is, the
    product is a distinct complex number off the ray [1, oo); orthogonality
    is then necessary as well as sufficient."""
    k = len(classes.products)
    if k < 2:
        return False
    # it holds when k (k - 1) classes are a lone off-diagonal product off
    # the segment; flat index r k + t is diagonal when k + 1 divides it
    lone = ((classes.sizes == 1) & classes.off_segment
            & (classes.order[classes.starts] % (k + 1) != 0))
    return int(np.count_nonzero(lone)) == k * (k - 1)


@dataclass(frozen=True, eq=False)
class CertificateReport:
    verdict: str
    certified_by: str | None
    refuted_by: str | None
    refuted_level: int | None
    refuted_min_eig: float | None
    orth_residual: float
    orth_passed: bool
    agler_pole: tuple
    agler_taylor: tuple
    agler_passed: bool
    taylor_basis_residual: float
    necessary: NecessaryMeasure
    necessary_passed: bool
    exactness: bool
    config: CertificateConfig
    taylor: np.ndarray      # the Taylor rows the Taylor engine ran on
    pairing: PolePairing

    @property
    def exit_code(self) -> int:
        return {VERDICT_CERTIFIED: 0, VERDICT_REFUTED: 1,
                VERDICT_INCONCLUSIVE: 2}[self.verdict]


def run_certificates(sym: RationalSymbol,
                     cfg: CertificateConfig = CertificateConfig()) -> CertificateReport:
    """Run the whole battery and combine the outcomes into one verdict.

    A failed necessary measure refutes at level 0, even where
    orthogonality passes; else orthogonality certifies; when the exactness
    condition holds, a failed orthogonality test also refutes at level 0;
    otherwise a truncation eigenvalue below -10 TOL_PSD ||M_l|| refutes at
    its level, and anything else stays inconclusive (the 10x hysteresis
    band). agler_passed says that the Taylor basis residual is at most
    TOL_PSD and every level of both engines passes (LevelStat.passes).
    Refutation reads min_eig only, so drift can keep a level from passing
    but never refutes.
    """
    pairing = pole_pairing(sym)
    classes = coincidence_classes(sym)
    orth_residual, orth_passed = orthogonality_test(pairing)
    necessary, necessary_passed = necessary_measure_test(pairing.cross, classes)
    taylor = kernels.symbol_taylor(sym, cfg.trunc + cfg.levels)
    Q, R = pole_basis(sym, cfg.trunc)
    cores = pole_cores(sym, pairing.cross, R, cfg.levels)
    pole_stats = agler_pole_test(cores, cfg)
    A, Y = taylor_projection(taylor, Q, cfg)
    taylor_stats = agler_taylor_test(Y, cores, cfg)
    basis_residual = taylor_basis_residual(A, Y, Q)
    exact = exactness_applies(classes)
    agler_passed = basis_residual <= TOL_PSD and all(
        st.passes() for st in pole_stats + taylor_stats)

    certified_by = refuted_by = None
    refuted_level = refuted_min_eig = None
    if not necessary_passed:
        verdict, refuted_by, refuted_level = VERDICT_REFUTED, "necessary_measure", 0
    elif orth_passed:
        verdict, certified_by = VERDICT_CERTIFIED, "orthogonality"
    elif exact:
        verdict, refuted_by, refuted_level = VERDICT_REFUTED, "orthogonality_exactness", 0
    else:
        verdict = VERDICT_INCONCLUSIVE
        for pole_st, taylor_st in zip(pole_stats, taylor_stats):
            for st in (pole_st, taylor_st):
                if st.min_eig < -10.0 * TOL_PSD * max(st.norm, 1e-300):
                    verdict, refuted_by = VERDICT_REFUTED, "agler_truncation"
                    refuted_level, refuted_min_eig = st.level, st.min_eig
                    break
            if refuted_by is not None:
                break

    return CertificateReport(
        verdict, certified_by, refuted_by, refuted_level, refuted_min_eig,
        orth_residual, orth_passed, pole_stats, taylor_stats, agler_passed,
        basis_residual, necessary, necessary_passed, exact, cfg, taylor,
        pairing)


# The moment check compares the kernel table up to this size, or up to the
# last Taylor row when the table is shorter, integrating the density with
# QUAD_POINTS equally spaced nodes on the circle.
MEASURE_CHECK_SIZE = 20
QUAD_POINTS = 4096


@dataclass(frozen=True, eq=False)
class RepresentingMeasure:
    """Candidate representing measure of a symbol whose numerators are
    orthogonal at the poles: atoms of mass masses[r] at atoms[r], plus a
    density on the circle whose smallest quadrature value is density_min.
    moments[m, n] = int z^m conj(z)^n dmu for m, n <= size, and
    max_residual is their largest distance from the kernel table."""

    atoms: np.ndarray
    masses: np.ndarray
    density_min: float
    moments: np.ndarray
    max_residual: float
    mass: float


def representing_measure(sym: RationalSymbol,
                         result: CertificateReport) -> RepresentingMeasure:
    """Integrate z^m conj(z)^n against the explicit representing measure.

    With beta_r = 1/alpha_r, component j of the symbol is
    sum_r gamma_jr z / (1 - beta_r z), gamma_jr = -p_j(alpha_r) beta_r^2 / a_r,
    so the diagonal of gamma^T conj(gamma) is
    w_r = |beta_r|^4 pair_rr / |a_r|^2, and is all of it when orthogonality
    holds. The measure then has atoms nu_r delta_{beta_r} with
    nu_r = w_r / (1 - |beta_r|^2), and density
    1 - sum_r nu_r (2 Re 1/(1 - conj(z) beta_r) - 1)
      = 1 - sum_r w_r / |1 - conj(z) beta_r|^2
    against d theta / 2 pi. Its moment int z^m conj(z)^n dmu must reproduce
    the kernel table entry K[m][n]; the max residual over m, n <= size, with
    size = min(MEASURE_CHECK_SIZE, rows in result.taylor), is reported.

    The quadrature moment of z^m conj(z)^n is the mean of z^(m-n) times the
    density over the QUAD_POINTS circle points, which is entry
    (m - n) mod QUAD_POINTS of the density's inverse DFT.
    """
    beta = 1.0 / sym.alphas
    b2 = (beta * beta.conj()).real
    w = (b2 * b2 * np.diag(result.pairing.pair).real
         / np.abs(sym.lagrange_denominators) ** 2)
    masses = w / (1.0 - b2)
    gap = 1.0 - np.conj(circle_points(QUAD_POINTS))[:, None] * beta
    density = 1.0 - (1.0 / (gap.real ** 2 + gap.imag ** 2)) @ w
    size = min(MEASURE_CHECK_SIZE, len(result.taylor))
    m = np.arange(size + 1)
    moments = np.fft.ifft(density)[(m[:, None] - m[None, :]) % QUAD_POINTS]
    bpow = np.power.outer(beta, m)
    moments += (bpow.T * masses) @ bpow.conj()

    table = kernels.kernel_coeffs(result.taylor, size)
    resid = float(np.abs(moments - table).max())
    return RepresentingMeasure(beta, masses, float(density.min()), moments,
                               resid, float(moments[0, 0].real))
