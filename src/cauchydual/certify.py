"""Subnormality certificates for the Cauchy dual of the shift attached to
a row symbol.

The decision chain is: exact numerator orthogonality at the poles (a
sufficient condition), the necessary measure supported on [0, 1] (its
failure is a definitive refutation), and truncated Agler-type positivity
matrices computed by two engines (pole side and Taylor side) in one shared
basis, with the Taylor side's distance from that basis measured per level.
When every off-diagonal pole product is a distinct point outside the ray
[1, oo), orthogonality is also necessary, so its failure refutes without
waiting for a truncation witness.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .polyrat import lagrange_denominators
from .symbolpipe import RationalSymbol

VERDICT_CERTIFIED = "CertifiedSubnormal"
VERDICT_REFUTED = "RefutedAtLevel"
VERDICT_INCONCLUSIVE = "InconclusiveAtTruncation"


class InsufficientRowsError(ValueError):
    """Taylor table is too short for the requested truncation and levels."""


@dataclass(frozen=True)
class CertificateConfig:
    """Truncation sizes and tolerances for the certificate battery."""

    levels: int = 12
    trunc: int = 40
    tol_psd: float = 1e-8
    tol_orth: float = 1e-9

    def __post_init__(self):
        if self.levels < 1 or self.trunc < 2:
            raise ValueError("need levels >= 1 and trunc >= 2")
        if self.tol_psd <= 0.0 or self.tol_orth <= 0.0:
            raise ValueError("tolerances must be positive")


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
    a = lagrange_denominators(np.asarray(sym.alphas, dtype=complex))
    C = pair / np.outer(a, np.conj(a))
    return PolePairing(pair, 0.5 * (C + C.conj().T))


def orthogonality_test(pairing: PolePairing, cfg: CertificateConfig):
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
    return residual, residual <= cfg.tol_orth


@dataclass(frozen=True)
class LevelStat:
    """One Agler level: the smallest eigenvalue and the largest eigenvalue
    modulus of its N x N truncation. residual and gap measure how far the
    Taylor engine's matrix lies from the shared pole basis (see
    agler_taylor_test); the pole engine reads its matrices exactly off
    that basis and leaves both at 0."""

    level: int
    min_eig: float
    norm: float
    residual: float = 0.0
    gap: float = 0.0

    def passes(self, tol_psd: float) -> bool:
        """min_eig >= -tol_psd norm, with residual and gap both at most
        tol_psd norm: a level whose numbers drifted from the basis by more
        than the tolerance cannot vouch for positivity."""
        bound = tol_psd * max(self.norm, 1e-300)
        return (self.min_eig >= -bound and self.residual <= bound
                and self.gap <= bound)


def _level_stats(H: np.ndarray, trunc: int, *drift) -> tuple:
    """LevelStat per level from the hermitian r x r matrices H[l - 1]
    that stand for N x N matrices of rank r, N = trunc, with one batched
    eigvalsh; when N > r the N - r zero eigenvalues count as one 0. For
    r = 0 every stat is 0 and nothing is solved. `drift` holds the
    residual and gap arrays, if any."""
    levels, r = len(H), H.shape[-1]
    lows, norms = np.zeros(levels), np.zeros(levels)
    if r:
        evals = np.linalg.eigvalsh(H)
        if trunc > r:
            evals = np.concatenate((evals, np.zeros((levels, 1))), axis=1)
        lows, norms = evals.min(axis=1), np.abs(evals).max(axis=1)
    return tuple(map(LevelStat, range(1, levels + 1), lows.tolist(),
                     norms.tolist(), *(values.tolist() for values in drift)))


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
    alphas = np.asarray(sym.alphas, dtype=complex)
    G = 1.0 - 1.0 / np.outer(alphas, np.conj(alphas))
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


def agler_taylor_test(taylor: kernels.TaylorTable, Q: np.ndarray,
                      cores: np.ndarray, cfg: CertificateConfig) -> tuple:
    """LevelStat per level 1..levels of the same truncation from the raw
    Taylor rows:

        M_l[m, n] = sum_{j=0}^{l} (-1)^j binom(l, j) B_{m+1+j} . B_{n+1+j}*.

    With S[m, n] = B_{m+1} . B_{n+1}* and D_l the l-th forward difference
    along the diagonal, D_l[m, n] = D_{l-1}[m, n] - D_{l-1}[m+1, n+1], the
    level-l matrix is D_l[:N, :N]. Needs rows up to index N + levels.

    The eigenvalues are those of P_l = Q^H M_l Q in the pole basis Q, for
    all levels in one batched eigvalsh, plus a 0 for the N - r directions
    outside the basis. Two numbers measure what that
    leaves out: residual = ||M_l - Q P_l Q^H||_F, which bounds how far
    each eigenvalue of M_l lies from that spectrum (Weyl's inequality) and
    is where rounding in the differences shows, and
    gap = ||P_l - cores[l - 1]||_F, the disagreement with the pole
    engine. The residual is formed directly: sqrt(||M||^2 - ||P||^2)
    cancels to about 1e-8 of the norm.
    """
    N, L = cfg.trunc, cfg.levels
    if taylor.n_rows < N + L:
        raise InsufficientRowsError(
            f"need {N + L} rows, table has {taylor.n_rows}")
    rows = taylor.rows[:N + L]
    D = rows @ rows.conj().T
    D = 0.5 * (D + D.conj().T)
    Qh = Q.conj().T
    P = np.empty_like(cores)
    squared = np.empty(L)
    for l in range(L):
        D = D[:-1, :-1] - D[1:, 1:]
        M = D[:N, :N]
        P[l] = Qh @ M @ Q
        E = Q @ P[l] @ Qh
        np.subtract(M, E, out=E)
        squared[l] = np.vdot(E, E).real
    P = 0.5 * (P + P.conj().swapaxes(1, 2))
    gap = np.linalg.norm(P - cores, axis=(1, 2))
    return _level_stats(P, N, np.sqrt(squared), gap)


# Two pole products closer than COINCIDENCE_TOL share a class; a location
# closer than SEGMENT_TOL to [0, 1] counts as lying on it.
COINCIDENCE_TOL = 1e-9
SEGMENT_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class CoincidenceClasses:
    """The pole products alpha_r conj(alpha_t), chained into classes of
    points within COINCIDENCE_TOL of each other. members[c] holds the
    row-major flat indices of class c in increasing order, classes come in
    the order of their first member, and locations[c] is the reciprocal of
    the mean product of class c."""

    products: np.ndarray
    members: tuple
    locations: tuple


def coincidence_classes(sym: RationalSymbol) -> CoincidenceClasses:
    """Group the pole products once for the necessary measure and the
    exactness condition."""
    alphas = np.asarray(sym.alphas, dtype=complex)
    products = np.outer(alphas, np.conj(alphas))
    flat = products.ravel()
    close = np.abs(flat[:, None] - flat[None, :]) <= COINCIDENCE_TOL
    # every product takes the smallest index it is chained to
    index = label = np.arange(flat.size)
    while flat.size:
        lowest = np.where(close, label[None, :], flat.size).min(axis=1)
        if (lowest == label).all():
            break
        label = lowest
    members = tuple(np.flatnonzero(label == root) for root in index[label == index])
    locations = tuple(complex(1.0 / np.mean(flat[m])) for m in members)
    return CoincidenceClasses(products, members, locations)


@dataclass(frozen=True)
class NecessaryMeasure:
    """Aggregated necessary measure: one atom per coincidence class of the
    pole products alpha_r conj(alpha_t), located at 1/(alpha_r conj(alpha_t))."""

    locations: tuple
    weights: tuple
    worst_violation: float
    worst_location: complex | None


def _segment_distance(x: complex) -> float:
    re = min(max(x.real, 0.0), 1.0)
    return math.hypot(x.real - re, x.imag)


def necessary_measure_test(cross: np.ndarray, classes: CoincidenceClasses,
                           cfg: CertificateConfig):
    """Aggregate the necessary measure and check it is positive on [0, 1].

    Weights of classes located off the segment must vanish; weights on the
    segment must be real and nonnegative, all relative to tol_psd times
    the total variation. Failure refutes subnormality outright.
    """
    raw = (cross / classes.products ** 2).ravel()
    weights = [complex(raw[members].sum()) for members in classes.members]
    locations = list(classes.locations)
    # deterministic ordering by descending weight then location
    perm = sorted(range(len(weights)),
                  key=lambda i: (-abs(weights[i]), locations[i].real,
                                 locations[i].imag))
    locations = [locations[i] for i in perm]
    weights = [weights[i] for i in perm]

    scale = max(sum(abs(w) for w in weights), 1e-300)
    worst, worst_loc = 0.0, None
    for loc, w in zip(locations, weights):
        if _segment_distance(loc) > SEGMENT_TOL:
            bad = abs(w)
        else:
            bad = max(-w.real, abs(w.imag), 0.0)
        if bad > worst:
            worst, worst_loc = bad, loc
    passed = worst <= cfg.tol_psd * scale
    return NecessaryMeasure(tuple(locations), tuple(weights),
                            float(worst / scale), worst_loc), passed


@dataclass(frozen=True, eq=False)
class MomentCheck:
    """Moments of the rank-one representing measure against the kernel table."""

    kernel: np.ndarray
    moments: np.ndarray
    max_residual: float
    mass: float


def rank1_representing_measure(model: kernels.Rank1Model, size: int,
                               quad_points: int = 4096) -> MomentCheck:
    """Integrate z^m conj(z)^n against the explicit representing measure.

    The measure is the absolutely continuous part with density
    1 - nu (2 Re 1/(1 - e^{-i theta} beta) - 1) against d theta / 2 pi plus
    the atom nu delta_beta. Its moment int z^m conj(z)^n dmu must reproduce
    the kernel table entry K[m][n]; the max residual over m, n <= size is
    reported. (Expanding the density in powers of e^{i theta} shows the
    m >= n entry carries beta^{m-n}, matching the table orientation.)

    The quadrature moment of z^m conj(z)^n is the mean of e^{i(m-n) theta}
    times the density over the quad_points nodes, which is entry
    (m - n) mod quad_points of the density's inverse DFT.
    """
    theta = 2.0 * np.pi * np.arange(quad_points) / quad_points
    unit = np.exp(1j * theta)
    density = 1.0 - model.nu * (2.0 * (1.0 / (1.0 - np.conj(unit) * model.beta)).real - 1.0)
    m = np.arange(size + 1)
    moments = np.fft.ifft(density)[(m[:, None] - m[None, :]) % quad_points]
    bpow = np.power(model.beta, m)
    moments += model.nu * np.outer(bpow, np.conj(bpow))

    table = kernels.kernel_coeffs(
        kernels.rank1_taylor(model.gamma, model.beta, max(size, 1)), size)
    resid = float(np.abs(moments - table.K).max())
    return MomentCheck(table.K, moments, resid, float(moments[0, 0].real))


def exactness_applies(classes: CoincidenceClasses) -> bool:
    """True when there are at least two poles and every off-diagonal pole
    product forms a class of its own located off [0, 1], that is, the
    product is a distinct complex number off the ray [1, oo); orthogonality
    is then necessary as well as sufficient."""
    k = len(classes.products)
    if k < 2:
        return False
    diagonal = set(range(0, k * k, k + 1))
    return all(len(members) == 1 and _segment_distance(loc) > SEGMENT_TOL
               for members, loc in zip(classes.members, classes.locations)
               if not diagonal.issuperset(members.tolist()))


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
    necessary: NecessaryMeasure
    necessary_passed: bool
    exactness: bool
    config: CertificateConfig
    taylor: kernels.TaylorTable     # the rows the Taylor engine ran on

    @property
    def exit_code(self) -> int:
        return {VERDICT_CERTIFIED: 0, VERDICT_REFUTED: 1,
                VERDICT_INCONCLUSIVE: 2}[self.verdict]


def run_certificates(sym: RationalSymbol,
                     cfg: CertificateConfig = CertificateConfig()) -> CertificateReport:
    """Run the whole battery and combine the outcomes into one verdict.

    Orthogonality certifies; a failed necessary measure refutes at level 0;
    when the exactness condition holds, a failed orthogonality test also
    refutes at level 0; otherwise a truncation eigenvalue below
    -10 tol_psd ||M_l|| refutes at its level, and anything else stays
    inconclusive (the 10x hysteresis band). agler_passed says that every
    level of both engines passes (LevelStat.passes): its eigenvalues lie
    above -tol_psd ||M_l|| and the Taylor engine's residual and gap lie
    below tol_psd ||M_l||. Refutation reads min_eig only, so drift out of
    the pole basis can keep a level from passing but never refutes.
    """
    pairing = pole_pairing(sym)
    classes = coincidence_classes(sym)
    orth_residual, orth_passed = orthogonality_test(pairing, cfg)
    necessary, necessary_passed = necessary_measure_test(
        pairing.cross, classes, cfg)
    taylor = kernels.symbol_taylor(sym, cfg.trunc + cfg.levels)
    Q, R = pole_basis(sym, cfg.trunc)
    cores = pole_cores(sym, pairing.cross, R, cfg.levels)
    pole_stats = agler_pole_test(cores, cfg)
    taylor_stats = agler_taylor_test(taylor, Q, cores, cfg)
    exact = exactness_applies(classes)
    agler_passed = all(st.passes(cfg.tol_psd)
                       for st in pole_stats + taylor_stats)

    certified_by = refuted_by = None
    refuted_level = refuted_min_eig = None
    if orth_passed:
        verdict, certified_by = VERDICT_CERTIFIED, "orthogonality"
    elif not necessary_passed:
        verdict, refuted_by, refuted_level = VERDICT_REFUTED, "necessary_measure", 0
    elif exact:
        verdict, refuted_by, refuted_level = VERDICT_REFUTED, "orthogonality_exactness", 0
    else:
        verdict = VERDICT_INCONCLUSIVE
        for pole_st, taylor_st in zip(pole_stats, taylor_stats):
            for st in (pole_st, taylor_st):
                if st.min_eig < -10.0 * cfg.tol_psd * max(st.norm, 1e-300):
                    verdict, refuted_by = VERDICT_REFUTED, "agler_truncation"
                    refuted_level, refuted_min_eig = st.level, st.min_eig
                    break
            if refuted_by is not None:
                break

    return CertificateReport(
        verdict, certified_by, refuted_by, refuted_level, refuted_min_eig,
        orth_residual, orth_passed, pole_stats, taylor_stats, agler_passed,
        necessary, necessary_passed, exact, cfg, taylor)
