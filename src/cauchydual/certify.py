"""Subnormality certificates for the Cauchy dual of the shift attached to
a row symbol.

The decision chain is: exact numerator orthogonality at the poles (a
sufficient condition), the necessary measure supported on [0, 1] (its
failure is a definitive refutation), and truncated Agler-type positivity
matrices computed by two independent engines (pole side and Taylor side).
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
    level: int
    min_eig: float
    norm: float


def _level_stat(level: int, evals: np.ndarray) -> LevelStat:
    return LevelStat(level, float(evals.min()), float(np.abs(evals).max()))


def agler_pole_test(sym: RationalSymbol, cross: np.ndarray,
                    cfg: CertificateConfig) -> tuple:
    """LevelStat per level 1..levels of the N x N pole-side truncation

        M_l[m, n] = sum_{r,t} C[r,t] (1 - 1/(alpha_r conj(alpha_t)))^l
                    * alpha_r^-(m+2) conj(alpha_t)^-(n+2),

    N = cfg.trunc. M_l = V^T X_l conj(V) with V[r, m] = alpha_r^-(m+2) and
    the k x k core X_l = C o G^l, so its rank is at most r = min(k, N).
    With V^T = Q R (R is r x k), the nonzero eigenvalues of M_l are those
    of the r x r matrix R X_l R^H, and the other N - r are exactly zero.
    """
    N = cfg.trunc
    if sym.k == 0:
        return tuple(LevelStat(l, 0.0, 0.0) for l in range(1, cfg.levels + 1))
    alphas = np.asarray(sym.alphas, dtype=complex)
    G = 1.0 - 1.0 / np.outer(alphas, np.conj(alphas))
    R = np.linalg.qr(
        alphas[None, :] ** (-(np.arange(N, dtype=float)[:, None] + 2.0)),
        mode="r")
    stats, core = [], cross
    for level in range(1, cfg.levels + 1):
        core = core * G
        H = R @ core @ R.conj().T
        evals = np.linalg.eigvalsh(0.5 * (H + H.conj().T))
        if N > len(R):
            evals = np.append(evals, 0.0)
        stats.append(_level_stat(level, evals))
    return tuple(stats)


def agler_taylor_test(taylor: kernels.TaylorTable,
                      cfg: CertificateConfig) -> tuple:
    """LevelStat per level 1..levels of the same truncation from the raw
    Taylor rows:

        M_l[m, n] = sum_{j=0}^{l} (-1)^j binom(l, j) B_{m+1+j} . B_{n+1+j}*.

    With S[m, n] = B_{m+1} . B_{n+1}* and D_l the l-th forward difference
    along the diagonal, D_l[m, n] = D_{l-1}[m, n] - D_{l-1}[m+1, n+1], the
    level-l matrix is D_l[:N, :N]. Needs rows up to index N + levels.
    """
    N, L = cfg.trunc, cfg.levels
    if taylor.n_rows < N + L:
        raise InsufficientRowsError(
            f"need {N + L} rows, table has {taylor.n_rows}")
    rows = taylor.rows[:N + L]
    D = rows @ rows.conj().T
    D = 0.5 * (D + D.conj().T)
    stats = []
    for level in range(1, L + 1):
        D = D[:-1, :-1] - D[1:, 1:]
        stats.append(_level_stat(level, np.linalg.eigvalsh(D[:N, :N])))
    return tuple(stats)


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
    -10 tol_psd ||M_l|| refutes at its level, everything above
    -tol_psd ||M_l|| is a truncation-level pass, and anything else stays
    inconclusive (the 10x hysteresis band).
    """
    pairing = pole_pairing(sym)
    classes = coincidence_classes(sym)
    orth_residual, orth_passed = orthogonality_test(pairing, cfg)
    necessary, necessary_passed = necessary_measure_test(
        pairing.cross, classes, cfg)
    taylor = kernels.symbol_taylor(sym, cfg.trunc + cfg.levels)
    pole_stats = agler_pole_test(sym, pairing.cross, cfg)
    taylor_stats = agler_taylor_test(taylor, cfg)
    exact = exactness_applies(classes)

    agler_passed = all(
        st.min_eig >= -cfg.tol_psd * max(st.norm, 1e-300)
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
