"""Subnormality certificates for the Cauchy dual of the shift attached to
a row symbol.

The decision chain, in the order `run_certificates` applies it: the
necessary measure supported on [0, 1], whose failure is a definitive
refutation even where orthogonality passes; exact numerator orthogonality
at the poles, a sufficient condition; when every off-diagonal pole product
is a distinct point outside the ray [1, oo), orthogonality is also
necessary, so its failure refutes without waiting for a truncation
witness; and last, truncated Agler-type positivity matrices: the pole
engine's decide, and the Taylor engine cross-checks them in the same
basis, with its distance from that basis measured once. A symbol that passes
orthogonality also gets its explicit representing measure, whose moments
are checked against the kernel table (representing_measure).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import kernels
from .polyrat import CIRCLE, _horner, inverse_powers, lagrange_denominators
from .symbolpipe import RationalSymbol

VERDICT_CERTIFIED = "CertifiedSubnormal"
VERDICT_REFUTED = "RefutedAtLevel"
VERDICT_INCONCLUSIVE = "InconclusiveAtTruncation"


@dataclass(frozen=True)
class CertificateConfig:
    """Truncation sizes for the certificate battery; the tolerances are
    the module constants TOL_PSD and TOL_ORTH."""

    levels: int = 12
    trunc: int = 40

    def __post_init__(self):
        if self.levels < 1 or self.trunc < 2:
            raise ValueError(f"need levels >= 1 and trunc >= 2, got "
                             f"levels={self.levels}, trunc={self.trunc}")


@dataclass(frozen=True, eq=False)
class PolePairing:
    """All a certificate reads, built from the symbol by pole_pairing: the
    poles alphas, the numerator values E, values[j, r] = p_j(alpha_r), the
    Lagrange denominators
    a_r = prod_{t != r} (alpha_r - alpha_t), products = alpha conj(alpha)^T,
    pair[r, t] = sum_j p_j(alpha_r) conj(p_j(alpha_t)) and the cross Gram
    matrix C = pair / (a conj(a)^T), hermitian with nonnegative diagonal."""

    alphas: np.ndarray
    values: np.ndarray
    a: np.ndarray
    products: np.ndarray
    pair: np.ndarray
    cross: np.ndarray


def pole_pairing(sym: RationalSymbol) -> PolePairing:
    """Build the pole tables of sym once per run: E = values by one Horner
    pass over the coefficient matrix, then a, the pole products, Pi = pair
    and C. Far poles overflow them without a warning; a table with a
    non-finite entry is a ValueError naming the first one of these five."""
    alphas = sym.alphas
    with np.errstate(over="ignore", invalid="ignore"):
        values = _horner(sym.coefficients[:, None, :], alphas)
        a = lagrange_denominators(alphas)
        products = np.outer(alphas, np.conj(alphas))
        pair = (values.conj().T @ values).conj()
        C = pair / np.outer(a, np.conj(a))
        C = 0.5 * (C + C.conj().T)
    # E is shared by every certificate of the run and by the report
    values.flags.writeable = False
    for name, table in (("E, the numerator values", values),
                        ("a, the Lagrange denominators", a),
                        ("the pole products", products),
                        ("Pi, the numerator pairing", pair),
                        ("C, the cross Gram", C)):
        if not np.isfinite(table).all():
            raise ValueError(f"pole pairing: {name}, is not finite")
    return PolePairing(alphas, values, a, products, pair, C)


def orthogonality_test(pairing: PolePairing):
    """Relative size of the worst off-diagonal numerator pairing at the poles.

    Returns (residual, passed); a symbol with fewer than two poles passes
    vacuously with residual 0.
    """
    pair = pairing.pair
    diag = np.abs(np.diag(pair).real)
    off = np.abs(pair - np.diag(np.diag(pair)))
    residual = float(off.max(initial=0.0) / max(diag.max(initial=0.0), 1e-300))
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
        # ascending eigenvalues: the ends hold the minimum and the modulus
        evals = np.linalg.eigvalsh(H)
        lows = np.minimum(evals[:, 0], 0.0) if trunc > r else evals[:, 0]
        norms = np.maximum(-evals[:, 0], evals[:, -1])
    return tuple(map(LevelStat, range(1, levels + 1), lows.tolist(),
                     norms.tolist(), np.broadcast_to(gap, levels).tolist()))


def agler_pole_test(pairing: PolePairing, cfg: CertificateConfig) -> tuple:
    """(stats, Q, cores): LevelStat per level 1..levels of the N x N
    pole-side truncation, N = cfg.trunc,

        M_l[m, n] = sum_{r,t} C[r,t] (1 - 1/(alpha_r conj(alpha_t)))^l
                    * alpha_r^-(m+2) conj(alpha_t)^-(n+2),

    and the pole basis and cores the Taylor engine runs on. With the
    reduced QR V^T = Q R of the N x k matrix V^T[m, r] = (1/alpha_r)^(m+2),
    r = min(k, N), M_l = V^T X_l conj(V) = Q H_l Q^H for the k x k core
    X_l = C o G^l, G = 1 - 1/(alpha conj(alpha)^T), so the nonzero
    eigenvalues of M_l are those of H_l = R X_l R^H (cores[l - 1],
    hermitian r x r) and the other N - r are exactly zero.
    """
    Q, R = np.linalg.qr(inverse_powers(pairing.alphas, cfg.trunc + 1)[1:])
    G = 1.0 - 1.0 / pairing.products
    X = np.empty((cfg.levels,) + G.shape, dtype=complex)
    np.multiply(pairing.cross, G, out=X[0])
    for l in range(1, cfg.levels):
        np.multiply(X[l - 1], G, out=X[l])
    H = R @ X @ R.conj().T
    cores = 0.5 * (H + H.conj().swapaxes(1, 2))
    return _level_stats(cores, cfg.trunc), Q, cores


def agler_taylor_test(taylor: np.ndarray, Q: np.ndarray, cores: np.ndarray) -> tuple:
    """(stats, basis_residual): LevelStat per level 1..levels of the same
    truncation from the raw Taylor rows, M_l = sum_{j=0}^{l} (-1)^j
    binom(l, j) A_j A_j^H, where the window A_j holds the Taylor rows
    j + 1 .. j + N (table rows j .. j + N - 1), N = len(Q) and L = len(cores).
    With Y_j = Q^H A_j in the pole basis Q of agler_pole_test,
    P_l = Q^H M_l Q is the l-th forward difference of the r x r Grams
    Y_j Y_j^H (all levels in one batched eigvalsh, plus a 0 for the N - r
    directions outside the basis); in exact arithmetic it is the whole
    level when the windows lie in the basis. gap = ||P_l - cores[l - 1]||_F
    is where rounding in the alternating sums shows.

    basis_residual = ||A - Q Y||_F / ||A||_F for A = [A_0 ... A_L] and
    Y = Q^H A (0 for an empty table) is 0 exactly when every window lies
    in the basis. It bounds the windows, not each level, which sums 2^l
    window Grams. The caller passes a taylor of exactly N + L rows.
    """
    N, L = len(Q), len(cores)
    windows = sliding_window_view(taylor, N, axis=0)
    # A stays the overlapping strided view: NumPy cannot hand it to BLAS and
    # sums Q^H @ A in its own loop. A contiguous copy of the same values goes
    # to BLAS, which sums in another order: at (N, L) = (40, 12) the levels
    # and basis residual of 64 of the benchmark pool's 511 symbols move in
    # the last bits, and at (40, 80) so do the one-pole levels that are
    # pure rounding.
    A = windows.transpose(2, 0, 1).reshape(N, -1)
    Y = Q.conj().T @ A
    Yj = Y.reshape(len(Y), L + 1, taylor.shape[1]).transpose(1, 0, 2)
    G = Yj @ Yj.conj().swapaxes(1, 2)
    P = np.empty_like(cores)
    for l in range(L):
        G = G[:-1] - G[1:]
        P[l] = G[0]
    P = 0.5 * (P + P.conj().swapaxes(1, 2))
    stats = _level_stats(P, N, np.linalg.norm(P - cores, axis=(1, 2)))
    scale = max(np.linalg.norm(A), 1e-300)
    return stats, float(np.linalg.norm(A - Q @ Y) / scale)


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
class NecessaryMeasure:
    """Aggregated necessary measure: one atom per coincidence class of the
    pole products alpha_r conj(alpha_t), located at 1/(alpha_r conj(alpha_t)).
    locations and weights are complex arrays in report order. passed says
    that the measure is positive on [0, 1], and exact that the exactness
    condition holds."""

    locations: np.ndarray
    weights: np.ndarray
    worst_violation: float
    worst_location: complex | None
    passed: bool
    exact: bool


def necessary_measure_test(pairing: PolePairing) -> NecessaryMeasure:
    """The necessary measure of the pairing in one record, with whether it
    is positive on [0, 1] (passed) and whether the exactness condition
    holds (exact).

    The pole products chain into classes of points within COINCIDENCE_TOL
    of each other, each located at the reciprocal of its mean product.
    Weights of classes located off the segment must vanish; weights on the
    segment must be real and nonnegative, all relative to TOL_PSD times
    the total variation. Failure refutes subnormality outright. exact says
    that there are at least two poles and every off-diagonal product is a
    class of its own located off [0, 1], that is, a distinct complex number
    off the ray [1, oo); orthogonality is then necessary as well as
    sufficient.
    """
    products = pairing.products
    k, flat = len(products), products.ravel()
    close = np.abs(flat[:, None] - flat[None, :]) <= COINCIDENCE_TOL
    # every product takes the smallest index it is chained to
    label = np.arange(flat.size)
    while flat.size:
        lowest = np.where(close, label[None, :], flat.size).min(axis=1)
        if (lowest == label).all():
            break
        label = lowest
    # a label is its class's first member, so a stable sort keeps both
    # orders: class c takes counts[c] flat indices from order[starts[c]] on
    order = np.argsort(label, kind="stable")
    starts = np.flatnonzero(label[order] == order)
    counts = np.diff(starts, append=flat.size)
    locations = 1.0 / (np.add.reduceat(flat[order], starts) / counts)
    off = np.hypot(locations.real - np.clip(locations.real, 0.0, 1.0),
                   locations.imag) > SEGMENT_TOL
    # flat index r k + t is diagonal when k + 1 divides it
    lone = (counts == 1) & off & (order[starts] % (k + 1) != 0)
    exact = k >= 2 and int(np.count_nonzero(lone)) == k * (k - 1)

    raw = (pairing.cross / products ** 2).ravel()
    weights = np.add.reduceat(raw[order], starts)
    # hypot is the modulus abs() takes of a complex scalar, to the last bit
    sizes = np.hypot(weights.real, weights.imag)
    scale = max(sum(sizes.tolist()), 1e-300)
    step = TOL_PSD * scale
    # descending weight in steps of TOL_PSD scale, then location
    # with the real part in steps of COINCIDENCE_TOL: a conjugate pair ties in both
    perm = np.lexsort((locations.imag, np.rint(locations.real / COINCIDENCE_TOL),
                       -np.rint(sizes / step)))
    weights, sizes, locations = weights[perm], sizes[perm], locations[perm]
    off = off[perm]

    bad = np.where(off, sizes, np.maximum(np.maximum(-weights.real,
                                                     np.abs(weights.imag)), 0.0))
    worst = float(bad.max(initial=0.0))
    # the first atom in report order among the largest violations counted in
    # the same steps, rounded up so that any violation outranks none
    worst_loc = None
    if worst > 0.0:
        worst_loc = complex(locations[np.argmax(np.ceil(bad / step))])
    return NecessaryMeasure(locations, weights, float(worst / scale),
                            worst_loc, worst <= step, exact)


@dataclass(frozen=True, eq=False)
class CertificateReport:
    """The battery's outcome; its repr fields, in declaration order, are
    the report's certificates section. orthogonality_conflict says that
    orthogonality passed where the necessary measure failed."""

    verdict: str
    certified_by: str | None
    refuted_by: str | None
    refuted_level: int | None
    refuted_min_eig: float | None
    orth_residual: float
    orth_passed: bool
    orthogonality_conflict: bool
    agler_pole: tuple
    agler_taylor: tuple
    agler_passed: bool
    taylor_basis_residual: float
    necessary: NecessaryMeasure
    config: CertificateConfig = field(repr=False)
    # the Taylor rows the Taylor engine ran on
    taylor: np.ndarray = field(repr=False)
    pairing: PolePairing = field(repr=False)

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
    otherwise the first pole-engine level with min_eig below
    -10 TOL_PSD ||M_l|| refutes, and anything else stays inconclusive (the
    10x hysteresis band). agler_passed says that the Taylor basis residual
    is at most TOL_PSD and every level of both engines passes
    (LevelStat.passes); the Taylor engine is the cross-check, whose drift
    (like 2^l eps) can keep agler_passed false but never refutes.
    """
    pairing = pole_pairing(sym)
    orth_residual, orth_passed = orthogonality_test(pairing)
    necessary = necessary_measure_test(pairing)
    taylor = kernels.symbol_taylor(sym, pairing, cfg.trunc + cfg.levels)
    pole_stats, Q, cores = agler_pole_test(pairing, cfg)
    taylor_stats, basis_residual = agler_taylor_test(taylor, Q, cores)
    agler_passed = basis_residual <= TOL_PSD and all(
        st.passes() for st in pole_stats + taylor_stats)

    certified_by = refuted_by = refuted_level = refuted_min_eig = None
    if not necessary.passed:
        verdict, refuted_by, refuted_level = VERDICT_REFUTED, "necessary_measure", 0
    elif orth_passed:
        verdict, certified_by = VERDICT_CERTIFIED, "orthogonality"
    elif necessary.exact:
        verdict, refuted_by, refuted_level = VERDICT_REFUTED, "orthogonality_exactness", 0
    else:
        hit = next((st for st in pole_stats
                    if st.min_eig < -10.0 * TOL_PSD * max(st.norm, 1e-300)), None)
        verdict = VERDICT_INCONCLUSIVE
        if hit is not None:
            verdict, refuted_by = VERDICT_REFUTED, "agler_truncation"
            refuted_level, refuted_min_eig = hit.level, hit.min_eig

    return CertificateReport(
        verdict, certified_by, refuted_by, refuted_level, refuted_min_eig,
        orth_residual, orth_passed, orth_passed and not necessary.passed,
        pole_stats, taylor_stats, agler_passed, basis_residual, necessary,
        cfg, taylor, pairing)


# The moment check compares the kernel table up to this size, or up to the
# last Taylor row when the table is shorter; density_min is the density's
# smallest value on polyrat.CIRCLE and at the atom directions beta_r / |beta_r|.
MEASURE_CHECK_SIZE = 20


@dataclass(frozen=True, eq=False)
class RepresentingMeasure:
    """Candidate representing measure of a symbol whose numerators are
    orthogonal at the poles: point masses masses[r] at atoms[r], plus a
    density on the circle whose smallest value on polyrat.CIRCLE and at
    the atom directions is density_min. moments[m, n] = int z^m conj(z)^n
    dmu for m, n <= size, and max_residual is their largest distance from
    the kernel table."""

    atoms: np.ndarray
    masses: np.ndarray
    density_min: float
    moments: np.ndarray = field(repr=False)
    size: int
    max_residual: float


def representing_measure(pairing: PolePairing,
                         taylor: np.ndarray) -> RepresentingMeasure:
    """The explicit representing measure and its moments in closed form.

    With beta_r = 1/alpha_r, component j of the symbol is
    sum_r gamma_jr z / (1 - beta_r z), gamma_jr = -p_j(alpha_r) beta_r^2 / a_r,
    so the diagonal of gamma^T conj(gamma) is
    w_r = |beta_r|^4 pair_rr / |a_r|^2, and is all of it when orthogonality
    holds. The measure then has atoms nu_r delta_{beta_r} with
    nu_r = w_r / (1 - |beta_r|^2), and density
    1 - sum_r nu_r (2 Re 1/(1 - conj(z) beta_r) - 1)
      = 1 - sum_r w_r / |1 - conj(z) beta_r|^2
    against d theta / 2 pi. Its moment int z^m conj(z)^n dmu must reproduce
    the kernel table entry K[m][n] of the Taylor rows; the max residual over
    m, n <= size, with size = min(MEASURE_CHECK_SIZE, len(taylor)), is
    reported.

    With s_j = sum_r nu_r beta_r^j, the density integrates z^j to
    delta_j0 - s_j and z^-j to its conjugate (j >= 0), so with the atoms
    moments[m, n] = delta_mn - s_(m-n) + sum_r nu_r beta_r^m conj(beta_r)^n.
    """
    beta = 1.0 / pairing.alphas
    b2 = (beta * beta.conj()).real
    w = b2 * b2 * np.diag(pairing.pair).real / np.abs(pairing.a) ** 2
    masses = w / (1.0 - b2)
    # term r peaks at z = beta_r / |beta_r|, between the nodes in general;
    # the density is at most 1, as w >= 0
    z = np.concatenate([CIRCLE, beta / np.abs(beta)])
    gap = 1.0 - np.conj(z)[:, None] * beta
    density = 1.0 - (1.0 / (gap.real ** 2 + gap.imag ** 2)) @ w
    density_min = float(density.min())
    size = min(MEASURE_CHECK_SIZE, len(taylor))
    m = np.arange(size + 1)
    bpow = np.power.outer(beta, m)
    lag = m[:, None] - m[None, :]
    s = (masses @ bpow)[np.abs(lag)]
    moments = np.eye(size + 1) - np.where(lag < 0, s.conj(), s)
    moments += (bpow.T * masses) @ bpow.conj()

    table = kernels.kernel_coeffs(taylor, size)
    return RepresentingMeasure(beta, masses, density_min, moments, size,
                               float(np.abs(moments - table).max()))
