"""Dirichlet-type spaces on the unit circle as de Branges-Rovnyak spaces:
rational symbol construction and subnormality certificates for the Cauchy
dual of the shift."""

__version__ = "0.1.0"

from .polyrat import (
    poly_roots,
    lagrange_denominators,
    fejer_riesz_factor,
)
from .symbolpipe import (
    CircleMeasure,
    RationalSymbol,
    AntipodalClosedForm,
    boundary_polynomial,
    outer_from_measure,
    gram_from_outer,
    measure_to_symbol,
    symbol_from_parts,
    closed_form_antipodal,
    single_atom_symbol,
)
from .kernels import (
    Rank1Model,
    symbol_taylor,
    rank1_taylor,
    kernel_coeffs,
    mate_rank1,
)
from .certify import (
    CertificateConfig,
    CertificateReport,
    LevelStat,
    NecessaryMeasure,
    MomentCheck,
    pole_pairing,
    coincidence_classes,
    orthogonality_test,
    pole_basis,
    pole_cores,
    agler_pole_test,
    agler_taylor_test,
    necessary_measure_test,
    rank1_representing_measure,
    exactness_applies,
    run_certificates,
    VERDICT_CERTIFIED,
    VERDICT_REFUTED,
    VERDICT_INCONCLUSIVE,
)

__all__ = [
    "poly_roots", "lagrange_denominators", "fejer_riesz_factor",
    "CircleMeasure", "RationalSymbol", "AntipodalClosedForm",
    "boundary_polynomial", "outer_from_measure", "gram_from_outer",
    "measure_to_symbol", "symbol_from_parts", "closed_form_antipodal",
    "single_atom_symbol",
    "Rank1Model", "symbol_taylor", "rank1_taylor",
    "kernel_coeffs", "mate_rank1",
    "CertificateConfig", "CertificateReport", "LevelStat",
    "NecessaryMeasure", "MomentCheck", "pole_pairing", "coincidence_classes",
    "orthogonality_test", "pole_basis", "pole_cores",
    "agler_pole_test", "agler_taylor_test", "necessary_measure_test",
    "rank1_representing_measure", "exactness_applies", "run_certificates",
    "VERDICT_CERTIFIED", "VERDICT_REFUTED", "VERDICT_INCONCLUSIVE",
    "__version__",
]
