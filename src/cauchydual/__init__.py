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
    boundary_polynomial,
    outer_from_measure,
    gram_from_outer,
    measure_to_symbol,
    symbol_from_parts,
    closed_form_antipodal,
    single_atom_symbol,
)
from .kernels import (
    symbol_taylor,
    kernel_coeffs,
)
from .certify import (
    CertificateConfig,
    CertificateReport,
    LevelStat,
    NecessaryMeasure,
    RepresentingMeasure,
    pole_pairing,
    orthogonality_test,
    agler_pole_test,
    agler_taylor_test,
    necessary_measure_test,
    representing_measure,
    run_certificates,
    VERDICT_CERTIFIED,
    VERDICT_REFUTED,
    VERDICT_INCONCLUSIVE,
)

__all__ = [
    "poly_roots", "lagrange_denominators", "fejer_riesz_factor",
    "CircleMeasure", "RationalSymbol",
    "boundary_polynomial", "outer_from_measure", "gram_from_outer",
    "measure_to_symbol", "symbol_from_parts", "closed_form_antipodal",
    "single_atom_symbol",
    "symbol_taylor", "kernel_coeffs",
    "CertificateConfig", "CertificateReport", "LevelStat",
    "NecessaryMeasure", "RepresentingMeasure", "pole_pairing",
    "orthogonality_test", "agler_pole_test", "agler_taylor_test",
    "necessary_measure_test", "representing_measure", "run_certificates",
    "VERDICT_CERTIFIED", "VERDICT_REFUTED", "VERDICT_INCONCLUSIVE",
    "__version__",
]
