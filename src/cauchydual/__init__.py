"""Dirichlet-type spaces on the unit circle as de Branges-Rovnyak spaces:
rational symbol construction and subnormality certificates for the Cauchy
dual of the shift."""

__version__ = "0.1.0"

from . import certify, kernels, polyrat, symbolpipe
