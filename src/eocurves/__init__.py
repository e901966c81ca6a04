"""Exact computation and verification engine for two quantum-curve models.

The package computes generalized Catalan numbers and single Hurwitz
numbers, their Laplace-transform free energies, the WKB coefficients of
the principally specialized partition functions, and verifies the
associated Schrodinger/heat/difference equations and Schur-function
identities, all in exact rational arithmetic.
"""

__version__ = "0.1.0"
