"""motivint: exact motivic character integrals, exponential series and Hodge spectra.

The package computes, in exact arithmetic over the Hodge-realized ring of
virtual motives, the character zeta series and exponential-integral series
attached to monomial normal-crossings data, verifies multiplicativity of the
exponential series over function sums by two independent computation paths,
extracts Hodge spectra, and cross-validates its algebra against p-adic and
finite-field character-sum numerics.
"""

from .arcs import MonomialGeometry
from .characters import Character
from .gaussring import u_mul
from .spectra import sg, sp_from_sg

__all__ = ["MonomialGeometry", "Character", "sg", "sp_from_sg", "u_mul"]
