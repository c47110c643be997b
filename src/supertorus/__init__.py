"""Certified symmetry checks for spinorial energy functionals on a flat torus.

The package builds a small laboratory out of four layers:

* ``grassmann`` -- a finite-dimensional real exterior algebra (anticommuting
  coefficients) with one more even nilpotent ``eps`` (``eps**2 = 0``), whose
  coefficient carries exact first variations,
* ``clifford`` -- the real rank-two spinor module of Cl(2,0) with its metric
  and symplectic pairings, the spin-1/2 insertion and frame conventions,
* ``grids``/``geometry`` -- spectral and finite-difference calculus on a
  periodic grid with a Grassmann-even zweibein,
* ``fields``/``functionals`` -- the physical fields and the energy
  functionals built from them, whose first variations ride along in the
  ``eps`` monomials.
"""

from .grassmann import GeneratorMismatch, GrassmannElement, NoBody

__all__ = [
    "GrassmannElement",
    "GeneratorMismatch",
    "NoBody",
]

__version__ = "0.1.0"
