"""Certified symmetry checks for spinorial energy functionals on a flat torus.

The package builds a small laboratory out of four layers:

* ``grassmann`` -- the real exterior algebra on sixteen anticommuting
  generators with one more even nilpotent ``eps`` (``eps**2 = 0``), whose
  coefficient carries exact first variations,
* ``clifford`` -- the real rank-two spinor module of Cl(2,0) with its
  symplectic pairing, the spin-1/2 insertion and frame conventions,
* ``grids``/``geometry`` -- spectral and finite-difference calculus on a
  periodic grid over the unit square, and a Grassmann-even zweibein that
  carries all metric data, the torus's shape included,
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
