"""Real Majorana spinor module of Cl(2,0).

Fixed representation (all integer matrices, so every identity below is exact
in rational mode):

* ``GAMMA1 = [[1, 0], [0, -1]]`` and ``GAMMA2 = [[0, 1], [1, 0]]`` are
  symmetric, which makes the metric symmetry of the Clifford action literal;
* ``ACI = -GAMMA1 @ GAMMA2 = [[0, -1], [1, 0]]`` is the almost complex
  structure, normalised so that ``omega(s1, s2) = +1`` for the frame spinors;
* the symplectic form is ``omega(s, t) = metric(ACI s, t)``;
* the structure constants of the symplectic dual satisfy
  ``eps_{12} = +1``, so :func:`symplectic_dual` sends the frame spinors
  ``s1 -> s^2`` and ``s2 -> -s^1``.

Component rings are generic: plain numbers, ``Fraction``, ``complex``, the
grid scalars of :mod:`grids`, or bare numpy arrays.  This module is the
single place where a gamma matrix touches a component: the field, geometry
and functional layers reach the Clifford action, the spin-1/2 projection and
the spinor pairing only through the functions here.  :func:`mat_apply` skips
zero matrix entries and passes the component of a unit entry through
unchanged, so grid fields pay for no zero-scaled or copied arrays; a row
without a nonzero entry is ``0 * pair[0]``.  All scalar factors of 1/2 are
applied as ``Fraction(1, 2)`` so exact rings stay exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from numbers import Number

HALF = Fraction(1, 2)

GAMMA1 = ((1, 0), (0, -1))
GAMMA2 = ((0, 1), (1, 0))
GAMMAS = (GAMMA1, GAMMA2)
# gamma^1 gamma^2; the torsion and spin connection act through this matrix
GAMMA12 = ((0, 1), (-1, 0))
# almost complex structure, -gamma^1 gamma^2
ACI = ((0, -1), (1, 0))
# gamma^j gamma^i products, indexed [j][i][row][col]
GAMMA_PRODUCTS = tuple(tuple(
    tuple(tuple(sum(gj[r][m] * gi[m][c] for m in range(2)) for c in range(2))
          for r in range(2))
    for gi in GAMMAS) for gj in GAMMAS)


class RingMismatch(TypeError):
    """Spinor components from incompatible coefficient rings were combined."""


def ring_family(x) -> str:
    return "number" if isinstance(x, Number) else type(x).__name__


def check_uniform(*components) -> None:
    families = {ring_family(c) for c in components}
    if len(families) > 1:
        raise RingMismatch(f"mixed coefficient rings: {sorted(families)}")


def mat_apply(m, pair):
    """Apply an integer 2x2 matrix to a component pair of any ring."""
    out = []
    for row in m:
        acc = None
        for c, x in zip(row, pair):
            if c == 0:
                continue
            term = x if c == 1 else c * x
            acc = term if acc is None else acc + term
        out.append(0 * pair[0] if acc is None else acc)
    return tuple(out)


@dataclass(frozen=True)
class MajoranaSpinor:
    """Value of a section of the rank-two real spinor bundle."""

    components: tuple

    def __post_init__(self):
        check_uniform(*self.components)


@dataclass(frozen=True)
class DualSpinor:
    """Value in the dual spinor module, components on the dual frame."""

    components: tuple


@dataclass(frozen=True)
class SpinorForm:
    """Spinor-valued one-form value: components[a][mu], both indices 0/1."""

    components: tuple  # 2x2 nested tuple, spinor index first


def quantize(z: SpinorForm) -> MajoranaSpinor:
    """Contract the form index with the gamma action: ``gamma^k z_k``."""
    comps = z.components
    out0 = out1 = None
    for mu, gamma in enumerate(GAMMAS):
        col = (comps[0][mu], comps[1][mu])
        acted = mat_apply(gamma, col)
        out0 = acted[0] if out0 is None else out0 + acted[0]
        out1 = acted[1] if out1 is None else out1 + acted[1]
    return MajoranaSpinor((out0, out1))


def theta_insert(s: MajoranaSpinor) -> SpinorForm:
    """Right inverse of ``quantize``: insert a spinor as a spin-1/2 one-form."""
    half = tuple(c * HALF for c in s.components)
    cols = [mat_apply(gamma, half) for gamma in GAMMAS]
    return SpinorForm((
        (cols[0][0], cols[1][0]),
        (cols[0][1], cols[1][1]),
    ))


def omega(s: MajoranaSpinor, t: MajoranaSpinor):
    """Symplectic pairing of two spinor values.

    Component products are taken in argument order, which is what produces
    the graded (anti)symmetries for odd coefficients.
    """
    check_uniform(*s.components, *t.components)
    rotated = mat_apply(ACI, s.components)
    return rotated[0] * t.components[0] + rotated[1] * t.components[1]


def symplectic_dual(s: MajoranaSpinor) -> DualSpinor:
    """``s~ = omega(s, .)``; on the frame, ``s_k ~-> eps_{kj} s^j``."""
    c = s.components
    return DualSpinor((-c[1], c[0]))
