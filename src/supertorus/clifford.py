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

Spinor data is plain sequences in one layout: a spinor is a component pair
``(s0, s1)``, and a spinor-valued one-form is ``z[k][a]``, spinor component
``a`` of its value on frame (form) index ``k``, so ``z[k]`` is a spinor.
:func:`quantize`, :func:`theta_insert` and :func:`omega` raise
:class:`RingMismatch` when their components mix coefficient rings.

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

from fractions import Fraction
from numbers import Number

HALF = Fraction(1, 2)

GAMMA1 = ((1, 0), (0, -1))
GAMMA2 = ((0, 1), (1, 0))
GAMMAS = (GAMMA1, GAMMA2)
# gamma^1 gamma^2; the spin connection acts through this matrix
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


def quantize(z):
    """Contract the form index with the gamma action: ``gamma^k z[k]``."""
    check_uniform(*z[0], *z[1])
    out0 = out1 = None
    for gamma, zk in zip(GAMMAS, z):
        acted = mat_apply(gamma, zk)
        out0 = acted[0] if out0 is None else out0 + acted[0]
        out1 = acted[1] if out1 is None else out1 + acted[1]
    return (out0, out1)


def theta_insert(s):
    """Right inverse of ``quantize``: insert a spinor as a spin-1/2 one-form."""
    check_uniform(*s)
    half = tuple(c * HALF for c in s)
    return tuple(mat_apply(gamma, half) for gamma in GAMMAS)


def omega(s, t):
    """Symplectic pairing of two spinor values.

    Component products are taken in argument order, which is what produces
    the graded (anti)symmetries for odd coefficients.
    """
    check_uniform(*s, *t)
    rotated = mat_apply(ACI, s)
    return rotated[0] * t[0] + rotated[1] * t[1]


def symplectic_dual(s):
    """``s~ = omega(s, .)``; on the frame, ``s_k ~-> eps_{kj} s^j``."""
    return (-s[1], s[0])
