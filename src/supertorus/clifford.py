"""Real Majorana spinor module of Cl(2,0).

Fixed representation (all integer matrices, so every identity below is exact
in rational mode):

* ``GAMMA1 = [[1, 0], [0, -1]]`` and ``GAMMA2 = [[0, 1], [1, 0]]`` are
  symmetric, which makes the metric symmetry of the Clifford action literal;
* ``ACI = -GAMMA1 @ GAMMA2 = [[0, -1], [1, 0]]`` is the almost complex
  structure, normalised so that ``omega(s1, s2) = +1`` for the frame spinors;
* the symplectic form is ``omega(s, t) = metric(ACI s, t)``;
* the structure constants of the symplectic dual satisfy
  ``eps_{12} = eps^{12} = +1``; with that choice the evaluation of a dualised
  frame spinor on a de-dualised dual frame spinor is ``-delta``, which is the
  sign convention the Dirac-pairing suite certifies.

Component rings are generic: plain numbers, ``Fraction``, ``complex``,
``GrassmannElement``/``DualScalar``, the grid scalars of :mod:`grids`, or
bare numpy arrays.  This module is the single place where a gamma matrix
touches a component: the field, geometry and functional layers reach the
Clifford action, the spin-1/2 projection and the spinor pairings only
through the functions here.  :func:`mat_apply` skips zero matrix entries and
passes the component of a unit entry through unchanged, so grid fields pay
for no zero-scaled or copied arrays; a row without a nonzero entry is
``0 * pair[0]``.  All scalar factors of 1/2 are applied as
``Fraction(1, 2)`` so exact rings stay exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from numbers import Number

from .grassmann import DualScalar, GrassmannElement

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
    if isinstance(x, GrassmannElement):
        return "grassmann"
    if isinstance(x, DualScalar):
        return "dual"
    if isinstance(x, Number):
        return "number"
    return type(x).__name__


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

    @property
    def parity(self):
        parities = set()
        for c in self.components:
            parities.add(c.parity if isinstance(c, GrassmannElement) else 0)
        return parities.pop() if len(parities) == 1 else None


@dataclass(frozen=True)
class DualSpinor:
    """Value in the dual spinor module; evaluation is the delta pairing."""

    components: tuple

    def __call__(self, s: MajoranaSpinor):
        d, c = self.components, s.components
        return d[0] * c[0] + d[1] * c[1]


@dataclass(frozen=True)
class SpinorForm:
    """Spinor-valued one-form value: components[a][mu], both indices 0/1."""

    components: tuple  # 2x2 nested tuple, spinor index first


def clifford_act(alpha, s: MajoranaSpinor) -> MajoranaSpinor:
    """Clifford action of a covector with orthonormal components ``alpha``."""
    a1 = mat_apply(GAMMA1, s.components)
    a2 = mat_apply(GAMMA2, s.components)
    return MajoranaSpinor((
        alpha[0] * a1[0] + alpha[1] * a2[0],
        alpha[0] * a1[1] + alpha[1] * a2[1],
    ))


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


def project_p(z: SpinorForm) -> SpinorForm:
    """Spin-1/2 projector on spinor-valued one-forms."""
    return theta_insert(quantize(z))


def _form_sub(z: SpinorForm, w: SpinorForm) -> SpinorForm:
    return SpinorForm(tuple(
        tuple(z.components[a][mu] - w.components[a][mu] for mu in range(2))
        for a in range(2)))


def project_q(z: SpinorForm) -> SpinorForm:
    """Spin-3/2 projector, the complement of ``project_p``."""
    return _form_sub(z, project_p(z))


def decompose_form(z: SpinorForm) -> tuple[MajoranaSpinor, SpinorForm]:
    """Unique split ``z = theta_insert(s) + g`` with ``quantize(g) = 0``."""
    s = quantize(z)
    return s, _form_sub(z, theta_insert(s))


def spinor_pair(kind: str, s: MajoranaSpinor, t: MajoranaSpinor):
    """Metric or symplectic pairing of two spinor values.

    Component products are taken in argument order, which is what produces
    the graded (anti)symmetries for odd coefficients.
    """
    check_uniform(*s.components, *t.components)
    if kind == "metric":
        return s.components[0] * t.components[0] + s.components[1] * t.components[1]
    if kind == "symplectic":
        rotated = mat_apply(ACI, s.components)
        return rotated[0] * t.components[0] + rotated[1] * t.components[1]
    raise ValueError(f"unknown pairing kind {kind!r}")


def symplectic_dual(s: MajoranaSpinor) -> DualSpinor:
    """``s~ = omega(s, .)``; on the frame, ``s_k ~-> eps_{kj} s^j``."""
    c = s.components
    return DualSpinor((-c[1], c[0]))


def dual_to_spinor(d: DualSpinor) -> MajoranaSpinor:
    """De-dualisation ``s^l ~-> -eps^{li} s_i`` extended by linearity.

    Composed with ``symplectic_dual`` this gives the identity, while the
    evaluation of ``symplectic_dual(s_k)`` on ``dual_to_spinor(s^l)`` is
    ``-delta^l_k``; both facts are certified by the clifford suite.
    """
    c = d.components
    return MajoranaSpinor((c[1], -c[0]))


_INV_SQRT2 = 2.0 ** -0.5


def weyl_split(s: MajoranaSpinor):
    """Split a complexified spinor into its +i / -i eigenparts of ``ACI``.

    Returns coefficients ``(z_w, z_wbar)`` with respect to the hermitian
    frame ``w = (s1 - i s2)/sqrt(2)``, ``wbar = (s1 + i s2)/sqrt(2)``.
    """
    c1, c2 = s.components
    z_w = (c1 + 1j * c2) * _INV_SQRT2
    z_wbar = (c1 - 1j * c2) * _INV_SQRT2
    return z_w, z_wbar


def from_weyl(z_w, z_wbar) -> MajoranaSpinor:
    """Inverse of ``weyl_split``."""
    return MajoranaSpinor((
        (z_w + z_wbar) * _INV_SQRT2,
        (z_wbar - z_w) * 1j * _INV_SQRT2,
    ))


def spinor_square(s: MajoranaSpinor, t: MajoranaSpinor) -> tuple:
    """Frame-level squaring map into the complexified tangent plane.

    Bilinear with ``square(w, w) = e`` and ``square(wbar, wbar) = ebar``
    where ``e = (e1 - i e2)/sqrt(2)``; the mixed Weyl components are
    projected out.  Returns tangent components ``(v1, v2)``.
    """
    zw_s, zb_s = weyl_split(s)
    zw_t, zb_t = weyl_split(t)
    hol = zw_s * zw_t
    ahol = zb_s * zb_t
    e = (_INV_SQRT2, -1j * _INV_SQRT2)
    ebar = (_INV_SQRT2, 1j * _INV_SQRT2)
    return (hol * e[0] + ahol * ebar[0], hol * e[1] + ahol * ebar[1])


def form_pair_metric(z: SpinorForm, w: SpinorForm):
    """Induced metric pairing on spinor-valued one-forms."""
    acc = None
    for a in range(2):
        for mu in range(2):
            term = z.components[a][mu] * w.components[a][mu]
            acc = term if acc is None else acc + term
    return acc


W_SPINOR = MajoranaSpinor((_INV_SQRT2, -1j * _INV_SQRT2))
WBAR_SPINOR = MajoranaSpinor((_INV_SQRT2, 1j * _INV_SQRT2))


def tensor_form(s: MajoranaSpinor, coform: tuple) -> SpinorForm:
    """Simple tensor ``s (x) alpha`` with covector components ``coform``."""
    return SpinorForm(tuple(
        tuple(s.components[a] * coform[mu] for mu in range(2))
        for a in range(2)))
