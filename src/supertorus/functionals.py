"""Energy functionals over the discrete torus.

All integrands are assembled from frame evaluations, so every functional
accepts frames carrying an ``eps`` variation and returns ring elements whose
``eps`` monomials are the first variation; that is the whole
first-variation story.

Pairing conventions (fixed once, certified by the suites):

* the fiber pairing on twisted spinors is
  ``(z, w) = sum_a (z_0^a w_1^a - z_1^a w_0^a)`` -- the symplectic structure
  constant on the dual spinor frame with upper ``eps^{12} = +1``, target
  legs contracted with the flat metric.  It is symmetric on odd sections and
  antisymmetric on commuting ones, which is why the Dirac term survives
  exactly for anticommuting coefficients;
* the gravitino self-pairing contracts the frame leg with the flat metric
  and the spinor legs with the spinor area form, the unique combination
  that is even and symmetric for odd gravitinos.

The gravitino enters the full action through its spin-3/2 part only; the
spin-1/2 shift direction is therefore a gauge direction of every term here,
which is the super-Weyl invariance of the action.
"""

from __future__ import annotations

from dataclasses import dataclass, fields as dataclass_fields

from .clifford import GAMMA_PRODUCTS, MajoranaSpinor, mat_apply, symplectic_dual
from .fields import (
    GravitinoField,
    MapField,
    ParityMismatch,
    TwistedSpinorField,
    _walk,
    gravitino_frame_values,
    quantize_frame_values,
    spin32_frame_values,
    spinor_omega,
)
from .geometry import FrameField, dirac_apply, integrate, sum_fields
from .grassmann import EPS, GeneratorMismatch, GrassmannElement
from .grids import GridScalar, ShapeMismatch


@dataclass
class ActionBreakdown:
    """Per-term values of a functional; entries are even
    :class:`GrassmannElement` scalars, ``eps`` monomials included."""

    harmonic: GrassmannElement
    dirac: GrassmannElement
    quartic_coupling: GrassmannElement
    mixed_coupling: GrassmannElement
    f_squared: GrassmannElement
    scal_term: GrassmannElement

    def __post_init__(self):
        for f in dataclass_fields(self):
            entry = getattr(self, f.name)
            if not isinstance(entry, GrassmannElement):
                raise TypeError(f"breakdown entry {f.name} is a {type(entry).__name__}, "
                                "not a GrassmannElement")
            if any((m & ~EPS).bit_count() & 1 for m in entry.coeffs):
                raise ParityMismatch(f"breakdown entry {f.name} is not even")

    @property
    def total(self):
        out = self.harmonic
        for name in ("dirac", "quartic_coupling", "mixed_coupling",
                     "f_squared", "scal_term"):
            out = out + getattr(self, name)
        return out

    def to_json_dict(self) -> dict:
        """``{term: {monomial key: coefficient}}`` with monomial keys given
        as comma-joined sorted generator indices ("" for the body), followed
        by ``eps`` on the monomials of the first variation ("0,3,eps")."""
        def encode(entry):
            out = {}
            for mask in sorted(entry.coeffs):
                names = [str(i) for i in range((mask & ~EPS).bit_length()) if mask >> i & 1]
                key = ",".join(names + ["eps"] if mask & EPS else names)
                out[key] = float(entry.coeffs[mask])
            return out

        data = {f.name: encode(getattr(self, f.name)) for f in dataclass_fields(self)}
        data["total"] = encode(self.total)
        return data


def map_frame_differential(phi: MapField, e: FrameField):
    """``dphi(e_k)^a`` as a nested list [k][a]."""
    dphi = [[phi.comps[a].partial(mu) for a in range(phi.dim)] for mu in range(2)]
    return [[sum_fields(e.comps[k][mu] * dphi[mu][a] for mu in range(2))
             for a in range(phi.dim)] for k in range(2)]


def pairing_E_density(z, w) -> GridScalar:
    """Graded fiber pairing of two twisted-spinor component sets [k][a]."""
    dim = len(z[0])
    if len(w[0]) != dim:
        raise ShapeMismatch("target dimensions differ in the fiber pairing")
    return sum_fields(z[0][a] * w[1][a] - z[1][a] * w[0][a] for a in range(dim))


def harmonic_density(dphi) -> GridScalar:
    """``sum_ka dphi(e_k)^a ** 2`` from :func:`map_frame_differential`."""
    return sum_fields(row[a] * row[a] for row in dphi for a in range(len(row)))


def harmonic_energy(phi: MapField, e: FrameField, gens: int = 8):
    _check_gens(gens, phi, e)
    return integrate(harmonic_density(map_frame_differential(phi, e)), e, gens)


def dirac_density(psi: TwistedSpinorField, e: FrameField, A=None) -> GridScalar:
    return pairing_E_density(psi.comps, dirac_apply(psi.comps, e, A))


def dirac_action(psi: TwistedSpinorField, e: FrameField, A=None, gens: int = 8):
    """Integrated graded Dirac pairing; independent of the torsion term."""
    _check_gens(gens, psi, e, A)
    return integrate(dirac_density(psi, e, A), e, gens)


def gravitino_split_frame_values(chi: GravitinoField, e: FrameField):
    """Frame values ``chi(e_k)`` and those of its spin-3/2 part ``q chi``."""
    vals = gravitino_frame_values(chi, e)
    return vals, spin32_frame_values(vals, quantize_frame_values(vals))


def quartic_density(vals, qvals, psi: TwistedSpinorField) -> GridScalar:
    """``sum_i omega(chi(e_i), (q chi)(e_i)) (psi, psi)`` from the frame
    values of ``chi`` and ``q chi``."""
    q_pairing = sum_fields(spinor_omega(vals[i], qvals[i]) for i in range(2))
    return q_pairing * pairing_E_density(psi.comps, psi.comps)


def coupling_quartic(chi: GravitinoField, psi: TwistedSpinorField,
                     e: FrameField, gens: int = 8):
    """Quartic conformal invariant in its index form
    ``sum_ij omega(chi_i, gamma^j gamma^i chi_j) (psi, psi)``; equals twice
    the quartic term of the full action."""
    _check_gens(gens, chi, psi, e)
    vals = gravitino_frame_values(chi, e)
    acc = None
    for i in range(2):
        for j in range(2):
            rotated = mat_apply(GAMMA_PRODUCTS[j][i], vals[j])
            term = spinor_omega(vals[i], rotated)
            acc = term if acc is None else acc + term
    return integrate(acc * pairing_E_density(psi.comps, psi.comps), e, gens)


def mixed_density(qvals, dphi, psi: TwistedSpinorField) -> GridScalar:
    """``((q chi)(grad phi)~, psi)`` without the overall factor four."""
    dim = len(dphi[0])
    tilded = [[None] * dim for _ in range(2)]
    for a in range(dim):
        contracted = MajoranaSpinor(tuple(
            sum_fields(qvals[k][b] * dphi[k][a] for k in range(2)) for b in range(2)))
        tilded[0][a], tilded[1][a] = symplectic_dual(contracted).components
    return pairing_E_density(tilded, psi.comps)


def coupling_mixed(chi: GravitinoField, phi: MapField, psi: TwistedSpinorField,
                   e: FrameField, gens: int = 8):
    _check_gens(gens, chi, phi, psi, e)
    _, qvals = gravitino_split_frame_values(chi, e)
    return integrate(mixed_density(qvals, map_frame_differential(phi, e), psi), e, gens)


def coupling_ruled_out(chi: GravitinoField, psi: TwistedSpinorField,
                       e: FrameField, gens: int = 8):
    """Crossed quadratic gravitino-spinor term
    ``sum_aij omega(chi_i, gamma^j gamma^i psi^a) omega(psi^a, chi_j)``.

    With this contraction the term equals ``-1/2 * coupling_quartic``, so it
    is super-Weyl invariant and witnesses no rejection by the gravitino
    shift; whether the paper's ruled-out term contracts otherwise is open.
    """
    _check_gens(gens, chi, psi, e)
    vals = gravitino_frame_values(chi, e)
    dim = psi.dim
    acc = None
    for a in range(dim):
        spinor_a = [psi.comps[0][a], psi.comps[1][a]]
        for i in range(2):
            for j in range(2):
                rotated = mat_apply(GAMMA_PRODUCTS[j][i], spinor_a)
                term = spinor_omega(vals[i], rotated) * spinor_omega(spinor_a, vals[j])
                acc = term if acc is None else acc + term
    return integrate(acc, e, gens)


def super_action(phi: MapField, psi: TwistedSpinorField, chi: GravitinoField,
                 e: FrameField, A=None, gens: int = 8) -> ActionBreakdown:
    """Full action: harmonic + Dirac + gravitino couplings.

    The mixed entry carries its factor of four, so the breakdown sums
    exactly to the total.  The curvature-square and scalar entries belong to
    the torsion functionals and stay zero here.  The frame values ``dphi``,
    ``chi(e_k)`` and ``(q chi)(e_k)`` are evaluated once and shared.
    """
    _check_gens(gens, phi, psi, chi, e, A)
    zero = GrassmannElement.zero(gens)
    dphi = map_frame_differential(phi, e)
    vals, qvals = gravitino_split_frame_values(chi, e)
    return ActionBreakdown(
        harmonic=integrate(harmonic_density(dphi), e, gens),
        dirac=integrate(dirac_density(psi, e, A), e, gens),
        quartic_coupling=integrate(quartic_density(vals, qvals, psi), e, gens),
        mixed_coupling=integrate(mixed_density(qvals, dphi, psi).scale(4.0), e, gens),
        f_squared=zero,
        scal_term=zero,
    )


def dym_dhym_action(phi: MapField, psi: TwistedSpinorField, e: FrameField,
                    A=None, gens: int = 8) -> ActionBreakdown:
    """Torsion functionals: Dirac term with torsion plus curvature square.

    The scalar-curvature entry is identically zero on the flat torus, where
    it would only contribute a topological constant.
    """
    from .geometry import curvature_of_torsion, torsion_zero

    _check_gens(gens, phi, psi, e, A)
    A = A if A is not None else torsion_zero(e.grid)
    f12 = curvature_of_torsion(A)
    rho_inv = e.determinant
    fsq_density = f12 * f12 * rho_inv * rho_inv
    zero = GrassmannElement.zero(gens)
    return ActionBreakdown(
        harmonic=integrate(harmonic_density(map_frame_differential(phi, e)), e, gens),
        dirac=integrate(dirac_density(psi, e, A), e, gens),
        quartic_coupling=zero,
        mixed_coupling=zero,
        f_squared=integrate(fsq_density, e, gens),
        scal_term=zero,
    )


def _check_gens(gens: int, *inputs):
    """Raise :class:`GeneratorMismatch` unless ``gens`` covers every
    generator that the input fields (``None`` skipped) use."""
    if not 0 <= gens <= 16:
        raise ValueError(f"generator count must be in [0, 16], got {gens}")
    used = 0
    for f in _walk(getattr(x, "comps", x) for x in inputs if x is not None):
        for mask in f.coeffs:
            used |= mask
    highest = (used & (EPS - 1)).bit_length() - 1
    if highest >= gens:
        raise GeneratorMismatch(
            f"gens={gens} does not cover generator {highest} of the input fields")
