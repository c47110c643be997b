"""Flat-torus geometry driven by a Grassmann-even zweibein.

The orthonormal frame field is the single source of metric data: coframe,
metric, volume density and the Levi-Civita connection form are all derived
from it, the last one by solving the torsion-free structure equations

    d(coframe^1) = -Gamma ^ coframe^2,   d(coframe^2) = +Gamma ^ coframe^1

pointwise as a 2x2 linear system in the even part of the algebra.  Because
the solve goes through the generic field arithmetic, frames carrying an
``eps`` variation automatically propagate exact first variations of
coframe, metric, volume and connection.

Spinor-valued data is passed around as nested lists of :class:`GridScalar`
components; the typed wrappers live in :mod:`fields`.  Gamma matrices act
only through :mod:`clifford`, and :func:`spin_cov_deriv` is the one spin
covariant derivative: :func:`dirac_apply` runs it per target index and
contracts the frame components with :func:`clifford.quantize`.
"""

from __future__ import annotations

import numpy as np

from .clifford import GAMMA12, SpinorForm, mat_apply, quantize
from .grassmann import NoBody
from .grids import GridScalar, ShapeMismatch, TorusGrid


class NonOrientedFrame(ValueError):
    """Frame determinant has non-positive body somewhere."""


class SingularSolve(ArithmeticError):
    """The pointwise structure-equation system degenerated."""


class FrameField:
    """Zweibein ``comps[k][mu]`` of even fields; derived data is cached."""

    def __init__(self, comps):
        self.comps = [[comps[k][mu] for mu in range(2)] for k in range(2)]
        grid = self.comps[0][0].grid
        for row in self.comps:
            for c in row:
                if c.grid != grid:
                    raise ShapeMismatch("frame components on different grids")
                if c.parity != 0:
                    raise ValueError("frame components must be parity-even")
        self.grid = grid
        e = self.comps
        det = e[0][0] * e[1][1] - e[0][1] * e[1][0]
        body = det.coeffs.get(0)
        if body is None or np.min(body) <= 0.0:
            raise NonOrientedFrame("frame determinant body must be positive")
        self._det = det
        self._cache = {}

    @classmethod
    def flat(cls, grid: TorusGrid) -> "FrameField":
        one = GridScalar.constant(grid, 1.0)
        zero = GridScalar.zeros(grid)
        return cls([[one, zero], [zero, one]])

    @classmethod
    def conformal(cls, grid: TorusGrid, u: GridScalar) -> "FrameField":
        """Frame ``exp(-u) * delta`` for a real grid function ``u``."""
        factor = (-1.0 * u).exp()
        zero = GridScalar.zeros(grid)
        return cls([[factor, zero], [zero, factor]])

    def rescaled(self, u: GridScalar) -> "FrameField":
        """Conformal rescaling ``e_k -> exp(-u) e_k``."""
        factor = (-1.0 * u).exp()
        return FrameField([[factor * c for c in row] for row in self.comps])

    # -- derived data --------------------------------------------------------

    @property
    def determinant(self) -> GridScalar:
        """Frame determinant ``det(e_k^mu)``, the inverse of :attr:`density`."""
        return self._det

    @property
    def coframe(self):
        """Dual coframe ``ehat[k][mu]`` with ``ehat^k_mu e_l^mu = delta``."""
        if "coframe" not in self._cache:
            e = self.comps
            try:
                dinv = self.density
            except NoBody as exc:  # pragma: no cover - guarded by __init__
                raise SingularSolve(str(exc)) from exc
            # ehat = (E^T)^{-1} so that ehat^k_mu e_l^mu = delta^k_l
            self._cache["coframe"] = [
                [e[1][1] * dinv, -1.0 * (e[1][0] * dinv)],
                [-1.0 * (e[0][1] * dinv), e[0][0] * dinv],
            ]
        return self._cache["coframe"]

    @property
    def metric(self):
        """Covariant metric ``g[mu][nu] = sum_k ehat^k_mu ehat^k_nu``."""
        if "metric" not in self._cache:
            ehat = self.coframe
            self._cache["metric"] = [
                [sum_fields(ehat[k][mu] * ehat[k][nu] for k in range(2))
                 for nu in range(2)] for mu in range(2)]
        return self._cache["metric"]

    @property
    def metric_inv(self):
        """Contravariant metric ``g^[mu][nu] = sum_k e_k^mu e_k^nu``."""
        if "metric_inv" not in self._cache:
            e = self.comps
            self._cache["metric_inv"] = [
                [sum_fields(e[k][mu] * e[k][nu] for k in range(2))
                 for nu in range(2)] for mu in range(2)]
        return self._cache["metric_inv"]

    @property
    def density(self) -> GridScalar:
        """Riemannian volume density ``det(coframe)``."""
        if "density" not in self._cache:
            self._cache["density"] = self._det.inv()
        return self._cache["density"]

    @property
    def connection(self):
        """Levi-Civita connection one-form from the Cartan solve."""
        if "connection" not in self._cache:
            self._cache["connection"] = levi_civita_form(self)
        return self._cache["connection"]


def sum_fields(fields):
    """Left-to-right sum of a nonempty iterable, drawn one term at a time."""
    fields = iter(fields)
    for acc in fields:
        for f in fields:
            acc = acc + f
        return acc
    raise ValueError("sum_fields needs at least one field")


def levi_civita_form(e: FrameField):
    """Solve the torsion-free structure equations for ``Gamma_mu``.

    The pointwise 2x2 system has determinant det(coframe), whose inverse is
    the frame determinant already validated at construction.
    """
    ehat = e.coframe
    d1 = ehat[0][1].partial(0) - ehat[0][0].partial(1)
    d2 = ehat[1][1].partial(0) - ehat[1][0].partial(1)
    rho_inv = e.determinant
    gamma1 = -1.0 * ((ehat[0][0] * d1 + ehat[1][0] * d2) * rho_inv)
    gamma2 = -1.0 * ((ehat[0][1] * d1 + ehat[1][1] * d2) * rho_inv)
    return [gamma1, gamma2]


def cartan_residual(e: FrameField, gamma) -> float:
    """Max-abs residual of both structure equations; the solve oracle."""
    ehat = e.coframe
    res = 0.0
    for k, sign in ((0, -1.0), (1, 1.0)):
        other = ehat[1 - k]
        dk = ehat[k][1].partial(0) - ehat[k][0].partial(1)
        wedge = gamma[0] * other[1] - gamma[1] * other[0]
        res = max(res, (dk - sign * wedge).max_abs())
    return res


def torsion_zero(grid: TorusGrid):
    return [GridScalar.zeros(grid), GridScalar.zeros(grid)]


def _spin_coefficients(e: FrameField, A):
    """``(Gamma_mu + A_mu)/2`` for mu = 0, 1; ``A=None`` is no torsion."""
    A = torsion_zero(e.grid) if A is None else A
    if any(comp.parity != 0 for comp in A):
        raise ValueError("torsion one-form components must be even")
    return [(gamma + a).scale(0.5) for gamma, a in zip(e.connection, A)]


def _covariant(s, coeff):
    rotated = mat_apply(GAMMA12, s)
    return [[s[a].partial(mu) + coeff[mu] * rotated[a] for mu in range(2)]
            for a in range(2)]


def spin_cov_deriv(s, e: FrameField, A=None):
    """Spin covariant derivative of a primal spinor field.

    ``s`` is a pair of fields; the result is ``out[a][mu]`` with
    ``out[.][mu] = d_mu s + (Gamma_mu + A_mu)/2 * gamma^1 gamma^2 s``.
    """
    return _covariant(s, _spin_coefficients(e, A))


def dirac_apply(psi, e: FrameField, A=None):
    """Dirac operator with torsion on a twisted (dual-spinor) field.

    ``psi[k][a]`` carries a dual spinor index ``k`` and a flat target index
    ``a``; dual components transform by the same gamma matrices as primal
    ones, so ``(D psi)[l][a] = gamma^j_{lm} e_j^mu nabla_mu psi[m][a]``.
    """
    coeff = _spin_coefficients(e, A)
    d = len(psi[0])
    out = [[None] * d for _ in range(2)]
    for a in range(d):
        nabla = _covariant([psi[0][a], psi[1][a]], coeff)
        z = SpinorForm(tuple(
            tuple(sum_fields(e.comps[j][mu] * nabla[m][mu] for mu in range(2))
                  for j in range(2))
            for m in range(2)))
        out[0][a], out[1][a] = quantize(z).components
    return out


def curvature_of_torsion(A) -> GridScalar:
    """Curvature ``F_12 = d_1 A_2 - d_2 A_1`` of the torsion one-form."""
    return A[1].partial(0) - A[0].partial(1)


def integrate(f: GridScalar, e: FrameField, gens: int = 8):
    """Integral of an even scalar field against the Riemannian volume;
    the weighted field is never stored (see :meth:`GridScalar.integral`)."""
    return f.integral(gens, weight=e.density)


def divergence(J, e: FrameField) -> GridScalar:
    """Metric divergence ``rho^{-1} d_mu (rho J^mu)`` of a vector field."""
    rho = e.density
    flux = sum_fields((rho * J[mu]).partial(mu) for mu in range(2))
    return e.determinant * flux


def gradient(phi: GridScalar, e: FrameField):
    """Metric gradient; components ``grad^mu = g^{mu nu} d_nu phi``."""
    g_inv = e.metric_inv
    dphi = [phi.partial(0), phi.partial(1)]
    return [sum_fields(g_inv[mu][nu] * dphi[nu] for nu in range(2))
            for mu in range(2)]


def laplacian(phi: GridScalar, e: FrameField) -> GridScalar:
    """Laplace-Beltrami operator via divergence of the gradient."""
    return divergence(gradient(phi, e), e)
