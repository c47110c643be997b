"""Physical fields: map, twisted spinor, gravitino, and their constructors.

Component conventions
---------------------
* ``MapField.comps[a]`` -- even scalar per flat target direction ``a``;
* ``TwistedSpinorField.comps[k][a]`` -- dual-spinor-frame index ``k`` against
  target index ``a``; odd in the supersymmetric pipeline, commuting (bare
  arrays) in the symplectic-target mode;
* ``SpinorField.comps[a]`` -- primal spinor frame components (variational
  spinors and intermediate values);
* ``GravitinoField.comps[a][mu]`` -- spinor frame index ``a`` against the
  *coordinate* one-form index ``mu``; frame evaluations ``chi(e_k)`` go
  through the zweibein.

Gravitino frame values ``vals[k][a]`` (spinor component ``a`` of
``chi(e_k)``) meet gamma matrices only through :mod:`clifford`:
:func:`quantize_frame_values` and :func:`spin32_frame_values`, the one
q-split, are its ``quantize`` and ``theta_insert`` in that layout.

Odd fields draw their generators from disjoint blocks so that no monomial of
the functionals can collide: twisted spinors use generators 0-2, gravitinos
3-5, variational spinors 6-7 (with the default budget of 8).

The trig-mode constructor is the only entry point for field data, which keeps
every suite configuration an exactly band-limited trigonometric polynomial:
a wavevector that is lexicographically positive contributes a cosine, a
negative one contributes the sine of its negation, and ``(0, 0)`` a constant.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .clifford import MajoranaSpinor, SpinorForm, quantize, spinor_pair, theta_insert
from .geometry import FrameField, spin_cov_deriv, sum_fields
from .grids import GridScalar, ShapeMismatch, TorusGrid

GENERATOR_BLOCKS = {
    "spinor": (0, 1, 2),
    "gravitino": (3, 4, 5),
    "varspinor": (6, 7),
    "map": (),
    "torsion": (),
}

DEFAULT_GENS = 8


class GeneratorBudgetExceeded(ValueError):
    """A mode used a generator outside the block reserved for its field."""


class ParityMismatch(ValueError):
    """A field had the wrong parity for the requested operation."""


class BranchCutWarning(UserWarning):
    """The torsion factorization data crossed the principal branch cut."""


def _walk(struct):
    if isinstance(struct, GridScalar):
        yield struct
    else:
        for item in struct:
            yield from _walk(item)


def _map_struct(struct, fn):
    if isinstance(struct, GridScalar):
        return fn(struct)
    return [_map_struct(item, fn) for item in struct]


def _zip_struct(a, b, fn):
    if isinstance(a, GridScalar):
        return fn(a, b)
    return [_zip_struct(x, y, fn) for x, y in zip(a, b)]


def _uniform_parity(comps) -> int | None:
    parities = set()
    for f in _walk(comps):
        if not f.is_zero():
            parities.add(f.parity)
    if not parities:
        return 0
    return parities.pop() if len(parities) == 1 else None


class _FieldBase:
    """Shared structure helpers; components are immutable by convention."""

    expected_parity: int | None = None

    def __init__(self, comps):
        self.comps = comps
        grids = {f.grid for f in _walk(comps)}
        if len(grids) != 1:
            raise ShapeMismatch("field components on different grids")
        self.grid = grids.pop()
        self.parity = _uniform_parity(comps)
        if (self.expected_parity is not None
                and self.parity != self.expected_parity
                and not self.all_zero()):
            raise ParityMismatch(
                f"{type(self).__name__} expected parity "
                f"{self.expected_parity}, got {self.parity}")

    def all_zero(self) -> bool:
        return all(f.is_zero() for f in _walk(self.comps))

    def map(self, fn):
        return type(self)(_map_struct(self.comps, fn))

    def zip(self, other, fn):
        return type(self)(_zip_struct(self.comps, other.comps, fn))

    def plus(self, other):
        return self.zip(other, lambda a, b: a + b)

    def max_abs(self) -> float:
        return max((f.max_abs() for f in _walk(self.comps)), default=0.0)


class MapField(_FieldBase):
    expected_parity = 0

    @property
    def dim(self) -> int:
        return len(self.comps)


class TwistedSpinorField(_FieldBase):
    @property
    def dim(self) -> int:
        return len(self.comps[0])


class SpinorField(_FieldBase):
    pass


class GravitinoField(_FieldBase):
    pass


def zero_field(kind: str, grid: TorusGrid, dim: int = 2):
    zero = lambda: GridScalar.zeros(grid)
    if kind == "map":
        return MapField([zero() for _ in range(dim)])
    if kind == "spinor":
        return TwistedSpinorField([[zero() for _ in range(dim)] for _ in range(2)])
    if kind == "varspinor":
        return SpinorField([zero(), zero()])
    if kind == "gravitino":
        return GravitinoField([[zero(), zero()], [zero(), zero()]])
    if kind == "torsion":
        return [zero(), zero()]
    raise ValueError(f"unknown field kind {kind!r}")


@dataclass(frozen=True)
class ModeSpec:
    """One trigonometric mode of a field component.

    ``generator`` is -1 for commuting content, otherwise the index of the odd
    generator carrying the mode.  The sign convention on ``wavevector``
    selects the phase: lexicographically positive means cosine, negative
    means the sine of the negated wavevector.
    """

    kind: str
    component: tuple[int, ...]
    wavevector: tuple[int, int]
    amplitude: float
    generator: int = -1


def _trig_array(grid: TorusGrid, wavevector, amplitude) -> np.ndarray:
    k1, k2 = wavevector
    x1, x2 = grid.coordinates()
    if (k1, k2) == (0, 0):
        return amplitude * np.ones(grid.shape)
    use_sin = (k1, k2) < (0, 0)
    if use_sin:
        k1, k2 = -k1, -k2
    phase = 2 * np.pi * (k1 * x1 / grid.periods[0] + k2 * x2 / grid.periods[1])
    return amplitude * (np.sin(phase) if use_sin else np.cos(phase))


def make_trig_field(kind: str, specs, grid: TorusGrid, dim: int = 2,
                    gens: int = DEFAULT_GENS, blocks=None):
    """Assemble a field from a deterministic mode table."""
    blocks = blocks or GENERATOR_BLOCKS
    field = zero_field(kind, grid, dim)
    comps = field if kind == "torsion" else field.comps
    nyq = min(grid.shape[0], grid.shape[1]) // 2 - 1
    for spec in specs:
        if max(abs(spec.wavevector[0]), abs(spec.wavevector[1])) > nyq:
            raise ValueError(f"mode {spec.wavevector} beyond the grid bandwidth")
        block = blocks[kind]
        if spec.generator >= 0:
            if spec.generator >= gens:
                raise GeneratorBudgetExceeded(
                    f"generator {spec.generator} outside the budget {gens}")
            if block and spec.generator not in block:
                raise GeneratorBudgetExceeded(
                    f"generator {spec.generator} outside the {kind} block {block}")
            if not block:
                raise GeneratorBudgetExceeded(
                    f"{kind} fields are commuting; generator must be -1")
        mask = 0 if spec.generator < 0 else 1 << spec.generator
        arr = _trig_array(grid, spec.wavevector, spec.amplitude)
        arr.flags.writeable = False  # handed to the field as it is, not copied
        target = comps
        for idx in spec.component[:-1]:
            target = target[idx]
        idx = spec.component[-1]
        target[idx] = target[idx] + GridScalar(grid, {mask: arr})
    if kind == "torsion":
        return comps
    return type(field)(comps)


# -- gravitino algebra --------------------------------------------------------


def gravitino_frame_values(chi: GravitinoField, e: FrameField):
    """Evaluations ``chi(e_k)`` as spinor component pairs, k = 0, 1."""
    out = []
    for k in range(2):
        out.append([
            sum_fields(e.comps[k][mu] * chi.comps[a][mu] for mu in range(2))
            for a in range(2)])
    return out


def frame_values_to_form(values, e: FrameField) -> GravitinoField:
    """Inverse of :func:`gravitino_frame_values` through the coframe."""
    ehat = e.coframe
    comps = [[sum_fields(ehat[k][mu] * values[k][a] for k in range(2))
              for mu in range(2)] for a in range(2)]
    return GravitinoField(comps)


def gravitino_split(chi: GravitinoField, e: FrameField):
    """Pointwise spin-1/2 / spin-3/2 decomposition of a gravitino."""
    vals = gravitino_frame_values(chi, e)
    s = quantize_frame_values(vals)
    return SpinorField(s), frame_values_to_form(spin32_frame_values(vals, s), e)


def quantize_frame_values(vals):
    """``gamma^k chi(e_k)`` on frame-indexed spinor values ``vals[k][a]``."""
    form = SpinorForm(tuple((vals[0][a], vals[1][a]) for a in range(2)))
    return list(quantize(form).components)


def spin32_frame_values(vals, s):
    """Frame values of the spin-3/2 part ``chi - theta(s)``, where
    ``s = quantize_frame_values(vals)`` is the spin-1/2 part of ``chi``."""
    half = theta_insert(MajoranaSpinor(tuple(s))).components
    return [[vals[k][a] - half[a][k] for a in range(2)] for k in range(2)]


def spinor_omega(s, t):
    """Symplectic spinor pairing on component pairs, first argument left."""
    return spinor_pair("symplectic", MajoranaSpinor(tuple(s)), MajoranaSpinor(tuple(t)))


def torsion_from_gravitino(chi: GravitinoField, e: FrameField):
    """Torsion one-form generated by an odd gravitino.

    ``A(v) = omega(quantize(chi), chi(v))``; the result is even with zero
    body because it is quadratic in odd components.
    """
    if chi.parity != 1 and not chi.all_zero():
        raise ParityMismatch("torsion extraction expects an odd gravitino")
    vals = gravitino_frame_values(chi, e)
    q = quantize_frame_values(vals)
    frame_comps = [spinor_omega(q, vals[k]) for k in range(2)]
    ehat = e.coframe
    return [sum_fields(ehat[k][mu] * frame_comps[k] for k in range(2))
            for mu in range(2)]


def classical_torsion_recovery(chi: GravitinoField, e: FrameField):
    """Metric-pairing variant ``A(v) = <quantize(chi), chi(v)>`` used as the
    recovery oracle for the commuting factorization.

    The check is purely pointwise, so it runs on the raw component arrays;
    the spectral product guard has no business here.
    """
    grid = e.grid
    zeros = np.zeros(grid.shape)

    def body(f: GridScalar) -> np.ndarray:
        if set(f.coeffs) - {0}:
            raise ParityMismatch("classical recovery expects commuting data")
        return f.coeffs.get(0, zeros)

    e_arr = [[body(e.comps[k][mu]) for mu in range(2)] for k in range(2)]
    ehat_arr = [[body(e.coframe[k][mu]) for mu in range(2)] for k in range(2)]
    chi_arr = [[body(chi.comps[a][mu]) for mu in range(2)] for a in range(2)]
    vals = [[sum(e_arr[k][mu] * chi_arr[a][mu] for mu in range(2))
             for a in range(2)] for k in range(2)]
    qs = MajoranaSpinor(tuple(quantize_frame_values(vals)))
    frame_comps = [spinor_pair("metric", qs, MajoranaSpinor(tuple(vals[k])))
                   for k in range(2)]
    return [GridScalar(grid, {0: sum(ehat_arr[k][mu] * frame_comps[k]
                                     for k in range(2))})
            for mu in range(2)]


def factorize_torsion(A, e: FrameField) -> GravitinoField:
    """Commuting gravitino reproducing a real torsion one-form.

    Writes the frame components as one complex function ``a = a_1 - i a_2``,
    takes the principal square root of ``2a`` for the spin-1/2 part and
    ``conj(a)/sqrt(2a)`` for the spin-3/2 part; with these weights the
    metric-pairing recovery is pointwise exact.  Vanishing ``a`` maps to a
    vanishing gravitino; data on or across the negative real axis triggers
    :class:`BranchCutWarning` because the square root may jump there.
    """
    grid = e.grid
    frame_vals = []
    for k in range(2):
        comp = sum_fields(e.comps[k][mu] * A[mu] for mu in range(2))
        if set(comp.coeffs) - {0}:
            raise ParityMismatch("classical factorization expects real torsion data")
        frame_vals.append(comp.coeffs.get(0, np.zeros(grid.shape)))
    a = frame_vals[0] - 1j * frame_vals[1]
    mag = np.abs(a)
    on_cut = (a.real < 0) & (np.abs(a.imag) <= 1e-12 * np.maximum(mag, 1e-30))
    left = a.real < 0
    crosses = left.any() and (a.imag[left].max(initial=-np.inf) > 0
                              and a.imag[left].min(initial=np.inf) < 0)
    if on_cut.any() or crosses:
        warnings.warn("torsion data touches the principal branch cut; "
                      "the factorized gravitino may be discontinuous",
                      BranchCutWarning)
    b = np.sqrt(2 * a)
    safe = mag > 0
    w = np.zeros_like(a)
    np.divide(np.conj(a), b, out=w, where=safe)
    p, q = b.real, b.imag
    c, d = w.real, w.imag
    # spinor part s = (p, -q); frame values of (theta_insert(s) + g)/sqrt(2)
    inv_sqrt2 = 2.0 ** -0.5
    vals = [
        [(0.5 * p + c) * inv_sqrt2, (0.5 * q + d) * inv_sqrt2],   # chi(e_1)
        [(-0.5 * q + d) * inv_sqrt2, (0.5 * p - c) * inv_sqrt2],  # chi(e_2)
    ]
    vals = [[GridScalar(grid, {0: arr}) for arr in pair] for pair in vals]
    return frame_values_to_form(vals, e)


def holomorphy_residual(s: SpinorField, e: FrameField, A=None) -> float:
    """L2 size of the spin-3/2 part of the covariant derivative of ``s``.

    Zero exactly for covariantly holomorphic sections; on the flat periodic
    torus these are the constants.
    """
    z = spin_cov_deriv(s.comps, e, A)
    # frame equals coordinates in the flat gauge this check is defined in
    vals = [[z[a][k] for a in range(2)] for k in range(2)]
    resid = spin32_frame_values(vals, quantize_frame_values(vals))
    total = 0.0
    vol = e.grid.cell_volume
    for k in range(2):
        for a in range(2):
            for arr in resid[k][a].coeffs.values():
                total += float(np.sum(arr * arr)) * vol
    return float(np.sqrt(total))
