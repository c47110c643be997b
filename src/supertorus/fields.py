"""Physical fields: map, twisted spinor, gravitino, torsion, and their constructors.

Component conventions
---------------------
* ``MapField.comps[a]`` -- even scalar per flat target direction ``a``;
* ``TwistedSpinorField.comps[k][a]`` -- dual-spinor-frame index ``k`` against
  target index ``a``; odd in the supersymmetric pipeline, even components
  are accepted too;
* ``SpinorField.comps[a]`` -- primal spinor frame components (the
  ``varspinor`` kind);
* ``GravitinoField.comps[a][mu]`` -- spinor frame index ``a`` against the
  *coordinate* one-form index ``mu``; frame evaluations ``chi(e_k)`` go
  through the zweibein;
* ``TorsionField.comps[mu]`` -- even coordinate component of the torsion
  one-form.

Gravitino frame values ``vals[k][a]`` (spinor component ``a`` of
``chi(e_k)``) are a spinor-valued one-form in the one layout of
:mod:`clifford`, frame index first, and meet gamma matrices only through it:
:func:`quantize_frame_values` is its ``quantize``, and
:func:`spin32_frame_values`, the one q-split, subtracts its ``theta_insert``.

Odd fields draw their generators from disjoint blocks so that no monomial of
the functionals can collide: twisted spinors use generators 0-2, gravitinos
3-5, variational spinors 6-7.

The trig-mode constructor is the only entry point for field data, which keeps
every suite configuration an exactly band-limited trigonometric polynomial:
a wavevector that is lexicographically positive contributes a cosine, a
negative one contributes the sine of its negation, and ``(0, 0)`` a constant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .clifford import quantize, theta_insert
from .geometry import FrameField, sum_fields
from .grids import GridScalar, ShapeMismatch, TorusGrid

GENERATOR_BLOCKS = {
    "spinor": (0, 1, 2),
    "gravitino": (3, 4, 5),
    "varspinor": (6, 7),
    "map": (),
    "torsion": (),
}


class GeneratorBudgetExceeded(ValueError):
    """A mode used a generator outside the block reserved for its field."""


class ParityMismatch(ValueError):
    """A field had the wrong parity for the requested operation."""


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


class MapField(_FieldBase):
    expected_parity = 0

    @property
    def dim(self) -> int:
        return len(self.comps)


class TwistedSpinorField(_FieldBase):
    """Any uniform parity; the torsion functional takes odd spinors only."""

    @property
    def dim(self) -> int:
        return len(self.comps[0])


class SpinorField(_FieldBase):
    pass


class GravitinoField(_FieldBase):
    pass


class TorsionField(_FieldBase):
    """Even torsion one-form; ``comps[mu]`` is the coordinate component."""

    expected_parity = 0


def zero_field(kind: str, grid: TorusGrid, dim: int):
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
        return TorsionField([zero(), zero()])
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
    phase = 2 * np.pi * (k1 * x1 + k2 * x2)
    return amplitude * (np.sin(phase) if use_sin else np.cos(phase))


def make_trig_field(kind: str, specs, grid: TorusGrid, dim: int = 2):
    """Assemble a field of ``kind`` from a deterministic table of its modes."""
    field = zero_field(kind, grid, dim)
    comps = field.comps
    block = GENERATOR_BLOCKS[kind]
    nyq = min(grid.shape[0], grid.shape[1]) // 2 - 1
    for spec in specs:
        if spec.kind != kind:
            raise ValueError(f"{spec.kind} mode given to a {kind} field")
        if max(abs(spec.wavevector[0]), abs(spec.wavevector[1])) > nyq:
            raise ValueError(f"mode {spec.wavevector} beyond the grid bandwidth")
        if not np.isfinite(spec.amplitude):
            raise ValueError(f"mode amplitude {spec.amplitude} is not finite")
        no_slot = ValueError(f"component {spec.component} is no slot of a {kind} field")
        target, slot = None, comps
        for idx in spec.component:
            if isinstance(slot, GridScalar) or not 0 <= idx < len(slot):
                raise no_slot
            target, slot = slot, slot[idx]
        if not isinstance(slot, GridScalar):
            raise no_slot
        if spec.generator >= 0:
            if not block:
                raise GeneratorBudgetExceeded(
                    f"{kind} fields are commuting; generator must be -1")
            if spec.generator not in block:
                raise GeneratorBudgetExceeded(
                    f"generator {spec.generator} outside the {kind} block {block}")
        mask = 0 if spec.generator < 0 else 1 << spec.generator
        arr = _trig_array(grid, spec.wavevector, spec.amplitude)
        arr.flags.writeable = False  # handed to the field as it is, not copied
        target[spec.component[-1]] = slot + GridScalar(grid, {mask: arr})
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


def quantize_frame_values(vals):
    """``gamma^k chi(e_k)`` on frame values ``vals[k][a]``."""
    return list(quantize(vals))


def spin32_frame_values(vals, s):
    """Frame values of the spin-3/2 part ``chi - theta(s)``, where
    ``s = quantize_frame_values(vals)`` is the spin-1/2 part of ``chi``."""
    half = theta_insert(s)
    return [[vals[k][a] - half[k][a] for a in range(2)] for k in range(2)]
