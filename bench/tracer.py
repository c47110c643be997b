"""Per-layer spans for the traced run, patched in from the benchmark.

Each layer entry point below is replaced, for the duration of
:func:`patched`, by a wrapper that records one span per call.  A span's self
time is its duration minus the time covered by the spans it opened.  Names
that a module imports by name (``mul_sign``, ``sum_fields``, ``dirac_apply``,
``gravitino_frame_values``, ...) are wrapped in every module that looks them
up, or the importing module would keep calling the unwrapped function and
its count would silently read zero.  The cached ``FrameField`` properties are
wrapped through their getters.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

import numpy

import workloads  # noqa: F401  (puts the repository's src/ on sys.path)
from supertorus import fields, functionals, geometry, grassmann, grids

GridScalar = grids.GridScalar
FrameField = geometry.FrameField

# (span, owner, attribute); one span may be patched at several owners
ENTRY_POINTS = (
    ("grids.mul", GridScalar, "__mul__"),
    ("grids.add", GridScalar, "__add__"),
    ("grids.add", GridScalar, "__radd__"),
    ("grids.init", GridScalar, "__init__"),
    ("grids.partial", GridScalar, "partial"),
    ("grids.inv", GridScalar, "inv"),
    ("grids.exp", GridScalar, "exp"),
    ("grids.integral", GridScalar, "integral"),
    ("numpy.fft", numpy.fft, "fft"),
    ("numpy.fft", numpy.fft, "ifft"),
    ("numpy.fft2", numpy.fft, "fft2"),
    ("numpy.convolve", numpy, "convolve"),
    ("numpy.roll", numpy, "roll"),
    ("grassmann.mul_sign", grassmann, "mul_sign"),
    ("grassmann.mul_sign", grids, "mul_sign"),
    ("grassmann.element", grassmann.GrassmannElement, "__init__"),
    ("geometry.frame", FrameField, "__init__"),
    ("geometry.coframe", FrameField, "coframe"),
    ("geometry.density", FrameField, "density"),
    ("geometry.connection", FrameField, "connection"),
    ("geometry.sum_fields", geometry, "sum_fields"),
    ("geometry.sum_fields", fields, "sum_fields"),
    ("geometry.sum_fields", functionals, "sum_fields"),
    ("geometry.dirac_apply", geometry, "dirac_apply"),
    ("geometry.dirac_apply", functionals, "dirac_apply"),
    ("geometry.curvature_of_torsion", geometry, "curvature_of_torsion"),
    ("fields.gravitino_frame_values", fields, "gravitino_frame_values"),
    ("fields.gravitino_frame_values", functionals, "gravitino_frame_values"),
    ("fields.quantize_frame_values", fields, "quantize_frame_values"),
    ("fields.quantize_frame_values", functionals, "quantize_frame_values"),
    ("functionals.harmonic_density", functionals, "harmonic_density"),
    ("functionals.dirac_density", functionals, "dirac_density"),
    ("functionals.quartic_density", functionals, "quartic_density"),
    ("functionals.mixed_density", functionals, "mixed_density"),
)

# reported per evaluation; the suffix names the statistic of the span:
# ``calls``, ``self_s`` (span minus child spans) or ``s`` (inclusive)
PER_LAYER_METRICS = (
    "grids.mul.calls", "grids.mul.self_s",
    "grids.add.calls", "grids.add.self_s",
    "grids.init.calls",
    "grids.partial.calls", "grids.partial.self_s",
    "grids.inv.calls", "grids.inv.self_s",
    "grids.exp.calls",
    "grids.integral.self_s",
    "numpy.fft.calls", "numpy.fft.self_s",
    "numpy.fft2.calls", "numpy.fft2.self_s",
    "numpy.convolve.calls", "numpy.convolve.self_s",
    "numpy.roll.calls",
    "grassmann.mul_sign.calls",
    "grassmann.element.calls",
    "geometry.frame.self_s",
    "geometry.coframe.s", "geometry.density.s", "geometry.connection.s",
    "geometry.sum_fields.calls",
    "geometry.dirac_apply.calls", "geometry.dirac_apply.self_s",
    "geometry.curvature_of_torsion.s",
    "fields.gravitino_frame_values.calls", "fields.gravitino_frame_values.self_s",
    "fields.quantize_frame_values.calls",
    "functionals.harmonic_density.s", "functionals.dirac_density.s",
    "functionals.quartic_density.s", "functionals.mixed_density.s",
)

_STAT_INDEX = {"calls": 0, "s": 1, "self_s": 2}


class Tracer:
    """In-memory span statistics: ``stats[span] = [calls, inclusive_s, self_s]``."""

    def __init__(self):
        self.stats: dict[str, list] = {}
        self._open: list[float] = []  # child time covered, one per open span

    def wrap(self, span: str, fn):
        stats = self.stats.setdefault(span, [0, 0.0, 0.0])
        open_spans = self._open
        clock = time.perf_counter

        def traced(*args, **kwargs):
            open_spans.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                children = open_spans.pop()
                stats[0] += 1
                stats[1] += duration
                stats[2] += duration - children
                if open_spans:
                    open_spans[-1] += duration

        return traced

    def metric(self, name: str, evaluations: int) -> float:
        """Per-evaluation value of a ``PER_LAYER_METRICS`` entry."""
        span, stat = name.rsplit(".", 1)
        return self.stats[span][_STAT_INDEX[stat]] / evaluations


@contextmanager
def patched(tracer: Tracer):
    """Wrap every entry point with ``tracer``; restore the originals on exit."""
    saved = []
    try:
        for span, owner, attr in ENTRY_POINTS:
            original = owner.__dict__[attr]
            if isinstance(original, property):
                wrapped = property(tracer.wrap(span, original.fget))
            else:
                wrapped = tracer.wrap(span, original)
            saved.append((owner, attr, original))
            setattr(owner, attr, wrapped)
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
