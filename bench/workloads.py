"""Benchmark workloads: seeded inputs, the evaluation under test, and the
encoding of its output that the reference check compares.

Every workload draws the same mode tables from its seed, so the two
``action-*`` workloads evaluate the same fields on different grids.  The
layout of the modes is fixed and only their amplitudes are drawn, so every
seed does the same work.  Wavevectors stay at |k| <= 1 and the conformal
factor stays mild, which keeps the aliasing guard quiet at N >= 32: seeds
0-599 all pass at N = 32.
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from supertorus import functionals  # noqa: E402
from supertorus.fields import ModeSpec, make_trig_field  # noqa: E402
from supertorus.geometry import FrameField  # noqa: E402
from supertorus.grassmann import DualScalar  # noqa: E402
from supertorus.grids import GridScalar, TorusGrid  # noqa: E402

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
TOLERANCE = 1e-12  # absolute, per monomial of every breakdown entry

# Fixed mode layout: each odd generator sits on two spinor slots and only
# the amplitudes come from the seed, so every seed does the same work (the
# same monomials, products and transforms) and seeds differ only in values.
# a lexicographically negative wavevector is a sine mode, see ModeSpec
WAVEVECTORS = ((1, 0), (0, -1), (1, 1), (-1, 1))
SPINOR_SLOTS = ((0, 0), (0, 1), (1, 0), (1, 1))
FRAME_WAVEVECTOR = (1, 1)
FRAME_VARIATION_WAVEVECTOR = (1, -1)


@dataclasses.dataclass(frozen=True)
class WorkloadSpec:
    n: int
    mode: str
    action: str  # "super_action" or "dym_dhym_action"
    eps: bool  # the conformal factor carries an eps variation


WORKLOADS = {
    "action-n32-eps": WorkloadSpec(32, "spectral", "super_action", True),
    "action-n256-eps": WorkloadSpec(256, "spectral", "super_action", True),
    "torsion-fd4-n128": WorkloadSpec(128, "fd4", "dym_dhym_action", False),
}


@dataclasses.dataclass(frozen=True)
class ModeTables:
    phi: tuple
    psi: tuple
    chi: tuple
    torsion: tuple
    frame: ModeSpec
    frame_variation: ModeSpec


def mode_tables(seed: int) -> ModeTables:
    """Draw every mode amplitude from ``seed``; identical for all workloads."""
    rng = np.random.default_rng(seed)

    def amplitude(lo=-0.5, hi=0.5):
        return float(rng.uniform(lo, hi))

    phi = tuple(ModeSpec("map", (a,), WAVEVECTORS[2 * a + i], amplitude())
                for a in range(2) for i in range(2))
    psi = tuple(ModeSpec("spinor", SPINOR_SLOTS[(g + 2 * j) % 4],
                         WAVEVECTORS[(g + j) % 3], amplitude(), g)
                for g in (0, 1, 2) for j in range(2))
    chi = tuple(ModeSpec("gravitino", SPINOR_SLOTS[(g + 2 * j) % 4],
                         WAVEVECTORS[(g + j) % 3 + 1], amplitude(), g)
                for g in (3, 4, 5) for j in range(2))
    torsion = tuple(ModeSpec("torsion", (mu,), WAVEVECTORS[(2 * mu + i + 1) % 4], amplitude())
                    for mu in range(2) for i in range(2))
    frame = ModeSpec("map", (0,), FRAME_WAVEVECTOR, amplitude(0.04, 0.12))
    frame_variation = ModeSpec("map", (0,), FRAME_VARIATION_WAVEVECTOR,
                               amplitude(-0.15, 0.15))
    return ModeTables(phi, psi, chi, torsion, frame, frame_variation)


class Workload:
    """Inputs of one workload and seed; ``evaluate`` is the timed call."""

    def __init__(self, name: str, seed: int):
        spec = WORKLOADS[name]
        self.spec = spec
        tables = mode_tables(seed)
        grid = TorusGrid((spec.n, spec.n), mode=spec.mode)
        self.grid = grid
        self.phi = make_trig_field("map", tables.phi, grid)
        self.psi = make_trig_field("spinor", tables.psi, grid)
        u = make_trig_field("map", [tables.frame], grid, dim=1).comps[0]
        if spec.eps:
            du = make_trig_field("map", [tables.frame_variation], grid, dim=1).comps[0]
            u = GridScalar.dual(u, du)
        self.u = u
        if spec.action == "super_action":
            self.chi = make_trig_field("gravitino", tables.chi, grid)
        else:
            self.A = make_trig_field("torsion", tables.torsion, grid)

    def evaluate(self):
        """Build a fresh conformal frame ``exp(-u)`` and evaluate the action.

        The frame is new on every call, so its cached coframe, density and
        connection never carry over from one evaluation to the next.
        """
        e = FrameField.conformal(self.grid, self.u)
        if self.spec.action == "super_action":
            return functionals.super_action(self.phi, self.psi, self.chi, e)
        return functionals.dym_dhym_action(self.phi, self.psi, e, self.A)


def _monomials(element) -> dict:
    return {",".join(str(i) for i in range(m.bit_length()) if m >> i & 1): float(c)
            for m, c in sorted(element.coeffs.items())}


def encode(breakdown) -> dict:
    """Every breakdown entry (and the total) as value and eps slot per monomial.

    ``ActionBreakdown.to_json_dict`` keeps only the value slot, so the
    variation slot is encoded here; monomial keys follow its convention.
    Encoding reads the breakdown's fields only, so it adds no calls to the
    traced layers.
    """
    out = {}
    for f in dataclasses.fields(breakdown):
        entry = getattr(breakdown, f.name)
        if isinstance(entry, DualScalar):
            out[f.name] = {"value": _monomials(entry.value),
                           "eps": _monomials(entry.variation)}
        else:
            out[f.name] = {"value": _monomials(entry), "eps": {}}
    # the total is summed here, in the order ``ActionBreakdown.total`` adds
    # the entries, so that the check calls no code of the program
    total = {"value": {}, "eps": {}}
    for entry in out.values():
        for slot, monomials in entry.items():
            for key, c in monomials.items():
                total[slot][key] = total[slot].get(key, 0.0) + c
    out["total"] = total
    return out


def deviation(got: dict, want: dict) -> float:
    """Largest absolute difference over all entries, slots and monomials;
    a monomial missing on one side reads as 0, a missing entry as infinite."""
    if got.keys() != want.keys():
        return float("inf")
    worst = 0.0
    for name, slots in want.items():
        for slot in ("value", "eps"):
            a, b = got[name][slot], slots[slot]
            for key in a.keys() | b.keys():
                worst = max(worst, abs(a.get(key, 0.0) - b.get(key, 0.0)))
    return worst


def reference_path(name: str) -> Path:
    return REFERENCE_DIR / f"{name}.json"
