import numpy as np
import pytest

from supertorus.fields import ModeSpec, make_trig_field
from supertorus.functionals import super_action
from supertorus.geometry import FrameField
from supertorus.grassmann import DualScalar
from supertorus.grids import GridScalar, TorusGrid

# each odd generator sits on two spinor slots; a lexicographically negative
# wavevector is a sine mode
WAVEVECTORS = ((1, 0), (0, -1), (1, 1), (-1, 1))
SPINOR_SLOTS = ((0, 0), (0, 1), (1, 0), (1, 1))


@pytest.fixture(scope="module")
def action_inputs():
    """Map, odd spinor and gravitino plus a mild conformal factor and its
    variation on a spectral 32x32 grid (at N=16 the aliasing guard trips)."""
    rng = np.random.default_rng(0)

    def amplitude(lo=-0.5, hi=0.5):
        return float(rng.uniform(lo, hi))

    grid = TorusGrid((32, 32))
    phi = make_trig_field("map", [
        ModeSpec("map", (a,), WAVEVECTORS[2 * a + i], amplitude())
        for a in range(2) for i in range(2)], grid)
    psi = make_trig_field("spinor", [
        ModeSpec("spinor", SPINOR_SLOTS[(g + 2 * j) % 4],
                 WAVEVECTORS[(g + j) % 3], amplitude(), g)
        for g in (0, 1, 2) for j in range(2)], grid)
    chi = make_trig_field("gravitino", [
        ModeSpec("gravitino", SPINOR_SLOTS[(g + 2 * j) % 4],
                 WAVEVECTORS[(g + j) % 3 + 1], amplitude(), g)
        for g in (3, 4, 5) for j in range(2)], grid)
    u, du = (make_trig_field("map", [ModeSpec("map", (0,), k, amp)], grid, dim=1).comps[0]
             for k, amp in (((1, 1), amplitude(0.04, 0.12)),
                            ((1, -1), amplitude(-0.15, 0.15))))
    return grid, phi, psi, chi, u, du


def _total(grid, phi, psi, chi, u):
    return super_action(phi, psi, chi, FrameField.conformal(grid, u)).total


def test_super_action_eps_slot_is_the_first_variation(action_inputs):
    grid, phi, psi, chi, u, du = action_inputs
    dual = _total(grid, phi, psi, chi, GridScalar.dual(u, du))
    assert isinstance(dual, DualScalar)
    assert dual.variation.max_abs() > 1e-3
    h = 1e-4
    plus = _total(grid, phi, psi, chi, u + du.scale(h))
    minus = _total(grid, phi, psi, chi, u - du.scale(h))
    central = (plus - minus) * (1 / (2 * h))
    assert (dual.variation - central).max_abs() <= 1e-9


def test_super_action_value_slot_ignores_the_variation(action_inputs):
    grid, phi, psi, chi, u, du = action_inputs
    dual = _total(grid, phi, psi, chi, GridScalar.dual(u, du))
    plain = _total(grid, phi, psi, chi, u)
    assert dual.value == plain
