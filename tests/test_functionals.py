import numpy as np
import pytest

from supertorus.clifford import MajoranaSpinor, theta_insert
from supertorus.fields import ModeSpec, ParityMismatch, frame_values_to_form, make_trig_field
from supertorus.functionals import (
    ActionBreakdown,
    coupling_mixed,
    coupling_quartic,
    coupling_ruled_out,
    dirac_action,
    dym_dhym_action,
    harmonic_energy,
    super_action,
)
from supertorus.geometry import FrameField, curvature_of_torsion, integrate
from supertorus.grassmann import DualScalar, GeneratorMismatch, GrassmannElement
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


def _no_field_arithmetic(*args):
    raise AssertionError("field arithmetic ran before the generator check")


@pytest.mark.parametrize("name,gens,highest", [
    ("super_action", 4, 5), ("dym_dhym_action", 2, 2), ("dirac_action", 2, 2),
    ("coupling_quartic", 5, 5), ("coupling_mixed", 3, 5), ("coupling_ruled_out", 4, 5)])
def test_functionals_check_gens_before_any_field_arithmetic(
        action_inputs, monkeypatch, name, gens, highest):
    grid, phi, psi, chi, u, du = action_inputs
    e = FrameField.conformal(grid, GridScalar.dual(u, du))
    call = {
        "super_action": lambda g: super_action(phi, psi, chi, e, gens=g),
        "dym_dhym_action": lambda g: dym_dhym_action(phi, psi, e, gens=g),
        "dirac_action": lambda g: dirac_action(psi, e, gens=g),
        "coupling_quartic": lambda g: coupling_quartic(chi, psi, e, gens=g),
        "coupling_mixed": lambda g: coupling_mixed(chi, phi, psi, e, gens=g),
        "coupling_ruled_out": lambda g: coupling_ruled_out(chi, psi, e, gens=g),
    }[name]
    with monkeypatch.context() as m:
        for op in ("__mul__", "__add__", "__sub__", "partial"):
            m.setattr(GridScalar, op, _no_field_arithmetic)
        with pytest.raises(GeneratorMismatch, match=f"gens={gens} .* generator {highest}"):
            call(gens)
        with pytest.raises(ValueError, match="17"):
            call(17)
    # one more generator is enough, and changes no coefficient
    full, covered = call(8), call(highest + 1)
    if hasattr(full, "total"):
        full, covered = full.total, covered.total
    assert full.value.coeffs == covered.value.coeffs
    assert full.variation.coeffs == covered.variation.coeffs
    assert covered.value.gens == highest + 1


def test_super_action_value_slot_ignores_the_variation(action_inputs):
    grid, phi, psi, chi, u, du = action_inputs
    dual = _total(grid, phi, psi, chi, GridScalar.dual(u, du))
    plain = _total(grid, phi, psi, chi, u)
    assert dual.value == plain


def test_super_action_entries_match_standalone_functionals(action_inputs):
    grid, phi, psi, chi, u, du = action_inputs
    e = FrameField.conformal(grid, GridScalar.dual(u, du))
    out = super_action(phi, psi, chi, e)
    assert out.mixed_coupling.max_abs() > 1e-2
    assert out.harmonic == harmonic_energy(phi, e)
    assert out.dirac == dirac_action(psi, e)
    # scaling by four is exact in binary floating point
    assert out.mixed_coupling == coupling_mixed(chi, phi, psi, e) * 4.0


def test_f_squared_is_the_curvature_square_over_the_density(action_inputs):
    grid, phi, psi, _, u, du = action_inputs
    e = FrameField.conformal(grid, GridScalar.dual(u, du))
    A = make_trig_field("torsion", [
        ModeSpec("torsion", (0,), (0, 1), 0.3),
        ModeSpec("torsion", (1,), (1, 0), -0.4)], grid)
    f12 = curvature_of_torsion(A)
    rho_inv = e.density.inv()
    want = integrate(f12 * f12 * rho_inv * rho_inv, e)
    got = dym_dhym_action(phi, psi, e, A).f_squared
    assert want.max_abs() > 1e-2 and want.variation.max_abs() > 1e-3
    assert (got - want).max_abs() <= 1e-13 * want.max_abs()


def _theta_shift(chi, s, e, swapped=False):
    """``chi + theta(s)``: the spin-1/2 insertion of ``s`` through the frame;
    with ``swapped`` the insertion's frame index is swapped, which is not a
    ``theta(s)`` direction."""
    form = theta_insert(MajoranaSpinor(tuple(s.comps))).components
    theta = frame_values_to_form(
        [[form[a][1 - k if swapped else k] for a in range(2)] for k in range(2)], e)
    return chi.plus(theta)


def _shift_spinor(grid, rng):
    return make_trig_field("varspinor", [
        ModeSpec("varspinor", (a,), (0, 0), float(rng.uniform(-1, 1)), g)
        for a in range(2) for g in (6, 7)], grid)


def _constant_odd_fields(grid, rng):
    """Constant odd spinor and gravitino with every slot on every generator
    of its block, amplitudes drawn from ``rng``."""
    psi = make_trig_field("spinor", [
        ModeSpec("spinor", (k, a), (0, 0), float(rng.uniform(-1, 1)), g)
        for k in range(2) for a in range(2) for g in (0, 1, 2)], grid)
    chi = make_trig_field("gravitino", [
        ModeSpec("gravitino", (a, mu), (0, 0), float(rng.uniform(-1, 1)), g)
        for a in range(2) for mu in range(2) for g in (3, 4, 5)], grid)
    return psi, chi


def _frames(grid):
    u = make_trig_field("map", [ModeSpec("map", (0,), (1, 1), 0.1)], grid, dim=1)
    return {"flat": FrameField.flat(grid),
            "conformal": FrameField.conformal(grid, u.comps[0])}


def test_mixed_coupling_is_super_weyl_invariant(action_inputs):
    grid, phi, psi, chi, u, _ = action_inputs
    e = FrameField.conformal(grid, u)
    s = _shift_spinor(grid, np.random.default_rng(1))
    before = coupling_mixed(chi, phi, psi, e)
    after = coupling_mixed(_theta_shift(chi, s, e), phi, psi, e)
    assert before.max_abs() > 1e-2
    assert (after - before).max_abs() <= 1e-13


@pytest.mark.parametrize("eps", [False, True])
def test_super_action_total_is_super_weyl_invariant(action_inputs, eps):
    grid, phi, psi, chi, u, du = action_inputs
    e = FrameField.conformal(grid, GridScalar.dual(u, du) if eps else u)
    s = _shift_spinor(grid, np.random.default_rng(1))
    before = super_action(phi, psi, chi, e).total
    shifted, swapped = (super_action(phi, psi, _theta_shift(chi, s, e, swap), e).total
                        for swap in (False, True))
    assert before.max_abs() > 1.0
    assert (shifted - before).max_abs() <= 1e-13
    # the swapped insertion moves the total by 0.038
    assert (swapped - before).max_abs() > 1e-2


@pytest.mark.parametrize("frame", ["flat", "conformal"])
def test_quartic_coupling_is_super_weyl_invariant(frame):
    grid = TorusGrid((32, 32))
    e = _frames(grid)[frame]
    rng = np.random.default_rng(2)
    psi, chi = _constant_odd_fields(grid, rng)
    s = _shift_spinor(grid, rng)
    phi = make_trig_field("map", [], grid)
    before, after = (super_action(phi, psi, c, e).quartic_coupling
                     for c in (chi, _theta_shift(chi, s, e)))
    assert before.max_abs() > 0.1
    assert (after - before).max_abs() <= 1e-13


def test_dirac_action_ignores_torsion(action_inputs):
    grid, _, psi, _, u, _ = action_inputs
    e = FrameField.conformal(grid, u)
    A = make_trig_field("torsion", [
        ModeSpec("torsion", (0,), (0, 0), 0.7),
        ModeSpec("torsion", (0,), (1, 0), 0.3),
        ModeSpec("torsion", (1,), (-1, 1), -0.4)], grid)
    plain = dirac_action(psi, e)
    assert plain.max_abs() > 1e-3
    assert (dirac_action(psi, e, A) - plain).max_abs() <= 1e-14


@pytest.mark.parametrize("frame", ["flat", "conformal"])
@pytest.mark.parametrize("seed", range(4))
def test_ruled_out_term_is_minus_half_the_quartic_invariant(frame, seed):
    grid = TorusGrid((32, 32))
    e = _frames(grid)[frame]
    rng = np.random.default_rng(seed)
    psi, chi = _constant_odd_fields(grid, rng)
    s = _shift_spinor(grid, rng)
    quartic = coupling_quartic(chi, psi, e)
    ruled_out = coupling_ruled_out(chi, psi, e)
    assert quartic.max_abs() > 0.1
    assert (ruled_out + quartic * 0.5).max_abs() <= 1e-12
    shifted = coupling_ruled_out(_theta_shift(chi, s, e), psi, e)
    assert (shifted - ruled_out).max_abs() <= 1e-13


def _weyl_factor(grid):
    """``v = 0.07 cos 2 pi x``, the conformal factor of the Weyl checks."""
    x, _ = grid.coordinates()
    return GridScalar(grid, {0: 0.07 * np.cos(2 * np.pi * x / grid.periods[0])})


def _weyl_moved(grid, phi, psi, chi, e, w_psi, w_chi):
    """Largest change of any breakdown entry under the rescaling
    ``e_k -> exp(-v) e_k``, ``psi -> exp(w_psi v) psi`` and
    ``chi_mu -> exp(w_chi v) chi_mu`` with ``v`` from :func:`_weyl_factor`."""
    v = _weyl_factor(grid)
    before = super_action(phi, psi, chi, e)
    after = super_action(phi, psi.map(lambda c: v.scale(w_psi).exp() * c),
                         chi.map(lambda c: v.scale(w_chi).exp() * c), e.rescaled(v))
    return max((getattr(after, name) - getattr(before, name)).max_abs()
               for name in ActionBreakdown.__dataclass_fields__)


@pytest.mark.parametrize("eps", [False, True])
def test_super_action_is_conformally_invariant(action_inputs, eps):
    grid, phi, psi, chi, u, du = action_inputs
    e = FrameField.conformal(grid, GridScalar.dual(u, du) if eps else u)
    # the spinor carries conformal weight -1/2 and the gravitino's
    # coordinate components +1/2
    assert _weyl_moved(grid, phi, psi, chi, e, -0.5, 0.5) <= 1e-14
    # wrong weights move the Dirac term (7.9e-3) or the mixed coupling (3.1e-4)
    assert _weyl_moved(grid, phi, psi, chi, e, 0.5, -0.5) > 1e-3
    assert _weyl_moved(grid, phi, psi, chi, e, -0.5, -0.5) > 1e-4


def _weyl_variation(grid, phi, psi, chi, u, w_psi, w_chi):
    """``eps`` slot of the total when the frame ``exp(-u)`` varies as
    ``e_k -> (1 - eps v) e_k``, ``psi -> (1 + eps w_psi v) psi`` and
    ``chi_mu -> (1 + eps w_chi v) chi_mu``."""
    v = _weyl_factor(grid)

    def seeded(weight):
        return lambda c: c if c.is_zero() else GridScalar.dual(c, (v * c).scale(weight))

    e = FrameField.conformal(grid, GridScalar.dual(u, v))
    return super_action(phi, psi.map(seeded(w_psi)), chi.map(seeded(w_chi)),
                        e).total.variation.max_abs()


def test_super_action_is_infinitesimally_conformally_invariant(action_inputs):
    grid, phi, psi, chi, u, _ = action_inputs
    assert _weyl_variation(grid, phi, psi, chi, u, -0.5, 0.5) <= 1e-14
    # wrong weights leave 7.9e-3 and 3.1e-4 in the eps slot
    assert _weyl_variation(grid, phi, psi, chi, u, 0.5, -0.5) > 1e-3
    assert _weyl_variation(grid, phi, psi, chi, u, -0.5, -0.5) > 1e-4


def test_breakdown_rejects_an_odd_variation():
    even, odd = GrassmannElement(4, {0b11: 1.0}), GrassmannElement(4, {0b1: 1.0})
    zero = GrassmannElement.zero(4)
    entries = dict.fromkeys(ActionBreakdown.__dataclass_fields__, zero)
    ActionBreakdown(**{**entries, "dirac": DualScalar(even, even)})
    for entry in (odd, DualScalar(odd, even), DualScalar(even, odd)):
        with pytest.raises(ParityMismatch, match="dirac"):
            ActionBreakdown(**{**entries, "dirac": entry})
