import numpy as np
import pytest

from supertorus.clifford import GAMMA12, mat_apply, theta_insert
from supertorus.fields import (GravitinoField, ModeSpec, ParityMismatch, TorsionField,
                               TwistedSpinorField, frame_values_to_form, make_trig_field)
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
from supertorus.grassmann import EPS, GrassmannElement
from supertorus.grids import GridScalar, TorusGrid

# each odd generator sits on two spinor slots; a lexicographically negative
# wavevector is a sine mode
WAVEVECTORS = ((1, 0), (0, -1), (1, 1), (-1, 1))
SPINOR_SLOTS = ((0, 0), (0, 1), (1, 0), (1, 1))


@pytest.fixture(scope="module")
def action_inputs():
    """Map, odd spinor and gravitino plus a mild conformal factor and its
    variation on a spectral 32x32 grid (at N=16 the aliasing guard trips)."""
    return _inputs_on(TorusGrid((32, 32)))


def _inputs_on(grid):
    """The inputs of :func:`action_inputs`, the same modes on ``grid``."""
    rng = np.random.default_rng(0)

    def amplitude(lo=-0.5, hi=0.5):
        return float(rng.uniform(lo, hi))

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
    assert any(m & EPS for m in dual.coeffs)
    assert dual.variation.max_abs() > 1e-3
    h = 1e-4
    plus = _total(grid, phi, psi, chi, u + du.scale(h))
    minus = _total(grid, phi, psi, chi, u - du.scale(h))
    central = (plus - minus) * (1 / (2 * h))
    assert (dual.variation - central).max_abs() <= 1e-9


def test_each_breakdown_entry_eps_slot_is_its_first_variation(action_inputs):
    """Per entry, on a gravitino layout whose quartic term is not round-off:
    each generator on all four spinor slots, with all four wavevectors."""
    grid, phi, psi, _, u, du = action_inputs
    chi = _full_gravitino(grid)

    def breakdown(u):
        return super_action(phi, psi, chi, FrameField.conformal(grid, u))

    dual = breakdown(GridScalar.dual(u, du))
    assert dual.quartic_coupling.value.max_abs() > 1e-3
    h = 1e-4
    plus, minus = breakdown(u + du.scale(h)), breakdown(u - du.scale(h))
    for name in ("harmonic", "dirac", "quartic_coupling", "mixed_coupling"):
        entry = getattr(dual, name)
        assert any(m & EPS for m in entry.coeffs), name
        central = (getattr(plus, name) - getattr(minus, name)) * (1 / (2 * h))
        assert (entry.variation - central).max_abs() <= 1e-9, name


def _full_gravitino(grid):
    """Each generator on all four spinor slots, with all four wavevectors."""
    rng = np.random.default_rng(1)
    return make_trig_field("gravitino", [
        ModeSpec("gravitino", slot, WAVEVECTORS[(g + j) % 4], float(rng.uniform(-0.5, 0.5)), g)
        for g in (3, 4, 5) for j, slot in enumerate(SPINOR_SLOTS)], grid)


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


def test_the_frame_carries_the_torus_shape():
    """On the unit grid the constant frame ``diag(1/L1, 1/L2)`` is the flat
    rectangle with sides ``(L1, L2)``: the harmonic energy of
    ``cos 2 pi y_1`` is ``2 pi^2 L2 / L1``; swapping the sides moves it."""
    grid = TorusGrid((32, 32))
    phi = make_trig_field("map", [ModeSpec("map", (0,), (1, 0), 1.0)], grid)

    def energy(sides):
        zero = GridScalar.zeros(grid)
        e = FrameField([[GridScalar.constant(grid, 1.0 / sides[0]), zero],
                        [zero, GridScalar.constant(grid, 1.0 / sides[1])]])
        return harmonic_energy(phi, e).coeffs[0]

    want = 2 * np.pi ** 2 * 3.0 / 2.0
    assert abs(energy((2.0, 3.0)) - want) <= 1e-12 * want
    assert abs(energy((3.0, 2.0)) - energy((2.0, 3.0))) > 1.0


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
    form = theta_insert(s.comps)
    return chi.plus(frame_values_to_form(form[::-1] if swapped else form, e))


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


def _torsion(grid):
    return make_trig_field("torsion", [
        ModeSpec("torsion", (0,), (0, 0), 0.7),
        ModeSpec("torsion", (0,), (1, 0), 0.3),
        ModeSpec("torsion", (1,), (-1, 1), -0.4)], grid)


def test_dirac_action_ignores_torsion(action_inputs):
    grid, phi, psi, _, u, _ = action_inputs
    e = FrameField.conformal(grid, u)
    plain = dirac_action(psi, e)
    assert plain.max_abs() > 1e-3
    assert dym_dhym_action(phi, psi, e, _torsion(grid)).dirac == plain


def test_torsion_functional_takes_odd_spinors(action_inputs):
    grid, phi, psi, _, u, _ = action_inputs
    e = FrameField.conformal(grid, u)
    A = _torsion(grid)
    body = make_trig_field("spinor", [ModeSpec("spinor", (0, 1), (1, 0), 0.3)], grid)
    for bad in (body, psi.plus(body)):
        with pytest.raises(ParityMismatch, match="odd spinor"):
            dym_dhym_action(phi, bad, e, A)
    zero = make_trig_field("spinor", [], grid)
    assert dym_dhym_action(phi, zero, e, A).dirac == GrassmannElement.zero()
    with pytest.raises(ParityMismatch, match="TorsionField expected parity 0"):
        TorsionField([psi.comps[0][0], A.comps[1]])
    with pytest.raises(TypeError, match="TorsionField"):
        dym_dhym_action(phi, psi, e, list(A.comps))


@pytest.mark.parametrize("mode", ["spectral", "fd4", "fd2"])
def test_torsion_functional_is_gauge_invariant(mode):
    """``A -> A + d lambda`` leaves every entry, value and ``eps`` slot,
    unchanged; the co-exact shift ``(-d_1 lambda, d_0 lambda)`` does not."""
    grid, phi, psi, _, u, du = _inputs_on(TorusGrid((32, 32), mode=mode))
    e = FrameField.conformal(grid, GridScalar.dual(u, du))
    A = make_trig_field("torsion", [
        ModeSpec("torsion", (0,), (0, 1), 0.3),
        ModeSpec("torsion", (1,), (1, 0), -0.4),
        ModeSpec("torsion", (1,), (-1, 1), 0.2)], grid)
    lam = make_trig_field("map", [ModeSpec("map", (0,), (1, 1), 0.5),
                                  ModeSpec("map", (0,), (-1, 1), -0.3)], grid, dim=1).comps[0]
    d_lam = [lam.partial(0), lam.partial(1)]
    before = dym_dhym_action(phi, psi, e, A)
    after = dym_dhym_action(phi, psi, e, A.plus(TorsionField(d_lam)))
    scale = before.total.max_abs()
    assert scale > 1.0 and before.f_squared.variation.max_abs() > 1e-2
    for name in ActionBreakdown.__dataclass_fields__:
        assert (getattr(after, name) - getattr(before, name)).max_abs() <= 1e-13 * scale, name
    # the gauge shift moves no entry by more than 1.8e-15 on a total of 25;
    # the co-exact shift moves f_squared by about 1.1e3
    coexact = dym_dhym_action(phi, psi, e, A.plus(TorsionField([-d_lam[1], d_lam[0]])))
    assert (coexact.f_squared - before.f_squared).max_abs() > 1.0


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
    return GridScalar(grid, {0: 0.07 * np.cos(2 * np.pi * x)})


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
    even, odd = GrassmannElement({0b11: 1.0}), GrassmannElement({0b1: 1.0})
    zero = GrassmannElement.zero()
    entries = dict.fromkeys(ActionBreakdown.__dataclass_fields__, zero)
    ActionBreakdown(**{**entries, "dirac": even + _eps(even)})
    for entry in (odd, odd + _eps(even), even + _eps(odd)):
        with pytest.raises(ParityMismatch, match="dirac"):
            ActionBreakdown(**{**entries, "dirac": entry})


def _eps(x):
    """``eps * x``, built from the masks: each monomial of ``x`` under ``EPS``."""
    return GrassmannElement({m | EPS: c for m, c in x.coeffs.items()})


def test_breakdown_rejects_an_entry_outside_the_ring():
    entries = dict.fromkeys(ActionBreakdown.__dataclass_fields__, GrassmannElement.zero())
    for entry in (1.0, 0, None):
        with pytest.raises(TypeError, match="harmonic"):
            ActionBreakdown(**{**entries, "harmonic": entry})


def _mask_of(key):
    """Mask of a ``to_json_dict`` monomial key such as ``"0,3,eps"``."""
    return sum(EPS if i == "eps" else 1 << int(i) for i in key.split(",") if i)


def test_to_json_dict_keeps_the_eps_monomials(action_inputs):
    grid, phi, psi, chi, u, du = action_inputs
    out = super_action(phi, psi, chi, FrameField.conformal(grid, GridScalar.dual(u, du)))
    data = out.to_json_dict()
    names = list(ActionBreakdown.__dataclass_fields__)
    assert list(data) == [*names, "total"]
    for name in data:
        entry = out.total if name == "total" else getattr(out, name)
        masks = {_mask_of(key): c for key, c in data[name].items()}
        assert len(masks) == len(data[name])
        assert {m: c for m, c in masks.items() if not m & EPS} == entry.value.coeffs
        assert {m & ~EPS: c for m, c in masks.items() if m & EPS} == entry.variation.coeffs
    assert "" in data["total"] and "eps" in data["total"]
    assert sum(k.endswith(",eps") for k in data["total"]) > 0
    # the total is the sum of the entries, added in the order of ``total``
    total = {}
    for name in names:
        for key, c in data[name].items():
            total[key] = total.get(key, 0.0) + c
    assert {k: c for k, c in total.items() if c != 0.0} == data["total"]


def _rotation_moves(grid, phi, psi, chi, e, sign=1.0):
    """Largest change of each breakdown entry when the frame rows rotate by
    ``theta = 0.3 cos 2 pi x``, ``e_0 -> cos theta e_0 - sin theta e_1`` and
    ``e_1 -> sin theta e_0 + cos theta e_1``, and the spinor indices of
    ``psi`` (``comps[k][a]``) and ``chi`` (``comps[a][mu]``) turn by
    ``R = cos(theta/2) - sign * sin(theta/2) GAMMA12``."""
    x, _ = grid.coordinates()
    theta = 0.3 * np.cos(2 * np.pi * x)
    c, s, ch, sh = (GridScalar(grid, {0: f(t)}) for f, t in (
        (np.cos, theta), (np.sin, theta), (np.cos, theta / 2), (np.sin, theta / 2)))
    rows = e.comps
    rotated = FrameField([[c * rows[0][mu] - s * rows[1][mu] for mu in range(2)],
                          [s * rows[0][mu] + c * rows[1][mu] for mu in range(2)]])

    def turned(comps):
        out = [[None] * len(comps[0]) for _ in range(2)]
        for j in range(len(comps[0])):
            pair = [comps[0][j], comps[1][j]]
            g12 = mat_apply(GAMMA12, pair)
            for i in range(2):
                out[i][j] = ch * pair[i] - (sh * g12[i]).scale(sign)
        return out

    before = super_action(phi, psi, chi, e)
    after = super_action(phi, TwistedSpinorField(turned(psi.comps)),
                         GravitinoField(turned(chi.comps)), rotated)
    return {name: (getattr(after, name) - getattr(before, name)).max_abs()
            for name in ActionBreakdown.__dataclass_fields__}


@pytest.mark.parametrize("eps", [False, True])
def test_super_action_is_invariant_under_local_frame_rotations(action_inputs, eps):
    grid, phi, psi, _, u, du = action_inputs
    chi = _full_gravitino(grid)
    e = FrameField.conformal(grid, GridScalar.dual(u, du) if eps else u)
    assert max(_rotation_moves(grid, phi, psi, chi, e).values()) <= 1e-15
    # the opposite spin rotation moves the Dirac term by 1.8e-2; leaving the
    # spinors unturned moves Dirac by 8.8e-3, quartic by 2.0e-4, mixed by 2.5e-3
    assert _rotation_moves(grid, phi, psi, chi, e, -1.0)["dirac"] > 1e-2
    moved = _rotation_moves(grid, phi, psi, chi, e, 0.0)
    assert moved["dirac"] > 5e-3
    assert moved["quartic_coupling"] > 1e-4
    assert moved["mixed_coupling"] > 1e-3


def _eps_total(n, mode):
    grid = TorusGrid((n, n), mode=mode)
    _, phi, psi, chi, u, du = _inputs_on(grid)
    return super_action(phi, psi, chi,
                        FrameField.conformal(grid, GridScalar.dual(u, du))).total


@pytest.fixture(scope="module")
def spectral_total():
    """Total of the eps-frame action on a spectral 64x64 grid."""
    return _eps_total(64, "spectral")


def test_spectral_total_is_resolved_at_n32(spectral_total):
    assert (_eps_total(32, "spectral") - spectral_total).max_abs() <= 1e-15


@pytest.mark.parametrize("mode,order", [("fd2", 2), ("fd4", 4)])
def test_finite_difference_totals_converge_at_their_order(spectral_total, mode, order):
    # value and eps monomials alike: fd2 reads 0.242, 0.0608, 0.0152 and
    # fd4 1.87e-3, 1.17e-4, 7.34e-6 at N = 32, 64, 128
    errors = [(_eps_total(n, mode) - spectral_total).max_abs() for n in (32, 64, 128)]
    assert errors[-1] > 1e-6
    for coarse, fine in zip(errors, errors[1:]):
        assert np.log2(coarse / fine) >= order - 0.1, errors
