import numpy as np
import pytest

from supertorus.fields import (
    GeneratorBudgetExceeded,
    ModeSpec,
    frame_values_to_form,
    gravitino_frame_values,
    make_trig_field,
    quantize_frame_values,
    spin32_frame_values,
)
from supertorus.geometry import FrameField
from supertorus.grids import EPS, GridScalar, TorusGrid


def grid(shape=(32, 32)):
    return TorusGrid(shape)


def flat(g):
    return FrameField.flat(g)


def test_empty_spec_gives_zero_field():
    g = grid()
    psi = make_trig_field("spinor", [], g)
    assert psi.all_zero()


def test_constant_odd_mode():
    g = grid()
    s = make_trig_field("varspinor", [ModeSpec("varspinor", (0,), (0, 0), 1.0, 6)], g)
    assert set(s.comps[0].coeffs) == {1 << 6}
    assert np.all(s.comps[0].coeffs[1 << 6] == 1.0)
    assert s.parity == 1


def test_cross_monomial_from_disjoint_generators():
    g = grid()
    a = make_trig_field("spinor", [ModeSpec("spinor", (0, 0), (1, 0), 1.0, 0)], g)
    b = make_trig_field("spinor", [ModeSpec("spinor", (0, 0), (1, 0), 1.0, 1)], g)
    prod = a.comps[0][0] * b.comps[0][0]
    assert set(prod.coeffs) == {0b11}
    assert (a.comps[0][0] * a.comps[0][0]).is_zero()


def test_generator_block_discipline():
    g = grid()
    with pytest.raises(GeneratorBudgetExceeded):
        make_trig_field("spinor", [ModeSpec("spinor", (0, 0), (1, 0), 1.0, 5)], g)
    with pytest.raises(GeneratorBudgetExceeded):
        make_trig_field("map", [ModeSpec("map", (0,), (1, 0), 1.0, 0)], g)
    with pytest.raises(GeneratorBudgetExceeded):
        make_trig_field("varspinor", [ModeSpec("varspinor", (0,), (0, 0), 1.0, 9)], g)


def test_mode_of_another_kind_is_rejected():
    g = grid()
    for kind, spec in (("map", ModeSpec("spinor", (0,), (1, 0), 1.0)),
                       ("spinor", ModeSpec("gravitino", (0, 0), (1, 0), 1.0, 0))):
        with pytest.raises(ValueError, match=f"{spec.kind} mode given to a {kind} field"):
            make_trig_field(kind, [spec], g)


@pytest.mark.parametrize("amplitude", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_amplitude_is_rejected(amplitude):
    with pytest.raises(ValueError, match="not finite"):
        make_trig_field("map", [ModeSpec("map", (0,), (1, 0), amplitude)], grid())


@pytest.mark.parametrize("kind, component", [
    ("map", (0, 1)),          # too long
    ("map", (-1,)),           # would index from the end
    ("map", (2,)),            # past the target dimension
    ("spinor", (0, 5)),
    ("spinor", (0,)),         # too short
    ("gravitino", (2, 0)),
    ("varspinor", ()),
    ("torsion", (0, 0)),
])
def test_component_outside_the_field_is_rejected(kind, component):
    with pytest.raises(ValueError, match="is no slot"):
        make_trig_field(kind, [ModeSpec(kind, component, (1, 0), 1.0)], grid())


def test_wavevector_sign_convention():
    g = grid()
    phi_cos = make_trig_field("map", [ModeSpec("map", (0,), (1, 0), 2.0)], g, dim=1)
    phi_sin = make_trig_field("map", [ModeSpec("map", (0,), (-1, 0), 2.0)], g, dim=1)
    x1, _ = g.coordinates()
    assert np.max(np.abs(phi_cos.comps[0].coeffs[0] - 2 * np.cos(2 * np.pi * x1))) <= 1e-14
    assert np.max(np.abs(phi_sin.comps[0].coeffs[0] - 2 * np.sin(2 * np.pi * x1))) <= 1e-14


def conformal_eps_frame(g):
    """The non-flat frame ``exp(-u)`` with ``u = 0.1 sin 2pi x + eps 0.2 cos 2pi y``."""
    x1, x2 = g.coordinates()
    return FrameField.conformal(g, GridScalar.dual(
        GridScalar(g, {0: 0.1 * np.sin(2 * np.pi * x1)}),
        GridScalar(g, {0: 0.2 * np.cos(2 * np.pi * x2)})))


def monomial_gap(a: GridScalar, b: GridScalar) -> float:
    """Largest pointwise difference over the monomials of either field."""
    zeros = np.zeros(a.grid.shape)
    return max((float(np.max(np.abs(a.coeffs.get(m, zeros) - b.coeffs.get(m, zeros))))
                for m in set(a.coeffs) | set(b.coeffs)), default=0.0)


def test_frame_values_to_form_inverts_gravitino_frame_values():
    g = grid()
    e = conformal_eps_frame(g)
    chi = make_trig_field("gravitino", [
        ModeSpec("gravitino", (0, 0), (1, 0), 1.0, 3),
        ModeSpec("gravitino", (1, 1), (0, -1), 0.7, 4),
        ModeSpec("gravitino", (0, 1), (1, 1), 0.3, 5),
    ], g)
    vals = gravitino_frame_values(chi, e)
    assert any(m & EPS for pair in vals for v in pair for m in v.coeffs)
    back = frame_values_to_form(vals, e)
    for a in range(2):
        for mu in range(2):
            assert monomial_gap(back.comps[a][mu], chi.comps[a][mu]) <= 1e-13
    again = gravitino_frame_values(back, e)
    for k in range(2):
        for a in range(2):
            assert monomial_gap(again[k][a], vals[k][a]) <= 1e-13


def test_q_part_annihilated_by_quantize():
    g = grid()
    e = flat(g)
    chi = make_trig_field("gravitino", [
        ModeSpec("gravitino", (0, 0), (1, 0), 1.0, 3),
        ModeSpec("gravitino", (1, 1), (0, -1), 0.7, 4),
        ModeSpec("gravitino", (0, 1), (1, 1), 0.3, 5),
    ], g)
    vals = gravitino_frame_values(chi, e)
    gpart = frame_values_to_form(spin32_frame_values(vals, quantize_frame_values(vals)), e)
    qvals = quantize_frame_values(gravitino_frame_values(gpart, e))
    assert qvals[0].max_abs() <= 1e-13 and qvals[1].max_abs() <= 1e-13
