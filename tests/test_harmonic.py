import cmath

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from oracles import (
    allclose,
    cells,
    character_table,
    chi,
    dense_transform,
    enumerate_reps,
    fourier_coefficient,
    from_cells,
    indicator,
    modulate_table,
    mul,
)

from walshframes import harmonic
from walshframes.algebra import FieldConfig, FieldElement, uindex
from walshframes.errors import InputDataError
from walshframes.harmonic import fast_inverse_transform, fast_transform
from walshframes.stepfn import (
    StepFunction,
    inner,
    refine,
    translate,
    unit_ball,
)

F2 = FieldConfig(2)
F3 = FieldConfig(3)
F4 = FieldConfig(2, 2, (1, 1, 1))

OMEGA3 = cmath.exp(2j * cmath.pi / 3)


def random_step(cfg, resolution, rng, ball=-1):
    f = refine(indicator(cfg, ball, cfg.zero()), resolution)
    return from_cells(cfg, resolution, {rep: complex(rng.standard_normal(),
                                                     rng.standard_normal())
                                        for rep in cells(f)})


def test_transform_matches_direct_sum():
    rng = np.random.Generator(np.random.PCG64(401))
    for cfg in (F2, F3, F4):
        for resolution, ball in [(1, -1), (2, 0), (0, -2), (2, -1)]:
            f = random_step(cfg, resolution, rng, ball)
            want = dense_transform(f)
            assert allclose(fast_transform(f), want, 1e-12)


def test_transform_metadata():
    rng = np.random.Generator(np.random.PCG64(402))
    f = random_step(F3, 2, rng, ball=-1)
    g = fast_transform(f)
    assert g.resolution == -f.support_ball()
    assert g.support_ball() == -f.resolution


def test_unit_ball_is_self_dual():
    for cfg in (F2, F3, F4):
        assert fast_transform(unit_ball(cfg)) == unit_ball(cfg)


def test_small_ball_transforms_to_scaled_big_ball():
    f = indicator(F3, 1, F3.zero())
    g = fast_transform(f)
    want = from_cells(F3, -1, {F3.zero(): 1 / 3})
    assert allclose(g, want, 1e-15)


def test_frozen_binary_cell():
    # indicator of t^-1 + B^1 over GF(2)
    f = indicator(F2, 1, uindex(F2, 1))
    g = fast_transform(f)
    t_inv, one = uindex(F2, 1), F2.monomial(1, 0)
    assert g == from_cells(F2, 1, {
        F2.zero(): 0.5, t_inv: 0.5, one: -0.5, one + t_inv: -0.5})


def test_frozen_ternary_point_mass():
    f = indicator(F3, 0, uindex(F3, 1))
    g = fast_transform(f)
    assert g.resolution == 1 and g.support_ball() == 0
    got = dict(cells(g))
    assert got[F3.zero()] == pytest.approx(1.0)
    assert got[F3.monomial(1, 0)] == pytest.approx(OMEGA3 ** 2)
    assert got[FieldElement(F3, {0: 2})] == pytest.approx(OMEGA3)


def test_frozen_quartic_cell():
    # multiplication through the quadratic extension shows up in the sign
    f = indicator(F4, 0, uindex(F4, 2))
    g = fast_transform(f)
    assert g == from_cells(F4, 1, {
        F4.zero(): 1.0, F4.monomial(1, 0): 1.0,
        FieldElement(F4, {0: 2}): -1.0, FieldElement(F4, {0: 3}): -1.0})


def test_plancherel_and_round_trip():
    rng = np.random.Generator(np.random.PCG64(403))
    for cfg in (F2, F3, F4):
        f = random_step(cfg, 2, rng, ball=-1)
        g = fast_transform(f)
        assert g.norm2() == pytest.approx(f.norm2(), rel=1e-12)
        assert allclose(fast_inverse_transform(g), f, 1e-12)
        assert allclose(fast_transform(fast_inverse_transform(f)), f, 1e-12)


def test_translation_and_modulation_duality():
    rng = np.random.Generator(np.random.PCG64(404))
    for cfg in (F2, F3):
        f = random_step(cfg, 2, rng, ball=-1)
        a = uindex(cfg, 2) + cfg.monomial(1, 0)
        b = uindex(cfg, 1)
        assert allclose(fast_transform(translate(f, a)),
            modulate_table(fast_transform(f), -a), 1e-12)
        assert allclose(fast_transform(modulate_table(f, b)),
            translate(fast_transform(f), b), 1e-12)


def test_transform_of_zero_function_is_empty():
    z = from_cells(F2, 1, {})
    assert not fast_transform(z).values.any()


def test_character_table_matches_pointwise_chi():
    for cfg, xi in [(F2, uindex(F2, 3)), (F3, uindex(F3, 5) + F3.monomial(1, 0)),
                    (F4, uindex(F4, 2))]:
        k = 2
        table = character_table(cfg, xi, k)
        for i, rep in enumerate(enumerate_reps(cfg, 0, k)):
            assert table[i] == pytest.approx(chi(mul(xi, rep)), abs=1e-14)


def test_fourier_coefficient_against_inner_product():
    rng = np.random.Generator(np.random.PCG64(405))
    for cfg in (F2, F3):
        k = 2
        vals = rng.standard_normal(cfg.q ** k) + 1j * rng.standard_normal(cfg.q ** k)
        pf = StepFunction(cfg, k, vals)
        for n in range(cfg.q ** k):
            want = inner(pf, modulate_table(unit_ball(cfg), uindex(cfg, n)))
            assert fourier_coefficient(pf, n) == pytest.approx(want, abs=1e-12)
        # beyond the resolution every coefficient vanishes identically
        assert fourier_coefficient(pf, cfg.q ** k) == 0j
        assert fourier_coefficient(pf, cfg.q ** k + 7) == 0j


def coefficient_table(f):
    """The q^k coefficients <f, chi(u(n) .)> of f on D at resolution k, entry
    n: f's transform over B^-k at resolution 0, the cell of u(n) at index n."""
    return refine(fast_transform(f), 0).values


def test_fourier_coefficient_frozen():
    pf = StepFunction(F2, 1, [1.0, -1.0])
    table = coefficient_table(pf)
    assert table[0] == 0j
    assert table[1] == 1 + 0j


def test_fourier_table_and_parseval():
    rng = np.random.Generator(np.random.PCG64(406))
    for cfg, k in [(F2, 3), (F3, 2), (F4, 2)]:
        vals = rng.standard_normal(cfg.q ** k) + 1j * rng.standard_normal(cfg.q ** k)
        pf = StepFunction(cfg, k, vals)
        table = coefficient_table(pf)
        for n in range(cfg.q ** k):
            assert table[n] == pytest.approx(fourier_coefficient(pf, n), abs=1e-12)
        # the coefficient series truncates exactly at q^k terms
        assert np.sum(np.abs(table) ** 2) == pytest.approx(pf.norm2(), rel=1e-12)


def test_fourier_table_zero_resolution():
    pf = StepFunction(F3, 0, [2.5 + 1j])
    table = coefficient_table(pf)
    assert table.shape == (1,)
    assert table[0] == pytest.approx(2.5 + 1j)


# ------------------------------------------------------ property tests --
#
# The one contraction kernel against the dense character matrix of
# tests/oracles.py, over prime and extension fields (GF(9) with the modulus
# z^2 + 1 passed explicitly), support balls -2..1 and several resolutions.

FIELDS = (F2, F3, F4, FieldConfig(2, 3, (1, 1, 0, 1)), FieldConfig(3, 2, (1, 0, 1)))
# widest window m = k - l per field: keeps the oracle matrix <= 81 x 81
MAX_DIGITS = {2: 5, 3: 3, 4: 3, 8: 2, 9: 2}
EXAMPLES = settings(max_examples=60, deadline=None, derandomize=True,
                    database=None)


@st.composite
def step_functions(draw):
    """A random step function over one of FIELDS with support ball exactly
    `ball` (dense) or inside it (sparse, some cells zero)."""
    cfg = draw(st.sampled_from(FIELDS))
    ball = draw(st.integers(-2, 1))
    digits = draw(st.integers(0, MAX_DIGITS[cfg.q]))
    sparse = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    amplitudes = {}
    for rep in enumerate_reps(cfg, ball, ball + digits):
        if not sparse or rng.random() < 0.5:
            amplitudes[rep] = complex(rng.standard_normal(), rng.standard_normal())
    return from_cells(cfg, ball + digits, amplitudes)


@EXAMPLES
@given(step_functions())
def test_kernel_matches_dense_character_matrix(f):
    for forward, kernel in ((True, fast_transform),
                            (False, fast_inverse_transform)):
        g = kernel(f)
        assert g.resolution == -f.support_ball()
        assert not g.values.any() or g.support_ball() >= -f.resolution
        assert allclose(g, dense_transform(f, forward), 1e-12)


@EXAMPLES
@given(step_functions())
def test_kernel_round_trip_and_parseval(f):
    g = fast_transform(f)
    assert allclose(fast_inverse_transform(g), f, 1e-12)
    assert allclose(fast_transform(fast_inverse_transform(f)), f, 1e-12)
    assert g.norm2() == pytest.approx(f.norm2(), rel=1e-12, abs=1e-300)


@EXAMPLES
@given(st.sampled_from(FIELDS), st.integers(0, 3),
       st.integers(0, 2 ** 32 - 1))
def test_fourier_table_matches_per_index_sums(cfg, k, seed):
    k = min(k, MAX_DIGITS[cfg.q])
    rng = np.random.default_rng(seed)
    n = cfg.q ** k
    pf = StepFunction(cfg, k, rng.standard_normal(n)
                              + 1j * rng.standard_normal(n))
    table = coefficient_table(pf)
    assert table.shape == (n,)
    for i in range(n):
        assert table[i] == pytest.approx(fourier_coefficient(pf, i), abs=1e-12)
    assert fourier_coefficient(pf, n) == 0j
    assert np.sum(np.abs(table) ** 2) == pytest.approx(pf.norm2(), rel=1e-12)


@pytest.mark.parametrize("transform", [fast_transform, fast_inverse_transform])
def test_transform_refuses_a_transform_past_the_largest_double(transform):
    # four GF(3) cells of 1.7e308 in B^-1 at resolution 1: the exact value at
    # 0 is 4/3 1.7e308; refused, not NaN
    f = StepFunction(F3, 1, [1.7e308] * 4 + [0.0] * 5, -1)
    with pytest.raises(InputDataError, match="transform overflows"):
        transform(f)


@pytest.mark.parametrize("transform", [fast_transform, fast_inverse_transform])
def test_transform_past_overflowing_sums_when_the_transform_is_finite(transform):
    # four GF(4) cells of 1.5e308: the character sums overflow before the
    # measure factor 1/4 scales them, the sums of the scaled table do not
    g = transform(StepFunction(F4, 1, [1.5e308] * 4))
    assert (g.resolution, g.lo) == (0, -1)
    assert g.values.tolist() == [1.5e308, 0, 0, 0]


def test_a_finite_transform_keeps_the_bits_of_its_sums_scaled_after():
    # the sums of the table scaled first round otherwise on this input
    rng = np.random.default_rng(31)
    f = StepFunction(F3, 3, rng.standard_normal(27) + 1j * rng.standard_normal(27))
    for transform, forward in ((fast_transform, True), (fast_inverse_transform, False)):
        after = harmonic._contract(F3, f.values, 3, forward) * 3.0 ** -3
        first = harmonic._contract(F3, f.values * 3.0 ** -3, 3, forward)
        assert after.tobytes() != first.tobytes()
        assert transform(f).values.tobytes() == after.tobytes()
