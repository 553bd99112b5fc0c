import dataclasses
import json
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from oracles import (
    allclose,
    brute_partition,
    energy_balance as oracle_balance,
    enumerate_reps,
    mask_table,
    mask_value,
)

from walshframes import runner
from walshframes.algebra import (
    FieldConfig,
    LambdaIndex,
    SystemConfig,
    uindex,
    uindex_inverse,
)
from walshframes.cli import main
from walshframes.errors import ConfigError, DegenerateInput, InputDataError
from walshframes.framekit import (
    FrameAnalyzer,
    Mask,
    _shifted_tables,
    bessel_mask_check,
    check_partition,
    derive_generators,
    energy_balance,
    iterate_refinement,
    load_masks,
    mask_refine,
    save_masks,
    sigma_v0,
    system_member,
    uep_gram,
)
from walshframes.harmonic import fast_inverse_transform
from walshframes.runner import (
    GRAM_TOL,
    RunConfig,
    suite_blocks,
    suite_functions,
    verify_report,
)
from walshframes.stepfn import (
    StepFunction,
    from_cells,
    indicator,
    inner,
    refine,
    unit_ball,
)

F2 = FieldConfig(2)
F3 = FieldConfig(3)
F4 = FieldConfig(2, 2, (1, 1, 1))
CONFIGS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "configs")
SHIPPED = ("fourier_q3", "haar_q2", "haar_q2_perturbed",
           "nonuniform_q2_N3_r1", "nonuniform_q2_N3_r5")
RT2 = 1 / math.sqrt(2)
RT3 = 1 / math.sqrt(3)
W3 = complex(np.exp(2j * np.pi / 3))


def haar_rows(perturb=None):
    rows = [
        {(0, 0): RT2, (1, 0): RT2},
        {(0, 0): RT2, (1, 0): -RT2},
    ]
    if perturb is not None:
        l, n = perturb
        rows[l][(n, 0)] += 0.01
    return rows


def haar_system(perturb=None):
    base = SystemConfig(F2, N=1, r=1)
    return base.with_masks(tuple(Mask(base, row) for row in haar_rows(perturb)))


def fourier3_system():
    base = SystemConfig(F3, N=1, r=1)
    rows = [{(n, 0): RT3 * W3 ** (l * n) for n in range(3)} for l in range(3)]
    return base.with_masks(tuple(Mask(base, row) for row in rows))


def nonuniform_system(r):
    base = SystemConfig(F2, N=3, r=r)
    return base.with_masks(tuple(Mask(base, row) for row in haar_rows()))


def random_domain_step(cfg, resolution, rng):
    n = cfg.q ** resolution
    vals = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return StepFunction(cfg, resolution, vals)


# --------------------------------------------------------------- masks --

def test_eval_mask_haar_frozen():
    sys = haar_system()
    m0, m1 = sys.masks
    assert mask_value(m0, F2.zero()) == pytest.approx(1.0)
    assert mask_value(m1, F2.zero()) == pytest.approx(0.0)
    assert mask_value(m0, F2.one()) == pytest.approx(0.0)
    assert mask_value(m1, F2.one()) == pytest.approx(1.0)


def test_eval_mask_local_constancy():
    sys = fourier3_system()
    m = sys.masks[1]
    K = m.constancy_resolution
    assert K == 1
    xi = uindex(F3, 2) + F3.one()
    for probe in (F3.monomial(1, K), F3.monomial(2, K + 3)):
        assert mask_value(m, xi + probe) == pytest.approx(mask_value(m, xi), abs=1e-14)


def test_mask_cells_haar():
    sys = haar_system()
    assert allclose(sys.masks[0].table,
        from_cells(F2, 1, {F2.zero(): 1.0}), 1e-12)
    assert allclose(sys.masks[1].table,
        from_cells(F2, 1, {F2.one(): 1.0}), 1e-12)


def test_mask_cells_match_pointwise_values():
    wide = SystemConfig(F4, N=1, r=1)
    masks = fourier3_system().masks + (
        Mask(wide, {(0, 0): 0.5, (6, 0): 0.5j, (13, 0): -0.25}),)
    for m in masks:
        K = m.constancy_resolution
        cells = m.table
        assert cells.resolution == K
        for rep in enumerate_reps(m.sys.field, 0, K):
            assert cells.cells.get(rep, 0j) == pytest.approx(mask_value(m, rep), abs=1e-15)


# q = 2, 3, 5, 7, 4, 8
MASK_FIELDS = (F2, F3, FieldConfig(5), FieldConfig(7), F4, FieldConfig(2, 3, (1, 1, 0, 1)))


@st.composite
def random_masks(draw):
    """A mask of 1 to 6 terms with n < q^3 over a system with N <= 4 (a unit
    mod p) and r in {1, 3, 5}; with N > 1, the offset branch is drawn too,
    and the first offset term may be joined by the lattice term on its cell."""
    cfg = draw(st.sampled_from(MASK_FIELDS))
    N = draw(st.sampled_from([N for N in range(1, 5) if N % cfg.p]))
    r = draw(st.sampled_from([r for r in (1, 3, 5)
                              if r < cfg.q * N and math.gcd(r, N) == 1]))
    sys = SystemConfig(cfg, N=N, r=r)
    index = st.tuples(st.integers(0, cfg.q ** 3 - 1), st.integers(0, sys.branches - 1))
    value = st.complex_numbers(max_magnitude=1, allow_nan=False, allow_infinity=False)
    coeffs = draw(st.dictionaries(index, value, min_size=1, max_size=6))
    offset = [idx for idx in coeffs if idx[1]]
    if offset and draw(st.booleans()):
        shared = (uindex_inverse(sys.lambda_element(LambdaIndex(*offset[0]))), 0)
        coeffs[shared] = draw(value)
    return Mask(sys, coeffs)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(random_masks(), st.integers(0, 2 ** 32 - 1))
def test_mask_tables_match_term_by_term_sums(m, seed):
    cfg, K = m.sys.field, m.constancy_resolution
    assert m.table.resolution == K
    assert np.abs(m.table.values - mask_table(m, cfg.zero(), K)).max() <= 1e-12
    rng = np.random.default_rng(seed)
    for R in (K, K + 1):
        reps = enumerate_reps(cfg, 0, R)
        for tau, got in zip(m.sys.shift_set, _shifted_tables(m, m.sys.shift_set, R)):
            assert np.abs(got - mask_table(m, tau, R)).max() <= 1e-12
            for i in rng.choice(len(reps), min(len(reps), 8), replace=False):
                assert abs(got[i] - mask_value(m, reps[i] + tau)) <= 1e-12


@pytest.mark.parametrize("coeffs", [
    {(1, 0): 0.5, (0, 1): 0.25j},               # one cell, two indices
    {(0, 0): 1.0, (1, 0): 0.5, (0, 1): -0.5},   # their amplitudes cancel
])
def test_mask_cells_sum_indices_that_share_a_cell(coeffs):
    # over GF(2) with N = 3, r = 1: theta = u(1), so lambda(0, 1) = lambda(1, 0)
    sys = SystemConfig(F2, N=3, r=1)
    assert sys.lambda_element(LambdaIndex(0, 1)) == sys.lambda_element(LambdaIndex(1, 0))
    m = Mask(sys, coeffs)
    assert m.table.resolution == m.constancy_resolution == 1
    for R in (1, 2):
        for tau, got in zip(sys.shift_set, _shifted_tables(m, sys.shift_set, R)):
            want = [mask_value(m, rep + tau) for rep in enumerate_reps(F2, 0, R)]
            assert np.abs(got - want).max() <= 1e-15
            assert np.abs(got - mask_table(m, tau, R)).max() <= 1e-15


@pytest.mark.parametrize("name", SHIPPED)
def test_uep_gram_and_bessel_match_term_by_term_tables(name):
    sys = load_masks(os.path.join(CONFIGS, name + ".masks"))
    K = max(m.constancy_resolution for m in sys.masks)
    T = np.array([[mask_table(m, tau, K) for tau in sys.shift_set] for m in sys.masks])
    gram = np.einsum("lsc,ltc->cst", T, np.conj(T))
    want = np.abs(gram - np.eye(len(sys.shift_set))).max()
    assert abs(uep_gram(sys)["max_deviation"] - want) <= 1e-12
    m0 = sys.masks[0]
    rows = [mask_table(m0, tau, m0.constancy_resolution) for tau in sys.shift_set]
    want = np.sum(np.abs(rows) ** 2, axis=0).max()
    assert abs(bessel_mask_check(m0, sys)["max_sum"] - want) <= 1e-12


def test_mask_rejects_bad_index():
    sys = haar_system()
    with pytest.raises(ValueError):
        Mask(sys, {(-1, 0): 1.0})
    with pytest.raises(ValueError):
        Mask(sys, {(0, 2): 1.0})


# --------------------------------------------------- refinement iteration --

def test_refine_hat_haar_fixed_point():
    sys = haar_system()
    phi_hat = unit_ball(F2)
    stepped = mask_refine(phi_hat, sys.masks[0], sys)
    assert allclose(stepped, phi_hat, 1e-12)
    iterated = iterate_refinement(sys.masks[0], sys, 4)
    assert allclose(refine(iterated, 4), refine(unit_ball(F2), 4), 1e-12)


def test_refine_hat_zero_and_value_at_zero():
    sys = haar_system()
    z = from_cells(F2, 0, {})
    assert mask_refine(z, sys.masks[0], sys).is_zero
    phi_hat = unit_ball(F2).scale(0.7)
    g = mask_refine(phi_hat, sys.masks[0], sys)
    assert g.cells[F2.zero()] == pytest.approx(0.7 * mask_value(sys.masks[0], F2.zero()))


def test_wavelet_time_haar_frozen():
    sys = haar_system()
    psi = fast_inverse_transform(mask_refine(unit_ball(F2), sys.masks[1], sys))
    assert allclose(psi, from_cells(F2, 1, {F2.zero(): 1.0, F2.one(): -1.0}), 1e-12)
    assert psi.norm2() == pytest.approx(1.0)


def test_wavelet_hat_value_at_zero():
    sys = haar_system()
    g = mask_refine(unit_ball(F2), sys.masks[0], sys)
    assert g.cells[F2.zero()] == pytest.approx(mask_value(sys.masks[0], F2.zero()))


def test_derive_generators_orthonormal_bank():
    for sys in (haar_system(), fourier3_system()):
        gens = derive_generators(sys, iterations=4)
        assert allclose(gens[0], unit_ball(sys.field), 1e-12)
        for a in range(len(gens)):
            for b in range(len(gens)):
                want = 1.0 if a == b else 0.0
                assert inner(gens[a], gens[b]) == pytest.approx(want, abs=1e-12)


# ------------------------------------------------------ partition of unity --

def test_check_partition_haar_is_one():
    sys = haar_system()
    part = check_partition(unit_ball(F2), sys)
    assert part == unit_ball(F2)


def test_check_partition_nonuniform_counts_both_branches():
    for r in (1, 5):
        sys = nonuniform_system(r)
        part = check_partition(unit_ball(F2), sys)
        assert part == from_cells(F2, 0, {F2.zero(): 2.0})


def test_check_partition_matches_brute_force():
    rng = np.random.Generator(np.random.PCG64(501))
    f = refine(indicator(F2, -1, F2.zero()), 2)
    cells = {rep: complex(rng.standard_normal(), rng.standard_normal())
             for rep in f.cells}
    phi_hat = from_cells(F2, 2, cells)
    for sys in (haar_system(), nonuniform_system(5)):
        got = check_partition(phi_hat, sys)
        explicit = [LambdaIndex(n, d) for d in range(sys.branches) for n in range(16)]
        assert allclose(got, brute_partition(phi_hat, sys, explicit), 1e-12)


def test_check_partition_zero():
    assert check_partition(from_cells(F2, 0, {}), haar_system()).is_zero


def test_sigma_v0():
    sys = haar_system()
    full = sigma_v0(check_partition(unit_ball(F2), sys))
    assert full == unit_ball(F2)
    assert full.norm2() == pytest.approx(1.0)
    small = sigma_v0(check_partition(indicator(F2, 1, F2.zero()), sys))
    assert small == from_cells(F2, 1, {F2.zero(): 1.0})
    assert small.norm2() == pytest.approx(0.5)
    assert sigma_v0(check_partition(from_cells(F2, 0, {}), sys)).is_zero


# ------------------------------------------------------------- UEP matrix --

# uep_gram and bessel_mask_check measure; the report judges the measurement
# against the run's tolerance, by default runner.GRAM_TOL

def test_uep_gram_haar_passes():
    report = uep_gram(haar_system())
    assert set(report) == {"max_deviation", "resolution", "cells_checked"}
    assert report["max_deviation"] <= 1e-12 < GRAM_TOL


def test_uep_gram_fourier3_passes():
    report = uep_gram(fourier3_system())
    assert report["max_deviation"] <= GRAM_TOL


def test_uep_gram_every_single_perturbation_fails():
    for l in range(2):
        for n in range(2):
            report = uep_gram(haar_system(perturb=(l, n)))
            assert report["max_deviation"] >= 1e-3
            assert report["max_deviation"] > GRAM_TOL


def test_uep_gram_phase_invariance():
    base = SystemConfig(F2, N=1, r=1)
    phase = complex(np.exp(0.37j))
    rows = haar_rows()
    rows[1] = {k: phase * v for k, v in rows[1].items()}
    sys = base.with_masks(tuple(Mask(base, row) for row in rows))
    report = uep_gram(sys)
    assert report["max_deviation"] <= GRAM_TOL


def test_bessel_mask_check():
    sys = haar_system()
    report = bessel_mask_check(sys.masks[0], sys)
    assert set(report) == {"max_sum"}
    assert report["max_sum"] == pytest.approx(1.0, abs=1e-12)
    assert report["max_sum"] <= 1.0 + GRAM_TOL
    base = SystemConfig(F2, N=1, r=1)
    scaled = Mask(base, {k: 1.1 * v for k, v in haar_rows()[0].items()})
    assert bessel_mask_check(scaled, sys)["max_sum"] > 1.0 + GRAM_TOL
    zero = Mask(base, {})
    assert bessel_mask_check(zero, sys)["max_sum"] == 0.0


# ------------------------------------------------------------ system members --

def test_system_member_identity_and_isometry():
    sys = haar_system()
    gens = derive_generators(sys, 2)
    assert system_member(1, 0, LambdaIndex(0, 0), sys, gens) == gens[1]
    for l in (0, 1):
        for j in (-1, 0, 1, 2):
            for n in (0, 1, 3):
                m = system_member(l, j, LambdaIndex(n, 0), sys, gens)
                assert m.norm2() == pytest.approx(gens[l].norm2(), rel=1e-12)


def test_system_member_haar_scale_one_support():
    sys = haar_system()
    gens = derive_generators(sys, 2)
    member = system_member(0, 1, LambdaIndex(1, 0), sys, gens)
    assert allclose(member, from_cells(F2, 1, {F2.one(): math.sqrt(2)}), 1e-12)


def _wavelet_rows(an, f, j_range):
    """(l, j) -> coefficient row for the wavelet generators l >= 1."""
    return {(l, j): an.coefficient_row(f, l, j)
            for l in range(1, len(an.generators)) for j in j_range}


def test_coefficient_rows_haar_orthonormal_expansion():
    sys = haar_system()
    gens = derive_generators(sys, 2)
    table = _wavelet_rows(FrameAnalyzer(sys, gens), gens[1], range(0, 3))
    assert table[(1, 0)][LambdaIndex(0, 0)] == pytest.approx(1.0)
    for key, row in table.items():
        for idx, coeff in row.items():
            if (key, idx) != ((1, 0), LambdaIndex(0, 0)):
                assert abs(coeff) <= 1e-12


def test_coefficient_rows_stable_across_bank_rebuilds():
    # a function of wider support scans more translations; the rows of the
    # first function, and the generator transforms the energies keep, must
    # not change with it
    rng = np.random.Generator(np.random.PCG64(502))
    sys = haar_system()
    gens = derive_generators(sys, 2)
    f = random_domain_step(F2, 3, rng)
    an = FrameAnalyzer(sys, gens)
    first = _wavelet_rows(an, f, range(0, 3))
    energies = an.energies(f, 0, 3)
    kept = dict(an._members)
    assert sorted(kept) == [0, 1]
    wide = from_cells(F2, 0, {F2.element({-2: 1}): 1.0})
    _wavelet_rows(an, wide, range(0, 3))
    an.energies(wide, 0, 3)
    assert an._members == kept and all(an._members[l] is kept[l] for l in kept)
    assert _wavelet_rows(an, f, range(0, 3)) == first
    assert all(np.array_equal(a, b) for a, b in zip(an.energies(f, 0, 3), energies))


def test_coefficient_rows_zero_function():
    sys = haar_system()
    gens = derive_generators(sys, 2)
    table = _wavelet_rows(FrameAnalyzer(sys, gens), from_cells(F2, 0, {}), range(0, 2))
    assert all(not row for row in table.values())


# ------------------------------------------------------- two-scale identity --

@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(n=st.integers(0, 4), block=st.sampled_from([(), (1,), (3,)]),
       waves=st.integers(0, 3), complex_=st.booleans(), data=st.data())
def test_energy_balance_matches_the_scale_loop_bit_for_bit(n, block, waves,
                                                           complex_, data):
    # S and per-generator wavelet energies W_l over n + 1 scales (W_l's last
    # scale unread, as in folded_energies), one function or a block; the
    # generators are summed in order, zero of them giving W = 0
    size = (1 + waves) * (n + 1) * math.prod(block) * (1 + complex_)
    x = np.array(data.draw(st.lists(st.floats(-1e6, 1e6), min_size=size, max_size=size)))
    E = (x[::2] + 1j * x[1::2] if complex_ else x).reshape(1 + waves, n + 1, *block)
    S, W = E[0], np.zeros_like(E[0])
    for w in E[1:]:
        W += w
    residuals, total = energy_balance(S, W)
    want_residuals, want_total = oracle_balance(S, W)
    assert residuals.shape == (n,) + block
    assert residuals.tobytes() == np.array(want_residuals).reshape(residuals.shape).tobytes()
    assert np.shape(total) == block
    assert np.asarray(total).tobytes() == np.asarray(want_total).tobytes()


def test_two_scale_haar_suite():
    rng = np.random.Generator(np.random.PCG64(503))
    sys = haar_system()
    gens = derive_generators(sys, 4)
    an = FrameAnalyzer(sys, gens)
    for _ in range(10):
        f = random_domain_step(F2, 4, rng)
        for j in range(4):
            assert an.two_scale_check(f, j) <= 1e-9


def test_two_scale_fourier3():
    rng = np.random.Generator(np.random.PCG64(504))
    sys = fourier3_system()
    an = FrameAnalyzer(sys, derive_generators(sys, 4))
    for _ in range(5):
        f = random_domain_step(F3, 3, rng)
        for j in range(3):
            assert an.two_scale_check(f, j) <= 1e-9


def test_two_scale_nonuniform_doubles_consistently():
    rng = np.random.Generator(np.random.PCG64(505))
    sys = nonuniform_system(1)
    an = FrameAnalyzer(sys, derive_generators(sys, 3))
    f = random_domain_step(F2, 3, rng)
    for j in range(3):
        assert an.two_scale_check(f, j) <= 1e-9


def test_two_scale_zero_function():
    sys = haar_system()
    gens = derive_generators(sys, 2)
    assert FrameAnalyzer(sys, gens).two_scale_check(
        from_cells(F2, 0, {}), 1) == 0.0


def test_two_scale_perturbed_fails():
    rng = np.random.Generator(np.random.PCG64(506))
    sys = haar_system(perturb=(1, 1))
    an = FrameAnalyzer(sys, derive_generators(sys, 3))
    worst = 0.0
    for _ in range(10):
        f = random_domain_step(F2, 3, rng)
        for j in range(3):
            worst = max(worst, an.two_scale_check(f, j))
    assert worst > 1e-3


# ------------------------------------------------------------- frame ratio --

def test_frame_ratio_tight_systems():
    rng = np.random.Generator(np.random.PCG64(507))
    for sys, res in ((haar_system(), 3), (fourier3_system(), 2)):
        an = FrameAnalyzer(sys, derive_generators(sys, 4))
        for _ in range(5):
            f = random_domain_step(sys.field, res, rng)
            assert an.frame_ratio(f, 0, res) == pytest.approx(1.0, abs=1e-9)


def test_frame_ratio_generator_expansion():
    sys = haar_system()
    gens = derive_generators(sys, 2)
    assert FrameAnalyzer(sys, gens).frame_ratio(gens[0], 0, 2) == \
        pytest.approx(1.0, abs=1e-9)


def test_frame_ratio_scales_quadratically():
    rng = np.random.Generator(np.random.PCG64(508))
    sys = haar_system()
    gens = derive_generators(sys, 2)
    doubled = tuple(g.scale(2.0) for g in gens)
    f = random_domain_step(F2, 2, rng)
    assert FrameAnalyzer(sys, doubled).frame_ratio(f, 0, 2) == \
        pytest.approx(4.0, abs=1e-8)


def test_frame_ratio_nonuniform_doubles():
    rng = np.random.Generator(np.random.PCG64(509))
    for r in (1, 5):
        sys = nonuniform_system(r)
        an = FrameAnalyzer(sys, derive_generators(sys, 3))
        f = random_domain_step(F2, 3, rng)
        assert an.frame_ratio(f, 0, 3) == pytest.approx(2.0, abs=1e-9)


@pytest.mark.parametrize("functions", [None, 1])
@pytest.mark.parametrize("name, j0", [("haar_q2", 0), ("fourier_q3", 0),
                                      ("fourier_q3", -1), ("nonuniform_q2_N3_r5", 0)])
def test_frame_ratio_equals_the_report_ratio(monkeypatch, name, j0, functions):
    # the report reads the ratio of a block from energies it shares with the
    # two-scale check; frame_ratio forms its own and agrees bit for bit, on
    # one block of the suite and, in blocks of one, on each function
    rc = dataclasses.replace(RunConfig.load(os.path.join(CONFIGS, f"{name}.cfg")),
                             j0=j0, j1=3, resolution=3, count=5)
    an = FrameAnalyzer(rc.sys, derive_generators(rc.sys, rc.cascade_iterations))
    if functions is None:
        fs = list(suite_blocks(rc.cfg, rc.resolution, rc.count, rc.seed))
        assert len(fs) == 1 and fs[0].values.shape[0] == rc.count
    else:
        monkeypatch.setattr(runner, "SUITE_BLOCK", 1)
        fs = list(suite_functions(rc.cfg, rc.resolution, rc.count, rc.seed))
    want = max(float(np.abs(an.frame_ratio(f, rc.j0, rc.j1) - 1.0).max()) for f in fs)
    assert verify_report(rc)["frame_ratio"]["max_abs_deviation"] == want


def _unitary_with_flat_first_row(q, rng):
    """A random q x q unitary matrix whose first row is 1/sqrt(q) throughout."""
    m = rng.standard_normal((q, q)) + 1j * rng.standard_normal((q, q))
    m[:, 0] = 1 / math.sqrt(q)
    u, r = np.linalg.qr(m)
    u[:, 0] *= r[0, 0]   # m[:, 0] = u[:, 0] r[0, 0], and |r[0, 0]| = 1
    return u.T


@pytest.mark.parametrize("p, c", [(2, 1), (3, 1), (2, 2), (5, 1)])
@settings(max_examples=5, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_verify_passes_on_random_unitary_masks(p, c, seed):
    # masks of constancy resolution 1 whose q x q coefficient matrix is a
    # random unitary with first row 1/sqrt(q), as fourier_q3's: UEP holds,
    # so verify exits 0 and its residuals stay at roundoff of the energies
    cfg = FieldConfig(p, c, (1, 1, 1) if c > 1 else None)
    U = _unitary_with_flat_first_row(cfg.q, np.random.default_rng(seed))
    base = SystemConfig(cfg, N=1, r=1)
    sys = base.with_masks(tuple(Mask(base, {(n, 0): a for n, a in enumerate(row)})
                                for row in U))
    assert all(m.constancy_resolution == 1 for m in sys.masks)
    with tempfile.TemporaryDirectory() as tmp:
        save_masks(sys, os.path.join(tmp, "run.masks"))
        config, out = os.path.join(tmp, "run.cfg"), os.path.join(tmp, "report.json")
        with open(config, "w") as fh:
            fh.write("[masks]\nfile = run.masks\n\n[scales]\nj1 = 2\nj_max = 2\n\n"
                     f"[suite]\nseed = {seed}\ncount = 8\nresolution = 2\n")
        assert main(["verify", "--config", config, "--out", out]) == 0
        with open(out) as fh:
            report = json.load(fh)
    norm2 = max(float(f.norm2().max()) for f in suite_blocks(cfg, 2, 8, seed))
    assert max(report["two_scale"]["max_residual"],
               report["two_scale"]["max_projector_residual"],
               report["frame_ratio"]["max_abs_deviation"]) <= 1e-12 * norm2


def test_frame_ratio_rejects_zero():
    sys = haar_system()
    gens = derive_generators(sys, 2)
    with pytest.raises(DegenerateInput):
        FrameAnalyzer(sys, gens).frame_ratio(from_cells(F2, 0, {}), 0, 2)


# ---------------------------------------------------------------- mask files --

def test_mask_file_round_trip(tmp_path):
    for sys in (haar_system(), fourier3_system(), nonuniform_system(5)):
        path = str(tmp_path / "masks.txt")
        save_masks(sys, path)
        loaded = load_masks(path)
        assert loaded.field == sys.field
        assert (loaded.N, loaded.r, loaded.nu) == (sys.N, sys.r, sys.nu)
        assert loaded.normalization == sys.normalization
        assert len(loaded.masks) == len(sys.masks)
        for got, want in zip(loaded.masks, sys.masks):
            assert got.coeffs == want.coeffs


def test_mask_file_extension_field_round_trip(tmp_path):
    base = SystemConfig(F4, N=1, r=1)
    sys = base.with_masks((Mask(base, {(0, 0): 0.5, (3, 0): 0.5j}),))
    path = str(tmp_path / "masks.txt")
    save_masks(sys, path)
    assert "modulus = 1.1.1" in (tmp_path / "masks.txt").read_text()
    loaded = load_masks(path)
    assert loaded.field == F4
    assert loaded.masks[0].coeffs == sys.masks[0].coeffs


def test_mask_file_errors(tmp_path):
    good = str(tmp_path / "good.txt")
    save_masks(haar_system(), good)
    lines = (tmp_path / "good.txt").read_text().splitlines()

    bad_row = str(tmp_path / "bad_row.txt")
    broken = list(lines)
    broken[8] = "0 0 not-a-number 0.0"
    (tmp_path / "bad_row.txt").write_text("\n".join(broken) + "\n")
    with pytest.raises(InputDataError, match="line 9"):
        load_masks(bad_row)

    headless = str(tmp_path / "headless.txt")
    (tmp_path / "headless.txt").write_text("p = 2\n")
    with pytest.raises(InputDataError, match="line 1"):
        load_masks(headless)

    missing_modulus = str(tmp_path / "nomod.txt")
    patched = [ln for ln in lines if not ln.startswith("p =")]
    patched.insert(1, "p = 2")
    patched.insert(2, "c = 2")
    patched = [ln for ln in patched if not ln.startswith("c = 1")]
    (tmp_path / "nomod.txt").write_text("\n".join(patched) + "\n")
    with pytest.raises(ConfigError):
        load_masks(missing_modulus)
