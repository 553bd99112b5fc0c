import math
from unittest import mock

import numpy as np
import pytest
from oracles import brute_partition, enumerate_reps, mask_value

from walshframes.algebra import FieldConfig, LambdaIndex, SystemConfig, uindex
from walshframes.errors import (
    ConfigError,
    DegenerateInput,
    InputDataError,
    NotNormalized,
)
from walshframes.framekit import (
    FrameAnalyzer,
    Mask,
    bessel_mask_check,
    cascade,
    check_partition,
    derive_generators,
    iterate_refinement,
    load_masks,
    mask_cells,
    mask_refine,
    save_masks,
    sigma_v0,
    system_member,
    uep_gram,
)
from walshframes.harmonic import fast_inverse_transform
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
    assert mask_cells(sys.masks[0]).allclose(
        from_cells(F2, 1, {F2.zero(): 1.0}), 1e-12)
    assert mask_cells(sys.masks[1]).allclose(
        from_cells(F2, 1, {F2.one(): 1.0}), 1e-12)


def test_mask_cells_match_pointwise_values():
    wide = SystemConfig(F4, N=1, r=1)
    masks = fourier3_system().masks + (
        Mask(wide, {(0, 0): 0.5, (6, 0): 0.5j, (13, 0): -0.25}),)
    for m in masks:
        K = m.constancy_resolution
        cells = mask_cells(m)
        assert cells.resolution == K
        for rep in enumerate_reps(m.sys.field, 0, K):
            assert cells.cells.get(rep, 0j) == pytest.approx(mask_value(m, rep), abs=1e-15)


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
    assert stepped.allclose(phi_hat, 1e-12)
    iterated = iterate_refinement(sys.masks[0], sys, 4)
    assert refine(iterated, 4).allclose(refine(unit_ball(F2), 4), 1e-12)


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
    assert psi.allclose(from_cells(F2, 1, {F2.zero(): 1.0, F2.one(): -1.0}), 1e-12)
    assert psi.norm2() == pytest.approx(1.0)


def test_wavelet_hat_value_at_zero():
    sys = haar_system()
    g = mask_refine(unit_ball(F2), sys.masks[0], sys)
    assert g.cells[F2.zero()] == pytest.approx(mask_value(sys.masks[0], F2.zero()))


def test_derive_generators_orthonormal_bank():
    for sys in (haar_system(), fourier3_system()):
        gens = derive_generators(sys, iterations=4)
        assert gens[0].allclose(unit_ball(sys.field), 1e-12)
        for a in range(len(gens)):
            for b in range(len(gens)):
                want = 1.0 if a == b else 0.0
                assert inner(gens[a], gens[b]) == pytest.approx(want, abs=1e-12)


def test_cascade_haar_and_gate():
    sys = haar_system()
    for it in (0, 1, 3):
        assert cascade(sys.masks[0], sys, it).allclose(unit_ball(F2), 1e-12)
    base = SystemConfig(F2, N=1, r=1)
    big = Mask(base, {(0, 0): RT2 * 1.1, (1, 0): RT2 * 1.1})
    with pytest.raises(NotNormalized):
        cascade(big, sys, 2)
    bumped = haar_system(perturb=(0, 0))
    with pytest.raises(NotNormalized):
        cascade(bumped.masks[0], bumped, 2)


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
        assert got.allclose(brute_partition(phi_hat, sys, explicit), 1e-12)


def test_check_partition_zero():
    assert check_partition(from_cells(F2, 0, {}), haar_system()).is_zero


def test_sigma_v0():
    sys = haar_system()
    full = sigma_v0(unit_ball(F2), sys)
    assert full == unit_ball(F2)
    assert full.norm2() == pytest.approx(1.0)
    small = sigma_v0(indicator(F2, 1, F2.zero()), sys)
    assert small == from_cells(F2, 1, {F2.zero(): 1.0})
    assert small.norm2() == pytest.approx(0.5)
    assert sigma_v0(from_cells(F2, 0, {}), sys).is_zero


# ------------------------------------------------------------- UEP matrix --

def test_uep_gram_haar_passes():
    report = uep_gram(haar_system())
    assert report["max_deviation"] <= 1e-12
    assert report["verdict"] is True


def test_uep_gram_fourier3_passes():
    report = uep_gram(fourier3_system())
    assert report["max_deviation"] <= 1e-10
    assert report["verdict"] is True


def test_uep_gram_every_single_perturbation_fails():
    for l in range(2):
        for n in range(2):
            report = uep_gram(haar_system(perturb=(l, n)))
            assert report["max_deviation"] >= 1e-3
            assert report["verdict"] is False


def test_uep_gram_phase_invariance():
    base = SystemConfig(F2, N=1, r=1)
    phase = complex(np.exp(0.37j))
    rows = haar_rows()
    rows[1] = {k: phase * v for k, v in rows[1].items()}
    sys = base.with_masks(tuple(Mask(base, row) for row in rows))
    report = uep_gram(sys)
    assert report["max_deviation"] <= 1e-10
    assert report["verdict"] is True


def test_uep_gram_restricted_to_sigma():
    sys = haar_system()
    sigma = sigma_v0(unit_ball(F2), sys)
    report = uep_gram(sys, sigma)
    assert report["verdict"] is True
    assert report["cells_checked"] >= 1
    empty = uep_gram(sys, from_cells(F2, 0, {}))
    assert empty["cells_checked"] == 0


def test_uep_gram_requires_shifts():
    sys = haar_system()
    sys.shift_set = ()
    with pytest.raises(ConfigError):
        uep_gram(sys)


def test_bessel_mask_check():
    sys = haar_system()
    report = bessel_mask_check(sys.masks[0], sys)
    assert report["max_sum"] == pytest.approx(1.0, abs=1e-12)
    assert report["verdict"] is True
    base = SystemConfig(F2, N=1, r=1)
    scaled = Mask(base, {k: 1.1 * v for k, v in haar_rows()[0].items()})
    assert bessel_mask_check(scaled, sys)["verdict"] is False
    zero = Mask(base, {})
    report = bessel_mask_check(zero, sys)
    assert report["max_sum"] == 0.0 and report["verdict"] is True


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
    assert member.allclose(from_cells(F2, 1, {F2.one(): math.sqrt(2)}), 1e-12)


def test_analysis_haar_orthonormal_expansion():
    sys = haar_system()
    gens = derive_generators(sys, 2)
    table = FrameAnalyzer(sys, gens).analysis(gens[1], range(0, 3))
    assert table[(1, 0)][LambdaIndex(0, 0)] == pytest.approx(1.0)
    for key, row in table.items():
        for idx, coeff in row.items():
            if (key, idx) != ((1, 0), LambdaIndex(0, 0)):
                assert abs(coeff) <= 1e-12


def test_analysis_margin_stability():
    rng = np.random.Generator(np.random.PCG64(502))
    sys = haar_system()
    gens = derive_generators(sys, 2)
    f = random_domain_step(F2, 3, rng)
    an = FrameAnalyzer(sys, gens)
    assert an.analysis(f, range(0, 3)) == an.analysis(f, range(0, 3), margin=2)


def test_analysis_zero_function():
    sys = haar_system()
    gens = derive_generators(sys, 2)
    table = FrameAnalyzer(sys, gens).analysis(from_cells(F2, 0, {}), range(0, 2))
    assert all(not row for row in table.values())


# ------------------------------------------------------- two-scale identity --

def test_two_scale_haar_suite():
    rng = np.random.Generator(np.random.PCG64(503))
    sys = haar_system()
    gens = derive_generators(sys, 4)
    an = FrameAnalyzer(sys, gens)
    for _ in range(10):
        f = random_domain_step(F2, 4, rng)
        for j in range(4):
            residual, proj_residual = an.two_scale_check(f, j)
            assert residual <= 1e-9
            assert proj_residual <= 1e-9


def test_two_scale_fourier3():
    rng = np.random.Generator(np.random.PCG64(504))
    sys = fourier3_system()
    an = FrameAnalyzer(sys, derive_generators(sys, 4))
    for _ in range(5):
        f = random_domain_step(F3, 3, rng)
        for j in range(3):
            residual, proj_residual = an.two_scale_check(f, j)
            assert residual <= 1e-9
            assert proj_residual <= 1e-9


def test_two_scale_nonuniform_doubles_consistently():
    rng = np.random.Generator(np.random.PCG64(505))
    sys = nonuniform_system(1)
    an = FrameAnalyzer(sys, derive_generators(sys, 3))
    f = random_domain_step(F2, 3, rng)
    for j in range(3):
        residual, proj_residual = an.two_scale_check(f, j)
        assert residual <= 1e-9
        assert proj_residual <= 1e-9


def test_two_scale_zero_function():
    sys = haar_system()
    gens = derive_generators(sys, 2)
    assert FrameAnalyzer(sys, gens).two_scale_check(
        from_cells(F2, 0, {}), 1) == (0.0, 0.0)


def test_two_scale_perturbed_fails():
    rng = np.random.Generator(np.random.PCG64(506))
    sys = haar_system(perturb=(1, 1))
    an = FrameAnalyzer(sys, derive_generators(sys, 3))
    worst = 0.0
    for _ in range(10):
        f = random_domain_step(F2, 3, rng)
        for j in range(3):
            worst = max(worst, an.two_scale_check(f, j)[0])
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


@pytest.mark.parametrize("system, res, j0", [
    (haar_system, 3, 0), (fourier3_system, 2, 0), (fourier3_system, 2, -1),
    (lambda: nonuniform_system(5), 3, 0)])
def test_frame_ratio_without_energies_reads_coefficients_only(system, res, j0):
    # no projection is materialized (np.bincount may not run), and the ratio
    # equals the one read from shared energies bit for bit, for a block and
    # for one function
    sys = system()
    gens = derive_generators(sys, 3)
    rng = np.random.Generator(np.random.PCG64(511))
    n = sys.field.q ** res
    block = StepFunction(sys.field, res, rng.standard_normal((3, n))
                         + 1j * rng.standard_normal((3, n)))
    for f in (block, StepFunction(sys.field, res, block.values[1])):
        an = FrameAnalyzer(sys, gens)
        want = an.frame_ratio(f, j0, res, energies=an.energies(f, j0, res))
        with mock.patch.object(np, "bincount", side_effect=AssertionError("bincount")):
            got = FrameAnalyzer(sys, gens).frame_ratio(f, j0, res)
        assert np.shape(got) == np.shape(want)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


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
    text = open(path).read()
    assert "modulus = 1.1.1" in text
    loaded = load_masks(path)
    assert loaded.field == F4
    assert loaded.masks[0].coeffs == sys.masks[0].coeffs


def test_mask_file_errors(tmp_path):
    good = str(tmp_path / "good.txt")
    save_masks(haar_system(), good)
    lines = open(good).read().splitlines()

    bad_row = str(tmp_path / "bad_row.txt")
    broken = list(lines)
    broken[8] = "0 0 not-a-number 0.0"
    open(bad_row, "w").write("\n".join(broken) + "\n")
    with pytest.raises(InputDataError, match="line 9"):
        load_masks(bad_row)

    headless = str(tmp_path / "headless.txt")
    open(headless, "w").write("p = 2\n")
    with pytest.raises(InputDataError, match="line 1"):
        load_masks(headless)

    missing_modulus = str(tmp_path / "nomod.txt")
    patched = [ln for ln in lines if not ln.startswith("p =")]
    patched.insert(1, "p = 2")
    patched.insert(2, "c = 2")
    patched = [ln for ln in patched if not ln.startswith("c = 1")]
    open(missing_modulus, "w").write("\n".join(patched) + "\n")
    with pytest.raises(ConfigError):
        load_masks(missing_modulus)
