import collections
import math
import os

import numpy as np
import pytest
from oracles import allclose, character_table

from walshframes import periodic, runner
from walshframes.algebra import FieldConfig, SystemConfig, uindex
from walshframes.errors import ConfigError, DegenerateInput, TruncationError
from walshframes.framekit import FrameAnalyzer, Mask, derive_generators, energy_balance
from walshframes.harmonic import fast_transform
from walshframes.periodic import (
    PeriodicSystemSpec,
    folded_energies,
    periodic_tightness_check,
    periodic_two_scale_check,
    projection_energy_scan,
)
from walshframes.runner import RunConfig, periodic_report
from walshframes.stepfn import (
    StepFunction,
    from_cells,
    indicator,
    periodize,
    refine,
    unit_ball,
)

F2 = FieldConfig(2)
F3 = FieldConfig(3)
RT2 = 1 / math.sqrt(2)
RT3 = 1 / math.sqrt(3)
W3 = complex(np.exp(2j * np.pi / 3))


def haar_spec(j_max=4, perturb=None):
    base = SystemConfig(F2, N=1, r=1)
    rows = [
        {(0, 0): RT2, (1, 0): RT2},
        {(0, 0): RT2, (1, 0): -RT2},
    ]
    if perturb is not None:
        l, n = perturb
        rows[l][(n, 0)] += 0.01
    sys = base.with_masks(tuple(Mask(base, row) for row in rows))
    return PeriodicSystemSpec(sys, derive_generators(sys), j_max)


def fourier3_spec(j_max=3):
    base = SystemConfig(F3, N=1, r=1)
    rows = [{(n, 0): RT3 * W3 ** (l * n) for n in range(3)} for l in range(3)]
    sys = base.with_masks(tuple(Mask(base, row) for row in rows))
    return PeriodicSystemSpec(sys, derive_generators(sys), j_max)


def random_table(cfg, resolution, rng):
    n = cfg.q ** resolution
    vals = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return StepFunction(cfg, resolution, vals)


# ----------------------------------------------------------- periodize --

def test_periodize_unit_ball_is_constant_one():
    g = periodize(unit_ball(F2))
    assert g.resolution == 0
    assert g.values[0] == 1.0 + 0j


def test_periodize_translated_cell_folds_back():
    g = periodize(indicator(F2, 0, uindex(F2, 1)))
    assert g.resolution == 0
    assert g.values[0] == 1.0 + 0j


def test_periodize_zero_function():
    g = periodize(from_cells(F2, 2, {}))
    assert g.resolution == 2
    assert np.all(g.values == 0)


def test_periodize_coarse_cell_counts_multiplicity():
    # the ball of measure 2 covers D twice under lattice folding
    g = periodize(indicator(F2, -1, F2.zero()))
    assert g.resolution == 0
    assert g.values[0] == 2.0 + 0j


def test_periodize_linear_and_l1_contractive():
    rng = np.random.default_rng(4711)
    reps = [F2.zero(), uindex(F2, 1), uindex(F2, 2), uindex(F2, 3),
            F2.one(), F2.one() + uindex(F2, 1)]

    def rand_step():
        cells = {rep: complex(rng.standard_normal(), rng.standard_normal())
                 for rep in reps}
        return from_cells(F2, 2, cells)

    for _ in range(5):
        f, g = rand_step(), rand_step()
        z = complex(rng.standard_normal(), rng.standard_normal())
        lhs = periodize(f.scale(z) + g)
        rhs = periodize(f).scale(z) + periodize(g)
        assert allclose(lhs, rhs, 1e-12)
        l1_line = sum(abs(v) for v in f.cells.values()) * 2.0 ** -f.resolution
        l1_folded = float(np.sum(np.abs(periodize(f).values))) * 2.0 ** -2
        assert l1_folded <= l1_line + 1e-12


# -------------------------------------------------------------- members --

def test_member_at_scale_zero_is_periodized_generator():
    spec = haar_spec()
    phi, psi = spec.generators
    assert allclose(spec.member(0, 0, 0), periodize(phi), 0.0)
    assert allclose(spec.member(1, 0, 0), periodize(psi), 0.0)


def test_member_label_and_scale_gates():
    spec = haar_spec(j_max=2)
    with pytest.raises(IndexError):
        spec.member(0, 1, 2)
    with pytest.raises(IndexError):
        spec.member(0, 0, -1)
    with pytest.raises(IndexError):
        spec.member(0, 3, 0)
    with pytest.raises(IndexError):
        spec.member(2, 0, 0)


def test_spec_constructor_gates():
    sys = haar_spec(j_max=0).sys
    with pytest.raises(ConfigError):
        PeriodicSystemSpec(sys, (), 2)
    with pytest.raises(ConfigError):
        PeriodicSystemSpec(sys, (unit_ball(F2),), -1)


def test_haar_scaling_members_tile_orthonormally():
    spec = haar_spec()
    members = [spec.member(0, 2, s) for s in range(4)]
    for a in range(4):
        for b in range(4):
            want = 1.0 if a == b else 0.0
            assert abs(members[a].inner(members[b]) - want) <= 1e-12


def test_zero_wavelet_gives_zero_member():
    sys = haar_spec().sys
    spec = PeriodicSystemSpec(sys, (unit_ball(F2), from_cells(F2, 0, {})), 2)
    assert np.all(spec.member(1, 1, 1).values == 0)


def test_member_fourier_energy_matches_norm():
    for spec in (haar_spec(j_max=2), fourier3_spec(j_max=2)):
        for l in range(len(spec.generators)):
            for j, label in ((0, 0), (1, 1), (2, 3)):
                m = spec.member(l, j, label)
                # the coefficients <m, chi(u(n) .)>: the cell of u(n) at index n
                coeffs = refine(fast_transform(m), 0).values
                assert abs(np.sum(np.abs(coeffs) ** 2) - m.norm2()) <= 1e-9


# ------------------------------------------------------ projection scan --

def test_scan_character_restriction_converges_at_one():
    spec = haar_spec()
    f = StepFunction(F2, 3, character_table(F2, uindex(F2, 1), 3))
    J, sums = projection_energy_scan(f, 0.5, spec, folded_energies(f, spec))
    assert J == 1
    assert sums[0] <= 1e-12
    for j in range(1, spec.j_max + 1):
        assert sums[j] == pytest.approx(f.norm2(), abs=1e-12)


def test_scan_constant_function_converges_at_zero():
    spec = haar_spec()
    f = StepFunction(F2, 0, np.array([1.0 + 0j]))
    J, sums = projection_energy_scan(f, 0.5, spec, folded_energies(f, spec))
    assert J == 0
    for j in range(spec.j_max + 1):
        assert sums[j] == pytest.approx(1.0, abs=1e-12)


def test_scan_large_slack_is_trivial():
    spec = haar_spec()
    f = StepFunction(F2, 3, character_table(F2, uindex(F2, 1), 3))
    J, _ = projection_energy_scan(f, 2.0, spec, folded_energies(f, spec))
    assert J == 0


def test_scan_returns_none_when_bounds_never_hold():
    # this input oscillates below every scale the capped spec can reach
    spec = haar_spec(j_max=2)
    f = StepFunction(F2, 3, character_table(F2, uindex(F2, 4), 3))
    J, sums = projection_energy_scan(f, 0.5, spec, folded_energies(f, spec))
    assert J is None
    assert all(s <= 1e-12 for s in sums.values())


def test_scan_rejects_zero_function_and_bad_slack():
    spec = haar_spec(j_max=1)
    zero = StepFunction(F2, 1, np.zeros(2, dtype=complex))
    with pytest.raises(DegenerateInput):
        projection_energy_scan(zero, 0.5, spec, folded_energies(zero, spec))
    one = StepFunction(F2, 0, np.array([1.0 + 0j]))
    with pytest.raises(ConfigError):
        projection_energy_scan(one, 0.0, spec, folded_energies(one, spec))


# ---------------------------------------------------- two-scale identity --

def test_two_scale_identity_haar_random():
    spec = haar_spec()
    rng = np.random.default_rng(90125)
    for _ in range(10):
        f = random_table(F2, 4, rng)
        for j in range(4):
            assert periodic_two_scale_check(f, j, spec) <= 1e-9


def test_two_scale_identity_fourier3_random():
    spec = fourier3_spec()
    rng = np.random.default_rng(5517)
    for _ in range(5):
        f = random_table(F3, 3, rng)
        for j in range(3):
            assert periodic_two_scale_check(f, j, spec) <= 1e-9


def test_two_scale_zero_function():
    spec = haar_spec(j_max=1)
    zero = StepFunction(F2, 1, np.zeros(2, dtype=complex))
    assert periodic_two_scale_check(zero, 0, spec) == 0.0


def test_two_scale_check_needs_a_scale_below_the_cap():
    spec = haar_spec(j_max=2)
    f = random_table(F2, 2, np.random.default_rng(3))
    for j in (-1, 2):
        with pytest.raises(IndexError):
            periodic_two_scale_check(f, j, spec)


def test_folded_energies_hold_the_norm_and_the_energy_balance():
    spec = fourier3_spec(j_max=2)
    f = random_table(F3, 2, np.random.default_rng(8))
    S, W, n2, residuals, total = folded_energies(f, spec)
    assert n2 == f.norm2()
    want_residuals, want_total = energy_balance(S, W)
    assert np.array_equal(residuals, want_residuals) and total == want_total
    for j in range(spec.j_max):
        assert periodic_two_scale_check(f, j, spec) == residuals[j]
    assert periodic_tightness_check(f, spec, (S, W, n2, residuals, total)) == {
        "total": total, "norm2": n2, "residual": abs(total - n2),
        "tail": W[spec.j_max]}


@pytest.mark.parametrize("spec, field", [(haar_spec(), F2), (fourier3_spec(), F3)])
def test_a_blocks_scan_and_tightness_equal_each_functions_own(spec, field):
    rng = np.random.default_rng(1729)
    block = StepFunction(field, spec.j_max, np.array(
        [random_table(field, spec.j_max, rng).values for _ in range(5)]))
    energies = folded_energies(block, spec)
    Js, S = projection_energy_scan(block, 0.5, spec, energies)
    tight = periodic_tightness_check(block, spec, energies)
    # each function's own numbers to 1e-12 of its squared norm: a block sums
    # the same terms, in an order that may differ at roundoff
    for i, values in enumerate(block.values):
        f = StepFunction(field, spec.j_max, values)
        own = folded_energies(f, spec)
        J, sums = projection_energy_scan(f, 0.5, spec, own)
        n2 = f.norm2()
        assert Js[i] == J and tight["norm2"][i] == n2
        assert np.abs(S[:, i] - list(sums.values())).max() <= 1e-12 * n2
        for key, value in periodic_tightness_check(f, spec, own).items():
            assert abs(tight[key][i] - value) <= 1e-12 * n2


def test_periodic_report_forms_one_energy_balance_per_block(monkeypatch):
    config = os.path.join(os.path.dirname(__file__), "..", "configs",
                          "haar_q2.cfg")
    rc = RunConfig.load(config)
    spec = PeriodicSystemSpec(rc.sys, derive_generators(rc.sys, 4), rc.j_max)
    # blocks of 7 functions: 100 = 14 * 7 + 2
    monkeypatch.setattr(runner, "SUITE_BLOCK", 7 * spec.table_width(rc.resolution))
    sizes = []

    def counted(S, W):
        sizes.append(S.shape[1])
        return energy_balance(S, W)

    for module in (runner, periodic):
        monkeypatch.setattr(module, "energy_balance", counted)
    periodic_report(rc)
    assert sizes == [7] * 14 + [2]


def test_periodic_report_reduces_each_bank_and_norm_once_per_block(monkeypatch):
    config = os.path.join(os.path.dirname(__file__), "..", "configs",
                          "haar_q2.cfg")
    rc = RunConfig.load(config)
    spec = PeriodicSystemSpec(rc.sys, derive_generators(rc.sys, 4), rc.j_max)
    # blocks of 7 functions: 100 = 14 * 7 + 2
    monkeypatch.setattr(runner, "SUITE_BLOCK", 7 * spec.table_width(rc.resolution))
    sums = collections.Counter()
    contract = periodic._contract

    def counted(cfg, values, m, forward):
        # the pairs of one digit count, then the functions of the block
        sums[values.shape[:2]] += 1
        return contract(cfg, values, m, forward)

    builds = collections.Counter()
    samples = PeriodicSystemSpec.samples

    def counted_samples(self, l, j):
        builds[l, j] += (l, j) not in self._members
        return samples(self, l, j)

    norms = collections.Counter()
    norm2 = StepFunction.norm2

    def counted_norm2(f):
        norms[f.values.shape[0] if f.values.ndim > 1 else None] += 1
        return norm2(f)

    monkeypatch.setattr(periodic, "_contract", counted)
    monkeypatch.setattr(PeriodicSystemSpec, "samples", counted_samples)
    monkeypatch.setattr(StepFunction, "norm2", counted_norm2)
    periodic_report(rc)
    # the samples of each (l, j) are formed once; each block takes one
    # character sum per digit count min(k, j) = j, over both generators
    assert builds == {(l, j): 1 for l in range(2) for j in range(rc.j_max + 1)}
    assert sums == {(2, 7): 14 * (rc.j_max + 1), (2, 2): rc.j_max + 1}
    # folded_energies forms ||f||^2 and both checks that need it read it there
    assert norms == {7: 14, 2: 1}


def test_two_scale_detects_mask_perturbation():
    spec = haar_spec(perturb=(1, 1))
    rng = np.random.default_rng(2204)
    worst = max(periodic_two_scale_check(random_table(F2, 3, rng), 0, spec)
                for _ in range(10))
    assert worst > 1e-3


def test_two_scale_matches_line_analysis_on_unfolded_input():
    # folding is support-exact here, so the folded and unfolded energy
    # balances must agree term by term, including for broken masks
    cases = (
        (haar_spec(j_max=3), 3),
        (haar_spec(j_max=3, perturb=(1, 1)), 3),
        (fourier3_spec(j_max=2), 2),
    )
    for spec, res in cases:
        rng = np.random.default_rng(61)
        analyzer = FrameAnalyzer(spec.sys, spec.generators)
        for _ in range(3):
            f = random_table(spec.sys.field, res, rng)
            for j in range(res):
                folded = periodic_two_scale_check(f, j, spec)
                line = analyzer.two_scale_check(f, j)
                assert abs(folded - line) <= 1e-9


# ------------------------------------------------------- tightness check --

def test_tightness_haar_random_resolution_four():
    spec = haar_spec()
    rng = np.random.default_rng(31337)
    for _ in range(10):
        f = random_table(F2, 4, rng)
        out = periodic_tightness_check(f, spec, folded_energies(f, spec))
        assert out["residual"] <= 1e-9
        assert out["tail"] <= 1e-12
        assert out["total"] == pytest.approx(out["norm2"], rel=1e-9)


def test_tightness_scaling_member_alone():
    spec = haar_spec()
    f = periodize(spec.generators[0])
    out = periodic_tightness_check(f, spec, folded_energies(f, spec))
    assert out["residual"] <= 1e-12
    assert out["total"] == pytest.approx(
        abs(f.inner(spec.member(0, 0, 0))) ** 2, abs=1e-12)
    assert out["tail"] <= 1e-12


def test_tightness_fourier3_random():
    spec = fourier3_spec()
    rng = np.random.default_rng(777)
    for _ in range(5):
        f = random_table(F3, 3, rng)
        out = periodic_tightness_check(f, spec, folded_energies(f, spec))
        assert out["residual"] <= 1e-9
        assert out["tail"] <= 1e-12


def test_tightness_rejects_underresolved_scale_cap():
    spec = haar_spec(j_max=2)
    f = random_table(F2, 3, np.random.default_rng(8))
    with pytest.raises(TruncationError):
        periodic_tightness_check(f, spec, folded_energies(f, spec))


def test_tightness_telescopes_through_scale_identities():
    # independent route: chain the per-scale balances up from scale zero,
    # then compare against the scaling-only energy at the top scale
    spec = fourier3_spec()
    f = random_table(F3, 3, np.random.default_rng(424242))
    out = periodic_tightness_check(f, spec, folded_energies(f, spec))
    _, sums = projection_energy_scan(f, 1.0, spec, folded_energies(f, spec))
    slack = sum(periodic_two_scale_check(f, j, spec) for j in range(spec.j_max))
    assert abs(out["total"] - sums[spec.j_max]) <= slack + 1e-12


def test_tightness_detects_mask_perturbation():
    spec = haar_spec(perturb=(0, 0))
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(10):
        f = random_table(F2, 3, rng)
        worst = max(worst, periodic_tightness_check(
            f, spec, folded_energies(f, spec))["residual"])
    assert worst > 1e-3
