"""Member banks against the per-translation loops they replace.

The oracles below are the loop routes: a support scan that builds every
member as a step function and takes one dict inner product per overlapping
translation, projections summed member by member, and the folded energy
summed over every label of a scale. The banks must agree with them to
1e-12 relative on every system, including the degenerate nonuniform
family, a nontrivial dilation unit and an extension field. A bank build
must stay within the entries bank_entries counts for it, or allocate
nothing row-sized when the count passes the cap.
"""

import math
import os
import tracemalloc
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from walshframes import framekit, periodic, runner
from walshframes.algebra import FieldConfig, LambdaIndex, SystemConfig, cell_index
from walshframes.errors import ConfigError
from walshframes.framekit import (
    FrameAnalyzer,
    Mask,
    bank_entries,
    derive_generators,
    load_masks,
    system_member,
    translation_digits,
)
from walshframes.periodic import (
    PeriodicSystemSpec,
    folded_energies,
    periodic_tightness_check,
    periodic_two_scale_check,
    projection_energy_scan,
)
from walshframes.runner import RunConfig, periodic_report, verify_report
from walshframes.stepfn import StepFunction, from_cells, inner, periodize

CONFIGS = os.path.abspath(
    os.path.join(os.path.dirname(__file__), "..", "configs"))
REL = 1e-12
EXAMPLES = settings(max_examples=25, deadline=None, derandomize=True,
                    database=None)


def _shipped(name):
    return load_masks(os.path.join(CONFIGS, name + ".masks"))


def _fourier_q3(N, offset):
    base = SystemConfig(FieldConfig(3), N=N, r=1)
    w = complex(np.exp(2j * np.pi / 3))
    rows = [{(n, 0): w ** (l * n) / math.sqrt(3) for n in range(3)}
            for l in range(3)]
    rows[1][offset] = 0.25
    return base.with_masks(tuple(Mask(base, row) for row in rows))


def _gf4_nu2():
    base = SystemConfig(FieldConfig(2, 2, (1, 1, 1)), N=1, r=1,
                        dilation_unit=2)
    rows = [{(n, 0): 0.5 for n in range(4)},
            {(0, 0): 0.5, (1, 0): -0.5, (2, 0): 0.5j, (3, 0): -0.5j}]
    return base.with_masks(tuple(Mask(base, row) for row in rows))


def random_step(cfg, ball, resolution, seed, sparse):
    """Random amplitudes on every cell of B^ball / B^resolution; with sparse,
    about half of the cells are zero, so supports overlap partially."""
    rng = np.random.default_rng(seed)
    q = cfg.q
    cells = {}
    for i in range(q ** (resolution - ball)):
        if sparse and rng.random() < 0.5:
            continue
        terms = {ball + e: (i // q ** e) % q for e in range(resolution - ball)}
        cells[cfg.element(terms)] = complex(rng.standard_normal(),
                                            rng.standard_normal())
    return from_cells(cfg, resolution, cells)


SYSTEMS = {
    "haar_q2": _shipped("haar_q2"),
    "haar_q2_perturbed": _shipped("haar_q2_perturbed"),
    "fourier_q3": _shipped("fourier_q3"),
    "nonuniform_q2_N3_r1": _shipped("nonuniform_q2_N3_r1"),
    "nonuniform_q2_N3_r5": _shipped("nonuniform_q2_N3_r5"),
    # N = 2 makes nu = 2 in GF(3): dilations permute digits
    "fourier_q3_nu2": _fourier_q3(2, (1, 1)),
    "gf4_nu2": _gf4_nu2(),
    # qN = 15 is odd, so the two branches hold different label counts
    "fourier_q3_n5": _fourier_q3(5, (2, 1)),
}
GENERATORS = {name: derive_generators(s, 4) for name, s in SYSTEMS.items()}
# generators reaching outside D, so member cells and translations share digits
for _name, _base in (("gf4_wide", "gf4_nu2"),
                     ("nonuniform_wide", "nonuniform_q2_N3_r5")):
    SYSTEMS[_name] = SYSTEMS[_base]
    GENERATORS[_name] = tuple(random_step(SYSTEMS[_base].field, -1, 1, seed, True)
                              for seed in (41, 42))
ANALYZERS = {name: FrameAnalyzer(s, GENERATORS[name])
             for name, s in SYSTEMS.items()}
J_MAX = 3
SPECS = {name: PeriodicSystemSpec(s, GENERATORS[name], J_MAX)
         for name, s in SYSTEMS.items()}
_MEMBERS = {}


# ---------------------------------------------------------------- oracles --

def oracle_member(name, l, j, idx):
    """system_member, cached on the translation value."""
    sys = SYSTEMS[name]
    key = (name, l, j, sys.lambda_element(idx).terms)
    if key not in _MEMBERS:
        _MEMBERS[key] = system_member(l, j, idx, sys, GENERATORS[name])
    return _MEMBERS[key]


def _support_overlaps(f, g):
    if f.resolution <= g.resolution:
        coarse, fine = f, g
    else:
        coarse, fine = g, f
    keys = coarse.cells.keys()
    kc = coarse.resolution
    return any(rep.truncate(kc) in keys for rep in fine.cells)


def oracle_coefficient_row(name, f, l, j, margin=0):
    """The support scan: one member and one inner product per translation."""
    sys, gens = SYSTEMS[name], GENERATORS[name]
    if f.is_zero or gens[l].is_zero:
        return {}
    A = min(f.support_ball() - j, gens[l].support_ball())
    exp = max(0, -A)
    if sys.branches == 2:
        exp = max(exp, -sys.theta.valuation())
    row = {}
    for delta in range(sys.branches):
        for n in range(sys.q ** (exp + margin)):
            idx = LambdaIndex(n, delta)
            member = oracle_member(name, l, j, idx)
            if _support_overlaps(f, member):
                row[idx] = inner(f, member)
    return row


def _energy(row):
    return sum(abs(c) ** 2 for c in row.values())


def _expand(name, row, l, j):
    out = from_cells(SYSTEMS[name].field, 0, {})
    for idx in sorted(row):
        out = out + oracle_member(name, l, j, idx).scale(row[idx])
    return out


def oracle_energies(name, f, l, j):
    """(sum |c|^2, <P f, f>) with P f summed member by member: the check of
    the bank cell indices, against the library's one energy of the bank."""
    row = oracle_coefficient_row(name, f, l, j)
    return _energy(row), inner(_expand(name, row, l, j), f)


def oracle_folded_energy(name, f, l, j):
    """sum over every label of scale j of |<f, folded member>|^2."""
    sys = SYSTEMS[name]
    total = 0.0
    for label in range(sys.qN ** j):
        idx = sys.branch_index(label)
        key = ("folded",) + (name, l, j, sys.lambda_element(idx).terms)
        if key not in _MEMBERS:
            _MEMBERS[key] = periodize(oracle_member(name, l, j, idx))
        total += abs(f.inner(_MEMBERS[key])) ** 2
    return total


# ----------------------------------------------------------------- inputs --

def _close(got, want, scale):
    return abs(got - want) <= REL * scale


def _scale(f, g):
    """Cauchy-Schwarz bound on every coefficient of f against members of g."""
    return math.sqrt(f.norm2() * g.norm2()) or 1.0


def _check_rows(name, f, j_range, wide=()):
    """The library rows against the support scan; at the scales in wide, a
    scan q times wider, which must find no further overlapping member."""
    an, gens = ANALYZERS[name], GENERATORS[name]
    for l in range(len(gens)):
        for j in j_range:
            got = an.coefficient_row(f, l, j)
            want = oracle_coefficient_row(name, f, l, j, margin=int(j in wide))
            assert got.keys() == want.keys()
            scale = _scale(f, gens[l])
            for idx, c in want.items():
                assert _close(got[idx], c, scale), (name, l, j, idx)
            bank = an._bank(l, j, f.support_ball())
            energy = bank.energy(bank.gather(f, f.support_ball(), {}))
            o_energy, o_proj = oracle_energies(name, f, l, j)
            assert _close(energy, o_energy, scale ** 2)
            assert _close(energy, o_proj, scale ** 2)


def _check_sums(name, f, j0, j1):
    an, gens = ANALYZERS[name], GENERATORS[name]
    scale = f.norm2() * max(g.norm2() for g in gens)
    for j in range(j0, j1):
        residual = an.two_scale_check(f, j)
        fine = oracle_energies(name, f, 0, j + 1)
        coarse = oracle_energies(name, f, 0, j)
        waves = [oracle_energies(name, f, l, j) for l in range(1, len(gens))]
        want = abs(fine[0] - coarse[0] - sum(w[0] for w in waves))
        want_proj = abs(coarse[1] + sum(w[1] for w in waves) - fine[1])
        assert _close(residual, want, scale)
        assert _close(residual, want_proj, scale)
    total = _energy(oracle_coefficient_row(name, f, 0, j0))
    for l in range(1, len(gens)):
        for j in range(j0, j1):
            total += _energy(oracle_coefficient_row(name, f, l, j))
    assert _close(an.frame_ratio(f, j0, j1), total / f.norm2(),
                  scale / f.norm2())


# ------------------------------------------------------------ frame banks --

@EXAMPLES
@given(name=st.sampled_from(sorted(SYSTEMS)), resolution=st.integers(3, 5),
       seed=st.integers(0, 2 ** 32 - 1), sparse=st.booleans())
def test_bank_rows_match_support_scan_on_suite_functions(name, resolution,
                                                         seed, sparse):
    cfg = SYSTEMS[name].field
    if cfg.q ** resolution > 256:
        resolution -= 1
    f = random_step(cfg, 0, resolution, seed, sparse)
    _check_rows(name, f, range(-1, 4), wide=(-1, 0, 1))
    if not f.is_zero:
        _check_sums(name, f, 0, 3)


@EXAMPLES
@given(name=st.sampled_from(sorted(SYSTEMS)), ball=st.sampled_from((-1, -2)),
       resolution=st.integers(0, 2), seed=st.integers(0, 2 ** 32 - 1),
       sparse=st.booleans())
def test_bank_rows_match_support_scan_outside_the_unit_ball(name, ball,
                                                            resolution, seed,
                                                            sparse):
    cfg = SYSTEMS[name].field
    # the loop route scans q^(j - ball) translations; keep it small
    while cfg.q ** (resolution - ball) > 16:
        resolution -= 1
    f = random_step(cfg, ball, resolution, seed, sparse)
    _check_rows(name, f, range(0, 2), wide=(0, 1))
    if not f.is_zero:
        _check_sums(name, f, 0, 1)


def test_bank_row_of_a_shipped_suite_function():
    # the suite's own layout: a dense table turned into a step function
    for name in ("fourier_q3", "nonuniform_q2_N3_r5"):
        cfg = SYSTEMS[name].field
        rng = np.random.default_rng(20260814)
        n = cfg.q ** 4
        f = StepFunction(
            cfg, 4, rng.standard_normal(n) + 1j * rng.standard_normal(n))
        _check_rows(name, f, range(0, 4))


def test_bank_grows_without_changing_entries():
    name = "fourier_q3"
    an = FrameAnalyzer(SYSTEMS[name], GENERATORS[name])
    f = random_step(SYSTEMS[name].field, 0, 3, 11, False)
    first = an.coefficient_row(f, 1, 2)
    (key, bank), = an._members.items()
    cells = bank.cells.copy()
    # a function on B^-1 reaches q times more translations at scale 2
    g = random_step(SYSTEMS[name].field, -1, 2, 12, False)
    an.coefficient_row(g, 1, 2)
    assert sorted(an._members) == [key, (1, 2, key[2] * 3)]
    assert an._members[key] is bank and np.array_equal(bank.cells, cells)
    assert an.coefficient_row(f, 1, 2) == first


def test_zero_inputs_give_empty_rows():
    name = "haar_q2"
    an = FrameAnalyzer(SYSTEMS[name], GENERATORS[name])
    zero = from_cells(SYSTEMS[name].field, 2, {})
    assert an.coefficient_row(zero, 1, 1) == {}
    assert an.two_scale_check(zero, 0) == 0.0
    blank = FrameAnalyzer(SYSTEMS[name], (GENERATORS[name][0],
                                          from_cells(SYSTEMS[name].field, 0, {})))
    f = random_step(SYSTEMS[name].field, 0, 2, 3, False)
    assert blank.coefficient_row(f, 1, 1) == {}


# ----------------------------------------------------------- folded banks --

@EXAMPLES
@given(name=st.sampled_from(sorted(SYSTEMS)), resolution=st.integers(0, 3),
       seed=st.integers(0, 2 ** 32 - 1))
def test_folded_energies_match_label_loop(name, resolution, seed):
    spec = SPECS[name]
    cfg = spec.sys.field
    rng = np.random.default_rng(seed)
    n = cfg.q ** resolution
    f = StepFunction(
        cfg, resolution, rng.standard_normal(n) + 1j * rng.standard_normal(n))
    n2 = f.norm2()
    scale = n2 * spec.sys.qN ** J_MAX * max(g.norm2() for g in spec.generators)
    scaling = [oracle_folded_energy(name, f, 0, j) for j in range(J_MAX + 1)]
    wavelet = [sum(oracle_folded_energy(name, f, l, j)
                   for l in range(1, len(spec.generators)))
               for j in range(J_MAX + 1)]
    energies = folded_energies(f, spec)
    _, sums = projection_energy_scan(f, 0.5, spec, energies)
    for j in range(J_MAX + 1):
        assert _close(sums[j], scaling[j], scale)
        if j < J_MAX:
            assert _close(periodic_two_scale_check(f, j, spec),
                          abs(scaling[j + 1] - scaling[j] - wavelet[j]), scale)
    out = periodic_tightness_check(f, spec, energies)
    assert _close(out["total"], scaling[0] + sum(wavelet[:J_MAX]), scale)
    assert _close(out["tail"], wavelet[J_MAX], scale)


def _folded_rows(sys, j, K):
    """The bank row of each of the (qN)^j labels at scale j, from the
    translation digits of a folded bank of resolution K."""
    n, delta = np.array([sys.branch_index(s) for s in range(sys.qN ** j)]).T
    mu = translation_digits(sys, j, n, delta, 0, K)
    return cell_index(sys.q, mu.items(), min(j, K), out=np.zeros(n.size, dtype=np.int64))


def _folded_spec(name):
    sys = SYSTEMS[name]
    if name.startswith("nonuniform"):
        assert sys.lambda_degenerate
    return PeriodicSystemSpec(sys, GENERATORS[name], 4 if sys.qN < 10 else 3)


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_folded_members_match_periodized_members(name):
    # each row of a folded bank, its cells scattered into a table, is bit for
    # bit the periodized member of one label of that row, and member is it
    spec = _folded_spec(name)
    sys, q = spec.sys, spec.sys.q
    for l in range(len(spec.generators)):
        for j in range(spec.j_max + 1):
            bank = spec.bank(l, j)
            K = bank.resolution
            rows = _folded_rows(sys, j, K)
            for r in range(bank.cells.shape[0]):
                label = int(np.flatnonzero(rows == r)[0])
                values = np.zeros(q ** K, dtype=complex)
                values[bank.cells[r]] = np.conj(bank.conj_values)
                want = periodize(system_member(l, j, sys.branch_index(label), sys,
                                               spec.generators))
                assert want.resolution == K and want.lo == 0
                assert np.array_equal(values, want.values), (l, j, r, label)
                got = spec.member(l, j, label)
                assert got.resolution == K and np.array_equal(got.values, want.values)


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_folded_weights_count_every_label(name):
    # a row's weight is the count of its labels, found from the translation
    # digits and by brute force; the weights add up to (qN)^j
    spec = _folded_spec(name)
    sys = spec.sys
    for l in range(len(spec.generators)):
        for j in range(spec.j_max + 1):
            bank = spec.bank(l, j)
            weights = bank.weights
            assert int(weights.sum()) == sys.qN ** j
            rows = _folded_rows(sys, j, bank.resolution)
            assert np.array_equal(np.bincount(rows, minlength=weights.size), weights)
            # the label count of each folded translation, by brute force
            digits = Counter(
                tuple(sys.lambda_element(sys.branch_index(s)).coefficient(-1 - i)
                      for i in range(j))
                for s in range(sys.qN ** j))
            assert sorted(weights.tolist()) == sorted(digits.values())
            assert bank.cells.shape[0] == len(digits)


# ------------------------------------------------------------- bank sizes --

@st.composite
def bank_systems(draw):
    """(system, generators, cascade iterations): a system above, or two
    random masks over GF(2), GF(3) or GF(4) with N <= 3."""
    if draw(st.booleans()):
        name = draw(st.sampled_from(sorted(SYSTEMS)))
        return SYSTEMS[name], GENERATORS[name], 4
    cfg = draw(st.sampled_from([FieldConfig(2), FieldConfig(3), FieldConfig(2, 2, (1, 1, 1))]))
    base = SystemConfig(cfg, N=draw(st.sampled_from([N for N in (1, 2, 3) if N % cfg.p])))
    index = st.tuples(st.integers(0, cfg.q ** 2 - 1), st.integers(0, base.branches - 1))
    value = st.complex_numbers(max_magnitude=1, allow_nan=False, allow_infinity=False)
    sys = base.with_masks(tuple(
        Mask(base, draw(st.dictionaries(index, value, min_size=1, max_size=4)))
        for _ in range(2)))
    iterations = draw(st.integers(0, 3))
    return sys, derive_generators(sys, iterations), iterations


@pytest.mark.parametrize("name", ["fourier_q3", "haar_q2", "haar_q2_perturbed",
                                  "nonuniform_q2_N3_r1", "nonuniform_q2_N3_r5"])
def test_bank_count_from_the_generator_matches_the_member(name):
    # the count is formed from g_l before member (l, j, 0) is built; it is
    # the count of the built member's cells on every pair a shipped run reads
    rc = RunConfig.load(os.path.join(CONFIGS, name + ".cfg"))
    an = FrameAnalyzer(rc.sys, derive_generators(rc.sys, rc.cascade_iterations))
    B, q = rc.sys.branches, rc.sys.q
    with mock.patch.object(framekit, "bank_entries", wraps=bank_entries) as counted:
        width = an.table_width(rc.resolution, rc.j0, rc.j1)
        assert not an._members   # every bank counted, none built
        for l, j in an._pairs(rc.j0, rc.j1 + 3):
            bound, cells = an._scan(l, j, 0)
            assert counted.call_args.args[4] == cells
            h = an.member(l, j, LambdaIndex(0, 0))
            assert cells == B * bound * np.count_nonzero(h.values)
    # the width the built banks give
    banks = [an._bank(l, j, 0) for l, j in an._pairs(rc.j0, rc.j1)]
    assert width == max(max(bank.cells.size, q ** max(bank.resolution, 0) + 1,
                            q ** (rc.resolution - min(bank.resolution, 0)))
                        for bank in banks)


@pytest.mark.parametrize("name", ["fourier_q3", "haar_q2", "haar_q2_perturbed",
                                  "nonuniform_q2_N3_r1", "nonuniform_q2_N3_r5"])
def test_folded_count_before_any_member_matches_the_build(name):
    # table_width counts every folded bank's label arrays from g_l's
    # resolution before any member exists: the rows and arrays of the build
    rc = RunConfig.load(os.path.join(CONFIGS, name + ".cfg"))
    spec = PeriodicSystemSpec(rc.sys, derive_generators(rc.sys, rc.cascade_iterations),
                              rc.j_max + 3)
    with mock.patch.object(periodic, "bank_entries", wraps=bank_entries) as counted:
        spec.table_width()
    calls = [c.args for c in counted.call_args_list]
    first, built = calls[:len(calls) // 2], calls[len(calls) // 2:]
    assert [c[:4] for c in first] == [c[:4] for c in built]
    assert all(c[4] == 0 for c in first) and all(c[4] > 0 for c in built)


@pytest.mark.parametrize("name", ["fourier_q3", "haar_q2", "haar_q2_perturbed",
                                  "nonuniform_q2_N3_r1", "nonuniform_q2_N3_r5"])
def test_each_report_builds_one_bank_per_pair(monkeypatch, name):
    # every bank cache a report creates, kept as the benchmark's cache probe
    # keeps them: one bank per (l, j) the checks read, over a suite drawn
    # one function per block
    monkeypatch.setattr(runner, "SUITE_BLOCK", 1)
    caches = {FrameAnalyzer: [], PeriodicSystemSpec: []}
    for cls in caches:
        def keep(self, *args, _init=cls.__init__, _cls=cls, **kwargs):
            _init(self, *args, **kwargs)
            caches[_cls].append(self._members)

        monkeypatch.setattr(cls, "__init__", keep)
    rc = RunConfig.load(os.path.join(CONFIGS, name + ".cfg"))
    verify_report(rc)
    periodic_report(rc)
    L, scales = len(rc.sys.masks), rc.j1 - rc.j0
    (banks,), (folded,) = caches[FrameAnalyzer], caches[PeriodicSystemSpec]
    assert len(banks) == (scales + 1) + (L - 1) * scales
    assert len({key[:2] for key in banks}) == len(banks)
    assert sorted(folded) == [(l, j) for l in range(L) for j in range(rc.j_max + 1)]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(bank_systems(), st.integers(0, 2), st.integers(-3, 16), st.booleans())
def test_bank_entries_bound_each_build(system, l, j, folded):
    sys, gens, iterations = system
    K = max(m.constancy_resolution for m in sys.masks)
    assert max(g.values.size for g in gens) <= sys.q ** (K + iterations)
    l %= len(gens)
    # up to about 2^16 rows, and a folded member of at most 2^16 cells
    top = int(16 // math.log2(sys.q)) - sys.branches + 1
    j = max(0, min(j, top - max(gens[l].resolution, 0))) if folded else min(j, top)
    # the member is formed outside the trace: its table is capped on its own
    h = system_member(l, j, LambdaIndex(0, 0), sys, gens)
    h = periodize(h) if folded else h
    seen = {}

    def spy(*args):
        seen["index"] = args[-1]
        seen["count"] = bank_entries(*args)
        return seen["count"]

    cap = 2 ** 20
    with mock.patch.object(framekit, "CELL_CAP", cap), \
            mock.patch.object(framekit, "bank_entries", spy), \
            mock.patch.object(periodic, "bank_entries", spy), \
            mock.patch.object(framekit, "system_member", lambda *args: h), \
            mock.patch.object(periodic, "system_member", lambda *args: h), \
            mock.patch.object(periodic, "periodize", lambda member: member):
        tracemalloc.start()
        try:
            if folded:
                bank = PeriodicSystemSpec(sys, gens, j).bank(l, j)
            else:
                bank = FrameAnalyzer(sys, gens)._bank(l, j, 0)
        except ConfigError as exc:
            assert f"scale {j}" in str(exc) and str(cap) in str(exc)
            bank = None
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    if bank is None:
        # refused before a row-sized array: the rows alone would need 8 MiB
        assert "count" not in seen and peak < 2 ** 20
    else:
        assert seen["index"] == bank.cells.size
        assert peak <= 8 * seen["count"] + 2 ** 20
