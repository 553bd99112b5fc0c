"""Frame energies from the Fourier side against per-translation loops.

The oracles below are the loop routes: a support scan that builds every
member as a step function and takes one dict inner product per overlapping
translation, projections summed member by member, and the folded energy
summed over every label of a scale. The energies the library forms from
transforms (FrameAnalyzer.energies, folded_energies) must agree with them
to 1e-12 of the Cauchy-Schwarz scale on every system, including the
degenerate nonuniform family, a nontrivial dilation unit, an extension
field and functions off D. The label counts of a folded pair must stay
within the entries label_entries counts for them, or allocate nothing
row-sized when the count passes the cap.
"""

import math
import os
import tracemalloc
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from oracles import character_table

from walshframes import framekit, periodic, runner
from walshframes.algebra import FieldConfig, LambdaIndex, SystemConfig, cell_index, digit_count
from walshframes.errors import ConfigError
from walshframes.framekit import (
    FrameAnalyzer,
    Mask,
    derive_generators,
    load_masks,
    nu_power,
    system_member,
)
from walshframes.harmonic import fast_transform
from walshframes.periodic import (
    PeriodicSystemSpec,
    folded_energies,
    label_entries,
    periodic_tightness_check,
    periodic_two_scale_check,
    projection_energy_scan,
)
from walshframes.runner import RunConfig, periodic_report, verify_report
from walshframes.stepfn import StepFunction, from_cells, inner, periodize, refine

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
    """(sum |c|^2, <P f, f>) with P f summed member by member, against the
    library's energy of (l, j)."""
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
            energy = _energy_of(name, f, l, j)
            o_energy, o_proj = oracle_energies(name, f, l, j)
            assert _close(energy, o_energy, scale ** 2)
            assert _close(energy, o_proj, scale ** 2)


def _energy_of(name, f, l, j):
    """The library's energy of generator l at scale j alone: the scaling
    energy of an analyzer that holds g_l only."""
    return FrameAnalyzer(SYSTEMS[name], (GENERATORS[name][l],)).energies(f, j, j)[0][0]


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


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_energies_of_a_wide_range_match_each_scale_alone(name):
    # the range passes, on both sides, the scales where f^ and g_l^ overlap
    # in more than one cell of either, past which the energies keep one norm;
    # a range of one scale forms the product at that scale itself
    an, cfg, gens = ANALYZERS[name], SYSTEMS[name].field, GENERATORS[name]
    j0, j1 = -9, 12
    for f in (random_step(cfg, 0, 2, 7, False), random_step(cfg, -1, 1, 8, True)):
        fhat = fast_transform(f)
        for g in map(fast_transform, gens):
            assert j0 < g.lo - fhat.resolution and max(g.resolution, 0) - fhat.lo < j1
        S, W = an.energies(f, j0, j1)
        scale = f.norm2() * max(g.norm2() for g in gens) * SYSTEMS[name].branches
        for i, j in enumerate(range(j0, j1 + 1)):
            assert _close(S[i], an.energies(f, j, j)[0][0], scale), (j, S[i])
            if j < j1:
                assert _close(W[i], an.energies(f, j, j + 1)[1][0], scale), (j, W[i])


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
    # the analyzer keeps one transform per generator, formed on first use: a
    # function on B^-1, which reaches q times more translations at scale 2,
    # adds nothing to it and changes no energy of the first function
    name = "fourier_q3"
    an = FrameAnalyzer(SYSTEMS[name], GENERATORS[name])
    f = random_step(SYSTEMS[name].field, 0, 3, 11, False)
    first = an.coefficient_row(f, 1, 2), an.energies(f, 0, 3)
    kept = dict(an._members)
    assert sorted(kept) == [0, 1, 2]
    for l, ghat in kept.items():
        assert ghat == fast_transform(GENERATORS[name][l])
    g = random_step(SYSTEMS[name].field, -1, 2, 12, False)
    an.coefficient_row(g, 1, 2)
    an.energies(g, 0, 3)
    assert all(an._members[l] is ghat for l, ghat in kept.items())
    row, (S, W) = an.coefficient_row(f, 1, 2), an.energies(f, 0, 3)
    assert row == first[0]
    assert np.array_equal(S, first[1][0]) and np.array_equal(W, first[1][1])


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
    """The row of each of the (qN)^j labels at scale j: the digits on D of
    its translation mu = a^-j lambda, by FieldElement arithmetic, as an index
    at resolution min(j, K)."""
    m, c = min(j, K), nu_power(sys, -j)
    rows = []
    for label in range(sys.qN ** j):
        mu = sys.lambda_element(sys.branch_index(label)).scale(c).shift(j)
        rows.append(cell_index(sys.q, [(e, d) for e, d in mu.terms if 0 <= e < m], m))
    return np.array(rows, dtype=np.int64)


def _folded_spec(name):
    sys = SYSTEMS[name]
    if name.startswith("nonuniform"):
        assert sys.lambda_degenerate
    return PeriodicSystemSpec(sys, GENERATORS[name], 4 if sys.qN < 10 else 3)


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_folded_members_match_periodized_members(name):
    # member is bit for bit the periodized member of its label, and the
    # lattice samples e of its pair, times the character of the label's
    # translation mu, are that member's Fourier coefficients
    spec = _folded_spec(name)
    sys, cfg = spec.sys, spec.sys.field
    for l in range(len(spec.generators)):
        for j in range(spec.j_max + 1):
            _, e = spec.samples(l, j)
            L = sys.qN ** j
            for label in sorted({0, L - 1} | set(range(0, L, max(1, L // 7)))):
                idx = sys.branch_index(label)
                want = periodize(system_member(l, j, idx, sys, spec.generators))
                K = want.resolution
                assert want.lo == 0 and e.size == cfg.q ** K
                got = spec.member(l, j, label)
                assert got.resolution == K and np.array_equal(got.values, want.values)
                coeffs = refine(fast_transform(want), 0).window(-K).values
                mu = sys.lambda_element(idx).scale(nu_power(sys, -j)).shift(j)
                chars = character_table(cfg, mu, 0, -K)
                scale = math.sqrt(want.norm2()) or 1.0
                assert np.abs(coeffs - e * np.conj(chars)).max() <= REL * scale, \
                    (l, j, label)


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_folded_weights_count_every_label(name):
    # a row's weight is the count of its labels, found from the translation
    # digits and by brute force; the weights add up to (qN)^j
    spec = _folded_spec(name)
    sys = spec.sys
    for l in range(len(spec.generators)):
        for j in range(spec.j_max + 1):
            weights, e = spec.samples(l, j)
            assert int(weights.sum()) == sys.qN ** j
            rows = _folded_rows(sys, j, digit_count(sys.q, e.size - 1))
            assert np.array_equal(np.bincount(rows, minlength=weights.size), weights)
            # the label count of each folded translation, by brute force
            digits = Counter(
                tuple(sys.lambda_element(sys.branch_index(s)).coefficient(-1 - i)
                      for i in range(j))
                for s in range(sys.qN ** j))
            assert sorted(weights.tolist()) == sorted(digits.values())
            assert weights.size == len(digits)


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


SHIPPED = ["fourier_q3", "haar_q2", "haar_q2_perturbed", "nonuniform_q2_N3_r1",
           "nonuniform_q2_N3_r5"]


@pytest.mark.parametrize("name", SHIPPED)
def test_table_width_bounds_every_product(monkeypatch, name):
    # every table the energies form for a function, over scales well below
    # and above the report's, holds at most the width table_width counts
    rc = RunConfig.load(os.path.join(CONFIGS, name + ".cfg"))
    an = FrameAnalyzer(rc.sys, derive_generators(rc.sys, rc.cascade_iterations))
    j0, j1 = rc.j0 - 3, rc.j1 + 6
    width = an.table_width(rc.resolution, j0, j1)
    sizes = []
    table = framekit._table

    def spy(*args):
        out = table(*args)
        sizes.append(out.shape[-1])
        return out

    monkeypatch.setattr(framekit, "_table", spy)
    f = next(runner.suite_blocks(rc.cfg, rc.resolution, 3, rc.seed))
    an.energies(f, j0, j1)
    assert sizes and max(sizes) <= width


@pytest.mark.parametrize("name", SHIPPED)
def test_folded_count_before_any_member_matches_the_build(name):
    # table_width counts every folded pair's label arrays from g_l's
    # resolution before any pair is formed: the rows and arrays of the build
    rc = RunConfig.load(os.path.join(CONFIGS, name + ".cfg"))
    spec = PeriodicSystemSpec(rc.sys, derive_generators(rc.sys, rc.cascade_iterations),
                              rc.j_max + 3)
    with mock.patch.object(periodic, "label_entries", wraps=label_entries) as counted:
        spec.table_width(rc.resolution)
        assert not spec._members
        first = [c.args for c in counted.call_args_list]
        for l in range(len(spec.generators)):
            for j in range(spec.j_max + 1):
                spec.samples(l, j)
    built = [c.args for c in counted.call_args_list][len(first):]
    assert first == built
    pairs = sorted(key for key in spec._members if isinstance(key, tuple))
    assert [c[:2] for c in first] == pairs
    assert len(spec._members) == len(pairs) + len(spec.generators)


@pytest.mark.parametrize("name", SHIPPED)
def test_each_report_builds_one_bank_per_pair(monkeypatch, name):
    # every cache a report creates, kept as the benchmark's cache probe keeps
    # them, over a suite drawn one function per block: verify keeps one
    # transform per generator, periodic the same and one entry per (l, j)
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
    L = len(rc.sys.masks)
    (transforms,), (folded,) = caches[FrameAnalyzer], caches[PeriodicSystemSpec]
    assert sorted(transforms) == list(range(L))
    assert sorted(key for key in folded if isinstance(key, int)) == list(range(L))
    assert sorted(key for key in folded if isinstance(key, tuple)) == \
        [(l, j) for l in range(L) for j in range(rc.j_max + 1)]
    assert len(folded) == L * (rc.j_max + 2)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(bank_systems(), st.integers(0, 2), st.integers(0, 16))
def test_label_entries_bound_each_build(system, l, j):
    sys, gens, iterations = system
    K = max(m.constancy_resolution for m in sys.masks)
    assert max(g.values.size for g in gens) <= sys.q ** (K + iterations)
    l %= len(gens)
    # up to about 2^16 label rows, and samples of at most 2^16 cells
    top = int(16 // math.log2(sys.q)) - sys.branches + 1
    j = max(0, min(j, top - max(gens[l].resolution, 0)))
    seen = {}

    def spy(*args):
        seen["count"] = label_entries(*args)
        return seen["count"]

    cap = 2 ** 20
    spec = PeriodicSystemSpec(sys, gens, j)
    with mock.patch.object(periodic, "CELL_CAP", cap), \
            mock.patch.object(periodic, "label_entries", spy):
        tracemalloc.start()
        try:
            weights, e = spec.samples(l, j)
        except ConfigError as exc:
            assert f"scale {j}" in str(exc) and str(cap) in str(exc)
            weights = None
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    if weights is None:
        # refused before a row-sized array: the rows alone would need 8 MiB
        assert "count" not in seen and peak < 2 ** 20
    else:
        # the label arrays, and the generator's transform and samples
        assert peak <= 8 * seen["count"] + 48 * e.size + 2 ** 20
