"""Block evaluation of the verify and periodic suites.

runner draws the suite a block of functions at a time and checks each block
as arrays. The references in tests/oracles.py draw and check one function
at a time. A block must come from the same PCG64 stream bit for bit, the
report numbers must agree with the one-at-a-time loop to 1e-12 relative
(residuals scaled by the suite's largest squared norm, the size of the
energies they are differences of), and the peak memory of a report must not
grow with the suite count.
"""

import dataclasses
import os
import tracemalloc

import numpy as np
import pytest

from oracles import periodic_numbers, suite_functions, verify_numbers
from walshframes import runner
from walshframes.errors import ConfigError
from walshframes.framekit import FrameAnalyzer, derive_generators
from walshframes.runner import (
    RunConfig,
    periodic_report,
    suite_blocks,
    verify_report,
)
from walshframes.stepfn import CELL_CAP, StepFunction

CONFIGS = os.path.abspath(
    os.path.join(os.path.dirname(__file__), "..", "configs"))
NAMES = ("fourier_q3", "haar_q2", "haar_q2_perturbed",
         "nonuniform_q2_N3_r1", "nonuniform_q2_N3_r5")
REL = 1e-12


def _config(name):
    return RunConfig.load(os.path.join(CONFIGS, f"{name}.cfg"))


def _width(rc, command):
    """The table width runner passes to suite_blocks for the command: the
    transform of a function for periodic, whose pairs each take one
    character sum of at most as many cells."""
    if command == "verify":
        gens = derive_generators(rc.sys, rc.cascade_iterations)
        return FrameAnalyzer(rc.sys, gens).table_width(rc.resolution, rc.j0, rc.j1)
    return rc.cfg.q ** rc.resolution


def _block_of(rc, command, functions):
    """A SUITE_BLOCK value that makes blocks of the given size."""
    return functions * max(rc.cfg.q ** rc.resolution, _width(rc, command))


def _sizes(count, block):
    return [block] * (count // block) + ([count % block] if count % block else [])


@pytest.fixture
def block_sizes(monkeypatch):
    """The size of every block runner draws."""
    sizes = []

    def spy(*args, **kwargs):
        for block in suite_blocks(*args, **kwargs):
            sizes.append(block.values.shape[0])
            yield block

    monkeypatch.setattr(runner, "suite_blocks", spy)
    return sizes


# ----------------------------------------------------------------- stream --

@pytest.mark.parametrize("count", [1, 3, 4, 5, 8, 9])
def test_blocks_are_the_one_at_a_time_stream(monkeypatch, count):
    rc = _config("fourier_q3")
    n = rc.cfg.q ** rc.resolution
    monkeypatch.setattr(runner, "SUITE_BLOCK", 4 * n)   # blocks of 4
    want = np.array([f.values for f in suite_functions(rc.cfg, rc.resolution,
                                                       count, rc.seed)])
    blocks = list(suite_blocks(rc.cfg, rc.resolution, count, rc.seed))
    assert [b.values.shape[0] for b in blocks] == _sizes(count, 4)
    assert all(b.resolution == rc.resolution and b.lo == 0 for b in blocks)
    assert np.array_equal(np.concatenate([b.values for b in blocks]), want)
    got = [f.values for f in runner.suite_functions(rc.cfg, rc.resolution,
                                                     count, rc.seed)]
    assert np.array_equal(np.array(got), want)


def test_default_blocks_are_the_one_at_a_time_stream():
    rc = _config("fourier_q3")
    n = rc.cfg.q ** rc.resolution
    size = runner.SUITE_BLOCK // n
    count = size + 3
    blocks = list(suite_blocks(rc.cfg, rc.resolution, count, rc.seed, n))
    assert [b.values.shape[0] for b in blocks] == [size, 3]
    want = np.array([f.values for f in suite_functions(rc.cfg, rc.resolution,
                                                       count, rc.seed)])
    assert np.array_equal(np.concatenate([b.values for b in blocks]), want)


def test_a_block_holds_at_least_one_function(monkeypatch):
    rc = _config("haar_q2")
    monkeypatch.setattr(runner, "SUITE_BLOCK", 1)
    blocks = list(suite_blocks(rc.cfg, rc.resolution, 3, rc.seed, CELL_CAP))
    assert [b.values.shape for b in blocks] == [(1, rc.cfg.q ** rc.resolution)] * 3


def test_a_width_past_the_cell_cap_is_refused_before_any_draw(monkeypatch):
    rc = _config("haar_q2")
    monkeypatch.setattr(np.random, "default_rng", None)
    with pytest.raises(ConfigError, match=str(CELL_CAP)):
        next(suite_blocks(rc.cfg, rc.resolution, 3, rc.seed, CELL_CAP + 1))


# ----------------------------------------------------------------- oracle --

def _close(got, want, scale):
    return abs(got - want) <= REL * max(abs(want), scale)


def _check_verify(report, want):
    scale = want["norm2"]
    for section, key in (("two_scale", "max_residual"),
                         ("two_scale", "max_projector_residual"),
                         ("frame_ratio", "max_abs_deviation")):
        assert _close(report[section][key], want[key], scale), (section, key)


def _check_periodic(report, want):
    scale = want["norm2"]
    scan = report["scaling_scan"]
    assert scan["all_finite"] is want["all_finite"]
    assert scan["max_J"] == want["max_J"]
    assert scan["first_function"]["J"] == want["first_function"]["J"]
    sums = scan["first_function"]["sums"]
    assert len(sums) == len(want["first_function"]["sums"])
    for got, expected in zip(sums, want["first_function"]["sums"]):
        assert _close(got, expected, scale)
    assert _close(report["two_scale_residuals"]["max_residual"],
                  want["max_residual"], scale)
    assert _close(report["tightness"]["max_residual"], want["max_tightness"], scale)
    assert _close(report["tightness"]["max_tail"], want["max_tail"], scale)


ORACLES = {name: {} for name in NAMES}


def _oracle(name, command, rc):
    if command not in ORACLES[name]:
        numbers = verify_numbers if command == "verify" else periodic_numbers
        ORACLES[name][command] = numbers(rc)
    return ORACLES[name][command]


@pytest.mark.parametrize("functions", [None, 7, 1])
@pytest.mark.parametrize("command", ["verify", "periodic"])
@pytest.mark.parametrize("name", NAMES)
def test_block_reports_match_one_at_a_time_loop(monkeypatch, block_sizes, name,
                                                command, functions):
    rc = _config(name)
    assert rc.count == 100
    if functions is None:
        # the default cap: one block of the 100 functions
        functions = runner.SUITE_BLOCK // _block_of(rc, command, 1)
    else:
        # 100 = 14 * 7 + 2, and 100 blocks of one
        monkeypatch.setattr(runner, "SUITE_BLOCK", _block_of(rc, command, functions))
    report = (verify_report if command == "verify" else periodic_report)(rc)
    assert block_sizes == _sizes(100, min(functions, 100))
    check = _check_verify if command == "verify" else _check_periodic
    check(report, _oracle(name, command, rc))


def test_a_long_scale_cap_keeps_whole_blocks(block_sizes):
    # each folded pair takes one character sum of at most q^k cells, so the
    # scale cap does not shrink the blocks: fourier_q3 at j_max = 39, the
    # last cap whose 3^j labels fit in 64 bits, checks its 100 functions in
    # blocks of SUITE_BLOCK // 3^4, not one at a time
    rc = dataclasses.replace(_config("fourier_q3"), j_max=39)
    assert rc.count == 100 and rc.resolution == 4
    report = periodic_report(rc)
    assert block_sizes == _sizes(100, min(runner.SUITE_BLOCK // 3 ** 4, 100))
    _check_periodic(report, periodic_numbers(rc))


@pytest.mark.parametrize("name", ["haar_q2", "fourier_q3"])
def test_block_reports_match_one_at_a_time_loop_below_scale_zero(monkeypatch,
                                                                block_sizes, name):
    # scales below 0 move f^'s window up, widening no table: the transform
    # of a function stays the widest one
    rc = dataclasses.replace(_config(name), j0=-2, count=10)
    width = _width(rc, "verify")
    assert width == rc.cfg.q ** rc.resolution
    monkeypatch.setattr(runner, "SUITE_BLOCK", 4 * width)
    _check_verify(verify_report(rc), verify_numbers(rc))
    assert block_sizes == [4, 4, 2]


@pytest.mark.parametrize("name", ["haar_q2", "fourier_q3", "nonuniform_q2_N3_r5"])
def test_block_energies_match_each_function_with_different_supports(name):
    # one function inside D, one reaching B^-1, one zero: the block scans the
    # translations of the union of the supports, and the rows only the wider
    # function needs give the others nothing
    rc = _config(name)
    q, k = rc.cfg.q, 2
    rng = np.random.default_rng(5)
    values = rng.standard_normal((3, q ** (k + 1))) + 1j * rng.standard_normal((3, q ** (k + 1)))
    values[0, q ** k:] = 0
    values[2] = 0
    block = StepFunction(rc.cfg, k, values, -1)
    assert block.support_ball() == -1
    analyzer = FrameAnalyzer(rc.sys, derive_generators(rc.sys, rc.cascade_iterations))
    got = analyzer.energies(block, 0, 3)
    assert [E.shape for E in got] == [(4, 3), (3, 3)]
    # the coefficient sums stay real: a complex total moves the ratio's roundoff
    assert [E.dtype for E in got] == [np.float64] * 2
    for i in range(3):
        f = StepFunction(rc.cfg, k, values[i], -1)
        want = analyzer.energies(f, 0, 3)
        scale = max(f.norm2(), 1.0)
        # S and W: scale by scale, the block's column i is function i's
        for E, (block_E, f_E) in enumerate(zip(got, want)):
            for j, energy in enumerate(f_E):
                assert _close(block_E[j, i], energy, scale), (i, E, j)


def test_oracle_comparison_catches_a_moved_number():
    rc = _config("haar_q2_perturbed")
    want = _oracle("haar_q2_perturbed", "verify", rc)
    report = verify_report(rc)
    _check_verify(report, want)
    report["two_scale"]["max_residual"] = want["max_residual"] + 0.5 * REL * want["norm2"]
    _check_verify(report, want)
    report["two_scale"]["max_residual"] = want["max_residual"] + 2 * REL * want["norm2"]
    with pytest.raises(AssertionError):
        _check_verify(report, want)


@pytest.mark.parametrize("name", NAMES)
def test_projector_residual_is_the_coefficient_residual(name):
    # <P f, f> is the sum of the squared coefficients, so the projector key
    # of a report is written from the coefficient residual, bit for bit
    two_scale = verify_report(_config(name))["two_scale"]
    assert two_scale["max_projector_residual"] == two_scale["max_residual"]


# ----------------------------------------------------------------- memory --

def _peak(report, rc):
    tracemalloc.start()
    try:
        report(rc)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# a few KiB for the interpreter's own bookkeeping of a longer loop
SLACK = 16 * 1024


@pytest.mark.parametrize("command", ["verify", "periodic"])
def test_report_peak_memory_does_not_grow_with_count(command):
    rc = _config("haar_q2")
    report = verify_report if command == "verify" else periodic_report
    width = max(rc.cfg.q ** rc.resolution, _width(rc, command))
    block = max(1, runner.SUITE_BLOCK // width)
    one = _peak(report, dataclasses.replace(rc, count=block))
    eight = _peak(report, dataclasses.replace(rc, count=8 * block))
    assert eight <= one + SLACK, (one, eight)
