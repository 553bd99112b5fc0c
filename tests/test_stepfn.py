"""Step function digit tables: operators, inner products, serialization."""

import io
import math
import os
import subprocess
import sys
import tracemalloc
from unittest import mock

import numpy as np
import oracles
import pytest
from hypothesis import given, settings, strategies as st
from oracles import (
    add,
    allclose,
    cells,
    chi,
    enumerate_reps,
    from_cells,
    indicator,
    modulate_table,
    mul,
    save_masks,
    shift,
)

from walshframes import stepfn
from walshframes.algebra import FieldConfig, FieldElement, SystemConfig, uindex
from walshframes.errors import InputDataError, ResolutionError
from walshframes.framekit import MASK_MAGIC, Mask, load_masks
from walshframes.harmonic import fast_inverse_transform, fast_transform
from walshframes.stepfn import (
    StepFunction,
    cell_digits,
    cell_index,
    digit_count,
    dilate,
    dump_csv,
    inner,
    load_csv,
    periodize,
    prune,
    refine,
    translate,
    unit_ball,
)

F2 = FieldConfig(2)
F3 = FieldConfig(3)
F4 = FieldConfig(2, 2, (1, 1, 1))


def random_step(cfg, resolution, rng, ball=0):
    """Dense random complex step function on B^ball at a given resolution."""
    n = cfg.q ** (resolution - ball)
    return StepFunction(cfg, resolution,
                        rng.standard_normal(n) + 1j * rng.standard_normal(n), ball)


# ----------------------------------------------------------- construction --

def test_indicator_and_unit_ball():
    one = unit_ball(F2)
    assert one.resolution == 0
    assert one.norm2() == 1.0
    cell = indicator(F2, 2, FieldElement(F2, {0: 1, 3: 1}))  # t^3 lies above res 2
    assert list(cells(cell)) == [FieldElement(F2, {0: 1})]


def test_constructor_rejects_non_canonical_rep():
    with pytest.raises(ValueError):
        from_cells(F2, 1, {FieldElement(F2, {1: 1}): 1.0})


def test_zero_amplitudes_dropped():
    f = from_cells(F2, 0, {F2.zero(): 0.0})
    assert not f.values.any()
    assert f.norm2() == 0.0


# -------------------------------------------------------------- operators --

def test_translate_moves_cells():
    f = translate(unit_ball(F2), uindex(F2, 1))
    assert list(cells(f)) == [uindex(F2, 1)]
    back = translate(f, -uindex(F2, 1))
    assert back == unit_ball(F2)


def test_translate_preserves_norm_exactly():
    rng = np.random.Generator(np.random.PCG64(7))
    f = random_step(F3, 3, rng)
    assert translate(f, uindex(F3, 4)).norm2() == f.norm2()


def test_modulate_haar_character():
    g = modulate_table(unit_ball(F2), uindex(F2, 1))
    assert g.resolution == 1
    assert cells(g)[F2.zero()] == pytest.approx(1.0)
    assert cells(g)[F2.monomial(1, 0)] == pytest.approx(-1.0)


def test_modulate_by_integral_element_is_identity():
    f = unit_ball(F2)
    assert modulate_table(f, F2.zero()) == f
    assert modulate_table(f, F2.monomial(1, 0)) == f  # chi trivial on D


def test_modulate_preserves_norm():
    rng = np.random.Generator(np.random.PCG64(8))
    f = random_step(F3, 2, rng)
    g = modulate_table(f, uindex(F3, 5))
    assert g.norm2() == pytest.approx(f.norm2(), abs=1e-12)


def test_dilate_fine_haar():
    sys = SystemConfig(F2, N=1, r=1)
    g = dilate(unit_ball(F2), sys, "fine")
    assert g.resolution == 1
    assert list(cells(g)) == [F2.zero()]
    assert cells(g)[F2.zero()] == pytest.approx(math.sqrt(2))


def test_dilate_with_nontrivial_unit():
    sys = SystemConfig(F3, N=2, r=1)  # nu = 2
    f = indicator(F3, 0, uindex(F3, 1))
    g = dilate(f, sys, "fine")
    assert g.resolution == 1
    assert list(cells(g)) == [FieldElement(F3, {0: 2})]
    assert cells(g)[FieldElement(F3, {0: 2})] == pytest.approx(math.sqrt(3))


def test_dilate_round_trip_and_isometry():
    rng = np.random.Generator(np.random.PCG64(9))
    for cfg, N in ((F2, 1), (F2, 3), (F3, 2)):
        sys = SystemConfig(cfg, N=N, r=1)
        f = random_step(cfg, 2, rng)
        g = dilate(f, sys, "fine")
        assert g.norm2() == pytest.approx(f.norm2(), rel=1e-12)  # unitary mode
        assert allclose(dilate(g, sys, "coarse"), f, 1e-12)


def test_dilate_qn_mode_amplitude():
    sys = SystemConfig(F2, N=3, r=1, normalization="qn")
    g = dilate(unit_ball(F2), sys, "fine")
    assert cells(g)[F2.zero()] == pytest.approx(math.sqrt(6))


def test_refine_preserves_norm_and_splits():
    rng = np.random.Generator(np.random.PCG64(10))
    f = random_step(F2, 1, rng)
    g = refine(f, 4)
    assert g.resolution == 4
    assert len(cells(g)) == len(cells(f)) * 2 ** 3
    assert g.norm2() == pytest.approx(f.norm2(), rel=1e-14)
    with pytest.raises(ResolutionError):
        refine(f, 0)


def test_inner_basic_values():
    assert inner(unit_ball(F2), unit_ball(F2)) == 1.0
    ball = indicator(F2, 1, F2.zero())  # 1_B
    assert inner(unit_ball(F2), ball) == pytest.approx(0.5)
    a = indicator(F2, 0, uindex(F2, 1))
    b = indicator(F2, 0, uindex(F2, 2))
    assert inner(a, b) == 0.0  # disjoint supports: exactly zero


def test_inner_matches_norm2():
    rng = np.random.Generator(np.random.PCG64(11))
    f = random_step(F4, 2, rng)
    assert inner(f, f) == pytest.approx(f.norm2(), rel=1e-14)
    assert f.norm2() == pytest.approx(
        sum(abs(v) ** 2 for v in cells(f).values()) * F4.q ** -2.0)


def test_inner_conjugate_symmetry_and_linearity():
    rng = np.random.Generator(np.random.PCG64(12))
    f = random_step(F3, 2, rng)
    g = random_step(F3, 3, rng)
    assert inner(f, g) == pytest.approx(inner(g, f).conjugate(), rel=1e-12)
    h = add(f, g.scale(2 - 1j))
    hh = inner(h, h)
    assert hh.real >= 0 and abs(hh.imag) < 1e-14
    assert inner(h, g) == pytest.approx(inner(f, g) + (2 - 1j) * inner(g, g), rel=1e-12)


def test_commutation_translate_modulate():
    # T_a E_b = conj(chi(b a)) E_b T_a
    rng = np.random.Generator(np.random.PCG64(13))
    for cfg in (F2, F3):
        f = random_step(cfg, 2, rng)
        for a, b in [(uindex(cfg, 1), uindex(cfg, 2)),
                     (cfg.monomial(1, 0), uindex(cfg, 3)),
                     (uindex(cfg, 2), uindex(cfg, 1) + cfg.monomial(1, 0))]:
            lhs = translate(modulate_table(f, b), a)
            rhs = modulate_table(translate(f, a), b).scale(chi(mul(b, a)).conjugate())
            assert allclose(lhs, rhs, 1e-12)


def test_support_ball():
    assert unit_ball(F2).support_ball() == 0
    assert indicator(F2, 1, F2.zero()).support_ball() == 1
    f = from_cells(F2, 0, {uindex(F2, 2): 1.0, F2.zero(): 2.0})
    assert f.support_ball() == -2
    assert from_cells(F2, 3, {}).support_ball() == 3


# ------------------------------------------------------------ serialization --

def test_csv_round_trip():
    rng = np.random.Generator(np.random.PCG64(14))
    for cfg in (F2, F4):
        f = random_step(cfg, 3, rng)
        buf = io.StringIO()
        dump_csv(f, buf)
        buf.seek(0)
        g = load_csv(buf)
        assert g == f  # exact: repr round-trip of doubles
        assert g.cfg == cfg


def test_csv_negative_exponent_reps():
    f = from_cells(F2, 1, {uindex(F2, 3): 1.5 - 2.5j})
    buf = io.StringIO()
    dump_csv(f, buf)
    buf.seek(0)
    assert load_csv(buf) == f


def test_csv_rows_in_table_order():
    # nonzero cells only, by table index: the digit at exponent 0 varies fastest
    f = StepFunction(F3, 1, [5, 2, 0, 1, 0, 0, 0, 0, 3], -1)
    buf = io.StringIO()
    dump_csv(f, buf)
    rows = [row.split(",")[:3] for row in buf.getvalue().splitlines()[2:]]
    assert rows == [["1", "", "5.0"], ["0", "1", "2.0"], ["-1", "1.0", "1.0"],
                    ["-1", "2.2", "3.0"]]


def test_csv_rejects_malformed_rows():
    buf = io.StringIO("# walshframes-stepfn v1 p=2 c=1 modulus=- resolution=1\n"
                      "lo,digits,re,im\n"
                      "0,1,notafloat,0\n")
    with pytest.raises(InputDataError) as err:
        load_csv(buf)
    assert "line 3" in str(err.value)


def test_csv_rejects_bad_header():
    buf = io.StringIO("lo,digits,re,im\n")
    with pytest.raises(InputDataError):
        load_csv(buf)


def one_cell_file(resolution, q):
    """A CSV with the zero cell only, over the prime field GF(q)."""
    return io.StringIO(f"# walshframes-stepfn v1 p={q} c=1 modulus=- "
                       f"resolution={resolution}\nlo,digits,re,im\n"
                       f"{resolution},,1.0,0.0\n")


@pytest.mark.parametrize("resolution, q", [
    (10 ** 30, 3),    # the measure q^-k underflows to 0.0
    (-2000, 3),       # q^2000 overflows
    (10 ** 400, 2),   # too large to convert to a float at all
    (1023, 2),        # 2^-1023 is subnormal
    (-1024, 2),       # 2^1024 overflows
    (645, 3),         # 3^-645 is subnormal
    (-647, 3),        # 3^647 overflows
    (1100, 2),        # 2^-1100 underflows to 0.0
])
def test_load_csv_refuses_resolution_without_normal_measure(resolution, q):
    new, old = _load_both(one_cell_file(resolution, q).getvalue(), stepfn.CSV_CHUNK)
    assert new == old
    assert new.startswith("line 1: resolution ")


@pytest.mark.parametrize("resolution, q", [(1022, 2), (-1023, 2), (644, 3),
                                           (-646, 3)])
def test_load_csv_accepts_resolution_with_normal_measure(resolution, q):
    f = load_csv(one_cell_file(resolution, q))
    assert (f.resolution, f.lo, f.values.tolist()) == (resolution, resolution, [1])
    assert _load_both(one_cell_file(resolution, q).getvalue(), stepfn.CSV_CHUNK)[1] == (
        resolution, resolution, f.values.tobytes())


# -------------------------------------------- CSV against the row oracles --

# GF(16) digits take two characters, GF(101) three and GF(1021) four; GF(9)
# has the explicit modulus z^2 + 1
CSV_FIELDS = (F2, F3, F4, FieldConfig(3, 2, (1, 0, 1)), FieldConfig(101), FieldConfig(1021),
              FieldConfig(2, 4, (1, 1, 0, 0, 1)))
# amplitudes whose repr is long, short, signed zero, subnormal or huge
SPECIAL = (0.0, -0.0, 1.0, -1.5, 1 / 3, 5e-324, 1e300, -2.5e-17, 1e16, 123456.0)
CSV_EXAMPLES = settings(max_examples=80, deadline=None, derandomize=True,
                        database=None)
# characters load_csv reads at a time: from less than a row (rows here run
# to about 60 characters) to a few rows, and the default
CHUNKS = (1, 3, 20, 150, stepfn.CSV_CHUNK)


@st.composite
def csv_functions(draw):
    """(step function, rng seed): windows of up to ~1,000 cells, about a third
    of them zero, the rest drawn from SPECIAL and standard normals."""
    cfg = draw(st.sampled_from(CSV_FIELDS))
    width = draw(st.integers(0, {2: 9, 3: 5, 4: 4, 9: 2, 16: 2, 101: 1, 1021: 1}[cfg.q]))
    k = draw(st.integers(-3, 4))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    n = cfg.q ** width
    pool = np.concatenate([SPECIAL, rng.standard_normal(8)])
    values = rng.choice(pool, n) + 1j * rng.choice(pool, n)
    values[rng.random(n) < 0.3] = 0
    return StepFunction(cfg, k, values, k - width), seed


def _oracle_text(f):
    buf = io.StringIO()
    oracles.dump_csv(f, buf)
    return buf.getvalue()


@pytest.mark.parametrize("cfg", CSV_FIELDS + (FieldConfig(2, 3, (1, 1, 0, 1)),), ids=repr)
def test_field_header_round_trips(cfg, tmp_path):
    """Each field's modulus spelling parses back to its tuple, and the CSV and
    mask file headers, written as ever, read back as the same field."""
    text = cfg.modulus_text
    assert (text is None) == (cfg.c == 1)
    assert text is None or tuple(int(d) for d in text.split(".")) == cfg.modulus
    assert FieldConfig.from_text(str(cfg.p), str(cfg.c), text) == cfg
    f = StepFunction(cfg, 1, np.arange(1, cfg.q + 1, dtype=complex))
    assert load_csv(io.StringIO(_oracle_text(f))).cfg == cfg
    buf = io.StringIO()
    dump_csv(f, buf)
    assert buf.getvalue() == _oracle_text(f)
    base = SystemConfig(cfg)
    path = tmp_path / "field.masks"
    save_masks(base.with_masks((Mask(base, {(0, 0): 1.0}),)), str(path))
    stated = [] if cfg.c == 1 else ["modulus = " + ".".join(map(str, cfg.modulus))]
    assert path.read_text().splitlines()[:3 + len(stated)] == [
        MASK_MAGIC, f"p = {cfg.p}", f"c = {cfg.c}", *stated]
    assert load_masks(str(path)).field == cfg


def test_block_norm2_matches_each_row_bit_for_bit():
    rng = np.random.default_rng(7)
    # the amplitudes of SPECIAL whose squares are finite
    pool = np.concatenate([[v for v in SPECIAL if abs(v) < 1e154], rng.standard_normal(8)])
    values = rng.choice(pool, (100, 81)) + 1j * rng.choice(pool, (100, 81))
    rows = np.array([StepFunction(F3, 4, v).norm2() for v in values])
    assert StepFunction(F3, 4, values).norm2().tobytes() == rows.tobytes()


def _load_both(text, chunk, open_src=None):
    """(stepfn.load_csv, oracles.load_csv) of text, or of the file that
    open_src() opens, reading CSV_CHUNK = chunk characters at a time: each
    the loaded (resolution, lo, table bytes) or the InputDataError message."""
    out = []
    for load in (load_csv, oracles.load_csv):
        try:
            with mock.patch.object(stepfn, "CSV_CHUNK", chunk), \
                    (open_src() if open_src else io.StringIO(text)) as src:
                g = load(src)
        except InputDataError as exc:
            out.append(str(exc))
        else:
            out.append((g.resolution, g.lo, g.values.tobytes()))
    return out


def test_accept_holds_a_bounded_working_set_per_row():
    # one full chunk of the 65,536-row GF(4) file, about 9,300 rows at 2^19
    # characters: _accept's arrays peak near 290 B per row beside the
    # chunk's bytes
    rng = np.random.default_rng(2026)
    n = 4 ** 8
    f = StepFunction(FieldConfig(2, 2, (1, 1, 1)), 8,
                     rng.standard_normal(n) + 1j * rng.standard_normal(n))
    buf = io.StringIO()
    dump_csv(f, buf)
    buf.seek(0)
    buf.readline()
    buf.readline()
    chunk = next(stepfn._chunks(buf))
    rows = chunk.tobytes().count(b"\n")
    cap = digit_count(4, stepfn.CELL_CAP) - 1
    assert stepfn._accept(chunk, 4, 8, cap) is not None   # and the tables are built
    tracemalloc.start()
    try:
        stepfn._accept(chunk, 4, 8, cap)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 310 * rows


def _shuffled(text, rng):
    """The file with its cell rows in random order, some written with leading
    zero digits below their valuation."""
    head, rows = text.splitlines()[:2], text.splitlines()[2:]
    out = []
    for i in rng.permutation(len(rows)):
        lo, digits, re, im = rows[i].split(",")
        pad = int(rng.integers(0, 3)) if rng.random() < 0.3 else 0
        if pad:
            digits = ".".join(["0"] * pad + ([digits] if digits else []))
            lo = str(int(lo) - pad)
        out.append(",".join((lo, digits, re, im)))
    return "\n".join(head + out) + "\n"


def _corrupt(row, kind, q):
    lo, digits, re, im = row.split(",")
    if kind == "extra field":
        return row + ",9"
    if kind == "missing field":
        return ",".join((lo, digits, re))
    if kind == "bad lo":
        return ",".join(("x" + lo, digits, re, im))
    if kind == "empty digit":
        return ",".join((str(int(lo) - 1), digits + ".", re, im))
    if kind == "spaced digit":   # int() accepts it: the row stays valid
        return ",".join((str(int(lo) - 1), " 0" + ("." + digits if digits else ""),
                         re, im))
    if kind == "bad re":
        return ",".join((lo, digits, "notafloat", im))
    if kind == "bad im":
        return ",".join((lo, digits, re, "1.0j"))
    if kind == "lo":
        return ",".join((str(int(lo) + 1), digits, re, im))
    if kind == "huge lo":
        return ",".join((str(10 ** 30), digits, re, im))
    if kind == "digit range":
        return ",".join((str(int(lo) - 1), f"{q}" + ("." + digits if digits else ""),
                         re, im))
    if kind == "negative digit":
        return ",".join((str(int(lo) - 1), "-1" + ("." + digits if digits else ""),
                         re, im))
    if kind == "huge digit":
        return ",".join((str(int(lo) - 1),
                         str(10 ** 30) + ("." + digits if digits else ""), re, im))
    if kind == "nan":
        return ",".join((lo, digits, "nan", im))
    if kind == "inf":
        return ",".join((lo, digits, re, "-inf"))
    if kind == "wide":
        return ",".join((str(int(lo) - 70), ".".join(["1"] + ["0"] * 69)
                         + ("." + digits if digits else ""), re, im))
    # the kinds below make a chunk that the byte scan refuses, read row by row
    if kind == "quoted digits":
        return ",".join((lo, f'"{digits}"', re, im))
    if kind == "quoted newline":   # a '"' opens im, and a line of '"' follows
        return ",".join((lo, digits, re, f'"{im}\n"'))
    if kind == "crlf":
        return row + "\r"
    if kind == "inner cr":   # float() would take a CR at the end of a field
        return ",".join((lo, digits + "\r", re, im))
    if kind == "whitespace line":
        return " \t"
    if kind == "blank line":
        return ""
    if kind == "nul":   # int() refuses it
        return ",".join((lo + "\0", digits, re, im))
    if kind == "underscored lo":   # int() accepts it: the row stays valid
        sign = "-" if lo.startswith("-") else ""
        return ",".join((sign + "0_" + lo.lstrip("-"), digits, re, im))
    raise ValueError(kind)


GRAMMAR_CORRUPTIONS = ("quoted digits", "quoted newline", "crlf", "inner cr",
                       "whitespace line", "blank line", "nul", "underscored lo")
CORRUPTIONS = ("extra field", "missing field", "bad lo", "empty digit",
               "spaced digit", "bad re", "bad im", "lo", "huge lo",
               "digit range", "negative digit", "huge digit", "nan", "inf",
               "wide", "duplicate") + GRAMMAR_CORRUPTIONS


@CSV_EXAMPLES
@given(csv_functions(), st.sampled_from((1, 2, 3, 7, 4096)))
def test_dump_csv_matches_row_writer(case, block):
    f, _ = case
    buf = io.StringIO()
    with mock.patch.object(stepfn, "CSV_BLOCK", block):
        dump_csv(f, buf)
    assert buf.getvalue() == _oracle_text(f)


@CSV_EXAMPLES
@given(csv_functions(), st.sampled_from(CHUNKS))
def test_load_csv_matches_row_reader(case, chunk):
    f, seed = case
    text = _shuffled(_oracle_text(f), np.random.default_rng(seed))
    new, old = _load_both(text, chunk)
    assert not isinstance(old, str)
    assert new == old


@CSV_EXAMPLES
@given(csv_functions(), st.sampled_from(CHUNKS),
       st.lists(st.sampled_from(CORRUPTIONS), min_size=1, max_size=3))
def test_load_csv_errors_match_row_reader(case, chunk, kinds):
    f, seed = case
    rng = np.random.default_rng(seed)
    lines = _shuffled(_oracle_text(f), rng).splitlines()
    rows = [i for i, line in enumerate(lines) if i >= 2 and line]
    if not rows:
        lines.append(f"{f.resolution},,1.0,0.0")
        rows = [len(lines) - 1]
    # each kind on its own row; a duplicate copies its row's cell to a later line
    targets = dict(zip(rng.permutation(rows).tolist(), kinds))
    copies = []
    for i, kind in targets.items():
        if kind == "duplicate":
            lo, digits, _, _ = lines[i].split(",")
            copies.append((int(rng.integers(i + 1, len(lines) + 1)),
                           f"{lo},{digits},2.0,-1.0"))
        else:
            lines[i] = _corrupt(lines[i], kind, f.cfg.q)
    for at, line in sorted(copies, reverse=True):
        lines.insert(at, line)
    new, old = _load_both("\n".join(lines) + "\n", chunk)
    assert new == old


@pytest.mark.parametrize("row", [
    "x,1,nan,0",                           # malformed before non-finite
    "0,7,1.0j,0",                          # malformed before digit range
    "9,x,1,0",                             # malformed before lo
    "5,7,nan,0",                           # lo before digit range
    "0,5,nan,0",                           # digit range before non-finite
    "-69," + ".".join(["1"] * 70) + ",inf,0",     # non-finite before cap
    "-69," + ".".join(["1"] * 69 + ["2"]) + ",1,0",   # digit range before cap
])
def test_load_csv_names_the_first_failing_check_of_a_row(row):
    text = ("# walshframes-stepfn v1 p=2 c=1 modulus=- resolution=1\n"
            f"lo,digits,re,im\n0,1,1.0,0.0\n{row}\n0,1,2.0,0.0\n")
    new, old = _load_both(text, stepfn.CSV_CHUNK)
    assert new == old
    assert new.startswith("line 4: ")


def _big_file():
    """A 6,000-row GF(2) file of about 2.25 chunks of CSV_CHUNK characters,
    lines[4500] in the second. Its rows come to about 295,000 characters as
    dump_csv writes them, and at most 4,500 of them cannot fill a larger
    chunk: each row's im field, 0.0, is written with as many more zeros as
    make the file CSV_CHUNK / 2^17 times as long."""
    rng = np.random.default_rng(77)
    f = StepFunction(F2, 3, rng.standard_normal(2 ** 13), -10)
    lines = _oracle_text(f).splitlines()[:6002]
    pad = "0" * (_offset(lines, 6002) * (stepfn.CSV_CHUNK - 2 ** 17) // 2 ** 17 // 6000)
    lines[2:] = [line + pad for line in lines[2:]]
    assert stepfn.CSV_CHUNK < _offset(lines, 4500) < 2 * stepfn.CSV_CHUNK < _offset(lines, 6002)
    return lines


def _offset(lines, i):
    """Characters of the lines after the column header before lines[i]."""
    return sum(len(line) + 1 for line in lines[2:i])


@pytest.mark.parametrize("kind", ["bad re", "lo", "wide", "nan", "extra field"])
def test_load_csv_reports_row_past_first_block(kind):
    lines = _big_file()
    lines[5000] = _corrupt(lines[5000], kind, 2)
    lines[5500] = _corrupt(lines[5500], "bad lo", 2)
    text = "\n".join(lines) + "\n"
    new, old = _load_both(text, stepfn.CSV_CHUNK)
    assert new == old
    assert new.startswith("line 5001: ")


@pytest.mark.parametrize("chunk", CHUNKS)
@pytest.mark.parametrize("kind", GRAMMAR_CORRUPTIONS)
def test_load_csv_reads_blocks_that_are_not_plain_row_by_row(kind, chunk):
    # the corrupted row holds the last character of the first read; a later
    # plain row must still name its error at its line number
    lines = _big_file()
    ends = np.cumsum([len(line) + 1 for line in lines[2:]])   # one past each row
    at = 2 + int(np.searchsorted(ends, chunk))
    lines = lines[:at + 50]
    lines[at] = _corrupt(lines[at], kind, 2)
    lines[at + 40] = _corrupt(lines[at + 40], "lo", 2)
    new, old = _load_both("\n".join(lines) + "\n", chunk)
    assert new == old
    assert isinstance(new, str)


@pytest.mark.parametrize("digits", [
    "", "0", "1.0.1", "0.0.0.1", "01.1", "0" * 17 + "1", "0" * 18 + "1", "1" * 18,
    "1..1", ".", "1.", ".1", "+1", "-0", " 1", "1_0", "\u0661", "1,0"])
def test_load_csv_reads_digit_strings_like_int(digits):
    # among plain rows, so that the digits are decoded from the chunk's bytes
    # unless the string itself needs int(); a quoted ',' is a fifth field, and
    # '_' and a non-ASCII digit, which int() reads, make the row malformed
    lo = 2 - (digits.count(".") + 1 if digits else 0)
    field = f'"{digits}"' if "," in digits else digits
    text = ("# walshframes-stepfn v1 p=2 c=1 modulus=- resolution=2\n"
            f"lo,digits,re,im\n1,1,1.0,0.0\n{lo},{field},2.0,0.5\n0,1.1,3.0,0.0\n")
    new, old = _load_both(text, stepfn.CSV_CHUNK)
    assert new == old


@pytest.mark.parametrize("field", range(4))
def test_load_csv_reads_a_lone_surrogate_as_a_malformed_row(field):
    # a file read with errors="surrogateescape" holds one for each byte that
    # is not UTF-8
    lines = _big_file()[:60]
    row = lines[20].split(",")
    row[field] += "\udcff"
    lines[20] = ",".join(row)
    new, old = _load_both("\n".join(lines) + "\n", 7)
    assert new == old
    assert new.startswith("line 21: malformed row")


def test_load_csv_reads_a_byte_that_is_not_utf8_as_a_malformed_row(tmp_path):
    path = tmp_path / "f.csv"
    path.write_bytes(b"# walshframes-stepfn v1 p=2 c=1 modulus=- resolution=1\n"
                     b"lo,digits,re,im\n0,1,1.0,0.0\n0,\xff,1.0,0.0\n")
    with pytest.raises(InputDataError, match="^line 4: malformed row"):
        load_csv(str(path))


def test_load_csv_reads_a_long_line_like_any_other():
    # 200,000 more digits of the im field, a row far longer than a read
    lines = _big_file()[:60]
    text = "\n".join(lines) + "\n"
    lines[20] += "0" * 200_000
    new, old = _load_both("\n".join(lines) + "\n", 7)
    assert new == old == _load_both(text, 7)[0]
    assert not isinstance(new, str)


def _boundary_case(kind):
    """(file text, chunk): the first read of chunk characters after the
    column header ends at the place that kind names."""
    if kind == "digit token":   # between the two characters of GF(16)'s 10
        f = StepFunction(CSV_FIELDS[-1], 2, np.arange(1, 257) * (1 + 0.5j), 0)
        lines = _oracle_text(f).splitlines()
        assert lines[12].startswith("1,10,")
        return "\n".join(lines) + "\n", _offset(lines, 12) + len("1,1")
    lines = _big_file()[:40]
    if kind == "row":
        return "\n".join(lines) + "\n", _offset(lines, 10) + 5
    if kind == "cr lf":
        lines[10] += "\r"
        return "\n".join(lines) + "\n", _offset(lines, 11) - 1
    if kind == "after the last row":   # which lacks its LF
        return "\n".join(lines), _offset(lines, 40) - 1
    if kind == "inside the last row":
        return "\n".join(lines), _offset(lines, 39) + 5
    raise ValueError(kind)


@pytest.mark.parametrize("kind", ["digit token", "row", "cr lf", "after the last row",
                                  "inside the last row"])
def test_load_csv_reads_across_a_chunk_boundary(kind):
    text, chunk = _boundary_case(kind)
    new, old = _load_both(text, chunk)
    assert new == old
    with mock.patch.object(stepfn, "CSV_CHUNK", chunk):
        assert _load_counting_checks(text) == (
            ("line 11: CR in line (lines end in LF alone)", 1) if kind == "cr lf"
            else (load_csv(io.StringIO(text)), 0))


@pytest.mark.parametrize("after", [False, True])
@pytest.mark.parametrize("char, message", [
    # two bytes in UTF-8, a digit to int() that the reader refuses, named whole
    ("\u0661", "line 13: malformed row (not a plain ASCII numeral: '\u0661')"),
    ("\udcff", "line 13: malformed row"),   # the byte 0xff, surrogate-escaped
])
def test_load_csv_reads_a_character_at_a_chunk_boundary(tmp_path, char, message, after):
    # the leading digit '1' of line 13 is replaced, just before or after a
    # read's end, in a file read from disk
    lines = _big_file()[:40]
    lo, digits, re, im = lines[12].split(",")
    lines[12] = ",".join((lo, char + digits[1:], re, im))
    path = tmp_path / "f.csv"
    path.write_bytes(("\n".join(lines) + "\n").encode("utf-8", "surrogateescape"))
    new, old = _load_both(None, _offset(lines, 12) + len(lo) + 1 + after, lambda: open(
        path, newline="", encoding="utf-8", errors="surrogateescape"))
    assert new == old
    assert new.startswith(message)


def test_load_csv_names_an_error_on_the_first_line_of_a_chunk():
    lines = _big_file()[:200]
    chunk = _offset(lines, 100)   # the second read starts at lines[100]
    lines[100] = _corrupt(lines[100], "bad re", 2)
    text = "\n".join(lines) + "\n"
    with mock.patch.object(stepfn, "CSV_CHUNK", chunk):
        new, checks = _load_counting_checks(text)
    assert checks == 1
    assert new == _load_both(text, chunk)[1]
    assert new.startswith("line 101: malformed row")


def test_load_csv_refuses_a_crlf_file_on_line_1():
    text = "\r\n".join(_big_file()[:3000]) + "\r\n"
    new, old = _load_both(text, stepfn.CSV_CHUNK)
    assert new == old == "line 1: CR in line (lines end in LF alone)"


@pytest.mark.parametrize("text, message", [
    ("\r\n", "line 2: CR in line"),
    ("lo,digits,re,im\r\n", "line 2: CR in line"),
    ("lo,digits,re,im\n0,1,1.0,0.0\r\n", "line 3: CR in line"),
    ("lo,digits,re,im\n0,1,1.0,0.0\n0,0,1.0,0.0\r", "line 4: CR in line"),
    ("lo,digits,re,im\n\n0,1,1.0,0.0\n", "line 3: expected 4 fields"),
    ('"lo","digits","re","im"\n0,1,1.0,0.0\n', "line 2: expected column header"),
    ("lo,digits,re,im", None),
    ("lo,digits,re,im\n0,1,1.0,0.0", None),
])
def test_load_csv_holds_to_the_line_grammar(text, message):
    # a CR on any line is refused, also on the header lines; the final LF
    # is optional
    new, old = _load_both("# walshframes-stepfn v1 p=2 c=1 modulus=- resolution=1\n"
                          + text, stepfn.CSV_CHUNK)
    assert new == old
    if message is None:
        assert not isinstance(new, str)
    else:
        assert new.startswith(message)


def test_full_size_csv_round_trip_is_byte_identical():
    # 65,536 rows over GF(4) at resolution 8: 16 blocks, each amplitude
    # part from SPECIAL or a standard normal, no zero cell
    rng = np.random.default_rng(2024)
    n = 4 ** 8
    values = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    values.real[:len(SPECIAL)] = SPECIAL
    f = StepFunction(FieldConfig(2, 2, (1, 1, 1)), 8, values)
    text = _oracle_text(f)
    assert text.count("\n") == n + 2 and n == 16 * stepfn.CSV_BLOCK
    g = load_csv(io.StringIO(text))
    buf = io.StringIO()
    dump_csv(g, buf)
    assert buf.getvalue() == text
    old = oracles.load_csv(io.StringIO(text))
    assert (g.resolution, g.lo) == (old.resolution, old.lo) == (8, 0)
    assert g.values.tobytes() == old.values.tobytes() == values.tobytes()


def test_load_csv_reports_duplicate_across_blocks():
    lines = _big_file()   # lines[4500] is in the second chunk
    lo, digits, _, _ = lines[10].split(",")
    lines[4500] = f"{lo},{digits},1.0,1.0"
    lines[5000] = _corrupt(lines[5000], "bad re", 2)
    new, old = _load_both("\n".join(lines) + "\n", stepfn.CSV_CHUNK)
    assert new == old == "line 4501: duplicate representative"


def _load_counting_checks(text):
    """(load_csv's result or InputDataError message, _check's call count)."""
    with mock.patch.object(stepfn, "_check", wraps=stepfn._check) as check:
        try:
            out = load_csv(io.StringIO(text))
        except InputDataError as exc:
            out = str(exc)
    return out, check.call_count


@CSV_EXAMPLES
@given(csv_functions(), st.sampled_from(CHUNKS))
def test_load_csv_accepts_every_block_dump_csv_writes(case, chunk):
    f, _ = case
    buf = io.StringIO()
    dump_csv(f, buf)
    with mock.patch.object(stepfn, "CSV_CHUNK", chunk):
        g, checks = _load_counting_checks(buf.getvalue())
    assert checks == 0
    assert g == f.window(g.lo)


def test_load_csv_accepts_the_full_size_file_without_row_checks():
    rng = np.random.default_rng(2025)
    n = 4 ** 8
    f = StepFunction(FieldConfig(2, 2, (1, 1, 1)), 8,
                     rng.standard_normal(n) + 1j * rng.standard_normal(n))
    buf = io.StringIO()
    dump_csv(f, buf)
    # and the decimal kernel reads every amplitude part: none goes to float()
    uncovered = []
    decimals = stepfn._decimals

    def count(*args):
        values, covered = decimals(*args)
        uncovered.append(int(np.count_nonzero(~covered)))
        return values, covered

    with mock.patch.object(stepfn, "_decimals", count):
        g, checks = _load_counting_checks(buf.getvalue())
    assert checks == 0
    assert g.values.tobytes() == f.values.tobytes()
    assert len(uncovered) > 1 and not any(uncovered)


@pytest.mark.parametrize("cfg, width", [(FieldConfig(11), 4), (CSV_FIELDS[-1], 4),
                                        (FieldConfig(101), 3), (FieldConfig(1021), 2)],
                         ids=repr)
@pytest.mark.parametrize("chunk", [150, stepfn.CSV_CHUNK])
def test_load_csv_accepts_multi_character_digits_in_every_place(cfg, width, chunk):
    # 400 cells of a window as wide as width digits, so that rows hold up to
    # width pieces of one to len(str(q - 1)) characters each; 101^3 and 1021^2
    # are the widest windows of their fields within CELL_CAP
    rng = np.random.default_rng(cfg.q)
    n = cfg.q ** width
    values = np.zeros(n, dtype=complex)
    values[rng.choice(n, 400, replace=False)] = rng.standard_normal(400) + 1j
    f = StepFunction(cfg, 1, values, 1 - width)
    text = _oracle_text(f)
    with mock.patch.object(stepfn, "CSV_CHUNK", chunk):
        g, checks = _load_counting_checks(text)
    assert checks == 0
    assert g == f.window(g.lo)
    assert _load_both(text, chunk)[1] == (g.resolution, g.lo, g.values.tobytes())


@pytest.mark.parametrize("q, digits, count", [
    (2, ".1", 1),               # an empty first digit
    (2, "1_0", 2),              # malformed, though int() reads 10
    (16, "100", 1),             # longer than the two characters of a GF(16) digit
    (16, "0007", 1),            # longer too, though int() reads it as 7
    (16, "1..2", 3),            # an empty digit
    (16, "1.0.0.0.0.0.0", 7),   # seven digits: the cell 16^6 is past the cap
    (101, ":", 1),              # ':' follows '9' but is no digit
])
def test_load_csv_gives_other_digit_spellings_to_the_line_checker(q, digits, count):
    # lo = resolution - count, count the digits the field has when read at
    # fixed columns, so that the digits field alone sends the row to _check,
    # which reads it as int() does
    cfg = {2: F2, 16: CSV_FIELDS[-1], 101: FieldConfig(101)}[q]
    row = f"{2 - count},{digits},1.0,0.0\n"
    assert stepfn._accept(row.encode(), q, 2, digit_count(q, stepfn.CELL_CAP) - 1) is None
    text = (f"# walshframes-stepfn v1 p={cfg.p} c={cfg.c} modulus={cfg.modulus_text or '-'} "
            f"resolution=2\nlo,digits,re,im\n{row}")
    new, old = _load_both(text, stepfn.CSV_CHUNK)
    assert new == old


def test_load_csv_memory_stays_bounded_on_a_wide_digits_field():
    # 2,000 rows in one chunk, one of them written with 100,000 zero digits
    # before its own: a window as wide as that field on every row of the
    # chunk would take 400 MB
    lines = _big_file()[:2000]
    lo, digits, re, im = lines[1000].split(",")
    lines[1000] = ",".join((str(int(lo) - 100_000), "0." * 100_000 + digits, re, im))
    text = "\n".join(lines) + "\n"
    tracemalloc.start()
    try:
        g = load_csv(io.StringIO(text))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert _load_both(text, stepfn.CSV_CHUNK)[1] == (g.resolution, g.lo, g.values.tobytes())
    assert peak < 8e6


# ------------------------------------------------ repr of amplitude parts --

def _kernel_lines(x):
    """',' and the characters dump_csv's kernel writes for each double of x,
    one line each, 8192 doubles per call as dump_csv passes them."""
    x = np.asarray(x, dtype=float)
    text = []
    for start in range(0, x.size, 8192):
        fields = stepfn._repr_fields(x[start:start + 8192])
        rows = np.concatenate((fields, np.full((len(fields), 1), ord("\n"), np.uint8)),
                              axis=1)
        text.append(rows[rows != 0].tobytes().decode("ascii"))
    return "".join(text)


def test_repr_tables_match_their_entry_by_entry_build():
    tables = stepfn._ReprTables()
    for name, table in oracles.repr_tables(tables).items():
        assert np.array_equal(getattr(tables, name), table), name


def _repr_lines(x):
    return "".join(f",{v!r}\n" for v in np.asarray(x, dtype=float).tolist())


def test_repr_kernel_matches_repr_on_random_bit_patterns():
    # every sign and exponent, and subnormals in their own draw
    rng = np.random.default_rng(20261020)
    bits = rng.integers(0, 2 ** 64, 2 ** 20, dtype=np.uint64)
    subnormal = rng.integers(1, 2 ** 52, 2 ** 16, dtype=np.uint64) \
        | rng.integers(0, 2, 2 ** 16, dtype=np.uint64) << np.uint64(63)
    x = np.concatenate((bits, subnormal)).view(float)
    x = x[np.isfinite(x)]
    assert x.size > 10 ** 6
    assert _kernel_lines(x) == _repr_lines(x)


def test_repr_kernel_matches_repr_at_powers_and_edges():
    powers = np.array([2.0 ** e for e in range(-1074, 1024)]
                      + [float(f"1e{e}") for e in range(-323, 309)])
    x = np.concatenate((powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf)))
    big = 2.0 ** 53
    edges = [0.0, 5e-324, sys.float_info.min, sys.float_info.max, big,
             np.nextafter(big, 0), np.nextafter(big, np.inf), 1e-4, 1e-5,
             1e16, 9999999999999998.0]
    x = np.concatenate((x, edges))
    x = np.concatenate((x, -x))
    x = x[np.isfinite(x)]
    assert _kernel_lines(x) == _repr_lines(x)
    # repr's two layout switches
    assert _kernel_lines([1e-4, 1e-5, 1e16, 9999999999999998.0, -0.0]) \
        == ",0.0001\n,1e-05\n,1e+16\n,9999999999999998.0\n,-0.0\n"


def test_full_size_transform_dumps_match_the_row_writer():
    # the forward and the inverse transform of a 65,536-cell GF(4) table
    rng = np.random.default_rng(8)
    n = 4 ** 8
    f = StepFunction(F4, 8, rng.standard_normal(n) + 1j * rng.standard_normal(n))
    g = fast_transform(f)
    for h in (g, fast_inverse_transform(g)):
        buf = io.StringIO()
        dump_csv(h, buf)
        assert buf.getvalue() == _oracle_text(h)


@pytest.mark.parametrize("value", [complex(math.nan, 0.0), complex(1.0, math.inf),
                                   complex(-math.inf, math.nan)])
def test_dump_csv_refuses_a_non_finite_amplitude_before_writing(tmp_path, value):
    f = StepFunction(F2, 1, [1.0, value])
    buf = io.StringIO()
    with pytest.raises(InputDataError, match="non-finite amplitude"):
        dump_csv(f, buf)
    assert buf.getvalue() == ""
    path = tmp_path / "f.csv"
    with pytest.raises(InputDataError, match="non-finite amplitude"):
        dump_csv(f, str(path))
    assert not path.exists()


def test_load_csv_names_the_first_blank_line():
    # the chunk that holds it is the only one read row by row
    lines = _big_file()
    for at in range(len(lines) - 1, 2, -1000):
        lines.insert(at, "")
    text = "\n".join(lines) + "\n"
    new, checks = _load_counting_checks(text)
    assert checks == 1
    assert new == _load_both(text, stepfn.CSV_CHUNK)[1]
    assert new == f"line {lines.index('', 2) + 1}: expected 4 fields lo,digits,re,im, got 1"


@pytest.mark.parametrize("kind", ["bad re", "lo", "huge digit", "nan", "wide",
                                  "extra field", "inner cr"])
def test_load_csv_checks_row_by_row_only_the_block_that_fails(kind):
    lines = _big_file()   # three chunks, the last not full
    lines[-3] = _corrupt(lines[-3], kind, 2)
    new, checks = _load_counting_checks("\n".join(lines) + "\n")
    assert checks == 1
    assert new == _load_both("\n".join(lines) + "\n", stepfn.CSV_CHUNK)[1]
    assert new.startswith(f"line {len(lines) - 2}: ")


# ------------------------------------------- decimals of amplitude parts --

def _token_bytes(tokens):
    """The byte array of the tokens, each between two ',', with the start
    and end of each as _read_doubles takes them."""
    raw = np.frombuffer(("," + ",".join(tokens) + ",").encode(errors="surrogatepass"),
                        np.uint8)
    at = np.flatnonzero(raw == ord(","))
    return raw, at[:-1] + 1, at[1:]


def _kernel_doubles(tokens):
    """(values, covered) of load_csv's decimal kernel on the tokens, 8192 at
    a time, about as many as a chunk holds."""
    parts = [stepfn._decimals(*_token_bytes(tokens[start:start + 8192]))
             for start in range(0, len(tokens), 8192)]
    return tuple(np.concatenate(part) for part in zip(*parts))


def _float_bits(tokens):
    return np.array([float(token) for token in tokens]).view(np.uint64)


def test_decimal_kernel_matches_float_on_random_bit_patterns():
    # every sign and exponent; repr writes each in the kernel's grammar, and
    # of them the kernel flags the subnormals alone
    rng = np.random.default_rng(20261021)
    x = rng.integers(0, 2 ** 64, 2 ** 20, dtype=np.uint64).view(float)
    x = x[np.isfinite(x)]
    assert x.size > 10 ** 6
    tokens = [repr(v) for v in x.tolist()]
    values, covered = _kernel_doubles(tokens)
    assert covered.tolist() == ((np.abs(x) >= sys.float_info.min) | (x == 0)).tolist()
    assert values[covered].tobytes() == x[covered].tobytes()
    flagged = [t for t, c in zip(tokens, covered.tolist()) if not c]
    assert stepfn._read_doubles(*_token_bytes(flagged)).tobytes() == x[~covered].tobytes()


def test_decimal_kernel_matches_float_at_powers_and_edges():
    # every power of two and of ten with both neighbours, through repr, and
    # spelled as integers and as 1e+n; both signs
    powers = np.array([2.0 ** e for e in range(-1074, 1024)]
                      + [float(f"1e{e}") for e in range(-323, 309)])
    x = np.concatenate((powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf)))
    x = x[np.isfinite(x)]
    tokens = [repr(v) for v in x.tolist()]
    tokens += [str(2 ** e + d) for e in range(64) for d in (-1, 0, 1) if 2 ** e + d < 10 ** 19]
    tokens += [str(10 ** e + d) for e in range(19) for d in (-1, 0, 1)]
    tokens += [f"1e{e:+03d}" for e in range(-345, 312)]
    # and 19-digit mantissas with exponents outside the kernel's table
    rng = np.random.default_rng(20261022)
    tokens += [f"{m}e{e:+04d}" for m, e in zip(
        rng.integers(10 ** 18, 10 ** 19, 4000, dtype=np.uint64).tolist(),
        rng.choice(np.r_[-999:-342, 309:1000], 4000).tolist())]
    n = len(tokens)
    tokens += ["-" + token for token in tokens]
    values, covered = _kernel_doubles(tokens)
    expect = _float_bits(tokens)
    assert values.view(np.uint64)[covered].tolist() == expect[covered].tolist()
    # flagged: subnormal, zero or infinite as float() reads it
    left = np.abs(expect[~covered].view(float))
    assert ((left < sys.float_info.min) | (left == math.inf)).all()
    # of the repr tokens, those of zero and of the normal doubles are covered
    normal = ((x >= sys.float_info.min) | (x == 0)).tolist()
    assert covered[:x.size].tolist() == covered[n:n + x.size].tolist() == normal


@pytest.mark.parametrize("token, covered", [
    ("9007199254740993", True),             # 2^53 + 1: a tie, to the even 2^53
    ("9007199254740995", True),             # a tie, to the even 2^53 + 4
    ("9007199254740993.0", True),
    ("1e+23", True),                        # just below a tie
    ("0.2694843964516557", True),           # the product with the low word of
    ("1.135141561875038e+300", True),       # 5^q carries into the bits kept
    ("-1.332947074748845e-300", True),
    ("1e23", False),                        # float() reads it; no sign after the e
    ("2.2250738585072011e-308", False),     # the largest subnormal
    ("2.2250738585072012e-308", False),     # rounds up to the smallest normal
    ("2.2250738585072014e-308", True),      # the smallest normal
    ("1234567890123456789", True),          # 19 significant digits
    ("9999999999999999999", True),
    ("12345678901234567890", False),        # 20
    ("0.00012345678901234567", True),       # 17 after leading zeros
    ("0000000000000000000000000001.5", True),
    ("1.0000000000000000000", False),       # trailing zeros count
    ("-0.0", True),
    ("0e+999", True),
    ("0.0", True),
    ("5e-324", False),                      # subnormal
    ("1.7976931348623157e+308", True),      # the largest double
    ("1.7976931348623158e+308", True),      # rounds down to it
    ("1.7976931348623159e+308", False),     # overflows
    ("1e+309", False),
    ("1e-343", False),                      # below the table
])
def test_decimal_kernel_at_its_edges(token, covered):
    values, flags = _kernel_doubles([token])
    assert flags.tolist() == [covered]
    expect = _float_bits([token])
    if covered:
        assert values.view(np.uint64).tolist() == expect.tolist()
    assert stepfn._read_doubles(*_token_bytes([token])).view(np.uint64).tolist() \
        == expect.tolist()


@pytest.mark.parametrize("token", [
    "1.2.3", "1..2", "1.2e+3.4", "1e+5.0", "1.e+5", "-.5", "--1", "-+1", "1-", "1e+",
    "e+5", "1e+-5", "1e+1234", "-", "", ".", "1E+5", "1e5", "+1.0", " 1.0", "1.0 ",
    "1_0.5", ".5", "5.", "١.٥", "infinity", "nan", "-inf", "0x1p3",
    "1.5\udcff", "1" * 40])
def test_decimal_kernel_leaves_other_spellings_to_float(token):
    # and float() reads each, or refuses it, by itself, except that '_' and
    # a non-ASCII digit, which float() reads, are refused before it
    assert _kernel_doubles([token])[1].tolist() == [False]
    read = _token_bytes([token])
    try:
        expect = float(token)
    except ValueError:
        expect = None
    if expect is None or token in ("1_0.5", "١.٥"):
        with pytest.raises(ValueError):
            stepfn._read_doubles(*read)
    else:
        assert stepfn._read_doubles(*read).tobytes() == np.float64(expect).tobytes()


def test_load_csv_refuses_a_decimal_past_the_largest_double():
    text = ("# walshframes-stepfn v1 p=2 c=1 modulus=- resolution=1\n"
            "lo,digits,re,im\n0,1,1.7976931348623157e+308,0.0\n"
            "0,0,1.0,1.7976931348623159e+308\n")
    new, old = _load_both(text, stepfn.CSV_CHUNK)
    assert new == old == "line 4: non-finite amplitude"


# spellings that the decimal kernel leaves to float(), which reads each; the
# readers refuse the two with '_' or a non-ASCII digit
OTHER_SPELLINGS = ("1E5", "+1.0", " 1.0", "1_0.5", ".5", "5.", "١.٥", "infinity")


@CSV_EXAMPLES
@given(csv_functions(), st.sampled_from(CHUNKS),
       st.lists(st.tuples(st.sampled_from(OTHER_SPELLINGS), st.sampled_from((2, 3))),
                min_size=1, max_size=4))
def test_load_csv_reads_other_spellings_like_the_row_reader(case, chunk, spellings):
    f, seed = case
    rng = np.random.default_rng(seed)
    lines = _oracle_text(f).splitlines()
    if len(lines) == 2:
        lines.append(f"{f.resolution},,1.0,0.0")
    for spelling, field in spellings:
        i = int(rng.integers(2, len(lines)))
        row = lines[i].split(",")
        row[field] = spelling
        lines[i] = ",".join(row)
    new, old = _load_both("\n".join(lines) + "\n", chunk)
    assert new == old


def test_import_and_verify_leave_the_decimal_tables_unbuilt():
    # the CSV kernels' tables are built on a CSV's first load or dump, inside
    # the command's work
    probe = ("import sys, walshframes\n"
             "from walshframes import cli, stepfn\n"
             "tables = (stepfn._decimal_tables, stepfn._repr_tables)\n"
             "built = [t.cache_info().currsize for t in tables]\n"
             "code = cli.main(['verify', '--config', sys.argv[1]])\n"
             "built += [t.cache_info().currsize for t in tables]\n"
             "sys.stderr.write(' '.join(map(str, built)) + '\\n')\n"
             "sys.exit(code)\n")
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(stepfn.__file__)))
    out = subprocess.run([sys.executable, "-c", probe, os.path.join(root, "configs", "haar_q2.cfg")],
                         env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stderr.split() == ["0"] * 4


# ------------------------------------------------------------- periodic type --

def test_periodic_from_complete_table():
    vals = np.array([1.0, 2.0, 3.0, 4.0], dtype=complex)
    f = StepFunction(F2, 2, vals)
    assert f.norm2() == pytest.approx((1 + 4 + 9 + 16) / 4)
    # index order: digit at exponent 0 is most significant
    one_hot = StepFunction(F2, 2, np.eye(4)[0b10])
    assert list(cells(one_hot)) == [F2.monomial(1, 0)]  # digits (1, 0) -> 1*t^0


def test_periodic_index_rep_round_trip():
    for idx in range(27):
        (rep,) = cells(StepFunction(F3, 3, np.eye(27)[idx]))
        assert rep == enumerate_reps(F3, 0, 3)[idx]
        assert from_cells(F3, 3, {rep: 1.0}).window(0).values.argmax() == idx


def test_periodic_refine_repeats():
    f = StepFunction(F2, 1, np.array([1.0, 2.0], dtype=complex))
    g = f.refine(3)
    assert g.resolution == 3
    assert list(g.values.real.astype(int)) == [1, 1, 1, 1, 2, 2, 2, 2]
    assert g.norm2() == pytest.approx(f.norm2())


def test_periodic_inner_mixed_resolution():
    rng = np.random.Generator(np.random.PCG64(15))
    a = StepFunction(F2, 2, rng.standard_normal(4) + 1j * rng.standard_normal(4))
    b = StepFunction(F2, 4, rng.standard_normal(16) + 1j * rng.standard_normal(16))
    direct = a.refine(4).inner(b)
    assert a.inner(b) == pytest.approx(direct, rel=1e-14)


def test_periodic_step_conversion():
    rng = np.random.Generator(np.random.PCG64(16))
    vals = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    f = StepFunction(F2, 3, vals)
    g = from_cells(F2, 3, cells(f))
    assert g.norm2() == pytest.approx(f.norm2(), rel=1e-14)
    assert allclose(g.window(0), f, 0)
    with pytest.raises(ValueError):
        from_cells(F2, 0, {uindex(F2, 1): 1.0}).window(0)  # support leaves D


def test_prune_drops_small_amplitudes():
    f = from_cells(F2, 1, {F2.zero(): 1.0, F2.monomial(1, 0): 1e-15})
    g = prune(f, 1e-14)
    assert cells(g) == {F2.zero(): 1.0}
    assert prune(f) == f
    with pytest.raises(ValueError):
        prune(f, -1.0)




# ------------------------------------------------------------ dense tables --

TABLE_FIELDS = (F2, F3, F4, FieldConfig(2, 3, (1, 1, 0, 1)), FieldConfig(3, 2, (1, 0, 1)))
# widest window per field: keeps the cell-dictionary oracles small
MAX_DIGITS = {2: 5, 3: 3, 4: 3, 8: 2, 9: 2}
EXAMPLES = settings(max_examples=60, deadline=None, derandomize=True,
                    database=None)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(TABLE_FIELDS), st.integers(-2, 1), st.integers(0, 3),
       st.integers(0, 2), st.integers(0, 2 ** 32 - 1))
def test_table_round_trip_against_index_of_rep(cfg, ball, digits, pad, seed):
    digits = min(digits, 2) if cfg.q > 4 else digits
    k = ball + digits
    rng = np.random.default_rng(seed)
    f = from_cells(cfg, k, {
        rep: complex(rng.standard_normal(), rng.standard_normal())
        for rep in enumerate_reps(cfg, ball, k) if rng.random() < 0.7})
    lo = f.support_ball()
    values = f.window(lo).values
    assert lo == f.support_ball()
    # a window padded below the support holds the same cells
    wide = f.window(lo - pad)
    assert wide.lo == lo - pad and wide.values.size == cfg.q ** (k - wide.lo)
    assert np.count_nonzero(wide.values) == len(cells(f))
    # cell i of the table is the i-th representative in digit order
    reps = enumerate_reps(cfg, wide.lo, k)
    for rep, v in cells(f).items():
        assert wide.values[reps.index(rep)] == v
    assert StepFunction(cfg, k, values, lo) == f
    assert StepFunction(cfg, k, wide.values, wide.lo) == f


def test_to_table_rejects_cells_outside_the_window():
    f = indicator(F3, 1, uindex(F3, 1))
    with pytest.raises(ValueError):
        f.window(0)
    assert f.window(-1).values.tolist() == [0, 0, 0, 1, 0, 0, 0, 0, 0]


@st.composite
def tables(draw, cfg=None):
    """A random step function over one of TABLE_FIELDS on a ball B^-2..B^1
    with up to 5 digits, dense or with about half of its cells zero."""
    cfg = cfg or draw(st.sampled_from(TABLE_FIELDS))
    ball = draw(st.integers(-2, 1))
    digits = draw(st.integers(0, MAX_DIGITS[cfg.q]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = cfg.q ** digits
    values = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    if draw(st.booleans()):
        values[rng.random(n) < 0.5] = 0
    return StepFunction(cfg, ball + digits, values, ball)


def elements(cfg):
    """Field elements with digits at exponents -2..1."""
    return st.lists(st.integers(0, cfg.q - 1), min_size=4, max_size=4).map(
        lambda ds: FieldElement(cfg, dict(zip(range(-2, 2), ds))))


@st.composite
def operands(draw):
    """(f, g, a, b, sys): two functions, two elements and a system with a
    random dilation unit, all over one field."""
    f = draw(tables())
    cfg = f.cfg
    sys = SystemConfig(cfg, N=1, r=1,
                       dilation_unit=draw(st.integers(1, cfg.q - 1)),
                       normalization=draw(st.sampled_from(("unitary", "qn"))))
    return f, draw(tables(cfg)), draw(elements(cfg)), draw(elements(cfg)), sys


@EXAMPLES
@given(operands(), st.integers(0, 2))
def test_table_operators_match_cell_oracles(ops, extra):
    f, g, a, b, sys = ops
    assert allclose(refine(f, f.resolution + extra),
        oracles.refine(f, f.resolution + extra), 1e-12)
    assert allclose(translate(f, a), oracles.translate(f, a), 1e-12)
    assert allclose(modulate_table(f, b), oracles.modulate(f, b), 1e-12)
    for direction in ("fine", "coarse"):
        assert allclose(dilate(f, sys, direction),
            oracles.dilate(f, sys, direction), 1e-12)
    assert abs(inner(f, g) - oracles.inner(f, g)) <= 1e-12
    assert allclose(periodize(f), oracles.periodize(f), 1e-12)
    # resolution and support ball as the cell dictionaries give them
    for got, want in ((translate(f, a), oracles.translate(f, a)),
                      (modulate_table(f, b), oracles.modulate(f, b))):
        assert (got.resolution, got.support_ball()) == \
            (want.resolution, want.support_ball())


@EXAMPLES
@given(operands())
def test_commutation_identities(ops):
    f, _, a, b, sys = ops
    # T_a E_b = chi(-ab) E_b T_a
    lhs = translate(modulate_table(f, b), a)
    rhs = modulate_table(translate(f, a), b).scale(chi(-mul(a, b)))
    assert allclose(lhs, rhs, 1e-12)
    # D T_a = T_(t nu^-1 a) D
    moved = shift(a.scale(f.cfg.gf_inv(sys.nu)), 1)
    assert allclose(dilate(translate(f, a), sys),
        translate(dilate(f, sys), moved), 1e-12)


# ------------------------------------------------------------ digit codec --

@EXAMPLES
@given(st.sampled_from(TABLE_FIELDS), st.integers(-3, 3), st.integers(0, 5),
       st.integers(0, 2 ** 32 - 1))
def test_cell_index_inverts_cell_digits(cfg, k, width, seed):
    q, lo = cfg.q, k - width
    rng = np.random.default_rng(seed)
    index = rng.integers(0, q ** width, size=7)
    digits = dict(cell_digits(q, index, k, lo))
    assert sorted(digits) == list(range(lo, k))
    assert all(((0 <= d) & (d < q)).all() for d in digits.values())
    # no digits (a one-cell window) leave index 0
    assert (cell_index(q, digits.items(), k) == index).all()
    out = np.zeros(index.size, dtype=np.int64)
    assert cell_index(q, digits.items(), k, out=out) is out
    assert out.tolist() == index.tolist()
    # one int at a time, through the cell's representative
    for i in index.tolist():
        rep = FieldElement(cfg, dict(cell_digits(q, i, k, lo)))
        assert cell_index(q, rep.terms, k) == i
        assert cell_index(q, cell_digits(q, i, k, lo), k) == i
    # digits given sparsely: zeros may be left out
    sparse = [(e, d[0]) for e, d in digits.items() if d[0]]
    assert cell_index(q, sparse, k) == index[0]


@EXAMPLES
@given(st.sampled_from(TABLE_FIELDS), st.integers(0, 10 ** 5))
def test_cell_of_u_n_has_index_n_at_resolution_0(cfg, n):
    q = cfg.q
    u = uindex(cfg, n)
    assert cell_index(q, u.terms, 0) == n
    width = digit_count(q, n)
    assert FieldElement(cfg, dict(cell_digits(q, n, 0, -width))) == u
    assert from_cells(cfg, 0, {u: 1.0}).values[n] == 1


@EXAMPLES
@given(tables())
def test_digit_count_agrees_with_support_ball(f):
    q, k = f.cfg.q, f.resolution
    nonzero = np.flatnonzero(f.values)
    counts = digit_count(q, nonzero)
    assert counts.tolist() == [digit_count(q, int(i)) for i in nonzero]
    assert f.support_ball() == k - int(counts.max(initial=0))
    # the smallest ball is the smallest window that still holds f
    l = f.support_ball()
    assert f.window(l) == f
    if l < k:
        with pytest.raises(ValueError):
            f.window(l + 1)
    # a count is the exponents from the leading nonzero digit to k
    for i, count in zip(nonzero.tolist(), counts.tolist()):
        rep = FieldElement(f.cfg, dict(cell_digits(q, i, k, f.lo)))
        assert count == (k - rep.valuation() if i else 0)


@pytest.mark.parametrize("cfg", TABLE_FIELDS, ids=repr)
def test_field_array_tables_match_scalar_arithmetic(cfg):
    q = cfg.q
    assert cfg.add_table.shape == cfg.mul_table.shape == (q, q)
    for a in range(q):
        for b in range(q):
            assert cfg.add_table[a, b] == cfg.gf_add(a, b)
            assert cfg.mul_table[a, b] == cfg.gf_mul(a, b)
    for table in (cfg.add_table, cfg.mul_table, cfg.root_table):
        with pytest.raises(ValueError):
            table[0] = 1
