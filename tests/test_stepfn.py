"""Step function digit tables: operators, inner products, serialization."""

import io
import math
from unittest import mock

import numpy as np
import oracles
import pytest
from hypothesis import given, settings, strategies as st
from oracles import enumerate_reps

from walshframes import stepfn
from walshframes.algebra import FieldConfig, FieldElement, SystemConfig, chi, uindex
from walshframes.errors import InputDataError, ResolutionError
from walshframes.stepfn import (
    StepFunction,
    cell_digits,
    cell_index,
    digit_count,
    dilate,
    dump_csv,
    from_cells,
    indicator,
    inner,
    load_csv,
    modulate,
    periodize,
    prune,
    refine,
    translate,
    unit_ball,
)

F2 = FieldConfig(2)
F3 = FieldConfig(3)
F4 = FieldConfig(2, 2)


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
    cell = indicator(F2, 2, F2.element({0: 1, 3: 1}))  # t^3 lies above res 2
    assert list(cell.cells) == [F2.element({0: 1})]


def test_constructor_rejects_non_canonical_rep():
    with pytest.raises(ValueError):
        from_cells(F2, 1, {F2.element({1: 1}): 1.0})


def test_zero_amplitudes_dropped():
    f = from_cells(F2, 0, {F2.zero(): 0.0})
    assert f.is_zero
    assert f.norm2() == 0.0


# -------------------------------------------------------------- operators --

def test_translate_moves_cells():
    f = translate(unit_ball(F2), uindex(F2, 1))
    assert list(f.cells) == [uindex(F2, 1)]
    back = translate(f, -uindex(F2, 1))
    assert back == unit_ball(F2)


def test_translate_preserves_norm_exactly():
    rng = np.random.Generator(np.random.PCG64(7))
    f = random_step(F3, 3, rng)
    assert translate(f, uindex(F3, 4)).norm2() == f.norm2()


def test_modulate_haar_character():
    g = modulate(unit_ball(F2), uindex(F2, 1))
    assert g.resolution == 1
    assert g.cells[F2.zero()] == pytest.approx(1.0)
    assert g.cells[F2.one()] == pytest.approx(-1.0)


def test_modulate_by_integral_element_is_identity():
    f = unit_ball(F2)
    assert modulate(f, F2.zero()) == f
    assert modulate(f, F2.one()) == f  # chi trivial on D


def test_modulate_preserves_norm():
    rng = np.random.Generator(np.random.PCG64(8))
    f = random_step(F3, 2, rng)
    g = modulate(f, uindex(F3, 5))
    assert g.norm2() == pytest.approx(f.norm2(), abs=1e-12)


def test_dilate_fine_haar():
    sys = SystemConfig(F2, N=1, r=1)
    g = dilate(unit_ball(F2), sys, "fine")
    assert g.resolution == 1
    assert list(g.cells) == [F2.zero()]
    assert g.cells[F2.zero()] == pytest.approx(math.sqrt(2))


def test_dilate_with_nontrivial_unit():
    sys = SystemConfig(F3, N=2, r=1)  # nu = 2
    f = indicator(F3, 0, uindex(F3, 1))
    g = dilate(f, sys, "fine")
    assert g.resolution == 1
    assert list(g.cells) == [F3.element({0: 2})]
    assert g.cells[F3.element({0: 2})] == pytest.approx(math.sqrt(3))


def test_dilate_round_trip_and_isometry():
    rng = np.random.Generator(np.random.PCG64(9))
    for cfg, N in ((F2, 1), (F2, 3), (F3, 2)):
        sys = SystemConfig(cfg, N=N, r=1)
        f = random_step(cfg, 2, rng)
        g = dilate(f, sys, "fine")
        assert g.norm2() == pytest.approx(f.norm2(), rel=1e-12)  # unitary mode
        assert dilate(g, sys, "coarse").allclose(f, 1e-12)


def test_dilate_qn_mode_amplitude():
    sys = SystemConfig(F2, N=3, r=1, normalization="qn")
    g = dilate(unit_ball(F2), sys, "fine")
    assert g.cells[F2.zero()] == pytest.approx(math.sqrt(6))


def test_refine_preserves_norm_and_splits():
    rng = np.random.Generator(np.random.PCG64(10))
    f = random_step(F2, 1, rng)
    g = refine(f, 4)
    assert g.resolution == 4
    assert len(g.cells) == len(f.cells) * 2 ** 3
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
        sum(abs(v) ** 2 for v in f.cells.values()) * F4.q ** -2.0)


def test_inner_conjugate_symmetry_and_linearity():
    rng = np.random.Generator(np.random.PCG64(12))
    f = random_step(F3, 2, rng)
    g = random_step(F3, 3, rng)
    assert inner(f, g) == pytest.approx(inner(g, f).conjugate(), rel=1e-12)
    h = f + g.scale(2 - 1j)
    hh = inner(h, h)
    assert hh.real >= 0 and abs(hh.imag) < 1e-14
    assert inner(h, g) == pytest.approx(inner(f, g) + (2 - 1j) * inner(g, g), rel=1e-12)


def test_commutation_translate_modulate():
    # T_a E_b = conj(chi(b a)) E_b T_a
    rng = np.random.Generator(np.random.PCG64(13))
    for cfg in (F2, F3):
        f = random_step(cfg, 2, rng)
        for a, b in [(uindex(cfg, 1), uindex(cfg, 2)),
                     (cfg.one(), uindex(cfg, 3)),
                     (uindex(cfg, 2), uindex(cfg, 1) + cfg.one())]:
            lhs = translate(modulate(f, b), a)
            rhs = modulate(translate(f, a), b).scale(chi(b * a).conjugate())
            assert lhs.allclose(rhs, 1e-12)


def test_support_ball():
    assert unit_ball(F2).support_ball() == 0
    assert indicator(F2, 1, F2.zero()).support_ball() == 1
    f = from_cells(F2, 0, {uindex(F2, 2): 1.0, F2.zero(): 2.0})
    assert f.support_ball() == -2
    assert from_cells(F2, 3, {}).support_ball() == 3


def test_add_refines_to_common_resolution():
    f = unit_ball(F2)
    g = indicator(F2, 1, F2.one()).scale(3.0)
    h = f + g
    assert h.resolution == 1
    assert h.cells[F2.one()] == pytest.approx(4.0)
    assert h.cells[F2.zero()] == pytest.approx(1.0)


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
])
def test_load_csv_refuses_resolution_without_normal_measure(resolution, q):
    with pytest.raises(InputDataError, match=r"^line 1: resolution "):
        load_csv(one_cell_file(resolution, q))


@pytest.mark.parametrize("resolution, q", [(1022, 2), (-1023, 2), (644, 3),
                                           (-646, 3)])
def test_load_csv_accepts_resolution_with_normal_measure(resolution, q):
    f = load_csv(one_cell_file(resolution, q))
    assert (f.resolution, f.lo, f.values.tolist()) == (resolution, resolution, [1])


# -------------------------------------------- CSV against the row oracles --

# GF(16) digits take two characters; GF(9) has the explicit modulus z^2 + 1
CSV_FIELDS = (F2, F3, F4, FieldConfig(3, 2, (1, 0, 1)),
              FieldConfig(2, 4, (1, 1, 0, 0, 1)))
# amplitudes whose repr is long, short, signed zero, subnormal or huge
SPECIAL = (0.0, -0.0, 1.0, -1.5, 1 / 3, 5e-324, 1e300, -2.5e-17, 1e16, 123456.0)
CSV_EXAMPLES = settings(max_examples=80, deadline=None, derandomize=True,
                        database=None)


@st.composite
def csv_functions(draw):
    """(step function, rng seed): windows of up to ~600 cells, about a third
    of them zero, the rest drawn from SPECIAL and standard normals."""
    cfg = draw(st.sampled_from(CSV_FIELDS))
    width = draw(st.integers(0, {2: 9, 3: 5, 4: 4, 9: 2, 16: 2}[cfg.q]))
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


def _load_both(text, block):
    """(stepfn.load_csv, oracles.load_csv) of text: each the loaded
    (resolution, lo, table bytes) or the InputDataError message."""
    out = []
    for load in (load_csv, oracles.load_csv):
        try:
            with mock.patch.object(stepfn, "CSV_BLOCK", block):
                g = load(io.StringIO(text))
        except InputDataError as exc:
            out.append(str(exc))
        else:
            out.append((g.resolution, g.lo, g.values.tobytes()))
    return out


def _shuffled(text, rng):
    """The file with its cell rows in random order, some written with leading
    zero digits below their valuation and some blank lines between them."""
    head, rows = text.splitlines()[:2], text.splitlines()[2:]
    out = []
    for i in rng.permutation(len(rows)):
        lo, digits, re, im = rows[i].split(",")
        pad = int(rng.integers(0, 3)) if rng.random() < 0.3 else 0
        if pad:
            digits = ".".join(["0"] * pad + ([digits] if digits else []))
            lo = str(int(lo) - pad)
        out.append(",".join((lo, digits, re, im)))
        if rng.random() < 0.05:
            out.append("")
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
    # the kinds below make a block that is not plain, read by csv.reader
    if kind == "quoted digits":
        return ",".join((lo, f'"{digits}"', re, im))
    if kind == "quoted newline":   # one record on two lines; float() strips the newline
        return ",".join((lo, digits, re, f'"{im}\n"'))
    if kind == "crlf":
        return row + "\r"
    if kind == "inner cr":   # csv refuses a CR inside an unquoted field
        return ",".join((lo, digits + "\r", re, im))
    if kind == "whitespace line":
        return " \t"
    if kind == "nul":   # csv refuses it before Python 3.11, int() after
        return ",".join((lo + "\0", digits, re, im))
    if kind == "underscored lo":   # int() accepts it: the row stays valid
        sign = "-" if lo.startswith("-") else ""
        return ",".join((sign + "0_" + lo.lstrip("-"), digits, re, im))
    raise ValueError(kind)


READER_CORRUPTIONS = ("quoted digits", "quoted newline", "crlf", "inner cr",
                      "whitespace line", "nul", "underscored lo")
CORRUPTIONS = ("extra field", "missing field", "bad lo", "empty digit",
               "spaced digit", "bad re", "bad im", "lo", "huge lo",
               "digit range", "negative digit", "huge digit", "nan", "inf",
               "wide", "duplicate") + READER_CORRUPTIONS


@CSV_EXAMPLES
@given(csv_functions(), st.sampled_from((1, 2, 3, 7, 4096)))
def test_dump_csv_matches_row_writer(case, block):
    f, _ = case
    buf = io.StringIO()
    with mock.patch.object(stepfn, "CSV_BLOCK", block):
        dump_csv(f, buf)
    assert buf.getvalue() == _oracle_text(f)


@CSV_EXAMPLES
@given(csv_functions(), st.sampled_from((1, 2, 3, 7, 4096)))
def test_load_csv_matches_row_reader(case, block):
    f, seed = case
    text = _shuffled(_oracle_text(f), np.random.default_rng(seed))
    new, old = _load_both(text, block)
    assert not isinstance(old, str)
    assert new == old


@CSV_EXAMPLES
@given(csv_functions(), st.sampled_from((1, 2, 3, 7, 4096)),
       st.lists(st.sampled_from(CORRUPTIONS), min_size=1, max_size=3))
def test_load_csv_errors_match_row_reader(case, block, kinds):
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
    new, old = _load_both("\n".join(lines) + "\n", block)
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
    new, old = _load_both(text, stepfn.CSV_BLOCK)
    assert new == old
    assert new.startswith("line 4: ")


def _big_file():
    """A 6,000-row GF(2) file: past the first block of CSV_BLOCK rows."""
    rng = np.random.default_rng(77)
    f = StepFunction(F2, 3, rng.standard_normal(2 ** 13), -10)
    lines = _oracle_text(f).splitlines()[:6002]
    assert stepfn.CSV_BLOCK < len(lines) - 2
    return lines


@pytest.mark.parametrize("kind", ["bad re", "lo", "wide", "nan", "extra field"])
def test_load_csv_reports_row_past_first_block(kind):
    lines = _big_file()
    lines[5000] = _corrupt(lines[5000], kind, 2)
    lines[5500] = _corrupt(lines[5500], "bad lo", 2)
    text = "\n".join(lines) + "\n"
    new, old = _load_both(text, stepfn.CSV_BLOCK)
    assert new == old
    assert new.startswith("line 5001: ")


@pytest.mark.parametrize("block", [1, 2, 3, 7, 4096])
@pytest.mark.parametrize("kind", READER_CORRUPTIONS)
def test_load_csv_hands_blocks_that_are_not_plain_to_the_reader(kind, block):
    # the first corrupted row ends the block of raw lines it starts in, so a
    # quoted newline runs across a block boundary; a later plain row must
    # still name its error at its record number
    lines = _big_file()[:block + 50]
    lines[block + 1] = _corrupt(lines[block + 1], kind, 2)
    lines[block + 40] = _corrupt(lines[block + 40], "lo", 2)
    new, old = _load_both("\n".join(lines) + "\n", block)
    assert new == old
    assert isinstance(new, str)


@pytest.mark.parametrize("digits", [
    "", "0", "1.0.1", "0.0.0.1", "01.1", "0" * 17 + "1", "0" * 18 + "1", "1" * 18,
    "1..1", ".", "1.", ".1", "+1", "-0", " 1", "1_0", "\u0661", "1,0"])
def test_load_csv_reads_digit_strings_like_int(digits):
    # among plain rows, so that the digits are decoded from the block's bytes
    # unless the string itself needs int()
    lo = 2 - (digits.count(".") + 1 if digits else 0)
    field = f'"{digits}"' if "," in digits else digits
    text = ("# walshframes-stepfn v1 p=2 c=1 modulus=- resolution=2\n"
            f"lo,digits,re,im\n1,1,1.0,0.0\n{lo},{field},2.0,0.5\n0,1.1,3.0,0.0\n")
    new, old = _load_both(text, stepfn.CSV_BLOCK)
    assert new == old


@pytest.mark.parametrize("field", range(4))
def test_load_csv_reads_a_lone_surrogate_like_the_reader(field):
    # a file read with errors="surrogateescape" holds one for each byte that
    # is not UTF-8
    lines = _big_file()[:60]
    row = lines[20].split(",")
    row[field] += "\udcff"
    lines[20] = ",".join(row)
    new, old = _load_both("\n".join(lines) + "\n", 7)
    assert new == old
    assert new.startswith("line 21: malformed row")


def test_load_csv_reports_a_record_the_reader_refuses_like_the_row_reader():
    lines = _big_file()[:60]
    lines[20] += "0" * 200_000   # a field past csv.field_size_limit()
    new, old = _load_both("\n".join(lines) + "\n", 7)
    assert new == old
    assert new.startswith("line 21: field larger than field limit")


def test_load_csv_reads_crlf_file_like_the_reader():
    text = "\r\n".join(_big_file()[:3000]) + "\r\n"
    new, old = _load_both(text, stepfn.CSV_BLOCK)
    assert new == old
    assert not isinstance(new, str)


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
    lines = _big_file()
    lo, digits, _, _ = lines[10].split(",")
    lines[4500] = f"{lo},{digits},1.0,1.0"
    lines[5000] = _corrupt(lines[5000], "bad re", 2)
    new, old = _load_both("\n".join(lines) + "\n", stepfn.CSV_BLOCK)
    assert new == old == "line 4501: duplicate representative"


# ------------------------------------------------------------- periodic type --

def test_periodic_from_complete_table():
    vals = np.array([1.0, 2.0, 3.0, 4.0], dtype=complex)
    f = StepFunction(F2, 2, vals)
    assert f.norm2() == pytest.approx((1 + 4 + 9 + 16) / 4)
    # index order: digit at exponent 0 is most significant
    one_hot = StepFunction(F2, 2, np.eye(4)[0b10])
    assert list(one_hot.cells) == [F2.one()]  # digits (1, 0) -> 1*t^0


def test_periodic_index_rep_round_trip():
    for idx in range(27):
        (rep,) = StepFunction(F3, 3, np.eye(27)[idx]).cells
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
    g = from_cells(F2, 3, f.cells)
    assert g.norm2() == pytest.approx(f.norm2(), rel=1e-14)
    assert g.window(0).allclose(f, 0)
    with pytest.raises(ValueError):
        from_cells(F2, 0, {uindex(F2, 1): 1.0}).window(0)  # support leaves D


def test_prune_drops_small_amplitudes():
    f = from_cells(F2, 1, {F2.zero(): 1.0, F2.one(): 1e-15})
    g = prune(f, 1e-14)
    assert g.cells == {F2.zero(): 1.0}
    assert prune(f) == f
    with pytest.raises(ValueError):
        prune(f, -1.0)




# ------------------------------------------------------------ dense tables --

TABLE_FIELDS = (F2, F3, F4, FieldConfig(2, 3), FieldConfig(3, 2, (1, 0, 1)))
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
    assert np.count_nonzero(wide.values) == len(f.cells)
    # cell i of the table is the i-th representative in digit order
    reps = enumerate_reps(cfg, wide.lo, k)
    for rep, v in f.cells.items():
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
        lambda ds: cfg.element(dict(zip(range(-2, 2), ds))))


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
    assert refine(f, f.resolution + extra).allclose(
        oracles.refine(f, f.resolution + extra), 1e-12)
    assert translate(f, a).allclose(oracles.translate(f, a), 1e-12)
    assert modulate(f, b).allclose(oracles.modulate(f, b), 1e-12)
    for direction in ("fine", "coarse"):
        assert dilate(f, sys, direction).allclose(
            oracles.dilate(f, sys, direction), 1e-12)
    assert abs(inner(f, g) - oracles.inner(f, g)) <= 1e-12
    assert periodize(f).allclose(oracles.periodize(f), 1e-12)
    # resolution and support ball as the cell dictionaries give them
    for got, want in ((translate(f, a), oracles.translate(f, a)),
                      (modulate(f, b), oracles.modulate(f, b))):
        assert (got.resolution, got.support_ball()) == \
            (want.resolution, want.support_ball())


@EXAMPLES
@given(operands())
def test_commutation_identities(ops):
    f, _, a, b, sys = ops
    # T_a E_b = chi(-ab) E_b T_a
    lhs = translate(modulate(f, b), a)
    rhs = modulate(translate(f, a), b).scale(chi(-(a * b)))
    assert lhs.allclose(rhs, 1e-12)
    # D T_a = T_(t nu^-1 a) D
    moved = a.scale(f.cfg.gf_inv(sys.nu)).shift(1)
    assert dilate(translate(f, a), sys).allclose(
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
    assert cfg.root_table.tolist() == list(cfg.roots)
    for table in (cfg.add_table, cfg.mul_table, cfg.root_table):
        with pytest.raises(ValueError):
            table[0] = 1
