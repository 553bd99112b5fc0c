import json
import os

import numpy as np
import pytest

from walshframes.algebra import FieldConfig
from walshframes.cli import main
from walshframes.errors import ConfigError
from walshframes.framekit import FrameAnalyzer, derive_generators
from walshframes.periodic import PeriodicSystemSpec, periodic_tightness_check
from walshframes.runner import RunConfig, _table_digits, suite_functions
from walshframes.stepfn import CELL_CAP, dump_csv, from_cells, load_csv

CONFIGS = os.path.abspath(
    os.path.join(os.path.dirname(__file__), "..", "configs"))


def write_cfg(tmp_path, masks_name, p, body=None, name="run.cfg"):
    masks = os.path.join(CONFIGS, masks_name)
    if body is None:
        body = f"""[field]
p = {p}

[masks]
file = {masks}

[scales]
j0 = 0
j1 = 3
j_max = 3

[suite]
seed = 911
count = 10
resolution = 3
"""
    path = tmp_path / name
    path.write_text(body)
    return str(path)


def run(args):
    return main(args)


def load_report(path):
    with open(path) as fh:
        return json.load(fh)


# ------------------------------------------------------------ verify --

def test_verify_haar_passes(tmp_path):
    cfg = write_cfg(tmp_path, "haar_q2.masks", 2)
    out = str(tmp_path / "report.json")
    assert run(["verify", "--config", cfg, "--out", out]) == 0
    report = load_report(out)
    assert report["verdicts"]["overall"] is True
    assert report["gram"]["max_deviation"] <= 1e-12
    assert report["partition_check"]["max"] == pytest.approx(1.0, abs=1e-12)
    assert report["sigma_v0_fraction"] == pytest.approx(1.0, abs=1e-12)
    for key in ("version", "command", "config", "partition_check",
                "sigma_v0_fraction", "gram", "bessel", "two_scale",
                "frame_ratio", "verdicts"):
        assert key in report


def test_verify_fourier3_passes(tmp_path):
    cfg = write_cfg(tmp_path, "fourier_q3.masks", 3)
    out = str(tmp_path / "report.json")
    assert run(["verify", "--config", cfg, "--out", out]) == 0
    report = load_report(out)
    assert report["two_scale"]["max_residual"] <= 1e-9
    assert report["frame_ratio"]["max_abs_deviation"] <= 1e-9


def test_verify_perturbed_fails(tmp_path):
    cfg = write_cfg(tmp_path, "haar_q2_perturbed.masks", 2)
    out = str(tmp_path / "report.json")
    assert run(["verify", "--config", cfg, "--out", out]) == 1
    report = load_report(out)
    assert report["verdicts"]["overall"] is False
    assert report["gram"]["max_deviation"] >= 1e-3
    assert report["two_scale"]["max_residual"] >= 1e-3


def test_verify_nonuniform_flags_degeneracy(tmp_path):
    for masks in ("nonuniform_q2_N3_r1.masks", "nonuniform_q2_N3_r5.masks"):
        cfg = write_cfg(tmp_path, masks, 2)
        out = str(tmp_path / "report.json")
        assert run(["verify", "--config", cfg, "--out", out]) == 1
        report = load_report(out)
        assert report["config"]["lambda_degenerate"] is True
        assert report["partition_check"]["degenerate_family"] is True
        assert report["partition_check"]["max"] == pytest.approx(2.0, abs=1e-12)
        assert report["partition_check"]["min"] == pytest.approx(2.0, abs=1e-12)
        assert report["frame_ratio"]["max_abs_deviation"] == pytest.approx(
            1.0, abs=1e-9)


def test_verify_reports_are_byte_reproducible(tmp_path):
    cfg = write_cfg(tmp_path, "haar_q2.masks", 2)
    a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    assert run(["verify", "--config", cfg, "--out", a]) == 0
    assert run(["verify", "--config", cfg, "--out", b]) == 0
    with open(a, "rb") as fa, open(b, "rb") as fb:
        assert fa.read() == fb.read()


def test_verify_seed_flag_changes_suite_but_not_verdict(tmp_path):
    cfg = write_cfg(tmp_path, "haar_q2.masks", 2)
    a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    assert run(["verify", "--config", cfg, "--seed", "1", "--out", a]) == 0
    assert run(["verify", "--config", cfg, "--seed", "2", "--out", b]) == 0
    ra, rb = load_report(a), load_report(b)
    assert ra["config"]["seed"] == 1 and rb["config"]["seed"] == 2
    assert ra["verdicts"]["overall"] and rb["verdicts"]["overall"]
    assert ra["two_scale"]["max_residual"] != rb["two_scale"]["max_residual"]


def test_mode_override(tmp_path):
    # for N = 1 both normalization modes coincide; for N = 3 the qN mode
    # denormalizes the shipped masks, which the checks must then reject
    cfg = write_cfg(tmp_path, "haar_q2.masks", 2)
    assert run(["verify", "--config", cfg, "--mode", "qn",
                "--out", str(tmp_path / "a.json")]) == 0
    cfg = write_cfg(tmp_path, "nonuniform_q2_N3_r1.masks", 2)
    out = str(tmp_path / "b.json")
    assert run(["verify", "--config", cfg, "--mode", "qn", "--out", out]) == 1
    assert load_report(out)["config"]["normalization"] == "qn"


# ----------------------------------------------------------- periodic --

def test_periodic_haar_passes(tmp_path):
    cfg = write_cfg(tmp_path, "haar_q2.masks", 2)
    out = str(tmp_path / "report.json")
    assert run(["periodic", "--config", cfg, "--out", out]) == 0
    report = load_report(out)
    assert report["verdicts"]["overall"] is True
    assert report["scaling_scan"]["all_finite"] is True
    assert report["tightness"]["max_residual"] <= 1e-9
    assert report["tightness"]["max_tail"] <= 1e-12
    assert len(report["scaling_scan"]["first_function"]["sums"]) == 4


def test_periodic_perturbed_fails(tmp_path):
    cfg = write_cfg(tmp_path, "haar_q2_perturbed.masks", 2)
    out = str(tmp_path / "report.json")
    assert run(["periodic", "--config", cfg, "--out", out]) == 1
    report = load_report(out)
    assert report["tightness"]["max_residual"] >= 1e-3


def test_periodic_scale_cap_below_resolution_is_config_error(tmp_path):
    body = f"""[masks]
file = {os.path.join(CONFIGS, "haar_q2.masks")}

[scales]
j_max = 2

[suite]
seed = 7
count = 2
resolution = 3
"""
    cfg = write_cfg(tmp_path, "", 2, body=body)
    assert run(["periodic", "--config", cfg]) == 2


def _suite_cfg(tmp_path, resolution):
    body = f"""[masks]
file = {os.path.join(CONFIGS, "haar_q2.masks")}

[scales]
j1 = 1
j_max = 1

[suite]
count = 1
resolution = {resolution}
"""
    return write_cfg(tmp_path, "", 2, body=body)


@pytest.mark.parametrize("command", ["verify", "periodic"])
def test_suite_resolution_above_cell_cap_is_config_error(tmp_path, capsys,
                                                         command):
    # q^25 = 2^25 cells per suite function: refused before any table exists
    cfg = _suite_cfg(tmp_path, 25)
    assert run([command, "--config", cfg]) == 2
    assert str(CELL_CAP) in capsys.readouterr().err


def test_suite_resolution_at_cell_cap_loads(tmp_path):
    rc = RunConfig.load(_suite_cfg(tmp_path, 24))
    assert rc.cfg.q ** rc.resolution == CELL_CAP
    with pytest.raises(ConfigError):
        RunConfig.load(_suite_cfg(tmp_path, 25))


def test_run_config_is_frozen(tmp_path):
    rc = RunConfig.load(_suite_cfg(tmp_path, 2))
    with pytest.raises(AttributeError):
        rc.seed = 5
    assert rc.seed == 0


# ---------------------------------------------------------- transform --

def test_transform_roundtrip(tmp_path):
    cfg = FieldConfig(2)
    rng = np.random.default_rng(5150)
    cells = {}
    reps = [cfg.zero(), cfg.one(), cfg.monomial(1, 1),
            cfg.one() + cfg.monomial(1, 2)]
    for rep in reps:
        cells[rep] = complex(rng.standard_normal(), rng.standard_normal())
    f = from_cells(cfg, 3, cells)
    src = str(tmp_path / "f.csv")
    fwd = str(tmp_path / "fhat.csv")
    back = str(tmp_path / "back.csv")
    dump_csv(f, src)
    assert run(["transform", src, "--direction", "forward", "--out", fwd]) == 0
    assert run(["transform", fwd, "--direction", "inverse", "--out", back]) == 0
    assert load_csv(back).allclose(f, 1e-12)


def test_transform_malformed_row_reports_line(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text(
        "# walshframes-stepfn v1 p=2 c=1 modulus=- resolution=1\n"
        "lo,digits,re,im\n"
        "0,x,1.0,0.0\n")
    assert run(["transform", str(path)]) == 3
    assert "line 3" in capsys.readouterr().err


def test_transform_header_token_without_equals_sign(tmp_path, capsys):
    path = tmp_path / "junk.csv"
    path.write_text(
        "# walshframes-stepfn v1 p=2 c=1 modulus=- junk resolution=2\n"
        "lo,digits,re,im\n"
        "2,,1.0,0.0\n")
    assert run(["transform", str(path)]) == 3
    err = capsys.readouterr().err
    assert "line 1" in err and "junk" in err


def test_transform_empty_input(tmp_path, capsys):
    path = tmp_path / "empty.csv"
    path.write_text("")
    assert run(["transform", str(path)]) == 3
    assert "line 1" in capsys.readouterr().err


def test_transform_missing_input():
    assert run(["transform", "/nonexistent/f.csv"]) == 3


@pytest.mark.parametrize("amplitude", ["nan,0.0", "1.0,inf", "-inf,nan"])
def test_transform_rejects_non_finite_amplitude(tmp_path, capsys, amplitude):
    path = tmp_path / "nan.csv"
    path.write_text(
        "# walshframes-stepfn v1 p=2 c=1 modulus=- resolution=1\n"
        "lo,digits,re,im\n"
        "0,1,1.0,0.0\n"
        f"0,0,{amplitude}\n")
    out = tmp_path / "out.csv"
    assert run(["transform", str(path), "--out", str(out)]) == 3
    assert "line 4" in capsys.readouterr().err
    assert not out.exists()


def test_transform_rejects_empty_digits_below_resolution(tmp_path, capsys):
    # an empty digit string names the zero cell, which sits at lo = resolution
    path = tmp_path / "lo.csv"
    path.write_text(
        "# walshframes-stepfn v1 p=2 c=1 modulus=- resolution=1\n"
        "lo,digits,re,im\n"
        "0,1,1.0,0.0\n"
        "5,,1.0,0.0\n")
    assert run(["transform", str(path)]) == 3
    assert "line 4" in capsys.readouterr().err


def test_transform_refuses_window_above_cell_cap(tmp_path, capsys):
    # one cell at lo = -30 asks for a 2^60-cell table; refused at load
    path = tmp_path / "wide.csv"
    digits = ".".join(["1"] + ["0"] * 59)
    path.write_text(
        "# walshframes-stepfn v1 p=2 c=1 modulus=- resolution=30\n"
        "lo,digits,re,im\n"
        "30,,1.0,0.0\n"
        f"-30,{digits},1.0,0.0\n")
    assert run(["transform", str(path)]) == 3
    err = capsys.readouterr().err
    assert "line 4" in err and str(CELL_CAP) in err


def test_load_csv_accepts_window_at_cell_cap(tmp_path):
    # 2^24 cells exactly: loaded (the table itself is not built here)
    path = tmp_path / "cap.csv"
    digits = ".".join(["1"] + ["0"] * 23)
    path.write_text(
        "# walshframes-stepfn v1 p=2 c=1 modulus=- resolution=0\n"
        "lo,digits,re,im\n"
        f"-24,{digits},1.0,0.0\n")
    assert CELL_CAP == 2 ** 24
    assert load_csv(str(path)).support_ball() == -24


@pytest.mark.parametrize("row, message", [
    # 64 and 70 digits with a nonzero lead: no int64 index may be formed
    ("-63," + ".".join(["1"] + ["0"] * 63) + ",1.0,0.0",
     f"line 4: cell widens the table beyond {CELL_CAP} cells"),
    ("-69," + ".".join(["1"] * 70) + ",1.0,0.0",
     f"line 4: cell widens the table beyond {CELL_CAP} cells"),
    (f"{10 ** 30},1,1.0,0.0",
     f"line 4: digits from lo = {10 ** 30} do not end at resolution 1"),
    (f"0,{10 ** 30},1.0,0.0", "line 4: digit out of range [0, 2)"),
])
def test_transform_refuses_overflowing_rows(tmp_path, capsys, row, message):
    path = tmp_path / "big.csv"
    path.write_text(
        "# walshframes-stepfn v1 p=2 c=1 modulus=- resolution=1\n"
        "lo,digits,re,im\n"
        "0,1,1.0,0.0\n"
        f"{row}\n")
    assert run(["transform", str(path)]) == 3
    assert capsys.readouterr().err == f"error: {message}\n"


def test_load_csv_reads_leading_zero_digits_past_int64(tmp_path):
    # 70 zeros below the leading 1: the cell is t^0 at resolution 1, index 1
    path = tmp_path / "zeros.csv"
    path.write_text(
        "# walshframes-stepfn v1 p=2 c=1 modulus=- resolution=1\n"
        "lo,digits,re,im\n"
        "-70," + ".".join(["0"] * 70 + ["1"]) + ",2.5,-1.0\n")
    f = load_csv(str(path))
    assert (f.resolution, f.lo) == (1, 0)
    assert f.values.tolist() == [0j, 2.5 - 1j]


@pytest.mark.parametrize("first, message", [
    ("0,1,1.0,0.0", "line 4: field larger than field limit"),
    # an earlier failing row of the same block still names the error
    ("0,1,1.0,nan", "line 3: non-finite amplitude"),
])
def test_transform_refuses_field_above_reader_limit(tmp_path, capsys, first,
                                                    message):
    # the csv module refuses a field past its size limit: exit 3 with the line
    path = tmp_path / "long.csv"
    path.write_text(
        "# walshframes-stepfn v1 p=2 c=1 modulus=- resolution=1\n"
        "lo,digits,re,im\n"
        f"{first}\n"
        "1,," + "1" * 200_000 + ",0.0\n")
    assert run(["transform", str(path)]) == 3
    assert capsys.readouterr().err.startswith(f"error: {message}")


_CSV_HEAD = "# walshframes-stepfn v1 p=2 c=1 modulus=- resolution=1\n"


@pytest.mark.parametrize("text, line", [
    # the magic line alone used to load as the zero function
    (_CSV_HEAD, "line 2"),
    # a repeated key used to let the last one win
    ("# walshframes-stepfn v1 p=2 c=1 modulus=- resolution=2 resolution=5\n"
     "lo,digits,re,im\n", "line 1"),
    ("# walshframes-stepfn v1 p=2 c=1 modulus=- resolution=1 scale=2\n"
     "lo,digits,re,im\n", "line 1"),
    # a fifth field used to be dropped, a missing one to fail without a name
    (_CSV_HEAD + "lo,digits,re,im\n0,1,1.0,0.0,9\n", "line 3"),
    (_CSV_HEAD + "lo,digits,re,im\n0,1,1.0,0.0\n0,0,1.0\n", "line 4"),
])
def test_transform_rejects_malformed_csv_structure(tmp_path, capsys, text, line):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    assert run(["transform", str(path)]) == 3
    assert line in capsys.readouterr().err


# -------------------------------------------------- field-info, uindex --

def test_field_info_without_masks(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "", 2, body="[field]\np = 2\n")
    assert run(["field-info", "--config", cfg]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["field"]["q"] == 2
    assert report["uindex_table"][1]["element"] == "1*t^-1"
    assert len(report["uindex_table"]) == 32


def test_field_info_rejects_nonprime_p(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "", 4, body="[field]\np = 4\n")
    assert run(["field-info", "--config", cfg]) == 2
    assert "p must be prime" in capsys.readouterr().err


def test_field_info_requires_modulus_for_extensions(tmp_path):
    cfg = write_cfg(tmp_path, "", 2, body="[field]\np = 2\nc = 2\n")
    assert run(["field-info", "--config", cfg]) == 2


def test_uindex_command(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "", 2, body="[field]\np = 2\n")
    assert run(["uindex", "--config", cfg, "8"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert len(report["table"]) == 8
    assert report["table"][0]["valuation"] is None
    assert report["table"][4]["valuation"] == -3
    assert run(["uindex", "--config", cfg, "0"]) == 2


# ------------------------------------------------------ dump-wavelets --

def test_dump_wavelets(tmp_path):
    cfg = write_cfg(tmp_path, "fourier_q3.masks", 3)
    out_dir = str(tmp_path / "bank")
    assert run(["dump-wavelets", "--config", cfg, "--out", out_dir]) == 0
    names = sorted(os.listdir(out_dir))
    assert names == ["phi.csv", "psi_1.csv", "psi_2.csv"]
    for name in names:
        g = load_csv(os.path.join(out_dir, name))
        assert g.norm2() == pytest.approx(1.0, abs=1e-12)


# ----------------------------------------------------- config errors --

def test_missing_config_file():
    assert run(["verify", "--config", "/nonexistent/run.cfg"]) == 2


def test_missing_masks_file(tmp_path):
    cfg = write_cfg(tmp_path, "", 2,
                    body="[masks]\nfile = /nonexistent/x.masks\n")
    assert run(["verify", "--config", cfg]) == 2


def test_verify_needs_masks_section(tmp_path):
    cfg = write_cfg(tmp_path, "", 2, body="[field]\np = 2\n")
    assert run(["verify", "--config", cfg]) == 2


def test_field_section_must_match_masks_file(tmp_path):
    body = f"""[field]
p = 3

[masks]
file = {os.path.join(CONFIGS, "haar_q2.masks")}
"""
    cfg = write_cfg(tmp_path, "", 2, body=body)
    assert run(["verify", "--config", cfg]) == 2


def test_system_section_must_match_masks_file(tmp_path):
    body = f"""[masks]
file = {os.path.join(CONFIGS, "nonuniform_q2_N3_r1.masks")}

[system]
r = 5
"""
    cfg = write_cfg(tmp_path, "", 2, body=body)
    assert run(["verify", "--config", cfg]) == 2


def test_corrupt_masks_file_is_input_data_error(tmp_path, capsys):
    masks = tmp_path / "bad.masks"
    lines = open(os.path.join(CONFIGS, "haar_q2.masks")).read().splitlines()
    lines[8] = "0 0 nope 0.0"
    masks.write_text("\n".join(lines) + "\n")
    cfg = write_cfg(tmp_path, "", 2, body=f"[masks]\nfile = {masks}\n")
    assert run(["verify", "--config", cfg]) == 3
    assert "line 9" in capsys.readouterr().err


def _masks_with_row(tmp_path, source, lineno, row):
    lines = open(os.path.join(CONFIGS, source)).read().splitlines()
    lines[lineno - 1] = row
    masks = tmp_path / "edited.masks"
    masks.write_text("\n".join(lines) + "\n")
    return write_cfg(tmp_path, "", 2, body=f"[masks]\nfile = {masks}\n")


@pytest.mark.parametrize("value", ["nan 0.0", "0.5 inf", "-inf 0.0"])
def test_non_finite_mask_coefficient_is_input_data_error(tmp_path, capsys,
                                                         value):
    cfg = _masks_with_row(tmp_path, "haar_q2.masks", 9, f"0 0 {value}")
    out = tmp_path / "report.json"
    assert run(["verify", "--config", cfg, "--out", str(out)]) == 3
    assert "line 9" in capsys.readouterr().err
    assert not out.exists()


def test_offset_branch_row_needs_n_above_one(tmp_path, capsys):
    cfg = _masks_with_row(tmp_path, "haar_q2.masks", 10,
                          "1 1 0.7071067811865475 0.0")
    assert run(["verify", "--config", cfg]) == 3
    assert "line 10" in capsys.readouterr().err


def test_negative_mask_index_is_input_data_error(tmp_path, capsys):
    cfg = _masks_with_row(tmp_path, "haar_q2.masks", 9,
                          "-1 0 0.7071067811865475 0.0")
    assert run(["verify", "--config", cfg]) == 3
    assert "line 9" in capsys.readouterr().err


@pytest.mark.parametrize("lineno, row", [
    (5, "N = 3"),                  # repeated: N = 1 is on line 4
    (7, "normalisation = qn"),     # misspelled: would run unitary
])
def test_mask_header_key_must_be_known_and_unique(tmp_path, capsys, lineno, row):
    cfg = _masks_with_row(tmp_path, "haar_q2.masks", lineno, row)
    assert run(["verify", "--config", cfg]) == 3
    assert f"line {lineno}" in capsys.readouterr().err


@pytest.mark.parametrize("extra", [
    "[scales]\ncascade_iteration = 8\n",   # misspelled: would run 4
    "[scale]\nj1 = 2\n",
    "[DEFAULT]\ncount = 3\n",
])
def test_config_rejects_unknown_sections_and_options(tmp_path, capsys, extra):
    body = f"[masks]\nfile = {os.path.join(CONFIGS, 'haar_q2.masks')}\n\n{extra}"
    cfg = write_cfg(tmp_path, "", 2, body=body)
    assert run(["verify", "--config", cfg]) == 2
    assert "unknown" in capsys.readouterr().err


def _scales_cfg(tmp_path, masks, **scales):
    lines = "".join(f"{k} = {v}\n" for k, v in scales.items())
    body = (f"[masks]\nfile = {os.path.join(CONFIGS, masks)}\n\n"
            f"[scales]\n{lines}\n[suite]\ncount = 1\nresolution = 0\n")
    return write_cfg(tmp_path, "", 2, body=body)


@pytest.mark.parametrize("option, at_cap, scales", [
    # haar, K = 1: generator tables of q^(K + iterations) cells
    ("cascade_iterations", 23, {"j0": 0, "j1": 0, "j_max": 0}),
    # verify banks of q^(max(j1, K - 1) + K + iterations) cells
    ("j1", 23, {"j0": 0, "j_max": 0, "cascade_iterations": 0}),
    # folded banks of q^(2 j_max + iterations + 1) cells: 2^23, then 2^25
    ("j_max", 11, {"j0": 0, "j1": 0, "cascade_iterations": 0}),
])
def test_scale_options_are_capped_before_allocation(tmp_path, capsys, option,
                                                    at_cap, scales):
    # only RunConfig.load runs: the estimate refuses without building a table
    rc = RunConfig.load(_scales_cfg(tmp_path, "haar_q2.masks",
                                    **{option: at_cap}, **scales))
    assert getattr(rc, option) == at_cap
    cfg = _scales_cfg(tmp_path, "haar_q2.masks", **{option: at_cap + 1}, **scales)
    with pytest.raises(ConfigError, match=option):
        RunConfig.load(cfg)
    assert run(["verify", "--config", cfg]) == 2
    assert str(CELL_CAP) in capsys.readouterr().err


@pytest.mark.parametrize("name", ["haar_q2", "fourier_q3", "nonuniform_q2_N3_r5"])
def test_cap_estimate_bounds_the_tables_built(name):
    rc = RunConfig.load(os.path.join(CONFIGS, f"{name}.cfg"))
    digits = _table_digits(rc.sys, rc.cascade_iterations, rc.j1, rc.j_max)
    q = rc.cfg.q
    gens = derive_generators(rc.sys, rc.cascade_iterations)
    assert max(g.values.size for g in gens) <= q ** digits["cascade_iterations"]
    f = next(suite_functions(rc.cfg, rc.resolution, 1, rc.seed))
    analyzer = FrameAnalyzer(rc.sys, gens)
    for j in range(rc.j0, rc.j1):
        analyzer.two_scale_check(f, j)
    analyzer.frame_ratio(f, rc.j0, rc.j1)
    assert max(b.cells.size for b in analyzer._members.values()) <= q ** digits["j1"]
    spec = PeriodicSystemSpec(rc.sys, gens, rc.j_max)
    periodic_tightness_check(f, spec)
    assert max(b.cells.size for b, _, _ in spec._members.values()) \
        <= q ** digits["j_max"]


def test_reports_refuse_non_finite_numbers():
    from walshframes.errors import DegenerateInput
    from walshframes.runner import render_report
    with pytest.raises(DegenerateInput):
        render_report({"value": float("nan")})
