import contextlib
import json
import os
import subprocess
import sys
import time
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from oracles import allclose

import walshframes
from walshframes import framekit, periodic, runner
from walshframes.algebra import Q_CAP, FieldConfig
from walshframes.cli import main
from walshframes.errors import ConfigError
from walshframes.runner import UINDEX_CAP, RunConfig
from walshframes.stepfn import CELL_CAP, StepFunction, dump_csv, from_cells, load_csv

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


def test_verify_report_forms_the_partition_once(tmp_path):
    rc = RunConfig.load(write_cfg(tmp_path, "nonuniform_q2_N3_r1.masks", 2))
    with mock.patch.object(framekit, "check_partition",
                           wraps=framekit.check_partition) as partition, \
            mock.patch.object(runner, "check_partition", partition):
        report = runner.verify_report(rc)
    assert partition.call_count == 1
    # sigma(V0) reads the same table: the degenerate family sums to 2 on D
    assert report["partition_check"]["min"] == pytest.approx(2.0, abs=1e-12)
    assert report["sigma_v0_fraction"] == 1.0


@contextlib.contextmanager
def _counting(*names):
    """{name: mock} counting the calls of each framekit function named,
    made through framekit's binding or runner's."""
    with contextlib.ExitStack() as stack:
        calls = {}
        for name in names:
            calls[name] = stack.enter_context(
                mock.patch.object(framekit, name, wraps=getattr(framekit, name)))
            if hasattr(runner, name):
                stack.enter_context(mock.patch.object(runner, name, calls[name]))
        yield calls


@pytest.mark.parametrize("masks", ["haar_q2.masks", "fourier_q3.masks",
                                   "nonuniform_q2_N3_r5.masks"])
def test_mask_checks_transform_each_mask_once(masks):
    sys = framekit.load_masks(os.path.join(CONFIGS, masks))
    assert len(sys.shift_set) > 1
    with _counting("fast_transform") as calls:
        framekit.uep_gram(sys)
        assert calls["fast_transform"].call_count == len(sys.masks)
        # the low-pass mask keeps the table uep_gram formed
        framekit.bessel_mask_check(sys.masks[0], sys)
        assert calls["fast_transform"].call_count == len(sys.masks)


@pytest.mark.parametrize("config, tables", [("fourier_q3.cfg", 3), ("haar_q2.cfg", 2)])
def test_verify_forms_each_mask_table_and_phi_hat_once(config, tables):
    rc = RunConfig.load(os.path.join(CONFIGS, config))
    with _counting("fast_transform", "iterate_refinement") as calls:
        runner.verify_report(rc)
    # besides the mask tables: each generator's transform, and the suite's
    # one block
    assert tables == len(rc.sys.masks)
    assert calls["fast_transform"].call_count == tables + len(rc.sys.masks) + 1
    assert calls["iterate_refinement"].call_count == 1


def test_periodic_forms_each_mask_table_once():
    rc = RunConfig.load(os.path.join(CONFIGS, "nonuniform_q2_N3_r5.cfg"))
    with _counting("fast_transform") as calls:
        runner.periodic_report(rc)
    # besides the mask tables: each generator's transform, which the folded
    # system forms through framekit
    assert len(rc.sys.masks) == 2
    assert calls["fast_transform"].call_count == 2 * len(rc.sys.masks)


@pytest.mark.parametrize("config", sorted(f for f in os.listdir(CONFIGS) if f.endswith(".cfg")))
@pytest.mark.parametrize("normalization", [None, "qn"])
def test_run_config_load_forms_no_mask_table(tmp_path, config, normalization):
    # the tables are formed inside the reports, outside the load that setup_s
    # times; None loads the shipped config, "qn" a copy of it whose mask file
    # states normalization = qn
    path = os.path.join(CONFIGS, config)
    if normalization is not None:
        with open(path) as fh:
            text = fh.read()
        masks = text.split("file = ", 1)[1].split("\n", 1)[0]
        _qn_masks(tmp_path, masks)
        path = tmp_path / config
        path.write_text(text)
    with _counting("fast_transform") as calls:
        rc = RunConfig.load(str(path))
    assert calls["fast_transform"].call_count == 0
    assert all(m._table is None for m in rc.sys.masks)
    assert rc.sys.normalization == (normalization or "unitary")


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
    assert ra["frame_ratio"]["max_abs_deviation"] != rb["frame_ratio"]["max_abs_deviation"]


def _qn_masks(tmp_path, name):
    """A copy of a shipped mask file that states normalization = qn."""
    with open(os.path.join(CONFIGS, name)) as fh:
        text = fh.read()
    assert "normalization = unitary\n" in text
    path = tmp_path / name
    path.write_text(text.replace("normalization = unitary\n", "normalization = qn\n"))
    return str(path)


def test_mode_override(tmp_path):
    # for N = 1 both normalization modes coincide; for N = 3 the qN mode
    # denormalizes the shipped masks, which the checks must then reject
    cfg = write_cfg(tmp_path, _qn_masks(tmp_path, "haar_q2.masks"), 2)
    assert run(["verify", "--config", cfg, "--out", str(tmp_path / "a.json")]) == 0
    cfg = write_cfg(tmp_path, _qn_masks(tmp_path, "nonuniform_q2_N3_r1.masks"), 2)
    out = str(tmp_path / "b.json")
    assert run(["verify", "--config", cfg, "--out", out]) == 1
    assert load_report(out)["config"]["normalization"] == "qn"


def test_mode_flag_is_refused(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--config", os.path.join(CONFIGS, "haar_q2.cfg"), "--mode", "qn"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --mode qn" in capsys.readouterr().err


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
    assert allclose(load_csv(back), f, 1e-12)


def _transform_input(tmp_path, resolution):
    cfg = FieldConfig(2, 2, (1, 1, 1))
    rng = np.random.default_rng(1)
    values = np.array([1, 1j]) @ rng.standard_normal((2, 4 ** resolution))
    src = str(tmp_path / "f.csv")
    dump_csv(StepFunction(cfg, resolution, values), src)
    return src


def test_transform_writes_the_same_bytes_to_stdout_and_out(tmp_path, capsys):
    src = _transform_input(tmp_path, 4)
    out = tmp_path / "fhat.csv"
    for direction in ("forward", "inverse"):
        assert run(["transform", src, "--direction", direction]) == 0
        printed = capsys.readouterr().out
        assert run(["transform", src, "--direction", direction,
                    "--out", str(out)]) == 0
        assert printed.encode() == out.read_bytes()


def test_transform_does_not_hold_its_output_twice(tmp_path):
    # 65,536 cells give about 4 MB of CSV; a copy of it in memory beside the
    # one being written doubles the peak
    src = _transform_input(tmp_path, 8)
    out = tmp_path / "fhat.csv"
    tracemalloc.start()
    try:
        assert run(["transform", src, "--out", str(out)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * out.stat().st_size


def test_transform_into_a_closed_pipe_exits_2_without_traceback(tmp_path):
    # about 240 KB of CSV: more than a pipe holds, so writing outlives the reader
    src = _transform_input(tmp_path, 6)
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(walshframes.__file__)))
    proc = subprocess.Popen([sys.executable, "-m", "walshframes.cli", "transform", src],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline().startswith(b"# walshframes-stepfn v1")
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait() == 2
    assert err == "error: cannot write '<stdout>': [Errno 32] Broken pipe\n"


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


@pytest.mark.parametrize("direction", ["forward", "inverse"])
def test_transform_refuses_a_transform_past_the_largest_double(tmp_path, capsys, direction):
    # four GF(3) cells of 1.7e308 in B^-1: the exact value at 0 is 4/3 of
    # 1.7e308; once a NaN file exited 0
    path = tmp_path / "over.csv"
    path.write_text("# walshframes-stepfn v1 p=3 c=1 modulus=- resolution=1\n"
                    "lo,digits,re,im\n1,,1.7e308,0.0\n0,1,1.7e308,0.0\n0,2,1.7e308,0.0\n"
                    "-1,1.0,1.7e308,0.0\n")
    out = tmp_path / "out.csv"
    assert run(["transform", str(path), "--direction", direction, "--out", str(out)]) == 3
    assert capsys.readouterr().err == (
        f"error: {path}: the {direction} transform overflows: a character sum "
        f"exceeds the largest double\n")
    assert not out.exists()


@pytest.mark.parametrize("direction", ["forward", "inverse"])
def test_transform_past_overflowing_sums_when_the_transform_is_finite(tmp_path, direction):
    # four GF(4) cells of 1.5e308: the character sums overflow before the
    # measure factor 1/4 scales them, but the transform is 1.5e308 at 0
    path = tmp_path / "big.csv"
    path.write_text("# walshframes-stepfn v1 p=2 c=2 modulus=1.1.1 resolution=1\n"
                    "lo,digits,re,im\n" + "".join(f"0,{d},1.5e308,0.0\n" for d in range(4)))
    out = tmp_path / "out.csv"
    assert run(["transform", str(path), "--direction", direction, "--out", str(out)]) == 0
    assert out.read_text().splitlines()[2:] == ["0,,1.5e+308,0.0"]


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="counts threads in /proc")
@pytest.mark.parametrize("openblas, threads", [(None, 1), ("2", None)])
def test_import_pins_blas_threads_unless_told(openblas, threads):
    env = {k: v for k, v in os.environ.items()
           if k not in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(walshframes.__file__))
    if openblas is not None:
        env["OPENBLAS_NUM_THREADS"] = openblas
    probe = ("import os, walshframes; print(len(os.listdir('/proc/self/task')), "
             "os.environ['OPENBLAS_NUM_THREADS'])")
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True, timeout=60).stdout.split()
    assert out[1] == (openblas or "1")
    if threads is not None:
        assert int(out[0]) == threads


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


@pytest.mark.parametrize("resolution", [10 ** 30, -2000])
def test_transform_refuses_resolution_without_normal_measure(tmp_path, capsys,
                                                             resolution):
    # 10**30 once gave a silently zero transform, -2000 an OverflowError
    path = tmp_path / "huge.csv"
    path.write_text(
        f"# walshframes-stepfn v1 p=3 c=1 modulus=- resolution={resolution}\n"
        f"lo,digits,re,im\n{resolution},,1.0,0.0\n")
    assert run(["transform", str(path), "--direction", "forward"]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: line 1: resolution {resolution} gives cells of "
                          f"measure 3^{-resolution}")


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
    ("0,1,1.0,0.0", "line 4: non-finite amplitude"),
    # an earlier failing row of the same block still names the error
    ("0,1,1.0,nan", "line 3: non-finite amplitude"),
])
def test_transform_refuses_a_long_field_by_its_value(tmp_path, capsys, first,
                                                     message):
    # a line has no length limit: 200,000 digits of re read as inf, exit 3
    path = tmp_path / "long.csv"
    path.write_text(
        "# walshframes-stepfn v1 p=2 c=1 modulus=- resolution=1\n"
        "lo,digits,re,im\n"
        f"{first}\n"
        "1,," + "1" * 200_000 + ",0.0\n")
    assert run(["transform", str(path)]) == 3
    assert capsys.readouterr().err.startswith(f"error: {message}")


_CSV_HEAD = "# walshframes-stepfn v1 p=2 c=1 modulus=- resolution=1\n"


@pytest.mark.parametrize("column_header, message", [
    ("lo,digits,re," + "1" * 200_000, "line 2: expected column header"),
    ("lo,digits,re,i\0m", "line 2: expected column header"),
    ("lo,digits,re,im\r", "line 2: CR in line"),
], ids=["long", "nul", "cr"])
def test_transform_refuses_bad_column_header_line(tmp_path, capsys, column_header,
                                                  message):
    path = tmp_path / "bad.csv"
    path.write_text(_CSV_HEAD + column_header + "\n0,1,1.0,0.0\n")
    assert run(["transform", str(path)]) == 3
    assert capsys.readouterr().err.startswith(f"error: {message}")


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
    # CRLF line ends, a blank line and a lone CR used to be read as csv reads them
    (_CSV_HEAD.replace("\n", "\r\n") + "lo,digits,re,im\r\n", "line 1: CR"),
    (_CSV_HEAD + "lo,digits,re,im\n0,1,1.0,0.0\n\n1,,1.0,0.0\n", "line 4: expected 4"),
    (_CSV_HEAD + "lo,digits,re,im\n0,1\r,1.0,0.0\n", "line 3: CR"),
])
def test_transform_rejects_malformed_csv_structure(tmp_path, capsys, text, line):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    assert run(["transform", str(path)]) == 3
    assert line in capsys.readouterr().err


@pytest.mark.parametrize("fields, message", [
    ("p=4 c=1 modulus=-", "p must be prime"),
    ("p=2 c=2 modulus=1.0.1", "reducible"),           # z^2 + 1 = (z + 1)^2
    ("p=3 c=2 modulus=-", "c = 2 > 1 must state its modulus"),
    # no default modulus stands in for GF(4) either
    ("p=2 c=2 modulus=-", "c = 2 > 1 must state its modulus"),
    (f"p={Q_CAP + 1} c=1 modulus=-", f"<= Q_CAP = {Q_CAP}"),
    ("p=2 c=11 modulus=-", f"<= Q_CAP = {Q_CAP}"),
    ("p=11 c=3 modulus=-", f"<= Q_CAP = {Q_CAP}"),     # q = 1331
    # no digit is reduced mod p: 3.3.1 and -1.1.1 are not z^2 + z + 1
    ("p=2 c=2 modulus=3.3.1", "modulus digit 3 is outside [0, 2)"),
    ("p=2 c=2 modulus=-1.1.1", "modulus digit -1 is outside [0, 2)"),
], ids=["nonprime-p", "reducible", "no-modulus", "shipped-modulus", "p-cap", "c-cap",
        "q-cap", "digit-above-p", "negative-digit"])
def test_transform_refuses_a_bad_field_on_line_1(tmp_path, capsys, fields, message):
    path = tmp_path / "bad.csv"
    path.write_text(f"# walshframes-stepfn v1 {fields} resolution=1\n"
                    "lo,digits,re,im\n1,,1.0,0.0\n")
    assert run(["transform", str(path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: line 1: bad header field (") and message in err


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


@pytest.mark.parametrize("c, modulus, error", [
    ("2", "", "must state its modulus"),          # an empty modulus states none
    ("1", "", None),
    ("2", "1.1.1", None),
    # no digit is reduced mod p: 3.3.1 and -1.1.1 are not z^2 + z + 1
    ("2", "3.3.1", "modulus digit 3 is outside [0, 2)"),
    ("2", "-1.1.1", "modulus digit -1 is outside [0, 2)"),
], ids=["c2-empty", "c1-empty", "c2-stated", "digit-above-p", "negative-digit"])
def test_field_info_modulus_is_stated_when_c_exceeds_1(tmp_path, capsys, c, modulus, error):
    cfg = write_cfg(tmp_path, "", 2, body=f"[field]\np = 2\nc = {c}\nmodulus = {modulus}\n")
    assert run(["field-info", "--config", cfg]) == (2 if error else 0)
    out, err = capsys.readouterr()
    if error:
        assert error in err and "Traceback" not in err
    else:
        assert json.loads(out)["field"]["modulus"] == ([1, 1, 1] if modulus else None)


@pytest.mark.parametrize("body, message", [
    ("[field]\nc = 1\n", "No option 'p'"),
    ("[field]\np = 2%\n", "'%'"),
    ("[field]\np = 2\n\n[suite]\nseed = 1%\n", "'%'"),
], ids=["no-p", "percent-p", "percent-seed"])
def test_config_without_p_or_with_a_percent_exits_2(tmp_path, capsys, body, message):
    cfg = write_cfg(tmp_path, "", 2, body=body)
    assert run(["field-info", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: malformed config value (") and message in err


def test_uindex_command(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "", 2, body="[field]\np = 2\n")
    assert run(["uindex", "--config", cfg, "8"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert len(report["table"]) == 8
    assert report["table"][0]["valuation"] is None
    assert report["table"][4]["valuation"] == -3
    assert run(["uindex", "--config", cfg, "0"]) == 2


def test_uindex_count_is_capped_before_any_row(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "", 2, body="[field]\np = 2\n")
    with mock.patch.object(runner, "_uindex_rows", wraps=runner._uindex_rows) as rows:
        assert run(["uindex", "--config", cfg, str(UINDEX_CAP + 1)]) == 2
        assert rows.call_count == 0
    assert f"UINDEX_CAP = {UINDEX_CAP}" in capsys.readouterr().err
    assert run(["uindex", "--config", cfg, str(UINDEX_CAP)]) == 0
    assert len(json.loads(capsys.readouterr().out)["table"]) == UINDEX_CAP


@pytest.mark.parametrize("body", [
    f"[field]\np = {Q_CAP + 1}\n",
    "[field]\np = 2\nc = 11\nmodulus = 1.0.0.0.0.0.0.0.0.0.0.1\n",
    "[field]\np = 11\nc = 3\nmodulus = 1.0.0.1\n",   # q = 1331
], ids=["p", "c", "q"])
def test_config_field_is_capped_before_it_is_built(tmp_path, capsys, body):
    cfg = write_cfg(tmp_path, "", 2, body=body)
    assert run(["field-info", "--config", cfg]) == 2
    assert f"<= Q_CAP = {Q_CAP}" in capsys.readouterr().err


def test_mask_file_field_is_capped_before_it_is_built(tmp_path, capsys):
    cfg = _masks_with_row(tmp_path, "haar_q2.masks", 2, f"p = {Q_CAP + 1}")
    assert run(["verify", "--config", cfg]) == 2
    assert f"<= Q_CAP = {Q_CAP}" in capsys.readouterr().err


@pytest.mark.parametrize("row, message", [
    ("c = 2\nmodulus =", "field needs integer p, c and modulus digits"),
    ("c = 2", "must state its modulus"),
    ("c = 2\nmodulus = -1.1.1", "modulus digit -1 is outside [0, 2)"),
], ids=["empty", "missing", "negative-digit"])
def test_mask_file_with_c_above_1_states_its_modulus(tmp_path, capsys, row, message):
    cfg = _masks_with_row(tmp_path, "haar_q2.masks", 3, row)
    assert run(["verify", "--config", cfg]) == 2
    assert message in capsys.readouterr().err


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


# ------------------------------------------------------ unwritable --out --

@pytest.mark.parametrize("command", [
    "field-info", "uindex", "verify", "periodic", "transform", "dump-wavelets"])
def test_unwritable_out_is_exit_2(tmp_path, capsys, command):
    # a path below a regular file cannot be created, whatever the user
    blocker = tmp_path / "file"
    blocker.write_text("")
    out = str(blocker / "out")
    if command == "transform":
        args = [command, _transform_input(tmp_path, 2)]
    else:
        args = [command, "--config", write_cfg(tmp_path, "haar_q2.masks", 2)]
    assert run(args + ["--out", out]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot write {out!r}: ")


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
    with open(os.path.join(CONFIGS, "haar_q2.masks")) as fh:
        lines = fh.read().splitlines()
    lines[8] = "0 0 nope 0.0"
    masks.write_text("\n".join(lines) + "\n")
    cfg = write_cfg(tmp_path, "", 2, body=f"[masks]\nfile = {masks}\n")
    assert run(["verify", "--config", cfg]) == 3
    assert "line 9" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["field-info", "verify", "periodic"])
def test_config_byte_that_is_not_utf8_is_config_error(tmp_path, capsys, command):
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(b"[field]\np = \xff\n")
    assert run([command, "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read config file {str(cfg)!r} (")
    assert "can't decode byte 0xff" in err


@pytest.mark.parametrize("lineno, row", [
    (1, b"# walshframes-masks v1 \xff"),   # the header line
    (2, b"p = \xff"),                       # a header value, read as an int
    (8, b"# \xff"),                         # a comment line, else skipped
    (10, b"0 0 0.5\xff 0.0"),               # a coefficient row
])
def test_mask_file_byte_that_is_not_utf8_is_refused_by_line(tmp_path, capsys,
                                                            lineno, row):
    with open(os.path.join(CONFIGS, "haar_q2.masks"), "rb") as fh:
        lines = fh.read().splitlines()
    lines.insert(lineno - 1, row)
    masks = tmp_path / "bad.masks"
    masks.write_bytes(b"\n".join(lines) + b"\n")
    cfg = write_cfg(tmp_path, "", 2, body=f"[masks]\nfile = {masks}\n")
    assert run(["verify", "--config", cfg]) == 3
    assert capsys.readouterr().err == \
        f"error: line {lineno}: a byte that is not UTF-8\n"


def _masks_with_row(tmp_path, source, lineno, row):
    with open(os.path.join(CONFIGS, source)) as fh:
        lines = fh.read().splitlines()
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
])
def test_scale_options_are_capped_before_allocation(tmp_path, capsys, option,
                                                    at_cap, scales):
    # only RunConfig.load runs: the load-time bound refuses without building a table
    rc = RunConfig.load(_scales_cfg(tmp_path, "haar_q2.masks",
                                    **{option: at_cap}, **scales))
    assert getattr(rc, option) == at_cap
    cfg = _scales_cfg(tmp_path, "haar_q2.masks", **{option: at_cap + 1}, **scales)
    with pytest.raises(ConfigError, match=option), _counting("fast_transform") as calls:
        RunConfig.load(cfg)
    assert calls["fast_transform"].call_count == 0
    assert run(["verify", "--config", cfg]) == 2
    assert str(CELL_CAP) in capsys.readouterr().err


@pytest.mark.parametrize("command, option, named", [
    ("verify", "j1", "scales 0 to 1000000000"), ("periodic", "j_max", "at scale")])
def test_bank_scales_are_capped_before_allocation(tmp_path, capsys, monkeypatch,
                                                  command, option, named):
    # a scale has no load-time bound: verify counts its energies per function,
    # periodic the label arrays of each pair before it forms them
    cfg = _scales_cfg(tmp_path, "haar_q2.masks", **{option: 10 ** 9},
                      cascade_iterations=0)
    assert getattr(RunConfig.load(cfg), option) == 10 ** 9
    # at a small cap, the run never holds the rows of a refused table
    cap = 2 ** 12
    monkeypatch.setattr(framekit, "CELL_CAP", cap)
    monkeypatch.setattr(periodic, "CELL_CAP", cap)
    tracemalloc.start()
    try:
        assert run([command, "--config", cfg]) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err
    assert named in err and f"the cap of {cap}" in err
    assert peak < 8 * cap + 2 ** 20


@pytest.mark.parametrize("command, option, built, error", [
    ("verify", "j1", [(framekit, "_folded_norm2")],
     "the energies of scales 0 to 1000000000 need 1000000001 entries per function"),
    ("periodic", "j_max", [(periodic, "system_member"), (periodic, "fast_transform")],
     "the label counts of generator 0 at scale 20 need 28311552 table entries"),
], ids=["verify", "periodic"])
def test_a_huge_scale_is_refused_before_any_bank_is_built(tmp_path, capsys, command,
                                                          option, built, error):
    # verify refuses the energy arrays of a huge scale range before it forms
    # any energy; periodic checks the label arrays of every pair before it
    # forms any, so scale 20 is refused while no smaller pair is built
    with open(os.path.join(CONFIGS, "haar_q2.cfg")) as fh:
        body = fh.read().replace(f"{option} = 4\n", f"{option} = 1000000000\n").replace(
            "file = ", "file = " + CONFIGS + os.sep)
    cfg = write_cfg(tmp_path, "", 2, body=body)
    with contextlib.ExitStack() as stack:
        calls = [stack.enter_context(mock.patch.object(module, name,
                                                       wraps=getattr(module, name)))
                 for module, name in built]
        assert run([command, "--config", cfg]) == 2
    assert [c.call_count for c in calls] == [0] * len(built)
    assert capsys.readouterr().err == f"error: {error}, above the cap of {CELL_CAP}\n"


def test_a_coarse_j0_is_refused_by_verify(tmp_path, capsys):
    # j0 is read by verify alone: its table width refuses the range by its
    # energy count before any energy is formed; the load and periodic
    # accept it
    cfg = _scales_cfg(tmp_path, "haar_q2.masks", j0=-10 ** 9)
    assert RunConfig.load(cfg).j0 == -10 ** 9
    start = time.perf_counter()
    assert run(["verify", "--config", cfg]) == 2
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err
    assert str(CELL_CAP) in err and f"scales {-10 ** 9} to " in err
    assert run(["periodic", "--config", cfg, "--out", str(tmp_path / "p.json")]) == 0


@pytest.mark.parametrize("command", ["verify", "periodic"])
def test_fourier_q3_runs_at_resolution_6(tmp_path, command):
    body = (f"[masks]\nfile = {os.path.join(CONFIGS, 'fourier_q3.masks')}\n\n"
            "[scales]\nj1 = 6\nj_max = 6\n\n[suite]\ncount = 5\nresolution = 6\n")
    cfg = write_cfg(tmp_path, "", 3, body=body)
    assert run([command, "--config", cfg, "--out", str(tmp_path / "r.json")]) == 0


@pytest.mark.parametrize("command", ["verify", "periodic", "dump-wavelets"])
def test_an_overflowing_refinement_product_is_refused(tmp_path, capsys, command):
    # haar_q2's masks times 1e300: the second refinement product passes the
    # largest double, whose NaN cells prune used to read as zero, so that
    # dump-wavelets wrote an empty phi.csv and exited 0
    with open(os.path.join(CONFIGS, "haar_q2.masks")) as fh:
        lines = fh.read().splitlines()
    for i, line in enumerate(lines):
        parts = line.split()
        if len(parts) == 4:
            lines[i] = f"{parts[0]} {parts[1]} {float(parts[2]) * 1e300!r} {parts[3]}"
    masks = tmp_path / "big.masks"
    masks.write_text("\n".join(lines) + "\n")
    with open(os.path.join(CONFIGS, "haar_q2.cfg")) as fh:
        body = fh.read().replace("file = haar_q2.masks", f"file = {masks}")
    cfg = write_cfg(tmp_path, "", 2, body=body)
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run([command, "--config", cfg, "--out", str(out)]) == 2
    assert caught == []
    assert capsys.readouterr().err == (
        "error: the product with mask 0 in refinement step 2 exceeds the largest double\n")
    assert not (out / "phi.csv").exists() and not (command != "dump-wavelets" and out.exists())


def test_verify_runs_far_past_the_scales_a_bank_could_hold(tmp_path):
    # every energy is one product of transforms, so haar_q2 at j1 = 24, whose
    # member bank at scale 20 was refused, runs and balances at roundoff
    body = (f"[masks]\nfile = {os.path.join(CONFIGS, 'haar_q2.masks')}\n\n"
            "[scales]\nj1 = 24\n\n[suite]\ncount = 20\nresolution = 4\n")
    cfg = write_cfg(tmp_path, "", 2, body=body)
    out = str(tmp_path / "r.json")
    assert run(["verify", "--config", cfg, "--out", out]) == 0
    report = load_report(out)
    assert report["config"]["j1"] == 24 and report["config"]["resolution"] == 4
    assert report["two_scale"]["max_residual"] < 1e-12


@pytest.mark.parametrize("option, value", [("j1", 10 ** 6), ("j0", -10 ** 6)])
def test_a_long_scale_range_runs_in_linear_time(tmp_path, option, value):
    # outside the scales where f^ and g_l^ overlap in more than one cell of
    # either, each energy is a kept norm times its factor, so a million
    # scales cost a pass over the energy arrays, not a product per scale
    cfg = _scales_cfg(tmp_path, "haar_q2.masks", **{option: value})
    out = str(tmp_path / "r.json")
    start = time.perf_counter()
    assert run(["verify", "--config", cfg, "--out", out]) == 0
    assert time.perf_counter() - start < 10
    assert load_report(out)["two_scale"]["max_residual"] < 1e-12


def test_an_energy_factor_past_the_largest_double_is_refused(tmp_path, capsys):
    # a qn copy of an N = 3 system: the factor B (s^2/q)^j = 2 * 3^j of the
    # energies at scale j passes the largest double at j = 700, which is
    # refused by name before any energy is formed; j = 600 runs
    masks = _qn_masks(tmp_path, "nonuniform_q2_N3_r1.masks")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with _counting("_folded_norm2") as calls:
            assert run(["verify", "--config", _scales_cfg(tmp_path, masks, j1=700)]) == 2
        assert calls["_folded_norm2"].call_count == 0
        out = str(tmp_path / "r.json")
        assert run(["verify", "--config", _scales_cfg(tmp_path, masks, j1=600),
                    "--out", out]) == 1
    assert caught == []
    assert capsys.readouterr().err == ("error: the energies of scale 700 carry a factor "
                                       "B (s^2/q)^700 past the largest double\n")
    assert load_report(out)["config"]["normalization"] == "qn"


def test_dump_wavelets_builds_no_bank(tmp_path):
    for scales in ({"j1": 10 ** 9, "j_max": 10 ** 9}, {"j0": -10 ** 9}):
        cfg = _scales_cfg(tmp_path, "haar_q2.masks", **scales)
        assert run(["dump-wavelets", "--config", cfg, "--out", str(tmp_path / "wl")]) == 0


@pytest.mark.parametrize("value", ["nan", "inf", "-1"])
@pytest.mark.parametrize("section, option", [
    ("scales", "epsilon"),
    ("tolerances", "gram"),
    ("tolerances", "residual"),
    ("tolerances", "tail"),
])
@pytest.mark.parametrize("command", ["verify", "periodic"])
def test_non_finite_or_negative_settings_are_config_errors(tmp_path, capsys, monkeypatch,
                                                           command, section, option,
                                                           value):
    # nan and inf used to run the whole suite and fail in render_report; a
    # negative tolerance failed every verdict with exit 1
    body = (f"[masks]\nfile = {os.path.join(CONFIGS, 'haar_q2.masks')}\n\n"
            f"[{section}]\n{option} = {value}\n\n[suite]\ncount = 2\nresolution = 2\n")
    cfg = write_cfg(tmp_path, "", 2, body=body)
    with pytest.raises(ConfigError, match=option):
        RunConfig.load(cfg)
    # refused before any work
    monkeypatch.setattr("walshframes.runner.derive_generators", None)
    monkeypatch.setattr("walshframes.runner.iterate_refinement", None)
    assert run([command, "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert option in err and value.lstrip("-") in err


def test_reports_refuse_non_finite_numbers():
    from walshframes.errors import DegenerateInput
    from walshframes.runner import render_report
    with pytest.raises(DegenerateInput):
        render_report({"value": float("nan")})


def _perturbed_cfg(tmp_path, gram):
    body = (f"[masks]\nfile = {os.path.join(CONFIGS, 'haar_q2_perturbed.masks')}\n\n"
            "[scales]\nj1 = 2\nj_max = 2\n\n[suite]\ncount = 5\nresolution = 2\n\n"
            f"[tolerances]\ngram = {gram}\n")
    return write_cfg(tmp_path, "", 2, body=body)


@pytest.mark.parametrize("gram, verdict", [(0.1, True), (0.001, False)])
@pytest.mark.parametrize("command", ["verify", "periodic"])
def test_uep_blocks_state_the_tolerance_the_run_applies(tmp_path, command, gram,
                                                        verdict):
    # haar_q2_perturbed's shift-Gram matrix is off by 0.014; the block and
    # verdicts.gram must judge it against [tolerances] gram alike
    out = str(tmp_path / "report.json")
    assert run([command, "--config", _perturbed_cfg(tmp_path, gram), "--out", out]) == 1
    report = load_report(out)
    assert report["gram"]["tolerance"] == gram
    assert report["gram"]["verdict"] is verdict is report["verdicts"]["gram"]
    if command == "verify":
        bessel = report["bessel"]
        assert bessel["tolerance"] == gram
        assert bessel["verdict"] is (bessel["max_sum"] <= 1 + gram)
        assert bessel["verdict"] is report["verdicts"]["bessel"]


def test_periodic_refuses_a_label_count_past_int64(tmp_path, capsys):
    # qN = 2000002: the labels of scale 3 fit in int64, those of scale 4 do not
    with open(os.path.join(CONFIGS, "nonuniform_q2_N3_r1.masks")) as fh:
        text = fh.read()
    masks = tmp_path / "wide.masks"
    masks.write_text(text.replace("N = 3\n", "N = 1000001\n"))
    body = (f"[masks]\nfile = {masks}\n\n[scales]\nj_max = {{}}\n\n"
            "[suite]\ncount = 2\nresolution = 3\n")
    cfg = write_cfg(tmp_path, "", 2, body=body.format(4))
    start = time.perf_counter()
    assert run(["periodic", "--config", cfg]) == 2
    assert time.perf_counter() - start < 10
    err = capsys.readouterr().err
    assert "scale 4" in err and "Traceback" not in err
    cfg = write_cfg(tmp_path, "", 2, body=body.format(3), name="three.cfg")
    # runs to its verdicts (the masks were made for N = 3, so they fail)
    assert run(["periodic", "--config", cfg, "--out", str(tmp_path / "r.json")]) == 1
