"""walshframes benchmark: end-to-end metrics, or per-layer metrics with --trace 1.

Run from the root of a walshframes checkout:

  python3 perfbench/run.py --workload verify-q3 --seed 1 --seconds 30 --trace 0

Each operation is one `walshframes` command (two for transform-q4) in a
fresh interpreter, one process at a time, in a closed loop: the next
operation starts when the previous one has exited.  Every output is checked.
The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it give each metric's
quartiles and sample count, and the run's context.  perfbench/README.md
describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import configparser
import importlib.metadata
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import check
import hostspeed

HERE = Path(__file__).resolve().parent
CHILD = HERE / "child.py"
REFERENCE = HERE / "reference"

# BLAS and OpenMP pools of the children: one thread, so the two CPUs of a
# small machine do not turn one operation's timing into a scheduling race
CHILD_THREADS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
                 "MKL_NUM_THREADS": "1"}
SETUP_SPAWNS_PER_OP = 3
SWEEP_CONFIG = "configs/fourier_q3.cfg"
PROCESS_TIMEOUT_S = 150.0


@dataclass(frozen=True)
class Workload:
    command: str
    config: str


@dataclass(frozen=True)
class TransformWorkload:
    p: int
    c: int
    modulus: str
    resolution: int


WORKLOADS = {
    "verify-q3": Workload("verify", "configs/fourier_q3.cfg"),
    "periodic-nu6": Workload("periodic", "configs/nonuniform_q2_N3_r5.cfg"),
    "transform-q4": TransformWorkload(2, 2, "1.1.1", 8),
}

END_TO_END = {"wall_s": "s", "setup_s": "s", "items_per_s": "1/s",
              "peak_rss_mb": "MB"}

PER_LAYER = [
    ("algebra.element.count", "count"),
    ("algebra.uindex.calls", "count"),
    ("algebra.lambda_element.calls", "count"),
    ("stepfn.inner.calls", "count"),
    ("stepfn.inner.self_s", "s"),
    ("stepfn.refine.calls", "count"),
    ("stepfn.refine.self_s", "s"),
    ("stepfn.translate.self_s", "s"),
    ("stepfn.dilate.self_s", "s"),
    ("stepfn.periodic_inner.calls", "count"),
    ("stepfn.periodic_inner.self_s", "s"),
    ("stepfn.load_csv.self_s", "s"),
    ("stepfn.dump_csv.self_s", "s"),
    ("harmonic.fast_transform.self_s", "s"),
    ("harmonic.fast_inverse_transform.self_s", "s"),
    ("harmonic.inverse_transform.calls", "count"),
    ("harmonic.inverse_transform.self_s", "s"),
    ("framekit.coefficient_row.calls", "count"),
    ("framekit.coefficient_row.self_s", "s"),
    ("framekit.coefficient_row.overlap_ratio", "ratio"),
    ("framekit.member.calls", "count"),
    ("framekit.member.builds", "count"),
    ("framekit.member.hit_ratio", "ratio"),
    ("framekit.two_scale_check.self_s", "s"),
    ("framekit.frame_ratio.self_s", "s"),
    ("framekit.derive_generators.self_s", "s"),
    ("framekit.uep_gram.self_s", "s"),
    ("periodic.member.calls", "count"),
    ("periodic.member.builds", "count"),
    ("periodic.member.hit_ratio", "ratio"),
    ("periodic.member.self_s", "s"),
    ("periodic.scan.self_s", "s"),
    ("periodic.two_scale.self_s", "s"),
    ("periodic.tightness.self_s", "s"),
    ("runner.load.self_s", "s"),
    ("runner.report.self_s", "s"),
    ("runner.render.self_s", "s"),
    ("framekit.suite_fn_s.k4", "s"),
    ("framekit.suite_fn_s.k5", "s"),
    ("framekit.suite_fn_s.k6", "s"),
    ("trace.overhead_s", "s"),
]


class Bench:
    """One benchmark run in a checkout: children, scratch files, results."""

    def __init__(self, root: Path, name: str, seed: int):
        self.root = root
        self.name = name
        self.workload = WORKLOADS[name]
        self.src = str(root / "src")
        self.seed = seed
        self.env = dict(os.environ, **CHILD_THREADS)
        # children import only the checkout's src/, and keep its bytecode
        # cache as an installed package would
        for var in ("PYTHONPATH", "PYTHONDONTWRITEBYTECODE"):
            self.env.pop(var, None)
        self.errors: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.member_cache: dict = {}
        base = root / ".perfbench_run"
        base.mkdir(exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=base))
        if isinstance(self.workload, TransformWorkload):
            w = self.workload
            self.input = str(self.tmp / "input.csv")
            self.cells = check.write_step_csv(
                self.input, w.p, w.c, w.modulus, w.resolution, seed)
        else:
            self.reference = json.loads(
                (REFERENCE / f"{name}.json").read_text())
            self.expect_exit = 0 if self.reference["verdicts"]["overall"] else 1
            cfg = configparser.ConfigParser()
            cfg.read(root / self.workload.config)
            q = cfg.getint("field", "p") ** cfg.getint("field", "c", fallback=1)
            self.count = cfg.getint("suite", "count")
            self.cells = self.count * q ** cfg.getint("suite", "resolution")

    def close(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)
        try:
            self.tmp.parent.rmdir()
        except OSError:
            pass   # another run is using it

    # -- processes ---------------------------------------------------------

    def spawn(self, args: list[str]) -> dict:
        """Run one child to its end: exit code, wall seconds, peak RSS, stderr."""
        err_path = self.tmp / "stderr.txt"
        with open(err_path, "w") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable, str(CHILD), *args],
                                    cwd=self.root, env=self.env,
                                    stdin=subprocess.DEVNULL,
                                    stdout=subprocess.DEVNULL, stderr=err)
            timer = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                # wait4 reaps the child and gives its own peak RSS
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return {"exit": proc.returncode, "wall": wall,
                "rss_mb": usage.ru_maxrss / 1024.0, "stderr": err_path.read_text()}

    def command(self, mode: str, argv: list[str]) -> tuple[dict, dict]:
        """One walshframes command through child.py; returns (process, result)."""
        result = str(self.tmp / "result.json")
        if os.path.exists(result):
            os.remove(result)
        proc = self.spawn([mode, self.src, result, *argv])
        try:
            with open(result) as fh:
                out = json.load(fh)
        except (OSError, ValueError):
            out = {}
        if "Traceback" in proc["stderr"]:
            tail = proc["stderr"].strip().splitlines()[-1]
            self.errors.append(f"traceback: {tail}")
        return proc, out

    # -- operations ----------------------------------------------------------

    def operation(self, i: int, mode: str = "run") -> dict:
        """Operation i of this run; records its failures and returns its
        wall time, peak RSS, work time and trace files."""
        before = len(self.errors)
        if isinstance(self.workload, TransformWorkload):
            op = self._transform_op(mode)
        else:
            op = self._suite_op(i, mode)
        self.attempted += 1
        if len(self.errors) > before:
            self.failed += 1
        return op

    def suite_seed(self, i: int):
        """Operation 0 runs the config's own seed, whose report is compared
        number by number with the reference; the others draw from --seed."""
        if i == 0:
            return None
        return random.Random(f"{self.name}:{self.seed}:{i}").getrandbits(63)

    def _suite_op(self, i: int, mode: str) -> dict:
        w = self.workload
        seed = self.suite_seed(i)
        report_path = str(self.tmp / "report.json")
        argv = [w.command, "--config", w.config, "--out", report_path]
        if seed is not None:
            argv += ["--seed", str(seed)]
        proc, out = self.command(mode, argv)
        if proc["exit"] != self.expect_exit:
            self.errors.append(
                f"exit {proc['exit']}, recorded {self.expect_exit}: "
                f"{proc['stderr'].strip()[-300:]}")
        try:
            with open(report_path) as fh:
                report = json.load(fh)
        except (OSError, ValueError) as exc:
            self.errors.append(f"no report: {exc}")
        else:
            os.remove(report_path)
            self.errors.extend(check.compare_report(
                report, self.reference, exact=seed is None))
            got_seed = report.get("config", {}).get("seed")
            if seed is not None and got_seed != seed:
                self.errors.append(f"report seed {got_seed}, requested {seed}")
        self.member_cache = out.get("member_cache", {})
        probe = out.get("probe_s")
        return {"wall": proc["wall"], "rss_mb": proc["rss_mb"],
                "work": out.get("work_s"),
                "wall_ref": _at_reference(proc["wall"], probe),
                "work_ref": _at_reference(out.get("work_s"), probe),
                "traces": [self.tmp / "result.json.trace"]}

    def _transform_op(self, mode: str) -> dict:
        fwd, back = str(self.tmp / "forward.csv"), str(self.tmp / "back.csv")
        wall = work = rss = wall_ref = work_ref = 0.0
        traces = []
        for direction, src, dst in (("forward", self.input, fwd),
                                    ("inverse", fwd, back)):
            proc, out = self.command(mode, ["transform", src, "--direction",
                                            direction, "--out", dst])
            if proc["exit"] != 0:
                self.errors.append(f"transform --direction {direction}: exit "
                                   f"{proc['exit']}: {proc['stderr'].strip()[-300:]}")
                return {"wall": wall, "rss_mb": rss, "work": None,
                        "wall_ref": None, "work_ref": None, "traces": traces}
            wall += proc["wall"]
            work += out.get("work_s", 0.0)
            if mode == "run":
                wall_ref += _at_reference(proc["wall"], out["probe_s"])
                work_ref += _at_reference(out["work_s"], out["probe_s"])
            rss = max(rss, proc["rss_mb"])
            trace = self.tmp / f"{direction}.trace"
            if mode == "trace":
                os.replace(self.tmp / "result.json.trace", trace)
                os.replace(self.tmp / "result.json.trace.spans",
                           str(trace) + ".spans")
            traces.append(trace)
        self.errors.extend(check.check_round_trip(self.input, fwd, back))
        return {"wall": wall, "rss_mb": rss, "work": work, "wall_ref": wall_ref,
                "work_ref": work_ref, "traces": traces}

    def items(self) -> int:
        """Work items of one operation: suite functions checked, or input
        cells transformed over both directions."""
        if isinstance(self.workload, TransformWorkload):
            return 2 * self.cells
        return self.count

    # -- runs ----------------------------------------------------------------

    def setup_times(self, n: int) -> list[float]:
        """Wall seconds of n set-up spawns."""
        config = "-" if isinstance(self.workload, TransformWorkload) \
            else self.workload.config
        times = []
        for _ in range(n):
            proc = self.spawn(["setup", self.src, config])
            if proc["exit"] != 0:
                raise SystemExit(f"set-up failed: {proc['stderr'].strip()}")
            times.append(proc["wall"])
        return times

    def measure(self, seconds: float) -> tuple[dict, dict]:
        """Operations in a closed loop for about `seconds`.  Each metric is
        a median over the run of times scaled to the reference host speed
        (hostspeed.py); the summary also gives them as measured."""
        self.setup_times(1)   # fills the bytecode caches; not a sample
        rounds = []
        t0 = time.perf_counter()
        while True:
            setup = self.setup_times(SETUP_SPAWNS_PER_OP)
            rounds.append((setup, self.operation(len(rounds))))
            elapsed = time.perf_counter() - t0
            step = statistics.median(op["wall"] for _, op in rounds) \
                + SETUP_SPAWNS_PER_OP * statistics.median(
                    t for setup, _ in rounds for t in setup)
            if elapsed + step > seconds:
                break
        ops = [op for _, op in rounds]
        scaled = [(setup, op) for setup, op in rounds if op["wall_ref"]]
        samples = {
            "wall_s": [op["wall_ref"] for _, op in scaled],
            # a set-up spawn is too short to sample the host speed well;
            # it takes the scale of the operation that follows it
            "setup_s": [t * op["wall_ref"] / op["wall"]
                        for setup, op in scaled for t in setup],
            "items_per_s": [self.items() / op["work_ref"]
                            for _, op in scaled if op["work_ref"]],
            "peak_rss_mb": [op["rss_mb"] for op in ops],
            "raw_wall_s": [op["wall"] for op in ops],
            "raw_setup_s": [t for setup, _ in rounds for t in setup],
            "raw_items_per_s": [self.items() / op["work"]
                                for op in ops if op["work"]],
        }
        metrics = {name: {"value": _median(samples[name]), "unit": unit}
                   for name, unit in END_TO_END.items()}
        return metrics, samples

    def traced(self) -> tuple[dict, dict]:
        """One untraced and one traced operation on the config's own seed,
        then the resolution sweep."""
        import layers

        plain = self.operation(0)
        traced = self.operation(0, mode="trace")
        metrics = layers.per_layer([str(t) for t in traced["traces"]])
        metrics["trace.overhead_s"] = traced["wall"] - plain["wall"]
        sweep_out = str(self.tmp / "sweep.json")
        proc = self.spawn(["sweep", self.src, SWEEP_CONFIG, sweep_out])
        if proc["exit"] != 0:
            raise SystemExit(f"resolution sweep failed: {proc['stderr'].strip()}")
        sweep = json.loads(Path(sweep_out).read_text())
        for k in (4, 5, 6):
            metrics[f"framekit.suite_fn_s.k{k}"] = sweep[f"k{k}"]
        samples = {"plain_wall_s": [plain["wall"]], "traced_wall_s": [traced["wall"]]}
        return ({name: {"value": metrics[name], "unit": unit}
                 for name, unit in PER_LAYER}, samples)

    def context(self) -> dict:
        src_lines = sum(len(p.read_text().splitlines())
                        for p in sorted((self.root / "src").rglob("*.py")))
        return {
            "workload": self.name,
            "seed": self.seed,
            "input_cells": self.cells,
            "member_cache": self.member_cache,
            "src_lines": src_lines,
            "python": platform.python_version(),
            "numpy": importlib.metadata.version("numpy"),
            "nproc": os.cpu_count(),
            "child_threads": CHILD_THREADS,
            "loop": "closed, one client, one process at a time",
        }


def _at_reference(seconds: float | None, probe: float | None) -> float | None:
    if seconds is None or probe is None:
        return None
    return seconds * hostspeed.scale(probe)


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return (values[0],) * 3 if values else (0.0,) * 3
    return tuple(statistics.quantiles(values, n=4))


def _print_summary(bench: Bench, metrics: dict, samples: dict,
                   traced: bool) -> None:
    rate = "cells_per_s" if isinstance(bench.workload, TransformWorkload) \
        else "suite_fn_per_s"
    for name, values in samples.items():
        unit = END_TO_END.get(name.removeprefix("raw_"), "s")
        q1, q2, q3 = _quartiles(values)
        label = name.replace("items_per_s", f"items_per_s ({rate})")
        print(f"{label:<34} median {q2:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
              f"n={len(values):<3} {unit}")
    print("samples: " + json.dumps(samples))
    if traced:
        for name, m in metrics.items():
            print(f"{name:<42} {m['value']:<14.6g} {m['unit']}")
    print(f"{'fail_frac':<34} {bench.failed / bench.attempted:<12.6g} "
          f"({bench.failed} of {bench.attempted} operations failed)")
    for error in bench.errors[:20]:
        print(f"FAILED: {error}")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="measure for about this long; a traced run makes a "
                         "fixed number of operations instead")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: per-layer metrics from a traced run")
    args = ap.parse_args(argv)

    root = Path.cwd()
    workload = WORKLOADS[args.workload]
    needed = {"src/walshframes/cli.py", SWEEP_CONFIG}
    if isinstance(workload, Workload):
        needed.add(workload.config)
    missing = sorted(p for p in needed if not (root / p).is_file())
    if missing:
        print(f"error: run from the root of a walshframes checkout; missing "
              f"{', '.join(missing)}", file=sys.stderr)
        return 2

    bench = Bench(root, args.workload, args.seed)
    try:
        if args.trace:
            metrics, samples = bench.traced()
        else:
            metrics, samples = bench.measure(args.seconds)
        context = bench.context()
    finally:
        bench.close()
    _print_summary(bench, metrics, samples, traced=bool(args.trace))
    print("context: " + json.dumps(context, sort_keys=True))
    print(json.dumps({"correct": bench.failed == 0, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
