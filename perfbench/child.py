"""One benchmark operation in a fresh interpreter.

Usage (from the root of a walshframes checkout):

  child.py run   SRC RESULT ARGS...  run `walshframes ARGS...` and time the
                                     library calls it makes (see WORK_CALLS)
  child.py trace SRC RESULT ARGS...  run `walshframes ARGS...` under the layer
                                     tracer; spans go to RESULT.trace
  child.py setup SRC CONFIG          import walshframes.cli and, unless CONFIG
                                     is '-', load the run configuration
  child.py sweep SRC CONFIG RESULT   seconds per verify suite function at
                                     several resolutions, member cache warm

SRC is the directory that holds the walshframes package; a package found
anywhere else is refused.  RESULT is a JSON file written at exit.  The
process exits with the command's own exit code.  In the run mode a host
speed sampler (hostspeed.py) runs from the import of walshframes to the
end, and RESULT records its mean unit time as probe_s.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time

import hostspeed

# calls of the cli module whose time is the command's work: the suite for
# verify and periodic, the CSV round trip and the transform for transform
WORK_CALLS = ("verify_report", "periodic_report",
              "load_csv", "fast_transform", "fast_inverse_transform", "dump_csv")

SWEEP_RESOLUTIONS = (4, 5, 6)
SWEEP_FUNCTIONS = 3
SWEEP_SEED = 1


def _import_from(src: str):
    src = os.path.abspath(src)
    sys.path.insert(0, src)
    import walshframes
    import walshframes.cli
    if not os.path.abspath(walshframes.__file__).startswith(src + os.sep):
        sys.exit(f"walshframes imported from {walshframes.__file__}, not {src}")
    return walshframes.cli


def _cache_probe():
    """Keep every member cache the command creates, to report its size."""
    from walshframes.framekit import FrameAnalyzer
    from walshframes.periodic import PeriodicSystemSpec

    caches = {"framekit": [], "periodic": []}
    for key, cls in (("framekit", FrameAnalyzer), ("periodic", PeriodicSystemSpec)):
        init = cls.__init__

        def keep(self, *args, _init=init, _key=key, **kwargs):
            _init(self, *args, **kwargs)
            caches[_key].append(self._members)

        cls.__init__ = keep
    return lambda: {k: sum(len(c) for c in v) for k, v in caches.items()}


def _run(src: str, result: str, argv: list[str], trace: bool) -> int:
    sampler = None if trace else hostspeed.Sampler()
    if sampler:
        sampler.start()
    cli = _import_from(src)
    cache_sizes = _cache_probe()
    work = [0.0]
    if trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    else:
        def timed(fn):
            def call(*args, **kwargs):
                t0 = time.perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    work[0] += time.perf_counter() - t0
            return call

        for name in WORK_CALLS:
            setattr(cli, name, timed(getattr(cli, name)))
    code = 1
    try:
        code = cli.main(argv)
    finally:
        probe = sampler.stop() if sampler else None
        if trace:
            tracer.write(result + ".trace")
        with open(result, "w") as fh:
            json.dump({"exit": code, "work_s": work[0], "probe_s": probe,
                       "member_cache": cache_sizes()}, fh)
    return code


def _setup(src: str, config: str) -> int:
    _import_from(src)
    if config != "-":
        from walshframes.runner import RunConfig
        RunConfig.load(config)
    return 0


def _sweep(src: str, config: str, result: str) -> int:
    """Seconds per suite function of verify's per-function checks at each
    resolution, timed after one function has filled the member cache."""
    _import_from(src)
    from walshframes.framekit import FrameAnalyzer, derive_generators
    from walshframes.runner import RunConfig, suite_functions

    rc = RunConfig.load(config)
    analyzer = FrameAnalyzer(rc.sys, derive_generators(rc.sys, rc.cascade_iterations))

    def check(f):
        for j in range(rc.j0, rc.j1):
            analyzer.two_scale_check(f, j)
        analyzer.frame_ratio(f, rc.j0, rc.j1)

    out = {}
    for k in SWEEP_RESOLUTIONS:
        fns = [f.to_step() for f in
               suite_functions(rc.cfg, k, SWEEP_FUNCTIONS + 1, SWEEP_SEED)]
        check(fns[0])
        times = []
        for f in fns[1:]:
            t0 = time.perf_counter()
            check(f)
            times.append(time.perf_counter() - t0)
        out[f"k{k}"] = statistics.median(times)
    with open(result, "w") as fh:
        json.dump(out, fh)
    return 0


def main(argv: list[str]) -> int:
    mode, src, rest = argv[0], argv[1], argv[2:]
    if mode in ("run", "trace"):
        return _run(src, rest[0], rest[1:], trace=mode == "trace")
    if mode == "setup":
        return _setup(src, rest[0])
    if mode == "sweep":
        return _sweep(src, rest[0], rest[1])
    sys.exit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
