"""Correctness checks of benchmark outputs, and the transform input.

Nothing here imports walshframes: outputs are checked from the files the
commands wrote, so a defect in the library cannot hide itself.
"""

from __future__ import annotations

import csv
import math
import random

CSV_MAGIC = "# walshframes-stepfn v1"

# report number -> the key of the verdict tolerance it is compared against
TOLERANCE_OF = {
    "max_deviation": "tolerance",
    "max_residual": ("tolerance", "residual_tolerance"),
    "max_projector_residual": "tolerance",
    "max_abs_deviation": "tolerance",
    "max_tail": "tail_tolerance",
}
# two runs of the same arithmetic in another order may differ by this much
ROUNDOFF = 1e-9


def _tolerance(block: dict, key: str):
    names = TOLERANCE_OF.get(key, ())
    for name in (names,) if isinstance(names, str) else names:
        if name in block:
            return block[name]
    return None


def compare_report(got: dict, ref: dict, exact: bool, path: str = "") -> list[str]:
    """Differences of a report from the reference report.

    A number that sits below its verdict tolerance in the reference only
    has to stay below it.  With exact, every other number, boolean and null
    of the reference must be present and agree to roundoff; without it
    (another suite seed) only the verdict block and the tolerance rule
    apply.  Strings, such as the version, and keys the reference lacks are
    not compared.
    """
    errors = []
    for key, want in ref.items():
        where = f"{path}.{key}" if path else key
        if key not in got:
            errors.append(f"{where}: missing")
            continue
        have = got[key]
        if key == "verdicts":
            if have != want:
                errors.append(f"verdicts: {have} != recorded {want}")
        elif isinstance(want, dict):
            if not isinstance(have, dict):
                errors.append(f"{where}: not an object")
            else:
                errors.extend(compare_report(have, want, exact, where))
        elif isinstance(want, str):
            continue
        elif _tolerance(ref, key) is not None and want <= _tolerance(ref, key):
            tol = _tolerance(got, key)
            if not isinstance(have, (int, float)) or tol is None or not have <= tol:
                errors.append(f"{where}: {have} not below tolerance {tol}")
        elif not exact:
            continue
        elif isinstance(want, list):
            if not isinstance(have, list) or len(have) != len(want):
                errors.append(f"{where}: {have} != {want}")
            else:
                errors.extend(f"{where}[{i}]: {h} != {w}" for i, (h, w)
                              in enumerate(zip(have, want)) if not _same(h, w))
        elif not _same(have, want):
            errors.append(f"{where}: {have} != {want}")
    return errors


def _same(have, want) -> bool:
    if isinstance(want, bool) or want is None or isinstance(have, bool):
        return have is want
    if isinstance(want, float) and isinstance(have, (int, float)):
        return math.isclose(have, want, rel_tol=ROUNDOFF, abs_tol=0.0)
    return type(have) is type(want) and have == want


# ------------------------------------------------------- transform files --

def write_step_csv(path: str, p: int, c: int, modulus: str, resolution: int,
                   seed: int) -> int:
    """A step function on the unit ball at `resolution`, one cell per coset,
    with standard normal complex amplitudes drawn from `seed`; the format is
    the one walshframes' dump_csv writes.  Returns the cell count."""
    q = p ** c
    rng = random.Random(seed)
    with open(path, "w", newline="") as fh:
        fh.write(f"{CSV_MAGIC} p={p} c={c} modulus={modulus} "
                 f"resolution={resolution}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["lo", "digits", "re", "im"])
        for i in range(q ** resolution):
            # digit at exponent e is base-q digit e of i, lowest exponent first
            digits = [(i // q ** e) % q for e in range(resolution)]
            nz = [e for e, d in enumerate(digits) if d]
            lo = nz[0] if nz else resolution
            writer.writerow([lo, ".".join(map(str, digits[lo:])),
                             repr(rng.gauss(0.0, 1.0)), repr(rng.gauss(0.0, 1.0))])
    return q ** resolution


def read_step_csv(path: str) -> tuple[int, int, dict]:
    """(q, resolution, {(lo, digits): amplitude}) of a step function CSV."""
    with open(path, newline="") as fh:
        header = fh.readline()
        if not header.startswith(CSV_MAGIC):
            raise ValueError(f"{path}: not a step function CSV")
        fields = dict(tok.split("=", 1) for tok in header.split()[3:])
        rows = csv.reader(fh)
        next(rows)
        cells = {(int(r[0]), r[1]): complex(float(r[2]), float(r[3]))
                 for r in rows if r}
    q = int(fields["p"]) ** int(fields["c"])
    return q, int(fields["resolution"]), cells


def _norm2(q: int, resolution: int, cells: dict) -> float:
    return math.fsum(abs(v) ** 2 for v in cells.values()) * float(q) ** (-resolution)


def check_round_trip(source: str, forward: str, back: str) -> list[str]:
    """The inverse of the forward transform reproduces the input cellwise,
    and the forward transform preserves the norm (Parseval)."""
    q, k, cells = read_step_csv(source)
    qf, kf, fwd = read_step_csv(forward)
    qb, kb, out = read_step_csv(back)
    scale = max(abs(v) for v in cells.values())
    errors = []
    if (qb, kb) != (q, k):
        errors.append(f"round trip changed (q, resolution) {(q, k)} -> {(qb, kb)}")
    worst = max(abs(out.get(key, 0j) - v) for key, v in cells.items())
    extra = max((abs(v) for key, v in out.items() if key not in cells), default=0.0)
    if max(worst, extra) > ROUNDOFF * scale:
        errors.append(f"round trip differs from the input by {max(worst, extra):.3e}")
    n_in, n_fwd = _norm2(q, k, cells), _norm2(qf, kf, fwd)
    if not math.isclose(n_in, n_fwd, rel_tol=ROUNDOFF):
        errors.append(f"Parseval: |f|^2 = {n_in!r} but |f^|^2 = {n_fwd!r}")
    return errors
