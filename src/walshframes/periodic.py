"""Lattice folding and the folded wavelet system on the unit ball.

Because every step function here has compact support, folding a function
over the lattice {u(0), u(1), u(2), ...} is a finite sum, and the folded
system at scale j carries the integer labels 0 <= label < (qN)^j. The
checks in this module are the folded counterparts of the frame checks:
a projection-energy scan across scales, the per-scale energy balance,
and the full tight-frame sum with an explicit truncation tail.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .algebra import LambdaIndex
from .errors import ConfigError, DegenerateInput, TruncationError
from .framekit import MemberBank, cell_integrals, system_member, translation_digits
from .stepfn import StepFunction, periodize

__all__ = [
    "PeriodicSystemSpec",
    "folded_energies",
    "periodic_tightness_check",
    "periodic_two_scale_check",
    "projection_energy_scan",
]


class PeriodicSystemSpec:
    """Generators plus a scale cap, with one folded member bank per (l, j).

    A folded member depends on its translation only through the digits that
    land at exponents 0..j-1 after j dilations, so the (qN)^j labels of
    scale j fold onto at most q^j distinct members. The bank of (l, j) keeps
    each distinct member once, weighted by its integer label count; the
    weights sum to exactly (qN)^j, so a degenerate family counts every
    coinciding member as often as it is indexed and nothing is deduplicated.
    """

    __slots__ = ("sys", "generators", "j_max", "_members")

    def __init__(self, sys, generators: Sequence[StepFunction], j_max: int):
        if not generators:
            raise ConfigError("need at least the refinable generator")
        if not isinstance(j_max, int) or j_max < 0:
            raise ConfigError(f"j_max must be a nonnegative integer, got {j_max!r}")
        self.sys = sys
        self.generators = tuple(generators)
        self.j_max = j_max
        self._members: dict[tuple[int, int], tuple] = {}

    def bank(self, l: int, j: int) -> tuple[MemberBank, np.ndarray, np.ndarray]:
        """(bank, label count of each row, folded key of each row) at (l, j)."""
        got = self._members.get((l, j))
        if got is None:
            sys = self.sys
            h = periodize(system_member(l, j, LambdaIndex(0, 0), sys,
                                        self.generators))
            q, K = sys.q, h.resolution
            # only n mod q^j reaches D after j dilations, so count the labels
            # of each residue instead of enumerating all (qN)^j of them
            residues = np.arange(q ** j)
            L = sys.qN ** j
            per_branch = (L,) if sys.branches == 1 else ((L + 1) // 2, L // 2)
            counts = np.concatenate([m // residues.size + (residues < m % residues.size)
                                     for m in per_branch])
            n = np.tile(residues, sys.branches)
            delta = np.repeat(np.arange(sys.branches), residues.size)
            mu = translation_digits(sys, j, n, delta, 0, K)
            keys, first, rows = np.unique(_folded_key(mu, q, K, n.size),
                                          return_index=True, return_inverse=True)
            weights = np.zeros(keys.size, dtype=np.int64)
            np.add.at(weights, rows, counts)
            bank = MemberBank(h, {e: d[first] for e, d in mu.items()},
                              (keys.size,))
            got = self._members[(l, j)] = (bank, weights, keys)
        return got

    def member(self, l: int, j: int, label: int) -> StepFunction:
        """periodize(system_member) for the label-th translation at scale j."""
        if not 0 <= j <= self.j_max:
            raise IndexError(f"scale {j} outside [0, {self.j_max}]")
        if not 0 <= label < self.sys.qN ** j:
            raise IndexError(
                f"label {label} outside [0, {self.sys.qN ** j}) at scale {j}")
        bank, _, keys = self.bank(l, j)
        n, delta = self.sys.branch_index(label)
        K = bank.resolution
        mu = translation_digits(self.sys, j, np.array([n]), np.array([delta]), 0, K)
        row = np.searchsorted(keys, _folded_key(mu, self.sys.q, K, 1)[0])
        values = np.zeros(self.sys.q ** K, dtype=complex)
        values[bank.cells[row]] = np.conj(bank.conj_values)
        return StepFunction(self.sys.field, K, values)


def _folded_key(mu: dict[int, np.ndarray], q: int, K: int, size: int) -> np.ndarray:
    """The translation digits on D as one integer per index."""
    key = np.zeros(size, dtype=np.int64)
    for e, d in mu.items():
        key += d * q ** (K - 1 - e)
    return key


def _energy(f: StepFunction, l: int, j: int,
            spec: PeriodicSystemSpec) -> float:
    """sum over the labels of scale j of |<f, member(l, j, label)>|^2."""
    bank, weights, _ = spec.bank(l, j)
    integrals = cell_integrals(f.window(0).values, f.resolution, bank.resolution,
                               f.cfg.q)
    coeffs = bank.coefficients(integrals, bank.cells)
    return float(np.sum(weights * np.abs(coeffs) ** 2))


def folded_energies(f: StepFunction, spec: PeriodicSystemSpec
                    ) -> tuple[list[float], list[float]]:
    """(S, W) for 0 <= j <= j_max: S[j] the scaling energy of f at scale j,
    W[j] its wavelet energy (summed over the wavelet generators), each bank
    reduced once. The checks below take them as `energies`, so that one
    suite function computes them once for all three."""
    scales = range(spec.j_max + 1)
    return ([_energy(f, 0, j, spec) for j in scales],
            [sum(_energy(f, l, j, spec) for l in range(1, len(spec.generators)))
             for j in scales])


def projection_energy_scan(f: StepFunction, eps: float,
                           spec: PeriodicSystemSpec, energies=None):
    """Per-scale scaling energies S_j and the smallest J from which every
    S_j stays within (1 +- eps) of the squared norm, None if none does."""
    if eps <= 0:
        raise ConfigError(f"scan slack must be positive, got {eps!r}")
    n2 = f.norm2()
    if n2 == 0.0:
        raise DegenerateInput("projection scan of the zero function")
    S, _ = energies or folded_energies(f, spec)
    sums = dict(enumerate(S))
    J = None
    for start in range(spec.j_max + 1):
        if all((1 - eps) * n2 <= sums[j] <= (1 + eps) * n2
               for j in range(start, spec.j_max + 1)):
            J = start
            break
    return J, sums


def periodic_two_scale_check(f: StepFunction, j: int,
                             spec: PeriodicSystemSpec, energies=None) -> float:
    """|scaling energy at j+1  -  scaling energy at j - wavelet energy at j|,
    for 0 <= j < j_max."""
    if not 0 <= j < spec.j_max:
        raise IndexError(f"scale {j} outside [0, {spec.j_max})")
    S, W = energies or folded_energies(f, spec)
    return abs(S[j + 1] - (S[j] + W[j]))


def periodic_tightness_check(f: StepFunction, spec: PeriodicSystemSpec,
                             energies=None) -> dict:
    """Full folded frame sum against the squared norm.

    Scales 0 <= j < j_max are summed explicitly; the returned tail is the
    wavelet energy at the first omitted scale j_max, which vanishes for
    inputs the scale cap resolves (wavelet members at that scale have zero
    mean on every cell where f is constant). Inputs finer than the cap
    raise TruncationError instead of returning a silently short sum.
    """
    if spec.j_max < f.resolution:
        raise TruncationError(
            f"scale cap {spec.j_max} cannot resolve a resolution-"
            f"{f.resolution} input")
    S, W = energies or folded_energies(f, spec)
    total = S[0]
    for j in range(spec.j_max):
        total += W[j]
    n2 = f.norm2()
    return {
        "total": total,
        "norm2": n2,
        "residual": abs(total - n2),
        "tail": W[spec.j_max],
    }
