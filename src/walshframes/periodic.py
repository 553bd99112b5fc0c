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

from .algebra import LambdaIndex, cell_digits, cell_index
from .errors import ConfigError, DegenerateInput, TruncationError
from .framekit import (MemberBank, bank_entries, energy_balance, system_member,
                       translation_digits)
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
        self._members: dict[tuple[int, int], MemberBank] = {}

    def bank(self, l: int, j: int) -> MemberBank:
        """The bank of (l, j), each row weighted by its label count. On D, the
        translations of scale j have digits below the exponent m = min(j, K)
        only, taking all q^m values there; row r is the one whose digits are
        r's at resolution m."""
        got = self._members.get((l, j))
        if got is None:
            sys = self.sys
            L = sys.qN ** j
            if L > np.iinfo(np.int64).max:   # the label counts below are int64
                raise ConfigError(f"scale {j} of the folded system has (qN)^{j} = "
                                  f"{sys.qN}^{j} labels, too many to count in 64 bits")
            h = periodize(system_member(l, j, LambdaIndex(0, 0), sys,
                                        self.generators))
            q, B, m = sys.q, sys.branches, min(j, h.resolution)
            # residues, label counts, the labels n and delta, m digits, three in flight
            bank_entries(l, j, B * q ** j, m + 7, q ** m * np.count_nonzero(h.values))
            # only n mod q^j reaches D after j dilations, so count the labels
            # of each residue instead of enumerating all (qN)^j of them
            residues = np.arange(q ** j)
            per_branch = (L,) if B == 1 else ((L + 1) // 2, L // 2)
            counts = np.concatenate([c // q ** j + (residues < c % q ** j) for c in per_branch])
            mu = translation_digits(sys, j, np.tile(residues, B),
                                    np.repeat(np.arange(B), residues.size), 0, h.resolution)
            weights = np.zeros(q ** m, dtype=np.int64)
            np.add.at(weights, cell_index(q, mu.items(), m,
                                          out=np.zeros(counts.size, dtype=np.int64)), counts)
            del mu, residues, counts   # not alive while the bank is built
            got = self._members[(l, j)] = MemberBank(
                h, dict(cell_digits(q, np.arange(q ** m), m, 0)), (q ** m,), weights)
        return got

    def member(self, l: int, j: int, label: int) -> StepFunction:
        """periodize(system_member) for the label-th translation at scale j."""
        if not 0 <= j <= self.j_max:
            raise IndexError(f"scale {j} outside [0, {self.j_max}]")
        if not 0 <= label < self.sys.qN ** j:
            raise IndexError(
                f"label {label} outside [0, {self.sys.qN ** j}) at scale {j}")
        return periodize(system_member(l, j, self.sys.branch_index(label), self.sys,
                                       self.generators))

    def table_width(self) -> int:
        """Entries one function adds to the largest table the folded checks
        form: a bank's gather or f's cell table (cell_table) at the bank's resolution.
        Each bank's label arrays are counted first, from the resolution of its
        member, max(res_l + j, 0): a refusal comes before any member is formed."""
        q, B, scales = self.sys.q, self.sys.branches, range(self.j_max + 1)
        for l, g in enumerate(self.generators):
            for j in scales:
                bank_entries(l, j, B * q ** j, min(j, max(g.resolution + j, 0)) + 7, 0)
        banks = (self.bank(l, j) for l in range(len(self.generators)) for j in scales)
        return max(max(b.cells.size, q ** b.resolution + 1) for b in banks)


def folded_energies(f: StepFunction, spec: PeriodicSystemSpec) -> tuple:
    """(S, W, ||f||^2, residuals, total), S and W of shape (j_max + 1,) + block
    shape: S[j] the scaling energy of f at scale j, W[j] its wavelet energy
    (summed over the wavelet generators), each bank reduced once, and
    energy_balance(S, W) of them. The checks below take them as `energies`,
    so that a block forms each of them once."""
    tables: dict = {}
    banks = [[spec.bank(l, j) for j in range(spec.j_max + 1)]
             for l in range(len(spec.generators))]
    E = np.array([[b.energy(b.gather(f, 0, tables)) for b in row] for row in banks])
    S, W = E[0], E[1:].sum(axis=0)
    return (S, W, f.norm2()) + energy_balance(S, W)


def projection_energy_scan(f: StepFunction, eps: float,
                           spec: PeriodicSystemSpec, energies: tuple):
    """Per-scale scaling energies S_j and the smallest J from which every
    S_j stays within (1 +- eps) of the squared norm, None if none does:
    (J, {j: S_j}), or for a block (one J per function, S as an array)."""
    if eps <= 0:
        raise ConfigError(f"scan slack must be positive, got {eps!r}")
    S, _, n2, _, _ = energies
    if np.any(n2 == 0.0):
        raise DegenerateInput("projection scan of the zero function")
    inside = ((1 - eps) * n2 <= S) & (S <= (1 + eps) * n2)
    # J opens the run of in-band scales that reaches j_max
    run = np.logical_and.accumulate(inside[::-1], axis=0).sum(axis=0)
    Js = [int(J) if J <= spec.j_max else None for J in np.ravel(S.shape[0] - run)]
    if S.ndim == 1:
        return Js[0], dict(enumerate(S.tolist()))
    return Js, S


def periodic_two_scale_check(f: StepFunction, j: int, spec: PeriodicSystemSpec):
    """|scaling energy at j+1  -  scaling energy at j - wavelet energy at j|,
    for 0 <= j < j_max: energy_balance's residual of step j."""
    if not 0 <= j < spec.j_max:
        raise IndexError(f"scale {j} outside [0, {spec.j_max})")
    return folded_energies(f, spec)[3][j]


def periodic_tightness_check(f: StepFunction, spec: PeriodicSystemSpec,
                             energies: tuple) -> dict:
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
    _, W, n2, _, total = energies
    return {
        "total": total,
        "norm2": n2,
        "residual": np.abs(total - n2),
        "tail": W[spec.j_max],
    }
