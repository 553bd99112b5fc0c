"""Lattice folding and the folded wavelet system on the unit ball.

Because every step function here has compact support, folding a function
over the lattice {u(0), u(1), u(2), ...} is a finite sum, and the folded
system at scale j carries the integer labels 0 <= label < (qN)^j. The
checks in this module are the folded counterparts of the frame checks:
a projection-energy scan across scales, the per-scale energy balance,
and the full tight-frame sum with an explicit truncation tail.

The folded energies come from the Fourier side. For f on D, Poisson
summation gives <f, periodize(h)> = sum_n f^(u(n)) conj(h^(u(n))), and
for the member h of label lambda at scale j, h^(u(n)) = e_n
conj(chi(u(n) mu)) with e_n = s^j q^-j g_l^(a^-j u(n)), a = t^(-1) nu and
mu = a^-j lambda. So the coefficients of all labels at scale j are one
inverse character sum R(z) of f^(u(n)) conj(e_n), read at the digits z of
mu on D, and no folded member is built.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .algebra import cell_index
from .errors import ConfigError, DegenerateInput, TruncationError
from .framekit import _generator_transform, energy_balance, nu_power, system_member
from .harmonic import _contract, fast_transform
from .stepfn import CELL_CAP, StepFunction, periodize, refine, rescale

__all__ = [
    "PeriodicSystemSpec",
    "folded_energies",
    "label_entries",
    "lattice_samples",
    "periodic_tightness_check",
    "periodic_two_scale_check",
    "projection_energy_scan",
]


def label_entries(l: int, j: int, rows: int, arrays: int) -> int:
    """Integer entries the label counts of (l, j) hold at once: `arrays`
    arrays of `rows` entries. ConfigError above CELL_CAP, before any exists."""
    count = arrays * rows
    if count > CELL_CAP:
        raise ConfigError(f"the label counts of generator {l} at scale {j} need "
                          f"{count} table entries, above the cap of {CELL_CAP}")
    return count


def lattice_samples(g: StepFunction, m: int) -> np.ndarray:
    """g at the lattice points u(n), n < q^m, per function of a block: the
    value on the cell of u(n) at resolution max(res(g), 0). g's window may
    not reach past B^-m."""
    g = refine(g, max(g.resolution, 0))
    return g.window(-m).values.reshape(g.values.shape[:-1] + (-1, g.cfg.q ** g.resolution))[..., 0]


class PeriodicSystemSpec:
    """Generators plus a scale cap; _members keeps, per (l, j), the label
    counts of the translations on D and the lattice samples e of the member,
    and under the key l the transform of generator l.

    A folded member depends on its translation only through the digits z of
    mu that land at exponents 0..m-1, m = min(j, K) with K the folded
    member's resolution, so the (qN)^j labels of scale j fold onto at most
    q^m distinct members. Each counts with its integer label count; the
    counts sum to exactly (qN)^j, so a degenerate family counts every
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
        self._members: dict = {}

    def _resolution(self, l: int, j: int) -> int:
        """K, the resolution of the folded members of (l, j)."""
        return max(self.generators[l].resolution + j, 0)

    def samples(self, l: int, j: int) -> tuple[np.ndarray, np.ndarray]:
        """(weights, e) of (l, j): weights[z] the label count of the digits z
        of mu at resolution m, and e_n = s^j q^-j g_l^(a^-j u(n)) for
        n < q^K, the only n where it can be nonzero."""
        got = self._members.get((l, j))
        if got is None:
            sys = self.sys
            L = sys.qN ** j
            if L > np.iinfo(np.int64).max:   # the label counts below are int64
                raise ConfigError(f"scale {j} of the folded system has (qN)^{j} = "
                                  f"{sys.qN}^{j} labels, too many to count in 64 bits")
            q, B, K = sys.q, sys.branches, self._resolution(l, j)
            m = min(j, K)
            # residues, label counts, the labels n and delta, m digits, three in flight
            label_entries(l, j, B * q ** j, m + 7)
            # only n mod q^j reaches D after j dilations, so count the labels
            # of each residue instead of enumerating all (qN)^j of them
            residues = np.arange(q ** j)
            per_branch = (L,) if B == 1 else ((L + 1) // 2, L // 2)
            counts = np.concatenate([size // q ** j + (residues < size % q ** j)
                                     for size in per_branch])
            n, delta = np.tile(residues, B), np.repeat(np.arange(B), residues.size)
            # the digits of mu = a^-j lambda at the exponents e of D, as
            # D^j T_lambda g = T_mu D^j g: nu^-j times lambda's digit at e - j,
            # base-q digit j-1-e of n, plus theta's
            cfg, c = sys.field, nu_power(sys, -j)
            mu = {e: cfg.mul_table[c, cfg.add_table[n // q ** (j - 1 - e) % q,
                                                    delta * sys.theta.coefficient(e - j)]]
                  for e in range(m)}
            weights = np.zeros(q ** m, dtype=np.int64)
            np.add.at(weights, cell_index(q, mu.items(), m,
                                          out=np.zeros(counts.size, dtype=np.int64)), counts)
            del mu, residues, counts, n, delta
            ghat = rescale(_generator_transform(self, l), nu_power(sys, j), -j)
            e = lattice_samples(ghat, K) * (sys.dilation_amplitude ** j * float(q) ** -j)
            got = self._members[(l, j)] = (weights, e)
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

    def _groups(self, k: int) -> dict[int, list[tuple[int, int]]]:
        """The (l, j) of every energy, by the digit count min(k, m) of their
        character sums for a function at resolution k."""
        groups: dict[int, list[tuple[int, int]]] = {}
        for l in range(len(self.generators)):
            for j in range(self.j_max + 1):
                groups.setdefault(min(k, j, self._resolution(l, j)), []).append((l, j))
        return groups

    def table_width(self, k: int) -> int:
        """Entries one function at resolution k adds to the largest table the
        folded checks form: its transform, or the stacked character sums of
        the pairs of one digit count. Every pair's label arrays are counted
        first, so a refusal comes before any of them is formed."""
        q, B = self.sys.q, self.sys.branches
        for l in range(len(self.generators)):
            for j in range(self.j_max + 1):
                label_entries(l, j, B * q ** j, min(j, self._resolution(l, j)) + 7)
        return max([q ** k] + [len(pairs) * q ** d for d, pairs in self._groups(k).items()])


def folded_energies(f: StepFunction, spec: PeriodicSystemSpec) -> tuple:
    """(S, W, ||f||^2, residuals, total), S and W of shape (j_max + 1,) + block
    shape: S[j] the scaling energy of f at scale j, W[j] its wavelet energy
    (summed over the wavelet generators), and energy_balance(S, W) of them.
    The checks below take them as `energies`, so that a block forms each of
    them once.

    The energy of (l, j) is sum_z weights[z] |R(z)|^2 (see the module
    docstring). f^ is zero past n = q^k and R reads the low min(k, m) digits
    of n only, so f^ conj(e) is folded onto those digits first; the pairs
    that share that digit count take one inverse character sum together."""
    k = f.resolution
    fhat = lattice_samples(fast_transform(f.window(0)), k)
    E = np.zeros((len(spec.generators), spec.j_max + 1) + f.values.shape[:-1])
    for d, pairs in spec._groups(k).items():
        folded, weights = [], []
        for l, j in pairs:
            w, e = spec.samples(l, j)
            F = fhat[..., :e.size] * np.conj(e[:fhat.shape[-1]])
            folded.append(F.reshape(F.shape[:-1] + (-1, spec.sys.q ** d)).sum(axis=-2))
            weights.append(w.reshape(spec.sys.q ** d, -1).sum(axis=1))
        R = _contract(spec.sys.field, np.array(folded), d, forward=False)
        for (l, j), w, r in zip(pairs, weights, R):
            E[l, j] = np.sum(w * np.abs(r) ** 2, axis=-1)
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
