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
mu = a^-j lambda. So the coefficients of all labels of generator l at
scale j are one inverse character sum R(z) of f^(u(n)) conj(e_n), read at
the digits z of mu on D: one sum per (l, j) pair, and no folded member is
built.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .algebra import cell_digits, cell_index, digit_count
from .errors import ConfigError, DegenerateInput, TruncationError
from .framekit import energy_balance, nu_power, system_member
from .harmonic import _contract, fast_transform
from .stepfn import StepFunction, periodize, rescale

__all__ = [
    "PeriodicSystemSpec",
    "folded_energies",
    "lattice_samples",
    "periodic_tightness_check",
    "periodic_two_scale_check",
    "projection_energy_scan",
]


def lattice_samples(g: StepFunction, m: int) -> np.ndarray:
    """g at the lattice points u(n), n < q^m, per function of a block: the
    value on the cell of u(n), index n q^r // q^-r at g's resolution r, and
    zero past g's window. n // q^x is 0 for x >= m, so x stops at m."""
    q, r = g.cfg.q, g.resolution
    cells = np.arange(q ** m) * q ** max(r, 0) // q ** min(max(-r, 0), m)
    inside = cells < g.values.shape[-1]
    return np.where(inside, g.values[..., np.where(inside, cells, 0)], 0)


class PeriodicSystemSpec:
    """The transforms of the generators (derive_generators) plus a scale
    cap; _members keeps, per (l, j, k), the label counts of the translations
    on D and the lattice samples e of the member that a function at
    resolution k reads.

    A folded member depends on its translation only through the digits z of
    mu that land at exponents 0..m-1, m = min(j, K) with K the folded
    member's resolution, and a function at resolution k reads the first
    d = min(k, m) of them, so the (qN)^j labels of scale j fold onto at most
    q^d cells, the length of the pair's one character sum. Each cell counts
    with its integer label count; the counts sum to exactly (qN)^j, so a
    degenerate family counts every coinciding member as often as it is
    indexed and nothing is deduplicated. The counts are 64-bit integers, so
    a scale cap with (qN)^j_max labels past them is refused.
    """

    __slots__ = ("sys", "transforms", "j_max", "_members")

    def __init__(self, sys, transforms: Sequence[StepFunction], j_max: int):
        if not transforms:
            raise ConfigError("need at least the refinable generator")
        if not isinstance(j_max, int) or j_max < 0:
            raise ConfigError(f"j_max must be a nonnegative integer, got {j_max!r}")
        j = next(j for j in range(64) if sys.qN ** j > np.iinfo(np.int64).max)
        if j_max >= j:   # qN >= 2, so j <= 63 and (qN)^j_max is never formed
            raise ConfigError(f"scale {j} of the folded system has (qN)^{j} = "
                              f"{sys.qN}^{j} labels, too many to count in 64 bits")
        self.sys = sys
        self.transforms = tuple(transforms)
        self.j_max = j_max
        self._members: dict = {}

    def _resolution(self, l: int, j: int) -> int:
        """K, the resolution of the folded members of (l, j): generator l,
        in space, has the resolution -lo(g_l^)."""
        return max(j - self.transforms[l].lo, 0)

    def samples(self, l: int, j: int, k: int) -> tuple[np.ndarray, np.ndarray]:
        """(weights, e) of (l, j) for a function at resolution k: weights[z]
        the label count of the digits z of mu at exponents 0..d-1,
        d = min(k, j, K), and e_n = s^j q^-j g_l^(a^-j u(n)) for n < q^min(k, K),
        the only n where both it and the function's transform can be nonzero."""
        got = self._members.get((l, j, k))
        if got is None:
            sys = self.sys
            q, L, K = sys.q, sys.qN ** j, self._resolution(l, j)
            d = min(k, j, K)
            # digit e of mu = a^-j lambda, as D^j T_lambda g = T_mu D^j g: nu^-j
            # times lambda's digit at e - j, base-q digit j-1-e of n, plus
            # theta's. For e < d, n's digits come from G, the cell at resolution
            # d of the top d digits of n mod q^j, which holds q^(j-d) residues;
            # the map is a bijection per branch, so no two G share a cell.
            G, width = np.arange(q ** d), q ** (j - d)
            cfg, c = sys.field, nu_power(sys, -j)
            weights = np.zeros(q ** d, dtype=np.int64)
            for delta, size in enumerate((L,) if sys.branches == 1 else ((L + 1) // 2, L // 2)):
                cycles, rest = divmod(size, q ** j)
                mu = ((e, cfg.mul_table[c, cfg.add_table[g, delta * sys.theta.coefficient(e - j)]])
                      for e, g in cell_digits(q, G, d, 0))
                weights[cell_index(q, mu, d, out=np.zeros_like(G))] += \
                    cycles * width + np.clip(rest - G * width, 0, width)
            ghat = rescale(self.transforms[l], nu_power(sys, j), -j)
            e = lattice_samples(ghat, min(k, K)) * (sys.dilation_amplitude ** j * float(q) ** -j)
            got = self._members[(l, j, k)] = (weights, e)
        return got

    def member(self, l: int, j: int, label: int) -> StepFunction:
        """periodize(system_member) for the label-th translation at scale j."""
        if not 0 <= j <= self.j_max:
            raise IndexError(f"scale {j} outside [0, {self.j_max}]")
        if not 0 <= label < self.sys.qN ** j:
            raise IndexError(
                f"label {label} outside [0, {self.sys.qN ** j}) at scale {j}")
        return periodize(system_member(l, j, self.sys.branch_index(label), self.sys,
                                       self.transforms))


def folded_energies(f: StepFunction, spec: PeriodicSystemSpec) -> tuple:
    """(S, W, ||f||^2, residuals, total), S and W of shape (j_max + 1,) + block
    shape: S[j] the scaling energy of f at scale j, W[j] its wavelet energy
    (summed over the wavelet generators), and energy_balance(S, W) of them.
    The checks below take them as `energies`, so that a block forms each of
    them once.

    The energy of (l, j) is sum_z weights[z] |R(z)|^2 (see the module
    docstring). f^ is zero past n = q^k and R reads the low d digits of n
    only, q^d = weights.size, so f^ conj(e) is folded onto those digits
    first and each (l, j) pair takes its own inverse character sum."""
    k, q = f.resolution, spec.sys.q
    fhat = lattice_samples(fast_transform(f.window(0)), k)
    E = np.zeros((len(spec.transforms), spec.j_max + 1) + f.values.shape[:-1])
    for l in range(len(spec.transforms)):
        for j in range(spec.j_max + 1):
            weights, e = spec.samples(l, j, k)
            F = fhat[..., :e.size] * np.conj(e)
            F = F.reshape(F.shape[:-1] + (-1, weights.size)).sum(axis=-2)
            d = digit_count(q, weights.size - 1)
            R = _contract(spec.sys.field, F, d, forward=False)
            E[l, j] = np.sum(weights * np.abs(R) ** 2, axis=-1)
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
