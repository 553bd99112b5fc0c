"""Arithmetic for the local field K = GF(q)((t)) in positive characteristic.

Elements are finite Laurent series sum_e c_e * t^e with coefficients in
GF(q), q = p^c. A GF(q) scalar is an integer in [0, q) whose base-p digits
are its coordinates in the power basis {1, z, ..., z^(c-1)} of GF(p)[z]
modulo a configured irreducible polynomial, one with no zero divisor in the
multiplication table. |x| = q^(-v(x)), v(x) the lowest exponent carrying a
nonzero coefficient, and |0| = 0. The ring of integers D = {|x| <= 1}
collects the series supported on exponents >= 0; the prime ideal B = t*D
on exponents >= 1, and B^k on exponents >= k. Haar measure is normalized so
that D has measure 1, hence each coset of B^k has measure q^(-k).

The map n -> u(n) enumerates coset representatives of D: writing n in base
q as sum_i b_i q^i, u(n) = sum_i gf(b_i) * t^(-1-i) where gf(b) is the
scalar with base-p digit vector of b. u is injective, u(0) = 0, and
u(r q^k + s) = u(r) t^(-k) + u(s) for s < q^k.

The digit codec of every module, cell_digits / cell_index / digit_count,
numbers a cell of B^lo / B^k by the integer whose base-q digit k-1-e is the
cell's digit at exponent e: u(n) is the cell of index n at resolution 0.

The additive character chi of K is trivial on D and reads the coordinate
a on 1 of the coefficient at exponent -1: chi(x) = exp(2*pi*i*a/p), an
entry of root_table. harmonic evaluates it on whole digit tables at once.
FieldElement itself appears only in translations and in the field-info
and uindex reports.
"""

from __future__ import annotations

import cmath
import math
from typing import Iterable, NamedTuple

import numpy as np

from .errors import ConfigError

__all__ = [
    "FieldConfig",
    "FieldElement",
    "LambdaIndex",
    "Q_CAP",
    "SystemConfig",
    "cell_digits",
    "cell_index",
    "digit_count",
    "numeral",
    "uindex",
]

NORMALIZATIONS = ("unitary", "qn")

# Largest field order q = p^c that FieldConfig builds. Its q x q tables are
# array passes: GF(1021) takes about 35 ms and 25 MB of peak memory on a
# shared 2-vCPU host, GF(7^3) = 343 about 11 ms and 5 MB.
Q_CAP = 2 ** 10


def numeral(text: str, kind=int):
    """kind(text), int or float, for a text in ASCII without '_': int() and
    float() read '_' and any Unicode digit too. Else ValueError naming text."""
    if not text.isascii() or "_" in text:
        raise ValueError(f"not a plain ASCII numeral: {text!r}")
    return kind(text)


def _is_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


class FieldConfig:
    """Parameters and lookup tables for GF(q) and the field K = GF(q)((t)).

    Inputs name the field through from_text and outputs spell the modulus as
    modulus_text: base-p digits low power first joined by '.', stated exactly
    when c > 1. Every field with c > 1 states its modulus, including one
    built directly: no default stands in. A digit outside [0, p) is refused,
    and so is a reducible modulus, one with a zero divisor in mul_table: once
    the tables are built, about 0.3-0.4 s for GF(2^10) (c - 1 Horner passes).

    Immutable; hashable on (p, c, modulus). All scalar arithmetic reads
    precomputed read-only arrays: add_table and mul_table (q x q),
    neg_table and inv_table (q; inv_table[0] is 0) and root_table (the p-th
    roots of unity). The scalar gf_* methods return Python ints.
    """

    __slots__ = ("p", "c", "q", "modulus", "add_table", "mul_table",
                 "neg_table", "inv_table", "root_table", "_key")

    def __init__(self, p: int, c: int = 1, modulus: Iterable[int] | None = None):
        # bounded before p is tested for primality and before p^c is formed
        if not isinstance(p, int) or not 2 <= p <= Q_CAP or not _is_prime(p):
            raise ConfigError(f"p must be prime and <= Q_CAP = {Q_CAP}, got {p!r}")
        if not isinstance(c, int) or not 1 <= c < Q_CAP.bit_length() or p ** c > Q_CAP:
            raise ConfigError(f"c must be a positive integer with q = p^c <= Q_CAP = "
                              f"{Q_CAP}, got c = {c!r} for p = {p}")
        self.p, self.c, self.q = p, c, p ** c
        if c == 1:
            self.modulus = None
            if modulus is not None:
                raise ConfigError("modulus is only meaningful for c > 1")
        else:
            if modulus is None:
                raise ConfigError(f"a field with c = {c} > 1 must state its modulus")
            modulus = tuple(int(x) for x in modulus)
            bad = [d for d in modulus if not 0 <= d < p]
            if bad:
                raise ConfigError(f"modulus digit {bad[0]} is outside [0, {p})")
            if len(modulus) != c + 1:
                raise ConfigError(f"modulus must have degree {c}")
            if modulus[-1] != 1:
                raise ConfigError("modulus must be monic")
            self.modulus = modulus
        add, mul, neg, inv = self._scalar_tables()
        # a finite commutative ring is a field exactly when it has no zero divisor
        if not mul[1:, 1:].all():
            raise ConfigError(f"modulus {modulus} is reducible over GF({p})")
        # the p = 2 roots are exact, which keeps binary character sums float-exact
        roots = ((1 + 0j, -1 + 0j) if p == 2
                 else [cmath.exp(2j * math.pi * a / p) for a in range(p)])
        tables = [np.asarray(t) for t in (add, mul, neg, inv, roots)]
        for table in tables:
            table.flags.writeable = False
        self.add_table, self.mul_table, self.neg_table, self.inv_table, self.root_table = tables
        self._key = (self.p, self.c, self.modulus)

    @classmethod
    def from_text(cls, p: str, c: str, modulus: str | None) -> "FieldConfig":
        """The field that header strings name, modulus None when not stated;
        ConfigError (a ValueError) for any other spelling or a refused field."""
        try:
            p, c = numeral(p), numeral(c)
            digits = None if modulus is None else tuple(map(numeral, modulus.split(".")))
        except ValueError as exc:
            raise ConfigError(f"field needs integer p, c and modulus digits ({exc})") from exc
        return cls(p, c, digits)

    @property
    def modulus_text(self) -> str | None:
        """The modulus as from_text reads it; None when c = 1."""
        return self.modulus and ".".join(map(str, self.modulus))

    def _scalar_tables(self) -> tuple:
        """GF(q)'s add, mul, neg and inv tables in O(c q^2) array reads:
        digitwise arithmetic mod p, then a * b by Horner's rule over a's
        digits with the multiply-by-z map."""
        p, c = self.p, self.c
        # power-basis digits of every element, high to low, and back to elements
        digits = [d for _, d in cell_digits(p, np.arange(self.q), 0, -c)]

        def element(ds):
            return cell_index(p, zip(range(-c, 0), ds), 0)

        add = element([(x[:, None] + x) % p for x in digits])
        neg = element([-x % p for x in digits])
        scaled = element([np.arange(p)[:, None] * x % p for x in digits])   # d * b, d < p
        mul = scaled[digits[0]]
        if c > 1:
            # z * x: the digits move up one place, and z^c = -(m_0 + ... + m_(c-1) z^(c-1))
            times_z = element([(low - digits[0] * m) % p
                               for low, m in zip(digits[1:] + [0], self.modulus[-2::-1])])
            for x in digits[1:]:
                mul = add[times_z[mul], scaled[x]]
        inv = np.argmax(mul == 1, axis=1)   # row 0 has no 1: entry 0
        return add, mul, neg, inv

    # -- scalar arithmetic ------------------------------------------------

    def gf_add(self, a: int, b: int) -> int:
        return self.add_table.item(a, b)

    def gf_neg(self, a: int) -> int:
        return self.neg_table.item(a)

    def gf_mul(self, a: int, b: int) -> int:
        return self.mul_table.item(a, b)

    def gf_inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 has no inverse in GF(q)")
        return self.inv_table.item(a)

    def gf_digits(self, a: int) -> tuple[int, ...]:
        """a's power-basis coordinates, low to high: the digits of u(a) over GF(p)."""
        return tuple(d for _, d in cell_digits(self.p, a, 0, -self.c))[::-1]

    # -- element constructors ---------------------------------------------

    def zero(self) -> "FieldElement":
        return FieldElement(self, {})

    def monomial(self, coeff: int, exponent: int) -> "FieldElement":
        return FieldElement(self, {exponent: coeff})

    # -- plumbing -----------------------------------------------------------

    def __eq__(self, other):
        return isinstance(other, FieldConfig) and self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        if self.c == 1:
            return f"FieldConfig(p={self.p})"
        return f"FieldConfig(p={self.p}, c={self.c}, modulus={self.modulus})"


class FieldElement:
    """A finite Laurent series over GF(q); immutable and hashable.

    terms is a tuple of (exponent, coefficient) pairs, sorted by exponent,
    with coefficients in [1, q): zero coefficients are never stored, and a
    coefficient outside [0, q) raises ValueError.
    """

    __slots__ = ("cfg", "terms")

    def __init__(self, cfg: FieldConfig, terms: dict[int, int]):
        self.cfg = cfg
        self.terms = tuple(sorted(
            (int(e), int(c)) for e, c in terms.items() if c))
        if any(not 0 < c < cfg.q for _, c in self.terms):
            raise ValueError("coefficients must lie in [0, q)")

    # -- additive group -----------------------------------------------------

    def _same_field(self, other: "FieldElement") -> None:
        if self.cfg != other.cfg:
            raise ValueError("elements belong to different field configs")

    def __add__(self, other: "FieldElement") -> "FieldElement":
        self._same_field(other)
        add = self.cfg.gf_add
        acc = dict(self.terms)
        for e, c in other.terms:
            acc[e] = add(acc.get(e, 0), c)
        return FieldElement(self.cfg, acc)

    def __neg__(self) -> "FieldElement":
        neg = self.cfg.gf_neg
        return FieldElement(self.cfg, {e: neg(c) for e, c in self.terms})

    def __sub__(self, other: "FieldElement") -> "FieldElement":
        return self + (-other)

    def scale(self, a: int) -> "FieldElement":
        """Multiply by the GF(q) scalar a."""
        mul = self.cfg.gf_mul
        return FieldElement(self.cfg, {e: mul(a, c) for e, c in self.terms})

    # -- valuation ------------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def valuation(self) -> int:
        if not self.terms:
            raise ValueError("the zero element has no valuation")
        return self.terms[0][0]

    def norm(self) -> float:
        if not self.terms:
            return 0.0
        return float(self.cfg.q) ** (-self.terms[0][0])

    def coefficient(self, exponent: int) -> int:
        return dict(self.terms).get(exponent, 0)

    # -- plumbing -----------------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, FieldElement)
                and self.cfg == other.cfg and self.terms == other.terms)

    def __hash__(self):
        return hash(self.terms)

    def __repr__(self):
        return f"<{self.text()}>"

    def text(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for e, c in sorted(self.terms, reverse=True):
            if self.cfg.c == 1:
                coeff = str(c)
            else:
                coeff = "(" + ",".join(str(d) for d in self.cfg.gf_digits(c)) + ")"
            parts.append(f"{coeff}*t^{e}")
        return " + ".join(parts)


# ------------------------------------------------------------ digit codec --

def cell_digits(q: int, index, resolution: int, lo: int):
    """(exponent e, digit at e) of the cells with the given table indices
    (an int or an array) over B^lo / B^resolution, ascending in e and made
    one at a time: base-q digit resolution-1-e of the index."""
    return ((e, index // q ** (resolution - 1 - e) % q) for e in range(lo, resolution))


def cell_index(q: int, digits, resolution: int, out=None):
    """Table index at resolution of the cells with digit d at exponent e for
    each (e, d) of digits, ascending in e and below resolution (every other
    digit is 0). Horner's rule: given out (an array), the index accumulates
    in place there, and only the digit being added is alive beside it."""
    index, last = (0 if out is None else out), resolution - 1
    for e, d in digits:
        index *= q ** max(e - last, 0)   # 1 before the first digit
        index += d
        last = e
        del d   # not alive while the next digit is formed
    index *= q ** (resolution - 1 - last)
    return index


def digit_count(q: int, index):
    """Base-q digit count of a table index (an int), or of each index of an
    array: the exponents from a cell's leading nonzero digit to the resolution."""
    if isinstance(index, np.ndarray):
        top = digit_count(q, int(index.max(initial=0)))
        return np.searchsorted(q ** np.arange(top, dtype=np.int64), index, side="right")
    count = 0
    while index:
        index //= q
        count += 1
    return count


def uindex(cfg: FieldConfig, n: int) -> FieldElement:
    """The n-th coset representative of D: base-q digit i of n placed at
    exponent -1-i as a GF(q) scalar, i.e. the cell of index n at resolution 0."""
    if n < 0:
        raise ValueError("uindex is defined on nonnegative integers")
    return FieldElement(cfg, dict(cell_digits(cfg.q, n, 0, -digit_count(cfg.q, n))))


class LambdaIndex(NamedTuple):
    """Index of a translation: the element u(n) + delta * theta."""
    n: int
    delta: int


class SystemConfig:
    """Field, sampling density N, offset index r and normalization mode.

    The dilation is x -> t^(-1) * nu * x with nu a unit scalar, by default
    N mod p, which is refused when it is 0. The translation family pairs the
    lattice {u(n)} with the offset branch {u(n) + theta}, theta = u(r) *
    nu^(-1); for N = 1 only the lattice branch exists. In positive
    characteristic theta always has purely negative exponents, so for N > 1
    the indexed family is a multiset over the lattice; `lambda_degenerate`
    reports this and downstream checks surface it instead of deduplicating.
    A mask header or [system] section states any of the options, each read
    by read_option; the rest take the constructor's defaults, the only copy.
    """

    __slots__ = ("field", "N", "r", "nu", "normalization", "masks",
                 "theta", "branches")

    OPTIONS = {"N": "N", "n": "N", "r": "r", "nu": "dilation_unit",
               "dilation_unit": "dilation_unit", "normalization": "normalization"}

    @classmethod
    def read_option(cls, key: str, text: str) -> tuple[str, int | str]:
        """(parameter, value) that option key, a spelling in OPTIONS, states
        as text; ConfigError naming key as written if the value is malformed."""
        param = cls.OPTIONS[key]
        try:
            return param, text if param == "normalization" else numeral(text)
        except ValueError as exc:
            raise ConfigError(f"system option {key} is malformed ({exc})") from exc

    def __init__(self, field: FieldConfig, N: int = 1, r: int = 1,
                 dilation_unit: int | None = None,
                 normalization: str = "unitary",
                 masks: tuple = ()):
        if not isinstance(N, int) or N < 1:
            raise ConfigError(f"N must be a positive integer, got {N!r}")
        if not isinstance(r, int) or r % 2 == 0:
            raise ConfigError(f"r must be odd, got {r!r}")
        if not 1 <= r <= field.q * N - 1:
            raise ConfigError(f"r must lie in [1, qN-1] = [1, {field.q * N - 1}]")
        if math.gcd(r, N) != 1:
            raise ConfigError(f"r = {r} must be coprime to N = {N}")
        if normalization not in NORMALIZATIONS:
            raise ConfigError(
                f"normalization must be one of {NORMALIZATIONS}, got {normalization!r}")
        if dilation_unit is None and N % field.p == 0:
            raise ConfigError(f"N = {N} is 0 mod {field.p}, so the default dilation_unit "
                              f"N mod p is not a unit: state one")
        nu = N % field.p if dilation_unit is None else int(dilation_unit)
        if not 1 <= nu < field.q:
            raise ConfigError(f"dilation_unit must be a unit of GF({field.q})")
        self.field = field
        self.N = N
        self.r = r
        self.nu = nu
        self.normalization = normalization
        self.masks = tuple(masks)
        self.theta = uindex(field, r).scale(field.gf_inv(nu))
        self.branches = 1 if N == 1 else 2

    # -- derived quantities ---------------------------------------------------

    @property
    def q(self) -> int:
        return self.field.q

    @property
    def qN(self) -> int:
        return self.field.q * self.N

    @property
    def dilation_ratio(self) -> int:
        """s^2 / q for the dilation amplitude s, exactly: 1 in unitary mode, N in qn mode."""
        return 1 if self.normalization == "unitary" else self.N

    @property
    def dilation_amplitude(self) -> float:
        return math.sqrt(self.q * self.dilation_ratio)

    @property
    def mask_norm_const(self) -> float:
        return 1.0 / self.dilation_amplitude

    @property
    def lambda_degenerate(self) -> bool:
        """True when the offset branch exists: theta = u(r) * nu^(-1), r >= 1,
        has negative exponents only, so it folds into the lattice (multiset)."""
        return self.branches == 2

    # -- translation family ---------------------------------------------------

    def lambda_element(self, idx: LambdaIndex) -> FieldElement:
        n, delta = idx
        if n < 0 or delta not in (0, 1) or delta >= self.branches:
            raise ValueError(f"bad lambda index {idx!r}")
        lam = uindex(self.field, n)
        if delta:
            lam = lam + self.theta
        return lam

    def branch_index(self, label: int) -> LambdaIndex:
        """Map an integer translation label to a LambdaIndex."""
        if label < 0:
            raise ValueError("labels are nonnegative")
        if self.N == 1:
            return LambdaIndex(label, 0)
        return LambdaIndex(label // 2, label % 2)

    def with_masks(self, masks: tuple) -> "SystemConfig":
        return SystemConfig(self.field, self.N, self.r, self.nu,
                            self.normalization, tuple(masks))

    def __repr__(self):
        return (f"SystemConfig(q={self.q}, N={self.N}, r={self.r}, nu={self.nu}, "
                f"normalization={self.normalization!r})")
