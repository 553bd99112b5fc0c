"""Field arithmetic tests: GF(q) tables, Laurent elements, the u-indexing.

The GF oracle below multiplies polynomials over Z/p by hand and reduces by
trial division, independently of the table construction in the package.
"""

import cmath
import functools
import itertools
import math
import random
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st
from oracles import (
    chi,
    coset_label_decompose,
    gf_from_digits,
    mul,
    prime_element,
    shift,
    tail,
    truncate,
    uindex_inverse,
)

from walshframes import algebra
from walshframes.algebra import (
    Q_CAP,
    FieldConfig,
    FieldElement,
    LambdaIndex,
    SystemConfig,
    embed_integer,
    uindex,
)
from walshframes.errors import ConfigError, NonUnitScalar


# ---------------------------------------------------------------- oracles --

def _digits(n, p, width):
    out = []
    for _ in range(width):
        n, d = divmod(n, p)
        out.append(d)
    return out


def _undigits(ds, p):
    n = 0
    for d in reversed(ds):
        n = n * p + d
    return n


def oracle_gf_mul(a, b, p, c, modulus):
    """Schoolbook polynomial product reduced mod the modulus, digits mod p."""
    da, db = _digits(a, p, c), _digits(b, p, c)
    prod = [0] * (2 * c - 1)
    for i, x in enumerate(da):
        for j, y in enumerate(db):
            prod[i + j] = (prod[i + j] + x * y) % p
    if modulus is None:
        return prod[0] % p
    mod = list(modulus)
    deg = len(mod) - 1
    for top in range(len(prod) - 1, deg - 1, -1):
        coeff = prod[top]
        if coeff:
            for k in range(deg + 1):
                prod[top - deg + k] = (prod[top - deg + k] - coeff * mod[k]) % p
    return _undigits(prod[:c], p)


def oracle_fe_mul(x, y):
    """x * y as a sum of x's scaled and shifted rows, one per term of y."""
    acc = x.cfg.zero()
    for e, c in y.terms:
        acc = acc + shift(x.scale(c), e)
    return acc


# ----------------------------------------------------------------- GF(q) ---

F2 = FieldConfig(2)
F3 = FieldConfig(3)
F4 = FieldConfig(2, 2, (1, 1, 1))      # z^2 + z + 1
F8 = FieldConfig(2, 3, (1, 1, 0, 1))   # z^3 + z + 1


def test_gf_add_char2():
    assert F2.gf_add(1, 1) == 0
    for a in range(F4.q):
        assert F4.gf_add(a, a) == 0


def test_gf_mul_prime_field():
    assert F3.gf_mul(2, 2) == 1
    for a in range(3):
        for b in range(3):
            assert F3.gf_mul(a, b) == (a * b) % 3


def test_gf_mul_extension_square_of_generator():
    # z * z = z + 1 under z^2 + z + 1; digit vectors (0,1)*(0,1) -> (1,1)
    assert F4.gf_mul(2, 2) == 3
    assert F4.gf_mul(2, 2) == oracle_gf_mul(2, 2, 2, 2, (1, 1, 1))


@pytest.mark.parametrize("cfg", [F2, F3, F4, F8, FieldConfig(5), FieldConfig(3, 2, (1, 0, 1))])
def test_gf_tables_match_oracle_exhaustively(cfg):
    for a in range(cfg.q):
        for b in range(cfg.q):
            assert cfg.gf_mul(a, b) == oracle_gf_mul(a, b, cfg.p, cfg.c, cfg.modulus)
            # addition is digitwise mod p
            da = _digits(a, cfg.p, cfg.c)
            db = _digits(b, cfg.p, cfg.c)
            s = _undigits([(x + y) % cfg.p for x, y in zip(da, db)], cfg.p)
            assert cfg.gf_add(a, b) == s


@pytest.mark.parametrize("cfg", [F2, F3, F4, F8])
def test_gf_inv(cfg):
    with pytest.raises(ZeroDivisionError):
        cfg.gf_inv(0)
    for a in range(1, cfg.q):
        assert cfg.gf_mul(a, cfg.gf_inv(a)) == 1


def test_gf_inv_prime_field_value():
    assert F3.gf_inv(2) == 2


def test_field_config_validation():
    with pytest.raises(ConfigError):
        FieldConfig(4)  # not prime
    with pytest.raises(ConfigError):
        FieldConfig(1)
    with pytest.raises(ConfigError):
        FieldConfig(2, 2, (1, 0, 1))  # z^2+1 = (z+1)^2 over GF(2)
    with pytest.raises(ConfigError):
        FieldConfig(2, 2, (1, 1, 0))  # not monic
    # no default modulus stands in for c > 1, whatever (p, c)
    for p, c in ((3, 2), (2, 2), (2, 3)):
        with pytest.raises(ConfigError, match=f"c = {c} > 1 must state its modulus"):
            FieldConfig(p, c)


def test_field_config_is_bounded_before_it_is_built():
    # p past the cap is refused before its primality is tested
    with mock.patch.object(algebra, "_is_prime", side_effect=AssertionError("tested")), \
            pytest.raises(ConfigError, match=f"p must be prime and <= Q_CAP = {Q_CAP}"):
        FieldConfig(Q_CAP + 1)
    # the first c past the cap for p = 2, and the smallest q = p^c past it with c > 1
    for p, c in ((2, Q_CAP.bit_length()), (11, 3)):
        assert p ** c > Q_CAP
        with pytest.raises(ConfigError, match=rf"q = p\^c <= Q_CAP = {Q_CAP}"):
            FieldConfig(p, c)
    # q = 2^10 is within the cap: refused only for want of a modulus
    with pytest.raises(ConfigError, match="must state its modulus"):
        FieldConfig(2, Q_CAP.bit_length() - 1)


def test_gf_digit_round_trip():
    for cfg in (F4, F8):
        for a in range(cfg.q):
            assert gf_from_digits(cfg, cfg.gf_digits(a)) == a


# ------------------------------------------------------- Laurent elements --

def test_element_canonical_and_zero():
    x = FieldElement(F2, {0: 1, 3: 0})
    assert x.terms == ((0, 1),)
    assert FieldElement(F2, {}).is_zero
    assert F2.zero() == FieldElement(F2, {})


@pytest.mark.parametrize("cfg", [F2, F3, F4])
def test_element_rejects_coefficients_outside_the_field(cfg):
    # a multiple of q used to reduce silently to the zero coefficient
    for bad in (cfg.q, 2 * cfg.q, cfg.q + 1, -1):
        with pytest.raises(ValueError):
            FieldElement(cfg, {0: bad})
    assert FieldElement(cfg, {0: cfg.q - 1}).terms == ((0, cfg.q - 1),)


def test_fe_add_char2_self_cancels():
    x = FieldElement(F2, {0: 1, 1: 1})
    assert (x + x).is_zero


def test_fe_mul_matches_convolution_oracle_simple():
    one_plus_t = FieldElement(F2, {0: 1, 1: 1})
    sq = mul(one_plus_t, one_plus_t)
    assert sq == FieldElement(F2, {0: 1, 2: 1})  # cross terms cancel in char 2
    assert sq == oracle_fe_mul(one_plus_t, one_plus_t)


@pytest.mark.parametrize("cfg", [F2, F3, F4])
def test_fe_mul_matches_convolution_oracle_random(cfg):
    rnd = random.Random(90125 + cfg.q)
    pool = []
    for _ in range(24):
        terms = {
            rnd.randint(-5, 5): rnd.randrange(cfg.q)
            for _ in range(rnd.randint(0, 5))
        }
        pool.append(FieldElement(cfg, terms))
    for x in pool:
        for y in pool[:8]:
            assert mul(x, y) == oracle_fe_mul(x, y)
            assert mul(x, y) == mul(y, x)
            assert x + y == y + x
            assert (x - y) + y == x


def test_norm_and_valuation():
    t = prime_element(F2)
    assert t.norm() == 0.5
    assert uindex(F2, 1).norm() == 2.0
    assert F2.zero().norm() == 0.0
    assert t.valuation() == 1
    with pytest.raises(ValueError):
        F2.zero().valuation()


@pytest.mark.parametrize("cfg", [F2, F3, F4])
def test_norm_ultrametric_and_multiplicative(cfg):
    rnd = random.Random(61 * cfg.q)
    pool = [FieldElement(cfg, {rnd.randint(-4, 4): rnd.randrange(cfg.q)
                               for _ in range(rnd.randint(0, 4))})
            for _ in range(30)]
    for x in pool:
        for y in pool[:10]:
            nx, ny = x.norm(), y.norm()
            assert (x + y).norm() <= max(nx, ny) + 1e-15
            if nx != ny:
                assert (x + y).norm() == max(nx, ny)
            xy = mul(x, y).norm()
            assert math.isclose(xy, nx * ny, rel_tol=1e-12) or xy == nx * ny == 0


def test_truncate_drops_high_exponents():
    x = FieldElement(F2, {-2: 1, 0: 1, 3: 1})
    assert truncate(x, 0) == FieldElement(F2, {-2: 1})
    assert truncate(x, 4) == x
    assert tail(x, 0) == FieldElement(F2, {0: 1, 3: 1})


def test_text_form():
    assert uindex(F2, 5).text() == "1*t^-1 + 1*t^-3"
    assert F2.zero().text() == "0"
    # extension coefficients print as base-p digit tuples
    x = FieldElement(F4, {-1: 2})
    assert x.text() == "(0,1)*t^-1"


# ---------------------------------------------------------------- uindex ---

def test_uindex_base_cases():
    assert uindex(F2, 0).is_zero
    assert uindex(F2, 1) == FieldElement(F2, {-1: 1})
    assert uindex(F2, 6) == FieldElement(F2, {-2: 1, -3: 1})


@pytest.mark.parametrize("cfg", [F2, F3, F4])
def test_uindex_identity(cfg):
    q = cfg.q
    for k in range(4):
        for r in range(q ** 3):
            for s in range(q ** k):
                lhs = uindex(cfg, r * q ** k + s)
                rhs = shift(uindex(cfg, r), -k) + uindex(cfg, s)
                assert lhs == rhs


@pytest.mark.parametrize("cfg", [F2, F3, F4])
def test_uindex_injective_and_negative_support(cfg):
    seen = set()
    for n in range(cfg.q ** 6):
        u = uindex(cfg, n)
        assert all(e < 0 for e, _ in u.terms)
        seen.add(u)
        assert uindex_inverse(u) == n
    assert len(seen) == cfg.q ** 6


def test_translation_set_identity():
    # adding a fixed lattice point permutes the truncated lattice
    for cfg in (F2, F3):
        q = cfg.q
        full = {uindex(cfg, k) for k in range(q ** 6)}
        for ell in (1, q, q ** 2 + 1, q ** 3 - 1):
            shifted = {uindex(cfg, ell) + uindex(cfg, k) for k in range(q ** 6)}
            assert shifted == full


# ------------------------------------------------- system configuration ----

def test_embed_integer():
    assert embed_integer(F2, 3) == 1
    assert embed_integer(F3, 5) == 2
    with pytest.raises(NonUnitScalar):
        embed_integer(F2, 4)


def test_lambda_element_uniform():
    sys = SystemConfig(F2, N=1, r=1)
    assert sys.lambda_element(LambdaIndex(5, 0)) == uindex(F2, 5)
    assert sys.branches == 1


def test_lambda_element_rejects_offset_branch_without_one():
    sys = SystemConfig(F2, N=1, r=1)
    with pytest.raises(ValueError):
        sys.lambda_element(LambdaIndex(0, 1))


def test_lambda_element_nonuniform_char2():
    sys = SystemConfig(F2, N=3, r=1)
    assert sys.nu == 1
    assert sys.lambda_element(LambdaIndex(0, 1)) == FieldElement(F2, {-1: 1})
    assert sys.branches == 2
    assert sys.theta == uindex(F2, 1)
    sys5 = SystemConfig(F2, N=3, r=5)
    assert sys5.theta == uindex(F2, 5)


def test_lambda_element_nonuniform_char3():
    sys = SystemConfig(F3, N=2, r=1)
    assert sys.nu == 2
    assert sys.lambda_element(LambdaIndex(0, 1)) == FieldElement(F3, {-1: 2})


def test_lambda_offset_is_always_a_lattice_point():
    # in positive characteristic theta folds into the lattice: flag material
    for sys in (SystemConfig(F2, N=3, r=1), SystemConfig(F2, N=3, r=5),
                SystemConfig(F3, N=2, r=1)):
        assert all(e < 0 for e, _ in sys.theta.terms)
        assert sys.lambda_degenerate


def test_system_config_validation():
    with pytest.raises(ConfigError):
        SystemConfig(F2, N=3, r=2)  # r even
    with pytest.raises(ConfigError):
        SystemConfig(F2, N=3, r=3)  # gcd(r, N) > 1
    with pytest.raises(ConfigError):
        SystemConfig(F2, N=3, r=7)  # r > qN - 1
    with pytest.raises(NonUnitScalar):
        SystemConfig(F2, N=2, r=1)  # N = 0 in GF(2), no override
    with pytest.raises(ConfigError):
        SystemConfig(F2, N=3, r=1, dilation_unit=0)
    with pytest.raises(ConfigError):
        SystemConfig(F2, N=1, r=1, normalization="fancy")
    # override rescues an even N in char 3
    sys = SystemConfig(F3, N=3, r=1, dilation_unit=2)
    assert sys.nu == 2


def test_default_shift_set():
    sys = SystemConfig(F2, N=1, r=1)
    assert sys.shift_set == (F2.zero(), F2.monomial(1, 0))
    sys3 = SystemConfig(F3, N=1, r=1)
    assert [s.text() for s in sys3.shift_set] == ["0", "1*t^0", "2*t^0"]


def test_coset_label_decompose():
    sys = SystemConfig(F2, N=1, r=1)
    assert coset_label_decompose(sys, 0, 2) == (0, 0)
    assert coset_label_decompose(sys, 7, 2) == (1, 3)
    sys3 = SystemConfig(F2, N=3, r=1)
    assert coset_label_decompose(sys3, 13, 1) == (2, 1)
    with pytest.raises(ValueError):
        coset_label_decompose(sys, -1, 2)
    # bijection on a truncated range
    M = 6 ** 2
    pairs = {coset_label_decompose(sys3, k, 2) for k in range(4 * M)}
    assert len(pairs) == 4 * M


def test_branch_index():
    uni = SystemConfig(F2, N=1, r=1)
    assert uni.branch_index(9) == LambdaIndex(9, 0)
    non = SystemConfig(F2, N=3, r=1)
    assert non.branch_index(9) == LambdaIndex(4, 1)
    assert non.branch_index(8) == LambdaIndex(4, 0)


def test_normalization_amplitudes():
    uni = SystemConfig(F2, N=3, r=1, normalization="unitary")
    qn = SystemConfig(F2, N=3, r=1, normalization="qn")
    assert uni.dilation_amplitude == pytest.approx(math.sqrt(2))
    assert qn.dilation_amplitude == pytest.approx(math.sqrt(6))
    # s^2 / q, exact where the rounded amplitude squared is not
    assert (uni.dilation_ratio, qn.dilation_ratio) == (1, 3)
    assert uni.mask_norm_const == pytest.approx(1 / math.sqrt(2))
    assert qn.mask_norm_const == pytest.approx(1 / math.sqrt(6))


# ------------------------------------------------------- property tests ---

# (2,1), (3,1), (2,2), (2,3) and GF(9) with the explicit modulus z^2 + 1
PROPERTY_FIELDS = (F2, F3, F4, F8, FieldConfig(3, 2, (1, 0, 1)))
PROPERTIES = settings(max_examples=80, deadline=None, derandomize=True,
                      database=None)


@st.composite
def field_triples(draw):
    """A field and three Laurent elements with exponents in [-4, 4]."""
    cfg = draw(st.sampled_from(PROPERTY_FIELDS))
    element = st.dictionaries(st.integers(-4, 4), st.integers(0, cfg.q - 1),
                              max_size=5).map(functools.partial(FieldElement, cfg))
    return cfg, draw(element), draw(element), draw(element)


@PROPERTIES
@given(field_triples())
def test_laurent_field_axioms(case):
    cfg, x, y, z = case
    zero, one = cfg.zero(), cfg.monomial(1, 0)
    assert x + y == y + x and mul(x, y) == mul(y, x)
    assert (x + y) + z == x + (y + z)
    assert mul(mul(x, y), z) == mul(x, mul(y, z))
    assert mul(x, y + z) == mul(x, y) + mul(x, z)
    assert x + zero == x and mul(x, one) == x and mul(x, zero).is_zero
    assert (x + -x).is_zero and x - y == x + -y
    # p x = 0 in characteristic p
    total = zero
    for _ in range(cfg.p):
        total = total + x
    assert total.is_zero


@PROPERTIES
@given(st.sampled_from(PROPERTY_FIELDS), st.data())
def test_gf_scalar_field_axioms(cfg, data):
    a, b, c = (data.draw(st.integers(0, cfg.q - 1)) for _ in range(3))
    add, mul = cfg.gf_add, cfg.gf_mul
    assert add(a, b) == add(b, a) and mul(a, b) == mul(b, a)
    assert add(add(a, b), c) == add(a, add(b, c))
    assert mul(mul(a, b), c) == mul(a, mul(b, c))
    assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
    assert add(a, 0) == a and mul(a, 1) == a and add(a, cfg.gf_neg(a)) == 0
    if a:
        assert mul(a, cfg.gf_inv(a)) == 1
    assert gf_from_digits(cfg, cfg.gf_digits(a)) == a


@PROPERTIES
@given(st.sampled_from(PROPERTY_FIELDS), st.integers(0, 6),
       st.integers(0, 10 ** 6), st.integers(0, 10 ** 6))
def test_uindex_digit_splitting(cfg, k, r, s):
    # u(r q^k + s) = u(r) t^(-k) + u(s) for s < q^k; u is inverted exactly
    s %= cfg.q ** k
    n = r * cfg.q ** k + s
    u = uindex(cfg, n)
    assert u == shift(uindex(cfg, r), -k) + uindex(cfg, s)
    assert uindex_inverse(u) == n
    assert all(e < 0 for e, _ in u.terms)


# ------------------------------------------- tables on random moduli --

def _has_root(modulus, p):
    return any(sum(m * x ** i for i, m in enumerate(modulus)) % p == 0
               for x in range(p))


# a polynomial of degree 2 or 3 is irreducible exactly when it has no root
IRREDUCIBLE = {
    (p, c): [low + (1,) for low in itertools.product(range(p), repeat=c)
             if not _has_root(low + (1,), p)]
    for p in (2, 3, 5, 7) for c in (2, 3)}


@functools.lru_cache(maxsize=None)
def _field(p, c, modulus):
    return FieldConfig(p, c, modulus)


@st.composite
def random_fields(draw):
    """GF(p^c) for p in {2, 3, 5}, c <= 3, on a random monic irreducible
    modulus."""
    p = draw(st.sampled_from((2, 3, 5)))
    c = draw(st.sampled_from((1, 2, 3)))
    return _field(p, c, None if c == 1 else draw(st.sampled_from(IRREDUCIBLE[(p, c)])))


def test_from_text_reads_back_every_irreducible_modulus():
    for (p, c), moduli in IRREDUCIBLE.items():
        for modulus in moduli:
            cfg = _field(p, c, modulus)
            assert FieldConfig.from_text(str(p), str(c), cfg.modulus_text) == cfg


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(p=st.sampled_from((2, 3, 5, 7)), c=st.sampled_from((2, 3)), data=st.data())
def test_from_text_refuses_a_modulus_digit_outside_p(p, c, data):
    # one digit outside [0, p), negative or not, is refused, not reduced mod p
    digits = list(data.draw(st.sampled_from(IRREDUCIBLE[(p, c)])))
    bad = data.draw(st.integers(-3 * p, 3 * p).filter(lambda d: not 0 <= d < p))
    digits[data.draw(st.integers(0, c))] = bad
    with pytest.raises(ConfigError, match=f"modulus digit {bad} is outside"):
        FieldConfig.from_text(str(p), str(c), ".".join(map(str, digits)))


@pytest.mark.parametrize("p, c", itertools.product((2, 3, 5, 7), (1, 2, 3)))
@settings(max_examples=3, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_tables_match_polynomial_arithmetic_on_random_moduli(p, c, data):
    cfg = _field(p, c, None if c == 1 else data.draw(st.sampled_from(IRREDUCIBLE[(p, c)])))
    q = cfg.q
    rows = data.draw(st.sets(st.integers(0, q - 1), min_size=1, max_size=6))
    for a in rows:
        da = _digits(a, p, c)
        for b in range(q):
            db = _digits(b, p, c)
            assert cfg.add_table[a, b] == _undigits(
                [(x + y) % p for x, y in zip(da, db)], p)
            assert cfg.mul_table[a, b] == oracle_gf_mul(a, b, p, c, cfg.modulus)
    for a in range(q):
        assert cfg.neg_table[a] == _undigits([-x % p for x in _digits(a, p, c)], p)
        # the inverse is unique, so the product with it decides it
        if a:
            assert oracle_gf_mul(a, cfg.inv_table[a], p, c, cfg.modulus) == 1
    assert cfg.inv_table[0] == 0
    for a in range(p):
        assert abs(cfg.root_table[a] - cmath.exp(2j * math.pi * a / p)) <= 1e-15
    if p == 2:
        assert cfg.root_table.tolist() == [1, -1]


RANDOM_FIELDS = settings(max_examples=30, deadline=None, derandomize=True,
                         database=None)


@RANDOM_FIELDS
@given(random_fields(), st.data())
def test_tables_are_read_only_and_scalars_are_python_ints(cfg, data):
    a, b = (data.draw(st.integers(0, cfg.q - 1)) for _ in range(2))
    tables = (cfg.add_table, cfg.mul_table, cfg.neg_table, cfg.inv_table,
              cfg.root_table)
    for table in tables:
        with pytest.raises(ValueError):
            table[0] = 0
    assert [table.shape for table in tables] == [
        (cfg.q, cfg.q), (cfg.q, cfg.q), (cfg.q,), (cfg.q,), (cfg.p,)]
    values = [cfg.gf_add(a, b), cfg.gf_mul(a, b), cfg.gf_neg(a)]
    if a:
        values.append(cfg.gf_inv(a))
    assert all(type(v) is int for v in values)
    assert type(chi(cfg.monomial(a, -1))) is complex
    assert all(type(d) is int for d in cfg.gf_digits(a))
    assert type(gf_from_digits(cfg, cfg.gf_digits(a))) is int


@RANDOM_FIELDS
@given(random_fields(), st.integers(0, 6), st.integers(0, 10 ** 6),
       st.integers(0, 10 ** 6))
def test_uindex_places_base_q_digit_i_at_exponent_minus_1_minus_i(cfg, k, r, s):
    q = cfg.q
    s %= q ** k
    n = r * q ** k + s
    u = uindex(cfg, n)
    assert u == shift(uindex(cfg, r), -k) + uindex(cfg, s)
    # n < (10^6 + 1) q^6 has at most 27 base-q digits
    digits = _digits(n, q, 40)
    assert [u.coefficient(-1 - i) for i in range(40)] == digits
    assert all(-40 <= e < 0 for e, _ in u.terms)
    assert uindex_inverse(u) == n and type(uindex_inverse(u)) is int


@RANDOM_FIELDS
@given(random_fields(), st.integers(1, 12), st.data())
def test_offset_branch_is_degenerate_exactly_when_it_exists(cfg, N, data):
    # theta = u(r) nu^(-1) with r >= 1 has negative exponents only, so the
    # offset branch folds into the lattice whenever N > 1 creates it
    qN = cfg.q * N
    r = data.draw(st.sampled_from([r for r in range(1, qN, 2) if math.gcd(r, N) == 1]))
    # N embeds as the default unit unless p divides it
    units = st.integers(1, cfg.q - 1)
    nu = data.draw(units if N % cfg.p == 0 else st.one_of(st.none(), units))
    sys = SystemConfig(cfg, N=N, r=r, dilation_unit=nu)
    assert sys.theta.terms and all(e < 0 for e, _ in sys.theta.terms)
    assert sys.lambda_degenerate == (N > 1)
