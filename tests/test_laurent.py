import operator
import random

import pytest
from hypothesis import given, settings, strategies as st

from polyhodge.laurent import (
    NEG_INF,
    VARS,
    LaurentPoly,
    ONE,
    T,
    U,
    V,
    W,
    ZERO,
    power_sum,
    univariate,
)

SETTINGS = settings(max_examples=200, deadline=None)


def naive_product(a: dict, b: dict) -> dict:
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def test_binomial_square():
    p = U * V - 1
    assert p * p == U**2 * V**2 - 2 * U * V + 1


def test_multiplicative_identity():
    rng = random.Random(1)
    for _ in range(10):
        p = random_poly(rng)
        assert p * ONE == p
        assert p * 1 == p


def test_cube_of_trinomial_matches_naive_expansion():
    # Independent oracle: expand (uvw^2 - 1)^3 by explicit nested loops.
    base = {(1, 1, 2, 0, 0): 1, (0, 0, 0, 0, 0): -1}
    expected = naive_product(naive_product(base, base), base)
    fast = (U * V * W**2 - 1) ** 3
    assert dict(fast.terms()) == expected


def random_poly(rng, nterms=4, span=2):
    terms = {}
    for _ in range(nterms):
        e = tuple(rng.randint(-span, span) for _ in range(5))
        terms[e] = rng.randint(-5, 5)
    return LaurentPoly(terms)


def test_ring_axioms_randomized():
    rng = random.Random(7)
    for _ in range(25):
        a, b, c = (random_poly(rng) for _ in range(3))
        assert (a + b) * c == a * c + b * c
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a + b == b + a
        assert a - a == ZERO


def test_substitution_basics():
    assert (U * V * W**2).substitute({"w": 1}) == U * V
    # The involution u -> 1/u, v -> 1/v, w -> uvw fixes the monomial uvw^2,
    # hence fixes any polynomial in it (verified against naive expansion).
    p = (U * V * W**2 - 1) ** 3
    lhs = p.substitute({"u": U**-1, "v": V**-1, "w": U * V * W})
    assert lhs == p
    # Full inversion picks up the expected monomial factor and sign.
    inv = p.substitute({"u": U**-1, "v": V**-1, "w": W**-1})
    assert inv == -p * (U * V * W**2) ** -3


def test_substitution_is_homomorphism():
    rng = random.Random(3)
    sub = {"u": U * W**-1, "v": 1, "t": U * V}
    for _ in range(20):
        a, b = random_poly(rng), random_poly(rng)
        assert (a * b).substitute(sub) == a.substitute(sub) * b.substitute(sub)


def test_involution_squares_to_identity():
    rng = random.Random(9)
    sub = {"u": U**-1, "v": V**-1, "w": U * V * W}
    for _ in range(20):
        p = random_poly(rng)
        assert p.substitute(sub).substitute(sub) == p


def test_substitution_rejects_division():
    p = U**-1
    with pytest.raises(ValueError):
        p.substitute({"u": 2})
    with pytest.raises(ValueError):
        p.substitute({"u": U + 1})
    # units are fine
    assert p.substitute({"u": -1}) == -ONE


def test_substitute_returns_a_constant_itself_after_checking_targets():
    for c in (ZERO, ONE, -7 * ONE):
        assert c.substitute({"u": U**-1, "v": 2, "t": -1}) is c
        with pytest.raises(ValueError, match="monomial or constant"):
            c.substitute({"u": U + V})


def test_coeff_and_degree():
    p = U * V * W**2
    assert p.coeff({"u": 1, "v": 1, "w": 2}) == 1
    assert p.coeff({"u": 1}) == 0
    assert ((U * V * W**2 - 1) ** 3).degree_in("w") == 6
    assert ZERO.degree_in("w") == NEG_INF


def test_zero_is_empty_map():
    assert len(ZERO) == 0
    assert not ZERO
    assert U - U == ZERO


def test_serialization_round_trip_and_order():
    p = 3 * U**2 - W + T**5 - 2
    obj = p.to_json_obj()
    exps = [tuple(e["exponents"]) for e in obj]
    assert exps == sorted(exps)
    assert LaurentPoly.from_json_obj(obj) == p
    assert all(isinstance(e["coeff"], str) for e in obj)


def test_equal_polynomials_hash_equal():
    built = (1 + T) ** 2 * (1 - U)
    listed = LaurentPoly({(1, 0, 0, 2, 0): -1, (0, 0, 0, 0, 0): 1, (0, 0, 0, 1, 0): 2})
    listed = listed - U - 2 * U * T + T**2
    assert built == listed
    assert hash(built) == hash(listed)
    assert len({built, listed}) == 1


def test_power_sum_matches_the_term_by_term_sum():
    base = 1 - U * V
    cases = [
        [(2, U), (0, 3), (2, V), (1, -2), (2, 4), (0, W)],  # repeated exponents, int parts
        [(3, 1), (1, T), (3, -1)],  # parts that cancel
        [(0, 5)],  # a lone int part still gives a polynomial
        [],
    ]
    for terms in cases:
        expected = sum((base**k * part for k, part in terms), ZERO)
        got = power_sum(iter(terms), base)
        assert isinstance(got, LaurentPoly)
        assert got == expected


def test_power_sum_rejects_a_negative_exponent():
    # The powers run over range(1, max + 1), which has no k < 0, so without
    # the check such a part would be dropped: [(-1, 1), (2, 1)] would sum to t^2.
    for terms in ([(-1, ONE)], [(-1, ONE), (2, ONE)], [(0, 1), (-3, U)]):
        with pytest.raises(ValueError, match="negative exponent"):
            power_sum(terms, T)


def test_substitute_integers():
    p = (U - 1) ** 3 + V
    assert p.substitute({"u": 4, "v": 2}) == 29
    assert (U**-1).substitute({"u": 1}) == 1
    with pytest.raises(ValueError):
        (U**-1).substitute({"u": 2})


def test_substitute_integers_into_a_negative_power_only_at_plus_minus_one():
    p = 3 * U**-3 * V**2 + U**-2 - 5
    assert p.substitute({"u": 1, "v": 2}) == 12 + 1 - 5
    assert p.substitute({"u": -1, "v": 2}) == -12 + 1 - 5
    for x in (0, 2, -3):
        with pytest.raises(ValueError, match="division"):
            p.substitute({"u": x, "v": 1})
    assert (U**-1 * V).substitute({"u": -1, "v": 0}) == 0


def test_coeff_in_and_assemble():
    p = (U * V * W**2 - 1) ** 2 + W
    parts = {k: p.coeff_in("w", k) for k in range(5)}
    assert power_sum(parts.items(), W) == p
    assert p.coeff_in("w", 4) == U**2 * V**2


def test_univariate_guard():
    with pytest.raises(ValueError):
        univariate(U * T, "t")
    assert univariate(T**2 - 3, "t") == {2: 1, 0: -3}


# -- reference oracle -------------------------------------------------------------


class RefPoly:
    """The plain kernel: a dict of exponent 5-tuples to ints, cleaned by the
    constructor after every operation, with no fast paths."""

    def __init__(self, terms=None):
        self.terms = {}
        for exp, coeff in (terms or {}).items():
            if coeff:
                self.terms[tuple(exp)] = int(coeff)

    @staticmethod
    def of(p: LaurentPoly) -> "RefPoly":
        return RefPoly(dict(p.terms()))

    @staticmethod
    def _coerce(other):
        if isinstance(other, RefPoly):
            return other
        if isinstance(other, int):
            return RefPoly({(0,) * 5: other})
        return None

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.terms == other.terms

    def __add__(self, other):
        other = self._coerce(other)
        out = dict(self.terms)
        for exp, c in other.terms.items():
            out[exp] = out.get(exp, 0) + c
        return RefPoly(out)

    __radd__ = __add__

    def __neg__(self):
        return RefPoly({e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
        return RefPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            if len(self.terms) == 1:
                exp, c = next(iter(self.terms.items()))
                if c in (1, -1):
                    e = tuple(n * a for a in exp)
                    return RefPoly({e: -1 if (c == -1 and n % 2) else 1})
            raise ValueError("negative power")
        result = RefPoly({(0,) * 5: 1})
        for _ in range(n):
            result = result * self
        return result

    def substitute(self, sub):
        targets = [None] * 5
        for name, value in sub.items():
            i = VARS.index(name)
            if isinstance(value, int):
                targets[i] = ((0,) * 5, value)
            else:
                if len(value.terms) != 1:
                    raise ValueError("target must be a monomial or constant")
                targets[i] = next(iter(value.terms.items()))
        out = {}
        for e, c in self.terms.items():
            new_exp = [0] * 5
            coeff = c
            for i, k in enumerate(e):
                if targets[i] is None:
                    new_exp[i] += k
                    continue
                texp, tc = targets[i]
                if k < 0 and tc not in (1, -1):
                    raise ValueError("division")
                coeff *= tc ** abs(k)
                for j in range(5):
                    new_exp[j] += k * texp[j]
            key = tuple(new_exp)
            out[key] = out.get(key, 0) + coeff
        return RefPoly(out)

    def coeff_in(self, name, k):
        i = VARS.index(name)
        return RefPoly(
            {e[:i] + (0,) + e[i + 1 :]: c for e, c in self.terms.items() if e[i] == k}
        )

    def degree_in(self, name):
        i = VARS.index(name)
        return max((e[i] for e in self.terms), default=NEG_INF)

    def to_json_obj(self):
        return [
            {"exponents": list(e), "coeff": str(c)} for e, c in sorted(self.terms.items())
        ]

    def __str__(self):
        if not self.terms:
            return "0"
        out = ""
        for n, (e, c) in enumerate(sorted(self.terms.items())):
            factors = [
                VARS[i] if k == 1 else f"{VARS[i]}^{k}" for i, k in enumerate(e) if k
            ]
            body = "*".join(factors) if factors else str(abs(c))
            if factors and abs(c) != 1:
                body = f"{abs(c)}*{body}"
            if n == 0:
                out = ("-" if c < 0 else "") + body
            else:
                out += f" {'-' if c < 0 else '+'} {body}"
        return out


def assert_matches(p, ref: RefPoly):
    """p satisfies the kernel invariant and has ref's coefficient map."""
    assert isinstance(p, LaurentPoly)
    terms = dict(p.terms())
    for exp, c in terms.items():
        assert type(exp) is tuple and len(exp) == 5
        assert all(type(k) is int for k in exp)
        assert type(c) is int and c != 0
    assert terms == ref.terms


# -- strategies ---------------------------------------------------------------------

EXPONENTS = st.tuples(*[st.integers(-3, 3)] * 5)
COEFFS = st.integers(-4, 4) | st.sampled_from([2**70, -(2**70)])
#: Integer operands: zero, units, small and multi-digit values.
INTS = st.sampled_from([0, 1, -1, 2, -3, 2**80, -(2**80)]) | st.integers(-6, 6)


def unit_monomials():
    return st.builds(lambda e, c: LaurentPoly({e: c}), EXPONENTS, st.sampled_from([1, -1]))


def polys():
    """General polynomials (zero coefficients in the input are dropped),
    single terms, constants, and the zero polynomial."""
    return st.one_of(
        st.dictionaries(EXPONENTS, COEFFS, max_size=7).map(LaurentPoly),
        st.builds(lambda e, c: LaurentPoly({e: c}), EXPONENTS, COEFFS),
        unit_monomials(),
        INTS.map(lambda n: LaurentPoly({(0,) * 5: n})),
    )


def substitutions():
    target = st.one_of(
        INTS,
        unit_monomials(),
        st.builds(lambda e, c: LaurentPoly({e: c}), EXPONENTS, COEFFS),
        st.just(U + V),
    )
    return st.dictionaries(st.sampled_from(VARS), target, max_size=3)


# -- the kernel against the reference -------------------------------------------


BINARY = [operator.add, operator.sub, operator.mul]


@SETTINGS
@given(polys(), polys())
def test_binary_operations_match_reference(a, b):
    ra, rb = RefPoly.of(a), RefPoly.of(b)
    for op in BINARY:
        assert_matches(op(a, b), op(ra, rb))
    assert_matches(-a, -ra)
    assert (a == b) == (ra == rb)


@SETTINGS
@given(polys(), INTS)
def test_int_operands_on_both_sides_match_reference(a, n):
    ra = RefPoly.of(a)
    for op in BINARY:
        assert_matches(op(a, n), op(ra, n))
        assert_matches(op(n, a), op(n, ra))
    assert (a == n) == (ra == n)
    assert (n == a) == (ra == n)


@SETTINGS
@given(polys(), st.integers(0, 4))
def test_nonnegative_powers_match_reference(a, n):
    assert_matches(a**n, RefPoly.of(a) ** n)


@SETTINGS
@given(unit_monomials(), st.integers(-5, 5))
def test_unit_monomial_powers_match_reference(m, n):
    assert_matches(m**n, RefPoly.of(m) ** n)


@SETTINGS
@given(polys(), st.integers(-4, -1))
def test_negative_powers_need_a_unit_monomial(a, n):
    ref = RefPoly.of(a)
    try:
        expected = ref**n
    except ValueError:
        with pytest.raises(ValueError):
            a**n
    else:
        assert_matches(a**n, expected)


@pytest.mark.parametrize("n", [-3, -2, -1, 0, 1, 2, 3])
def test_signed_unit_monomial_powers(n):
    assert (-V) ** n == (-1) ** (n % 2) * V**n
    assert (-ONE) ** n == (-1) ** (n % 2)
    assert_matches((-U * W**-2) ** n, RefPoly.of(-U * W**-2) ** n)


@SETTINGS
@given(polys(), substitutions())
def test_substitute_matches_reference(a, sub):
    ref_sub = {k: v if isinstance(v, int) else RefPoly.of(v) for k, v in sub.items()}
    try:
        expected = RefPoly.of(a).substitute(ref_sub)
    except ValueError:
        with pytest.raises(ValueError):
            a.substitute(sub)
    else:
        assert_matches(a.substitute(sub), expected)


@SETTINGS
@given(polys(), st.sampled_from(VARS), st.integers(-3, 3))
def test_queries_and_rendering_match_reference(a, name, k):
    ref = RefPoly.of(a)
    assert_matches(a.coeff_in(name, k), ref.coeff_in(name, k))
    assert a.degree_in(name) == ref.degree_in(name)
    assert a.to_json_obj() == ref.to_json_obj()
    assert str(a) == str(ref)
    assert LaurentPoly.from_json_obj(a.to_json_obj()) == a


def test_public_constructor_cleans_its_input():
    assert LaurentPoly({(1, 0, 0, 0, 0): 0}) == ZERO
    q = LaurentPoly({(1, 0, 0, 0, 0): 0, (0, 2, 0, 0, 0): True})
    assert_matches(q, RefPoly({(0, 2, 0, 0, 0): 1}))
