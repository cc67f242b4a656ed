import random

import pytest

from polyhodge.laurent import (
    NEG_INF,
    LaurentPoly,
    ONE,
    T,
    U,
    V,
    W,
    ZERO,
    div_exact_t_minus_one,
    univariate,
)


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


def test_div_exact_t_minus_one():
    assert div_exact_t_minus_one(T**4 - 1) == T**3 + T**2 + T + 1
    with pytest.raises(ValueError):
        div_exact_t_minus_one(T + 1)


def test_eval_int():
    p = (U - 1) ** 3 + V
    assert p.eval_int({"u": 4, "v": 2}) == 29
    assert (U**-1).eval_int({"u": 1}) == 1
    with pytest.raises(ValueError):
        (U**-1).eval_int({"u": 2})


def test_coeff_in_and_assemble():
    p = (U * V * W**2 - 1) ** 2 + W
    parts = {k: p.coeff_in("w", k) for k in range(5)}
    assert LaurentPoly.assemble_in("w", parts) == p
    assert p.coeff_in("w", 4) == U**2 * V**2


def test_univariate_guard():
    with pytest.raises(ValueError):
        univariate(U * T, "t")
    assert univariate(T**2 - 3, "t") == {2: 1, 0: -3}
