"""Exact multivariate Laurent polynomials with integer coefficients.

A polynomial is a map from exponent vectors to nonzero integer coefficients.
Exponent vectors are tuples of length 5 over the fixed variable list
(u, v, w, t, L); exponents may be negative.  Two polynomials are equal iff
their coefficient maps are equal, and the zero polynomial is the empty map.

Invariant: every stored coefficient is a nonzero int and every key is a
5-tuple of ints.  The public constructor ``LaurentPoly(mapping)`` cleans its
input (it drops zero coefficients, makes keys tuples and coefficients ints),
and ``from_json_obj`` also checks the key length, so parsed and deserialized
input always passes through a check.  Results of ``+``, ``-``, ``*``, ``**``,
``substitute`` and the other internal operations are clean by construction
and are wrapped by ``LaurentPoly._trusted``, which checks nothing.  The
arithmetic takes these fast paths:

* ``p * n`` for an int n scales the coefficients; ``p * 0`` is ZERO and
  ``p * 1`` is p itself.
* A product with a single-term factor shifts the other factor's exponents
  (a constant factor only scales them); the general product adds unpacked
  exponent 5-tuples component by component.
* A sum with a zero operand returns the other operand.
* A +-1 monomial raised to any integer power is computed directly; a
  negative power of anything else raises ValueError.  Dividing by a
  monomial x is multiplying by ``x**-1``.

Each polynomial job has one operator.  Evaluation is ``substitute`` with
integer targets: p(1, 1, 1) is ``p.substitute({"u": 1, "v": 1, "w": 1})``,
an int-valued constant polynomial that compares equal to an int.
``power_sum`` is the one sum weighted by the powers of a base, such as
(uv - 1)^codim over the cells of a subdivision; over a monomial base such
as w it assembles a polynomial from its parts by degree, the inverse of
``coeff_in``.

Values are immutable after construction and all operations are pure, so they
are safe to share between threads.
"""

from __future__ import annotations

from typing import Iterable, Mapping

VARS = ("u", "v", "w", "t", "L")
NVARS = len(VARS)
_VAR_INDEX = {name: i for i, name in enumerate(VARS)}

#: Sentinel returned by degree_in() on the zero polynomial.
NEG_INF = float("-inf")

Exponent = tuple[int, int, int, int, int]

_ZERO_EXP: Exponent = (0,) * NVARS


class LaurentPoly:
    """Immutable Laurent polynomial over Z in the variables u, v, w, t, L."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Exponent, int] | None = None):
        clean: dict[Exponent, int] = {}
        if terms:
            for exp, coeff in terms.items():
                if coeff:
                    clean[tuple(exp)] = int(coeff)
        self._terms = clean

    # -- constructors ------------------------------------------------------

    @staticmethod
    def _trusted(terms: dict[Exponent, int]) -> "LaurentPoly":
        """Wrap a map that already satisfies the invariant, without copying."""
        p = object.__new__(LaurentPoly)
        p._terms = terms
        return p

    @staticmethod
    def var(name: str) -> "LaurentPoly":
        if name not in _VAR_INDEX:
            raise ValueError(f"unknown variable {name!r}; expected one of {VARS}")
        e = [0] * NVARS
        e[_VAR_INDEX[name]] = 1
        return LaurentPoly({tuple(e): 1})

    # -- basic protocol ----------------------------------------------------

    def terms(self) -> Iterable[tuple[Exponent, int]]:
        """Iterate (exponent, coefficient) pairs in lexicographic order."""
        return iter(sorted(self._terms.items()))

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, LaurentPoly):
            return self._terms == other._terms
        if isinstance(other, int):
            if not other:
                return not self._terms
            return len(self._terms) == 1 and self._terms.get(_ZERO_EXP) == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __len__(self) -> int:
        return len(self._terms)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other) -> "LaurentPoly":
        if isinstance(other, LaurentPoly):
            a, b = self._terms, other._terms
            if not b:
                return self
            if not a:
                return other
            if len(a) < len(b):
                a, b = b, a
        elif isinstance(other, int):
            if not other:
                return self
            a, b = self._terms, {_ZERO_EXP: int(other)}
        else:
            return NotImplemented
        out = dict(a)
        get = out.get
        for exp, c in b.items():
            s = get(exp, 0) + c
            if s:
                out[exp] = s
            else:
                del out[exp]
        return _trusted(out)

    __radd__ = __add__

    def __neg__(self) -> "LaurentPoly":
        return _trusted({e: -c for e, c in self._terms.items()})

    def __sub__(self, other) -> "LaurentPoly":
        if isinstance(other, (LaurentPoly, int)):
            return self + (-other)
        return NotImplemented

    def __rsub__(self, other) -> "LaurentPoly":
        if isinstance(other, int):
            return (-self) + other
        return NotImplemented

    def __mul__(self, other) -> "LaurentPoly":
        a = self._terms
        if isinstance(other, LaurentPoly):
            b = other._terms
        elif isinstance(other, int):
            if not other or not a:
                return ZERO
            if other == 1:
                return self
            return _trusted({e: c * other for e, c in a.items()})
        else:
            return NotImplemented
        if len(a) < len(b):
            a, b = b, a
        if not b:
            return ZERO
        if len(b) == 1:
            ((e2, c2),) = b.items()
            if e2 == _ZERO_EXP:
                if c2 == 1:
                    return self if a is self._terms else other
                return _trusted({e: c * c2 for e, c in a.items()})
            s0, s1, s2, s3, s4 = e2
            return _trusted(
                {
                    (a0 + s0, a1 + s1, a2 + s2, a3 + s3, a4 + s4): c * c2
                    for (a0, a1, a2, a3, a4), c in a.items()
                }
            )
        # Unpacked 5-tuples add about twice as fast as tuple(map(add, e1, e2)).
        flat_b = [(*e2, c2) for e2, c2 in b.items()]
        out: dict[Exponent, int] = {}
        get = out.get
        for (a0, a1, a2, a3, a4), c1 in a.items():
            for b0, b1, b2, b3, b4, c2 in flat_b:
                e = (a0 + b0, a1 + b1, a2 + b2, a3 + b3, a4 + b4)
                s = get(e, 0) + c1 * c2
                if s:
                    out[e] = s
                else:
                    del out[e]
        return _trusted(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "LaurentPoly":
        terms = self._terms
        if len(terms) == 1:
            ((exp, c),) = terms.items()
            if c == 1 or c == -1:
                sign = -1 if c == -1 and n % 2 else 1
                return _trusted({tuple([n * a for a in exp]): sign})
        if n < 0:
            raise ValueError("negative powers only defined for unit monomials")
        result = ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    # -- queries -----------------------------------------------------------

    def coeff(self, exps: Mapping[str, int]) -> int:
        """Coefficient of the given monomial (0 if absent)."""
        e = [0] * NVARS
        for name, k in exps.items():
            e[_VAR_INDEX[name]] = k
        return self._terms.get(tuple(e), 0)

    def degree_in(self, name: str):
        """Max exponent of a variable; NEG_INF for the zero polynomial."""
        if not self._terms:
            return NEG_INF
        i = _VAR_INDEX[name]
        return max(e[i] for e in self._terms)

    def is_polynomial(self) -> bool:
        """True if no exponent is negative."""
        return all(min(e) >= 0 for e in self._terms) if self._terms else True

    def coeff_in(self, name: str, k: int) -> "LaurentPoly":
        """Coefficient of name**k, as a polynomial in the other variables."""
        i = _VAR_INDEX[name]
        out = {}
        for e, c in self._terms.items():
            if e[i] == k:
                reduced = list(e)
                reduced[i] = 0
                out[tuple(reduced)] = c
        return _trusted(out)

    # -- substitution ------------------------------------------------------

    def substitute(self, sub: Mapping[str, "LaurentPoly | int"]) -> "LaurentPoly":
        """Substitute variables by Laurent monomials or integer constants.

        Each target must be a single-term Laurent monomial or an integer, so
        the substitution acts as a monoid homomorphism on exponents.  Raises
        ValueError when a substitution would require dividing polynomials
        (a negative power of a constant target other than +-1).
        """
        targets: list[tuple[Exponent, int] | None] = [None] * NVARS
        for name, value in sub.items():
            i = _VAR_INDEX[name]
            if isinstance(value, int):
                targets[i] = (_ZERO_EXP, value)
            else:
                if len(value._terms) != 1:
                    raise ValueError(
                        f"substitution target for {name} must be a monomial or constant"
                    )
                targets[i] = next(iter(value._terms.items()))
        if self._terms.keys() <= {_ZERO_EXP}:
            return self  # a constant is its own image
        out: dict[Exponent, int] = {}
        for e, c in self._terms.items():
            new_exp = [0] * NVARS
            coeff = c
            for i, k in enumerate(e):
                if k == 0:
                    continue
                tgt = targets[i]
                if tgt is None:
                    new_exp[i] += k
                    continue
                texp, tc = tgt
                if tc == 1:
                    pass
                elif tc == -1:
                    if k % 2:
                        coeff = -coeff
                elif k >= 0:
                    coeff *= tc**k
                else:
                    raise ValueError(
                        "substitution would require division of polynomials"
                    )
                for j in range(NVARS):
                    new_exp[j] += k * texp[j]
            key = tuple(new_exp)
            s = out.get(key, 0) + coeff
            if s:
                out[key] = s
            else:
                out.pop(key, None)
        return _trusted(out)

    # -- rendering ---------------------------------------------------------

    def to_json_obj(self) -> list[dict]:
        """Canonical serialization: terms sorted lexicographically by exponent."""
        return [
            {"exponents": list(e), "coeff": str(c)} for e, c in sorted(self._terms.items())
        ]

    @staticmethod
    def from_json_obj(obj: Iterable[dict]) -> "LaurentPoly":
        terms = {}
        for entry in obj:
            exps = tuple(int(x) for x in entry["exponents"])
            if len(exps) != NVARS:
                raise ValueError(f"exponent vector must have length {NVARS}")
            terms[exps] = int(entry["coeff"])
        return LaurentPoly(terms)

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for e, c in sorted(self._terms.items()):
            factors = []
            for i, k in enumerate(e):
                if k == 1:
                    factors.append(VARS[i])
                elif k != 0:
                    factors.append(f"{VARS[i]}^{k}")
            if not factors:
                body = str(abs(c))
            else:
                body = "*".join(factors)
                if abs(c) != 1:
                    body = f"{abs(c)}*{body}"
            sign = "-" if c < 0 else "+"
            parts.append((sign, body))
        first_sign, first_body = parts[0]
        out = ("-" if first_sign == "-" else "") + first_body
        for sign, body in parts[1:]:
            out += f" {sign} {body}"
        return out

    def __repr__(self) -> str:
        return f"LaurentPoly({self})"


ZERO = LaurentPoly()
ONE = LaurentPoly({_ZERO_EXP: 1})
_trusted = LaurentPoly._trusted

U = LaurentPoly.var("u")
V = LaurentPoly.var("v")
W = LaurentPoly.var("w")
T = LaurentPoly.var("t")
L = LaurentPoly.var("L")
UV = U * V
UVW2 = U * V * W**2
#: Substitution targets u -> u/v and t -> 1/t, shared by the h*-tower and g sums.
U_OVER_V = U * V**-1
T_INV = T**-1


def univariate(p: LaurentPoly, name: str) -> dict[int, int]:
    """Coefficient map of a polynomial that uses only one variable."""
    i = _VAR_INDEX[name]
    out = {}
    for e, c in p._terms.items():
        if any(k != 0 for j, k in enumerate(e) if j != i):
            raise ValueError(f"polynomial is not univariate in {name}: {p}")
        out[e[i]] = c
    return out


def from_univariate(coeffs: Mapping[int, int], name: str) -> LaurentPoly:
    i = _VAR_INDEX[name]
    terms = {}
    for k, c in coeffs.items():
        if c:
            e = [0] * NVARS
            e[i] = k
            terms[tuple(e)] = c
    return LaurentPoly(terms)


def power_sum(terms: Iterable[tuple[int, LaurentPoly | int]], base: LaurentPoly) -> LaurentPoly:
    """Sum of base^k * part over the pairs (k, part) of ``terms``, k >= 0.

    A part may be an int.  The parts that share an exponent are added up
    first, so each power of a multi-term base such as t - 1 or 1 - uv is
    built once, step by step.  Raises ValueError on a negative exponent.
    """
    parts: dict[int, LaurentPoly | int] = {}
    for k, part in terms:
        parts[k] = parts.get(k, 0) + part
    if parts and min(parts) < 0:
        raise ValueError(f"power_sum: negative exponent {min(parts)}")
    total = ZERO + parts.get(0, 0)  # a polynomial even when every part is an int
    power = base
    for k in range(1, max(parts, default=0) + 1):
        if k > 1:
            power = power * base
        part = parts.get(k)
        if part:
            total = total + power * part
    return total

