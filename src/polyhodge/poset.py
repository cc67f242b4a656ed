"""Eulerian posets and Stanley's g-polynomial machinery.

Posets are finite, graded, with unique bottom and top, stored as bitmask
relation matrices.  ``EulerianPoset.g(z, x)`` computes the g-polynomial of
the interval [z, x] by the defining reciprocal recursion, directly on the
bitmasks, and keeps the value in a table that the poset shares with its
dual; a face lattice's g values therefore live and die with its polytope.

Every g that the recursion computes for an interval of rank >= 3 is
verified against the defining identity before it is stored, so a poset bug
surfaces as an error rather than a wrong polynomial.  Intervals of rank
<= 2 need no check: g is 1 in rank 0 and 1, and in rank 2 the recursion
gives g = a - 1 for an interval with a atoms.  An Eulerian rank-2 interval
has exactly two atoms (1 - a + 1 = 0), and ``from_masks``, the one way a
poset is built, has checked the Euler relation on every interval before
the poset exists.  The face lattice of a simplex builds no poset at all:
its intervals are Boolean, so ``FaceLattice.g`` returns 1 once the
lattice's face count certifies it, and ``verify`` checks the recursion on a
``copy`` of P's poset and of one poset per distinct relation among the
maximal cells' lattices (every d-simplex has the same one).

An interval of rank n <= 6 has g of degree at most 2, and the top
coefficients of the defining identity give g in closed form from flag
counts (Stanley, "Subdivisions and local h-vectors", JAMS 5, 1992; at n = 5
this is Bayer's toric g_2 of a 4-polytope, JCTA 44, 1987).  With f_i the
number of elements of rank i + 1 of the interval and f_02 the number of
pairs of rank 1 < rank 3,

    g = 1 + (f_0 - n) t + (C(n, 2) - (n - 1) f_0 + f_1 + f_02 - 3 f_2) t^2,

the t^2 term only for n >= 5.  ``g_by_counts`` reads these counts off the
masks of a poset that ``from_masks`` has already checked, and
``FaceLattice.g`` uses it for every interval of rank 3 to 6 of a lattice
that is not a simplex, so those need no recursion.  ``g`` and ``_g_of``
stay the full recursion: a face lattice runs it only at rank >= 7, reading
the stored closed-form values below, and a ``copy`` runs it throughout, so
``verify`` and the tests check the closed form against it.

The recursion's sum over [z, x) is a ``laurent.power_sum`` in t - 1.
"""

from __future__ import annotations

from math import comb

from .laurent import (
    LaurentPoly, ONE, T, T_INV, ZERO, from_univariate, power_sum, univariate,
)


def set_bits(mask: int):
    """The indices of the set bits of ``mask``, in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class EulerianPoset:
    """A finite graded Eulerian poset with 0-hat and 1-hat, tracked as bitmasks.

    Eulerian by construction: only ``from_masks`` (which
    ``FaceLattice.poset`` calls with the face lattice's masks), ``dual`` and
    ``copy`` call the constructor.  ``from_masks`` checks gradedness and
    the Euler relation, and the dual and a copy of an Eulerian poset are
    Eulerian.
    """

    __slots__ = ("elements", "up", "down", "ranks", "bottom", "top", "_dual", "_g")

    def __init__(self, elements, up, down, ranks, bottom, top):
        self.elements = elements
        self.up = up  # up[i]: bitmask of j with element_i <= element_j
        self.down = down
        self.ranks = ranks
        self.bottom = bottom
        self.top = top
        self._dual = None
        self._g = {}  # g of each interval of rank >= 3, keyed by (z, x)

    # -- construction -------------------------------------------------------

    @staticmethod
    def from_masks(elements, up) -> "EulerianPoset":
        """Build from the order as bitmasks: bit j of up[i] is set when
        elements[i] <= elements[j].

        Raises ValueError unless the order has a unique bottom and top, is
        graded, and is Eulerian: every interval [z, x] with z < x holds as
        many elements of odd rank as of even rank.
        """
        elements = tuple(elements)
        n = len(elements)
        down = [0] * n
        for i, mask in enumerate(up):
            for j in set_bits(mask):
                down[j] |= 1 << i
        full = (1 << n) - 1
        bottoms = [i for i in range(n) if up[i] == full]
        tops = [i for i in range(n) if down[i] == full]
        if len(bottoms) != 1 or len(tops) != 1:
            raise ValueError("poset must have a unique bottom and top")
        bottom, top = bottoms[0], tops[0]
        # Longest-chain ranks, processed in a linear extension.
        order = sorted(range(n), key=lambda i: down[i].bit_count())
        ranks = [0] * n
        for j in order:
            ranks[j] = max((ranks[i] + 1 for i in set_bits(down[j] & ~(1 << j))), default=0)
        # Gradedness: every covering step raises rank by exactly one.
        for j in range(n):
            for i in set_bits(down[j] & ~(1 << j)):
                between = up[i] & down[j] & ~(1 << i) & ~(1 << j)
                if between == 0 and ranks[j] != ranks[i] + 1:
                    raise ValueError("poset is not graded")
        # Euler relation: each [z, x], z < x, balances odd and even ranks.
        odd = sum(1 << i for i in range(n) if ranks[i] & 1)
        for x in range(n):
            for z in set_bits(down[x] & ~(1 << x)):
                mask = up[z] & down[x]
                if 2 * (mask & odd).bit_count() != mask.bit_count():
                    raise ValueError("poset is not Eulerian")
        return EulerianPoset(elements, tuple(up), tuple(down), tuple(ranks), bottom, top)

    # -- basic structure ------------------------------------------------------

    def __len__(self):
        return len(self.elements)

    @property
    def rank(self) -> int:
        """Rank of the poset, i.e. the rank of its top element."""
        return self.ranks[self.top]

    # -- derived posets ---------------------------------------------------------

    def dual(self) -> "EulerianPoset":
        """The opposite poset, built once; it shares this poset's g table."""
        if self._dual is None:
            ranks = tuple(self.rank - r for r in self.ranks)
            self._dual = EulerianPoset(
                self.elements, self.down, self.up, ranks, self.top, self.bottom
            )
            # A dual key (x, z) has x above z here, so no key is in both.
            self._dual._g = self._g
        return self._dual

    def copy(self) -> "EulerianPoset":
        """The same poset with a g table of its own, so that its g values are
        computed afresh rather than read from this poset's table."""
        return EulerianPoset(self.elements, self.up, self.down, self.ranks, self.bottom, self.top)

    # -- g-polynomials ------------------------------------------------------------

    def g(self, z: int, x: int) -> LaurentPoly:
        """Stanley's g-polynomial of the interval [z, x], as a polynomial in t.

        Defined by g = 1 in rank 0 and, in rank n > 0, as the unique
        polynomial of degree < n/2 with t^n g(1/t) = sum over y in [z, x] of
        (t-1)^(n - rho(y)) g([z, y]), rho measured from z.  Elements are
        given by index; the dual interval [z, x]* is ``dual().g(x, z)``.
        """
        if not self.up[z] >> x & 1:
            raise ValueError("not an interval: elements are not nested")
        return self._g_of(z, x)

    def _g_of(self, z: int, x: int) -> LaurentPoly:
        n = self.ranks[x] - self.ranks[z]
        if n <= 2:
            return ONE
        g = self._g.get((z, x))
        if g is not None:
            return g
        top = self.ranks[x]
        below = set_bits(self.up[z] & self.down[x] & ~(1 << x))
        rest = power_sum(((top - self.ranks[y], self._g_of(z, y)) for y in below), T - 1)
        coeffs = univariate(rest, "t")
        g = from_univariate({i: -coeffs.get(i, 0) for i in range((n - 1) // 2 + 1)}, "t")
        # Exact verification of the defining identity.
        if g.substitute({"t": T_INV}) * T**n != rest + g:
            raise ValueError("g-polynomial recursion failed to close; poset bug")
        self._g[z, x] = g
        return g

    def g_by_counts(self, z: int, x: int) -> LaurentPoly:
        """g of the interval [z, x] of rank 3 to 6, in closed form from its
        flag counts (see the module docstring), kept in the g table so that a
        recursion through [z, x] reads it.  The interval must be nested."""
        g = self._g.get((z, x))
        if g is not None:
            return g
        base = self.ranks[z]
        n = self.ranks[x] - base
        if not 3 <= n <= 6:
            raise ValueError("closed-form g covers intervals of rank 3 to 6")
        levels = [0, 0, 0, 0]  # levels[k]: the elements of rank k in [z, x]
        for y in set_bits(self.up[z] & self.down[x]):
            k = self.ranks[y] - base
            if k <= 3:
                levels[k] |= 1 << y
        f0, f1, f2 = (levels[k].bit_count() for k in (1, 2, 3))
        coeffs = {0: 1, 1: f0 - n}
        if n >= 5:
            f02 = sum((self.up[y] & levels[3]).bit_count() for y in set_bits(levels[1]))
            coeffs[2] = comb(n, 2) - (n - 1) * f0 + f1 + f02 - 3 * f2
        g = self._g[z, x] = from_univariate(coeffs, "t")
        return g


def stanley_inversion_check(poset: EulerianPoset, interval=None) -> bool:
    """Exact check of the g-inversion identity on a positive-rank poset, or
    on its interval [bottom, top] when ``interval`` is that pair of elements.

    Both alternating convolutions (dualizing the upper or the lower factor)
    must vanish identically.  Checking several intervals of one poset reads
    each g from the poset's table once.
    """
    bottom, top = (poset.bottom, poset.top) if interval is None else interval
    if not poset.up[bottom] >> top & 1:
        raise ValueError("not an interval: elements are not nested")
    base = poset.ranks[bottom]
    if poset.ranks[top] - base < 1:
        raise ValueError("inversion identity requires positive rank")
    dual = poset.dual()
    first = ZERO
    second = ZERO
    for i in set_bits(poset.up[bottom] & poset.down[top]):
        sign = (-1) ** (poset.ranks[i] - base)
        first = first + sign * poset.g(bottom, i) * dual.g(top, i)
        second = second + sign * dual.g(i, bottom) * poset.g(i, top)
    return first == ZERO and second == ZERO

