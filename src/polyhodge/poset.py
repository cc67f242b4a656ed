"""Eulerian posets and Stanley's g-polynomial machinery.

Posets are finite, graded, with unique bottom and top, stored as bitmask
relation matrices.  The g-polynomial is computed by the defining reciprocal
recursion and every computed value is verified against that recursion before
being cached, so a poset bug surfaces as an error rather than a wrong
polynomial.
"""

from __future__ import annotations

from .laurent import LaurentPoly, ONE, T, ZERO, from_univariate, univariate
from .memo import memo


class EulerianPoset:
    """A finite graded poset with 0-hat and 1-hat, tracked as bitmasks."""

    __slots__ = ("elements", "up", "down", "ranks", "bottom", "top", "_eulerian", "_key")

    def __init__(self, elements, up, down, ranks, bottom, top, eulerian=None):
        self.elements = elements
        self.up = up  # up[i]: bitmask of j with element_i <= element_j
        self.down = down
        self.ranks = ranks
        self.bottom = bottom
        self.top = top
        self._eulerian = eulerian
        self._key = None

    # -- construction -------------------------------------------------------

    @staticmethod
    def from_leq(elements, leq, validate: bool = False) -> "EulerianPoset":
        """Build from a reflexive partial order callable leq(a, b)."""
        elements = tuple(elements)
        n = len(elements)
        up = [0] * n
        down = [0] * n
        for i, a in enumerate(elements):
            for j, b in enumerate(elements):
                if leq(a, b):
                    up[i] |= 1 << j
                    down[j] |= 1 << i
        poset = EulerianPoset._finish(elements, up, down)
        if validate:
            poset.require_eulerian()
        return poset

    @staticmethod
    def _finish(elements, up, down) -> "EulerianPoset":
        n = len(elements)
        full = (1 << n) - 1
        bottoms = [i for i in range(n) if up[i] == full]
        tops = [i for i in range(n) if down[i] == full]
        if len(bottoms) != 1 or len(tops) != 1:
            raise ValueError("poset must have a unique bottom and top")
        bottom, top = bottoms[0], tops[0]
        # Longest-chain ranks, processed in a linear extension.
        order = sorted(range(n), key=lambda i: bin(down[i]).count("1"))
        ranks = [0] * n
        for j in order:
            below = down[j] & ~(1 << j)
            r = 0
            while below:
                i = (below & -below).bit_length() - 1
                below &= below - 1
                r = max(r, ranks[i] + 1)
            ranks[j] = r
        # Gradedness: every covering step raises rank by exactly one.
        for j in range(n):
            below = down[j] & ~(1 << j)
            while below:
                i = (below & -below).bit_length() - 1
                below &= below - 1
                between = up[i] & down[j] & ~(1 << i) & ~(1 << j)
                if between == 0 and ranks[j] != ranks[i] + 1:
                    raise ValueError("poset is not graded")
        return EulerianPoset(elements, tuple(up), tuple(down), tuple(ranks), bottom, top)

    # -- basic structure ------------------------------------------------------

    def __len__(self):
        return len(self.elements)

    @property
    def rank(self) -> int:
        """Rank of the poset, i.e. the rank of its top element."""
        return self.ranks[self.top]

    def leq_idx(self, i, j) -> bool:
        return bool(self.up[i] & (1 << j))

    # -- Eulerian validation --------------------------------------------------

    def is_eulerian(self) -> bool:
        """Every interval [z, x], z < x, balances odd and even ranks."""
        if self._eulerian is None:
            n = len(self.elements)
            signs = [(-1) ** r for r in self.ranks]
            ok = True
            for z in range(n):
                for x in range(n):
                    if z != x and self.leq_idx(z, x):
                        mask = self.up[z] & self.down[x]
                        total = 0
                        m = mask
                        while m:
                            i = (m & -m).bit_length() - 1
                            m &= m - 1
                            total += signs[i]
                        if total != 0:
                            ok = False
                            break
                if not ok:
                    break
            self._eulerian = ok
        return self._eulerian

    def require_eulerian(self):
        if not self.is_eulerian():
            raise ValueError("poset is not Eulerian")

    # -- derived posets ---------------------------------------------------------

    def dual(self) -> "EulerianPoset":
        n = len(self.elements)
        ranks = tuple(self.rank - r for r in self.ranks)
        poset = EulerianPoset(
            self.elements, self.down, self.up, ranks, self.top, self.bottom,
            eulerian=self._eulerian,
        )
        return poset

    def interval_idx(self, zi: int, xi: int) -> "EulerianPoset":
        mask = self.up[zi] & self.down[xi]
        members = []
        m = mask
        while m:
            i = (m & -m).bit_length() - 1
            m &= m - 1
            members.append(i)
        members.sort()
        pos = {i: k for k, i in enumerate(members)}
        up = [0] * len(members)
        down = [0] * len(members)
        base = self.ranks[zi]
        for i in members:
            for j in members:
                if self.leq_idx(i, j):
                    up[pos[i]] |= 1 << pos[j]
                    down[pos[j]] |= 1 << pos[i]
        ranks = tuple(self.ranks[i] - base for i in members)
        # Intervals of an Eulerian poset are Eulerian; inherit validation.
        return EulerianPoset(
            tuple(self.elements[i] for i in members),
            tuple(up),
            tuple(down),
            ranks,
            pos[zi],
            pos[xi],
            eulerian=self._eulerian if self._eulerian else None,
        )

    def interval(self, z, x) -> "EulerianPoset":
        return self.interval_idx(self.elements.index(z), self.elements.index(x))

    # -- canonical key for memoization -------------------------------------------

    def canonical_key(self):
        """Deterministic key: relation matrix under a (rank, repr) element order.

        Posets with equal keys are isomorphic (the key encodes the full
        relation), so caching g-values on it is sound; isomorphic posets with
        different element labels may simply miss the cache.
        """
        if self._key is None:
            order = sorted(
                range(len(self.elements)),
                key=lambda i: (self.ranks[i], repr(self.elements[i])),
            )
            pos = {i: k for k, i in enumerate(order)}
            rows = []
            for i in order:
                row = 0
                m = self.up[i]
                while m:
                    j = (m & -m).bit_length() - 1
                    m &= m - 1
                    row |= 1 << pos[j]
                rows.append(row)
            self._key = (tuple(self.ranks[i] for i in order), tuple(rows))
        return self._key


@memo("G_CACHE", key=lambda poset: poset.canonical_key())
def g_polynomial(poset: EulerianPoset) -> LaurentPoly:
    """Stanley's g-polynomial of an Eulerian poset, as a polynomial in t.

    Defined by g = 1 in rank 0 and, in rank n > 0, as the unique polynomial
    of degree < n/2 with t^n g(1/t) = sum over x of (t-1)^(n - rho(x)) times
    the g-polynomial of [0-hat, x].  The computed value is checked against
    this identity exactly.
    """
    poset.require_eulerian()
    n = poset.rank
    if n == 0:
        return ONE
    rest = ZERO
    for i in range(len(poset.elements)):
        if i == poset.top:
            continue
        sub = g_polynomial(poset.interval_idx(poset.bottom, i))
        rest = rest + (T - 1) ** (n - poset.ranks[i]) * sub
    coeffs = univariate(rest, "t")
    g_coeffs = {i: -coeffs.get(i, 0) for i in range(0, (n - 1) // 2 + 1)}
    g = from_univariate(g_coeffs, "t")
    # Exact verification of the defining identity.
    lhs = g.substitute({"t": T**-1}) * T**n
    if lhs != rest + g:
        raise ValueError("g-polynomial recursion failed to close; poset bug")
    return g


def stanley_inversion_check(poset: EulerianPoset) -> bool:
    """Exact check of the g-inversion identity on a positive-rank poset.

    Both alternating convolutions (dualizing the upper or the lower factor)
    must vanish identically.
    """
    if poset.rank < 1:
        raise ValueError("inversion identity requires positive rank")
    poset.require_eulerian()
    first = ZERO
    second = ZERO
    for i in range(len(poset.elements)):
        sign = (-1) ** poset.ranks[i]
        lower = poset.interval_idx(poset.bottom, i)
        upper = poset.interval_idx(i, poset.top)
        first = first + sign * g_polynomial(lower) * g_polynomial(upper.dual())
        second = second + sign * g_polynomial(lower.dual()) * g_polynomial(upper)
    return first == ZERO and second == ZERO


def link_h_polynomial(complex_, cell) -> LaurentPoly:
    """h-polynomial of the link of a cell in a polyhedral subdivision.

    Defined through t^(dim P - dim F) h(link; 1/t) = sum over cells F' >= F
    of (t-1)^(dim P - dim F') g([F, F']; t), where [F, F'] is the interval in
    the cell poset of the subdivision.
    """
    dim_p = complex_.polytope.dim
    if cell not in complex_.cells:
        raise ValueError(f"{cell!r} is not a cell of the subdivision")
    dim_f = complex_.dim_of(cell)
    rest = ZERO
    for other in complex_.cells_containing(cell):
        interval = complex_.interval_poset(cell, other)
        rest = rest + (T - 1) ** (dim_p - complex_.dim_of(other)) * g_polynomial(interval)
    delta = dim_p - dim_f
    h = rest.substitute({"t": T**-1}) * T**delta
    if not h.is_polynomial():
        raise ValueError("link h-polynomial is not polynomial; subdivision bug")
    return h
