"""The integer linear algebra kernel against a plain Fraction Gauss-Jordan oracle."""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from polyhodge import linalg
from polyhodge.polytope import AffineUnimodularMap, _hull_in_full_dim

from conftest import rref_oracle, solve_oracle

SETTINGS = settings(max_examples=150, deadline=None)


# -- oracle -------------------------------------------------------------------


def primitive_positive_multiple(v):
    """The primitive integer vector that is a positive multiple of v."""
    den = 1
    for x in v:
        den = den * Fraction(x).denominator
    ints = [int(Fraction(x) * den) for x in v]
    return linalg.primitive(ints)


def kernel_oracle(rows):
    red, pivots = rref_oracle(rows)
    ncols = len(rows[0])
    out = []
    for f in range(ncols):
        if f in pivots:
            continue
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for row, p in zip(red, pivots):
            v[p] = -row[f]
        out.append(primitive_positive_multiple(v))
    return out


def mat_vec(rows, v):
    return tuple(sum(x * y for x, y in zip(r, v)) for r in rows)


# -- strategies ---------------------------------------------------------------


@st.composite
def matrices(draw, max_rows=6, max_cols=6, lo=-5, hi=5):
    """Integer matrices up to 6 x 6 with entries in -5..5; about half of them
    are products of a few rows with -1..1 entries, so rank-deficient."""
    nrows = draw(st.integers(1, max_rows))
    ncols = draw(st.integers(1, max_cols))
    if draw(st.booleans()):
        entry = st.integers(lo, hi)
        return [tuple(draw(entry) for _ in range(ncols)) for _ in range(nrows)]
    k = draw(st.integers(1, 3))
    unit = st.integers(-1, 1)
    basis = [[draw(unit) for _ in range(ncols)] for _ in range(k)]
    coeffs = [[draw(unit) for _ in range(k)] for _ in range(nrows)]
    return [
        tuple(sum(c * b[j] for c, b in zip(cs, basis)) for j in range(ncols))
        for cs in coeffs
    ]


def points(d, count):
    return st.lists(
        st.tuples(*[st.integers(-3, 3)] * d), min_size=count, max_size=count
    )


# -- rank and kernel ---------------------------------------------------------


@SETTINGS
@given(matrices())
def test_rank_matches_oracle(rows):
    assert linalg.rank(rows) == len(rref_oracle(rows)[1])


@SETTINGS
@given(matrices(lo=-1000, hi=1000))
def test_elimination_is_exact_on_wide_entries(rows):
    assert linalg.rank(rows) == len(rref_oracle(rows)[1])
    assert linalg.kernel_basis(rows) == kernel_oracle(rows)


@SETTINGS
@given(matrices())
def test_kernel_basis_is_the_primitive_rref_kernel(rows):
    basis = linalg.kernel_basis(rows)
    assert basis == kernel_oracle(rows)
    for v in basis:
        assert all(isinstance(x, int) for x in v)
        assert linalg.primitive(v) == v
        assert mat_vec(rows, v) == (0,) * len(rows)


# -- lattices and maps ---------------------------------------------------------------


@SETTINGS
@given(matrices(max_rows=4, max_cols=5), st.data())
def test_integer_kernel_basis_is_saturated_with_left_inverse(rows, data):
    n = len(rows[0])
    basis, left = linalg.integer_kernel_basis(rows, n)
    assert len(basis) == len(left) == n - len(rref_oracle(rows)[1])
    for b in basis:
        assert mat_vec(rows, b) == (0,) * len(rows)
    for k, r in enumerate(left):
        assert all(isinstance(x, int) for x in r)
        assert [linalg.dot(r, b) for b in basis] == [int(j == k) for j in range(len(basis))]
    # Saturation: every integer kernel vector is an integer combination.
    for v in kernel_oracle(rows):
        coords = mat_vec(left, v)
        assert tuple(sum(c * b[i] for c, b in zip(coords, basis)) for i in range(n)) == v
    d = len(basis)
    coeffs = data.draw(st.lists(st.integers(-3, 3), min_size=d, max_size=d))
    v = tuple(sum(c * b[i] for c, b in zip(coeffs, basis)) for i in range(n))
    assert list(mat_vec(left, v)) == coeffs


# (rows, n, (basis, left inverse)): the saturated kernels and the model
# bases they give are pinned, since model coordinates reach the output.
PINNED_KERNELS = [
    ([], 3, ([(1, 0, 0), (0, 1, 0), (0, 0, 1)], [(1, 0, 0), (0, 1, 0), (0, 0, 1)])),
    ([(2, 3)], 2, ([(3, -2)], [(1, 1)])),
    ([(0, 0, 0)], 3, ([(1, 0, 0), (0, 1, 0), (0, 0, 1)], [(1, 0, 0), (0, 1, 0), (0, 0, 1)])),
    ([(1, 1, 1)], 3, ([(-1, 1, 0), (-1, 0, 1)], [(0, 1, 0), (0, 0, 1)])),
    ([(6, 10, 15)], 3, ([(-5, -3, 4), (5, 0, -2)], [(2, 3, 5), (1, 1, 2)])),
    (
        [(4, -6, 0, 9)],
        4,
        ([(6, 1, 0, -2), (0, 0, 1, 0), (9, 0, 0, -4)], [(0, 1, 0, 0), (0, 0, 1, 0), (1, -2, 0, 2)]),
    ),
    ([(1, 2, 3), (4, 5, 6)], 3, ([(1, -2, 1)], [(0, 0, 1)])),
    (
        [(2, 0, 4, 6), (0, 3, 3, -3)],
        4,
        ([(-2, -1, 1, 0), (-3, 1, 0, 1)], [(0, 0, 1, 0), (0, 0, 0, 1)]),
    ),
    ([(1, -1, 0, 0), (0, 1, -1, 0), (0, 0, 1, -1)], 4, ([(1, 1, 1, 1)], [(0, 0, 0, 1)])),
    (
        [(3, 5, -7, 2, 0), (-2, 4, 1, 0, 6)],
        5,
        (
            [(0, 2, -8, -33, 0), (1, 1, -2, -11, 0), (0, -2, 2, 12, 1)],
            [(5, 6, -11, 3, -2), (1, 0, 0, 0, 0), (0, 0, 0, 0, 1)],
        ),
    ),
    (
        [(1, 1, 1, 1, 1), (0, 1, 2, 3, 4), (0, 1, 4, 9, 16)],
        5,
        ([(-1, 3, -3, 1, 0), (-3, 8, -6, 0, 1)], [(0, 0, 0, 1, 0), (0, 0, 0, 0, 1)]),
    ),
    (
        [(5, -3, 2, 0, 1, 4), (2, 2, -1, 3, 0, 0), (0, 7, 1, -2, 5, 3)],
        6,
        (
            [(-3, -25, -53, 1, 46, 0), (-4, -43, -94, 0, 79, 0), (-3, -28, -62, 0, 51, 1)],
            [(0, 0, 0, 1, 0, 0), (-11, 1, 0, -8, 0, -5), (0, 0, 0, 0, 0, 1)],
        ),
    ),
]


@pytest.mark.parametrize("rows, n, expected", PINNED_KERNELS)
def test_integer_kernel_basis_is_pinned(rows, n, expected):
    assert linalg.integer_kernel_basis(rows, n) == expected


@SETTINGS
@given(matrices(max_rows=3, max_cols=5), st.data())
def test_affine_unimodular_map_round_trip(rows, data):
    n = len(rows[0])
    basis, left = linalg.integer_kernel_basis(rows, n)
    origin = data.draw(st.tuples(*[st.integers(-5, 5)] * n))
    map_ = AffineUnimodularMap(origin, basis, left)
    d = len(basis)
    x = data.draw(st.tuples(*[st.integers(-4, 4)] * d)) if d else ()
    pt = map_.from_model(x)
    assert map_.to_model(pt) == x
    assert map_.from_model(map_.to_model(pt)) == pt
    if d:
        # The oracle solves basis^T c = pt - origin over Q.
        cols = [tuple(b[i] for b in basis) for i in range(n)]
        assert solve_oracle(cols, linalg.vec_sub(pt, origin)) == tuple(map(Fraction, x))


@SETTINGS
@given(st.integers(0, 4).flatmap(lambda n: points(n, 3)))
def test_identity_map_returns_points_unchanged(pts):
    n = len(pts[0])
    std = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    map_ = AffineUnimodularMap((0,) * n, std, std)
    assert map_.is_identity
    for p in pts:
        assert map_.to_model(p) == p
        assert map_.from_model(p) == p


def test_affine_unimodular_map_rejects_a_wrong_left_inverse():
    AffineUnimodularMap((0, 0), [(1, 1)], [(1, 0)])
    with pytest.raises(ValueError):
        AffineUnimodularMap((0, 0), [(2, 1)], [(1, 0)])
    with pytest.raises(ValueError):
        AffineUnimodularMap((0, 0), [(1, 0)], [])


# -- hulls ------------------------------------------------------------------------


def hull_oracle(d, pts):
    """Exhaustive scan: every d-subset spanning a hyperplane, every point tested."""
    pts = sorted(set(pts))
    facets = set()
    for subset in itertools.combinations(pts, d):
        rows = [linalg.vec_sub(p, subset[0]) for p in subset[1:]]
        kernel = kernel_oracle(rows) if rows else [(1,)]
        if len(kernel) != 1:
            continue
        a = kernel[0]
        b = sum(x * y for x, y in zip(a, subset[0]))
        values = [sum(x * y for x, y in zip(a, p)) for p in pts]
        if all(v >= b for v in values):
            facets.add((a, b))
        if all(v <= b for v in values):
            facets.add((tuple(-x for x in a), -b))
    facet_list = sorted(facets)
    vertices = []
    for p in pts:
        tight = [a for a, b in facet_list if sum(x * y for x, y in zip(a, p)) == b]
        if tight and len(rref_oracle(tight)[1]) == d:
            vertices.append(p)
    return facet_list, vertices


def assert_hull_matches_oracle(d, pts):
    """Facets and vertices as the scan finds them; each facet's vertex mask
    as dot products find it."""
    facets, vertices, masks = _hull_in_full_dim(d, list(pts))
    assert (facets, vertices) == hull_oracle(d, pts)
    assert masks == tuple(
        sum(1 << i for i, v in enumerate(vertices) if sum(x * y for x, y in zip(a, v)) == b)
        for a, b in facets
    )


@settings(max_examples=120, deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda d: st.tuples(st.just(d), st.integers(d + 1, 9).flatmap(lambda k: points(d, k)))
    )
)
def test_hull_matches_exhaustive_scan(case):
    d, pts = case
    diffs = [linalg.vec_sub(p, pts[0]) for p in pts]
    assume(len(rref_oracle(diffs)[1]) == d)
    assert_hull_matches_oracle(d, pts)


@st.composite
def degenerate_hull_inputs(draw):
    """Point sets with many coplanar and collinear points: small entries,
    lattice grids with some points removed, and dilated simplices k*D_e
    (k, e <= 3) lifted by heights in 0..2."""
    kind = draw(st.sampled_from(("entries", "grid", "lifted")))
    if kind == "entries":
        d = draw(st.integers(1, 4))
        pts = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * d), min_size=d + 1, max_size=14))
    elif kind == "grid":
        d = draw(st.integers(1, 4))
        longest = {1: 6, 2: 3, 3: 2, 4: 1}[d]
        sides = draw(
            st.lists(st.integers(1, longest), min_size=d, max_size=d).filter(
                lambda s: math.prod(x + 1 for x in s) <= 18
            )
        )
        grid = list(itertools.product(*(range(s + 1) for s in sides)))
        drop = draw(st.sets(st.sampled_from(grid), max_size=len(grid) // 2))
        pts = [p for p in grid if p not in drop]
    else:
        d = draw(st.integers(2, 4))
        k = draw(st.integers(1, 3))
        base = [p for p in itertools.product(range(k + 1), repeat=d - 1) if sum(p) <= k]
        heights = draw(st.lists(st.integers(0, 2), min_size=len(base), max_size=len(base)))
        pts = [(*p, h) for p, h in zip(base, heights)]
    return d, pts


@settings(max_examples=120, deadline=None)
@given(degenerate_hull_inputs())
def test_hull_matches_exhaustive_scan_on_degenerate_inputs(case):
    d, pts = case
    diffs = [linalg.vec_sub(p, pts[0]) for p in pts]
    assume(len(rref_oracle(diffs)[1]) == d)
    assert_hull_matches_oracle(d, pts)


# -- diagonal form ------------------------------------------------------------


def det_oracle(rows):
    """Determinant of a square integer matrix by Fraction elimination."""
    m = [[Fraction(x) for x in r] for r in rows]
    det = Fraction(1)
    for c in range(len(m)):
        pivot = next((i for i in range(c, len(m)) if m[i][c]), None)
        if pivot is None:
            return 0
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            det = -det
        det *= m[c][c]
        for i in range(c + 1, len(m)):
            f = m[i][c] / m[c][c]
            m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return int(det)


@st.composite
def cone_matrices(draw):
    """The matrices ``LatticePolytope.box`` passes: columns (v_i, 1) for
    d + 1 points v_i in Z^n, d <= n <= 6, coordinates in -3..3; some of the
    point sets are affinely dependent."""
    n = draw(st.integers(0, 6))
    d = draw(st.integers(0, n))
    pts = draw(points(n, d + 1))
    return [list(col) for col in zip(*pts)] + [[1] * (d + 1)]


@SETTINGS
@given(st.one_of(matrices(max_cols=4), cone_matrices()))
def test_diagonal_form_orders_the_quotient_by_the_columns(rows):
    # U A V = D: V is unimodular, column j of A V is d_j times column j of
    # U^-1, and d_1 ... d_c, the order of the lattice points of the span
    # modulo the columns, is the gcd of the c x c minors of A.  Cone
    # matrices run up to 7 x 7.
    ncols = len(rows[0])
    if len(rref_oracle(rows)[1]) < ncols:
        with pytest.raises(ValueError, match="dependent"):
            linalg.diagonal_form(rows)
        return
    diag, v = linalg.diagonal_form(rows)
    assert all(d > 0 for d in diag) and abs(det_oracle(v)) == 1
    for j, d in enumerate(diag):
        assert all(linalg.dot(r, [row[j] for row in v]) % d == 0 for r in rows)
    minors = 0
    for square in itertools.combinations(rows, ncols):
        minors = math.gcd(minors, det_oracle(square))
    assert math.prod(diag) == abs(minors)
