"""Exact integer linear algebra used by the polytope machinery.

One fraction-free elimination over Q (Bareiss, Math. Comp. 22, 1968) serves
rank and kernel: every intermediate entry is an integer minor of the input,
so the divisions are exact and no rational number is ever formed.
Run to the reduced form, it yields D times the reduced row echelon form,
where D is the determinant of the pivot minor; that form is unique, so
kernel vectors read off it are canonical.  The normal of a hyperplane
through d points is the one kernel vector of their d - 1 difference rows.

One unimodular elimination over Z, ``_echelon``, a column echelon by
Euclid's algorithm, serves the lattice.  It gives the saturated integer
kernel with the inverse of its unimodular completion, which gives integer
left inverses of lattice bases.  Alternated with the same echelon on the
transpose, it gives a diagonal form U A V = D of a matrix A of full column
rank (not the Smith form: D need not be a divisor chain).  The lattice
points of the column span of A modulo the columns of A form the group of
order d_1 ... d_c, and the element with coordinates k_j mod d_j is
A V (k / d): so V and the d_j alone enumerate it, and U is never formed.
"""

from __future__ import annotations

from math import gcd
from operator import mul, sub


def vec_sub(a, b):
    return tuple(map(sub, a, b))


def dot(a, b):
    return sum(map(mul, a, b))


def primitive(v):
    """Divide an integer vector by the gcd of its entries (0 stays 0)."""
    g = 0
    for x in v:
        g = gcd(g, abs(x))
    if g == 0:
        return tuple(v)
    return tuple(x // g for x in v)


def _bareiss(rows, reduced: bool):
    """Fraction-free elimination of an integer matrix.

    Returns (m, pivots, det): the nonzero rows of the eliminated matrix, the
    pivot column of each, and the determinant of the pivot minor (1 if there
    is no pivot).  Without ``reduced`` only the rows below each pivot are
    cleared (enough for the rank).  With it the rows above are cleared too,
    and m[i][pivots[k]] == det if i == k else 0, so m / det is the reduced
    row echelon form.
    """
    m = [list(r) for r in rows]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    pivots = []
    prev = 1
    r = 0
    for c in range(ncols):
        for i in range(r, nrows):
            if m[i][c]:
                break
        else:
            continue
        m[r], m[i] = m[i], m[r]
        pivot_row = m[r]
        p = pivot_row[c]
        for i in range(0 if reduced else r + 1, nrows):
            if i == r:
                continue
            row = m[i]
            f = row[c]
            if f:
                m[i] = [(p * x - f * y) // prev for x, y in zip(row, pivot_row)]
            elif p != prev:
                m[i] = [p * x // prev for x in row]
        pivots.append(c)
        prev = p
        r += 1
        if r == nrows:
            break
    return m[:r], pivots, prev


def rank(rows) -> int:
    if not rows:
        return 0
    return len(_bareiss(rows, reduced=False)[1])


def kernel_basis(rows) -> list[tuple[int, ...]]:
    """Basis of the rational kernel {x : rows @ x = 0} of an integer matrix.

    One primitive integer vector per free column f of the reduced row echelon
    form: the positive multiple of the vector with x_f = 1, the other free
    coordinates 0 and the pivot coordinates read off the reduced form.
    """
    if not rows:
        return []
    ncols = len(rows[0])
    red, pivots, det = _bareiss(rows, reduced=True)
    sign = 1 if det > 0 else -1
    pivot_set = set(pivots)
    basis = []
    for f in range(ncols):
        if f in pivot_set:
            continue
        v = [0] * ncols
        v[f] = sign * det
        for row, p in zip(red, pivots):
            v[p] = -sign * row[f]
        basis.append(primitive(v))
    return basis


def _echelon(a, ncols: int, mirror=None, inverse=None) -> int:
    """Column echelon form of the integer matrix a, in place, by unimodular
    column operations; returns its rank r.

    Row by row, Euclid's algorithm across the columns not yet led moves the
    gcd of the row's entries there into the next leading column and clears
    the rest, so afterwards a = [H | 0] with H of r columns.  Each operation
    is repeated on the columns of ``mirror`` (so a mirror started at the
    identity ends as U with a_in U = a_out) and its inverse on the rows of
    ``inverse`` (which then ends as U^-1).
    """
    cols = a + (mirror or [])
    lead = 0
    for row_i in a:
        if lead == ncols:
            break
        nz = [j for j in range(lead, ncols) if row_i[j]]
        if not nz:
            continue
        while True:
            jmin = min(nz, key=lambda j: abs(row_i[j]))
            if jmin != lead:
                for row in cols:
                    row[lead], row[jmin] = row[jmin], row[lead]
                if inverse is not None:
                    inverse[lead], inverse[jmin] = inverse[jmin], inverse[lead]
            rest = []
            for j in range(lead + 1, ncols):
                if row_i[j]:
                    q = row_i[j] // row_i[lead]
                    for row in cols:  # column_j -= q * column_lead
                        row[j] -= q * row[lead]
                    if inverse is not None:  # row_lead += q * row_j
                        inverse[lead] = [x + q * y for x, y in zip(inverse[lead], inverse[j])]
                    if row_i[j]:
                        rest.append(j)
            if not rest:
                break
            nz = [lead] + rest
        lead += 1
    return lead


def integer_kernel_basis(rows: list[tuple[int, ...]], n: int):
    """Z-basis of {x in Z^n : rows @ x = 0} (a saturated sublattice), with an
    integer left inverse of it.

    The column echelon A U = [H | 0] by a unimodular U leaves the trailing
    columns of U spanning the (saturated) kernel, and the matching rows of
    U^-1 satisfy left_inverse[k] . basis[j] == (k == j).  Returns
    (basis, left_inverse).
    """
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    u_inv = [row[:] for row in u]
    lead = _echelon([list(r) for r in rows], n, mirror=u, inverse=u_inv)
    basis = [tuple(row[j] for row in u) for j in range(lead, n)]
    return basis, [tuple(r) for r in u_inv[lead:]]


def diagonal_form(rows):
    """A diagonal form U A V = D of an integer matrix A of full column rank.

    Column echelons, mirrored in V, alternate with row echelons (column
    echelons of the transpose; U is never formed) until A is diagonal
    (Kannan and Bachem, SIAM J. Comput. 8, 1979): each round lowers the
    first pivot not alone in its row and column, or leaves it alone there.
    Returns (diag, v): the positive diagonal entries d_1..d_c of D and the
    column transform V as a list of rows.  Raises ValueError when the
    columns are dependent.
    """
    a = [list(r) for r in rows]
    nrows, ncols = len(a), len(a[0])
    v = [[int(i == j) for j in range(ncols)] for i in range(ncols)]
    if _echelon(a, ncols, mirror=v) < ncols:
        raise ValueError("columns are linearly dependent")
    # A column echelon leaves A lower triangular, a row echelon upper.
    while True:
        at = [list(col) for col in zip(*a)]
        if not any(any(col[j + 1 :]) for j, col in enumerate(at)):
            break
        _echelon(at, nrows)
        a = [list(row) for row in zip(*at)]
        if not any(any(row[i + 1 :]) for i, row in enumerate(a)):
            break
        _echelon(a, ncols, mirror=v)
    for t in range(ncols):
        if a[t][t] < 0:
            for row in v:
                row[t] = -row[t]
    return [abs(a[t][t]) for t in range(ncols)], v
