"""Exact integer linear algebra used by the polytope machinery.

One fraction-free elimination (Bareiss, Math. Comp. 22, 1968) serves rank
and kernel: every intermediate entry is an integer minor of the input, so the
divisions are exact and no rational number is ever formed.
Run to the reduced form, it yields D times the reduced row echelon form,
where D is the determinant of the pivot minor; that form is unique, so
kernel vectors read off it are canonical.  The normal of a hyperplane
through d points is the one kernel vector of their d - 1 difference rows,
and the saturated integer kernel comes with the inverse of its unimodular
completion, which gives integer left inverses of lattice bases.

The normal form of a matrix A of full column rank is a diagonal one,
U A V = D, by unimodular row and column operations (Smith's elimination,
without the divisibility step that makes D unique).  The lattice points of
the column span of A modulo the columns of A form the group of order
d_1 ... d_c, and the element with coordinates k_j mod d_j is A V (k / d):
so V and the d_j alone enumerate it, and U is never formed.
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


def integer_kernel_basis(rows: list[tuple[int, ...]], n: int):
    """Z-basis of {x in Z^n : rows @ x = 0} (a saturated sublattice), with an
    integer left inverse of it.

    Column reduction by a unimodular matrix U gives A U = [H | 0]; the
    trailing columns of U span the (saturated) kernel.  The matching rows of
    U^-1, tracked alongside by the inverse row operations, satisfy
    left_inverse[k] . basis[j] == (k == j).  Returns (basis, left_inverse).
    """
    u = [[1 if i == j else 0 for j in range(n)] for i in range(n)]  # column ops mirror
    u_inv = [row[:] for row in u]  # U^-1, by the inverse row ops
    if not rows:
        return [tuple(r) for r in u], [tuple(r) for r in u_inv]
    a = [list(r) for r in rows]

    def col_op(j, k, f):
        # column_j += f * column_k; on U^-1: row_k -= f * row_j
        for row in a:
            row[j] += f * row[k]
        for row in u:
            row[j] += f * row[k]
        row_j, row_k = u_inv[j], u_inv[k]
        u_inv[k] = [y - f * x for x, y in zip(row_j, row_k)]

    def col_swap(j, k):
        for row in a:
            row[j], row[k] = row[k], row[j]
        for row in u:
            row[j], row[k] = row[k], row[j]
        u_inv[j], u_inv[k] = u_inv[k], u_inv[j]

    lead = 0
    for i in range(len(a)):
        if lead >= n:
            break
        # Euclidean reduction across columns lead..n-1 on row i.
        while True:
            nz = [j for j in range(lead, n) if a[i][j] != 0]
            if not nz:
                break
            jmin = min(nz, key=lambda j: abs(a[i][j]))
            col_swap(lead, jmin)
            done = True
            for j in range(lead + 1, n):
                if a[i][j] != 0:
                    q = a[i][j] // a[i][lead]
                    col_op(j, lead, -q)
                    if a[i][j] != 0:
                        done = False
            if done:
                break
        if a[i][lead] != 0:
            lead += 1
    # Columns lead..n-1 of U are the kernel basis; rows lead..n-1 of U^-1
    # are its left inverse.
    basis = [tuple(u[i][j] for i in range(n)) for j in range(lead, n)]
    left_inverse = [tuple(u_inv[j]) for j in range(lead, n)]
    return basis, left_inverse


def diagonal_form(rows):
    """A diagonal form U A V = D of an integer matrix A of full column rank.

    Repeatedly moves an entry of least absolute value in the uncleared block
    to the pivot and reduces its row and column by it, until both are clear.
    Returns (diag, v): the positive diagonal entries d_1..d_c of D and the
    column transform V as a list of rows.  Raises ValueError when the
    columns are dependent.
    """
    a = [list(r) for r in rows]
    nrows, ncols = len(a), len(a[0])
    v = [[int(i == j) for j in range(ncols)] for i in range(ncols)]
    diag = []
    for t in range(ncols):
        while True:
            entries = [
                (abs(a[i][j]), i, j) for i in range(t, nrows) for j in range(t, ncols) if a[i][j]
            ]
            if not entries:
                raise ValueError("columns are linearly dependent")
            _, i, j = min(entries)
            a[t], a[i] = a[i], a[t]
            if j != t:
                for row in a + v:
                    row[t], row[j] = row[j], row[t]
            p = a[t][t]
            clear = True
            for i in range(t + 1, nrows):
                q = a[i][t] // p
                if q:
                    a[i] = [x - q * y for x, y in zip(a[i], a[t])]
                clear = clear and not a[i][t]
            for j in range(t + 1, ncols):
                q = a[t][j] // p
                if q:
                    for row in a + v:  # column_j -= q * column_t, in A and in V
                        row[j] -= q * row[t]
                clear = clear and not a[t][j]
            if clear:
                break
        if p < 0:
            for row in a + v:
                row[t] = -row[t]
        diag.append(abs(p))
    return diag, v
