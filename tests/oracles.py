"""Independent test oracles: dense Gaussian elimination over the fraction
field, and the maximal-minor gcd by enumeration.

Plain textbook elimination with division on `Scalar` entries, slow but
sharing no code with the fraction-free engines of `gvir.linalg`; the tests
check ranks, kernels and pivot columns against it.  The minor gcd takes one
`det` per row subset (itself checked against permutation expansions) and
the PRS gcd, the way conditions were formed before `linalg.minor_gcd`.
"""

import itertools
from functools import reduce

from gvir.linalg import det
from gvir.scalars import Poly, Scalar, _gcd_prs


def _dense_scalar_rows(reg, rows, ncols):
    """Sparse rows {column: Poly} as dense lists of Scalars."""
    zero = Scalar.make(Poly.zero(reg))
    out = []
    for row in rows:
        dense = [zero] * ncols
        for j, p in row.items():
            dense[j] = Scalar.make(p)
        out.append(dense)
    return out


def field_rref(reg, rows, ncols):
    """Reduced row echelon form over the fraction field.

    Returns (rank, pivot column list, rref rows as dense Scalar lists).
    Plain leftmost-pivot Gaussian elimination with division.
    """
    mat = _dense_scalar_rows(reg, rows, ncols)
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(mat)) if not mat[i][c].is_zero()), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        inv = mat[r][c].inv()
        mat[r] = [v * inv for v in mat[r]]
        for i in range(len(mat)):
            if i != r and not mat[i][c].is_zero():
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return r, pivots, mat[:r]


def field_rank(reg, rows, ncols):
    return field_rref(reg, rows, ncols)[0]


def minor_gcd_by_enumeration(reg, rows, ncols):
    """gcd of every maximal minor of sparse rows, made `primitive_int`;
    zero when all vanish."""
    minors = [det(reg, list(sub)) for sub in itertools.combinations(rows, ncols)]
    nonzero = [d for d in minors if not d.is_zero()]
    return reduce(_gcd_prs, nonzero).primitive_int()[1] if nonzero else Poly.zero(reg)
