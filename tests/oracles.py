"""Independent test oracle: dense Gaussian elimination over the fraction field.

Plain textbook elimination with division on `Scalar` entries, slow but
sharing no code with the fraction-free engines of `gvir.linalg`; the tests
check ranks, kernels and pivot columns against it.
"""

from gvir.linalg import to_poly
from gvir.scalars import Poly, Scalar


def _dense_scalar_rows(reg, rows, ncols):
    zero = Scalar.make(Poly.zero(reg))
    out = []
    for row in rows:
        if isinstance(row, dict):
            dense = [zero] * ncols
            for j, v in row.items():
                dense[j] = Scalar.make(to_poly(reg, v))
        else:
            dense = [v if isinstance(v, Scalar) else Scalar.make(to_poly(reg, v)) for v in row]
            dense += [zero] * (ncols - len(dense))
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
