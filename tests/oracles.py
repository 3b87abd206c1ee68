"""Independent test oracles: dense Gaussian elimination over the fraction
field, the polynomial gcd by the primitive PRS, and the maximal-minor gcd by
enumeration.

Plain textbook elimination with division on `Scalar` entries, slow but
sharing no code with the fraction-free engines of `gvir.linalg`; the tests
check ranks, kernels and pivot columns against it.  The PRS gcd, unlike the
heuristic gcd of `gvir.scalars`, evaluates at no point and rebuilds no
digits: it needs no bound and no luck, and the gcd tests compare against
it.  The minor gcd takes one `det` per row subset (itself checked against
permutation expansions) and the PRS gcd, the way conditions were formed
before `linalg.minor_gcd`.
"""

import itertools
from functools import reduce

from gvir.linalg import det
from gvir.scalars import Poly, Scalar


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
    return reduce(gcd_prs, nonzero).primitive_int()[1] if nonzero else Poly.zero(reg)


# -- polynomial gcd by the primitive PRS ----------------------------------------


def _degree_in(p, i):
    if not p.terms:
        return -1
    return max(e[i] for e in p.terms)


def _monomial_gcd(p):
    """Componentwise minimum exponent vector over all terms."""
    it = iter(p.terms)
    m = list(next(it))
    for e in it:
        for i, x in enumerate(e):
            if x < m[i]:
                m[i] = x
    return tuple(m)


def _shift_down(p, m):
    """Divide by the monomial with exponent vector m (must divide all terms)."""
    if not any(m):
        return p
    return Poly(p.reg, {tuple(map(int.__sub__, e, m)): c for e, c in p.terms.items()})


def _as_univar(p, v):
    """View p as univariate in symbol v: dict degree -> Poly coefficient."""
    out = {}
    for e, c in p.terms.items():
        d = e[v]
        e0 = list(e)
        e0[v] = 0
        coeff = out.setdefault(d, {})
        coeff[tuple(e0)] = c
    return {d: Poly(p.reg, t) for d, t in out.items()}


def _from_univar(reg, u, v):
    out = {}
    for d, coeff in u.items():
        for e, c in coeff.terms.items():
            e2 = list(e)
            e2[v] += d
            out[tuple(e2)] = c
    return Poly(reg, out)


def _uni_mul_poly(u, f):
    return {d: coeff * f for d, coeff in u.items() if not coeff.is_zero()}


def _uni_sub(a, b):
    out = dict(a)
    for d, coeff in b.items():
        s = out.get(d)
        s = coeff.__neg__() if s is None else s - coeff
        if s.is_zero():
            out.pop(d, None)
        else:
            out[d] = s
    return out


def _pseudo_rem(F, G, reg, v):
    """Pseudo-remainder of univariate views F by G (coefficients are Polys)."""
    dG = max(G)
    lcg = G[dG]
    r = F
    while r and max(r) >= dG:
        d = max(r)
        lcr = r[d]
        shifted = {d - dG + dd: coeff for dd, coeff in G.items()}
        r = _uni_sub(_uni_mul_poly(r, lcg), _uni_mul_poly(shifted, lcr))
        if r and max(r) >= d:
            raise AssertionError("pseudo-remainder failed to reduce degree")
    return r


def _uni_primitive(u, reg, v):
    """Strip the content (gcd of coefficient polys) from a univariate view."""
    if not u:
        return u
    cont = reduce(gcd_prs, u.values())
    if not cont.is_const():
        u = {d: coeff.exact_div(cont) for d, coeff in u.items()}
    whole = _from_univar(reg, u, v)
    _, prim = whole.primitive_int()
    return _as_univar(prim, v)


def gcd_prs(a, b):
    """gcd by the primitive PRS over the variable of least degree, with
    contents by recursion; returned like `gvir.scalars._gcd_prim` (primitive,
    integer coefficients, positive graded-lex lead), for nonzero inputs.
    Slow on multivariate inputs, but it needs no bound and no luck."""
    reg = a.reg
    # common monomial factor
    ma, mb = _monomial_gcd(a), _monomial_gcd(b)
    m = tuple(map(min, ma, mb))
    if any(m):
        g = gcd_prs(_shift_down(a, ma), _shift_down(b, mb))
        shell = Poly.monomial(reg, m, 1)
        return g * shell if not g.is_zero() else shell
    if a.is_const() or b.is_const():
        return Poly.const(reg, 1)
    common = a.variables() & b.variables()
    if not common:
        return Poly.const(reg, 1)
    v = min(common, key=lambda i: max(_degree_in(a, i), _degree_in(b, i)))
    A, B = _as_univar(a, v), _as_univar(b, v)
    ca = reduce(gcd_prs, A.values())
    cb = reduce(gcd_prs, B.values())
    pa = {d: c.exact_div(ca) for d, c in A.items()}
    pb = {d: c.exact_div(cb) for d, c in B.items()}
    cont = gcd_prs(ca, cb)
    f, g = (pa, pb) if max(pa) >= max(pb) else (pb, pa)
    while g:
        r = _pseudo_rem(f, g, reg, v)
        if not r:
            break
        f, g = g, _uni_primitive(r, reg, v)
    else:
        g = f
    if not g:
        g = f
    result = _from_univar(reg, g, v)
    _, result = result.primitive_int()
    out = result * cont
    _, out = out.primitive_int()
    return out
