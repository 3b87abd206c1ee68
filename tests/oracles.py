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

The induced module computes on packed monomials; `poly_action` restates its
action rules with `Poly` coefficients (the embedding of `Context.embed`,
no packed layout), and `poly_probe_rows` applies every probe sequence to
every column on it, one operator at a time.  `prepare_row` is the row
preparation of `linalg` as it was on `Poly` rows, and `packed_reference`
packs its rows the way the elimination used to receive them.
"""

import itertools
from fractions import Fraction
from functools import reduce

from gvir.algebra import Straightener
from gvir.groups import gadd, gsub, gzero
from gvir.induced import _factor_first
from gvir.linalg import _field_bounds, det
from gvir.scalars import Poly, Scalar, _content, _grlex, _norm_coeff, _Packing


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


# -- the induced module on Poly coefficients, and the old row preparation ------


def poly_action(mod):
    """A `Straightener` for the action of the induced module mod with Poly
    coefficients, from the rules of `InducedModule._bracket` and `_top`."""
    ctx = mod.ctx
    one = Poly.const(ctx.reg, 1)
    alpha, beta = ctx.alpha.num, ctx.beta.num

    def iota(t, y):
        return ctx.embed(mod.split.compose(t, y)).num

    def bracket(x, f):
        (k, u), (k1, u1) = x, f
        br = iota(k - k1, gsub(u1, u))
        return () if br.is_zero() else (((k + k1, gadd(u, u1)), br),)

    def top(x, mu):
        k, u = x
        if k > 0:
            return {((x,), mu): one}
        if k < 0:
            return {}
        nu = gadd(u, mu)
        coeff = alpha + iota(0, mu) + iota(0, u) * beta
        if nu == mod.top_excluded or coeff.is_zero():
            return {}
        return {((), nu): coeff}

    return Straightener(one, _factor_first, bracket, top)


def poly_probe_rows(mod, i, x, cols, radius):
    """The probe rows of `InducedModule._probe_rows` with Poly entries,
    without prefix sharing: every probe sequence acts on every column from
    scratch, one operator at a time, on `poly_action`."""
    action = poly_action(mod)
    rows = []
    for seq in mod.probe_multisets(i, radius):
        shift = gzero(mod.g0_rank)
        for _, y in seq:
            shift = gadd(shift, y)
        target = ((), gadd(x, shift))
        if target[1] == mod.top_excluded:
            continue
        row = {}
        for j, mono in enumerate(cols):
            vec = {mono: action.one}
            for k, y in seq:
                vec = action.act((-k, y), vec)
            if target in vec:
                row[j] = vec[target]
        if row:
            rows.append(row)
    return rows


def prepare_row(row, unit_var=None):
    """`linalg._prepare_row` as it was on Poly terms, frozen: set unit_var
    to 1, drop vanishing entries, divide by the monomial gcd and the signed
    rational content; returns the row and its degree top (None if empty)."""
    entries = {}
    exps = []
    coeffs = []
    for j, p in row.items():
        terms = p.terms
        if unit_var is not None:
            out = {}
            for e, c in terms.items():
                if e[unit_var]:
                    e = e[:unit_var] + (0,) + e[unit_var + 1:]
                out[e] = out.get(e, 0) + c
            terms = {e: _norm_coeff(c) for e, c in out.items() if c}
        if terms:
            reg = p.reg
            entries[j] = terms
            exps += terms
            coeffs += terms.values()
    if not entries:
        return {}, None
    per_var = list(zip(*exps))
    low = tuple(map(min, per_var))
    top = [max(v) - m for v, m in zip(per_var, low)]
    lead_terms = entries[min(entries)]
    negative = lead_terms[max(lead_terms, key=_grlex)] < 0
    cont = _content(coeffs)
    if negative:
        cont = -cont
    shift = any(low)
    if not shift and cont == 1:
        return {j: Poly(reg, terms) for j, terms in entries.items()}, top
    if type(cont) is int:

        def div(c):
            return c // cont

    else:
        inv = Fraction(1) / cont

        def div(c):
            return _norm_coeff(c * inv)

    stripped = {}
    for j, terms in entries.items():
        if shift:
            terms = {tuple(map(int.__sub__, e, low)): div(c) for e, c in terms.items()}
        else:
            terms = {e: div(c) for e, c in terms.items()}
        stripped[j] = Poly(reg, terms)
    return stripped, top


def packed_reference(nvars, rows, unit_var=None):
    """Rows as the elimination received them from `prepare_row`: the
    nonzero prepared rows packed in fields sized by `linalg._field_bounds`;
    returns the packed rows and the layout's fields."""
    prepared = [rt for rt in (prepare_row(row, unit_var) for row in rows) if rt[0]]
    pk = _Packing(_field_bounds(nvars, [top for _, top in prepared]))
    return [{j: pk.pack(p) for j, p in r.items()} for r, _ in prepared], pk.fields

