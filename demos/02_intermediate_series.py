"""Tour of the intermediate-series modules V(alpha, beta, G).

The module has basis {v_y : y in G} with d_x v_y = (alpha + y + x*beta) v_{x+y}
and C acting as zero.  It is reducible exactly when alpha lies in G and beta
is 0 or 1; each reducible case drops a single basis line, and the remaining
irreducible piece V' is what the classifier later recognizes.

Run:  PYTHONPATH=src python3 demos/02_intermediate_series.py
"""

from gvir import Context, Group, IntermediateSeriesModule

G = Group.of_rank(2)

print("== generic module: action coefficients stay symbolic ==")
V = IntermediateSeriesModule(Context.of_rank(2), G)
for x, y in [((1, 0), (0, 0)), ((0, 1), (2, -1)), ((-1, -1), (1, 1))]:
    coeff, target = V.act(x, y)
    print(f"d[{x[0]},{x[1]}] v[{y[0]},{y[1]}] = ({coeff}) v[{target[0]},{target[1]}]")
print(f"reducible: {V.is_reducible()}")

print()
print("== the reducibility grid ==")
print(f"{'alpha':>12} {'beta':>6} {'reducible':>10}  sub-quotient")
for alabel, akw in (("free", {}), ("g1", {"alpha": [1, 0]}), ("0", {"alpha": 0})):
    for blabel, bkw in (("free", {}), ("0", {"beta": 0}), ("1", {"beta": 1})):
        V = IntermediateSeriesModule(Context.of_rank(2, **akw, **bkw), G)
        desc = V.subquotient()
        extra = f"drops v at y = {desc.excluded}" if desc.excluded else ""
        print(f"{alabel:>12} {blabel:>6} {str(V.is_reducible()):>10}  {desc.kind} {extra}")

print()
print("== inside a reducible case: alpha = g1, beta = 1 ==")
V = IntermediateSeriesModule(Context.of_rank(2, alpha=[1, 0], beta=1), G)
desc = V.subquotient()
print(f"V' is the {desc.kind} piece; the weight space at y = {desc.excluded} is gone:")
for y in [(-2, 0), (-1, 0), (0, 0)]:
    print(f"  dim V'_(alpha + {y}) = {V.weight_dim(y)}")
coeff, target = V.act_reduced((-1, 0), (0, 0))
print(f"acting toward the hole: d[-1,0] v[0,0] = ({coeff}) v[{target[0]},{target[1]}]")
print("  -> the coefficient vanishes exactly on the dropped line")
