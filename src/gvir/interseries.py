"""Intermediate-series modules over the generalized Virasoro algebra.

V(alpha, beta, G) has basis {v_y : y in G} with

    C v_y = 0,      d_x v_y = (alpha + y + x*beta) v_{x+y},

reading x, y in coefficients as embedded values.  The module is reducible
exactly when alpha lies in G and beta is 0 or 1; in both reducible cases the
unique nontrivial irreducible sub-quotient V' loses the single basis line at
y = -a (alpha = iota(a)): for beta = 0 that line spans a trivial submodule
and V' is the quotient, for beta = 1 the complement is itself a submodule.

Membership alpha in G is structural and read from `Context.alpha_element`.
The bindings of a module are fixed when it is built, so V' is decided once,
in `IntermediateSeriesModule.__init__`, and every method on V' reads it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .groups import gadd, gneg

SUPPORT_SHIFTED = "alpha+G"
SUPPORT_PUNCTURED = "G-{0}"


@dataclass(frozen=True)
class SubquotientDescriptor:
    """Which sub-quotient V' is, and where it lives.

    kind: "whole", "quotient_by_trivial" (beta=0) or "submodule_off_zero"
    (beta=1).  excluded is the basis index y = -a dropped in the reducible
    cases, None otherwise.
    """

    kind: str
    support: str
    excluded: tuple | None

    def to_json(self):
        return {
            "kind": self.kind,
            "support": self.support,
            "excluded_index": list(self.excluded) if self.excluded is not None else None,
        }


def subquotient_of(a, beta):
    """V' of V(alpha, beta, G) from a, the coordinates with alpha = iota(a)
    (None when alpha is not structurally a member), and the binding of beta.

    The one reducibility rule: a given and beta bound to 0 or 1."""
    if a is None or beta.kind != "rational" or beta.value not in (0, 1):
        return SubquotientDescriptor("whole", SUPPORT_SHIFTED, None)
    kind = "quotient_by_trivial" if beta.value == 0 else "submodule_off_zero"
    return SubquotientDescriptor(kind, SUPPORT_PUNCTURED, gneg(a))


class IntermediateSeriesModule:
    """V(alpha, beta, G) with alpha, beta taken from the context bindings."""

    def __init__(self, ctx, group):
        if ctx.rank != group.rank:
            raise ValueError("context and group rank disagree")
        self.ctx = ctx
        self.group = group
        self.alpha = ctx.alpha
        self.beta = ctx.beta
        self._subquotient = subquotient_of(ctx.alpha_element(), ctx.binding("beta"))

    # -- action on the full module ------------------------------------------

    def act(self, x, y):
        """d_x v_y = coeff * v_{x+y}; returns (coeff, x+y).  C acts as 0."""
        x = self.group.validate(x)
        y = self.group.validate(y)
        ctx = self.ctx
        coeff = self.alpha + ctx.embed(y) + ctx.embed(x) * self.beta
        return coeff, gadd(x, y)

    def weight(self, y):
        """d_0 eigenvalue of v_y: alpha + iota(y)."""
        return self.alpha + self.ctx.embed(self.group.validate(y))

    # -- reducibility ----------------------------------------------------------

    def is_reducible(self):
        return self._subquotient.excluded is not None

    def subquotient(self):
        """Descriptor of the unique nontrivial irreducible sub-quotient V'."""
        return self._subquotient

    # -- action on V' ------------------------------------------------------------

    def act_reduced(self, x, y):
        """Action on the sub-quotient basis; components on the dropped line
        vanish (identically for the submodule case, by passing to the
        quotient otherwise).  Returns (coeff, target)."""
        desc = self._subquotient
        coeff, target = self.act(x, y)
        if y == desc.excluded:
            raise ValueError(f"basis index {y} is not part of the sub-quotient")
        if target == desc.excluded:
            if desc.kind == "submodule_off_zero" and not coeff.is_zero():
                raise AssertionError("claimed submodule is not closed")
            return self.ctx.zero(), target
        return coeff, target

    def weight_dim(self, y):
        """Dimension (0 or 1) of the V' weight space indexed by y."""
        return 0 if self.group.validate(y) == self._subquotient.excluded else 1

    def dims_row(self, window):
        """(y, dim) pairs over an iterable coordinate window."""
        return [(self.group.validate(y), self.weight_dim(y)) for y in window]
