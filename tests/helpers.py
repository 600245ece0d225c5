"""Shared builders for the test suite."""

import random
from typing import Optional

from chowcalc.rings import GradedClass, Monomial, RingContext
from chowcalc.varieties import (
    BundleRoots,
    CenterData,
    blow_up,
    product,
    projective_bundle,
    projective_space,
)


def random_class(
    ctx: RingContext,
    rng: random.Random,
    max_codegree: Optional[int] = None,
    terms: int = 3,
    coeff_range: int = 5,
) -> GradedClass:
    """Random sparse class, for property tests."""
    hi = max_codegree
    if hi is None:
        hi = ctx.dimension if ctx.dimension is not None else 4
    table: dict[Monomial, int] = {}
    for _ in range(terms):
        budget = rng.randint(0, hi)
        exps: dict[int, int] = {}
        while budget > 0:
            i = rng.randrange(len(ctx.names))
            d = ctx.codegrees[i]
            if d > budget:
                break
            exps[i] = exps.get(i, 0) + 1
            budget -= d
        m = Monomial(exps.items())
        c = rng.randint(-coeff_range, coeff_range)
        table[m] = table.get(m, 0) + c
    return ctx.from_table(table)


def worklist_nf(ring: RingContext, table, truncate: bool = True) -> dict:
    """Reference normal form by a work loop over the pending terms: the
    largest term in ``ring._mkey`` order is rewritten by the first rule
    whose lead divides it, until no term is reducible."""
    dim = ring.dimension if truncate else None
    red = ring._red
    work: dict[Monomial, int] = {}
    for m, c in table.items():
        c = red(c)
        if c:
            work[m] = red(work.get(m, 0) + c)
    out: dict[Monomial, int] = {}
    while work:
        m = max(work, key=ring._mkey)
        c = work.pop(m)
        if c == 0:
            continue
        if dim is not None and ring.monomial_codegree(m) > dim:
            continue
        rule = ring._matching_rule(m)
        if rule is None:
            v = red(out.get(m, 0) + c)
            if v:
                out[m] = v
            elif m in out:
                del out[m]
            continue
        q = m.div(rule.lead)
        for rm, rc in rule.replacement:
            t = rm.mul(q)
            v = red(work.get(t, 0) + c * rc)
            if v:
                work[t] = v
            elif t in work:
                del work[t]
    return {m: c for m, c in out.items() if c}


def bl_point_plane():
    P2 = projective_space(2)
    center = CenterData(
        fundamental=P2.gen("h") ** 2,
        roots=BundleRoots.plus([P2.zero(), P2.zero()], ring=P2.ring),
        restriction={"h": P2.zero()},
        name="pt",
    )
    return P2, blow_up(P2, center)


def point_center(X, rng):
    """A degree-one point on a tower: top basis monomial of degree +1, with
    every tracked class restricting to zero."""
    tops = [m for m in X.basis_of(X.dim) if X.degree_table.get(m) == 1]
    if not tops:
        return None
    z = X.ring.from_table({rng.choice(tops): 1})
    return CenterData(
        fundamental=z,
        roots=BundleRoots.plus([X.zero()] * X.dim, ring=X.ring),
        restriction={n: X.zero() for n in X.ring.names},
        name="pt",
    )


def random_tower(rng, max_dim=5):
    """A random composition of products, bundles, and blow-ups starting from
    projective spaces, of total dimension <= max_dim.

    Blow-up centers are kept geometrically faithful: points on any tower,
    linear subspaces only inside a plain projective space.
    """
    X = projective_space(rng.randint(1, 3))
    for _ in range(rng.randint(1, 3)):
        move = rng.choice(["product", "bundle", "blowup"])
        ones = [n for n in X.ring.names]
        if move == "product" and X.dim + 1 <= max_dim:
            X = product(X, projective_space(rng.randint(1, max_dim - X.dim)))
        elif move == "bundle" and X.dim + 1 <= max_dim:
            r = rng.randint(2, min(3, max_dim - X.dim + 1))
            roots = []
            for _ in range(r):
                pick = rng.choice([None] + ones)
                roots.append(X.zero() if pick is None else X.gen(pick))
            X = projective_bundle(X, BundleRoots.plus(roots, ring=X.ring))
        elif move == "blowup" and X.dim >= 2:
            exc = f"e{len(X.ring.names)}"
            if X.kind == "pspace" and X.dim >= 3 and rng.random() < 0.5:
                k = rng.randint(2, X.dim - 1)
                center = CenterData.complete_intersection([X.gen("h")] * k)
            else:
                center = point_center(X, rng)
            if center is None:
                continue
            X = blow_up(X, center, exceptional_gen=exc)
    return X


def random_expression(rng, depth=0):
    heads = ["add", "mul", "sub", "neg", "pow", "scale", "part"]
    if depth > 2 or rng.random() < 0.4:
        kind = rng.randrange(3)
        if kind == 0:
            return rng.randint(-20, 20)
        if kind == 1:
            return rng.choice(["x", "y", "alpha", "beta-2", "e12"])
        return frozenset(rng.sample(range(6), rng.randint(0, 3)))
    head = rng.choice(heads)
    n = {"add": 2, "mul": 3, "sub": 2, "neg": 1, "pow": 2, "scale": 2, "part": 2}[head]
    return [head] + [random_expression(rng, depth + 1) for _ in range(n)]
