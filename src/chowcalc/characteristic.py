"""Mod-p reduced power operations: the total cohomological operation, the
operation on embedded fundamental classes, the tangential d-class linking
cohomological and homological operations, and the homological operations
themselves.  Chern and Segre classes of (virtual) root data are computed in
``varieties``, beside ``BundleRoots``, where the bundle and blow-up
constructors read them; ``chern_total``, ``chern_class`` and
``segre_total`` are re-exported here.

Chern, Segre and d-classes and the embedded operation truncate at their
ring's dimension, and raise ``ValueError`` on a ring without one.

Convention: the d-class of a line root x is 1 + x^{p-1}, so that the total
d-class of a bundle is the total Chern class when p = 2 and the degree
bookkeeping of P^i = sum_l d_l(T) . P_{i-l} is consistent.  Reports emitted
by the scenario runner flag this convention whenever d-classes are used.

From a total Chern class T alone, d(T) for p > 2 needs F_p coefficients: it
is T * prod_{a=2}^{p-1} c_a(T), with c_a(T) = sum_j a^j c_j(T), signed by
(-1)^k in codegree k(p-1), since prod_{a=1}^{p-1} (1 + a x) = 1 - x^{p-1}.
"""

from __future__ import annotations

from .rings import (
    MONOMIAL_ONE,
    GradedClass,
    RingError,
    _is_prime,
    evaluate,
    exponents,
    generator_power,
    inverse_series,
)
from .varieties import (
    BundleRoots,
    ChowPresentation,
    _product_over_roots,
    chern_class,
    chern_total,
    segre_total,
)

D_CLASS_CONVENTION_NOTE = (
    "d-class convention: a line root x contributes 1 + x^(p-1); "
    "for p=2 the d-class equals the total Chern class"
)


class NotSteenrodClosed(RingError):
    """The context's relations are not stable under the total operation."""


def _check_total(c: GradedClass, what: str) -> GradedClass:
    if c.constant_term() != 1:
        raise ValueError(f"{what} must have constant term 1")
    return c


# ---------------------------------------------------------------------------
# Reduced power operations
# ---------------------------------------------------------------------------

def _steenrod_images(X: ChowPresentation) -> dict[str, GradedClass]:
    ring = X.ring
    p = ring.modulus
    images = {}
    for name, d in zip(ring.names, ring.codegrees):
        g = X.gen(name)
        if d == 1:
            images[name] = g + g**p
        elif d == X.dim:
            # no room above the top codegree
            images[name] = g
        else:
            raise NotSteenrodClosed(
                f"generator {name!r} has codegree {d}; no Steenrod image is defined "
                "for intermediate-codegree generators"
            )
    return images


def _verify_closure(X: ChowPresentation, images) -> None:
    ring = X.ring
    for rule in ring.rules:
        # the raw rule: from_table would rewrite its lead away
        diff = evaluate(GradedClass(ring, {rule.lead: 1, **{m: -c for m, c in rule.replacement}}), images, ring)
        if not diff.is_zero():
            raise NotSteenrodClosed(
                f"rule {ring.monomial_str(rule.lead)} is not Steenrod-closed "
                f"(obstruction {diff})"
            )


def _steenrod_memo(X: ChowPresentation) -> dict[int, GradedClass]:
    """X's map from monomial to the image of that monomial under the total
    operation, kept as ``("steenrod",)``.  The first call computes the
    generator images and, on a presentation that is not cellular, checks
    every rule against them; the map is kept, seeded with 1 and the
    generators, only once the check passes, so a failure raises again."""
    return X.kept(("steenrod",), _seeded_memo, X)


def _seeded_memo(X: ChowPresentation) -> dict[int, GradedClass]:
    images = _steenrod_images(X)
    if not X.is_cellular():
        _verify_closure(X, images)
    ring = X.ring
    memo = {MONOMIAL_ONE: ring.one()}
    for name, img in images.items():
        memo[generator_power(ring.gen_index(name))] = img
    return memo


def steenrod_total(X: ChowPresentation, c: GradedClass) -> GradedClass:
    """The total reduced power operation: the ring endomorphism sending every
    codegree-1 generator x to x + x^p.  Requires F_p coefficients.  On a
    presentation that is not cellular, every rule is first checked to be
    stable under the operation.

    The operation is linear: the image of c is the sum of c_m times the
    image of each monomial m, reduced once.  Each monomial's image is
    computed once per presentation, as ``evaluate`` computes the term of m
    (1 times each generator image to its exponent, in the order of m's
    factors), so the result equals ``evaluate(c, _steenrod_images(X))``."""
    p = X.ring.modulus
    if not p:
        raise RingError("total Steenrod operation needs F_p coefficients")
    if c.ring is not X.ring:
        raise RingError("class does not live on the given presentation")
    ring = X.ring
    memo = _steenrod_memo(X)
    acc: dict[int, int] = {}
    for m, coeff in c.table.items():
        img = memo.get(m)
        if img is None:
            img = ring.one()
            for i, e in exponents(m):
                img = img * memo[generator_power(i)] ** e
            memo[m] = img
        for u, k in img.table.items():
            acc[u] = acc.get(u, 0) + coeff * k
    return GradedClass(ring, ring._reduced(acc))


def reduced_power(X: ChowPresentation, c: GradedClass, i: int) -> GradedClass:
    """P^i(c): the codegree +i(p-1) piece of the total operation, applied to
    each homogeneous part of c separately."""
    p = X.ring.modulus
    if c.codegree is not None:
        return steenrod_total(X, c).homogeneous_part(c.codegree + i * (p - 1))
    out = X.zero()
    for d in c.codegrees():
        out = out + steenrod_total(X, c.homogeneous_part(d)).homogeneous_part(
            d + i * (p - 1)
        )
    return out


def steenrod_embedded(
    X: ChowPresentation,
    fundamental: GradedClass,
    normal: BundleRoots,
) -> GradedClass:
    """Total operation on an embedded fundamental class:
    [S] * prod over normal roots of (1 + x^{p-1}); for p = 2 this is
    [S] * c(N).  The codegree r+l(p-1) piece is q_l(N) * [S]."""
    p = X.ring.modulus
    if not p:
        raise RingError("embedded Steenrod operation needs F_p coefficients")
    if fundamental.ring is not X.ring or normal.ring is not X.ring:
        raise RingError("fundamental class and roots must live on X")
    return fundamental * _product_over_roots(normal, p - 1)


def embedded_power(
    X: ChowPresentation, fundamental: GradedClass, normal: BundleRoots, i: int
) -> GradedClass:
    p = X.ring.modulus
    r = fundamental.codegree
    if r is None:
        raise ValueError("fundamental class must be homogeneous")
    return steenrod_embedded(X, fundamental, normal).homogeneous_part(r + i * (p - 1))


# ---------------------------------------------------------------------------
# d-classes and homological operations
# ---------------------------------------------------------------------------

def d_class_from_roots(roots: BundleRoots, p: int) -> GradedClass:
    """d(T) = prod over roots of (1 + x^{p-1}), truncated; ValueError when
    p is not prime."""
    if not _is_prime(p):
        raise ValueError(f"modulus {p} is not prime")
    return _product_over_roots(roots, p - 1)


def d_class_from_total(total: GradedClass, p: int) -> GradedClass:
    """d(T) computed from the total Chern class alone, in T's own ring.

    Over F_p, t^{p-1} - 1 = prod over a in F_p^* of (t - a), so
    prod_{a=1}^{p-1} (1 + a x) = 1 - x^{p-1} for every root x.  With
    c_a(T) = sum_j a^j c_j(T), so c_1(T) = T, the product
    P = T * prod_{a=2}^{p-1} c_a(T) is prod_i (1 - x_i^{p-1}), and d(T) is P
    with its codegree k(p-1) part multiplied by (-1)^k.  Both sides are
    symmetric in the roots, so this is an identity in F_p[c_1..c_r] and
    holds for every total class with constant term 1 and F_p coefficients
    (``RingError`` otherwise).  For p = 2, d(T) is T itself, on any ring."""
    _check_total(total, "total Chern class")
    ring = total.ring
    if ring.dimension is None:
        raise ValueError("need a truncation bound")
    if p == 2:
        return total
    if ring.modulus != p:
        raise RingError(f"d-class for p = {p} needs a total with F_{p} coefficients")
    if p - 1 > ring.dimension:
        # d(T) lives in the codegrees k(p - 1), so only its 1 survives
        return ring.one()
    cd = ring.monomial_codegree
    P = total
    for a in range(2, p):
        P = P * GradedClass(ring, {m: c * pow(a, cd(m), p) % p for m, c in total.table.items()})
    return GradedClass(
        ring, {m: (-c) % p if cd(m) // (p - 1) % 2 else c for m, c in P.table.items()}
    )


def d_class(T, p: int) -> GradedClass:
    """Dispatch on root data (BundleRoots) or a total Chern class."""
    if isinstance(T, BundleRoots):
        return d_class_from_roots(T, p)
    return d_class_from_total(T, p)


def homological_power(X: ChowPresentation, c: GradedClass, i: int) -> GradedClass:
    """P_i(c) = sum_m d_m(-T_X) . P^{i-m}(c), so that
    sum_l d_l(T_X) . P_{i-l} = P^i holds identically.

    d(-T_X) = inverse_series(d(T_X)) is computed on the first call and kept
    on X as ``("d-minus-tangent",)`` (a presentation has one modulus); a
    presentation without a tangent raises and keeps nothing."""
    p = X.ring.modulus
    if not p:
        raise RingError("homological operation needs F_p coefficients")
    d_minus_T = X.kept(("d-minus-tangent",),
                       lambda: inverse_series(d_class_from_total(X.tangent_class(), p)))
    out = X.zero()
    # d_m(-T_X) lies in codegree m(p - 1), so it vanishes past the dimension
    for m in range(min(i, X.dim // (p - 1)) + 1):
        dm = d_minus_T.homogeneous_part(m * (p - 1))
        if dm.is_zero():
            continue
        out = out + dm * reduced_power(X, c, i - m)
    return out
