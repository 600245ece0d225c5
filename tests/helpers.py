"""Shared builders for the test suite."""

import random
from typing import Optional

from chowcalc.rings import (
    MONOMIAL_ONE,
    GradedClass,
    Monomial,
    RingContext,
    exponents,
)
from chowcalc.script import MAX_DEPTH, ParseError
from chowcalc.varieties import (
    BundleRoots,
    CenterData,
    blow_up,
    product,
    projective_bundle,
    projective_space,
)


def reference_mul(a: tuple, b: tuple) -> tuple:
    """Reference product of two monomials given as sorted (index, exponent)
    pairs with positive exponents: a merge of the two tuples."""
    out = []
    i = j = 0
    while i < len(a) and j < len(b):
        if a[i][0] < b[j][0]:
            out.append(a[i])
            i += 1
        elif b[j][0] < a[i][0]:
            out.append(b[j])
            j += 1
        else:
            out.append((a[i][0], a[i][1] + b[j][1]))
            i += 1
            j += 1
    return tuple(out + list(a[i:]) + list(b[j:]))


def reference_divides(k: tuple, m: tuple) -> bool:
    """Reference divisibility of sorted pairs: a walk of m's pairs for each
    of k's."""
    j = 0
    for i, e in k:
        while j < len(m) and m[j][0] < i:
            j += 1
        if j == len(m) or m[j][0] != i or m[j][1] < e:
            return False
        j += 1
    return True


def reference_div(m: tuple, k: tuple) -> tuple:
    """Reference quotient m / k of sorted pairs; ValueError when k does not
    divide m."""
    if not reference_divides(k, m):
        raise ValueError("negative exponent in monomial")
    have = dict(k)
    return tuple((i, e - have.get(i, 0)) for i, e in m if e > have.get(i, 0))


def reference_mkey(ring: RingContext, m: int) -> tuple:
    """Reference monomial order: the exponent vector read from the last
    generator to the first, compared lexicographically."""
    v = [0] * len(ring.names)
    for i, e in exponents(m):
        v[i] = e
    return tuple(reversed(v))


def kept_under(X, tag: str) -> dict:
    """What presentation X keeps under tag, keyed by the rest of each key."""
    return {key[1:]: value for key, value in X._derived.items() if key[0] == tag}


def basis_classes(X, d: int) -> list[GradedClass]:
    """The basis monomials of X in codegree d, each as a class."""
    return [GradedClass(X.ring, {m: 1}) for m in X.basis_of(d)]


def reference_ideal_rows(X, gens, d: int) -> list[list[int]]:
    """Coordinate rows of each generator's parts times every basis class,
    as far as the product lands in codegree d, by class products."""
    rows = []
    for g in gens:
        for gd in sorted(g.codegrees()):
            if gd <= d:
                part = g.homogeneous_part(gd)
                rows += [X.coordinates(part * b, d) for b in basis_classes(X, d - gd)]
    return rows


def counting(monkeypatch, owner, name: str) -> list:
    """Wrap owner.name (a module function or a class's method) for the rest
    of the test; returns the list of calls, each its positional arguments
    as a tuple."""
    calls = []
    orig = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return orig(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


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
    largest term in ``reference_mkey`` order is rewritten by the first rule
    whose lead divides it (``reference_matching_rule``), until no term is
    reducible; products and quotients by the sorted-pair references,
    codegrees from the decoded exponents."""
    dim = ring.dimension if truncate else None
    red = ring._red
    work: dict[Monomial, int] = {}
    for m, c in table.items():
        c = red(c)
        if c:
            work[m] = red(work.get(m, 0) + c)
    out: dict[Monomial, int] = {}
    while work:
        m = max(work, key=lambda u: reference_mkey(ring, u))
        c = work.pop(m)
        if c == 0:
            continue
        if dim is not None and sum(ring.codegrees[i] * e for i, e in exponents(m)) > dim:
            continue
        rule = reference_matching_rule(ring, m)
        if rule is None:
            v = red(out.get(m, 0) + c)
            if v:
                out[m] = v
            elif m in out:
                del out[m]
            continue
        q = reference_div(exponents(m), rule.lead.exps)
        for rm, rc in rule.replacement:
            t = Monomial(reference_mul(exponents(rm), q))
            v = red(work.get(t, 0) + c * rc)
            if v:
                work[t] = v
            elif t in work:
                del work[t]
    return {m: c for m, c in out.items() if c}


def reference_matching_rule(ring: RingContext, m: Monomial):
    """Reference rule matching, a scan of every stored rule in order that
    reads each lead's exponents: the first rule whose lead divides m."""
    have = dict(exponents(m)).get
    for rule in ring.rules:
        for i, e in rule.lead.exps:
            if have(i, 0) < e:
                break
        else:
            return rule
    return None


def reference_minimal_monomials(monomials) -> set:
    """Reference minimal monomials: each monomial, in order of total degree,
    against the minimal ones found so far whose first generator is in its
    support."""
    distinct = set(monomials)
    if MONOMIAL_ONE in distinct:
        return {MONOMIAL_ONE}
    by_first: dict[int, list[Monomial]] = {}
    minimal = set()
    for m in sorted(distinct, key=lambda u: sum(e for _, e in exponents(u))):
        have = dict(exponents(m))
        divisible = False
        for i in have:
            for k in by_first.get(i, ()):
                for j, e in exponents(k):
                    if have.get(j, 0) < e:
                        break
                else:
                    divisible = True
                    break
            if divisible:
                break
        if not divisible:
            by_first.setdefault(exponents(m)[0][0], []).append(m)
            minimal.add(m)
    return minimal


def monomials_of_codegree(ring: RingContext, d: int) -> list[Monomial]:
    """Every monomial in the ring's generators of codegree d, reducible or
    not."""
    out = []

    def rec(i: int, remaining: int, pairs: list):
        if remaining == 0:
            out.append(Monomial(pairs))
            return
        if i == len(ring.names):
            return
        cd = ring.codegrees[i]
        for e in range(remaining // cd + 1):
            rec(i + 1, remaining - e * cd, pairs + [(i, e)])

    rec(0, d, [])
    return out


def reference_irreducible_monomials(ring: RingContext, d: int) -> list[Monomial]:
    """Reference irreducible monomials of codegree d, by a recursion over
    the generators in index order, each exponent from the largest down,
    that drops a prefix some rule reduces; sorted in ``reference_mkey``
    order."""
    out: list[Monomial] = []
    n = len(ring.names)

    def rec(i: int, remaining: int, acc: dict[int, int]):
        # acc holds positive exponents only
        if remaining == 0:
            m = Monomial(acc.items())
            if ring._matching_rule(m) is None:
                out.append(m)
            return
        if i >= n:
            return
        cd = ring.codegrees[i]
        for e in range(remaining // cd, -1, -1):
            if e:
                acc[i] = e
                # prune: a reducible prefix only gets worse
                if ring._matching_rule(Monomial(acc.items())) is not None:
                    del acc[i]
                    continue
            rec(i + 1, remaining - e * cd, acc)
            if e:
                del acc[i]

    rec(0, d, {})
    return sorted(out, key=lambda m: reference_mkey(ring, m))


def restriction_fixed(X, center) -> set:
    """Indices of X's generators that the center's restriction fixes."""
    return {
        i for i, name in enumerate(X.ring.names)
        if center.restriction.get(name, X.gen(name)) == X.gen(name)
    }


def reference_kill_leads(X, center) -> list:
    """Reference monomials m of the rules e*m -> 0 of blow_up(X, center), by
    a minimality test over all candidates: X's basis monomials in the
    generators the restriction fixes, of codegree dim X - r + 1 to dim X,
    that no other of them divides, by codegree, then in basis order."""
    fixed = restriction_fixed(X, center)
    killed = [
        m for d in range(X.dim - center.codim + 1, X.dim + 1) for m in X.basis_of(d)
        if all(i in fixed for i, _ in exponents(m))
    ]
    minimal = reference_minimal_monomials(killed)
    return [m for m in killed if m in minimal]


def reference_truncated_leads(X) -> list:
    """Reference truncated leads of X, by a minimality test over every
    monomial that no rule of X reduces, of codegree dim X + 1 to dim X plus
    the largest generator codegree: those that no other of them divides, by
    codegree, then in ``reference_mkey`` order."""
    ring = X.ring
    high = [
        m
        for d in range(X.dim + 1, X.dim + max(ring.codegrees, default=0) + 1)
        for m in sorted(monomials_of_codegree(ring, d), key=lambda u: reference_mkey(ring, u))
        if reference_matching_rule(ring, m) is None
    ]
    minimal = reference_minimal_monomials(high)
    return [m for m in high if m in minimal]


def reference_blow_up_basis(X, center, Bl, rules=()) -> tuple:
    """Reference basis of Bl = blow_up(X, center).with_rules(rules), with
    its center basis by a scan of every rule of Bl's ring: X's basis
    monomials and e^k * m for 0 < k < r, where m runs over X's basis
    monomials in the generators the restriction fixes, of codegree at most
    dim X - r, whose product with e no stored rule reduces; minus every
    monomial that a lead of rules divides."""
    ring = Bl.ring
    r = center.codim
    dim_z = X.dim - r
    e_idx = len(X.ring.names)
    fixed = restriction_fixed(X, center)
    center_basis = [
        [m for m in X.basis_of(d)
         if all(i in fixed for i, _ in exponents(m))
         and reference_matching_rule(ring, Monomial(exponents(m) + ((e_idx, 1),))) is None]
        for d in range(dim_z + 1)
    ]
    basis = []
    for d in range(X.dim + 1):
        here = list(X.basis_of(d))
        for k in range(1, r):
            if 0 <= d - k <= dim_z:
                here += [Monomial(exponents(m) + ((e_idx, k),)) for m in center_basis[d - k]]
        here = [m for m in here
                if not any(reference_divides(exponents(lead), exponents(m)) for lead, _ in rules)]
        basis.append(tuple(sorted(here, key=lambda m: reference_mkey(ring, m))))
    return tuple(basis)


def symmetric_expand(power: int, roots_rank: int, up_to: int) -> GradedClass:
    """Reference expansion of prod_i (1 + x_i^power) over roots x_1..x_r in
    the elementary symmetric classes c_1..c_r of a free integral ring,
    truncated at codegree up_to, by Newton's identities: the power sums p_j
    of the roots from the c_i, then the elementary symmetric functions e_m
    of the power-th powers from the p_{power*i} (every division is exact
    over Z).  Substituting actual Chern roots for the c_i reproduces the
    product; the answer is stable in r once r >= up_to."""
    if power < 1 or roots_rank < 1:
        raise ValueError("power and roots_rank must be >= 1")
    names = [f"c{i}" for i in range(1, roots_rank + 1)]
    ctx = RingContext(names, list(range(1, roots_rank + 1)), dimension=up_to)
    c = [ctx.one()] + [ctx.gen(n) for n in names]
    # p_j = sum_{i<j} (-1)^(i-1) c_i p_{j-i} + (-1)^(j-1) j c_j, c_j = 0 for j > r
    p = [ctx.zero()]
    for j in range(1, up_to + 1):
        pj = c[j].scale((-1) ** (j - 1) * j) if j <= roots_rank else ctx.zero()
        for i in range(1, min(j, roots_rank + 1)):
            pj = pj + (c[i] * p[j - i]).scale((-1) ** (i - 1))
        p.append(pj)
    # m e_m = sum_{i=1..m} (-1)^(i-1) e_{m-i} p_{power*i}, e_m = 0 for m > r
    e = [ctx.one()]
    for m in range(1, min(roots_rank, up_to // power) + 1):
        me = ctx.zero()
        for i in range(1, m + 1):
            me = me + (e[m - i] * p[power * i]).scale((-1) ** (i - 1))
        e.append(GradedClass(ctx, {mon: k // m for mon, k in me.table.items()}))
    return sum(e, ctx.zero())


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


def reference_tokenize(text: str) -> list[tuple[str, int, int]]:
    """Reference DSL tokenizer, a character loop: the brackets and atoms of
    text as (text, line, column), skipping spaces, tabs, '\\r', ',' and
    comments from ';' to the end of the line."""
    tokens = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r,":
            col += 1
            i += 1
            continue
        if ch == ";":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch in "(){}":
            tokens.append((ch, line, col))
            col += 1
            i += 1
            continue
        j = i
        while j < n and text[j] not in " \t\r\n,(){};":
            j += 1
        tokens.append((text[i:j], line, col))
        col += j - i
        i = j
    return tokens


def reference_parse(text: str) -> list:
    """Reference DSL reader, recursive descent over ``reference_tokenize``:
    the forms of text, or the ParseError the reader raises for it.  A
    top-level atom or subset literal is reported at its first token."""
    tokens = reference_tokenize(text)
    end = len(tokens)
    pos = 0
    closing = {"(": ")", "{": "}"}

    def read(depth):
        # only called with pos < end; depth brackets are open around the token
        nonlocal pos
        tok, line, col = tokens[pos]
        pos += 1
        close = closing.get(tok)
        if close is None:
            if tok in (")", "}"):
                raise ParseError(f"unexpected {tok!r}", line, col)
            c = tok[0]
            if c.isdigit() or c in "+-" or c.isspace():
                try:
                    return int(tok)
                except ValueError:
                    pass
            return tok
        if depth == MAX_DEPTH:
            raise ParseError(f"brackets nest deeper than {MAX_DEPTH}", line, col)
        items = []
        while True:
            if pos == end:
                raise ParseError(f"unbalanced {tok!r}: missing {close!r}", line, col)
            nxt, nline, ncol = tokens[pos]
            if nxt == close:
                pos += 1
                return items if close == ")" else frozenset(items)
            v = read(depth + 1)
            if close == "}" and not isinstance(v, int):
                raise ParseError("subset literals hold integers", nline, ncol)
            items.append(v)

    forms = []
    while pos < end:
        _, line, col = tokens[pos]
        form = read(0)
        if not isinstance(form, list):
            raise ParseError("top-level forms must be parenthesized", line, col)
        forms.append(form)
    return forms
