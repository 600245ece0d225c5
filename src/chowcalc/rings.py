"""Exact sparse arithmetic in graded-commutative polynomial rings with
oriented rewrite rules.

A ring context fixes a list of named generators with positive codegrees,
a coefficient ring (arbitrary-precision integers, or residues mod a prime
p), an optional dimension above which all classes vanish, and a priority-
ordered list of rewrite rules.  Classes are sparse monomial tables kept in
normal form: no stored monomial is divisible by any rule's leading
monomial, no zero coefficients are stored, and two classes are equal iff
their tables coincide.

Rules are stored with minimal leads, as in a reduced Groebner basis: a
declared rule whose lead is a proper multiple of another rule's lead is
dropped when it is a consequence of the kept rules (its lead and its
replacement have the same normal form under them), and kept otherwise.
Rules with equal leads are all kept.  Dropping a rule leaves the set of
irreducible monomials, and so every basis, unchanged.

Rules are oriented by their constructors, and a normal form is computed by
one deterministic strategy: a reducible monomial m is rewritten by the
first stored rule whose lead divides it, so m has one fixed normal form
f(m), and the normal form of a table is the sum of c*f(m) over its terms
(rewriting one monomial leaves the sum of c*f over the others unchanged,
and truncation and reduction mod p are linear too).  Whether f depends on
the rule order is decided on demand by ``confluence_check``, which joins
every critical pair of the rules (Buchberger's criterion).

Each ring keeps f(m) in a memo, filled by walking the rewrite chain of m
with an explicit stack.  Rules are homogeneous and codegrees are positive,
so the chain of m stays among the finitely many monomials of its codegree:
the strategy fails to terminate on m exactly when the walk reaches a
monomial still on its stack, which raises ``RewriteCycle`` naming that
monomial.  For the same reason a monomial at or below the dimension never
meets truncation, so one memo serves truncated and untruncated reduction;
above the dimension the truncated normal form is 0.  A step budget bounds
the rewriting steps of each fill of the memo.

Products go through a second memo on the ring: the normal form of m1*m2
for two monomials is looked up once per pair, and a product of classes
adds up c1*c2 times the stored tables.  Both memos are sound for every
terminating rule set, confluent or not.  In a ring with a finite basis the
product memo is in effect the table of structure constants.

A monomial is a tuple of (generator index, exponent) pairs sorted by index,
with each index once and every exponent positive, so equal monomials have
equal tuples.  Its hash is computed once, when it is built, and kept:
monomials are the keys of every class table and memo.  Products and
quotients merge two sorted tuples and skip the checks of the public
constructor, whose inputs may be unsorted, repeat an index or hold zeros.

A monomial also keeps its support, the set of its generators, as the
bitmask of their indices; a product's support is the OR of its factors'.
A lead can divide a monomial only if its support lies inside the
monomial's, so rule matching and ``minimal_monomials`` test that one
integer condition first and read exponents only for the leads that pass
it.  The scan order, and so the rule that matches, is unchanged.

No floating point is used anywhere; everything is exact.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence


class RingError(Exception):
    """Base class for ring-level failures."""


class ContextMismatch(RingError):
    """Operands live in different ring contexts."""


class ReductionBudgetExceeded(RingError):
    """normal_form exceeded its step budget (ill-founded rule set?)."""


class RewriteCycle(ReductionBudgetExceeded):
    """Rewriting a monomial returns to it: the rule set does not terminate."""

    def __init__(self, monomial: str):
        super().__init__(f"rewrite cycle through {monomial}; rule set does not terminate")
        self.monomial = monomial


class InvalidRule(RingError):
    """A rewrite rule violates a structural invariant."""


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


class Monomial:
    """Sparse exponent vector: a tuple of (generator index, exponent) pairs.

    ``exps`` is sorted by index, each index occurs once and every exponent
    is positive; the empty tuple is the unit monomial.  The public
    constructor establishes this from any pairs: it adds up the exponents of
    a repeated index, then drops zero exponents and refuses negative ones.
    ``mul`` and ``div`` keep it by merging two sorted tuples and build their
    result through ``_monomial``, which takes pairs already in this form.
    A monomial is immutable, and its hash is computed once and kept, as is
    ``support``, the sum of 2^i over its generator indices i: k can divide m
    only if ``k.support & ~m.support == 0``.
    """

    __slots__ = ("exps", "_hash", "support")

    def __init__(self, exps: Iterable[tuple[int, int]] = ()):
        acc: dict[int, int] = {}
        for i, e in exps:
            acc[i] = acc.get(i, 0) + e
        pairs = tuple(sorted((i, e) for i, e in acc.items() if e != 0))
        if any(e < 0 for _, e in pairs):
            raise ValueError("negative exponent in monomial")
        support = 0
        for i, _ in pairs:
            support |= 1 << i
        self.exps = pairs
        self._hash = hash(pairs)
        self.support = support

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        return self is other or (isinstance(other, Monomial) and self.exps == other.exps)

    def __repr__(self) -> str:
        return f"Monomial({self.exps!r})"

    @property
    def is_one(self) -> bool:
        return not self.exps

    def exp_of(self, idx: int) -> int:
        for i, e in self.exps:
            if i == idx:
                return e
        return 0

    def total_degree(self) -> int:
        return sum(e for _, e in self.exps)

    def mul(self, other: "Monomial") -> "Monomial":
        a, b = self.exps, other.exps
        if not b:
            return self
        if not a:
            return other
        out = []
        i = j = 0
        la, lb = len(a), len(b)
        while i < la and j < lb:
            x, y = a[i], b[j]
            if x[0] < y[0]:
                out.append(x)
                i += 1
            elif y[0] < x[0]:
                out.append(y)
                j += 1
            else:
                out.append((x[0], x[1] + y[1]))
                i += 1
                j += 1
        if i < la:
            out.extend(a[i:])
        elif j < lb:
            out.extend(b[j:])
        return _monomial(tuple(out), self.support | other.support)

    def divides(self, other: "Monomial") -> bool:
        b = other.exps
        j, lb = 0, len(b)
        for i, e in self.exps:
            while j < lb and b[j][0] < i:
                j += 1
            if j == lb or b[j][0] != i or b[j][1] < e:
                return False
            j += 1
        return True

    def div(self, other: "Monomial") -> "Monomial":
        """self / other; ``ValueError`` when other does not divide self."""
        b = other.exps
        if not b:
            return self
        out = []
        support = self.support
        j, lb = 0, len(b)
        for x in self.exps:
            if j < lb and b[j][0] == x[0]:
                e = x[1] - b[j][1]
                j += 1
                if e > 0:
                    out.append((x[0], e))
                elif e < 0:
                    raise ValueError("negative exponent in monomial")
                else:
                    support ^= 1 << x[0]
            else:
                out.append(x)
        if j < lb:
            # b[j] names a generator absent from self
            raise ValueError("negative exponent in monomial")
        return _monomial(tuple(out), support)


def _monomial(pairs: tuple[tuple[int, int], ...], support: int) -> Monomial:
    """The monomial of pairs already sorted by index, with distinct indices
    and positive exponents, whose support mask is given (unchecked)."""
    m = object.__new__(Monomial)
    m.exps = pairs
    m._hash = hash(pairs)
    m.support = support
    return m


MONOMIAL_ONE = Monomial()


def minimal_monomials(monomials: Iterable[Monomial]) -> set[Monomial]:
    """The monomials that no other monomial of the input properly divides.

    A proper divisor has a smaller total degree, so it suffices to test each
    monomial, in order of total degree, against the minimal ones found so
    far; and only against those whose support lies inside its own, since a
    divisor's generators all are.  The minimal ones are grouped by support,
    so one mask test passes or skips a whole group.  The unit monomial
    divides every monomial, so it is then the only minimal one.
    """
    distinct = set(monomials)
    if MONOMIAL_ONE in distinct:
        return {MONOMIAL_ONE}
    by_support: dict[int, list[Monomial]] = {}
    minimal: set[Monomial] = set()
    for m in sorted(distinct, key=Monomial.total_degree):
        outside = ~m.support
        have = None
        divisible = False
        for s, group in by_support.items():
            if s & outside:
                continue
            if have is None:
                have = dict(m.exps)
            for k in group:
                # k divides m (inlined: one dict per m, not one walk per pair)
                for j, e in k.exps:
                    if have[j] < e:
                        break
                else:
                    divisible = True
                    break
            if divisible:
                break
        if not divisible:
            by_support.setdefault(m.support, []).append(m)
            minimal.add(m)
    return minimal


@dataclass(frozen=True)
class RewriteRule:
    """Oriented rule: the leading monomial rewrites to the replacement table.

    The leading monomial must not divide any monomial of the replacement,
    and the replacement must be homogeneous of the same codegree.
    """

    lead: Monomial
    replacement: tuple[tuple[Monomial, int], ...]
    index: int = 0


class RingContext:
    """Immutable graded polynomial ring with rewrite rules.

    modulus 0 means integer coefficients; a positive modulus must be prime.
    dimension, when set, truncates every class above that codegree.
    ``rules`` keeps the declared rules in declaration order, minus every
    rule whose lead is a proper multiple of another rule's lead and which
    is a consequence of the kept rules (checked without truncation, so the
    drop stays valid in rings of higher dimension that copy these rules).

    ``_lead_supports`` pairs each stored rule with its lead's support, in
    the order of ``rules``, for ``_matching_rule``.
    ``_normal_forms`` memoises f(m), the normal form of one monomial without
    truncation, as a tuple of (monomial, coefficient) pairs; it is emptied
    whenever the stored rules change.  ``_products`` memoises the truncated
    normal form of each product of two monomials, keyed by the pair of
    monomials; ``gen``, class products and the degree pairing read it, and
    its size is ``len(ring._products)``.  Both memos, like every class
    table, are keyed by monomials: each keeps its hash, and equal monomials
    built apart have equal sorted pairs, so they find the same entry.
    ``monomial_codegree`` is computed each time, not memoised.  Neither
    memo needs confluence (see the module docstring).  Rules that cycle
    raise ``RewriteCycle``; a fill of
    ``_normal_forms`` that takes more than ``step_budget`` rewriting steps
    raises ``ReductionBudgetExceeded``.  A product that raises stores
    nothing in ``_products``.
    """

    def __init__(
        self,
        names: Sequence[str],
        codegrees: Sequence[int],
        modulus: int = 0,
        dimension: Optional[int] = None,
        rules: Iterable[tuple[Monomial, Mapping[Monomial, int]]] = (),
        step_budget: int = 10**6,
    ):
        if len(names) != len(set(names)):
            raise ValueError("duplicate generator names")
        if len(names) != len(codegrees):
            raise ValueError("names/codegrees length mismatch")
        if any(d <= 0 for d in codegrees):
            raise ValueError("generator codegrees must be positive")
        if modulus and not _is_prime(modulus):
            raise ValueError(f"modulus {modulus} is not prime")
        self.names = tuple(names)
        self.codegrees = tuple(codegrees)
        self.modulus = modulus
        self.dimension = dimension
        self.step_budget = step_budget
        self._index = {n: i for i, n in enumerate(self.names)}
        self.rules: tuple[RewriteRule, ...] = ()
        self._install_rules(rules)
        self._products: dict[tuple[Monomial, Monomial], tuple[tuple[Monomial, int], ...]] = {}

    # -- construction -------------------------------------------------

    def _install_rules(self, raw) -> None:
        staged = []
        for lead, repl in raw:
            if lead.is_one:
                raise InvalidRule("unit monomial cannot be a rule lead")
            table = {m: self._red(c) for m, c in repl.items()}
            table = {m: c for m, c in table.items() if c != 0}
            lead_cd = self.monomial_codegree(lead)
            for m in table:
                if self.monomial_codegree(m) != lead_cd:
                    raise InvalidRule(
                        f"inhomogeneous rule: lead codegree {lead_cd}, "
                        f"replacement has codegree {self.monomial_codegree(m)}"
                    )
            staged.append((lead, table))
        minimal = minimal_monomials(lead for lead, _ in staged)
        keep = [lead in minimal for lead, _ in staged]
        while True:
            self._interreduce(
                [(k, lead, table) for k, (lead, table) in enumerate(staged) if keep[k]]
            )
            # A non-minimal rule that the kept rules do not imply is kept too,
            # so a non-confluent input reduces (and is reported) as declared.
            missing = [
                k for k, (lead, table) in enumerate(staged)
                if not keep[k] and not self._implied(lead, table)
            ]
            if not missing:
                break
            for k in missing:
                keep[k] = True

    def _interreduce(self, rules: list[tuple[int, Monomial, dict]]) -> None:
        """Store the (declaration index, lead, table) rules, with every
        replacement in normal form under all of them.  One pass suffices:
        a normal form is irreducible under every lead, and reducing the
        replacements leaves the leads as they are.  A replacement that holds
        its own lead raises RewriteCycle."""
        self._store(rules)
        reduced = [(k, lead, self._nf(table)) for k, lead, table in rules]
        if reduced != rules:
            self._store(reduced)

    def _store(self, rules: list[tuple[int, Monomial, dict]]) -> None:
        self.rules = tuple(
            RewriteRule(lead, tuple(sorted(t.items(), key=lambda kv: kv[0].exps)), k)
            for k, lead, t in rules
        )
        self._lead_supports = tuple((r.lead.support, r) for r in self.rules)
        self._normal_forms: dict[Monomial, tuple[tuple[Monomial, int], ...]] = {}

    def _implied(self, lead: Monomial, table: Mapping[Monomial, int]) -> bool:
        """Whether lead -> table follows from the stored rules: both sides
        have the same normal form, computed without dimension truncation."""
        try:
            return self._nf({lead: 1}, truncate=False) == self._nf(table, truncate=False)
        except ReductionBudgetExceeded:
            return False

    def _red(self, c: int) -> int:
        return c % self.modulus if self.modulus else c

    # -- bookkeeping ---------------------------------------------------

    def gen_index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(f"unknown generator {name!r}") from None

    def monomial_codegree(self, m: Monomial) -> int:
        # not memoised: most monomials asked about are fresh products, and
        # a memo lookup measured no cheaper than this loop
        cd = self.codegrees
        d = 0
        for i, e in m.exps:
            d += cd[i] * e
        return d

    def _mkey(self, m: Monomial):
        # Reverse-index lexicographic order: later generators weigh more.
        # All constructor-emitted rules strictly decrease in this order.
        v = [0] * len(self.names)
        for i, e in m.exps:
            v[i] = e
        v.reverse()
        return tuple(v)

    def monomial_str(self, m: Monomial) -> str:
        if m.is_one:
            return "1"
        parts = []
        for i, e in m.exps:
            parts.append(self.names[i] if e == 1 else f"{self.names[i]}^{e}")
        return "*".join(parts)

    def monomial_from_str(self, text: str) -> Monomial:
        text = text.strip()
        if text == "1":
            return MONOMIAL_ONE
        exps: dict[int, int] = {}
        for factor in text.split("*"):
            if "^" in factor:
                name, _, pw = factor.partition("^")
                e = int(pw)
            else:
                name, e = factor, 1
            idx = self.gen_index(name.strip())
            exps[idx] = exps.get(idx, 0) + e
        return Monomial(exps.items())

    # -- class constructors ---------------------------------------------

    def zero(self) -> "GradedClass":
        return GradedClass(self, {})

    def one(self) -> "GradedClass":
        return self.scalar(1)

    def scalar(self, c: int) -> "GradedClass":
        c = self._red(c)
        return GradedClass(self, {MONOMIAL_ONE: c} if c else {})

    def gen(self, name: str) -> "GradedClass":
        m = Monomial([(self.gen_index(name), 1)])
        return GradedClass(self, dict(self._product(MONOMIAL_ONE, m)))

    def from_table(self, table: Mapping[Monomial, int]) -> "GradedClass":
        return GradedClass(self, self._nf(table))

    # -- reduction -------------------------------------------------------

    def _matching_rule(self, m: Monomial) -> Optional[RewriteRule]:
        """The first stored rule whose lead divides m, or None.  Exponents are
        read only for the leads whose support lies inside m's."""
        outside = ~m.support
        have = None
        for s, rule in self._lead_supports:
            if s & outside:
                continue
            if have is None:
                have = dict(m.exps)
            for i, e in rule.lead.exps:
                if have[i] < e:
                    break
            else:
                return rule
        return None

    def _product(self, m1: Monomial, m2: Monomial) -> tuple[tuple[Monomial, int], ...]:
        """The normal form of m1*m2 as (monomial, coefficient) pairs, memoised."""
        key = (m1, m2)
        nf = self._products.get(key)
        if nf is None:
            nf = self._products[key] = self._f(m1.mul(m2), self._normal_forms, self.dimension)
        return nf

    def _nf(
        self, table: Mapping[Monomial, int], truncate: bool = True
    ) -> dict[Monomial, int]:
        return self._reduce(table, self._normal_forms, self.dimension if truncate else None)

    def _reduce(self, table: Mapping[Monomial, int], memo: dict, dim: Optional[int]) -> dict[Monomial, int]:
        """The sum of c*f(m) over the table, truncated above dim when set."""
        acc: dict[Monomial, int] = {}
        for m, c in table.items():
            if not self._red(c):
                continue
            for u, k in self._f(m, memo, dim):
                acc[u] = acc.get(u, 0) + c * k
        return self._reduced(acc)

    def _reduced(self, acc: dict[Monomial, int]) -> dict[Monomial, int]:
        red = self._red
        out = {}
        for u, c in acc.items():
            c = red(c)
            if c:
                out[u] = c
        return out

    def _f(self, m: Monomial, memo: dict, dim: Optional[int]) -> tuple[tuple[Monomial, int], ...]:
        """f(m) from memo, computing it and every monomial its rewrite chain
        reaches into memo on a miss; () above dim when set.

        A frame of the stack holds a monomial being rewritten, its
        coefficient in the frame below, the terms of its rewrite not yet
        visited, and the sum of c*f(t) over the terms visited.
        """
        if dim is not None and self.monomial_codegree(m) > dim:
            return ()
        nf = memo.get(m)
        if nf is not None:
            return nf
        match = self._matching_rule
        steps = 0
        on_stack: set[Monomial] = set()
        frames: list = []
        t, c = m, 1
        while True:
            # t is missing from memo and enters the top frame with coefficient c
            rule = match(t)
            if rule is None:
                nf = memo[t] = ((t, 1),)
            else:
                steps += 1
                if steps > self.step_budget:
                    raise ReductionBudgetExceeded(
                        f"reduction exceeded {self.step_budget} steps; rule set may not terminate"
                    )
                q = t.div(rule.lead)
                on_stack.add(t)
                frames.append((t, c, iter([(rm.mul(q), rc) for rm, rc in rule.replacement]), {}))
                nf = ()
            # credit c*nf to the top frame and take its next term, until a
            # term is missing from memo or f(m) is complete
            while frames:
                top, top_c, pending, acc = frames[-1]
                for u, k in nf:
                    acc[u] = acc.get(u, 0) + c * k
                term = next(pending, None)
                if term is None:
                    frames.pop()
                    on_stack.remove(top)
                    nf = memo[top] = tuple(self._reduced(acc).items())
                    c = top_c
                    continue
                t, c = term
                nf = memo.get(t)
                if nf is None:
                    if t in on_stack:
                        raise RewriteCycle(self.monomial_str(t))
                    break
            else:
                return nf


class GradedClass:
    """A sparse graded class attached to a ring context, kept in normal form."""

    __slots__ = ("ring", "table")

    def __init__(self, ring: RingContext, table: dict[Monomial, int]):
        self.ring = ring
        self.table = table

    # -- structure --------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, GradedClass):
            return NotImplemented
        if self.ring is not other.ring:
            return False
        return self.table == other.table

    def __hash__(self):
        return hash((id(self.ring), tuple(sorted(self.table.items(), key=lambda kv: kv[0].exps))))

    def is_zero(self) -> bool:
        return not self.table

    @property
    def codegree(self) -> Optional[int]:
        """Codegree if homogeneous and nonzero, else None."""
        degs = {self.ring.monomial_codegree(m) for m in self.table}
        if len(degs) == 1:
            return degs.pop()
        return None

    def codegrees(self) -> set[int]:
        return {self.ring.monomial_codegree(m) for m in self.table}

    # -- arithmetic --------------------------------------------------------

    def _check(self, other: "GradedClass") -> None:
        if self.ring is not other.ring:
            raise ContextMismatch("classes belong to different ring contexts")

    def __add__(self, other: "GradedClass") -> "GradedClass":
        self._check(other)
        acc = dict(self.table)
        red = self.ring._red
        for m, c in other.table.items():
            v = red(acc.get(m, 0) + c)
            if v:
                acc[m] = v
            elif m in acc:
                del acc[m]
        return GradedClass(self.ring, acc)

    def __neg__(self) -> "GradedClass":
        red = self.ring._red
        return GradedClass(self.ring, {m: red(-c) for m, c in self.table.items()})

    def __sub__(self, other: "GradedClass") -> "GradedClass":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        self._check(other)
        ring = self.ring
        product = ring._product
        acc: dict[Monomial, int] = {}
        for m1, c1 in self.table.items():
            for m2, c2 in other.table.items():
                c = c1 * c2
                for m, k in product(m1, m2):
                    acc[m] = acc.get(m, 0) + c * k
        return GradedClass(ring, ring._reduced(acc))

    __rmul__ = __mul__

    def scale(self, k: int) -> "GradedClass":
        red = self.ring._red
        out = {}
        for m, c in self.table.items():
            v = red(c * k)
            if v:
                out[m] = v
        return GradedClass(self.ring, out)

    def __pow__(self, k: int) -> "GradedClass":
        if k < 0:
            raise ValueError("negative power")
        dim = self.ring.dimension
        if dim is not None and k > max(dim, 0) and not self.constant_term():
            # every term has codegree >= 1, so the power lies above the dimension
            return self.ring.zero()
        acc = self.ring.one()
        square = self
        while k:
            if k & 1:
                acc = acc * square
            k >>= 1
            if k:
                square = square * square
        return acc

    def homogeneous_part(self, d: int) -> "GradedClass":
        cd = self.ring.monomial_codegree
        return GradedClass(self.ring, {m: c for m, c in self.table.items() if cd(m) == d})

    def constant_term(self) -> int:
        return self.table.get(MONOMIAL_ONE, 0)

    def __repr__(self) -> str:
        return f"<class {self}>"

    def __str__(self) -> str:
        if not self.table:
            return "0"
        items = sorted(self.table.items(), key=lambda kv: (self.ring.monomial_codegree(kv[0]), self.ring._mkey(kv[0])))
        parts = []
        for m, c in items:
            ms = self.ring.monomial_str(m)
            if m.is_one:
                parts.append(f"{c}")
            elif c == 1:
                parts.append(ms)
            elif c == -1:
                parts.append(f"-{ms}")
            else:
                parts.append(f"{c}*{ms}")
        s = " + ".join(parts)
        return s.replace("+ -", "- ")


def normal_form(c: GradedClass) -> GradedClass:
    """Reduce a class to normal form (idempotent; classes built through the
    public API are already reduced)."""
    return GradedClass(c.ring, c.ring._nf(c.table))


def evaluate(
    c: GradedClass,
    images: Mapping[str, GradedClass],
    target: RingContext,
) -> GradedClass:
    """Apply the ring map sending each generator to its image.

    Generators missing from ``images`` map to the generator of the same name
    in the target context.  The result is reduced in the target.
    """
    src = c.ring
    out = target.zero()
    for m, coeff in c.table.items():
        term = target.scalar(coeff)
        for i, e in m.exps:
            name = src.names[i]
            img = images.get(name)
            if img is None:
                img = target.gen(name)
            term = term * (img**e)
        out = out + term
    return out


def inverse_series(c: GradedClass) -> GradedClass:
    """Multiplicative inverse of a class with constant term 1 (or -1),
    truncated at the context dimension."""
    ring = c.ring
    bound = ring.dimension
    if bound is None:
        raise ValueError("need a truncation bound to invert a series")
    c0 = c.constant_term()
    if ring.modulus:
        unit = c0 != 0
    else:
        unit = c0 in (1, -1)
    if not unit:
        raise ValueError("series has non-invertible constant term")
    if ring.modulus:
        c0_inv = pow(c0, -1, ring.modulus)
    else:
        c0_inv = c0
    tail = c - ring.scalar(c0)
    acc = ring.zero()
    powt = ring.one()
    for _ in range(bound + 1):
        acc = acc + powt
        powt = powt * (tail.scale(-c0_inv))
        if powt.is_zero():
            break
    return acc.scale(c0_inv)


# ---------------------------------------------------------------------------
# Confluence certificate
# ---------------------------------------------------------------------------

@dataclass
class ConfluenceReport:
    pairs: int
    divergences: list

    @property
    def passed(self) -> bool:
        return not self.divergences


def confluence_check(ctx: RingContext) -> ConfluenceReport:
    """Certify that the stored rules are confluent by their critical pairs.

    For every pair of rules whose leads share a generator, the lcm L of the
    leads is rewritten one step by each rule, and the two normal forms are
    compared (Buchberger's criterion; coprime leads always join).  Rules are
    homogeneous, so a pair with L above the dimension vanishes under
    truncation and is skipped.  A pair whose normal forms differ, or whose
    reduction cycles or exceeds the step budget, is reported, not raised.
    The pairs reduce through a memo of their own, so the certificate does
    not rest on normal forms the ring has cached.
    """
    memo: dict = {}
    divergences = []
    pairs = 0
    for r1, r2 in itertools.combinations(ctx.rules, 2):
        e1, e2 = dict(r1.lead.exps), dict(r2.lead.exps)
        if not e1.keys() & e2.keys():
            continue
        lcm = Monomial((i, max(e1.get(i, 0), e2.get(i, 0))) for i in e1.keys() | e2.keys())
        if ctx.dimension is not None and ctx.monomial_codegree(lcm) > ctx.dimension:
            continue
        pairs += 1
        try:
            left, right = (
                ctx._reduce({m.mul(lcm.div(r.lead)): c for m, c in r.replacement}, memo, ctx.dimension)
                for r in (r1, r2)
            )
            if left == right:
                continue
            expected, got = str(GradedClass(ctx, left)), str(GradedClass(ctx, right))
        except ReductionBudgetExceeded as exc:
            expected, got = "a normal form within the step budget", str(exc)
        divergences.append({"input": ctx.monomial_str(lcm), "expected": expected, "got": got})
    return ConfluenceReport(pairs=pairs, divergences=divergences)
