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

Each ring keeps, in one memo, the truncated normal form of every
monomial it has met: () above the dimension, else f(m), filled by walking
the rewrite chain of m with an explicit stack.  Rules are homogeneous and
codegrees are positive, so the chain of m stays among the finitely many
monomials of its codegree: the strategy fails to terminate on m exactly
when the walk reaches a monomial still on its stack, which raises
``RewriteCycle`` naming that monomial.  For the same reason a monomial at
or below the dimension never meets truncation on its chain.  A step
budget bounds the rewriting steps of each fill of the memo.  Reduction
without truncation, which only tests whether a declared rule is implied,
walks into a fresh memo each time.

A product of classes adds up c1*c2 times the memo's entry for each
product monomial m1*m2, so the memo is sound for every terminating rule
set, confluent or not; in a ring with a finite basis it holds in effect
the table of structure constants.

A monomial is one Python int, its key.  The exponent of generator i
sits in field i, the ``FIELD_BITS`` bits from bit FIELD_BITS * i up, and
the top bit of each field is a guard bit that every key keeps clear, so an
exponent is at most ``MAX_EXPONENT`` = 2^(FIELD_BITS - 1) - 1.  The unit
monomial is 0, and equal monomials have equal keys, so the int's own hash
and equality key every class table and memo.  Let G be the guard bits of
a ring's fields:

* a product is the sum of two keys: fields add without carrying into the
  next one, and a field whose sum exceeds ``MAX_EXPONENT`` sets its guard
  bit, which raises ``RingError`` instead of carrying;
* k divides m exactly when ((m | G) - k) & G == G: each field subtracts
  k's exponent from m's plus the guard bit, borrowing nothing from the
  next field, and keeps its guard bit exactly when m's exponent is at
  least k's; the quotient is m - k;
* later generators sit in more significant fields, so keys compare as
  integers in reverse-index lexicographic order (the last generator's
  exponent first), the order in which constructor rules decrease and
  bases are listed;
* 2^FIELD_BITS is 1 mod 2^FIELD_BITS - 1, so a key is congruent mod
  2^FIELD_BITS - 1 to the sum of its exponents, and taken mod it gives
  that sum whenever the sum is smaller.  In a ring of n generators that
  holds for every m that names no generator past them and has every
  exponent below 2^t, t = FIELD_BITS - bit_length(n), since n * (2^t - 1)
  < 2^FIELD_BITS - 1.  The codegree of such a key is then the sum over
  the distinct codegrees c of c * ((m & mask_c) mod (2^FIELD_BITS - 1)),
  mask_c the fields of the generators of codegree c; any other key walks
  its fields;
* 2^FIELD_BITS is 2 mod 2^FIELD_BITS - 2, so (m + L) & G, L the bits
  below each guard bit, holds the guard bits of m's nonzero fields, and
  shifted down to the low bit of each field and taken mod 2^FIELD_BITS - 2
  it gives the support of m, bit i set when x_i divides m, whenever m has
  at most 16 fields (their 2^i sum below 2^FIELD_BITS - 2); a longer key
  is folded one block of 16 fields at a time.  Supports are then small
  ints, and a lead can divide m only if its support lies inside m's.

A ring refuses a dimension above ``MAX_EXPONENT // 2``, so the product of
two monomials at or below the dimension, and every monomial on the
rewrite chain of a monomial at or below it, keeps each exponent in its
field.  A product whose lookup misses the memo is checked all the same,
and so is every rewriting step without a dimension.
``Monomial(pairs)`` is the public constructor, from (generator index,
exponent) pairs in any order; it returns an int subclass whose ``exps``
decodes the key.  Tables and memos hold plain ints, which find the same
entries, and ``exponents`` decodes any key.

No floating point is used anywhere; everything is exact.
"""

from __future__ import annotations

import itertools
from operator import itemgetter
from typing import Callable, Iterable, Mapping, Optional, Sequence


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


# Miller-Rabin with these bases decides primality exactly below the bound
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_CERTIFIED_BELOW = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin.  A composite is found at any size; a
    number at or above ``_CERTIFIED_BELOW`` that no base proves composite
    raises ValueError, since the bases do not certify it."""
    if n < 4:
        return n > 1
    for q in _PRIME_BASES:
        if n % q == 0:
            return n == q
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = 2^s * odd
    for a in _PRIME_BASES:
        x = pow(a, (n - 1) >> s, n)
        if x != 1 and all(pow(x, 1 << k, n) != n - 1 for k in range(s)):
            return False
    if n >= _CERTIFIED_BELOW:
        raise ValueError(f"modulus {n} is at least {_CERTIFIED_BELOW}, above which primality is not certified")
    return True


FIELD_BITS = 17
MAX_EXPONENT = (1 << (FIELD_BITS - 1)) - 1
_FIELD_MASK = (1 << FIELD_BITS) - 1
# supports fold mod _SUPPORT_MOD, _BLOCK fields at a time (see the module
# docstring)
_SUPPORT_MOD = (1 << FIELD_BITS) - 2
_BLOCK = 16
_BLOCK_MASK = (1 << (FIELD_BITS * _BLOCK)) - 1


def _guards(n: int) -> int:
    """The guard bits of fields 0..n-1: the top bit of each."""
    return ((1 << (FIELD_BITS * n)) - 1) // _FIELD_MASK << (FIELD_BITS - 1)


def _fields(m: int) -> int:
    """The number of fields up to m's last nonzero one."""
    return -(-m.bit_length() // FIELD_BITS)


def _compact(s: int) -> int:
    """The generator bitmask, bit i for field i, of s, a sum of guard bits:
    each moved to the low bit of its field and folded mod ``_SUPPORT_MOD``,
    one block of 16 fields at a time (see the module docstring)."""
    s >>= FIELD_BITS - 1
    if s <= _BLOCK_MASK:
        return s % _SUPPORT_MOD
    out = i = 0
    while s:
        out |= (s & _BLOCK_MASK) % _SUPPORT_MOD << i
        s >>= FIELD_BITS * _BLOCK
        i += _BLOCK
    return out


def _overflow(m: int) -> RingError:
    """The error for a sum of keys whose guard bits are set: each field
    holds the sum of two exponents, so m decodes to the true exponents."""
    return RingError(f"monomial {exponents(m)} has an exponent above MAX_EXPONENT = {MAX_EXPONENT}")


def exponents(m: int) -> tuple[tuple[int, int], ...]:
    """The (generator index, exponent) pairs of the key m, by index, each
    exponent positive; () for the unit monomial."""
    out = []
    i = 0
    while m:
        e = m & _FIELD_MASK
        if e:
            out.append((i, e))
        m >>= FIELD_BITS
        i += 1
    return tuple(out)


def exponent(m: int, i: int) -> int:
    """The exponent of generator i in the key m."""
    return m >> (FIELD_BITS * i) & _FIELD_MASK


def generator_power(i: int, e: int = 1) -> int:
    """The key of x_i^e, for 0 <= e <= MAX_EXPONENT (unchecked); with e =
    MAX_EXPONENT, the mask of generator i's field."""
    return e << (FIELD_BITS * i)


def shifted(m: int, k: int) -> int:
    """The key m with every generator index raised by k."""
    return m << (FIELD_BITS * k)


def mono_mul(a: int, b: int) -> int:
    """The key of the product a*b; ``RingError`` when an exponent would
    exceed MAX_EXPONENT."""
    m = a + b
    if m & _guards(_fields(m)):
        raise _overflow(m)
    return m


class Monomial(int):
    """The key of a monomial, built from (generator index, exponent) pairs.

    The constructor takes pairs in any order: it adds up the exponents of a
    repeated index, refuses a negative index or total exponent with
    ``ValueError`` and an exponent above ``MAX_EXPONENT`` with
    ``RingError``, and returns the key (see the module docstring) as this
    int subclass, whose ``exps`` (the pairs with positive exponents, by
    index) decodes it.  It keeps int's hash and equality, so a plain int
    key finds its entries; sums and differences of keys are plain ints.
    """

    __slots__ = ()

    def __new__(cls, exps: Iterable[tuple[int, int]] = ()):
        acc: dict[int, int] = {}
        for i, e in exps:
            acc[i] = acc.get(i, 0) + e
        key = 0
        for i, e in acc.items():
            if i < 0 or e < 0:
                raise ValueError(f"negative {'index' if i < 0 else 'exponent'} in monomial")
            if e > MAX_EXPONENT:
                raise RingError(f"exponent {e} exceeds MAX_EXPONENT = {MAX_EXPONENT}")
            key += e << (FIELD_BITS * i)
        return int.__new__(cls, key)

    @property
    def exps(self) -> tuple[tuple[int, int], ...]:
        return exponents(self)

    def __repr__(self) -> str:
        return f"Monomial({self.exps!r})"


def _as_monomial(m: int) -> Monomial:
    """The key m as a ``Monomial`` (no check)."""
    return m if type(m) is Monomial else int.__new__(Monomial, m)


MONOMIAL_ONE = Monomial()


def _by_support(leads: Iterable[tuple]) -> dict[int, list[int]]:
    """The leads of (support, lead, ...) tuples, grouped by support."""
    groups: dict[int, list[int]] = {}
    for entry in leads:
        groups.setdefault(entry[0], []).append(entry[1])
    return groups


def _properly_divided(s: int, m: int, groups: dict[int, list[int]], g: int) -> bool:
    """Whether a key other than m of groups, keys grouped by support,
    divides m, whose support is s, all within the guard bits g: a rule
    lead so divided is not minimal.  Only the groups whose support lies
    inside s are scanned, since a divisor's generators all are: one mask
    test passes or skips a whole group."""
    outside = ~s
    mg = m | g
    for t, group in groups.items():
        if not t & outside:
            for k in group:
                if (mg - k) & g == g and k != m:
                    return True
    return False


class RewriteRule:
    """Oriented rule: the leading monomial rewrites to the replacement table.

    The leading monomial must not divide any monomial of the replacement,
    and the replacement must be homogeneous of the same codegree.  The
    replacement lists its (key, coefficient) pairs in key order.  A rule is
    a value: never changed once built, equal and hashed by its fields.
    """

    __slots__ = ("lead", "replacement", "index")

    def __init__(self, lead: Monomial, replacement: tuple[tuple[int, int], ...], index: int = 0):
        self.lead = lead
        self.replacement = replacement
        self.index = index

    def _key(self) -> tuple:
        return (self.lead, self.replacement, self.index)

    def __eq__(self, other) -> bool:
        if other.__class__ is not RewriteRule:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return f"RewriteRule(lead={self.lead!r}, replacement={self.replacement!r}, index={self.index!r})"


class RingContext:
    """Immutable graded polynomial ring with rewrite rules.

    modulus 0 means integer coefficients; a positive modulus must be prime.
    dimension, when set, truncates every class above that codegree; it lies
    in 0..``MAX_EXPONENT // 2`` (see the module docstring).  ``rules``
    keeps the stored rules of ``base`` (a ring whose codegrees are a prefix
    of these), then the declared rules, in declaration order, minus every
    rule whose lead is a proper multiple of another rule's lead and which
    is a consequence of the kept rules (checked without truncation, so the
    drop stays valid in rings of higher dimension built on this one).  A
    base's rules were checked when it was built, so only their
    coefficients are reduced, when the modulus differs; they are tested
    like the others, so a rule kept over Z may be dropped mod p.  A ring
    records in ``_all_minimal`` whether every rule it stores was kept as
    minimal, none only because the kept rules do not imply it.

    Every ring is built one way, on a trusted prefix of rules, which is
    empty without a base.  A base with ``_all_minimal`` and a dimension at
    most the ring's (no dimension counting as unbounded) gives its
    ``_leads`` entries: its leads are minimal among themselves, and each of
    its replacements is irreducible under them, and truncated only if its
    lead lies above the base's dimension, where it is already ().  Any
    other base gives none, and its stored rules are declared ahead of the
    ring's own.  A trusted lead is tested for minimality only against the
    declared leads and a declared lead against all leads, and a trusted
    replacement is reduced again only when a kept declared lead divides
    one of its monomials; the base's rules and ``_leads`` entries are
    reused when the modulus is the same.  A copy that declares no rules
    on a trusted base stores the base's rules in order, coefficients
    reduced, untested.  Each way stores what the flat declaration (the
    base's rules, then the declared ones, with no base) stores.

    ``_guard`` holds the guard bits of the ring's fields and ``_low`` the
    bits below each guard bit, so (m + _low) & _guard holds the guard bits
    of m's nonzero fields, and ``_compact`` of it is m's support as a
    generator bitmask.  ``_leads`` lists each stored rule's lead support,
    its lead as a plain int, and the rule, in the order of ``rules``;
    ``_leads_within`` memoises, for each guard-bit support met, the (lead,
    rule) pairs of the rules whose lead support lies inside it, in that
    order, for ``_matching_rule``.  ``_summable`` holds the low t bits of
    each field and ``_codegree_masks`` the (codegree, fields) pairs that
    ``monomial_codegree`` sums (see the module docstring).
    ``_normal_forms`` memoises the normal form of each monomial met,
    truncated above the dimension, as a tuple of (monomial, coefficient)
    pairs; it is emptied whenever the stored rules change.  ``gen``,
    ``from_table``, class products and the degree pairing read it, and its
    size is ``len(ring._normal_forms)``.  ``monomial_codegree`` is computed
    on each miss, not memoised; an irreducible monomial is stored as
    ((m, 1),) and one that a rule with an empty replacement kills as (),
    each without a stack frame.  The memo needs no confluence (see the
    module docstring).  Rules that cycle raise ``RewriteCycle``; a fill of
    ``_normal_forms`` that takes more than ``step_budget`` rewriting steps
    raises ``ReductionBudgetExceeded``, and a product whose exponents
    leave their fields raises ``RingError``; either stores nothing for the
    monomial asked about.
    """

    def __init__(
        self,
        names: Sequence[str],
        codegrees: Sequence[int],
        modulus: int = 0,
        dimension: Optional[int] = None,
        rules: Iterable[tuple[int, Mapping[int, int]]] = (),
        step_budget: int = 10**6,
        base: Optional["RingContext"] = None,
    ):
        if len(names) != len(set(names)):
            raise ValueError("duplicate generator names")
        if len(names) != len(codegrees):
            raise ValueError("names/codegrees length mismatch")
        if any(d <= 0 for d in codegrees):
            raise ValueError("generator codegrees must be positive")
        if type(modulus) is not int:
            raise ValueError(f"modulus {modulus!r} is not an integer")
        if modulus and not _is_prime(modulus):
            raise ValueError(f"modulus {modulus} is not prime")
        if dimension is not None and dimension < 0:
            raise ValueError(f"dimension {dimension} is negative")
        if dimension is not None and dimension > MAX_EXPONENT // 2:
            raise RingError(f"dimension {dimension} exceeds MAX_EXPONENT // 2 = {MAX_EXPONENT // 2}")
        if base is not None and tuple(codegrees[: len(base.codegrees)]) != base.codegrees:
            raise ValueError("the base ring's generator codegrees must be a prefix of the ring's")
        self.names = tuple(names)
        self.codegrees = tuple(codegrees)
        self.modulus = modulus
        self.dimension = dimension
        self.step_budget = step_budget
        self._index = {n: i for i, n in enumerate(self.names)}
        n = len(self.names)
        self._guard = _guards(n)
        ones = self._guard >> (FIELD_BITS - 1)
        self._low = self._guard - ones
        # exponents below 2^t, t = FIELD_BITS - bit_length(n), sum below
        # _FIELD_MASK over any n fields (see the module docstring)
        self._summable = ones * ((1 << (FIELD_BITS - n.bit_length())) - 1)
        if len(set(self.codegrees)) == 1:  # one mask, built without a loop
            self._codegree_masks = ((self.codegrees[0], ones * _FIELD_MASK),)
        else:
            masks: dict[int, int] = {}
            field = _FIELD_MASK
            for c in self.codegrees:
                masks[c] = masks.get(c, 0) | field
                field <<= FIELD_BITS
            self._codegree_masks = tuple(masks.items())
        self.rules: tuple[RewriteRule, ...] = ()
        self._install_rules(base, rules)

    # -- construction -------------------------------------------------

    def _install_rules(self, base: Optional["RingContext"], raw) -> None:
        declared = []
        for lead, repl in raw:
            if lead == 0:
                raise InvalidRule("unit monomial cannot be a rule lead")
            table = self._reduced(repl)
            lead_cd = self.monomial_codegree(lead)
            for m in table:
                if self.monomial_codegree(m) != lead_cd:
                    raise InvalidRule(
                        f"inhomogeneous rule: lead codegree {lead_cd}, "
                        f"replacement has codegree {self.monomial_codegree(m)}"
                    )
            declared.append((lead, table))
        p, dim = self.modulus, self.dimension
        trusted = []
        if base is not None and base._all_minimal and (
                dim is None or base.dimension is not None and base.dimension <= dim):
            for k, entry in enumerate(base._leads):
                s, lead, r = entry
                if p != base.modulus:
                    repl = tuple((m, c % p) for m, c in r.replacement if c % p) if p else r.replacement
                    entry = (s, lead, RewriteRule(r.lead, repl, k))
                elif r.index != k:
                    entry = (s, lead, RewriteRule(r.lead, r.replacement, k))
                trusted.append(entry)
        elif base is not None:
            declared = [(r.lead, self._reduced(dict(r.replacement))) for r in base.rules] + declared
        self._all_minimal = True
        if not declared:
            self._store(trusted)
            return
        g = self._guard
        new = [(_compact((lead + self._low) & g), lead) for lead, _ in declared]
        keep = []
        if trusted:
            # a trusted lead can only be properly divided by a declared lead
            divided = self._divided_by([lead for _, lead in new])
            added = _by_support(new)
            keep = [not (divided(lead) and _properly_divided(s, lead, added, g)) for s, lead, _ in trusted]
        groups = _by_support(trusted + new)
        keep += [not _properly_divided(s, lead, groups, g) for s, lead in new]
        # store the kept rules, each declared table in normal form and a
        # trusted one where a kept declared lead divides it; then keep every
        # other rule that they do not imply, so a non-confluent input
        # reduces (and is reported) as declared, and store again
        nb = len(trusted)
        while True:
            stored, redo = [], []
            if trusted:
                divided = self._divided_by([lead for (lead, _), kept in zip(declared, keep[nb:]) if kept])
                for entry, kept in zip(trusted, keep):
                    if kept:
                        if any(divided(m) for m, _ in entry[2].replacement):
                            redo.append((len(stored), dict(entry[2].replacement)))
                        stored.append(entry)
            for k, (lead, table) in enumerate(declared, nb):
                if keep[k]:
                    redo.append((len(stored), table))
                    stored.append(self._entry(k, lead, table))
            self._interreduce(stored, redo)
            missing = [
                k for k, kept in enumerate(keep)
                if not kept and not (
                    self._implied(*declared[k - nb]) if k >= nb
                    else self._implied(trusted[k][1], dict(trusted[k][2].replacement)))
            ]
            if not missing:
                return
            self._all_minimal = False
            for k in missing:
                keep[k] = True

    def _divided_by(self, leads: Sequence[int]) -> Callable[[int], bool]:
        """The test of whether a key of leads divides a key.  A key that
        lacks a generator every lead holds fails it in one step, which
        passes most keys at once when the leads share a generator, as a
        blow-up's leads share the exceptional divisor."""
        g = self._guard
        common = g
        for k in leads:
            common &= k + self._low
        common >>= FIELD_BITS - 1

        def divided(m: int) -> bool:
            mg = m | g
            if (mg - common) & g != g:
                return False
            for k in leads:
                if (mg - k) & g == g:
                    return True
            return False

        return divided

    def _entry(self, k: int, lead: int, table: dict) -> tuple[int, int, RewriteRule]:
        """The ``_leads`` entry of the rule lead -> table at position k."""
        rule = RewriteRule(_as_monomial(lead), tuple(sorted(table.items())), k)
        return _compact((rule.lead + self._low) & self._guard), int(rule.lead), rule

    def _interreduce(self, leads: list, tables: list[tuple[int, dict]]) -> None:
        """Store the rules of leads, ``_leads`` entries in order, with the
        replacement of each rule i of the (i, table) pairs of tables put in
        normal form under all of them; every other replacement must be in
        normal form already.  One pass suffices: a normal form is
        irreducible under every lead, and reducing the replacements leaves
        the leads as they are, so only the rules whose replacement changed
        are built again, each with its lead support.  A replacement that
        holds its own lead raises RewriteCycle."""
        self._store(leads)
        changed = [(i, t) for i, table in tables if (t := self._nf(table)) != table]
        if not changed:
            return
        leads = list(leads)
        for i, t in changed:
            s, lead, r = leads[i]
            leads[i] = (s, lead, RewriteRule(r.lead, tuple(sorted(t.items())), r.index))
        self._store(leads)

    def _store(self, leads: list) -> None:
        self._leads = tuple(leads)
        self.rules = tuple(map(itemgetter(2), leads))
        self._leads_within: dict[int, list[tuple[int, RewriteRule]]] = {}
        self._normal_forms: dict[int, tuple[tuple[int, int], ...]] = {}

    def _implied(self, lead: int, table: Mapping[int, int]) -> bool:
        """Whether lead -> table follows from the stored rules: both sides
        have the same normal form, computed without dimension truncation."""
        try:
            memo: dict = {}
            return self._reduce({lead: 1}, memo, None) == self._reduce(table, memo, None)
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

    def monomial_codegree(self, m: int) -> int:
        # not memoised: most monomials asked about are fresh products.  A
        # key within _summable sums the fields of each codegree mod
        # _FIELD_MASK (see the module docstring); any other key walks its
        # fields, and one that names a generator past the ring raises.
        if m & self._summable == m:
            d = 0
            for c, mask in self._codegree_masks:
                d += c * ((m & mask) % _FIELD_MASK)
            return d
        d = 0
        for c in self.codegrees:
            if not m:
                return d
            d += c * (m & _FIELD_MASK)
            m >>= FIELD_BITS
        if m:
            raise RingError(f"monomial names a generator past the ring's {len(self.names)}")
        return d

    def monomial_str(self, m: int) -> str:
        if m == 0:
            return "1"
        names = self.names
        return "*".join(names[i] if e == 1 else f"{names[i]}^{e}" for i, e in exponents(m))

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
        return GradedClass(self, dict(self._product(generator_power(self.gen_index(name)))))

    def from_table(self, table: Mapping[int, int]) -> "GradedClass":
        return GradedClass(self, self._nf(table))

    # -- reduction -------------------------------------------------------

    def _matching_rule(self, m: int) -> Optional[RewriteRule]:
        """The first stored rule whose lead divides m, or None.  A lead can
        divide m only if its support lies inside m's, so only those leads,
        listed once per support, get the divisibility test."""
        g = self._guard
        s = (m + self._low) & g
        leads = self._leads_within.get(s)
        if leads is None:
            outside = ~_compact(s)
            leads = self._leads_within[s] = [(k, r) for t, k, r in self._leads if not t & outside]
        mg = m | g
        for k, rule in leads:
            if (mg - k) & g == g:
                return rule
        return None

    def _product(self, m: int) -> tuple[tuple[int, int], ...]:
        """The memoised normal form of m, a sum of two keys, truncated above
        the dimension.  A sum whose guard bits are set is never stored, so
        a product whose lookup misses comes here and raises ``RingError``."""
        if m & self._guard:
            raise _overflow(m)
        return self._f(m, self._normal_forms, self.dimension)

    def _nf(self, table: Mapping[int, int]) -> dict[int, int]:
        return self._reduce(table, self._normal_forms, self.dimension)

    def _reduce(self, table: Mapping[int, int], memo: dict, dim: Optional[int]) -> dict[int, int]:
        """The sum of c*f(m) over the table, truncated above dim when set."""
        acc: dict[int, int] = {}
        for m, c in table.items():
            if not self._red(c):
                continue
            for u, k in self._f(m, memo, dim):
                acc[u] = acc.get(u, 0) + c * k
        return self._reduced(acc)

    def _reduced(self, acc: dict[int, int]) -> dict[int, int]:
        # one loop per modulus: most tables here hold 0-3 terms, where a
        # loop beats a comprehension's frame
        p = self.modulus
        out = {}
        if p:
            for u, c in acc.items():
                c %= p
                if c:
                    out[u] = c
        else:
            for u, c in acc.items():
                if c:
                    out[u] = c
        return out

    def _f(self, m: int, memo: dict, dim: Optional[int]) -> tuple[tuple[int, int], ...]:
        """The normal form of m, truncated above dim when set, from memo;
        on a miss, () above dim, else f(m), computed with every monomial
        its rewrite chain reaches into memo.  Every caller of one memo
        passes one dim.

        A frame of the stack holds a monomial being rewritten, its
        coefficient in the frame below, the terms of its rewrite not yet
        visited, and the sum of c*f(t) over the terms visited.  A monomial
        that no rule rewrites, or that a rule with an empty replacement
        kills (one step of the budget), takes no frame, and an irreducible
        m is stored before any stack is built.  Every
        monomial on the chain has m's codegree, so below a dimension no
        exponent can leave its field; without one, each rewritten term is
        checked.
        """
        nf = memo.get(m)
        if nf is not None:
            return nf
        if dim is not None and self.monomial_codegree(m) > dim:
            nf = memo[m] = ()
            return nf
        match = self._matching_rule
        rule = match(m)
        if rule is None:
            nf = memo[m] = ((m, 1),)
            return nf
        budget = self.step_budget
        steps = 0
        on_stack: set[int] = set()
        frames: list = []
        t, c = m, 1
        while True:
            # t is missing from memo, enters the top frame with coefficient
            # c, and is rewritten by rule; an irreducible or killed t takes
            # no frame
            if rule is None:
                nf = memo[t] = ((t, 1),)
            else:
                steps += 1
                if steps > budget:
                    raise ReductionBudgetExceeded(
                        f"reduction exceeded {budget} steps; rule set may not terminate"
                    )
                if rule.replacement:
                    q = t - rule.lead
                    terms = [(rm + q, rc) for rm, rc in rule.replacement]
                    if dim is None:
                        for u, _ in terms:
                            if u & self._guard:
                                raise _overflow(u)
                    on_stack.add(t)
                    frames.append((t, c, iter(terms), {}))
                    nf = ()
                else:
                    nf = memo[t] = ()
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
                    rule = match(t)
                    break
            else:
                return nf


class GradedClass:
    """A sparse graded class attached to a ring context, kept in normal form."""

    __slots__ = ("ring", "table")

    def __init__(self, ring: RingContext, table: dict[int, int]):
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
        return hash((id(self.ring), tuple(sorted(self.table.items()))))

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
        memo, product = ring._normal_forms, ring._product
        acc: dict[int, int] = {}
        for m1, c1 in self.table.items():
            for m2, c2 in other.table.items():
                nf = memo.get(m1 + m2)
                if nf is None:
                    nf = product(m1 + m2)
                c = c1 * c2
                for m, k in nf:
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
        return self.table.get(0, 0)

    def __repr__(self) -> str:
        return f"<class {self}>"

    def __str__(self) -> str:
        if not self.table:
            return "0"
        cd = self.ring.monomial_codegree
        parts = []
        for m, c in sorted(self.table.items(), key=lambda kv: (cd(kv[0]), kv[0])):
            ms = self.ring.monomial_str(m)
            if m == 0:
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
        for i, e in exponents(m):
            name = src.names[i]
            img = images.get(name)
            if img is None:
                img = target.gen(name)
            term = term * (img if e == 1 else img**e)
        out = out + term
    return out


def inverse_series(c: GradedClass) -> GradedClass:
    """Multiplicative inverse of a class with constant term 1 (or -1),
    truncated at the context dimension.

    Rules are homogeneous, so c * inv = 1 holds codegree by codegree: with
    c_j the codegree-j part of c, the parts of the inverse are inv_0 =
    c_0^-1 and inv_k = -c_0^-1 * sum_{j=1..k} c_j * inv_{k-j}, about k
    products of parts each.  Once as many parts in a row as c's top
    codegree vanish, every later one does."""
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
    tables: dict[int, dict[int, int]] = {}
    for m, k in c.table.items():
        if m:
            tables.setdefault(ring.monomial_codegree(m), {})[m] = k
    parts = [(j, GradedClass(ring, t)) for j, t in sorted(tables.items())]
    top = parts[-1][0] if parts else 0
    inv = [ring.scalar(c0_inv)]
    acc = dict(inv[0].table)
    zeros = 0
    for k in range(1, bound + 1):
        if zeros >= top:
            break
        part = ring.zero()
        for j, cj in parts:
            if j > k:
                break
            if inv[k - j].table:
                part = part + cj * inv[k - j]
        part = part.scale(-c0_inv)
        inv.append(part)
        zeros = 0 if part.table else zeros + 1
        acc.update(part.table)
    return GradedClass(ring, acc)


# ---------------------------------------------------------------------------
# Confluence certificate
# ---------------------------------------------------------------------------

class ConfluenceReport:
    __slots__ = ("pairs", "divergences")

    def __init__(self, pairs: int, divergences: list):
        self.pairs = pairs
        self.divergences = divergences

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
        lcm = sum(generator_power(i, max(e1.get(i, 0), e2.get(i, 0))) for i in e1.keys() | e2.keys())
        if ctx.dimension is not None and ctx.monomial_codegree(lcm) > ctx.dimension:
            continue
        pairs += 1
        try:
            left, right = (
                ctx._reduce({mono_mul(m, lcm - r.lead): c for m, c in r.replacement}, memo, ctx.dimension)
                for r in (r1, r2)
            )
            if left == right:
                continue
            expected, got = str(GradedClass(ctx, left)), str(GradedClass(ctx, right))
        except ReductionBudgetExceeded as exc:
            expected, got = "a normal form within the step budget", str(exc)
        divergences.append({"input": ctx.monomial_str(lcm), "expected": expected, "got": got})
    return ConfluenceReport(pairs=pairs, divergences=divergences)
