"""Chow-ring presentations of cellular varieties and the constructors that
compose them: projective spaces, products, projective bundles, and blow-ups
along centers whose tracked classes restrict from the ambient variety.

A presentation bundles a ring context with a finite monomial basis per
codegree, a degree functional on the top codegree, optional total tangent
Chern class, and provenance.  Constructors flatten the ring into rewrite
rules at build time, so towers of constructions compose and equality of
classes is decidable.  Each basis grows from one already built: a
codegree from the ones below it, a bundle's or blow-up's from its base's,
and ``with_rules`` keeps what its ring leaves irreducible.  Data that only
some callers read (the tangent class, a bundle's Segre classes, the base
of a mod-p copy, the basis of a ``with_rules`` copy) is computed on its
first read, so a tower whose pairing is all that is asked for pays for
none of it.

Chern and Segre classes of root data are computed here, beside
``BundleRoots``, by one product over the roots (``chern_total``): the
bundle relation, Segre classes and tangent and the blow-up fold rule all
read it, and ``characteristic`` re-exports it.  Only ``projective_space``
writes its tangent (1 + h)^(n+1) out by a binomial recurrence.

Sign conventions are fixed once and for all:

* projective bundle P(E) -> X of rank r carries a codegree-1 generator xi
  with sum_{i=0}^{r} xi^i * c_{r-i}(E) = 0, and the pushforward of
  xi^{r-1+k} is the k-th Segre class of E;
* for a blow-up with exceptional divisor E, the generator e is the class
  [E], and rho := c_1(O(1)) on E pulls back against e as j^*[E] = -rho.

Blow-up centers must satisfy the coverage requirement: every tracked class
of the center is the restriction of an ambient class, and pushforward from
the center is multiplication by the fundamental class.
"""

from __future__ import annotations

import functools
import itertools
import json
from math import comb
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence, TypeVar, Union

from .rings import (
    MAX_EXPONENT,
    ContextMismatch,
    GradedClass,
    MONOMIAL_ONE,
    Monomial,
    RingContext,
    RingError,
    evaluate,
    exponent,
    exponents,
    generator_power,
    inverse_series,
    shifted,
)

SCHEMA_VERSION = 1

# enumerate_basis refuses a ring with more irreducible monomials than this
# over codegrees 0..d, and stops growing codegree d once it has them.
# Dimension and generators come from outside (a script or a catalog), and
# g generators of codegree 1 alone span C(dim + g, g) monomials.
MAX_BASIS = 100_000

T = TypeVar("T")
# a slot holds its value, None, or a function computing the value
Lazy = Union[T, Callable[[], T], None]


def _force(v: Lazy[T]) -> Optional[T]:
    """The value a slot holds or computes (without storing it anywhere)."""
    return v() if callable(v) else v


def _seeded(ring: RingContext, basis: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    """basis as tuples, each of its monomials that ring's normal-form memo
    lacks stored there as ((m, 1),): a presentation lists only irreducible
    monomials (see ``ChowPresentation``), so that is the normal form, and a
    first lookup of a basis monomial scans no rule lead."""
    basis = tuple(tuple(b) for b in basis)
    memo = ring._normal_forms
    for b in basis:
        for m in b:
            if m not in memo:
                memo[m] = ((m, 1),)
    return basis


def _positions(monomials: Sequence[int]) -> dict[int, int]:
    return {m: i for i, m in enumerate(monomials)}


class CoverageError(RingError):
    """A class or center datum is not expressible in tracked generators."""


class TangentUnavailable(RingError):
    """The operation needs tangent data this presentation does not carry."""


ROLE_AMBIENT = "ambient-pullback"
ROLE_EXCEPTIONAL = "exceptional"
ROLE_HYPERPLANE = "bundle-hyperplane"


class BundleRoots:
    """The Chern roots of a bundle: a multiset of classes of ring, each 0 or
    homogeneous of codegree 1, held in ``entries``; the rank is their
    number."""

    __slots__ = ("ring", "entries")

    def __init__(self, ring: RingContext, entries: tuple[GradedClass, ...]):
        for c in entries:
            if c.ring is not ring:
                raise ContextMismatch("root lives in a different ring")
            if not c.is_zero() and c.codegree != 1:
                raise ValueError("bundle roots must be homogeneous of codegree 1")
        self.ring = ring
        self.entries = entries

    @classmethod
    def plus(cls, classes: Sequence[GradedClass], ring: Optional[RingContext] = None):
        if ring is None:
            if not classes:
                raise ValueError("empty roots need an explicit ring")
            ring = classes[0].ring
        return cls(ring, tuple(classes))

    @property
    def rank(self) -> int:
        return len(self.entries)


def _product_over_roots(roots: BundleRoots, power: int) -> GradedClass:
    """prod over roots x of (1 + x^power), truncated at the ring's
    dimension."""
    ring = roots.ring
    acc = ring.one()
    for c in roots.entries:
        acc = acc * (ring.one() + (c if power == 1 else c**power))
    return acc


def chern_total(roots: BundleRoots) -> GradedClass:
    """Total Chern class: prod over roots of (1+x), truncated at the
    ambient dimension."""
    return _product_over_roots(roots, 1)


def chern_class(roots: BundleRoots, j: int) -> GradedClass:
    return chern_total(roots).homogeneous_part(j)


def segre_total(roots: BundleRoots) -> GradedClass:
    """Inverse of the total Chern class (chern_total * segre_total = 1)."""
    return inverse_series(chern_total(roots))


class CenterData:
    """Data of a blow-up center Z inside an ambient presentation.

    The center is never stored as its own presentation: its codimension is
    the codegree of the fundamental class, its normal bundle is given by
    restricted ambient root classes, and the restriction map sends each
    ambient generator to an ambient class with the same restriction to Z.
    Generators absent from ``restriction`` (a fresh dict when not given)
    restrict as themselves.
    """

    __slots__ = ("fundamental", "roots", "restriction", "name")

    def __init__(
        self,
        fundamental: GradedClass,
        roots: BundleRoots,
        restriction: Optional[dict[str, GradedClass]] = None,
        name: str = "Z",
    ):
        self.fundamental = fundamental
        self.roots = roots
        self.restriction = {} if restriction is None else restriction
        self.name = name

    @classmethod
    def complete_intersection(
        cls, classes: Sequence[GradedClass], name: str = "Z"
    ) -> "CenterData":
        """Center cut out by codegree-1 classes; [Z] is their product and the
        normal roots are the classes themselves."""
        z = classes[0].ring.one()
        for c in classes:
            z = z * c
        return cls(fundamental=z, roots=BundleRoots.plus(list(classes)), name=name)

    @property
    def codim(self) -> int:
        d = self.fundamental.codegree
        if d is None:
            raise CoverageError("fundamental class must be homogeneous and nonzero")
        return d


class ChowPresentation:
    """A finite Chow-ring presentation: ring + basis + degree + tangent.

    ``tangent`` and ``base`` are read-only properties over the slots
    ``_tangent`` and ``_base``; a bundle keeps its Segre classes in
    ``_segre``.  A slot holds a value, None, or a zero-argument function:
    the function runs on the first read and its result replaces it (if it
    raises, nothing is stored).  Constructors leave functions for the
    tangent and the Segre classes, and ``with_coefficients`` for the mod-p
    tangent, Segre classes and base, so none is computed unless read.

    ``basis[d]`` is the ring's irreducible monomials of codegree d in key
    order, as ``enumerate_basis`` lists them, on whatever the
    constructors, the copies (``with_coefficients``, ``with_rules``) and
    ``presentation_from_json`` build; so it is closed under division, which
    ``enumerate_basis``, ``_truncated_leads`` and ``blow_up`` rely on.  The
    constructor also takes a zero-argument function for it, called on the
    first read of ``basis`` (the DSL reads a ``generic`` form's clauses and
    a ``blowup`` form's rules on such a presentation, which lists no basis
    unless one is read).  Each listed monomial m is irreducible, so when
    the basis is stored (in the constructor, or on that first read) m
    enters the ring's normal-form memo as ((m, 1),), unless it is there.

    A presentation is immutable once built, so whatever is derived from it
    is kept in one map, through ``kept(key, make, *args)``; a computation
    that raises keeps nothing.  A key is a tuple ``(tag, *args)``, and the
    module that reads a tag documents it; this one keeps ``("mod", p)``,
    the copy mod p, and ``("coords", d)``, basis monomial -> index in
    codegree d.  The three slots stay outside the map: ``with_coefficients``
    and ``product`` read them without holding the presentation, so a copy
    never keeps its parent alive.
    """

    def __init__(
        self,
        kind: str,
        ring: RingContext,
        roles: dict[str, str],
        basis: Union[Sequence[Sequence[int]], Callable[[], Sequence[Sequence[int]]]],
        degree_table: Optional[dict[int, int]],
        tangent: Lazy[GradedClass],
        base: Lazy["ChowPresentation"] = None,
        center: Optional[CenterData] = None,
        provenance: Optional[dict] = None,
        name: Optional[str] = None,
    ):
        self.kind = kind
        self.ring = ring
        self.roles = roles
        if callable(basis):
            self._list_basis = basis
        else:
            self.basis = _seeded(ring, basis)
        self.degree_table = degree_table
        self._tangent = tangent
        self._base = base
        self._segre: Lazy[list[GradedClass]] = None
        self.center = center
        self.provenance = provenance or {"constructor": kind}
        self.name = name or kind
        self._derived: dict[tuple, object] = {}

    # -- derived values and slots filled on first read -------------------

    @functools.cached_property
    def basis(self) -> tuple[tuple[int, ...], ...]:
        """The basis listed by the function given for it; a basis given as
        monomials is stored in its place, so reading it costs nothing."""
        return _seeded(self.ring, self._list_basis())

    def kept(self, key: tuple, make: Callable[..., T], *args) -> T:
        """The value kept under key, or else make(*args), kept under key and
        returned; when make raises, nothing is kept.  Hot callers pass the
        maker and its arguments, so a hit allocates no closure."""
        try:
            return self._derived[key]
        except KeyError:
            pass
        value = self._derived[key] = make(*args)
        return value

    def _filled(self, slot: str):
        v = getattr(self, slot)
        if callable(v):
            v = v()
            setattr(self, slot, v)
        return v

    @property
    def tangent(self) -> Optional[GradedClass]:
        """The total tangent Chern class, or None when not carried."""
        return self._filled("_tangent")

    @property
    def has_tangent(self) -> bool:
        """Whether a tangent is carried; reads the slot and computes nothing."""
        return self._tangent is not None

    @property
    def base(self) -> Optional["ChowPresentation"]:
        """The presentation below this one's constructor edge, or None."""
        return self._filled("_base")

    # -- basics -------------------------------------------------------

    @property
    def dim(self) -> int:
        return self.ring.dimension

    def gen(self, name: str) -> GradedClass:
        return self.ring.gen(name)

    def scalar(self, k: int) -> GradedClass:
        return self.ring.scalar(k)

    def zero(self) -> GradedClass:
        return self.ring.zero()

    def one(self) -> GradedClass:
        return self.ring.one()

    def basis_of(self, d: int) -> tuple[int, ...]:
        if d < 0 or d > self.dim:
            return ()
        return self.basis[d]

    def coordinates(self, c: GradedClass, d: int) -> list[int]:
        """Coordinates of the codegree-d part of c in the stored basis."""
        coords = [0] * len(self.basis_of(d))
        for i, coeff in self._sparse_coordinates(c, d):
            coords[i] = coeff
        return coords

    def _sparse_coordinates(self, c: GradedClass, d: int) -> list[tuple[int, int]]:
        """(basis position, coefficient) for each monomial of c of codegree d."""
        idx = self.kept(("coords", d), _positions, self.basis_of(d))
        cd = self.ring.monomial_codegree
        out = []
        for m, coeff in c.table.items():
            i = idx.get(m)
            if i is None:
                if cd(m) != d:
                    continue
                raise CoverageError(
                    f"monomial {self.ring.monomial_str(m)} is not a tracked basis monomial"
                )
            out.append((i, coeff))
        return out

    def tangent_class(self) -> GradedClass:
        if self.tangent is None:
            raise TangentUnavailable(
                f"presentation {self.name!r} carries no tangent data"
            )
        return self.tangent

    # -- degree -------------------------------------------------------

    @property
    def degree_total(self) -> bool:
        """Whether the degree table covers every top-codegree basis monomial."""
        table = self.degree_table
        return table is not None and all(m in table for m in self.basis_of(self.dim))

    def degree(self, c: GradedClass) -> int:
        """Degree of the top-codegree part of c (other codegrees push to zero)."""
        if c.ring is not self.ring:
            raise ContextMismatch("class belongs to a different presentation")
        if self.degree_table is None:
            raise CoverageError(
                f"presentation {self.name!r} has no degree functional"
            )
        table, dim, cd = self.degree_table, self.dim, self.ring.monomial_codegree
        total = 0
        for m, coeff in c.table.items():
            if cd(m) != dim:
                continue
            v = table.get(m)
            if v is None:
                raise CoverageError(
                    f"degree of monomial {self.ring.monomial_str(m)} is not declared"
                )
            total += coeff * v
        return self.ring._red(total)

    # -- constructor edges ----------------------------------------------

    def pullback(self, c: GradedClass) -> GradedClass:
        """Pullback along the constructor edge (base -> this presentation)."""
        if self.base is None:
            raise CoverageError(f"presentation {self.name!r} has no base edge")
        if c.ring is not self.base.ring:
            raise ContextMismatch("class does not live on the base presentation")
        table = {m: coeff for m, coeff in c.table.items()}
        return self.ring.from_table(table)

    def pushforward(self, c: GradedClass) -> GradedClass:
        """Pushforward along the constructor edge (this presentation -> base)."""
        if self.base is None:
            raise CoverageError(f"presentation {self.name!r} has no base edge")
        if c.ring is not self.ring:
            raise ContextMismatch("class does not live on this presentation")
        if self.kind == "bundle":
            return self._bundle_pushforward(c)
        if self.kind == "blowup":
            return self._blowup_pushforward(c)
        raise CoverageError(f"no pushforward for constructor kind {self.kind!r}")

    def _bundle_pushforward(self, c: GradedClass) -> GradedClass:
        xi = self.provenance["fiber_generator"]
        xi_idx = self.ring.gen_index(xi)
        r = self.provenance["rank"]
        segre = self._filled("_segre")  # list of base classes s_0, s_1, ...
        base_ring = self.base.ring
        out = base_ring.zero()
        for m, coeff in c.table.items():
            k = exponent(m, xi_idx)
            rest = m - generator_power(xi_idx, k)
            s_index = k - (r - 1)
            if s_index < 0:
                continue
            base_mono = base_ring.from_table({rest: coeff})
            out = out + base_mono * segre[s_index]
        return out

    def _blowup_pushforward(self, c: GradedClass) -> GradedClass:
        e_idx = self.ring.gen_index(self.provenance["exceptional_generator"])
        out_table = {
            m: coeff for m, coeff in c.table.items() if exponent(m, e_idx) == 0
        }
        return self.base.ring.from_table(out_table)

    # -- copies: coefficients mod p, declared rules ----------------------

    def with_coefficients(self, p: int) -> "ChowPresentation":
        """The same presentation with coefficients reduced mod p; only an
        integral presentation changes its coefficients.  The copy's tangent,
        Segre classes and base are copied on their first read, and its base
        is ``self.base.with_coefficients(p)``."""
        if p == self.ring.modulus:
            return self
        if self.ring.modulus:
            raise CoverageError(
                f"presentation {self.name!r} has coefficients mod {self.ring.modulus}, "
                f"so it has no copy with coefficients mod {p}"
            )
        return self.kept(("mod", p), self._reduced_copy, p)

    def _reduced_copy(self, p: int) -> "ChowPresentation":
        # the functions hold this presentation's slots and base, never the
        # presentation itself: its map of derived values holds the copy
        segre, base = self._segre, self.base
        lazy_base = None if base is None else lambda: base.with_coefficients(p)
        old = self.ring
        ring = RingContext(old.names, old.codegrees, p, dimension=old.dimension, base=old)
        new = self._copy(ring, self.basis, lazy_base)
        if segre is not None:
            new._segre = lambda: [
                base.with_coefficients(p).ring.from_table(s.table) for s in _force(segre)
            ]
        return new

    def with_rules(
        self, rules: Iterable[tuple[int, Mapping[int, int]]]
    ) -> "ChowPresentation":
        """This presentation with rules, (lead monomial, {monomial:
        coefficient}) pairs as ``generic_context(rules=)`` takes them,
        declared after its ring's stored rules.  The copy's basis, listed on
        its first read, is the monomials of this basis that no added lead
        the copy keeps divides, which is ``enumerate_basis`` of its ring:
        this basis is irreducible under this ring's leads, and a dropped
        lead is a multiple of a kept one.  It holds the copy's ring, this
        basis and the added leads, not this presentation.  Its base,
        center, Segre classes and degree table are this presentation's."""
        old = self.ring
        ring = RingContext(
            old.names, old.codegrees, old.modulus, dimension=old.dimension, rules=rules, base=old)
        added = [r.lead for r in ring.rules if r.index >= len(old.rules)]
        new = self._copy(ring, functools.partial(_undivided, ring, added, self.basis), self._base)
        new._segre = self._segre
        return new

    def _copy(self, ring: RingContext, basis, base: Lazy["ChowPresentation"]) -> "ChowPresentation":
        """This presentation, with the given ring, basis and base; the
        tangent is copied into that ring on its first read."""
        new = ChowPresentation(
            self.kind, ring, dict(self.roles), basis,
            dict(self.degree_table) if self.degree_table is not None else None,
            tangent=None, base=base, center=self.center,
            provenance=dict(self.provenance), name=self.name,
        )
        tangent = self._tangent
        if tangent is not None:
            new._tangent = lambda: ring.from_table(_force(tangent).table)
        return new

    # -- serialization ----------------------------------------------------

    def to_json(self) -> dict:
        doc = {
            "version": SCHEMA_VERSION,
            "name": self.name,
            "kind": self.kind,
            "dimension": self.dim,
            "modulus": self.ring.modulus,
            "generators": [
                {"name": n, "codegree": d, "role": self.roles.get(n, ROLE_AMBIENT)}
                for n, d in zip(self.ring.names, self.ring.codegrees)
            ],
            "rules": [
                {
                    "lead": self.ring.monomial_str(r.lead),
                    "replacement": {
                        self.ring.monomial_str(m): c for m, c in r.replacement
                    },
                }
                for r in self.ring.rules
            ],
            "basis": {
                str(d): [self.ring.monomial_str(m) for m in self.basis_of(d)]
                for d in range(self.dim + 1)
            },
            "degree": None
            if self.degree_table is None
            else {
                self.ring.monomial_str(m): v for m, v in sorted(
                    self.degree_table.items(), key=lambda kv: exponents(kv[0])
                )
            },
            "degree_total": self.degree_total,
            "tangent": None
            if self.tangent is None
            else {self.ring.monomial_str(m): c for m, c in self.tangent.table.items()},
            "provenance": {
                k: v for k, v in self.provenance.items() if not k.startswith("_")
            },
        }
        return doc

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    def is_cellular(self) -> bool:
        return bool(self.provenance.get("cellular"))

    def __repr__(self):
        return f"<ChowPresentation {self.name} dim={self.dim} mod={self.ring.modulus}>"


def presentation_from_json(doc: dict) -> ChowPresentation:
    """The presentation a ``to_json`` document describes.

    A document of the wrong shape (not an object, a field missing or of the
    wrong type, or rules the ring rejects) raises ValueError, and so does a
    basis that is not ``enumerate_basis`` of the document's ring.  The
    modulus, codegrees, degrees and coefficients must be ``int`` (not bool
    or float).  ``degree_total`` is derived from the degree table and the
    basis, never read.
    """
    if not isinstance(doc, dict):
        raise ValueError("a presentation must be a JSON object")
    if doc.get("version") != SCHEMA_VERSION:
        raise ValueError(f"unsupported presentation schema version {doc.get('version')}")
    dim = doc.get("dimension")
    if type(dim) is not int or dim < 0:
        raise ValueError(f"presentation dimension must be a non-negative integer, not {dim!r}")
    try:
        return _presentation_from_doc(doc)
    except (AttributeError, KeyError, TypeError, RingError) as exc:
        raise ValueError(f"malformed presentation: {type(exc).__name__}: {exc}") from exc


def _integer(v, what: str) -> int:
    if type(v) is not int:
        raise ValueError(f"{what} must be an integer, not {v!r}")
    return v


def _presentation_from_doc(doc: dict) -> ChowPresentation:
    names = [g["name"] for g in doc["generators"]]
    codegrees = [_integer(g["codegree"], f"codegree of {g['name']!r}") for g in doc["generators"]]
    modulus = _integer(doc["modulus"], "modulus")
    ring = RingContext(names, codegrees, modulus=modulus, dimension=doc["dimension"])
    rules = []
    for r in doc["rules"]:
        lead = ring.monomial_from_str(r["lead"])
        repl = {ring.monomial_from_str(m): _integer(c, f"coefficient of {m} in {r['lead']}'s rule")
                for m, c in r["replacement"].items()}
        rules.append((lead, repl))
    ring = RingContext(names, codegrees, modulus=modulus, dimension=doc["dimension"], rules=rules)
    basis = [
        tuple(ring.monomial_from_str(s) for s in doc["basis"][str(d)])
        for d in range(doc["dimension"] + 1)
    ]
    for d, (listed, irreducible) in enumerate(zip(basis, enumerate_basis(ring))):
        if listed != irreducible:
            names = [[ring.monomial_str(m) for m in b] for b in (listed, irreducible)]
            raise ValueError(f"basis of codegree {d} lists {names[0]}, not {names[1]}")
    degree_table = None
    if doc["degree"] is not None:
        degree_table = {
            ring.monomial_from_str(s): _integer(v, f"degree of {s}") for s, v in doc["degree"].items()
        }
    tangent = None
    if doc["tangent"] is not None:
        tangent = ring.from_table(
            {ring.monomial_from_str(s): _integer(c, f"tangent coefficient of {s}")
             for s, c in doc["tangent"].items()}
        )
    return ChowPresentation(
        kind=doc["kind"],
        ring=ring,
        roles={g["name"]: g["role"] for g in doc["generators"]},
        basis=basis,
        degree_table=degree_table,
        tangent=tangent,
        provenance=doc.get("provenance"),
        name=doc.get("name"),
    )


def load_presentation(path) -> ChowPresentation:
    with open(path, "r", encoding="utf-8") as fh:
        return presentation_from_json(json.load(fh))


# ---------------------------------------------------------------------------
# Basis enumeration
# ---------------------------------------------------------------------------

def _grown(ring: RingContext, basis: Sequence[Sequence[int]], d: int) -> Iterator[int]:
    """The monomials m * x_i of codegree d that no rule of ring reduces, for
    each i in turn and each m of basis[d - codeg(x_i)] (if listed) whose
    indices are all at most i.  When each basis[c], c < d, is the
    irreducible monomials of codegree c in key order, that is those of
    codegree d in that order, each once: each is m * x_i for its last index
    i and its divisor m, and later indices sit in more significant fields,
    which also puts the m whose indices are at most i first.  A ring with
    no rules reduces no monomial, so none is matched against its rules."""
    match = ring._matching_rule if ring.rules else None
    for i, cd in enumerate(ring.codegrees):
        x = generator_power(i)
        past = generator_power(i + 1)  # the least key with an index above i
        for m in basis[d - cd] if 0 <= d - cd < len(basis) else ():
            if m >= past:
                break
            if match is None or match(m + x) is None:
                yield m + x


def _undivided(ring: RingContext, leads: Sequence[int], basis: Sequence[Sequence[int]]) -> list[list[int]]:
    """The monomials of each basis[d] that no key of leads divides."""
    divided = ring._divided_by(leads)
    return [[m for m in b if not divided(m)] for b in basis]


def _free_overflow(codegrees: Sequence[int], dim: int) -> Optional[int]:
    """The least codegree d <= dim by which a ring with no rules, whose
    every monomial is irreducible, has more than ``MAX_BASIS`` monomials,
    or None.  The monomials of codegree d are counted by a DP over the
    generators: C(d + g - 1, g - 1) when all g have codegree 1.  Counts
    over a prefix of the generators are lower bounds, so the table is cut
    after the first codegree past the bound as soon as a prefix reaches it.
    No count is needed when C(dim + g, g), the total with every codegree
    1, is within the bound."""
    if comb(dim + len(codegrees), dim) <= MAX_BASIS:
        return None
    counts = [1] + [0] * dim
    for c in codegrees:
        for d in range(c, len(counts)):
            counts[d] += counts[d - c]
        for d, total in enumerate(itertools.accumulate(counts)):
            if total > MAX_BASIS:
                del counts[d + 1:]
                break
    return len(counts) - 1 if sum(counts) > MAX_BASIS else None


def enumerate_basis(ring: RingContext) -> list[tuple[int, ...]]:
    """The ring's irreducible monomials of each codegree 0..dimension, in
    key order, each codegree grown from the ones below it; RingError once
    they number more than ``MAX_BASIS``, raised before any is listed when
    the ring has no rules."""
    if not ring.rules:
        d = _free_overflow(ring.codegrees, ring.dimension)
        if d is not None:
            raise RingError(f"basis exceeds {MAX_BASIS} monomials by codegree {d}")
    basis = [(MONOMIAL_ONE,)]
    room = MAX_BASIS - 1
    for d in range(1, ring.dimension + 1):
        basis.append(tuple(itertools.islice(_grown(ring, basis, d), room + 1)))
        room -= len(basis[d])
        if room < 0:
            raise RingError(f"basis exceeds {MAX_BASIS} monomials by codegree {d}")
    return basis


def _truncated_leads(X: ChowPresentation) -> list[int]:
    """The minimal monomials in X's generators that no rule of X reduces and
    whose codegree exceeds dim X.  X's truncation kills them; a ring of
    higher dimension built on X's ring needs a rule m -> 0 for each.
    Irreducible monomials are closed under division, so m is minimal
    exactly when codeg(m) - min codeg(x_i), i in supp(m), is at most dim X;
    then m over its last generator lies in X.basis, which ``_grown`` reads."""
    cds = X.ring.codegrees
    return [
        m
        for d in range(X.dim + 1, X.dim + max(cds, default=0) + 1)
        for m in _grown(X.ring, X.basis, d)
        if d - _least_codegree(X.ring, m) <= X.dim
    ]


def _least_codegree(ring: RingContext, m: int) -> int:
    """The least codegree of a generator dividing m, not the unit: of the
    codegrees whose fields (``ring._codegree_masks``) m meets, so no
    exponent is decoded."""
    return min(c for c, mask in ring._codegree_masks if m & mask)


# ---------------------------------------------------------------------------
# Constructors
# ---------------------------------------------------------------------------

def projective_space(
    n: int, modulus: int = 0, name: Optional[str] = None
) -> ChowPresentation:
    """P^n: one hyperplane generator h with h^{n+1} = 0 and deg(h^n) = 1."""
    if n < 0:
        raise ValueError("n must be >= 0")
    ring = RingContext(
        ["h"], [1], modulus=modulus, dimension=n,
        rules=[(Monomial([(0, n + 1)]), {})],
    )
    basis = [(generator_power(0, d),) for d in range(n + 1)]

    def tangent() -> GradedClass:
        # (1 + h)^(n+1) with h^(n+1) = 0, term by term; binom(n+1, d+1) is
        # binom(n+1, d) * (n+1-d) / (d+1), exactly
        table = {}
        c = 1
        for d, (m,) in enumerate(basis):
            table[m] = c
            c = c * (n + 1 - d) // (d + 1)
        return ring.from_table(table)

    return ChowPresentation(
        kind="pspace",
        ring=ring,
        roles={"h": ROLE_HYPERPLANE},
        basis=basis,
        degree_table={generator_power(0, n): 1},
        tangent=tangent,
        provenance={"constructor": "projective_space", "n": n, "cellular": True},
        name=name or f"P{n}",
    )


def _unique_names(a: Sequence[str], b: Sequence[str]) -> tuple[dict, dict]:
    clash = set(a) & set(b)
    used: set[str] = set()

    def place(name: str, suffix: str) -> str:
        candidate = f"{name}{suffix}" if suffix else name
        while candidate in used:
            candidate += "'"
        used.add(candidate)
        return candidate

    ra = {n: place(n, "_1" if n in clash else "") for n in a}
    rb = {n: place(n, "_2" if n in clash else "") for n in b}
    return ra, rb


def product(X: ChowPresentation, Y: ChowPresentation, name: Optional[str] = None) -> ChowPresentation:
    """X x Y with the monomial product basis and multiplied degree/tangent.

    The ring is built on X's ring (``RingContext(base=)``), with Y's rules
    shifted past X's generators, plus m -> 0 for each factor's minimal
    irreducible monomials above its dimension (see _truncated_leads)."""
    if X.ring.modulus != Y.ring.modulus:
        raise ContextMismatch("factors have different coefficient rings")
    ra, rb = _unique_names(X.ring.names, Y.ring.names)
    names = [ra[n] for n in X.ring.names] + [rb[n] for n in Y.ring.names]
    codegrees = list(X.ring.codegrees) + list(Y.ring.codegrees)
    shift = len(X.ring.names)

    rules = [(shifted(r.lead, shift), {shifted(m, shift): c for m, c in r.replacement})
             for r in Y.ring.rules]
    rules += [(m, {}) for m in _truncated_leads(X)]
    rules += [(shifted(m, shift), {}) for m in _truncated_leads(Y)]
    dim = X.dim + Y.dim
    ring = RingContext(names, codegrees, X.ring.modulus, dimension=dim, rules=rules, base=X.ring)

    basis: list[tuple[int, ...]] = []
    for d in range(dim + 1):
        here = []
        for dx in range(0, min(d, X.dim) + 1):
            dy = d - dx
            if dy > Y.dim:
                continue
            for mx in X.basis_of(dx):
                for my in Y.basis_of(dy):
                    here.append(mx + shifted(my, shift))
        basis.append(tuple(sorted(here)))

    degree_table = None
    if X.degree_table is not None and Y.degree_table is not None:
        degree_table = {}
        for mx, vx in X.degree_table.items():
            for my, vy in Y.degree_table.items():
                degree_table[mx + shifted(my, shift)] = vx * vy

    # the factors' slots, not the factors: nothing else keeps them alive
    tx_slot, ty_slot = X._tangent, Y._tangent

    def tangent() -> GradedClass:
        tx = ring.from_table(dict(_force(tx_slot).table))
        ty = ring.from_table({shifted(m, shift): c for m, c in _force(ty_slot).table.items()})
        return tx * ty

    roles = {ra[n]: X.roles.get(n, ROLE_AMBIENT) for n in X.ring.names}
    roles.update({rb[n]: Y.roles.get(n, ROLE_AMBIENT) for n in Y.ring.names})
    return ChowPresentation(
        kind="product",
        ring=ring,
        roles=roles,
        basis=basis,
        degree_table=degree_table,
        tangent=tangent if tx_slot is not None and ty_slot is not None else None,
        provenance={
            "constructor": "product",
            "factors": [X.name, Y.name],
            "cellular": X.is_cellular() and Y.is_cellular(),
        },
        name=name or f"{X.name}x{Y.name}",
    )


def projective_bundle(
    X: ChowPresentation,
    roots: BundleRoots,
    fiber_gen: str = "xi",
    name: Optional[str] = None,
) -> ChowPresentation:
    """P(E) -> X for E with the given Chern roots (rank >= 1).

    The ring is built on X's ring, with m -> 0 for X's minimal irreducible
    monomials above dim X (see _truncated_leads) and the Grothendieck
    relation for xi^r."""
    if roots.ring is not X.ring:
        raise ContextMismatch("roots must live on the base presentation")
    r = roots.rank
    if r < 1:
        raise ValueError("bundle rank must be >= 1")

    while fiber_gen in X.ring.names:
        fiber_gen += "'"
    names = list(X.ring.names) + [fiber_gen]
    codegrees = list(X.ring.codegrees) + [1]
    xi_idx = len(X.ring.names)
    dim = X.dim + r - 1

    # xi^r = -sum_{i=1}^{r} c_i(E) xi^{r-i}; c(E) has no part above r
    chern, cd = chern_total(roots), X.ring.monomial_codegree
    grothendieck = {m + generator_power(xi_idx, r - cd(m)): -c for m, c in chern.table.items() if m}
    rules = [(m, {}) for m in _truncated_leads(X)]
    rules.append((Monomial([(xi_idx, r)]), grothendieck))
    ring = RingContext(names, codegrees, X.ring.modulus, dimension=dim, rules=rules, base=X.ring)

    # xi is the last generator, in the most significant field, so the
    # blocks xi^k * X.basis_of(d - k), k = 0, 1, ..., are in key order
    basis: list[list[int]] = []
    for d in range(dim + 1):
        here = list(X.basis_of(d))
        for k in range(1, min(r - 1, d) + 1):
            xk = generator_power(xi_idx, k)
            here += [m + xk for m in X.basis_of(d - k)]
        basis.append(here)

    degree_table = None
    if X.degree_table is not None:
        degree_table = {}
        for m, v in X.degree_table.items():
            degree_table[m + generator_power(xi_idx, r - 1)] = v

    def tangent() -> GradedClass:
        # Euler sequence: c(T_P(E)) = pi^* c(T_X) * prod over roots c of (1 + xi + c)
        xi = ring.gen(fiber_gen)
        lifted = BundleRoots(ring, tuple(xi + ring.from_table(dict(c.table)) for c in roots.entries))
        return ring.from_table(dict(X.tangent.table)) * chern_total(lifted)

    def segre() -> list[GradedClass]:
        # Segre classes of the bundle on the base: s(E) = 1/c(E)
        sseries = inverse_series(chern)
        return [sseries.homogeneous_part(k) for k in range(X.dim + 1)]

    roles = dict(X.roles)
    roles[fiber_gen] = ROLE_HYPERPLANE
    pres = ChowPresentation(
        kind="bundle",
        ring=ring,
        roles=roles,
        basis=basis,
        degree_table=degree_table,
        tangent=tangent if X._tangent is not None else None,
        base=X,
        provenance={
            "constructor": "projective_bundle",
            "base": X.name,
            "rank": r,
            "fiber_generator": fiber_gen,
            "cellular": X.is_cellular(),
        },
        name=name or f"P({X.name};r{r})",
    )
    pres._segre = segre
    return pres


def _exceptional_name(X: ChowPresentation, exceptional_gen: str) -> str:
    """The name ``blow_up`` gives the exceptional generator asked for as
    exceptional_gen: it, with a prime appended while it names a generator
    of X."""
    while exceptional_gen in X.ring.names:
        exceptional_gen += "'"
    return exceptional_gen


def blow_up(
    X: ChowPresentation,
    center: CenterData,
    exceptional_gen: str = "e",
    name: Optional[str] = None,
    rules: Iterable[tuple[int, Mapping[int, int]]] = (),
) -> ChowPresentation:
    """Blow-up of X along a center satisfying the coverage requirement.

    Builds on X's ring with the flattened rewrite system:

    * e*g -> e*res(g) for every generator whose restriction differs from it;
    * e*m -> 0 for the minimal restriction-fixed basis monomials m of
      codegree above dim Z (classes of the center vanish above its
      dimension); e*m for any other such m is a multiple of one of these;
    * e^r -> (-1)^{r-1} [Z] + sum_{j=1}^{r-1} (-1)^{j+r-1} c_{r-j}(N) e^j,
      which folds the top fiber power back into the ambient component;
      c(N) is ``chern_total`` of the restricted normal roots.

    ``rules``, (lead monomial, {monomial: coefficient}) pairs as
    ``generic_context(rules=)`` takes them, are declared after these in
    the one ring build, as ``with_rules`` would add them to the blow-up
    built without them.  Their keys are in the blow-up's generators: X's,
    then e, renamed by ``_exceptional_name`` on a clash.  A restriction
    entry for a name that is not a generator of X raises
    ``CoverageError``.

    X's basis is closed under division (see ``ChowPresentation``), so a
    fixed m above dim Z is minimal exactly when codeg(m) - min codeg(x_i),
    i in supp(m), is at most dim Z.  e is the last generator, the most
    significant field, so X.basis_of(d), e * center[d-1], e^2 * center[d-2],
    ... is each codegree's basis in key order.  With rules, the basis is
    that one minus the monomials that a kept declared lead divides, as
    ``with_rules`` lists it.

    The blow-up carries no tangent class.
    """
    if center.fundamental.ring is not X.ring:
        raise ContextMismatch("center data must live on the ambient presentation")
    r = center.codim
    if r < 2:
        raise CoverageError("blow-up centers must have codimension >= 2")
    if center.roots.rank != r:
        raise CoverageError(
            f"codimension mismatch: [Z] has codegree {r} but roots have rank {center.roots.rank}"
        )
    dim_z = X.dim - r
    if dim_z < 0:
        raise CoverageError("center codimension exceeds the ambient dimension")

    # Restriction as a ring endomorphism of the ambient presentation.
    gens = {gname: X.gen(gname) for gname in X.ring.names}
    for gname in center.restriction:
        if gname not in gens:
            raise CoverageError(f"restriction names {gname!r}, not a generator of {X.name!r}")
    res_images: dict[str, GradedClass] = {}
    for gname in X.ring.names:
        img = center.restriction.get(gname)
        if img is None:
            res_images[gname] = gens[gname]
        else:
            if img.ring is not X.ring:
                raise ContextMismatch(f"restriction image of {gname!r} lives elsewhere")
            if not img.is_zero() and img.codegree != X.ring.codegrees[X.ring.gen_index(gname)]:
                raise CoverageError(f"restriction image of {gname!r} has wrong codegree")
            res_images[gname] = img

    def res(c: GradedClass) -> GradedClass:
        return evaluate(c, res_images, X.ring)

    # a generator the restriction does not name maps to itself, and so does
    # its image; only the named ones can break idempotence
    for gname in X.ring.names:
        img = res_images[gname]
        if gname in center.restriction and res(img) != img:
            raise CoverageError(
                f"restriction map is not idempotent on generator {gname!r}"
            )

    # the fields of the generators the restriction moves
    fixed = [res_images[g] == gens[g] for g in X.ring.names]
    moved = sum(generator_power(i, MAX_EXPONENT) for i, f in enumerate(fixed) if not f)

    exceptional_gen = _exceptional_name(X, exceptional_gen)
    names = list(X.ring.names) + [exceptional_gen]
    codegrees = list(X.ring.codegrees) + [1]
    e_idx = len(X.ring.names)

    e = generator_power(e_idx)
    own: list[tuple[int, dict[int, int]]] = []
    # restriction rules
    for gi, gname in enumerate(X.ring.names):
        if fixed[gi]:
            continue
        img = res_images[gname]
        repl = {m + e: c for m, c in img.table.items()}
        own.append((generator_power(gi) + e, repl))
    # dimension-kill rules, minimal ones only: the rest are their multiples
    cds = X.ring.codegrees
    for d in range(dim_z + 1, min(X.dim, dim_z + max(cds, default=0)) + 1):
        for m in X.basis_of(d):
            if not m & moved and d - _least_codegree(X.ring, m) <= dim_z:
                own.append((m + e, {}))
    # fold rule for e^r: c_k(N) e^{r-k} has sign (-1)^{(r-k)+r-1} = (-1)^{k+1}
    sign_z = 1 if r % 2 else -1
    fold = {m: sign_z * c for m, c in center.fundamental.table.items()}
    normal = BundleRoots(X.ring, tuple(res(c) for c in center.roots.entries))
    for m, c in chern_total(normal).table.items():
        k = X.ring.monomial_codegree(m)
        if 0 < k < r:
            fold[m + generator_power(e_idx, r - k)] = c if k % 2 else -c
    own.append((generator_power(e_idx, r), fold))
    declared = len(X.ring.rules) + len(own)  # the index of the first of rules
    rules = list(rules)

    ring = RingContext(names, codegrees, X.ring.modulus, dimension=X.dim, rules=own + rules, base=X.ring)

    # Center-side basis: X's basis monomials in the fixed generators, which
    # the restriction leaves as they are, of codegree at most dim Z.
    center_basis = [
        [m for m in X.basis_of(d) if not m & moved] for d in range(dim_z + 1)
    ]

    # No rule reduces an X-basis monomial m or e^k*m, 0 < k < r, m in the
    # center basis (below the dimension, so truncation never applies): X's
    # leads hold no e and m is X-irreducible, a kill lead e*m' has
    # codegree(m') > dim Z, a restriction lead e*g has g not fixed, and the
    # fold lead is e^r.
    basis: list[list[int]] = []
    for d in range(X.dim + 1):
        here = list(X.basis_of(d))
        for k in range(max(1, d - dim_z), min(r - 1, d) + 1):
            ek = generator_power(e_idx, k)
            here += [m + ek for m in center_basis[d - k]]
        basis.append(here)
    if rules:
        basis = _undivided(ring, [r.lead for r in ring.rules if r.index >= declared], basis)

    degree_table = dict(X.degree_table) if X.degree_table is not None else None

    roles = dict(X.roles)
    roles[exceptional_gen] = ROLE_EXCEPTIONAL
    return ChowPresentation(
        kind="blowup",
        ring=ring,
        roles=roles,
        basis=basis,
        degree_table=degree_table,
        tangent=None,
        base=X,
        center=center,
        provenance={
            "constructor": "blow_up",
            "base": X.name,
            "codim": r,
            "center": center.name,
            "exceptional_generator": exceptional_gen,
            "cellular": X.is_cellular(),
        },
        name=name or f"Bl_{center.name}({X.name})",
    )


def generic_context(
    generators: Sequence[tuple[str, int]],
    dimension: int,
    rules: Iterable[tuple[int, Mapping[int, int]]] = (),
    modulus: int = 0,
    degrees: Optional[Mapping[int, int]] = None,
    tangent_table: Optional[Mapping[int, int]] = None,
    name: Optional[str] = None,
) -> ChowPresentation:
    """A presentation with declared generators and oriented rules, given as
    (lead monomial, {monomial: coefficient}) pairs, a partial (or absent)
    degree functional, and truncation above the dimension."""
    names, codegs = [n for n, _ in generators], [d for _, d in generators]
    ring = RingContext(names, codegs, modulus=modulus, dimension=dimension, rules=rules)
    return _generic_presentation(ring, enumerate_basis(ring), degrees, tangent_table, name)


def _generic_presentation(ring, basis, degrees, tangent_table, name) -> ChowPresentation:
    """The ``generic_context`` presentation of a ring, its basis (which must
    be ``enumerate_basis`` of the ring, or a function returning it) and the
    optional declarations."""
    tangent = None if tangent_table is None else ring.from_table(dict(tangent_table))
    degree_table = dict(degrees) if degrees is not None else None
    return ChowPresentation(
        "generic", ring, {n: ROLE_AMBIENT for n in ring.names}, basis, degree_table,
        tangent, provenance={"constructor": "generic_context", "cellular": False},
        name=name or "generic",
    )
