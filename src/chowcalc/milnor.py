"""F_2 algebras carrying an action of exterior differentials Q_i.

Two families of rings are modelled:

* symbol rings ``make_ring(m, height)``: generators r_0..r_{m-1} over the
  coefficients F_2[rho]/(rho^h), with r_i^2 = r_{i+1} * rho for i <= m-2
  and the top generator eta := r_{m-1} polynomial (free powers); h = 1
  gives rho = 0;
* ``flexible_cohomology(n)``: the exterior algebra on r_0..r_n over F_2
  (rho = 0, every square vanishes).

The basis words are eta^k * r_I * rho^s with I a set of square-free
indices and 0 <= s < h.  Every word carries a bidegree
(a)[b]: r_i sits in (-d_i)[-2d_i - 1] with d_i = 2^i - 1, and rho^s sits
in (s)[s].

A word keeps its index set I as the binary number 2^I = sum of 2^i over i
in I, and its ring reads eta^k * r_I * rho^s through the key
k * 2^n + 2^I, n = n_sq.  A product adds the keys and the rho powers: each
carry among the low n bits costs one more factor rho, and a carry out of
them raises the eta power.  So the product of two words is one word, or
zero once its rho power reaches h; and since a - b is the key, which
fixes k, I and then s, no two basis words share a bidegree.  The
differentials act by Q_i(r_j) = delta_ij, extended as derivations, so the
composite Q_I sends key w to w ^ 2^I when w & 2^I == 2^I, and to zero
otherwise; on eta^k (negative k read in two's complement) that lowers an
odd k by one.  ``comult_check`` verifies the comultiplication rule with
rho-correction terms: a term pairs 2^I with 2^J = 2^K - 2^I and carries
rho^c, c = |I| + |J| - |K| the carry count of that sum.  It walks the
subsets of the one word pair once, and its work grows with the words'
supports, not with the largest index in K.  Keys are as wide as the ring
has generators, at most ``MAX_GENERATORS``.

Since no two basis words share a bidegree, an element of one bidegree is
zero or one word: a ``MilnorElement`` holds one ``word``, None for zero.
``MilnorRing.element`` refuses a word that names no basis element of its
ring: an index past the square-free ones, a coefficient outside the
algebra, or an eta power in a ring without eta.  It checks each word once
and cancels repeated words over F_2, so one word costs one check; two words
that survive are of mixed bidegree, which it refuses too.  A ring's
coefficient algebra is its height h alone: ``trivial_ia()`` is 1 and
``truncated_symbol_ia(h)`` checks h and returns it, and the labels 1, rho,
rho^s are read from h by ``_rho_label``.

Words with a negative eta power are ordinary ring words: ``element``,
``q_apply`` and ``q_homology_dimensions``, whose combined model is the
ring part (k >= 0) together with the periodic part (k < 0), take them as
they take any other.
"""

from __future__ import annotations

import functools
import itertools
from typing import FrozenSet, Iterable, Optional, Sequence


# Largest height of truncated_symbol_ia.  The height comes from outside (the
# DSL's rho-height), and every basis enumeration lists h coefficients per
# word, so a script may not ask for an unbounded one.
MAX_RHO_HEIGHT = 64

# Most generators of a MilnorRing: a word's key is about that many bits wide.
MAX_GENERATORS = 1024


class MilnorError(Exception):
    pass


class BiDegree:
    """Weight and homological shift, written (a)[b]; adds under products.
    A value: never changed once built, equal and hashed by (a, b)."""

    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int):
        self.a = a
        self.b = b

    def __eq__(self, other) -> bool:
        if other.__class__ is not BiDegree:
            return NotImplemented
        return self.a == other.a and self.b == other.b

    def __hash__(self) -> int:
        return hash((self.a, self.b))

    def __repr__(self) -> str:
        return f"BiDegree(a={self.a!r}, b={self.b!r})"

    def __add__(self, other: "BiDegree") -> "BiDegree":
        return BiDegree(self.a + other.a, self.b + other.b)

    def __str__(self) -> str:
        return f"({self.a})[{self.b}]"


def trivial_ia() -> int:
    """The height of Ia = F_2 in weight 0, rho = 0."""
    return 1


def truncated_symbol_ia(height: int) -> int:
    """The height of F_2[rho]/(rho^height), checked: an int in
    1..MAX_RHO_HEIGHT.  height=1 gives rho = 0."""
    if type(height) is not int:
        raise MilnorError(f"height {height!r} is not an int")
    if height < 1:
        raise MilnorError("height must be >= 1")
    if height > MAX_RHO_HEIGHT:
        raise MilnorError(f"height must be <= {MAX_RHO_HEIGHT}")
    return height


def _rho_label(s: int) -> str:
    """The label of coefficient s, which is rho^s, of weight s."""
    return "1" if s == 0 else "rho" if s == 1 else f"rho^{s}"


class Word:
    """Basis word eta^k * r_I * s, with the index set I kept as the integer
    ``mask`` = 2^I; the property ``I`` reads it back as a frozenset.

    The public constructor takes any iterable of non-negative int indices
    (a repeated index counts once); internal results are built from a mask
    through ``_word`` (unchecked).  A word is immutable, and its hash is
    computed once and kept.
    """

    __slots__ = ("k", "mask", "s", "_hash")

    def __init__(self, k: int, I: Iterable[int], s: int):
        mask = 0
        for i in I:
            if not isinstance(i, int) or i < 0:
                raise MilnorError(f"word index {i!r} is not a non-negative int")
            mask |= 1 << i
        self.k, self.mask, self.s = k, mask, s
        self._hash = hash((k, mask, s))

    @property
    def I(self) -> FrozenSet[int]:
        m = self.mask
        return frozenset(i for i in range(m.bit_length()) if m >> i & 1)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        return self is other or (
            isinstance(other, Word)
            and self.mask == other.mask and self.k == other.k and self.s == other.s
        )

    def __repr__(self) -> str:
        return f"Word(k={self.k!r}, I={self.I!r}, s={self.s!r})"


def _word(k: int, mask: int, s: int) -> Word:
    """The word eta^k * r_I * s with 2^I = mask (unchecked)."""
    w = object.__new__(Word)
    w.k, w.mask, w.s = k, mask, s
    w._hash = hash((k, mask, s))
    return w


class MilnorRing:
    """See the module docstring.  ``n_sq`` counts the square-free generators
    r_0..r_{n_sq-1}; when ``has_eta`` the generator r_{n_sq} is polynomial.
    Coefficient s of a word is rho^s, zero from s = ``height`` on."""

    def __init__(self, n_sq: int, has_eta: bool, height: int, name: str = ""):
        if n_sq < 1:
            raise MilnorError("need at least one square-free generator")
        truncated_symbol_ia(height)  # an int in 1..MAX_RHO_HEIGHT
        if not has_eta and height > 1:
            raise MilnorError("without a top polynomial generator rho must be 0")
        if n_sq + has_eta > MAX_GENERATORS:
            raise MilnorError(f"a Milnor ring has at most {MAX_GENERATORS} generators")
        self.n_sq = n_sq
        self.has_eta = has_eta
        self.height = height
        self.name = name or ("flexible" if not has_eta else f"symbol-ring(m={n_sq+1})")
        self.q_indices = range(n_sq + has_eta)  # generators r_0 .. r_{top_index}
        self._low = (1 << n_sq) - 1  # the bits of 2^I in a key
        self._q_mask = (1 << (n_sq + has_eta)) - 1  # the bits of the Q-indices
        self._coefficients = range(height)  # the s of rho^s

    @property
    def top_index(self) -> int:
        return self.q_indices[-1]

    # -- elements -----------------------------------------------------

    def element(self, words: Iterable[Word]) -> "MilnorElement":
        """The F_2 sum of words, each checked once: zero or one word, since
        two distinct basis words never share a bidegree."""
        word: Optional[Word] = None
        rest: set[Word] = set()  # the survivors besides word
        for w in words:
            self._check_word(w)
            if word is None:
                word = w
            elif w == word:  # cancels over F_2
                word = rest.pop() if rest else None
            else:
                rest ^= {w}
        if rest:
            degs = {self.word_bidegree(w) for w in rest | {word}}
            raise MilnorError(f"words of mixed bidegree: {sorted(str(d) for d in degs)}")
        return MilnorElement(self, word)

    def _check_word(self, w: Word) -> None:
        if w.mask >> self.n_sq:
            raise MilnorError(
                f"index {w.mask.bit_length() - 1} out of range: "
                f"{self.name} has square-free indices 0..{self.n_sq - 1}"
            )
        if w.s not in self._coefficients:
            raise MilnorError(f"coefficient {w.s!r} out of range for {self.name}")
        if w.k != 0 and not self.has_eta:
            raise MilnorError(f"{self.name} has no eta, but the word has eta^{w.k}")

    def zero(self) -> "MilnorElement":
        return MilnorElement(self, None)

    def one(self) -> "MilnorElement":
        return MilnorElement(self, _word(0, 0, 0))

    def r(self, i: int) -> "MilnorElement":
        if not (0 <= i <= self.top_index):
            raise MilnorError(f"generator index {i} out of range")
        if self.has_eta and i == self.n_sq:
            return self.eta()
        return MilnorElement(self, _word(0, 1 << i, 0))

    def eta(self) -> "MilnorElement":
        if not self.has_eta:
            raise MilnorError("this ring has no polynomial top generator")
        return MilnorElement(self, _word(1, 0, 0))

    def r_set(self, I: Iterable[int]) -> "MilnorElement":
        acc = self.one()
        for i in sorted(I):
            acc = acc * self.r(i)
        return acc

    def rho_elem(self) -> "MilnorElement":
        return MilnorElement(self, _word(0, 0, 1) if self.height > 1 else None)

    # -- word algebra ----------------------------------------------------

    def _key(self, w: Word) -> int:
        """k * 2^n + 2^I for w = eta^k * r_I * s, with n = n_sq."""
        return (w.k << self.n_sq) + w.mask

    def word_bidegree(self, w: Word) -> BiDegree:
        # r_i sits in (1 - 2^i)[1 - 2^(i+1)] and eta in the same with i = n_sq
        n = w.mask.bit_count() + w.k
        key = self._key(w)
        return BiDegree(n - key + w.s, n - 2 * key + w.s)  # rho^s has weight s

    def _mul_keys(self, a: int, s1: int, b: int, s2: int, rhos: int = 0) -> Optional[tuple[int, int]]:
        """The product of the words with keys a, b and coefficients rho^s1,
        rho^s2, times rho^rhos: its key a + b and its rho power, or None
        when that power reaches the height.  Each carry among the low n_sq
        bits costs one factor rho; a carry out of them is plain integer
        addition into the eta power."""
        a_low, b_low = a & self._low, b & self._low
        s = s1 + s2 + rhos + a_low.bit_count() + b_low.bit_count() - (a_low + b_low).bit_count()
        return (a + b, s) if s < self.height else None

    def _mul_words(self, w1: Word, w2: Word) -> Optional[Word]:
        """w1 * w2, or None when it is zero."""
        prod = self._mul_keys(self._key(w1), w1.s, self._key(w2), w2.s)
        if prod is None:
            return None
        key, s = prod
        return _word(key >> self.n_sq, key & self._low, s)

    def _q_bit(self, i: int) -> int:
        """2^i, or MilnorError when i is not a Q-index of this ring."""
        if i not in self.q_indices:
            raise MilnorError(f"Q-index {i} out of range for {self.name}")
        return 1 << i

    def _q_word(self, bits: int, w: Word) -> Optional[Word]:
        """Q_I(w) for 2^I = bits over valid Q-indices, or None when it is
        zero: the word with key w ^ 2^I when w & 2^I == 2^I."""
        key = self._key(w)
        if key & bits != bits:
            return None
        key ^= bits
        return _word(key >> self.n_sq, key & self._low, w.s)

    # -- enumeration --------------------------------------------------------

    def basis_words(self, k_max: int = 0, k_min: int = 0) -> list[Word]:
        masks = [sum(1 << i for i in I) for rlen in range(self.n_sq + 1)
                 for I in itertools.combinations(range(self.n_sq), rlen)]
        ks = [k for k in range(k_min, k_max + 1) if not k or self.has_eta]
        return [_word(k, mask, s) for k in ks for mask in masks for s in self._coefficients]

    def to_json(self, k_max: int = 2) -> dict:
        words = self.basis_words(k_max=k_max)
        def wname(w: Word) -> str:
            parts = []
            if w.k:
                parts.append(f"eta^{w.k}" if w.k != 1 else "eta")
            if w.I:
                parts.append("r{" + ",".join(str(i) for i in sorted(w.I)) + "}")
            if w.s or not parts:
                parts.append(_rho_label(w.s))
            return "*".join(parts)
        doc = {
            "ring": self.name,
            "square_free_generators": self.n_sq,
            "polynomial_top": self.has_eta,
            "coefficients": {
                "labels": [_rho_label(s) for s in range(self.height)],
                "weights": list(range(self.height)),
                "rho": _rho_label(1) if self.height > 1 else None,
            },
            "basis": [
                {"word": wname(w), "bidegree": str(self.word_bidegree(w))}
                for w in words
            ],
            "q_action": {
                str(i): {
                    wname(w): [wname(img.word)]
                    for w in words
                    if not (img := q_apply(i, self.element([w]))).is_zero()
                }
                for i in self.q_indices
            },
        }
        return doc

    def __repr__(self):
        return f"<MilnorRing {self.name}>"


class MilnorElement:
    """Zero (``word`` None) or one basis word of ``ring``; build it through
    the ring, which checks the word."""

    __slots__ = ("ring", "word")

    def __init__(self, ring: MilnorRing, word: Optional[Word]):
        self.ring = ring
        self.word = word

    def is_zero(self) -> bool:
        return self.word is None

    @property
    def bidegree(self) -> Optional[BiDegree]:
        return None if self.word is None else self.ring.word_bidegree(self.word)

    def _check(self, other: "MilnorElement"):
        if self.ring is not other.ring:
            raise MilnorError("elements of different rings")

    def __add__(self, other: "MilnorElement") -> "MilnorElement":
        self._check(other)
        if self.word is None:
            return other
        if other.word is None:
            return self
        return self.ring.element([self.word, other.word])

    def __mul__(self, other: "MilnorElement") -> "MilnorElement":
        self._check(other)
        w1, w2 = self.word, other.word
        if w1 is None or w2 is None:
            return self.ring.zero()
        return MilnorElement(self.ring, self.ring._mul_words(w1, w2))

    __sub__ = __add__  # over F_2

    def __neg__(self) -> "MilnorElement":
        return self

    def __pow__(self, n: int) -> "MilnorElement":
        if n < 0:
            raise MilnorError("negative power")
        acc, square = self.ring.one(), self
        while n:
            if n & 1:
                acc = acc * square
            n >>= 1
            if n:
                square = square * square
        return acc

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MilnorElement)
            and self.ring is other.ring
            and self.word == other.word
        )

    def __hash__(self):
        return hash((id(self.ring), self.word))

    def __str__(self) -> str:
        w = self.word
        if w is None:
            return "0"
        bits = []
        if w.k:
            bits.append("eta" if w.k == 1 else f"eta^{w.k}")
        for i in sorted(w.I):
            bits.append(f"r{i}")
        if w.s or not bits:
            bits.append(_rho_label(w.s))
        return "*".join(bits)

    __repr__ = __str__


# ---------------------------------------------------------------------------
# Ring constructors
# ---------------------------------------------------------------------------

def make_ring(m: int, height: int, name: str = "") -> MilnorRing:
    """The symbol ring for weight m >= 2 over F_2[rho]/(rho^height):
    square-free r_0..r_{m-2} with r_i^2 = r_{i+1} * rho, and polynomial
    eta = r_{m-1}."""
    if m < 2:
        raise MilnorError("m must be >= 2")
    return MilnorRing(m - 1, True, height, name or f"symbol-ring(m={m})")


def flexible_cohomology(n: int) -> MilnorRing:
    """Exterior algebra on r_0..r_n over F_2 (all squares vanish)."""
    if n < 0:
        raise MilnorError("n must be >= 0")
    return MilnorRing(n + 1, False, trivial_ia(), f"flexible(n={n})")


# ---------------------------------------------------------------------------
# Differentials
# ---------------------------------------------------------------------------

def q_apply(i: int, e: MilnorElement) -> MilnorElement:
    """Q_i: strips r_i from words containing it; on the polynomial generator
    eta^k it acts by k * eta^{k-1} (mod 2), including negative k."""
    ring = e.ring
    bits = ring._q_bit(i)
    return MilnorElement(ring, None if e.word is None else ring._q_word(bits, e.word))


def q_composite(indices: Iterable[int], e: MilnorElement) -> MilnorElement:
    for i in sorted(indices, reverse=True):
        e = q_apply(i, e)
    return e


def comult_check(K: Iterable[int], x: MilnorElement, y: MilnorElement) -> bool:
    """Q_K(x*y) = sum over 2^I + 2^J = 2^K of Q_I(x) * Q_J(y) * rho^(|I|+|J|-|K|).

    For the words w1 of x and w2 of y, the left side is Q_K(w1*w2), and the
    right side has one term for each 2^I <= 2^K among the bits of w1 whose
    complement 2^J = 2^K - 2^I lies in the bits of w2.  Terms of the right
    side may cancel, so its sum is compared, as a set of (key, rho power)
    pairs.  When x or y is zero, both sides are."""
    ring = x.ring
    if y.ring is not ring:
        raise MilnorError("elements of different rings")
    valid, sK, bad = ring.q_indices, 0, None
    for i in K:
        if i in valid:
            sK |= 1 << i
        elif bad is None or i > bad:
            bad = i
    if bad is not None:
        ring._q_bit(bad)  # raises, naming the largest index out of range
    w1, w2 = x.word, y.word
    if w1 is None or w2 is None:
        return True
    nK, n = sK.bit_count(), ring.n_sq
    a, s1, b, s2 = (w1.k << n) + w1.mask, w1.s, (w2.k << n) + w2.mask, w2.s
    supp = a & ring._q_mask
    prod = ring._mul_keys(a, s1, b, s2)
    lhs = {(prod[0] ^ sK, prod[1])} if prod is not None and prod[0] & sK == sK else set()
    rhs: set[tuple[int, int]] = set()
    sI = 0
    while True:
        sJ = sK - sI
        if b & sJ == sJ:
            rhos = sI.bit_count() + sJ.bit_count() - nK
            prod = ring._mul_keys(a ^ sI, s1, b ^ sJ, s2, rhos)
            if prod is not None:
                rhs ^= {prod}
        sI = (sI - supp) & supp  # the next subset of supp
        if not sI or sI > sK:
            break
    return lhs == rhs


# ---------------------------------------------------------------------------
# Restriction along symbol extension
# ---------------------------------------------------------------------------

def restrict_symbol(
    source: MilnorRing,
    target: MilnorRing,
    ia_projection: Sequence[FrozenSet[int]],
    e: MilnorElement,
) -> MilnorElement:
    """Restriction from the weight-m symbol ring to the weight-(m+1) ring:
    r_I maps to r_I, the source eta becomes the square-free r_{m-1} of the
    target (higher eta powers reduce through r_{m-1}^2 = eta' * rho'), and
    coefficients map through the given projection.  Words with a negative
    eta power are rejected."""
    if not (source.has_eta and target.has_eta):
        raise MilnorError("restriction runs between symbol rings")
    if target.n_sq != source.n_sq + 1:
        raise MilnorError("target must be the symbol ring of weight m+1")
    if len(ia_projection) != source.height:
        raise MilnorError("projection table must cover every coefficient basis element")
    if e.ring is not source:
        raise MilnorError("element does not live in the source ring")
    w = e.word
    if w is None:
        return target.zero()
    if w.k < 0:
        raise MilnorError("restriction is defined on ring words, not periodic-module words")
    term = target.r_set(w.I)
    r_top = target.r(source.n_sq)  # square-free in the target
    for _ in range(w.k):
        term = term * r_top
    s_img = target.zero()
    for s in ia_projection[w.s]:
        s_img = s_img + target.element([_word(0, 0, s)])
    return term * s_img


def q_homology_dimensions(
    ring: MilnorRing, i: int, k_min: int, k_max: int
) -> dict[BiDegree, int]:
    """Homology dimensions of Q_i on the combined model, bidegree by bidegree.

    Only bidegrees whose incoming and outgoing words stay inside the k-window
    are reported (boundary bidegrees would see truncation artifacts).
    """
    from .numeric import modp_rank

    # the combined object: the ring part (k >= 0) together with the
    # periodic part (k < 0), restricted to the k-window
    words = ring.basis_words(k_max=k_max, k_min=k_min)
    by_deg: dict[BiDegree, list[Word]] = {}
    for w in words:
        by_deg.setdefault(ring.word_bidegree(w), []).append(w)
    d = 2**i - 1
    shift = BiDegree(d, 2 * d + 1)

    @functools.cache
    def q_rank(src: BiDegree) -> Optional[int]:
        """Rank of Q_i out of src, or None when an image escapes the window."""
        didx = {w: j for j, w in enumerate(by_deg.get(src + shift, []))}
        rows = []
        for w in by_deg.get(src, []):
            row = [0] * len(didx)
            v = q_apply(i, ring.element([w])).word
            if v is not None:
                if v not in didx:
                    return None
                row[didx[v]] = 1
            rows.append(row)
        return modp_rank(rows, 2)

    out: dict[BiDegree, int] = {}
    interior = {
        deg
        for deg, ws in by_deg.items()
        if all(k_min < w.k < k_max for w in ws)
    }
    for deg in interior:
        rank_out = q_rank(deg)
        rank_in = q_rank(deg + BiDegree(-shift.a, -shift.b))
        if rank_out is None or rank_in is None:
            continue
        # kernel dimension minus the incoming image
        out[deg] = len(by_deg[deg]) - rank_out - rank_in
    return out
