"""Degree-pairing matrices, numerical-equivalence kernels over F_p, ideal
quotients by user-declared correspondence-image classes, and the kernel-
stability check for reduced power operations.

Each presentation pays for its pairing once, and keeps it (``X.kept``):

- ``("pairings",)``, the integer pairing (``_integer_pairings``): the
  matrix M_r of codegree r for every r in 0..n, filled in one pass.  Every
  product b * bd of basis monomials lies in codegree n, so one
  {monomial: degree} memo serves every codegree and ``X.degree`` runs once
  per distinct product.  M_{n-r} is the transpose of M_r, since
  ``b * bd`` and ``bd * b`` are the same monomial; it is built once, for
  r < n - r, and every reader takes the kept matrix as it stands.
- ``("modp-pairing", p)``, the mod-p report (``_modp_pairing``): the rank
  and the kernel of each codegree.  The rank of codegree n - r is read
  from codegree r; the kernel of codegree r is the right kernel of
  M_{n-r}.  ``pairing_report``, ``numerical_kernel``, ``kernel_is_ideal``
  and ``ab1_check`` all read it, and take their kernel classes from one
  walk (``_kernel_classes``).
- ``("labels", r)``, the printed basis monomials of codegree r, kept on
  the first read of a report entry's ``basis`` or ``dual_basis``, so a
  check that reads none prints no monomial.
- ``("ideal", d, *tables)``, the pivot rows of the codegree-d piece of an
  ideal (``_ideal_pivots``), one frozenset of (monomial, coefficient)
  items per generator: the one echelon the DSL's ``(modulo I)`` checks
  read.  ``ideal_residual`` gives a class part minus its projection to
  that span; ``pairing_residuals`` gives the same for each top-codegree
  product of a class and a basis monomial.

All are stored as tuples; every report and every caller gets fresh
lists.  Kernel membership is read from the same matrices (``_in_kernel``):
a class c of codegree s is in the mod-p kernel exactly when
coords(c) . M_s = 0 mod p, which reads only the rows of M_s at the nonzero
coordinates of c.  ``kernel_is_ideal`` tests u * b and
``ab1_check`` tests P^i(u) this way, so neither calls ``X.degree`` once
the pairing is kept, and neither can disagree with the kernel it tests;
``kernel_is_ideal`` reads each u * b from ``_ideal_products``.
A modulus that is not prime, or a codegree outside 0..dim, raises
ValueError.

All elimination runs on one sparse echelon kernel (``_echelon``, with
``_eliminate`` clearing one column): rows are ``{column: int}`` dicts,
reduced fraction-free over Z and divided by their content, or made monic
over F_p; a row whose lead is already 1 is kept as it was built, without
a copy.  A nonzero modulus that is not prime raises ValueError, checked
once in ``_echelon``.  Callers hand rows and vectors over in one of two
forms, and ``_sparse`` reads both, reducing each entry mod p once: a dict
row is taken as it is, a dense coordinate list is scanned.  The pairing
matrices and ``ideal_span_rows`` (which ``gamma_quotient`` reads) are
dense; ``_ideal_rows`` gives the DSL's ideal rows as dicts, read from
each product's nonzero coordinates.  One product loop
(``_ideal_products``) serves both ideal row builders,
``pairing_residuals`` and ``kernel_is_ideal``: it reads each product of a
class part and a basis monomial straight from the ring's normal-form
memo, with no basis class and no class product.  One reduction
(``_reduce``) serves ideal membership (``rational_in_rowspan`` and
``modp_in_rowspan``), the quotient map ``GammaQuotient.project`` and
``pairing_residuals``: it reduces a vector against the pivot rows in
increasing column order and returns the nonzero entries of the residual
as a dict, so the residual is zero on every pivot column; the pivot
columns depend only on the row span, so the residual is canonical (the
same as a reduction against the reduced row echelon form would give).
Membership is read off that integer residual, and a Fraction is built
only for a nonzero entry of it.  ``modp_rank`` counts the pivot rows,
``modp_rref`` back-substitutes them (``_back_substitute``), and
``modp_kernel`` returns [] when every column has a pivot (rank-nullity)
and back-substitutes only when there is a kernel, reading its basis off
the reduced rows.  Only the Bareiss determinant keeps its own loop.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import partial
from math import gcd
from operator import mul
from typing import Callable, Iterable, Iterator, Sequence

from .rings import GradedClass, RingContext, RingError, _is_prime
from .varieties import ChowPresentation, CoverageError, TangentUnavailable


# ---------------------------------------------------------------------------
# Exact linear algebra
# ---------------------------------------------------------------------------

_Row = dict[int, int]
_Rows = Sequence[Sequence[int] | _Row]   # dense rows or dict rows


def _sparse(row: Sequence[int] | _Row, p: int) -> _Row:
    """A row as a fresh {column: int} dict without zero entries, its values
    reduced mod p; a dict row is read as it is, only a dense one is scanned."""
    items = row.items() if isinstance(row, dict) else enumerate(row)
    if p:
        return {j: w for j, v in items if (w := v % p)}
    return {j: v for j, v in items if v}


def _eliminate(r: _Row, piv: _Row, c: int, p: int) -> tuple[_Row, int]:
    """Clear column c of r with the pivot row for c; returns the new row and
    the factor r was scaled by (1 over F_p)."""
    a, b = 1, r[c]
    if not p:
        g = gcd(piv[c], b)
        a, b = piv[c] // g, b // g
    out = {j: a * v for j, v in r.items()} if a != 1 else dict(r)
    for j, v in piv.items():
        w = out.get(j, 0) - b * v
        if p:
            w %= p
        if w:
            out[j] = w
        else:
            out.pop(j, None)
    return out, a


def _echelon(rows: _Rows, p: int) -> dict[int, _Row]:
    """Pivot rows of the row span keyed by leading column: primitive with a
    positive lead over Z, monic over F_p.  Rows are dense or dicts.  A row
    whose lead is already 1, or whose content is already 1 over Z, is kept
    as it was built, so echeloning pivot rows again eliminates nothing.  A
    nonzero p that is not prime raises ValueError."""
    if p and not _is_prime(p):
        raise ValueError(f"modulus {p} is not prime")
    pivots: dict[int, _Row] = {}
    for row in rows:
        r = _sparse(row, p)
        while r:
            c = min(r)
            piv = pivots.get(c)
            if piv is None:
                lead = r[c]
                if lead != 1:
                    if p:
                        inv = pow(lead, -1, p)
                        r = {j: v * inv % p for j, v in r.items()}
                    else:
                        g = gcd(*r.values())
                        g = -g if lead < 0 else g
                        if g != 1:
                            r = {j: v // g for j, v in r.items()}
                pivots[c] = r
                break
            r, _ = _eliminate(r, piv, c, p)
    return pivots


def _reduce(pivots: dict[int, _Row], vec: Sequence[int] | _Row, p: int) -> tuple[_Row, int]:
    """(res, scale): res / scale is vec minus a row-span element, zero on
    every pivot column.  vec is a dense list or a dict row, read as
    ``_sparse`` reads it; res holds only the nonzero entries."""
    res = _sparse(vec, p)
    scale = 1
    for c in sorted(pivots):
        if res.get(c):
            res, a = _eliminate(res, pivots[c], c, p)
            scale *= a
    return res, scale


def _dense(res: _Row, n: int, fill=0) -> list:
    """The row as a list of n entries, fill at every column it leaves out."""
    out = [fill] * n
    for j, v in res.items():
        out[j] = v
    return out


def _back_substitute(pivots: dict[int, _Row], p: int) -> dict[int, _Row]:
    """The echelon pivot rows made zero on every other pivot column, in
    place: the reduced row echelon form."""
    for c in sorted(pivots, reverse=True):
        r = pivots[c]
        # the pivot rows right of c are already reduced, so clearing one of
        # their columns leaves the other pivot columns of r alone
        for k in sorted(j for j in r if j > c and j in pivots):
            r, _ = _eliminate(r, pivots[k], k, p)
        pivots[c] = r
    return pivots


def modp_rref(rows: Sequence[Sequence[int]], p: int) -> dict[int, _Row]:
    """Reduced row echelon form over F_p: {pivot column: monic row that is
    zero on every other pivot column}."""
    return _back_substitute(_echelon(rows, p), p)


def modp_rank(rows: Sequence[Sequence[int]], p: int) -> int:
    return len(_echelon(rows, p))


def modp_kernel(matrix: Sequence[Sequence[int]], p: int) -> list[list[int]]:
    """Right kernel basis of the matrix over F_p (vectors of length ncols);
    back-substitutes only when some column has no pivot.  p = 0 raises
    ValueError, as a nonzero p that is not prime does."""
    if not p:
        raise ValueError("modulus 0 is not prime")
    ncols = len(matrix[0]) if matrix else 0
    pivots = _echelon(matrix, p)
    if len(pivots) == ncols:
        return []
    rref = _back_substitute(pivots, p)
    basis = []
    for fc in range(ncols):
        if fc in rref:
            continue
        v = [0] * ncols
        v[fc] = 1
        for pc, row in rref.items():
            v[pc] = -row.get(fc, 0) % p
        basis.append(v)
    return basis


_ZERO = Fraction(0)


def _membership(pivots: dict[int, _Row], vec: Sequence[int], p: int) -> tuple[bool, list]:
    """(ok, residual) of vec modulo the pivots' row span: ints over F_p,
    Fractions over Q with every zero entry the one shared ``_ZERO``.  ok is
    read off the integer residual, before any Fraction is built."""
    res, scale = _reduce(pivots, vec, p)
    if not p and res:
        res = {j: Fraction(v, scale) for j, v in res.items()}
    return not res, _dense(res, len(vec), 0 if p else _ZERO)


def modp_in_rowspan(rows: _Rows, vec: list[int], p: int) -> tuple[bool, list[int]]:
    """Membership of vec in the row span over F_p; returns (ok, residual)."""
    return _membership(_echelon(rows, p), vec, p)


def rational_in_rowspan(rows: _Rows, vec: list[int]) -> tuple[bool, list[Fraction]]:
    """Membership of vec in the rational row span; returns (ok, residual)."""
    return _membership(_echelon(rows, 0), vec, 0)


def integer_determinant(matrix: Sequence[Sequence[int]]) -> int:
    """Fraction-free Bareiss determinant of a square matrix given as any
    sequence of integer rows; any other shape, or an entry that is not an
    int, raises ValueError.

    Step k makes each row i > k (m_ik' m_kk - m_ik m_kj) / prev, prev the
    pivot of the step before; a row with m_ik = 0 under a pivot equal to
    prev comes out as it was, so it is skipped."""
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError(f"determinant needs a square matrix, not rows of lengths {[len(r) for r in matrix]}")
    m = [list(row) for row in matrix]
    for row in m:
        for v in row:
            if not isinstance(v, int):
                raise ValueError(f"determinant needs integer entries, not {v!r}")
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((r for r in range(k + 1, n) if m[r][k] != 0), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        pivot_row = m[k]
        pivot = pivot_row[k]
        tail = pivot_row[k + 1:]
        for i in range(k + 1, n):
            row = m[i]
            a = row[k]
            if a == 0 and pivot == prev:
                continue
            row[k + 1:] = [(v * pivot - a * w) // prev for v, w in zip(row[k + 1:], tail)]
        prev = pivot
    return sign * m[n - 1][n - 1]


# ---------------------------------------------------------------------------
# Pairing reports
# ---------------------------------------------------------------------------

class CodegreePairing:
    """One codegree r of a pairing report.  ``basis`` and ``dual_basis``, the
    printed basis monomials of codegrees r and n - r, are each given as a
    list or as a zero-argument function, called on the first read and
    replaced by its list."""

    __slots__ = ("codegree", "_basis", "_dual_basis", "matrix", "rank", "kernel", "num_dimension")

    def __init__(
        self,
        codegree: int,
        basis: list[str] | Callable[[], list[str]],
        dual_basis: list[str] | Callable[[], list[str]],
        matrix: list[list[int]],     # exact integer degrees
        rank: int,                   # rank of the matrix mod p
        kernel: list[list[int]],     # left-kernel basis mod p
        num_dimension: int,          # dim of Ch^r modulo the kernel = rank
    ):
        self.codegree = codegree
        self._basis = basis
        self._dual_basis = dual_basis
        self.matrix = matrix
        self.rank = rank
        self.kernel = kernel
        self.num_dimension = num_dimension

    @property
    def basis(self) -> list[str]:
        if callable(self._basis):
            self._basis = self._basis()
        return self._basis

    @property
    def dual_basis(self) -> list[str]:
        if callable(self._dual_basis):
            self._dual_basis = self._dual_basis()
        return self._dual_basis


class PairingReport:
    __slots__ = ("variety", "prime", "codegrees")

    def __init__(self, variety: str, prime: int):
        self.variety = variety
        self.prime = prime
        self.codegrees: dict[int, CodegreePairing] = {}

    def to_json(self) -> dict:
        return {
            "variety": self.variety,
            "prime": self.prime,
            "codegrees": {
                str(d): {
                    "basis": e.basis,
                    "dual_basis": e.dual_basis,
                    "matrix": e.matrix,
                    "rank": e.rank,
                    "kernel": e.kernel,
                    "num_dimension": e.num_dimension,
                }
                for d, e in sorted(self.codegrees.items())
            },
        }

    def dumps(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True)


def _integer_pairings(X: ChowPresentation) -> dict[int, tuple[tuple[int, ...], ...]]:
    """The matrices M_r = (X.degree(b * bd)) for b in B_r, bd in B_{n-r} and
    every r in 0..n, kept on the presentation and filled in one pass.

    Every b * bd lies in codegree n, so its key is the sum b + bd (no
    exponent exceeds n, which fits in a field), and one {monomial: degree}
    memo serves every r <= n - r: each distinct product gets its normal
    form from the ring's memo (``RingContext._f``) and its degree from
    ``X.degree``, once.  M_{n-r} is the transpose of M_r, built once."""
    return X.kept(("pairings",), _fill_pairings, X)


def _fill_pairings(X: ChowPresentation) -> dict[int, tuple[tuple[int, ...], ...]]:
    if X.ring.modulus != 0:
        raise CoverageError("pairing is computed on an integral presentation")
    if not X.degree_total:
        raise CoverageError("pairing needs a total degree functional")
    ring = X.ring
    f, normal_forms, n = ring._f, ring._normal_forms, X.dim
    degrees: dict[int, int] = {}
    pairings = {}
    for s in range(n // 2 + 1):
        rows = []
        for b in X.basis_of(s):
            row = []
            for bd in X.basis_of(n - s):
                m = b + bd
                d = degrees.get(m)
                if d is None:
                    d = degrees[m] = X.degree(GradedClass(ring, dict(f(m, normal_forms, n))))
                row.append(d)
            rows.append(tuple(row))
        pairings[s] = tuple(rows)
    for r in range(n // 2 + 1, n + 1):
        mat = pairings[n - r]
        # one row per class of B_r, also when B_{n-r} is empty
        pairings[r] = tuple(zip(*mat)) if mat else ((),) * len(X.basis_of(r))
    return pairings


def _left_kernel(cols: Sequence[Sequence[int]], nrows: int, p: int) -> tuple[tuple[int, ...], ...]:
    """Left kernel mod p of the nrows-row matrix with the given columns; with
    no columns (no dual classes) every row pairs to zero."""
    if not cols:
        return tuple(tuple(int(i == j) for j in range(nrows)) for i in range(nrows))
    return tuple(tuple(v) for v in modp_kernel(cols, p))


def _modp_pairing(X: ChowPresentation, p: int) -> tuple[tuple[int, tuple[tuple[int, ...], ...]], ...]:
    """Per codegree r, the rank mod p of the pairing and the basis of its
    left kernel, as tuples; computed once per presentation and prime.

    The kernel of codegree r is the right kernel of M_r^T, which is the kept
    M_{n-r}; the rank of codegree n - r > r is the rank of M_r."""
    return X.kept(("modp-pairing", p), _fill_modp_pairing, X, p)


def _fill_modp_pairing(X: ChowPresentation, p: int) -> tuple:
    if not _is_prime(p):
        raise ValueError(f"pairing modulus {p} is not prime")
    mats, n = _integer_pairings(X), X.dim
    out: list = [None] * (n + 1)
    for s in range(n // 2 + 1):
        rank = modp_rank(mats[s], p)
        for r in sorted({s, n - s}):
            out[r] = (rank, _left_kernel(mats[n - r], len(mats[r]), p))
    return tuple(out)


def _basis_labels(X: ChowPresentation, r: int) -> list[str]:
    """The printed basis monomials of codegree r, as a fresh list; computed
    once per presentation and codegree."""
    return list(X.kept(("labels", r), lambda: tuple(map(X.ring.monomial_str, X.basis_of(r)))))


def pairing_report(X: ChowPresentation, p: int) -> PairingReport:
    """The pairing of every codegree mod p; each entry's labels are read
    from ``_basis_labels`` only when its ``basis`` or ``dual_basis`` is."""
    rep = PairingReport(variety=X.name, prime=p)
    kept, mats, n = _modp_pairing(X, p), _integer_pairings(X), X.dim
    for r, (rank, kernel) in enumerate(kept):
        rep.codegrees[r] = CodegreePairing(
            codegree=r,
            basis=partial(_basis_labels, X, r),
            dual_basis=partial(_basis_labels, X, n - r),
            matrix=[list(row) for row in mats[r]],
            rank=rank,
            kernel=[list(v) for v in kernel],
            num_dimension=rank,
        )
    return rep


def _kernel_classes(
    X: ChowPresentation, p: int, codegrees: Iterable[int]
) -> tuple[ChowPresentation, list[tuple[int, GradedClass]]]:
    """X mod p, and (r, u) for each vector u of the mod-p kernel basis of each
    given codegree r, as a class of X mod p."""
    kept, Xp = _modp_pairing(X, p), X.with_coefficients(p)
    return Xp, [(r, Xp.ring.from_table({m: c for c, m in zip(vec, X.basis_of(r)) if c}))
                for r in codegrees for vec in kept[r][1]]


def _in_kernel(X: ChowPresentation, c: GradedClass, s: int, p: int) -> bool:
    """Whether the codegree-s part of c, a class of X mod p, pairs to zero
    mod p with every class of codegree n - s: coords(c) . M_s = 0 mod p.

    The product is bilinear, so this is the degree test deg(c * bd) = 0 for
    every dual basis class bd; it reads only the rows of the kept M_s at
    the nonzero coordinates of c."""
    terms = X._sparse_coordinates(c, s)
    mat = _integer_pairings(X)[s]
    weights = [v for _, v in terms]
    cols = zip(*(mat[i] for i, _ in terms))
    return not any(sum(map(mul, weights, col)) % p for col in cols)


def numerical_kernel(X: ChowPresentation, r: int, p: int) -> tuple[list[GradedClass], int]:
    """Kernel basis of the degree pairing in codegree r, and the dimension of
    Ch^r modulo numerical equivalence."""
    if not 0 <= r <= X.dim:
        raise ValueError(f"codegree {r} is outside 0..{X.dim}")
    _, kernel = _kernel_classes(X, p, [r])
    return [u for _, u in kernel], _modp_pairing(X, p)[r][0]


def kernel_is_ideal(X: ChowPresentation, p: int) -> bool:
    """The union of pairing kernels over all codegrees is an ideal: kernel
    elements stay in the kernel after multiplication by any basis class.

    In an associative ring this always holds, since deg((u*b)*w) =
    deg(u*(b*w)); so False means the engine's product is not associative, as
    under rules that are not confluent (``nonassociative_context`` in the
    tests: mod 2 its kernel in codegree 1 is y, and y*y = x^2 pairs with x
    to 3)."""
    n = X.dim
    Xp, kernel = _kernel_classes(X, p, range(n + 1))
    return all(
        _in_kernel(X, prod, s, p)
        for r, u in kernel
        for s in range(r, n + 1)
        for _, prod in _ideal_products(Xp, [u], s)
    )


# ---------------------------------------------------------------------------
# Ideal quotients (the correspondence-image construction)
# ---------------------------------------------------------------------------

def _ideal_products(
    X: ChowPresentation, gens: Sequence[GradedClass], d: int
) -> Iterator[tuple[int, GradedClass]]:
    """(b, part * b) for each generator's parts and every basis monomial b,
    as far as the product lands in codegree d: classes spanning the
    codegree-d piece of the ideal generated by gens.  A product part * b is
    the sum of c * k over the terms (m, c) of the part and (u, k) of
    nf(m + b), read from the ring's memo (``RingContext._product`` on a
    miss), so no basis class is built and no class product called."""
    ring = X.ring
    memo, product, reduced = ring._normal_forms, ring._product, ring._reduced
    for g in gens:
        if g.ring is not ring:
            raise RingError("quotient generator lives in a different ring")
        for gd in sorted(g.codegrees()):
            if gd > d:
                continue
            terms = g.homogeneous_part(gd).table.items()
            for b in X.basis_of(d - gd):
                acc: dict[int, int] = {}
                for m, c in terms:
                    nf = memo.get(m + b)
                    if nf is None:
                        nf = product(m + b)
                    for u, k in nf:
                        acc[u] = acc.get(u, 0) + c * k
                yield b, GradedClass(ring, reduced(acc))


def ideal_span_rows(
    X: ChowPresentation, gens: Sequence[GradedClass], d: int
) -> list[list[int]]:
    """Coordinate rows spanning the codegree-d piece of the ideal generated
    by gens (each generator multiplied by every basis monomial)."""
    return [X.coordinates(prod, d) for _, prod in _ideal_products(X, gens, d)]


def _ideal_rows(X: ChowPresentation, gens: Sequence[GradedClass], d: int) -> list[_Row]:
    """The rows of ``ideal_span_rows`` as {column: coefficient} dicts, read
    from each product's nonzero coordinates."""
    return [dict(X._sparse_coordinates(prod, d)) for _, prod in _ideal_products(X, gens, d)]


def _ideal_pivots(X: ChowPresentation, gens: Sequence[GradedClass], d: int) -> dict[int, _Row]:
    """The pivot rows of the codegree-d piece of the ideal gens generate,
    over X's coefficients; kept on X as ``("ideal", d, *tables)``, one
    frozenset of (monomial, coefficient) items per generator."""
    key = ("ideal", d, *(frozenset(g.table.items()) for g in gens))
    return X.kept(key, lambda: _echelon(_ideal_rows(X, gens, d), X.ring.modulus))


def ideal_residual(
    X: ChowPresentation, gens: Sequence[GradedClass], c: GradedClass, d: int
) -> dict[int, Fraction | int]:
    """The codegree-d part of c minus its projection to the span of the
    ideal gens generate, as an exact {basis monomial: coefficient} table
    (Fractions over Q, ints over F_p, the part itself with no gens); {}
    when the part lies in the span."""
    part = c.homogeneous_part(d)
    if not gens or part.is_zero():
        return dict(part.table)
    p = X.ring.modulus
    rows, vec = list(_ideal_pivots(X, gens, d).values()), X.coordinates(part, d)
    ok, res = modp_in_rowspan(rows, vec, p) if p else rational_in_rowspan(rows, vec)
    return {} if ok else {m: v for m, v in zip(X.basis_of(d), res) if v}


def pairing_residuals(
    X: ChowPresentation, gens: Sequence[GradedClass], c: GradedClass
) -> Iterator[tuple[int, dict[int, Fraction | int]]]:
    """(b, residual) for each basis monomial b and each part of c whose
    product with b lands in the top codegree: the product minus its
    projection to the span of the ideal gens generate, as ``ideal_residual``
    gives it.  A Fraction is built only for a nonzero residual entry."""
    n, p = X.dim, X.ring.modulus
    pivots = _ideal_pivots(X, gens, n) if gens else None
    top = X.basis_of(n)
    for b, prod in _ideal_products(X, [c], n):
        if pivots is None:
            yield b, prod.table
        else:
            res, scale = _reduce(pivots, dict(X._sparse_coordinates(prod, n)), p)
            yield b, {top[j]: v if p else Fraction(v, scale) for j, v in res.items()}


class GammaQuotient:
    """The quotient of gamma_quotient(X, p, gens): its dimensions, the
    reduced pivot rows of each codegree of the ideal mod p, X mod p, and
    X's ring (not X, which the quotient does not keep alive)."""

    __slots__ = ("variety", "prime", "dimensions", "_pivots", "_pres", "_ring")

    def __init__(
        self,
        variety: str,
        prime: int,
        dimensions: tuple[int, ...],
        _pivots: list[dict[int, _Row]],
        _pres: ChowPresentation,
        _ring: RingContext,
    ):
        self.variety = variety
        self.prime = prime
        self.dimensions = dimensions
        self._pivots = _pivots
        self._pres = _pres
        self._ring = _ring

    def project(self, c: GradedClass) -> dict[int, list[int]]:
        """Image of a class of X or of X mod p under the canonical
        surjection: per codegree, the residual coordinates after reduction
        modulo the ideal.  A class of any other ring raises ``RingError``."""
        Xp = self._pres
        if c.ring is not self._ring and c.ring is not Xp.ring:
            raise RingError("projected class lives in a different ring")
        out = {}
        for d in sorted(c.codegrees()):
            res, _ = _reduce(self._pivots[d], dict(Xp._sparse_coordinates(c, d)), self.prime)
            out[d] = _dense(res, len(Xp.basis_of(d)))
        return out


def gamma_quotient(
    X: ChowPresentation, p: int, gens: Sequence[GradedClass]
) -> GammaQuotient:
    """Per-codegree dimensions of Ch*(X)/<gens> over F_p, with the canonical
    surjection evaluable on any class.  Each generator is a class of X or of
    X mod p; one of any other ring raises ``RingError``."""
    Xp = X.with_coefficients(p)
    gens_p = []
    for g in gens:
        if g.ring is not X.ring and g.ring is not Xp.ring:
            raise RingError("quotient generator lives in a different ring")
        gens_p.append(Xp.ring.from_table(g.table))
    dims = []
    pivots = []
    for d in range(Xp.dim + 1):
        rows = ideal_span_rows(Xp, gens_p, d)
        rref = modp_rref(rows, p) if rows else {}
        dims.append(len(Xp.basis_of(d)) - len(rref))
        pivots.append(rref)
    return GammaQuotient(
        variety=X.name, prime=p, dimensions=tuple(dims), _pivots=pivots, _pres=Xp, _ring=X.ring
    )


# ---------------------------------------------------------------------------
# Kernel stability under reduced power operations
# ---------------------------------------------------------------------------

class KernelStabilityEntry:
    __slots__ = ("codegree", "element", "operation", "in_kernel")

    def __init__(self, codegree: int, element: str, operation: int, in_kernel: bool):
        self.codegree = codegree
        self.element = element
        self.operation = operation
        self.in_kernel = in_kernel


class KernelStabilityReport:
    __slots__ = ("variety", "prime", "checks")

    def __init__(self, variety: str, prime: int, checks: list[KernelStabilityEntry]):
        self.variety = variety
        self.prime = prime
        self.checks = checks

    @property
    def passed(self) -> bool:
        return all(e.in_kernel for e in self.checks)


def ab1_check(X: ChowPresentation, p: int) -> KernelStabilityReport:
    """For every basis vector u of the mod-p kernel of the degree pairing and
    every i with i(p-1) + codegree(u) <= dim, verify that P^i(u) stays in the
    kernel.  P^i and the pairing are linear, so the basis decides every
    element of the kernel.  Every P^i(u) is a homogeneous part of one total
    operation on u, computed only when some i fits."""
    from .characteristic import steenrod_total

    if not X.has_tangent:
        raise TangentUnavailable("kernel-stability check needs tangent data")
    n = X.dim
    Xp, kernel = _kernel_classes(X, p, range(n + 1))
    checks = []
    for r, u in kernel:
        ops = range(1, (n - r) // (p - 1) + 1)
        total = steenrod_total(Xp, u) if ops else None
        for i in ops:
            s = r + i * (p - 1)
            checks.append(KernelStabilityEntry(
                codegree=r, element=str(u), operation=i,
                in_kernel=_in_kernel(X, total.homogeneous_part(s), s, p)))
    return KernelStabilityReport(variety=X.name, prime=p, checks=checks)
