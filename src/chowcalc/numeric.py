"""Degree-pairing matrices, numerical-equivalence kernels over F_p, ideal
quotients by user-declared correspondence-image classes, and the kernel-
stability check for reduced power operations.

Pairings are computed exactly over the integers first and reduced mod p, so
one report serves every prime.

Ideal membership (``rational_in_rowspan``, ``modp_in_rowspan``) runs on one
sparse echelon kernel: rows are ``{column: int}`` dicts, reduced fraction-free
over Z and divided by their content, or reduced over F_p.  A vector is reduced
against the pivot rows in increasing column order, so its residual is zero on
every pivot column; the pivot columns depend only on the row span, so the
residual is canonical (the same as a reduction against the reduced row
echelon form would give).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from typing import Sequence

from .rings import GradedClass, RingError
from .varieties import ChowPresentation, CoverageError, TangentUnavailable


# ---------------------------------------------------------------------------
# Exact linear algebra
# ---------------------------------------------------------------------------

def modp_rref(rows: list[list[int]], p: int) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form over F_p; returns (rref rows, pivot columns)."""
    m = [[v % p for v in row] for row in rows]
    pivots: list[int] = []
    rank = 0
    ncols = len(m[0]) if m else 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(m)) if m[r][col] % p), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = pow(m[rank][col], -1, p)
        m[rank] = [(v * inv) % p for v in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][col]:
                f = m[r][col]
                m[r] = [(a - f * b) % p for a, b in zip(m[r], m[rank])]
        pivots.append(col)
        rank += 1
    return m[:rank], pivots


def modp_rank(rows: list[list[int]], p: int) -> int:
    return len(modp_rref(rows, p)[0])


def modp_kernel(matrix: list[list[int]], p: int) -> list[list[int]]:
    """Right kernel basis of the matrix over F_p (vectors of length ncols)."""
    if not matrix:
        return []
    ncols = len(matrix[0])
    rref, pivots = modp_rref(matrix, p)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [0] * ncols
        v[fc] = 1
        for r, pc in enumerate(pivots):
            v[pc] = (-rref[r][fc]) % p
        basis.append(v)
    return basis


# Ideal membership: one sparse echelon routine (see the module docstring).

_Row = dict[int, int]


def _sparse(row: Sequence[int], p: int) -> _Row:
    if p:
        return {j: v % p for j, v in enumerate(row) if v % p}
    return {j: v for j, v in enumerate(row) if v}


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


def _echelon(rows: Sequence[Sequence[int]], p: int) -> dict[int, _Row]:
    """Pivot rows of the row span keyed by leading column: primitive with a
    positive lead over Z, monic over F_p."""
    pivots: dict[int, _Row] = {}
    for row in rows:
        r = _sparse(row, p)
        while r:
            c = min(r)
            piv = pivots.get(c)
            if piv is None:
                if p:
                    inv = pow(r[c], -1, p)
                    pivots[c] = {j: v * inv % p for j, v in r.items()}
                else:
                    g = gcd(*r.values())
                    g = -g if r[c] < 0 else g
                    pivots[c] = {j: v // g for j, v in r.items()}
                break
            r, _ = _eliminate(r, piv, c, p)
    return pivots


def _residual(
    rows: Sequence[Sequence[int]], vec: Sequence[int], p: int
) -> tuple[list[int], int]:
    """(res, scale): res / scale is vec minus a row-span element, zero on
    every pivot column, as a dense list of len(vec) integers."""
    pivots = _echelon(rows, p)
    res = _sparse(vec, p)
    scale = 1
    for c in sorted(pivots):
        if res.get(c):
            res, a = _eliminate(res, pivots[c], c, p)
            scale *= a
    return [res.get(j, 0) for j in range(len(vec))], scale


def modp_in_rowspan(rows: list[list[int]], vec: list[int], p: int) -> tuple[bool, list[int]]:
    """Membership of vec in the row span over F_p; returns (ok, residual)."""
    res, _ = _residual(rows, vec, p)
    return not any(res), res


def rational_in_rowspan(rows: list[list[int]], vec: list[int]) -> tuple[bool, list[Fraction]]:
    """Membership of vec in the rational row span; returns (ok, residual)."""
    res, scale = _residual(rows, vec, 0)
    return not any(res), [Fraction(v, scale) for v in res]


def integer_determinant(matrix: list[list[int]]) -> int:
    """Fraction-free Bareiss determinant of a square integer matrix."""
    n = len(matrix)
    if n == 0:
        return 1
    m = [row[:] for row in matrix]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((r for r in range(k + 1, n) if m[r][k] != 0), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


# ---------------------------------------------------------------------------
# Pairing reports
# ---------------------------------------------------------------------------

@dataclass
class CodegreePairing:
    codegree: int
    basis: list[str]
    dual_basis: list[str]
    matrix: list[list[int]]          # exact integer degrees
    rank: int                        # rank of the matrix mod p
    kernel: list[list[int]]          # left-kernel basis mod p
    num_dimension: int               # dim of Ch^r modulo the kernel = rank


@dataclass
class PairingReport:
    variety: str
    prime: int
    codegrees: dict[int, CodegreePairing] = field(default_factory=dict)

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


def _integer_pairing(X: ChowPresentation, r: int) -> list[list[int]]:
    if X.ring.modulus != 0:
        raise CoverageError("pairing is computed on an integral presentation")
    if X.degree_table is None or not X.degree_total:
        raise CoverageError("pairing needs a total degree functional")
    n = X.dim
    rows = []
    for b in X.basis_classes(r):
        row = []
        for bd in X.basis_classes(n - r):
            row.append(X.degree(b * bd))
        rows.append(row)
    return rows


def pairing_matrix(X: ChowPresentation, r: int, p: int) -> list[list[int]]:
    """M[i][j] = deg(b_i * bdual_j) mod p for the stored bases of Ch^r and
    Ch^{dim-r}."""
    if not (0 <= r <= X.dim):
        raise ValueError("codegree out of range")
    return [[v % p for v in row] for row in _integer_pairing(X, r)]


def pairing_report(X: ChowPresentation, p: int) -> PairingReport:
    rep = PairingReport(variety=X.name, prime=p)
    n = X.dim
    for r in range(n + 1):
        mat = _integer_pairing(X, r)
        modp = [[v % p for v in row] for row in mat]
        rank = modp_rank(modp, p)
        # kernel of the pairing on Ch^r is the LEFT kernel of M
        transposed = [list(col) for col in zip(*modp)] if modp and modp[0] else []
        kern = modp_kernel(transposed, p) if transposed else []
        if not modp:
            kern = []
        rep.codegrees[r] = CodegreePairing(
            codegree=r,
            basis=[X.ring.monomial_str(m) for m in X.basis_of(r)],
            dual_basis=[X.ring.monomial_str(m) for m in X.basis_of(n - r)],
            matrix=mat,
            rank=rank,
            kernel=kern,
            num_dimension=rank,
        )
    return rep


def numerical_kernel(X: ChowPresentation, r: int, p: int) -> tuple[list[GradedClass], int]:
    """Kernel basis of the degree pairing in codegree r, and the dimension of
    Ch^r modulo numerical equivalence."""
    rep = pairing_report(X, p)
    entry = rep.codegrees[r]
    Xp = X.with_coefficients(p)
    classes = []
    for vec in entry.kernel:
        c = Xp.zero()
        for coeff, m in zip(vec, X.basis_of(r)):
            if coeff:
                c = c + Xp.ring.from_table({m: coeff})
        classes.append(c)
    return classes, entry.num_dimension


def kernel_is_ideal(X: ChowPresentation, p: int) -> bool:
    """The union of pairing kernels over all codegrees is an ideal: kernel
    elements stay in the kernel after multiplication by any basis class."""
    rep = pairing_report(X, p)
    n = X.dim
    Xp = X.with_coefficients(p)
    for r, entry in rep.codegrees.items():
        for vec in entry.kernel:
            u = Xp.zero()
            for coeff, m in zip(vec, X.basis_of(r)):
                if coeff:
                    u = u + Xp.ring.from_table({m: coeff})
            for d in range(0, n - r + 1):
                for b in Xp.basis_classes(d):
                    prod = u * b
                    for bd in Xp.basis_classes(n - r - d):
                        if Xp.degree(prod * bd) % p != 0:
                            return False
    return True


# ---------------------------------------------------------------------------
# Ideal quotients (the correspondence-image construction)
# ---------------------------------------------------------------------------

def ideal_span_rows(
    X: ChowPresentation, gens: Sequence[GradedClass], d: int
) -> list[list[int]]:
    """Coordinate rows spanning the codegree-d piece of the ideal generated
    by gens (each generator multiplied by every basis monomial)."""
    rows = []
    for g in gens:
        if g.ring is not X.ring:
            raise RingError("quotient generator lives in a different ring")
        for gd in sorted(g.codegrees()):
            part = g.homogeneous_part(gd)
            if part.is_zero() or gd > d:
                continue
            for m in X.basis_classes(d - gd):
                prod = part * m
                rows.append(X.coordinates(prod, d))
    return rows


@dataclass
class GammaQuotient:
    variety: str
    prime: int
    dimensions: tuple[int, ...]
    _rrefs: list[tuple[list[list[int]], list[int]]]
    _pres: ChowPresentation

    def project(self, c: GradedClass) -> dict[int, list[int]]:
        """Image of a class under the canonical surjection: per codegree, the
        residual coordinates after reduction modulo the ideal."""
        p = self.prime
        out = {}
        for d in sorted(c.codegrees()):
            coords = self._pres.coordinates(c, d)
            rref, pivots = self._rrefs[d]
            res = [v % p for v in coords]
            for r, pc in enumerate(pivots):
                if res[pc]:
                    f = res[pc]
                    res = [(a - f * b) % p for a, b in zip(res, rref[r])]
            out[d] = res
        return out


def gamma_quotient(
    X: ChowPresentation, p: int, gens: Sequence[GradedClass]
) -> GammaQuotient:
    """Per-codegree dimensions of Ch*(X)/<gens> over F_p, with the canonical
    surjection evaluable on any class."""
    Xp = X.with_coefficients(p) if X.ring.modulus != p else X
    gens_p = [Xp.ring.from_table(dict(g.table)) for g in gens]
    dims = []
    rrefs = []
    for d in range(Xp.dim + 1):
        rows = ideal_span_rows(Xp, gens_p, d)
        rref, pivots = modp_rref(rows, p) if rows else ([], [])
        rank = len(rref)
        dims.append(len(Xp.basis_of(d)) - rank)
        rrefs.append((rref, pivots))
    return GammaQuotient(
        variety=X.name, prime=p, dimensions=tuple(dims), _rrefs=rrefs, _pres=Xp
    )


# ---------------------------------------------------------------------------
# Kernel stability under reduced power operations
# ---------------------------------------------------------------------------

@dataclass
class KernelStabilityEntry:
    codegree: int
    element: str
    operation: int
    in_kernel: bool


@dataclass
class KernelStabilityReport:
    variety: str
    prime: int
    checks: list[KernelStabilityEntry]

    @property
    def passed(self) -> bool:
        return all(e.in_kernel for e in self.checks)

    @property
    def vacuous(self) -> bool:
        return not self.checks


def ab1_check(
    X: ChowPresentation, p: int, trials: int = 0, seed: int = 0
) -> KernelStabilityReport:
    """For every kernel element u of the degree pairing and every i with
    i(p-1) + codegree(u) <= dim, verify that P^i(u) stays in the kernel.

    ``trials`` adds that many random kernel combinations per codegree.
    """
    from .characteristic import reduced_power

    if X.tangent is None:
        raise TangentUnavailable("kernel-stability check needs tangent data")
    rep = pairing_report(X, p)
    Xp = X.with_coefficients(p)
    rng = random.Random(seed)
    checks: list[KernelStabilityEntry] = []
    n = X.dim
    for r, entry in rep.codegrees.items():
        vecs = [list(v) for v in entry.kernel]
        for _ in range(trials):
            if not entry.kernel:
                break
            combo = [0] * len(X.basis_of(r))
            for v in entry.kernel:
                c = rng.randrange(p)
                combo = [(a + c * b) % p for a, b in zip(combo, v)]
            if any(combo):
                vecs.append(combo)
        for vec in vecs:
            u = Xp.zero()
            for coeff, m in zip(vec, X.basis_of(r)):
                if coeff:
                    u = u + Xp.ring.from_table({m: coeff})
            i = 1
            while r + i * (p - 1) <= n:
                img = reduced_power(Xp, u, i)
                ok = True
                for bd in Xp.basis_classes(n - r - i * (p - 1)):
                    if Xp.degree(img * bd) % p != 0:
                        ok = False
                        break
                checks.append(
                    KernelStabilityEntry(
                        codegree=r,
                        element=str(u),
                        operation=i,
                        in_kernel=ok,
                    )
                )
                i += 1
    return KernelStabilityReport(variety=X.name, prime=p, checks=checks)
