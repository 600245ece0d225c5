import gc
import itertools
import json
import random
import weakref
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest

from helpers import basis_classes, counting, kept_under, random_class, random_tower, reference_ideal_rows

from chowcalc import numeric as nu
from chowcalc import registry
from chowcalc.numeric import (
    _echelon,
    _integer_pairings,
    _ideal_rows,
    _sparse,
    ab1_check,
    gamma_quotient,
    ideal_span_rows,
    integer_determinant,
    kernel_is_ideal,
    modp_in_rowspan,
    modp_kernel,
    modp_rank,
    modp_rref,
    numerical_kernel,
    pairing_report,
    rational_in_rowspan,
)
from chowcalc import characteristic
from chowcalc.characteristic import reduced_power
from chowcalc.rings import Monomial, RingError, confluence_check, mono_mul
from chowcalc.varieties import (
    BundleRoots,
    CenterData,
    ChowPresentation,
    CoverageError,
    TangentUnavailable,
    blow_up,
    generic_context,
    product,
    projective_bundle,
    projective_space,
)


def bl_point_plane():
    P2 = projective_space(2)
    center = CenterData(
        fundamental=P2.gen("h") ** 2,
        roots=BundleRoots.plus([P2.zero(), P2.zero()], ring=P2.ring),
        restriction={"h": P2.zero()},
        name="pt",
    )
    return blow_up(P2, center)


class TestLinearAlgebra:
    def test_rank_and_kernel(self):
        m = [[1, 2], [2, 4]]
        assert modp_rank(m, 5) == 1
        kern = modp_kernel(m, 5)
        assert len(kern) == 1
        v = kern[0]
        assert (m[0][0] * v[0] + m[0][1] * v[1]) % 5 == 0

    @pytest.mark.parametrize("p", [1, 4, 9, -2, -3])
    def test_non_prime_modulus_rejected(self, p):
        # one error from every public mod-p function, whatever the leads;
        # 1 used to give the identity as the kernel of an invertible matrix
        rows = [[2, 1], [1, 1]]
        for call in (modp_rank, modp_rref, modp_kernel,
                     lambda rows, p: modp_in_rowspan(rows, [1, 0], p)):
            for matrix in (rows, [[1, 0], [0, 1]], []):
                with pytest.raises(ValueError, match=rf"^modulus {p} is not prime$"):
                    call(matrix, p)

    def test_zero_modulus_is_rational(self):
        # rank 1 over Q, where the row would be zero mod 2
        rows = [[2, 4]]
        assert modp_rank(rows, 0) == 1
        assert modp_in_rowspan(rows, [1, 0], 0) == (False, [Fraction(0), Fraction(-2)])

    @pytest.mark.parametrize("rows", [[[2, 4]], [[1, 0], [0, 1]], []])
    def test_zero_modulus_kernel_rejected(self, rows):
        # a mod-p kernel has no rational reading: with or without a kernel
        # (once a ZeroDivisionError, once []), p = 0 is refused
        with pytest.raises(ValueError, match=r"^modulus 0 is not prime$"):
            modp_kernel(rows, 0)

    def test_determinant(self):
        assert integer_determinant([[2, 1], [1, 1]]) == 1
        assert integer_determinant([[0, 1], [1, 0]]) == -1
        assert integer_determinant([[2, 0], [0, 2]]) == 4
        assert integer_determinant([]) == 1
        for matrix, lengths in [([[1, 2, 3], [4, 5, 6]], "[3, 3]"),
                                ([[1, 2], [3, 4], [5, 6]], "[2, 2, 2]"),
                                ([[1, 2], [3]], "[2, 1]")]:
            with pytest.raises(ValueError) as info:
                integer_determinant(matrix)
            assert str(info.value) == f"determinant needs a square matrix, not rows of lengths {lengths}"

    def test_singular_determinant_is_zero(self):
        # no nonzero pivot in a column: the elimination stops with 0
        assert integer_determinant([[0, 1], [0, 2]]) == 0
        assert integer_determinant([[1, 2, 3], [2, 4, 6], [3, 6, 9]]) == 0

    def test_determinant_reads_any_integer_rows(self):
        # the kept pairings are tuples of tuples
        assert integer_determinant(((2, 1), (1, 1))) == 1
        assert integer_determinant([(0, 1), [1, 0]]) == -1
        rows = ((0, 2, 1), (1, 0, 0), (3, 1, 1))
        assert integer_determinant(rows) == leibniz(rows)
        assert rows == ((0, 2, 1), (1, 0, 0), (3, 1, 1))

    @pytest.mark.parametrize("matrix", [[[1.5, 2], [3, 4]], [[1, 2], [3, 4.0]],
                                        [[Fraction(1, 2)]], [["1"]], [[None]]])
    def test_determinant_refuses_non_integer_entries(self, matrix):
        with pytest.raises(ValueError, match=r"^determinant needs integer entries, not "):
            integer_determinant(matrix)

    def test_determinant_matches_leibniz(self):
        rng = random.Random(0)
        fixed = [
            [[0, 1, 2], [3, 0, 1], [1, 1, 0]],           # zero leading pivot: a swap
            [[0, 0, 1], [0, 2, 0], [3, 0, 0]],           # two swaps
            [[2, 0, 0], [0, 3, 0], [0, 0, 5]],           # zero rows below pivots != prev
            [[1, 0, 0], [0, 1, 0], [0, 0, 1]],           # every row skipped
            [[1, 0, 2], [0, 1, 3], [4, 0, 1]],           # skipped rows among updated ones
            [[2, 1, 0, 0], [0, 0, 3, 1], [1, 0, 0, 2], [0, 4, 1, 0]],
            [[0, 0], [0, 0]],                            # no pivot at all
            [[1, 2, 3], [0, 0, 0], [4, 5, 6]],           # a zero row
            [[1, 2, 0], [2, 4, 0], [0, 0, 7]],           # singular after a step
        ]
        cases = fixed + [random_sparse_matrix(rng, n) for n in range(7) for _ in range(40)]
        for m in cases:
            assert integer_determinant(m) == leibniz(m), m
        values = [leibniz(m) for m in cases]
        assert sum(v == 0 for v in values) > 10 and sum(abs(v) > 1 for v in values) > 10
        # a swap: a zero leading pivot over a nonzero entry below it
        assert sum(m[0][0] == 0 and any(r[0] for r in m) and leibniz(m) != 0 for m in cases if m) > 10

    @pytest.mark.parametrize("seed", range(60))
    def test_random_tower_pairings_are_unimodular(self, seed):
        X = random_tower(random.Random(seed))
        pairing_report(X, 2)
        for r, mat in _integer_pairings(X).items():
            assert integer_determinant(mat) in (1, -1), (X.name, r)


def leibniz(m) -> int:
    """The determinant as the signed sum over permutations."""
    n = len(m)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = -1 if inversions % 2 else 1
        for i, j in enumerate(perm):
            term *= m[i][j]
        total += term
    return total


def random_sparse_matrix(rng, n):
    """An n x n integer matrix, mostly zeros; sometimes a repeated row."""
    m = [[rng.choice((0, 0, 0, 1, -1, 2, -3, 5)) for _ in range(n)] for _ in range(n)]
    if n > 1 and rng.random() < 0.2:
        m[rng.randrange(n)] = list(m[rng.randrange(n)])
    return m


def dense_residual(rows, vec, p=0):
    """Reference: vec reduced by the dense reduced row echelon form of rows,
    over Q (p == 0, as Fractions) or over F_p."""

    def norm(v):
        return v % p if p else Fraction(v)

    work = [[norm(v) for v in row] for row in rows]
    res = [norm(v) for v in vec]
    rank = 0
    for col in range(len(vec)):
        pivot = next((r for r in range(rank, len(work)) if work[r][col]), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        inv = pow(work[rank][col], -1, p) if p else 1 / work[rank][col]
        work[rank] = [norm(v * inv) for v in work[rank]]
        for r in range(len(work)):
            if r != rank and work[r][col]:
                f = work[r][col]
                work[r] = [norm(a - f * b) for a, b in zip(work[r], work[rank])]
        if res[col]:
            f = res[col]
            res = [norm(a - f * b) for a, b in zip(res, work[rank])]
        rank += 1
    return res


def membership_cases():
    """Fixed edge cases, then seeded random small integer matrices: zero
    rows, negative and non-unit pivots, rank-deficient rows, and vectors
    inside and outside the span."""
    cases = [
        ([], []),
        ([], [0]),
        ([], [3]),
        ([], [0, -2, 0]),
        ([[]], []),
        ([[0]], [0]),
        ([[0]], [5]),
        ([[-3]], [2]),
        ([[0, 0], [0, 0]], [1, 0]),
        ([[2, 4], [1, 2]], [3, 6]),
        ([[2, 4], [1, 2]], [3, 5]),
        ([[-2, 3, 0], [0, 6, -4]], [-2, 9, -4]),
        ([[3, 0, 1], [0, -5, 2], [3, -5, 3]], [1, 1, 1]),
    ]
    rng = random.Random(20231)
    entries = [0, 0, 0, 1, -1, 2, -2, 3, -6, 5]
    for _ in range(300):
        ncols = rng.randrange(0, 7)
        rows = [[rng.choice(entries) for _ in range(ncols)] for _ in range(rng.randrange(0, 6))]
        if rows and rng.random() < 0.4:
            coeffs = [rng.randint(-3, 3) for _ in rows]
            rows.append([sum(c * row[j] for c, row in zip(coeffs, rows)) for j in range(ncols)])
        if rng.random() < 0.2:
            rows.insert(rng.randrange(len(rows) + 1), [0] * ncols)
        if rows and rng.random() < 0.5:
            coeffs = [rng.randint(-4, 4) for _ in rows]
            vec = [sum(c * row[j] for c, row in zip(coeffs, rows)) for j in range(ncols)]
        else:
            vec = [rng.choice(entries) for _ in range(ncols)]
        cases.append((rows, vec))
    return cases


class TestMembership:
    def test_rational_matches_dense_reference(self):
        for rows, vec in membership_cases():
            ok, res = rational_in_rowspan(rows, vec)
            want = dense_residual(rows, vec)
            assert res == want, (rows, vec)
            assert all(type(v) is Fraction for v in res)
            assert ok == (not any(want))

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_modp_matches_dense_reference(self, p):
        for rows, vec in membership_cases():
            ok, res = modp_in_rowspan(rows, vec, p)
            want = dense_residual(rows, vec, p)
            assert res == want, (rows, vec)
            assert ok == (not any(want))

    def test_span_members_and_witnesses(self):
        rows = [[2, 4, 0], [0, 3, -3]]
        assert rational_in_rowspan(rows, [1, 5, -3]) == (True, [Fraction(0)] * 3)
        # over Q the residual of e_2 is zero on both pivot columns
        assert rational_in_rowspan(rows, [0, 0, 1]) == (
            False, [Fraction(0), Fraction(0), Fraction(1)]
        )
        assert rational_in_rowspan(rows, [0, 1, 0]) == (
            False, [Fraction(0), Fraction(0), Fraction(1)]
        )
        # mod 2 the rows are (0 0 0) and (0 1 1)
        assert modp_in_rowspan(rows, [1, 0, 0], 2) == (False, [1, 0, 0])
        assert modp_in_rowspan(rows, [0, 1, 1], 2) == (True, [0, 0, 0])


def dict_forms(rows, rng):
    """The rows as {column: value} dicts: some without their zero entries,
    some with a few zeros kept, each in a shuffled key order."""
    out = []
    for row in rows:
        items = [(j, v) for j, v in enumerate(row) if v or rng.random() < 0.3]
        rng.shuffle(items)
        out.append(dict(items))
    return out


class TestDictRows:
    # every consumer of rows takes the {column: value} dicts that ideal
    # membership keeps as well as dense lists, with equal results

    @pytest.mark.parametrize("p", [0, 2, 3, 5, 7])
    def test_dict_rows_match_dense_rows(self, p):
        rng = random.Random(p)
        for rows, vec in membership_cases():
            drows = dict_forms(rows, rng)
            assert _echelon(drows, p) == _echelon(rows, p), (rows, p)
            assert modp_in_rowspan(drows, vec, p) == modp_in_rowspan(rows, vec, p)
            if not p:
                assert rational_in_rowspan(drows, vec) == rational_in_rowspan(rows, vec)

    def test_dict_rows_are_not_changed(self):
        rows = [{2: 3, 0: 0, 1: -6}, {1: 4, 2: 2}]
        want = [dict(row) for row in rows]
        for p in (0, 3):
            _echelon(rows, p)
            modp_in_rowspan(rows, [1, 1, 1], p)
        assert rows == want

    def test_rational_residual_zeros_are_fractions(self):
        for rows, vec in membership_cases():
            for form in (rows, dict_forms(rows, random.Random(1))):
                ok, res = rational_in_rowspan(form, vec)
                assert all(type(v) is Fraction for v in res)
                assert ok == (not any(res))

    @staticmethod
    def assert_ideal_rows_match(X, gens):
        for d in range(X.dim + 1):
            dense = ideal_span_rows(X, gens, d)
            assert _ideal_rows(X, gens, d) == [_sparse(row, 0) for row in dense], (X.name, d)

    def test_ideal_rows_are_the_class_products(self):
        # multi-term and inhomogeneous generators, parts above d, over Z and
        # mod p: every row is a generator part times a basis class
        for seed in range(30):
            rng = random.Random(seed)
            X = random_tower(rng)
            p = (0, 2, 3, 5)[seed % 4]
            if p:
                X = X.with_coefficients(p)
            gens = [random_class(X.ring, rng, terms=rng.randint(1, 5)) for _ in range(3)]
            gens.append(X.gen(X.ring.names[-1]) + X.one())
            assert any(g.codegree is None for g in gens)
            for d in range(X.dim + 1):
                want = reference_ideal_rows(X, gens, d)
                assert ideal_span_rows(X, gens, d) == want, (X.name, d)
                assert _ideal_rows(X, gens, d) == [_sparse(row, 0) for row in want], (X.name, d)

    def test_a_part_above_d_adds_no_row(self):
        X = projective_space(3)
        h = X.gen("h")
        gens = [h ** 2 + h ** 3]
        assert ideal_span_rows(X, gens, 0) == ideal_span_rows(X, gens, 1) == []
        assert ideal_span_rows(X, gens, 2) == [[1]]
        assert ideal_span_rows(X, gens, 3) == [[1], [1]]
        assert _ideal_rows(X, gens, 1) == []

    def test_generator_from_another_ring_is_refused(self):
        X, Y = projective_space(2), projective_space(2)
        for rows in (ideal_span_rows, _ideal_rows):
            with pytest.raises(RingError, match="^quotient generator lives in a different ring$"):
                rows(X, [X.gen("h"), Y.gen("h")], 2)

    def test_ideal_rows_of_every_registry_ideal(self, monkeypatch):
        calls = counting(monkeypatch, nu, "_ideal_rows")
        assert registry.run_all(seed=0).ok
        monkeypatch.undo()
        # one call per presentation, ideal and codegree asserted against
        assert len(calls) == 13
        for X, gens, _ in calls:
            self.assert_ideal_rows_match(X, gens)

    @pytest.mark.parametrize("seed", range(60))
    def test_ideal_rows_of_random_towers(self, seed):
        rng = random.Random(seed)
        X = random_tower(rng)
        p = (0, 2, 3)[seed % 3]
        if p:
            X = X.with_coefficients(p)
        gens = [random_class(X.ring, rng) for _ in range(rng.randint(1, 3))]
        self.assert_ideal_rows_match(X, gens)


class TestPairings:
    def test_plane(self):
        assert pairing_report(projective_space(2), 5).codegrees[1].matrix == [[1]]

    def test_quadric_surface(self):
        P1 = projective_space(1)
        Q = product(P1, P1)
        assert pairing_report(Q, 2).codegrees[1].matrix == [[0, 1], [1, 0]]

    def test_blown_up_plane(self):
        Bl = bl_point_plane()
        rep = pairing_report(Bl, 3)
        assert rep.codegrees[1].matrix == [[1, 0], [0, -1]]

    @pytest.mark.parametrize("n,p", [(1, 2), (3, 3), (4, 5)])
    def test_projective_space_kernels(self, n, p):
        X = projective_space(n)
        for r in range(n + 1):
            kernel, dim = numerical_kernel(X, r, p)
            assert kernel == []
            assert dim == 1

    def test_pairing_symmetry(self):
        Bl = bl_point_plane()
        rep = pairing_report(Bl, 2)
        n = Bl.dim
        for r in range(n + 1):
            m1 = rep.codegrees[r].matrix
            m2 = rep.codegrees[n - r].matrix
            assert m1 == [list(col) for col in zip(*m2)]

    def test_kernel_union_is_ideal(self):
        assert kernel_is_ideal(bl_point_plane(), 2)
        assert kernel_is_ideal(projective_space(3), 2)

    def test_report_serializes(self):
        rep = pairing_report(projective_space(2), 2)
        doc = rep.dumps()
        assert '"prime": 2' in doc

    def test_partial_degree_functional_rejected(self):
        X = generic_context(
            [("x", 1), ("y", 1)], 2,
            degrees={Monomial([(0, 2)]): 1},  # misses x*y and y^2
            name="partial",
        )
        nodeg = generic_context([("x", 1)], 2, name="nodeg")
        # the checks run on every call, not only on the one that fills the cache
        for _ in range(2):
            with pytest.raises(CoverageError):
                pairing_report(X, 2)
            with pytest.raises(CoverageError):
                pairing_report(nodeg, 2)

    @pytest.mark.parametrize("seed", range(6))
    def test_random_towers_unimodular(self, seed):
        rng = random.Random(seed)
        X = random_tower(rng)
        rep = pairing_report(X, 2)
        for r, entry in rep.codegrees.items():
            assert len(entry.basis) == len(entry.dual_basis)
            assert integer_determinant(entry.matrix) in (1, -1)
            assert entry.kernel == []


def empty_top_context():
    """x^2 = 0 in dimension 2: Ch^2 is zero, so Ch^0 has no dual classes."""
    return generic_context([("x", 1)], 2, rules=[(Monomial([(0, 2)]), {})], degrees={})


def gap_context():
    """One generator of codegree 2 in dimension 3: Ch^1 and Ch^3 are zero,
    so codegree 2 transposes a matrix with no rows."""
    return generic_context([("y", 2)], 3, degrees={}, name="gap")


def asymmetric_context():
    """Two generators in dimension 3: M_1 is 2 x 3, and mod 2 codegree 2
    has a kernel while codegree 1 has none."""
    x3, x2y, xy2, y3 = (Monomial([(0, 3 - k), (1, k)]) for k in range(4))
    return generic_context(
        [("x", 1), ("y", 1)], 3, degrees={x3: 2, x2y: 1, xy2: 0, y3: 2}, name="asymmetric"
    )


def reference_pairing(X, r):
    """The full double loop of degrees, in both orders of codegree."""
    return [[X.degree(b * bd) for bd in basis_classes(X, X.dim - r)] for b in basis_classes(X, r)]


def pairing_contexts():
    P1 = projective_space(1)
    named = [
        pytest.param(bl_point_plane, id="bl-point-plane"),
        pytest.param(lambda: product(P1, P1), id="P1xP1"),
        pytest.param(lambda: TestEngineeredKernels().degenerate_context(), id="degenerate"),
        pytest.param(empty_top_context, id="empty-top"),
        pytest.param(gap_context, id="gap"),
        pytest.param(asymmetric_context, id="asymmetric"),
    ]
    towers = [pytest.param(lambda s=s: random_tower(random.Random(s)), id=f"tower-{s}")
              for s in range(30)]
    return named + towers


class TestPairingCache:
    @pytest.mark.parametrize("build", pairing_contexts())
    def test_matrix_matches_full_double_loop(self, build):
        X = build()
        for p in (2, 3):
            rep = pairing_report(X, p)
            assert sorted(rep.codegrees) == list(range(X.dim + 1))
            for r, entry in rep.codegrees.items():
                assert entry.matrix == reference_pairing(X, r), (X.name, r)

    @pytest.mark.parametrize("build", pairing_contexts())
    def test_rank_and_kernel_match_dense_reference(self, build):
        # the left kernel of M_r is the right kernel of M_r^T; with no dual
        # classes it is all of Ch^r
        X = build()
        for p in (2, 3):
            rep = pairing_report(X, p)
            for r, entry in rep.codegrees.items():
                mat = reference_pairing(X, r)
                if X.basis_of(X.dim - r):
                    want = dense_kernel([list(col) for col in zip(*mat)], p)
                else:
                    want = [[int(i == j) for j in range(len(mat))] for i in range(len(mat))]
                assert entry.kernel == want, (X.name, p, r)
                assert entry.rank == entry.num_dimension == len(dense_rref(mat, p)[1])

    def test_asymmetric_kernel(self):
        rep = pairing_report(asymmetric_context(), 2)
        # x^3 and y^3 have even degree and x*y^2 degree 0, so mod 2 only
        # x^2*y pairs nontrivially in codegree 3
        assert [rep.codegrees[r].kernel for r in range(4)] == [
            [], [], [[0, 0, 1]], [[1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
        ]
        assert [rep.codegrees[r].rank for r in range(4)] == [1, 2, 2, 1]

    def test_empty_dual_basis_kernel_is_everything(self):
        X = empty_top_context()
        kernel, dim = numerical_kernel(X, 0, 2)
        assert [str(k) for k in kernel] == ["1"] and dim == 0
        assert pairing_report(X, 2).codegrees[0].matrix == [[]]
        assert pairing_report(gap_context(), 2).codegrees[2].kernel == [[1]]
        for Y in (X, gap_context(), TestEngineeredKernels().degenerate_context()):
            for r, entry in pairing_report(Y, 2).codegrees.items():
                assert len(entry.kernel) + entry.num_dimension == len(entry.basis), (Y.name, r)

    def test_labels_are_read_on_first_read(self):
        X = random_tower(random.Random(3))
        reports = [pairing_report(X, p) for p in (2, 3)]
        assert kept_under(X, "labels") == {}
        n = X.dim
        for rep in reports:
            for r, entry in rep.codegrees.items():
                assert entry.basis == [X.ring.monomial_str(m) for m in X.basis_of(r)]
                assert entry.dual_basis == [X.ring.monomial_str(m) for m in X.basis_of(n - r)]
                assert entry.basis is entry.basis
        assert sorted(kept_under(X, "labels")) == [(r,) for r in range(n + 1)]
        # every report reads fresh lists
        first = reports[0].codegrees[1]
        first.basis.append("junk")
        first.dual_basis.clear()
        again = pairing_report(X, 2).codegrees[1]
        assert again.basis == [X.ring.monomial_str(m) for m in X.basis_of(1)]
        assert again.dual_basis == [X.ring.monomial_str(m) for m in X.basis_of(n - 1)]

    def test_mutated_report_does_not_leak(self):
        X = random_tower(random.Random(0))
        first = pairing_report(X, 2)
        want = pairing_report(X, 3).to_json()["codegrees"]
        for entry in first.codegrees.values():
            for row in entry.matrix:
                row[:] = [v + 7 for v in row]
            entry.matrix.append([1])
        again = pairing_report(X, 3).to_json()["codegrees"]
        assert again == want
        assert all(again[str(r)]["matrix"] == reference_pairing(X, r) for r in range(X.dim + 1))

    def test_modp_presentation_rejected(self):
        X = projective_space(2)
        Xp = X.with_coefficients(2)
        with pytest.raises(CoverageError, match="integral presentation"):
            pairing_report(Xp, 2)
        pairing_report(X, 2)
        with pytest.raises(CoverageError, match="integral presentation"):
            pairing_report(Xp, 2)

    @pytest.mark.parametrize("seed", [0, 11])
    def test_degree_calls_once_per_presentation(self, seed, monkeypatch):
        # one degree per distinct product b * bd with r <= n - r, however
        # many entries share it and however many primes and callers read
        # the pairing
        X = random_tower(random.Random(seed))
        n = X.dim
        sizes = [len(X.basis_of(r)) for r in range(n + 1)]
        entries = sum(sizes[r] * sizes[n - r] for r in range(n + 1) if r <= n - r)
        want = len({mono_mul(b, bd) for r in range(n // 2 + 1)
                    for b in X.basis_of(r) for bd in X.basis_of(n - r)})
        assert want < entries
        calls = counting(monkeypatch, ChowPresentation, "degree")
        for p in (2, 3):
            rep = pairing_report(X, p)
            assert all(entry.kernel == [] for entry in rep.codegrees.values())
        assert kernel_is_ideal(X, 2)
        assert len(calls) == want
        assert want < sum(a * b for a, b in zip(sizes, reversed(sizes)))

    def test_reports_are_pinned(self):
        # pairing_report(X, p).dumps() for p = 2, 3 over random_tower seeds
        # 0-29, one report a line, as computed before the pairing cache
        lines = []
        for seed in range(30):
            X = random_tower(random.Random(seed))
            lines += [pairing_report(X, p).dumps() for p in (2, 3)]
        pinned = Path(__file__).parent / "data" / "pairings_seed0.json"
        assert ("\n".join(lines) + "\n").encode() == pinned.read_bytes()


class TestEngineeredKernels:
    def degenerate_context(self):
        # dimension-3 chain with a declared degenerate degree table: the
        # generator x pairs to even degrees everywhere
        return generic_context(
            [("x", 1)], 3,
            rules=[],
            degrees={Monomial([(0, 3)]): 2},
            tangent_table={Monomial([]): 1},
            name="degenerate",
        )

    def test_nonzero_kernel_with_witness(self):
        X = self.degenerate_context()
        kernel, dim = numerical_kernel(X, 1, 2)
        assert dim == 0
        assert len(kernel) == 1
        assert str(kernel[0]) == "x"

    def test_kernel_stability_under_power_operations(self):
        X = self.degenerate_context()
        rep = ab1_check(X, 2)
        assert rep.checks, "expected non-vacuous checks"
        assert rep.passed

    def test_kernel_stability_checks_each_basis_vector(self):
        # every codegree's mod-2 kernel is spanned by its one monomial; each
        # basis vector is checked once per i with r + i <= 3, and no other
        # kernel element is tried
        rep = ab1_check(self.degenerate_context(), 2)
        assert [(e.codegree, e.element, e.operation, e.in_kernel) for e in rep.checks] == [
            (0, "1", 1, True), (0, "1", 2, True), (0, "1", 3, True),
            (1, "x", 1, True), (1, "x", 2, True),
            (2, "x^2", 1, True),
        ]

    def test_vacuous_on_projective_space(self):
        rep = ab1_check(projective_space(4), 2)
        assert rep.passed
        assert not rep.checks

    def test_tangent_data_required(self):
        X = generic_context(
            [("x", 1)], 2, degrees={Monomial([(0, 2)]): 2}, name="no-tangent"
        )
        with pytest.raises(TangentUnavailable):
            ab1_check(X, 2)

    @pytest.mark.parametrize("seed", range(4))
    def test_towers_pass_or_vacuous(self, seed):
        rng = random.Random(100 + seed)
        # bundle/product towers carry tangent data
        X = projective_space(rng.randint(1, 2))
        for _ in range(2):
            if rng.random() < 0.5 and X.dim < 4:
                X = product(X, projective_space(1))
            elif X.dim < 4:
                X = projective_bundle(
                    X, BundleRoots.plus([X.zero(), X.gen(X.ring.names[0])], ring=X.ring)
                )
        rep = ab1_check(X, 2)
        assert rep.passed

    def test_modp_report_computed_once_per_prime(self, monkeypatch):
        # every codegree has a kernel mod 2 and none mod 3; the report, the
        # kernel checks and ab1_check all read one kept report per prime
        import chowcalc.numeric as nu

        X = self.degenerate_context()
        calls = counting(monkeypatch, nu, "modp_kernel")
        for p in (2, 3):
            first = pairing_report(X, p)
            want = first.dumps()
            for entry in first.codegrees.values():
                entry.kernel.append([5] * len(entry.basis))
                for vec in entry.kernel:
                    vec[0] += 1
                entry.rank += 1
            assert pairing_report(X, p).dumps() == want
            assert kernel_is_ideal(X, p)
            for r in range(X.dim + 1):
                classes, dim = numerical_kernel(X, r, p)
                entry = json.loads(want)["codegrees"][str(r)]
                assert dim == entry["rank"] == entry["num_dimension"]
                assert len(classes) == len(entry["kernel"]) == (1 if p == 2 else 0)
            assert ab1_check(X, p).passed
        assert [p for _, p in calls] == [2] * (X.dim + 1) + [3] * (X.dim + 1)


def quadric(n):
    """A quadric-like n-fold: x^(n+1) = 0, deg x^n = 2 and tangent
    (1+x)^(n+2) / (1+2x), so mod 2 every codegree is all kernel."""
    binom = [comb(n + 2, k) for k in range(n + 1)]
    tangent = [sum(binom[j] * (-2) ** (k - j) for j in range(k + 1)) for k in range(n + 1)]
    return generic_context(
        [("x", 1)], n,
        rules=[(Monomial([(0, n + 1)]), {})],
        degrees={Monomial([(0, n)]): 2},
        tangent_table={Monomial([(0, k)] if k else []): c for k, c in enumerate(tangent)},
        name=f"Q{n}",
    )


def nonassociative_context():
    """x, y of codegree 1 in dimension 3 with x*y -> 0, x*y^2 -> -2*x^3,
    y^2 -> -3*x^2 - 3*x*y and deg x^3 = 3.  The rules are not confluent at
    x*y^2, so the product is not associative: mod 2 the kernel of codegree
    1 is y, and y * y = x^2 pairs with x to 3."""
    x2, x3, xy = Monomial([(0, 2)]), Monomial([(0, 3)]), Monomial([(0, 1), (1, 1)])
    return generic_context(
        [("x", 1), ("y", 1)], 3,
        rules=[
            (xy, {}),
            (Monomial([(0, 1), (1, 2)]), {x3: -2}),
            (Monomial([(1, 2)]), {x2: -3, xy: -3}),
        ],
        degrees={x3: 3},
        name="nonassociative",
    )


def reference_kernel_is_ideal(X, p):
    """kernel_is_ideal by the degree loop: every kernel class times every
    basis class, paired by X.degree with every dual basis class."""
    n = X.dim
    Xp = X.with_coefficients(p)
    for r in range(n + 1):
        for u in numerical_kernel(X, r, p)[0]:
            for d in range(0, n - r + 1):
                for b in basis_classes(Xp, d):
                    prod = u * b
                    for bd in basis_classes(Xp, n - r - d):
                        if Xp.degree(prod * bd) % p != 0:
                            return False
    return True


def reference_ab1_entries(X, p):
    """ab1_check's entries by the degree loop, as (codegree, element,
    operation, in_kernel)."""
    n = X.dim
    Xp = X.with_coefficients(p)
    out = []
    for r in range(n + 1):
        for u in numerical_kernel(X, r, p)[0]:
            i = 1
            while r + i * (p - 1) <= n:
                img = reduced_power(Xp, u, i)
                ok = all(Xp.degree(img * bd) % p == 0
                         for bd in basis_classes(Xp, n - r - i * (p - 1)))
                out.append((r, str(u), i, ok))
                i += 1
    return out


def membership_contexts():
    return pairing_contexts() + [
        pytest.param(lambda: product(quadric(2), projective_space(1)), id="Q2xP1"),
        pytest.param(lambda: product(quadric(3), quadric(2)), id="Q3xQ2"),
        pytest.param(nonassociative_context, id="nonassociative"),
    ]


class TestKernelMembership:
    """kernel_is_ideal and ab1_check test membership as coords . M_s = 0
    mod p on the kept pairing; the degree loops above are the reference."""

    @pytest.mark.parametrize("build", membership_contexts())
    def test_matches_degree_loops(self, build):
        X = build()
        for p in (2, 3, 5):
            assert kernel_is_ideal(X, p) == reference_kernel_is_ideal(X, p), (X.name, p)
            if not X.has_tangent:
                with pytest.raises(TangentUnavailable):
                    ab1_check(X, p)
                continue
            got = [(e.codegree, e.element, e.operation, e.in_kernel)
                   for e in ab1_check(X, p).checks]
            assert got == reference_ab1_entries(X, p), (X.name, p)

    def test_quadric_products_are_all_kernel_mod_2(self):
        X = product(quadric(3), quadric(2))
        rep = pairing_report(X, 2)
        assert all(len(e.kernel) == len(e.basis) for e in rep.codegrees.values())
        assert kernel_is_ideal(X, 2)
        # |B_r| = 1, 2, 3, 3, 2, 1 and a class of codegree r has 5 - r checks
        stable = ab1_check(X, 2)
        assert len(stable.checks) == 5 + 2 * 4 + 3 * 3 + 3 * 2 + 2 * 1 and stable.passed
        assert not any(e.kernel for e in pairing_report(X, 3).codegrees.values())

    def test_nonassociative_kernel_is_not_an_ideal(self):
        X = nonassociative_context()
        kernel, rank = numerical_kernel(X, 1, 2)
        assert [str(u) for u in kernel] == ["y"] and rank == 1
        Xp = X.with_coefficients(2)
        assert str(Xp.gen("y") * Xp.gen("y")) == "x^2"
        assert Xp.degree(Xp.gen("x") ** 3) == 1
        assert kernel_is_ideal(X, 2) is False
        assert [d["input"] for d in confluence_check(X.ring).divergences] == ["x*y^2"] * 3

    @pytest.mark.parametrize("build", [
        pytest.param(lambda: product(quadric(3), quadric(2)), id="Q3xQ2"),
        pytest.param(lambda: TestEngineeredKernels().degenerate_context(), id="degenerate"),
        pytest.param(nonassociative_context, id="nonassociative"),
    ])
    def test_no_degree_call_once_the_pairing_is_kept(self, build, monkeypatch):
        X = build()
        pairing_report(X, 2)

        def refused(self, c):
            raise AssertionError("degree called after the pairing was kept")

        monkeypatch.setattr(ChowPresentation, "degree", refused)
        kernel_is_ideal(X, 2)
        if X.has_tangent:
            assert ab1_check(X, 2).checks

    def test_one_steenrod_total_per_kernel_class(self, monkeypatch):
        # |B_r| = 1, 2, 3, 3, 2, 1: every class below the top codegree has
        # at least one check and pays for one total operation
        X = product(quadric(3), quadric(2))
        calls = counting(monkeypatch, characteristic, "steenrod_total")
        assert len(ab1_check(X, 2).checks) == 30
        assert len(calls) == 1 + 2 + 3 + 3 + 2

    @pytest.mark.parametrize("p", [4, 9, 1, 0, -2])
    def test_non_prime_modulus_rejected(self, p):
        X = product(projective_space(2), projective_space(2))
        for check in (pairing_report, kernel_is_ideal, ab1_check,
                      lambda X, p: numerical_kernel(X, 1, p)):
            with pytest.raises(ValueError, match=f"pairing modulus {p} is not prime"):
                check(X, p)
        # the prime is checked before the integer pairing is computed
        assert kept_under(X, "pairings") == {}
        assert kept_under(X, "modp-pairing") == {}

    @pytest.mark.parametrize("build", [
        pytest.param(lambda: TestEngineeredKernels().degenerate_context(), id="degenerate"),
        pytest.param(lambda: product(projective_space(2), projective_space(2)), id="P2xP2"),
    ])
    def test_codegree_out_of_range(self, build):
        X = build()
        for r in (-1, X.dim + 1, 7):
            with pytest.raises(ValueError, match=rf"codegree {r} is outside 0\.\.{X.dim}"):
                numerical_kernel(X, r, 2)

    def test_tangent_slot_stays_unread(self):
        P3 = projective_space(3)
        h = P3.gen("h")
        X = product(projective_bundle(P3, BundleRoots.plus([P3.zero(), h, h], ring=P3.ring)),
                    projective_space(2))
        assert X.has_tangent and callable(X._tangent)
        ab1_check(X, 2)
        assert callable(X._tangent)
        assert not generic_context([("x", 1)], 2, degrees={}).has_tangent


class TestGammaQuotient:
    def test_empty_generators(self):
        P2 = projective_space(2)
        gq = gamma_quotient(P2, 3, [])
        assert gq.dimensions == (1, 1, 1)

    def test_line_modulo_point(self):
        P1 = projective_space(1)
        gq = gamma_quotient(P1, 2, [P1.gen("h")])
        assert gq.dimensions == (1, 0)

    def test_generators_of_another_ring_are_refused(self):
        P2 = projective_space(2)
        x = generic_context([("x", 1), ("y", 1)], 2).gen("x")
        with pytest.raises(RingError, match="^quotient generator lives in a different ring$"):
            gamma_quotient(P2, 2, [x])
        # another copy of P2, mod 3 or built again, is another ring too
        for other in (P2.with_coefficients(3).gen("h"), projective_space(2).gen("h")):
            with pytest.raises(RingError, match="different ring"):
                gamma_quotient(P2, 2, [other])
        # a class of X and the same class of X mod p give one quotient
        h, hp = P2.gen("h"), P2.with_coefficients(2).gen("h")
        assert gamma_quotient(P2, 2, [h]).dimensions == gamma_quotient(P2, 2, [hp]).dimensions == (1, 0, 0)
        assert gamma_quotient(P2, 2, [h * h]).dimensions == (1, 1, 0)

    def test_projection_refuses_a_class_of_another_ring(self):
        P2 = projective_space(2)
        h, hp = P2.gen("h"), P2.with_coefficients(2).gen("h")
        gq = gamma_quotient(P2, 2, [h * h])
        x = generic_context([("x", 1), ("y", 1)], 2).gen("x")
        with pytest.raises(RingError, match="^projected class lives in a different ring$"):
            gq.project(x)
        for other in (P2.with_coefficients(3).gen("h"), projective_space(2).gen("h")):
            with pytest.raises(RingError, match="different ring"):
                gq.project(other)
        # a class of X and the same class of X mod p project alike
        assert gq.project(h + P2.scalar(3)) == gq.project(hp + P2.with_coefficients(2).scalar(1))
        assert gq.project(h + P2.scalar(3)) == {0: [1], 1: [1]}

    def test_quotient_does_not_keep_its_variety_alive(self):
        X = projective_space(2)
        gq = gamma_quotient(X, 2, [X.gen("h")])
        ref = weakref.ref(X)
        del X
        gc.collect()
        assert ref() is None
        assert gq.dimensions == (1, 0, 0)

    def test_projection_map(self):
        P1 = projective_space(1)
        gq = gamma_quotient(P1, 2, [P1.gen("h")])
        h = P1.with_coefficients(2).gen("h")
        proj = gq.project(h)
        assert all(v == 0 for v in proj[1])

    def test_kernel_generators_reproduce_numerical_dimensions(self):
        # quotient by the full pairing kernel agrees with the numerical
        # dimensions codegree by codegree
        X = TestEngineeredKernels().degenerate_context()
        p = 2
        rep = pairing_report(X, p)
        Xp = X.with_coefficients(p)
        gens = []
        for r, entry in rep.codegrees.items():
            for vec in entry.kernel:
                c = Xp.zero()
                for coeff, m in zip(vec, X.basis_of(r)):
                    if coeff:
                        c = c + Xp.ring.from_table({m: coeff})
                gens.append(c)
        gq = gamma_quotient(X, p, gens)
        for r, entry in rep.codegrees.items():
            assert gq.dimensions[r] == entry.num_dimension

    def test_subideal_gives_larger_dimensions(self):
        X = TestEngineeredKernels().degenerate_context()
        gq = gamma_quotient(X, 2, [])
        rep = pairing_report(X, 2)
        for r, entry in rep.codegrees.items():
            assert gq.dimensions[r] >= entry.num_dimension


def dense_rref(rows, p):
    """Reference: dense reduced row echelon form over F_p, as
    (reduced rows, pivot columns)."""
    m = [[v % p for v in row] for row in rows]
    pivots = []
    rank = 0
    ncols = len(m[0]) if m else 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(m)) if m[r][col]), None)
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


def dense_kernel(matrix, p):
    """Reference right kernel over F_p, one vector per free column."""
    if not matrix:
        return []
    ncols = len(matrix[0])
    rref, pivots = dense_rref(matrix, p)
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        v = [0] * ncols
        v[fc] = 1
        for r, pc in enumerate(pivots):
            v[pc] = (-rref[r][fc]) % p
        basis.append(v)
    return basis


def matrix_cases():
    """Empty, zero, full-rank, wide and tall matrices, then seeded random
    rectangular ones (some with dependent rows)."""
    cases = [
        [],
        [[]],
        [[0]],
        [[0, 0, 0], [0, 0, 0]],
        [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
        [[2, 1], [1, 1]],
        [[1, 2, 3, 4, 5], [0, 0, 1, 6, -1]],
        [[1, 2], [3, 4], [5, 6], [7, 8], [0, 1]],
        [[4, -2, 6], [2, -1, 3], [0, 0, 0], [6, 3, -9]],
    ]
    rng = random.Random(4077)
    entries = [0, 0, 0, 1, -1, 2, -2, 3, 4, -5]
    for _ in range(300):
        nrows, ncols = rng.randrange(1, 8), rng.randrange(1, 8)
        rows = [[rng.choice(entries) for _ in range(ncols)] for _ in range(nrows)]
        if rng.random() < 0.4:
            coeffs = [rng.randint(-3, 3) for _ in rows]
            rows.append([sum(c * row[j] for c, row in zip(coeffs, rows)) for j in range(ncols)])
        cases.append(rows)
    return cases + full_column_rank_cases(rng) + unit_entry_cases(rng)


def full_column_rank_cases(rng):
    """Matrices whose kernel is empty over every prime: a unit lower
    triangular block on top, extra rows below, the rows shuffled."""
    cases = []
    for _ in range(100):
        ncols = rng.randrange(1, 7)
        rows = [[rng.randint(-3, 3) if j < i else int(j == i) for j in range(ncols)]
                for i in range(ncols + rng.randrange(0, 3))]
        rng.shuffle(rows)
        cases.append(rows)
    return cases


def unit_entry_cases(rng):
    """Matrices of +-1 entries (every lead is a unit, 1 mod 2)."""
    cases = []
    for _ in range(100):
        nrows, ncols = rng.randrange(1, 7), rng.randrange(1, 7)
        cases.append([[rng.choice((1, -1)) for _ in range(ncols)] for _ in range(nrows)])
    return cases


class TestModpKernelMatchesDense:
    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_rref_rank_kernel(self, p):
        for rows in matrix_cases():
            want_rows, want_pivots = dense_rref(rows, p)
            pivots = _echelon(rows, p)
            assert all(row[c] == 1 and all(0 < v < p for v in row.values())
                       for c, row in pivots.items()), rows
            rref = modp_rref(rows, p)
            ncols = len(rows[0]) if rows else 0
            assert sorted(rref) == want_pivots, rows
            assert [[rref[c].get(j, 0) for j in range(ncols)] for c in sorted(rref)] == want_rows
            assert modp_rank(rows, p) == len(want_pivots)
            assert modp_kernel(rows, p) == dense_kernel(rows, p), rows

    @pytest.mark.parametrize("p", [0, 7])
    def test_unit_lead_dict_rows_come_back_unchanged(self, p):
        # every lead is 1 over Z, so each pivot is kept as built: a fresh
        # dict, never one of the rows passed in
        rows = [{0: 1, 2: -3, 3: 0}, {1: 1, 2: 2}, {2: 1, 0: 1, 1: 1}, {3: 1, 2: 4}]
        want = [dict(row) for row in rows]
        dense = [[row.get(j, 0) for j in range(4)] for row in rows]
        pivots = _echelon(rows, p)
        assert all(piv is not row for piv in pivots.values() for row in rows)
        for vec in ([1, 2, 3, 4], [0, 0, 0, 1], [1, -3, 9, 0]):
            assert modp_in_rowspan(rows, vec, p)[1] == dense_residual(dense, vec, p)
        assert rows == want

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_gamma_quotient(self, p):
        rng = random.Random(p)
        degenerate = TestEngineeredKernels().degenerate_context()
        spaces = [bl_point_plane(), degenerate] + [random_tower(rng, max_dim=4) for _ in range(4)]
        for X in spaces:
            Xp = X.with_coefficients(p)
            gen_sets = [[], [Xp.gen(n) for n in Xp.ring.names[:1]]]
            gen_sets.append([Xp.gen(n) ** 2 + Xp.gen(Xp.ring.names[-1]) for n in Xp.ring.names])
            for gens in gen_sets:
                gq = gamma_quotient(Xp, p, gens)
                refs = []
                for d in range(Xp.dim + 1):
                    refs.append(dense_rref(ideal_span_rows(Xp, gens, d), p))
                    assert gq.dimensions[d] == len(Xp.basis_of(d)) - len(refs[d][1])
                for c in [Xp.gen(n) for n in Xp.ring.names] + [Xp.one()] + gens:
                    for d, res in gq.project(c).items():
                        want = [v % p for v in Xp.coordinates(c, d)]
                        rref, pivots = refs[d]
                        for r, pc in enumerate(pivots):
                            if want[pc]:
                                f = want[pc]
                                want = [(a - f * b) % p for a, b in zip(want, rref[r])]
                        assert res == want, (X.name, d, str(c))


class TestEliminationWork:
    # the eliminations behind a pairing report: one rank per s <= n - s,
    # one kernel per codegree, and a back-substitution only for a kernel

    def test_unimodular_pairings_make_no_back_substitution(self, monkeypatch):
        backs = counting(monkeypatch, nu, "_back_substitute")
        ranks = counting(monkeypatch, nu, "modp_rank")
        kernels = counting(monkeypatch, nu, "modp_kernel")
        for seed in range(60):
            X = random_tower(random.Random(seed))
            n = X.dim
            del ranks[:], kernels[:]
            for p in (2, 3):
                pairing_report(X, p)
            assert backs == [], seed
            mats = _integer_pairings(X)
            assert ranks == [(mats[s], p) for p in (2, 3) for s in range(n // 2 + 1)]
            # the kernels read the kept matrices, M_{n-r} for codegree r
            assert all(any(args[0] is mats[r] for r in range(n + 1)) for args in kernels)

    def test_degenerate_kernels_back_substitute_once_per_codegree(self, monkeypatch):
        # mod 2 every codegree has a one-dimensional kernel, mod 3 none has
        X = TestEngineeredKernels().degenerate_context()
        backs = counting(monkeypatch, nu, "_back_substitute")
        for p, want in ((2, X.dim + 1), (3, 0)):
            del backs[:]
            rep = pairing_report(X, p)
            assert len(backs) == want
            assert sum(bool(e.kernel) for e in rep.codegrees.values()) == want

    @pytest.mark.parametrize("seed", [0, 7, 11])
    def test_one_rank_per_pair_of_codegrees(self, seed, monkeypatch):
        # dimensions 4, 3 and 5; the kernel checks read the kept report
        X = random_tower(random.Random(seed))
        n = X.dim
        ranks = counting(monkeypatch, nu, "modp_rank")
        kernels = counting(monkeypatch, nu, "modp_kernel")
        pairing_report(X, 2)
        kernel_is_ideal(X, 2)
        numerical_kernel(X, n, 2)
        below, middle = (n + 1) // 2, int(n % 2 == 0)
        assert len(ranks) == below + middle
        assert len(kernels) == 2 * below + middle

    def test_transposes_are_kept_once(self):
        X = random_tower(random.Random(3))
        n = X.dim
        pairing_report(X, 2)
        pairing_report(X, 3)
        (mats,) = kept_under(X, "pairings").values()
        assert sorted(mats) == list(range(n + 1))
        for r in range(n + 1):
            assert len(mats[r]) == len(X.basis_of(r))
            assert all(mats[n - r][j][i] == v
                       for i, row in enumerate(mats[r]) for j, v in enumerate(row))
