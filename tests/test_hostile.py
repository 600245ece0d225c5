"""Hostile and ill-defined scripts: each ends in a verdict, within a time
bound, and an error never leaves a half-built context behind.

``verdicts`` runs each script in a child process that caps its own address
space, and kills the child after a timeout, so that a regression fails the
test instead of hanging the suite or exhausting the machine's memory."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

import chowcalc
from chowcalc.cli import main
from chowcalc.milnor import MAX_GENERATORS, MAX_RHO_HEIGHT
from chowcalc.report import ERROR, FAIL, PASS
from chowcalc.rings import MAX_EXPONENT, Monomial, RingError, _is_prime
from chowcalc.script import (
    MAX_DEPTH,
    MAX_POW_BITS,
    Env,
    ParseError,
    _eval_context_form,
    eval_expr,
    parse_script,
    print_script,
    run_scenario,
)
from chowcalc.varieties import MAX_BASIS, projective_space
from helpers import bl_point_plane, counting

CHILD_ADDRESS_SPACE = 1 << 30  # bytes
CHILD_TIMEOUT_S = 30.0  # on top of the bound: interpreter start and import


def in_child(program: str, bound_s: float, args=(), text: str = "") -> tuple[dict, str]:
    """Run ``program`` (formatted with the address-space cap) in one child
    process, with ``args`` and ``text`` on stdin; the JSON object on the last
    line of its stdout, whose "seconds" must be under ``bound_s``, and its
    stderr."""
    src = str(Path(chowcalc.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", program.format(cap=CHILD_ADDRESS_SPACE), *args],
        input=text, capture_output=True, text=True, timeout=bound_s + CHILD_TIMEOUT_S,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert done.returncode == 0, done.stderr
    out = json.loads(done.stdout.splitlines()[-1])
    assert out.pop("seconds") < bound_s
    return out, done.stderr


# Reads the script on stdin; writes the time of run_scenario and each
# result's verdict, detail and witness as one JSON object.
CHILD = """
import json, resource, sys, time
resource.setrlimit(resource.RLIMIT_AS, ({cap}, {cap}))
from chowcalc.script import parse_script, run_scenario
text = sys.stdin.read()
start = time.perf_counter()
report = run_scenario(parse_script(text), "hostile")
seconds = time.perf_counter() - start
print(json.dumps({{"seconds": seconds, "results": [
    {{"verdict": r.verdict, "detail": r.detail, "witness": r.witness}}
    for r in report.results]}}))
"""


def verdicts(text: str, bound_s: float = 2.0) -> list:
    """Run a script in one child process; its results, once run_scenario
    has ended within ``bound_s`` seconds."""
    out, _ = in_child(CHILD, bound_s, text=text)
    return [SimpleNamespace(**r) for r in out["results"]]


# Reads a script on stdin; writes the time of parse_script and the number
# of forms read, or the ParseError raised, as one JSON object.
PARSE_CHILD = """
import json, resource, sys, time
resource.setrlimit(resource.RLIMIT_AS, ({cap}, {cap}))
from chowcalc.script import ParseError, parse_script
text = sys.stdin.read()
start = time.perf_counter()
try:
    out = {{"forms": len(parse_script(text).forms)}}
except ParseError as err:
    out = {{"error": str(err)}}
out["seconds"] = time.perf_counter() - start
print(json.dumps(out))
"""


def parsed(text: str, bound_s: float = 2.0) -> dict:
    """Parse a script in one child process; its form count or its error,
    once parse_script has ended within ``bound_s`` seconds."""
    return in_child(PARSE_CHILD, bound_s, text=text)[0]


# Runs the command line on its arguments; writes its exit code and the time
# main took as one JSON object on the last line of stdout.
CLI_CHILD = """
import json, resource, sys, time
resource.setrlimit(resource.RLIMIT_AS, ({cap}, {cap}))
from chowcalc.cli import main
start = time.perf_counter()
code = main(sys.argv[1:])
print(json.dumps({{"code": code, "seconds": time.perf_counter() - start}}))
"""


def cli_run(args: list, bound_s: float = 2.0) -> tuple[int, str]:
    """Run ``chowcalc`` in one child process; its exit code and stderr,
    once main has returned within ``bound_s`` seconds."""
    out, err = in_child(CLI_CHILD, bound_s, args=args)
    return out["code"], err


def test_huge_exponent():
    results = verdicts(
        "(pspace P 3 (mod 2)) (let h2 (pow h 1000000000)) (assert-zero (trivial) h2)"
    )
    assert [r.verdict for r in results] == [PASS]


def test_failed_generic_form_binds_nothing():
    results = verdicts(
        "(generic X 3 (gens (x 1) (y 1)) (rules ((scale 2 x) y)))"
        "(assert-zero (trivial) (mul x y))"
        "(in-context X)"
    )
    assert [r.verdict for r in results] == [ERROR, ERROR, ERROR]
    assert "monic" in results[0].detail


def test_failed_generic_form_keeps_current_context():
    results = verdicts(
        "(pspace P 2)"
        "(generic X 3 (gens (x 1) (h 1)) (degrees ((add x h) 1)))"
        "(assert-zero (trivial) (pow h 3))"
    )
    assert [r.verdict for r in results] == [ERROR, PASS]


def test_power_past_dimension_is_zero_at_once():
    P3 = projective_space(3)
    h = P3.gen("h")
    start = time.perf_counter()
    assert (h ** 10**100000).is_zero()
    assert ((h + h * h) ** 4).is_zero()
    assert time.perf_counter() - start < 2.0
    assert str(h**3) == "h^3"
    # a constant term keeps high powers alive
    assert str((P3.one() + h) ** 5) == "1 + 5*h + 10*h^2 + 10*h^3"


def _plane_with(**fields) -> dict:
    doc = projective_space(2).to_json()
    doc.update(fields)
    return doc


def _blown_up_plane_with_codegree_1(listed) -> dict:
    doc = bl_point_plane()[1].to_json()
    doc["basis"]["1"] = listed
    return doc


@pytest.mark.parametrize("doc", [
    [1, 2],
    {"version": 1, "generators": [1]},
    _plane_with(dimension="two"),
    _plane_with(dimension=-1),
    _plane_with(basis={"0": ["1"], "1": ["h^2"], "2": ["h^2"]}),
    _plane_with(basis={"0": ["1"], "1": [], "2": ["h^2"]}),
    _blown_up_plane_with_codegree_1(["e", "h"]),
], ids=["list", "generator-not-object", "dimension-not-int", "dimension-negative",
        "basis-wrong-codegree", "basis-missing", "basis-swapped"])
def test_malformed_catalog_is_a_load_error(tmp_path, capsys, doc):
    path = tmp_path / "F.json"
    path.write_text(json.dumps(doc))
    assert main(["eval", "(mul h h)", "--context", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: cannot load context: ")


# Four generators of codegree 1 in dimension 200 would list C(204, 4) =
# 70,058,751 basis monomials; run these only in a capped child process.
FOUR_GENERATORS = "(gens (a 1) (b 1) (c 1) (d 1))"


def test_basis_past_the_bound_is_an_error():
    # 300 generators of codegree 1 span C(302, 3) = 4,545,100 monomials in
    # codegree 3 alone: the bound holds within a codegree too
    wide = " ".join(f"(x{i} 1)" for i in range(300))
    results = verdicts(
        f"(generic X 200 {FOUR_GENERATORS}) (generic W 3 (gens {wide}))"
        f"(generic Y 36 {FOUR_GENERATORS}) (assert-zero (trivial) (pow a 37))",
        bound_s=2.0,
    )
    # C(40, 4) = 91,390 monomials up to codegree 36, C(41, 4) up to 37
    assert [r.verdict for r in results] == [ERROR, ERROR, PASS]
    assert f"basis exceeds {MAX_BASIS} monomials by codegree 37" in results[0].detail
    assert f"basis exceeds {MAX_BASIS} monomials by codegree 3 " in results[1].detail


def test_free_basis_past_the_bound_is_refused_before_any_monomial_is_listed(monkeypatch):
    # the rule-free rings of the test above: counted, not listed
    from chowcalc import varieties

    grown = counting(monkeypatch, varieties, "_grown")
    wide = [(f"x{i}", 1) for i in range(300)]
    for gens, dim, d in ((list(zip("abcd", [1] * 4)), 200, 37), (wide, 3, 3)):
        with pytest.raises(RingError, match=rf"^basis exceeds {MAX_BASIS} monomials by codegree {d}$"):
            varieties.generic_context(gens, dim)
    assert grown == []
    # a ring with rules is still listed, and refused as it grows past the bound
    x2 = Monomial([(0, 2)])
    with pytest.raises(RingError, match=rf"^basis exceeds {MAX_BASIS} monomials by codegree 32$"):
        varieties.generic_context(list(zip("abcde", [1] * 5)), 200, rules=[(x2, {})])
    assert grown


def test_generic_rules_bound_the_basis_before_it_is_listed():
    # five generators of codegree 1 in dimension 30 span C(35, 5) = 324,632
    # monomials without rules; with x_i^2 -> 0 the basis is the 2^5 = 32
    # square-free monomials, listed once the rules are in the ring
    gens = " ".join(f"(x{i} 1)" for i in range(5))
    squares = " ".join(f"((pow x{i} 2) 0)" for i in range(5))
    form = f"(generic X 30 (gens {gens}) (rules {squares}))"
    total = "(add x0 x1 x2 x3 x4)"
    results = verdicts(
        f"{form} (assert-zero (trivial) (pow {total} 6)) (assert-zero (trivial) (pow {total} 5))",
        bound_s=1.0,
    )
    assert [r.verdict for r in results] == [PASS, FAIL]
    assert results[1].witness == "120*x0*x1*x2*x3*x4"
    env = Env()
    _eval_context_form(env, parse_script(form).forms[0])
    basis = env.lookup("X").basis
    assert [len(b) for b in basis] == [1, 5, 10, 10, 5, 1] + [0] * 25
    assert sum(map(len, basis)) == 32


def test_catalog_basis_past_the_bound_is_a_load_error(tmp_path):
    doc = projective_space(2).to_json()
    doc.update(
        dimension=200, degree=None, degree_total=None, tangent=None, rules=[],
        generators=[{"name": n, "codegree": 1, "role": "ambient"} for n in "abcd"],
        basis={str(d): [] for d in range(201)},
    )
    path = tmp_path / "X.json"
    path.write_text(json.dumps(doc))
    code, err = cli_run(["eval", "(mul a b)", "--context", str(path)])
    assert code == 2
    assert err.startswith("error: cannot load context: ")
    assert f"basis exceeds {MAX_BASIS} monomials" in err


def _blown_up_plane_with_rule_coefficient(c) -> dict:
    doc = bl_point_plane()[1].to_json()
    rule = next(r for r in doc["rules"] if r["replacement"])  # e^2 -> -h^2
    rule["replacement"] = {m: c for m in rule["replacement"]}
    return doc


@pytest.mark.parametrize("doc, field", [
    (_plane_with(modulus=3.0), "modulus"),
    (_plane_with(modulus=True), "modulus"),
    (_plane_with(generators=[{"name": "h", "codegree": 1.0, "role": "ambient"}]), "codegree of 'h'"),
    (_plane_with(tangent={"1": 1, "h": 0.5, "h^2": 3}), "tangent coefficient of h"),
    (_plane_with(degree={"h^2": 1.5}), "degree of h^2"),
    (_plane_with(degree={"h^2": "1"}), "degree of h^2"),
    (_blown_up_plane_with_rule_coefficient(-1.0), "coefficient of h^2 in e^2's rule"),
], ids=["modulus-float", "modulus-bool", "codegree-float", "tangent-float", "degree-float",
        "degree-string", "rule-coefficient-float"])
def test_non_integer_catalog_field_is_a_load_error(tmp_path, doc, field):
    # each of these used to load, and then print float coefficients or fail
    # with a raw TypeError in the pairing
    path = tmp_path / "X.json"
    path.write_text(json.dumps(doc))
    code, err = cli_run(["eval", "(mul h h)", "--context", str(path)])
    assert code == 2
    assert err.startswith("error: cannot load context: ")
    assert f"{field} must be an integer" in err


def test_negative_integer_power_is_an_error():
    report = run_scenario(parse_script(
        "(report-value v (pow 2 -1)) (report-value w (pow -3 3)) (report-value z (pow 5 -0))"
    ), "hostile")
    assert [r.verdict for r in report.results] == [ERROR]
    assert "negative power" in report.results[0].detail
    assert report.values == {"w": "-27", "z": "1"}


def test_huge_integer_power_is_refused():
    start = time.perf_counter()
    report = run_scenario(parse_script(
        f"(report-value v (pow 7 3000000)) (report-value w (pow -2 {MAX_POW_BITS // 2 - 1}))"
        "(report-value u (pow -1 1000000000000))"
    ), "hostile")
    assert time.perf_counter() - start < 2.0
    assert [r.verdict for r in report.results] == [ERROR]
    assert f"exceeds {MAX_POW_BITS} bits" in report.results[0].detail
    assert report.values == {"w": str(-(2 ** (MAX_POW_BITS // 2 - 1))), "u": "1"}


def test_rho_height_above_the_cap_is_an_error():
    results = verdicts(f"(milnor R 3 (rho-height 1000)) (milnor S 3 (rho-height {MAX_RHO_HEIGHT}))")
    assert [r.verdict for r in results] == [ERROR]
    assert f"height must be <= {MAX_RHO_HEIGHT}" in results[0].detail


def test_milnor_ring_above_the_generator_cap_is_an_error():
    # m generators in a symbol ring, n + 1 in the exterior algebra on r0..rn
    results = verdicts(
        f"(milnor S {MAX_GENERATORS}) (assert-comult (trivial) {{1}} (rset {{0}}) (rset {{0}}))"
        f"(milnor R 100000000) (flexible F {MAX_GENERATORS})",
        bound_s=1.0,
    )
    assert [r.verdict for r in results] == [PASS, ERROR, ERROR]
    for r in results[1:]:
        assert f"at most {MAX_GENERATORS} generators" in r.detail


def test_cycling_rules_end_at_once():
    # x*y -> y^2 and y^2 -> x*y rewrite each other's replacement forever
    results = verdicts(
        "(generic X 3 (gens (x 1) (y 1)) (rules ((mul x y) (mul y y)) ((mul y y) (mul x y))))"
        "(assert-zero (trivial) (mul x y))",
        bound_s=1.0,
    )
    assert [r.verdict for r in results] == [ERROR, ERROR]
    assert "RewriteCycle: rewrite cycle through y^2" in results[0].detail


def test_comult_on_a_high_index_is_quick():
    # the walk over word pairs visits the subsets of the words' index sets,
    # not the 2^62 index sets below {62}
    results = verdicts(
        "(milnor R 64) (assert-comult (trivial) {62} (rset {0}) (rset {1}))", bound_s=1.0
    )
    assert [r.verdict for r in results] == [PASS]


def test_large_projective_space_builds_quickly():
    results = verdicts("(pspace P 800) (assert-deg (trivial) (pow h 800) 1)", bound_s=1.0)
    assert [r.verdict for r in results] == [PASS]
    assert projective_space(800).tangent.table[Monomial([(0, 800)])] == 801


def test_huge_projective_space_builds_quickly():
    # the tangent, computed when read, takes its 20,001 binomial
    # coefficients from one recurrence; its degree is chi(P^n) = n + 1
    results = verdicts(
        "(pspace P 20000) (assert-deg (trivial) (pow h 20000) 1)"
        "(assert-deg (trivial) (tangent P) 20001)",
        bound_s=2.0,
    )
    assert [r.verdict for r in results] == [PASS, PASS]


def test_inverse_of_a_long_series_is_quick():
    # inverse_series takes each codegree from the ones below it, about n^2
    # products of parts, not a class product per codegree; on P^n,
    # c(T)^-1 = (1 + h)^-(n + 1), whose codegree-1 part is -(n + 1) h
    results = verdicts(
        "(pspace C 300) (assert-zero (trivial) (add (part 1 (inv-total (tangent C))) (scale 301 h)))",
        bound_s=2.0,
    )
    assert [r.verdict for r in results] == [PASS]


# Builds a ring on a rule-free base of 40 generators that declares their
# product as a lead; writes the time of the build and the rules stored.
WIDE_LEAD_CHILD = """
import json, resource, time
resource.setrlimit(resource.RLIMIT_AS, ({cap}, {cap}))
from chowcalc.rings import Monomial, RingContext
names = [f"x{{i}}" for i in range(40)]
base = RingContext(names, [1] * 40, dimension=40)
start = time.perf_counter()
ring = RingContext(names, [1] * 40, dimension=40, rules=[(Monomial((i, 1) for i in range(40)), {{}})], base=base)
print(json.dumps({{"seconds": time.perf_counter() - start, "rules": len(ring.rules)}}))
"""


def test_a_declared_lead_over_many_generators_builds_quickly():
    # a declared lead is tested against the leads whose support lies inside
    # its own, each group of them once, not each of the 2^40 subsets
    out, _ = in_child(WIDE_LEAD_CHILD, 1.0)
    assert out == {"rules": 1}


@pytest.mark.parametrize("n", [MAX_EXPONENT, MAX_EXPONENT // 2 + 1])
def test_projective_space_past_the_exponent_bound_is_an_error(n):
    # h^(n+1) = 0 needs an exponent above MAX_EXPONENT, or the ring's
    # untruncated normal forms would: refused before anything is built
    results = verdicts(f"(pspace P {n}) (assert-deg (trivial) (pow h {n}) 1)", bound_s=1.0)
    assert [r.verdict for r in results] == [ERROR, ERROR]
    assert "MAX_EXPONENT" in results[0].detail


def test_bundle_tangent_over_a_product_is_quick():
    # rank n/2 over Pn x Pn x P4, n = 16: reading the tangent multiplies
    # the base's 1,445-term tangent by prod (1 + xi + h_1 + h_2 + h), one
    # product of monomial keys per pair of terms; its degree is
    # chi(X) * rank
    n = 16
    roots = " ".join(["(add h_1 h_2 h)"] * (n // 2))
    results = verdicts(
        f"(pspace A {n}) (pspace B {n}) (pspace C 4) (product AB A B) (product X AB C)"
        f"(pbundle E X xi (roots {roots}))"
        f"(assert-deg (trivial) (tangent E) {(n + 1) ** 2 * 5 * (n // 2)})",
        bound_s=2.0,
    )
    assert [r.verdict for r in results] == [PASS]


@pytest.mark.parametrize("n", [20, 40])
def test_bundle_with_many_roots_builds_quickly(n):
    # rank n + 1 over P^n: the Chern classes of the roots come from one
    # recurrence, not from a sum over the 2^(n+1) subsets of the roots; the
    # tangent is computed only when read, and its degree is the Euler
    # characteristic chi(P^n) * (n + 1)
    roots = " ".join(["0"] + ["h"] * n)
    results = verdicts(
        f"(pspace P {n}) (pbundle B P xi (roots {roots}))"
        f"(assert-deg (trivial) (mul (pow h {n}) (pow xi {n})) 1)"
        f"(assert-deg (trivial) (tangent B) {(n + 1) ** 2})",
        bound_s=2.0,
    )
    assert [r.verdict for r in results] == [PASS, PASS]


@pytest.mark.parametrize("n, p, k", [(12, 3, 2), (16, 5, 3), (40, 7, 7)])
def test_homological_power_mod_odd_prime_is_quick(n, p, k):
    # d(T) for p > 2 is T * prod_{a=2}^{p-1} c_a(T) with its codegree k(p-1)
    # part signed by (-1)^k: p - 2 products in P^n's own ring, with no table
    # over the partitions of n; on P^n, P_1(h^k) = (k - (n + 1)) h^(k + p - 1),
    # which is h^(k + p - 1) for these n, p and k
    results = verdicts(
        f"(pspace P {n} (mod {p}))"
        f"(assert-deg (trivial) (homological 1 (pow h {n - p + 1})) 0)"
        f"(assert-deg (trivial) (mul (homological 1 (pow h {k})) (pow h {n - k - p + 1})) 1)",
        bound_s=2.0,
    )
    assert [r.verdict for r in results] == [PASS, PASS]


def test_homological_power_of_a_huge_index_is_quick():
    # only d_m(-T) with m(p - 1) at most the dimension can be nonzero, so
    # the index bounds no loop; P_i(h^3) = 0 on P^2 for i >= 1
    results = verdicts(
        "(pspace P 2 (mod 2)) (assert-zero (trivial) (homological 100000000 h))",
        bound_s=2.0,
    )
    assert [r.verdict for r in results] == [PASS]


def test_huge_prime_modulus_is_quick():
    # 10^18 + 3 is prime; primality is decided by Miller-Rabin, not by
    # trial division up to its square root, and d(-T) is 1 without p - 2
    # products, since p - 1 exceeds the dimension
    results = verdicts(
        "(pspace P 2 (mod 1000000000000000003)) (assert-zero (trivial) (pow h 3))"
        "(assert-equal (trivial) (homological 0 h) h)"
        "(assert-zero (trivial) (homological 3 h))",
        bound_s=2.0,
    )
    assert [r.verdict for r in results] == [PASS, PASS, PASS]


def test_primality_agrees_with_trial_division():
    def by_trial_division(n):
        return n > 1 and all(n % f for f in range(2, int(n ** 0.5) + 1))

    assert [n for n in range(10 ** 5) if _is_prime(n) != by_trial_division(n)] == []
    assert _is_prime(2 ** 61 - 1)
    assert not _is_prime((2 ** 31 - 1) * (2 ** 61 - 1))
    # strong pseudoprimes to every prime base up to 23 and up to 37
    assert not _is_prime(3825123056546413051)
    assert not _is_prime(318665857834031151167461)


def test_modulus_past_the_certified_bound_is_refused():
    # 2^89 - 1 is prime, but above the bound the bases do not certify it
    with pytest.raises(ValueError, match="primality is not certified"):
        _is_prime(2 ** 89 - 1)
    results = verdicts(f"(pspace P 2 (mod {2 ** 89 - 1}))")
    assert [r.verdict for r in results] == [ERROR]
    assert "primality is not certified" in results[0].detail


def test_report_value_keeps_evaluation_errors():
    report = run_scenario(parse_script(
        "(pspace P 2) (report-value v (mul h undefined_name))"
        "(report-value m ((20 -2) (5 1))) (report-value w (mul h h))"
    ), "hostile")
    assert [r.verdict for r in report.results] == [ERROR]
    assert "undefined identifier 'undefined_name'" in report.results[0].detail
    assert report.values == {"m": "((20 -2) (5 1))", "w": "h^2"}


def test_deep_nesting_is_a_parse_error():
    with pytest.raises(ParseError) as err:
        parse_script("(" * 1000 + ")" * 1000)
    # at the first bracket past the bound
    assert (err.value.line, err.value.col) == (1, MAX_DEPTH + 1)
    assert f"deeper than {MAX_DEPTH}" in str(err.value)


def test_run_on_a_deeply_nested_file_exits_2(tmp_path, capsys):
    path = tmp_path / "deep.chow"
    path.write_text("(" * 2000 + ")" * 2000)
    assert main(["run", str(path)]) == 2
    assert capsys.readouterr().err.startswith("parse error: ")


def test_nesting_at_the_bound_evaluates_and_prints():
    text = "(add " * MAX_DEPTH + "1" + ")" * MAX_DEPTH
    script = parse_script(text)
    assert eval_expr(Env(), script.forms[0]) == 1
    assert parse_script(print_script(script)) == script


def test_parsing_a_long_flat_script_is_linear():
    text = "(let u 1) ; a comment\n" * 50_000
    assert parsed(text) == {"forms": 50_000}
    # the position of an error is computed once, not per token
    assert parsed(text + ")") == {"error": "unexpected ')' at line 50001, column 1"}
