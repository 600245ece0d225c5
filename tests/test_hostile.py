"""Hostile and ill-defined scripts: each ends in a verdict, within a time
bound, and an error never leaves a half-built context behind."""

import time

from chowcalc.report import ERROR, PASS
from chowcalc.script import parse_script, run_scenario


def verdicts(text: str, bound_s: float = 2.0) -> list:
    start = time.perf_counter()
    report = run_scenario(parse_script(text), "hostile")
    assert time.perf_counter() - start < bound_s
    return report.results


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
