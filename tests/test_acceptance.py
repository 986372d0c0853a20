"""Acceptance suite: one test per criterion, at full scale and exact tolerances.

Each test prints its PASS/FAIL line (visible with `pytest -s` or on failure)
and asserts the criterion verdict.  The shared implementations live in
skeinlab.selftest so `skeinlab selftest` runs the same code.
"""

from skeinlab import selftest


def _check(result):
    print(result.line())
    assert result.ok, result.detail


def test_criterion_01_oracle_equivalence():
    _check(selftest.criterion_1_oracle_equivalence(fuzz_count=1000))


def test_criterion_02_integral_generators():
    _check(selftest.criterion_2_integral_generators())


def test_criterion_03_dyadic_conformance():
    _check(selftest.criterion_3_dyadic_conformance())


def test_criterion_04_rule_k4_bootstrap():
    _check(selftest.criterion_4_rule_k4_bootstrap())


def test_criterion_05_x_z2_identity():
    _check(selftest.criterion_5_x_z2_identity())


def test_criterion_06_abelian_soundness():
    _check(selftest.criterion_6_abelian_soundness())


def test_criterion_07_two_bridge_pipeline():
    _check(selftest.criterion_7_two_bridge())


def test_criterion_08_relation_harvest():
    _check(selftest.criterion_8_relation_harvest())


def test_criterion_09_tangent_dimensions():
    _check(selftest.criterion_9_tangent_dimensions(quick=False))


def test_criterion_10_algebra_axioms():
    _check(selftest.criterion_10_algebra_axioms())
