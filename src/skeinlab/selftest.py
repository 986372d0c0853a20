"""The acceptance suite: one callable per criterion, shared by CLI and pytest.

Each criterion returns a CriterionResult with a PASS/FAIL verdict, a short
detail string, and its elapsed time.  Tolerances are not configurable:
every equality here is exact, and the runtime limits are the fixed budgets
the criteria were specified with.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from fractions import Fraction

from . import charvar, oracle, skein, trace_engine
from .exactpoly import Poly, SubsetVar, is_dyadic, is_integral, poly_divide
from .trace_engine import ReductionMode
from .words import AbelianVector, concat, invert, reduce_word


@dataclass
class CriterionResult:
    number: int
    name: str
    ok: bool
    detail: str
    elapsed: float
    skipped: bool = False

    def line(self) -> str:
        # Timing deliberately omitted: selftest stdout stays byte-identical.
        status = "SKIP" if self.skipped else ("PASS" if self.ok else "FAIL")
        return f"{status} [{self.number:2d}] {self.name}: {self.detail}"


def _result(number, name, ok, detail, start, skipped=False) -> CriterionResult:
    return CriterionResult(number, name, ok, detail, time.monotonic() - start, skipped)


def _budget(elapsed: float, limit: float) -> tuple[bool, str]:
    if elapsed < limit:
        return True, f"within the {limit:.0f}s budget"
    return False, f"runtime {elapsed:.1f}s exceeds the {limit:.0f}s budget"


def criterion_1_oracle_equivalence(fuzz_count: int = 1000) -> CriterionResult:
    start = time.monotonic()
    reports = [
        oracle.fuzz_check(fuzz_count, max_rank=4, max_len=12, mode=mode, seed=7)
        for mode in (ReductionMode.INTEGRAL, ReductionMode.DYADIC)
    ]
    elapsed = time.monotonic() - start
    failures = sum(len(r.failures) for r in reports)
    in_budget, budget_text = _budget(elapsed, 60.0)
    ok = failures == 0 and all(r.all_values_integral for r in reports) and in_budget
    return _result(
        1,
        "oracle equivalence (both modes)",
        ok,
        f"{fuzz_count} words/mode, {failures} failures, {budget_text}",
        start,
    )


# Random words per generating-set criterion (2 and 3).
WORD_COUNT = 500


def _random_words(count: int, max_rank: int, max_len: int, seed: int):
    rng = random.Random(f"skeinlab-selftest-words-{seed}")
    for _ in range(count):
        rank = rng.randint(1, max_rank)
        yield rank, oracle.random_word(rng, rank, max_len)


def criterion_2_integral_generators() -> CriterionResult:
    start = time.monotonic()
    universe = {
        n: set(trace_engine.skein_basis_vars(n, ReductionMode.INTEGRAL))
        for n in range(1, 5)
    }
    counts_ok = all(len(universe[n]) == 2**n - 1 for n in range(1, 5))
    engine = trace_engine.get_engine(ReductionMode.INTEGRAL)
    violations = 0
    for rank, w in _random_words(WORD_COUNT, 4, 10, seed=2):
        poly = engine.reduce(w)
        if not all(v in universe[rank] for v in poly.variables()):
            violations += 1
        elif not all(is_integral(c) for c in poly.terms.values()):
            violations += 1
    ok = counts_ok and violations == 0
    return _result(
        2,
        "integral generating set (2^n - 1)",
        ok,
        f"universe sizes {[len(universe[n]) for n in range(1, 5)]}, "
        f"{violations} violations in {WORD_COUNT} words",
        start,
    )


def criterion_3_dyadic_conformance() -> CriterionResult:
    start = time.monotonic()
    n4 = trace_engine.skein_basis_vars(4, ReductionMode.DYADIC)
    engine = trace_engine.get_engine(ReductionMode.DYADIC)
    violations = 0
    for rank, w in _random_words(WORD_COUNT, 4, 10, seed=3):
        poly = engine.reduce(w)
        if not all(len(v.subset) <= 3 for v in poly.variables()):
            violations += 1
        elif not all(is_dyadic(c) for c in poly.terms.values()):
            violations += 1
    ok = len(n4) == 14 and violations == 0
    return _result(
        3,
        "dyadic generating set (n + C(n,2) + C(n,3))",
        ok,
        f"n=4 universe {len(n4)} == 14, {violations} violations in {WORD_COUNT} words",
        start,
    )


def criterion_4_rule_k4_bootstrap() -> CriterionResult:
    start = time.monotonic()
    rule = trace_engine.derive_rule_k4(0)
    residuals = trace_engine.verify_rule_k4(rule, count=100, seed=41)
    ok = rule.weight_bound <= 6 and all(r == 0 for r in residuals)
    return _result(
        4,
        "size-4 rule bootstrap",
        ok,
        f"solved at weight {rule.weight_bound}, {len(rule.coefficients)} terms, "
        f"100 held-out residuals all zero: {all(r == 0 for r in residuals)}",
        start,
    )


def criterion_5_x_z2_identity() -> CriterionResult:
    start = time.monotonic()
    ok = charvar.check_x_z2_identity()
    in_budget, budget_text = _budget(time.monotonic() - start, 1.0)
    return _result(
        5,
        "X(Z^2) equation symbolic zero",
        ok and in_budget,
        f"identically zero: {ok}, {budget_text}",
        start,
    )


def criterion_6_abelian_soundness() -> CriterionResult:
    start = time.monotonic()
    rng = random.Random("skeinlab-selftest-abelian")
    from .exactpoly import LaurentPoly

    bad = 0
    for _ in range(500):
        n = rng.randint(1, 4)
        v = AbelianVector(n, tuple(rng.randint(-5, 5) for _ in range(n)))
        lp = skein.to_laurent(skein.abelian_from_vector(v))
        expected = LaurentPoly(n, {tuple(v.coords): 1}) + LaurentPoly(
            n, {tuple(-c for c in v.coords): 1}
        )
        if lp != expected:
            bad += 1
    for _ in range(500):
        n = rng.randint(1, 4)
        v1 = AbelianVector(n, tuple(rng.randint(-3, 3) for _ in range(n)))
        v2 = AbelianVector(n, tuple(rng.randint(-3, 3) for _ in range(n)))
        x = skein.abelian_from_vector(v1)
        y = skein.abelian_from_vector(v2)
        lhs = skein.to_laurent(skein.multiply(x, y))
        if lhs != skein.to_laurent(x) * skein.to_laurent(y):
            bad += 1
    in_budget, budget_text = _budget(time.monotonic() - start, 30.0)
    ok = bad == 0 and in_budget
    return _result(
        6,
        "abelian round-trips and products vs Laurent oracle",
        ok,
        f"500 + 500 checks, {bad} mismatches, {budget_text}",
        start,
    )


def _frac_mat_mul(a, b):
    return (
        a[0] * b[0] + a[1] * b[2],
        a[0] * b[1] + a[1] * b[3],
        a[2] * b[0] + a[3] * b[2],
        a[2] * b[1] + a[3] * b[3],
    )


def trefoil_rational_representation(m: Fraction):
    """Exact nonabelian trefoil representation with tr(a) = m + 1/m, tr(ab) = 1.

    a = [[m, 1], [0, 1/m]], b = [[m, 0], [s, 1/m]] with s = 1 - m^2 - m^-2
    satisfies aba = bab exactly; s is nonzero for every rational m.
    """
    m = Fraction(m)
    s = 1 - m * m - 1 / (m * m)
    a = (m, Fraction(1), Fraction(0), 1 / m)
    b = (m, Fraction(0), s, 1 / m)
    return a, b


def criterion_7_two_bridge() -> CriterionResult:
    start = time.monotonic()
    t1, t12 = SubsetVar((1,)), SubsetVar((1, 2))
    problems = []

    trefoil = charvar.two_bridge_charpoly(charvar.TwoBridgePresentation.preset("trefoil"))
    if trefoil.Q.is_zero():
        problems.append("trefoil Q is zero")
    if trefoil.Q != charvar.abelian_divisor() * trefoil.Phi:
        problems.append("trefoil factorization broken")
    if not charvar.is_square_free(trefoil.Phi):
        problems.append("trefoil Phi not square-free")
    if trefoil.phi_at_22 == 0:
        problems.append("trefoil Phi(2,2) == 0")
    if trefoil.Phi.total_degree() != 1:
        problems.append("trefoil Phi degree != 1")
    if not poly_divide(trefoil.Phi, Poly.variable(t12) - 1, [t12, t1])[1].is_zero():
        problems.append("trefoil Phi does not vanish on the t2=1 line")
    # Cross-validation on explicit exact nonabelian representations.
    for m in (Fraction(1), Fraction(2), Fraction(3, 2), Fraction(5), Fraction(7, 3)):
        a, b = trefoil_rational_representation(m)
        aba = _frac_mat_mul(_frac_mat_mul(a, b), a)
        bab = _frac_mat_mul(_frac_mat_mul(b, a), b)
        if aba != bab:
            problems.append(f"relation aba=bab fails at m={m}")
            continue
        tr_a = a[0] + a[3]
        ab = _frac_mat_mul(a, b)
        tr_ab = ab[0] + ab[3]
        if trefoil.Phi.evaluate({t1: tr_a, t12: tr_ab}) != 0:
            problems.append(f"trefoil Phi does not vanish at character m={m}")
        if tr_ab == tr_a * tr_a - 2:
            problems.append(f"representation at m={m} is abelian-looking")

    fig8 = charvar.two_bridge_charpoly(charvar.TwoBridgePresentation.preset("fig8"))
    if fig8.Q.is_zero():
        problems.append("fig8 Q is zero")
    if fig8.Q != charvar.abelian_divisor() * fig8.Phi:
        problems.append("fig8 factorization broken")
    if fig8.Phi.is_constant():
        problems.append("fig8 Phi constant")
    if not charvar.is_square_free(fig8.Phi):
        problems.append("fig8 Phi not square-free")
    if fig8.phi_at_22 == 0:
        problems.append("fig8 Phi(2,2) == 0")

    ok = not problems
    return _result(
        7,
        "two-bridge pipeline (trefoil, fig8)",
        ok,
        "all checks passed" if ok else "; ".join(problems),
        start,
    )


def criterion_8_relation_harvest() -> CriterionResult:
    start = time.monotonic()
    problems = []
    monos_ab2 = charvar.monomial_exponents(3, 3)
    basis = charvar.harvest_relations(("abelian", 2), 3, 2 * len(monos_ab2), seed=11)
    if len(basis.relations) != 1:
        problems.append(f"abelian:2 degree 3 gave {len(basis.relations)} relations")
    else:
        rel = basis.relations[0]
        known = charvar.x_z2_relation_poly()
        if rel != known and rel != -known:
            problems.append("abelian:2 relation is not the X(Z^2) polynomial")
    monos_f2 = charvar.monomial_exponents(3, 4)
    basis_f2 = charvar.harvest_relations(("free", 2), 4, 2 * len(monos_f2), seed=11)
    if basis_f2.relations:
        problems.append(f"free:2 degree 4 gave {len(basis_f2.relations)} relations")
    in_budget, budget_text = _budget(time.monotonic() - start, 120.0)
    if not in_budget:
        problems.append(budget_text)
    ok = not problems
    return _result(
        8,
        "relation harvest (abelian:2 exact, free:2 empty)",
        ok,
        "one-dimensional X(Z^2) span; free:2 empty" if ok else "; ".join(problems),
        start,
    )


def criterion_9_tangent_dimensions(quick: bool = False) -> CriterionResult:
    start = time.monotonic()
    problems = []
    expected = {("abelian", 2, 3): 3, ("abelian", 3, 4): 6}
    if not quick:
        expected[("free", 3, 6)] = 7
    for (kind, n, degree), want in sorted(expected.items()):
        nvars = len(charvar.generator_vars((kind, n)))
        monos = charvar.monomial_exponents(nvars, degree)
        basis = charvar.harvest_relations((kind, n), degree, 2 * len(monos), seed=11)
        report = charvar.tangent_dim_at_trivial(basis)
        if report.tangent_dim != want:
            problems.append(f"{kind}:{n} tangent {report.tangent_dim} != {want}")
        if report.jacobian_rank_at_chi0 != 0:
            problems.append(f"{kind}:{n} has nonvanishing gradients at chi_0")
    in_budget, budget_text = _budget(time.monotonic() - start, 600.0)
    if not in_budget:
        problems.append(budget_text)
    ok = not problems
    detail = (
        "abelian:2 -> 3, abelian:3 -> 6"
        + ("" if quick else ", free:3 -> 7")
        + "; all gradients vanish at chi_0"
    )
    return _result(
        9,
        "tangent dimensions at the trivial character",
        ok,
        detail if ok else "; ".join(problems),
        start,
        skipped=False,
    )


def criterion_10_algebra_axioms() -> CriterionResult:
    start = time.monotonic()
    rng = random.Random("skeinlab-selftest-axioms")
    mode = ReductionMode.INTEGRAL
    problems = 0
    for _ in range(200):
        rank = rng.randint(1, 3)
        w1 = oracle.random_word(rng, rank, 6)
        w2 = oracle.random_word(rng, rank, 6)
        w3 = oracle.random_word(rng, rank, 4)
        x = skein.from_word(w1, mode)
        y = skein.from_word(w2, mode)
        z = skein.from_word(w3, mode)
        if skein.multiply(x, y).poly != skein.multiply(y, x).poly:
            problems += 1
        if (
            skein.multiply(skein.multiply(x, y), z).poly
            != skein.multiply(x, skein.multiply(y, z)).poly
        ):
            problems += 1
        # [e] = 2*1: multiplying by the identity class doubles.
        e = skein.from_word(reduce_word([], rank), mode)
        if skein.multiply(e, x).poly != 2 * x.poly:
            problems += 1
        if skein.from_word(invert(w1), mode).poly != x.poly:
            problems += 1
        if skein.from_word(concat(w1, w2), mode).poly != skein.from_word(
            concat(w2, w1), mode
        ).poly:
            problems += 1
    in_budget, budget_text = _budget(time.monotonic() - start, 30.0)
    ok = problems == 0 and in_budget
    return _result(
        10,
        "algebra axioms on random instances",
        ok,
        f"200 instances x 5 axioms, {problems} violations, {budget_text}",
        start,
    )


def run_all(quick: bool = False) -> list[CriterionResult]:
    fuzz_count = 100 if quick else 1000
    results = [
        criterion_1_oracle_equivalence(fuzz_count),
        criterion_2_integral_generators(),
        criterion_3_dyadic_conformance(),
        criterion_4_rule_k4_bootstrap(),
        criterion_5_x_z2_identity(),
        criterion_6_abelian_soundness(),
        criterion_7_two_bridge(),
        criterion_8_relation_harvest(),
        criterion_9_tangent_dimensions(quick=quick),
        criterion_10_algebra_axioms(),
    ]
    return results
