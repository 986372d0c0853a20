"""Each benchmark check passes on skeinlab's outputs and rejects a corrupted one.

    python3 -m pytest perfbench/test_checks.py
"""

from __future__ import annotations

import json
import random
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checks  # noqa: E402
import tracer  # noqa: E402
from skeinlab import charvar, skein, trace_engine  # noqa: E402
from skeinlab.exactpoly import SubsetVar  # noqa: E402
from skeinlab.trace_engine import ReductionMode  # noqa: E402
from skeinlab.words import AbelianVector, reduce_word  # noqa: E402

WORDS = [
    (2, [(1, 2), (2, -1), (1, 1), (2, 3)]),
    (4, [(1, 1), (3, 1), (2, 1), (4, -2), (3, 1)]),
    (5, [(5, 1), (1, 1), (4, 1), (2, 1), (3, 1)]),
]


def _trace_results():
    rule = trace_engine.derive_rule_k4()
    engines = {
        "integral": trace_engine.TraceEngine(ReductionMode.INTEGRAL),
        "dyadic": trace_engine.TraceEngine(ReductionMode.DYADIC, rule_k4=rule),
    }
    return {
        mode: [dict(e.reduce(reduce_word(pairs, rank)).terms) for rank, pairs in WORDS]
        for mode, e in engines.items()
    }


def _rng():
    return random.Random(5)


def test_trace_check_accepts_program_output():
    assert checks.check_trace_words(WORDS, _trace_results(), _rng()) == []


def test_trace_check_rejects_wrong_coefficient():
    results = _trace_results()
    mono = next(iter(results["integral"][0]))
    results["integral"][0][mono] += 1
    assert checks.check_trace_words(WORDS, results, _rng())


def test_trace_check_rejects_fraction_in_integral_mode():
    results = _trace_results()
    terms = results["integral"][1]
    mono = next(iter(terms))
    terms[mono] = terms[mono] + Fraction(1, 2)
    assert any("integral coefficient" in e for e in checks.check_trace_words(WORDS, results, _rng()))


def test_trace_check_rejects_size_four_variable_in_dyadic_mode():
    results = _trace_results()
    results["dyadic"][1][((SubsetVar((1, 2, 3, 4)), 1),)] = 0
    errors = checks.check_trace_words(WORDS, results, _rng())
    assert any("|S| > 3" in e for e in errors)


PAIRS = [((1,), (-2,)), ((2, -1), (1, 3)), ((0, 1, -2), (3, 0, 1)), ((1, -1, 2, 0), (-2, 1, 1, 3))]


def _abelian_outputs():
    out = []
    for v, w in PAIRS:
        av, aw = AbelianVector(len(v), v), AbelianVector(len(w), w)
        dv = skein.abelian_from_vector(av, ReductionMode.DYADIC)
        dw = skein.abelian_from_vector(aw, ReductionMode.DYADIC)
        prod = skein.multiply(dv, dw)
        iv = skein.abelian_from_vector(av, ReductionMode.INTEGRAL)
        res = {k: dict(x.poly.terms) for k, x in (("dv", dv), ("dw", dw), ("prod", prod), ("iv", iv))}
        for key, x in (("Lv", dv), ("Lw", dw), ("Lprod", prod), ("Liv", iv)):
            res[key] = dict(skein.to_laurent(x).terms)
        for key, sign in (("sum_plus", 1), ("sum_minus", -1)):
            vec = tuple(a + sign * b for a, b in zip(v, w))
            res[key] = dict(skein.abelian_from_vector(AbelianVector(len(vec), vec)).poly.terms)
        out.append(res)
    return out


def test_abelian_check_accepts_program_output():
    assert checks.check_abelian_pairs(PAIRS, _abelian_outputs(), _rng()) == []


def test_abelian_check_rejects_each_corruption():
    for key in ("Lv", "Lw", "Lprod", "Liv", "dv", "dw", "prod", "iv", "sum_plus"):
        outputs = _abelian_outputs()
        terms = outputs[2][key]
        k = next(iter(terms))
        terms[k] = terms[k] + 1
        assert checks.check_abelian_pairs(PAIRS, outputs, _rng()), key


def _harvest(kind, n, degree):
    spec = (kind, n)
    monos = charvar.monomial_exponents(len(charvar.generator_vars(spec)), degree)
    basis = charvar.harvest_relations(spec, degree, 2 * len(monos), 3)
    tangent = charvar.tangent_dim_at_trivial(basis).tangent_dim
    return [dict(r.terms) for r in basis.relations], charvar.generator_vars(spec), tangent


def test_harvest_check_accepts_program_output():
    for instance in (("abelian", 2, 4, 3), ("free", 2, 3, 3), ("free", 3, 4, 7)):
        rels, gens, tangent = _harvest(*instance[:3])
        assert checks.check_harvest(instance, rels, gens, tangent, _rng()) == []


def test_harvest_check_rejects_corruptions():
    instance = ("abelian", 2, 4, 3)
    rels, gens, tangent = _harvest("abelian", 2, 4)
    bad = [dict(r) for r in rels]
    mono = next(iter(bad[0]))
    bad[0][mono] += 1
    assert any("vanish" in e for e in checks.check_harvest(instance, bad, gens, tangent, _rng()))
    doubled = rels + [rels[0]]
    errors = checks.check_harvest(instance, doubled, gens, tangent, _rng())
    assert any("dependent" in e for e in errors)
    assert any("relations, expected" in e for e in errors)
    assert checks.check_harvest(instance, rels[:-1], gens, tangent, _rng())
    assert checks.check_harvest(instance, rels, gens, tangent + 1, _rng())


def test_abelian_relation_count_matches_closed_form():
    for d in range(2, 6):
        assert checks.abelian_relation_count(2, d) == checks.expected_relation_count("abelian", 2, d)


EPSILONS = [(1,), (1, -1), (1, 1, -1, 1), (-1, 1, 1, -1, -1)]


def _two_bridge(eps):
    result = charvar.two_bridge_charpoly(charvar.TwoBridgePresentation(eps))
    return dict(result.Q.terms), dict(result.Phi.terms), charvar.is_square_free(result.Phi)


def test_two_bridge_check_accepts_program_output():
    for eps in EPSILONS:
        assert checks.check_two_bridge(eps, *_two_bridge(eps), _rng()) == []


def test_two_bridge_check_rejects_corruptions():
    eps = EPSILONS[2]
    q, phi, sf = _two_bridge(eps)
    for target in (q, phi):
        k = next(iter(target))
        target[k] += 1
        assert checks.check_two_bridge(eps, q, phi, sf, _rng())
        target[k] -= 1
    # Q and Phi of another knot fail the trace identity even though
    # Q = (t1^2 - t2 - 2) * Phi holds.
    assert checks.check_two_bridge(eps, *_two_bridge(EPSILONS[3]), _rng())


def test_two_bridge_check_rejects_flipped_square_free_verdict():
    for eps in EPSILONS:
        q, phi, sf = _two_bridge(eps)
        assert checks.check_two_bridge(eps, q, phi, not sf, _rng())


def test_square_free_certificate_rejects_a_square():
    _, phi, _ = _two_bridge(EPSILONS[2])
    xy = checks._xy_dict(phi)
    assert checks._square_free_in(xy, 0, _rng()) and checks._square_free_in(xy, 1, _rng())
    square = {}
    for (a, b), c in xy.items():
        for (d, e), f in xy.items():
            square[(a + d, b + e)] = square.get((a + d, b + e), 0) + c * f
    assert not checks._square_free_in(square, 0, _rng())
    assert not checks._square_free_in(square, 1, _rng())


def test_benchmark_json_lists_every_traced_metric():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    listed = [(m["name"], m["unit"]) for m in bench["per_layer"]]
    assert listed == tracer.per_layer_names()
