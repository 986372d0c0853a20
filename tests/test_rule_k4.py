import random

from skeinlab.oracle import SL2IntMatrix, sample_sl2, subset_traces
from skeinlab.trace_engine import (
    RuleK4,
    _monomial_value,
    derive_rule_k4,
    verify_rule_k4,
)


def test_bootstrap_succeeds_at_small_weight():
    rule = derive_rule_k4(0)
    assert rule.weight_bound <= 6
    assert rule.coefficients


def test_held_out_residuals_exactly_zero():
    rule = derive_rule_k4(0)
    residuals = verify_rule_k4(rule, count=100, seed=77)
    assert residuals == [0] * 100


def test_identity_specialization_collapses():
    # Pinning the fourth matrix to the identity must still give zero residual,
    # i.e. the rule degenerates to a valid 3-matrix identity.
    rule = derive_rule_k4(0)
    subsets = sorted({subset for m, _ in rule.coefficients for subset, _ in m})
    rng = random.Random(78)
    for _ in range(100):
        ms = [sample_sl2(rng, 4) for _ in range(3)] + [SL2IntMatrix.identity()]
        traces = dict(zip(subsets, subset_traces(ms, subsets)))
        total = sum(c * _monomial_value(m, traces) for m, c in rule.coefficients)
        assert total == 2 * (ms[0] * ms[1] * ms[2]).trace


def test_coefficients_are_integers():
    rule = derive_rule_k4(0)
    assert all(isinstance(c, int) for _, c in rule.coefficients)


def test_sign_parity_constraint():
    # Each index 1..4 occurs an odd number of times among every monomial's
    # variable subscripts, counted with powers.
    rule = derive_rule_k4(0)
    for mono, _ in rule.coefficients:
        counts = [0, 0, 0, 0]
        for subset, power in mono:
            for i in subset:
                counts[i - 1] += power
        assert all(c % 2 == 1 for c in counts)


def test_derivation_is_deterministic():
    assert derive_rule_k4(3).coefficients == derive_rule_k4(3).coefficients
    assert derive_rule_k4(3).coefficients != ()


def test_different_seeds_agree_semantically():
    # Different sample sets may in principle pick different representatives,
    # but both must verify on a common fresh batch.
    for seed in (0, 99):
        rule = derive_rule_k4(seed)
        assert verify_rule_k4(rule, count=50, seed=1234) == [0] * 50


def test_seed_zero_rule_is_pinned():
    # The classical four-matrix trace identity, in the solver's term order.
    # A solver that settles on another representative of the solution space
    # fails here before any caller sees the difference.
    def t(*subset):
        return (subset, 1)

    want = (
        ((t(1), t(2), t(3), t(4)), 1),
        ((t(1), t(2), t(3, 4)), -1),
        ((t(1), t(2, 3, 4)), 1),
        ((t(1), t(4), t(2, 3)), -1),
        ((t(1, 2), t(3, 4)), 1),
        ((t(1, 3), t(2, 4)), -1),
        ((t(1, 4), t(2, 3)), 1),
        ((t(2), t(1, 3, 4)), 1),
        ((t(2), t(3), t(1, 4)), -1),
        ((t(3), t(1, 2, 4)), 1),
        ((t(3), t(4), t(1, 2)), -1),
        ((t(4), t(1, 2, 3)), 1),
    )
    rule = derive_rule_k4(0)
    assert rule == RuleK4(coefficients=want, weight_bound=4, seed=0)
    assert [type(c) for _, c in rule.coefficients] == [int] * len(want)
