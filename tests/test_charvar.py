import itertools
import random
from fractions import Fraction
from math import lcm, prod

import pytest

from skeinlab import _modlin
from skeinlab.charvar import (
    CharVarError,
    HarvestError,
    TwoBridgeDivisionError,
    TwoBridgePresentation,
    _certified_zero,
    _constant_gcd,
    _monomial_matrix_mod_p,
    _sample_generator_values,
    abelian_divisor,
    check_harvest_size,
    check_x_z2_identity,
    generator_vars,
    harvest_relations,
    is_square_free,
    monomial_exponents,
    parse_group_spec,
    relation_from_dict,
    tangent_dim_at_trivial,
    two_bridge_charpoly,
    two_bridge_numerator,
    x_z2_relation_poly,
)
from skeinlab.exactpoly import LaurentPoly, Poly, SubsetVar, poly_divide
from skeinlab.oracle import (
    SL2IntMatrix,
    eval_word,
    sample_representation,
    sample_sl2,
    subset_traces,
)
from skeinlab.selftest import _frac_mat_mul, trefoil_rational_representation
from skeinlab.skein import SkeinElement, to_laurent
from skeinlab.trace_engine import ReductionMode, reduce_trace
from skeinlab.words import reduce_word

T1 = SubsetVar((1,))
T12 = SubsetVar((1, 2))


def v(var):
    return Poly.variable(var)


def test_presentation_words():
    trefoil = TwoBridgePresentation.preset("trefoil")
    assert [(l.index, l.exponent) for l in trefoil.relator_word().letters] == [
        (1, 1),
        (2, 1),
    ]
    fig8 = TwoBridgePresentation.preset("fig8")
    assert [(l.index, l.exponent) for l in fig8.relator_word().letters] == [
        (1, 1),
        (2, -1),
        (1, -1),
        (2, 1),
    ]
    with pytest.raises(CharVarError):
        TwoBridgePresentation(())
    with pytest.raises(CharVarError):
        TwoBridgePresentation((1, 2))


def test_trefoil_charpoly():
    res = two_bridge_charpoly(TwoBridgePresentation.preset("trefoil"))
    assert res.Phi == v(T12) - 1
    assert res.Q == abelian_divisor() * res.Phi
    assert not res.Q.is_zero()
    assert res.phi_at_22 == 1
    assert res.Phi.total_degree() == 1
    assert is_square_free(res.Phi)
    # Zero set contains the whole t2 = 1 line: t2 - 1 divides Phi exactly.
    _, off_line = poly_divide(res.Phi, v(T12) - 1, [T12, T1])
    assert off_line.is_zero()


def test_trefoil_explicit_rational_representations():
    res = two_bridge_charpoly(TwoBridgePresentation.preset("trefoil"))
    for m in (Fraction(1), Fraction(2), Fraction(5, 3), Fraction(-3, 2)):
        a, b = trefoil_rational_representation(m)
        aba = _frac_mat_mul(_frac_mat_mul(a, b), a)
        bab = _frac_mat_mul(_frac_mat_mul(b, a), b)
        assert aba == bab
        ab = _frac_mat_mul(a, b)
        t1_val, t2_val = a[0] + a[3], ab[0] + ab[3]
        assert t2_val == 1
        assert res.Phi.evaluate({T1: t1_val, T12: t2_val}) == 0
        assert t2_val != t1_val * t1_val - 2  # genuinely nonabelian character
    assert res.Phi.evaluate({T1: 2, T12: 2}) == 1


def test_fig8_charpoly():
    res = two_bridge_charpoly(TwoBridgePresentation.preset("fig8"))
    expected_phi = (
        v(T1) * v(T1) * v(T12)
        - 2 * v(T1) * v(T1)
        - v(T12) * v(T12)
        + v(T12)
        + 1
    )
    assert res.Phi == expected_phi
    assert res.Q == abelian_divisor() * res.Phi
    assert res.phi_at_22 == -1
    assert not res.Phi.is_constant()
    assert is_square_free(res.Phi)


def _relator_word(pres, swap_roles=False):
    """The relator word w, with generators a and b exchanged under swap_roles."""
    w = pres.relator_word()
    if not swap_roles:
        return w
    return reduce_word([(3 - l.index, l.exponent) for l in w.letters], 2)


def _bwa_word(pres, swap_roles=False):
    a_idx, b_idx = (2, 1) if swap_roles else (1, 2)
    w = _relator_word(pres, swap_roles)
    return reduce_word(
        [(b_idx, 1)] + [(l.index, l.exponent) for l in w.letters] + [(a_idx, -1)], 2
    )


def _engine_numerator(pres, swap_roles=False):
    """The numerator by the general trace engine: both traces reduced over Z,
    then tr(b) := tr(a), so that both generator traces become t1."""
    diff = reduce_trace(_relator_word(pres, swap_roles), ReductionMode.INTEGRAL)
    diff -= reduce_trace(_bwa_word(pres, swap_roles), ReductionMode.INTEGRAL)
    return Poly.sum(
        Poly({tuple((T1 if len(var.subset) == 1 else var, e) for var, e in m): c})
        for m, c in diff.terms.items()
    )


def _random_epsilons(rng, length):
    return tuple(rng.choice((1, -1)) for _ in range(length))


def test_numerator_matches_engine_reference():
    # Every list of length <= 5, then seeded random lists of length 6..12.
    rng = random.Random(12)
    lists = [
        eps for length in range(1, 6) for eps in itertools.product((1, -1), repeat=length)
    ]
    lists += [_random_epsilons(rng, length) for length in range(6, 13) for _ in range(3)]
    for eps in lists:
        pres = TwoBridgePresentation(eps)
        assert two_bridge_numerator(pres) == _engine_numerator(pres), eps


def test_torus_knots_match_closed_form():
    # The all-ones list of length k presents T(2, 2k + 1), whose Phi is
    # S_k(t2) - S_(k-1)(t2) with S_0 = 1, S_1 = t2, S_k = t2*S_(k-1) - S_(k-2).
    s_prev, s_cur = Poly.const(1), v(T12)
    for k in range(1, 65):
        phi = two_bridge_charpoly(TwoBridgePresentation((1,) * k)).Phi
        assert phi == s_cur - s_prev or phi == s_prev - s_cur, k
        s_prev, s_cur = s_cur, v(T12) * s_cur - s_prev


def test_numerator_matches_matrix_oracle():
    # The numerator evaluated at (tr a, tr ab) must equal tr(w) - tr(b w a^-1)
    # for every representation with tr(a) = tr(b); conjugate images give
    # exactly these.
    rng, lists_rng = random.Random(40), random.Random(41)
    presentations = [TwoBridgePresentation.preset(n) for n in ("trefoil", "fig8")]
    presentations += [
        TwoBridgePresentation(_random_epsilons(lists_rng, length))
        for length in (3, 8, 16, 24, 32, 40)
    ]
    for pres in presentations:
        numerator = two_bridge_numerator(pres)
        w, bwa = pres.relator_word(), _bwa_word(pres)
        for _ in range(50 if len(pres.epsilons) <= 2 else 8):
            m = sample_sl2(rng, 6)
            conj = sample_sl2(rng, 6)
            images = (m, conj * m * conj.inverse())
            t1_val = images[0].trace
            t2_val = (images[0] * images[1]).trace
            expected = eval_word(w, images).trace - eval_word(bwa, images).trace
            assert numerator.evaluate({T1: t1_val, T12: t2_val}) == expected


def test_torus_2_5_charpoly():
    res = two_bridge_charpoly(TwoBridgePresentation((1, 1)))
    assert res.Q == abelian_divisor() * res.Phi
    assert is_square_free(res.Phi)
    assert res.phi_at_22 != 0
    assert not res.Phi.is_constant()


def test_swap_roles_symmetry():
    for eps in ((1,), (1, -1), (1, 1), (1, 1, -1)):
        pres = TwoBridgePresentation(eps)
        q = two_bridge_numerator(pres)
        q_swapped = _engine_numerator(pres, swap_roles=True)
        assert q == q_swapped or q == -q_swapped


def test_division_guardrail_aborts_loudly(monkeypatch):
    import skeinlab.charvar as charvar_module

    monkeypatch.setattr(
        charvar_module, "two_bridge_numerator", lambda pres: v(T12)
    )
    with pytest.raises(TwoBridgeDivisionError):
        two_bridge_charpoly(TwoBridgePresentation.preset("trefoil"))


def test_square_free_detector():
    phi = v(T12) - 1
    assert is_square_free(phi)
    assert not is_square_free(phi * phi)
    assert not is_square_free(phi * phi * (v(T1) - 3))
    assert is_square_free(abelian_divisor() * phi)
    assert is_square_free(Poly.const(5))
    assert not is_square_free(Poly.zero())
    # Repeated factor involving only t1.
    sq = (v(T1) - 2) * (v(T1) - 2) * (v(T12) + 1)
    assert not is_square_free(sq)
    # The gcd at t1 = 0 is t2, so the t2 pass must try another point.
    assert is_square_free(v(T12) * v(T12) - v(T1))
    # The leading t2-coefficient vanishes at t1 = 0, which must be skipped.
    assert is_square_free(v(T1) * v(T12) * v(T12) + v(T12) + 1)
    mixed = v(T1) * v(T12) - 1
    assert not is_square_free(mixed * mixed * (v(T12) + 3))
    for var in (T1, T12):
        assert is_square_free((v(var) - 2) * (v(var) + 1))
        assert not is_square_free((v(var) - 2) * (v(var) - 2) * (v(var) + 1))
    # Rational coefficients are scaled to integers before any gcd.
    half = Poly.const(Fraction(1, 2))
    assert not is_square_free((v(T12) - half) * (v(T12) - half) * (v(T1) + 1))
    assert is_square_free((v(T12) - half) * (v(T1) + 1))
    assert is_square_free(half * v(T1) * v(T12) - Fraction(1, 3))
    t1_minus_5 = v(T1) - 5
    for length in range(1, 8):
        for rest in itertools.product((1, -1), repeat=length - 1):
            phi = two_bridge_charpoly(TwoBridgePresentation((1,) + rest)).Phi
            assert is_square_free(phi)
            assert not is_square_free(phi * phi)
            assert not is_square_free(phi * t1_minus_5 * t1_minus_5)


def _reference_uni_gcd(a, b):
    """Monic gcd over Q of coefficient lists (lowest degree first) by Euclid."""

    def trim(c):
        while c and c[-1] == 0:
            c.pop()
        return c

    a, b = trim(list(map(Fraction, a))), trim(list(map(Fraction, b)))
    while b:
        while len(a) >= len(b) and a:
            f = a[-1] / b[-1]
            shift = len(a) - len(b)
            for i, bc in enumerate(b):
                a[shift + i] -= f * bc
            trim(a)
        a, b = b, a
    return [c / a[-1] for c in a]


def _uni_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _random_uni(rng, degree):
    return [rng.randint(-6, 6) for _ in range(degree)] + [rng.choice((-3, -2, -1, 1, 2, 5))]


def test_constant_gcd_matches_fraction_euclid():
    rng = random.Random(17)
    verdicts = set()
    for trial in range(400):
        shape = trial % 4
        f, g = _random_uni(rng, rng.randint(0, 6)), _random_uni(rng, rng.randint(0, 6))
        if shape == 1:  # a common factor
            h = _random_uni(rng, rng.randint(1, 3))
            f, g = _uni_mul(f, h), _uni_mul(g, h)
        elif shape >= 2:  # f has a square factor; g is f' or a multiple of it
            h = _random_uni(rng, rng.randint(1, 3))
            f = _uni_mul(_uni_mul(h, h), f) if shape == 2 else _uni_mul(h, f)
            g = [k * c for k, c in enumerate(f)][1:] or [1]
            if shape == 3:
                g = _uni_mul(g, _random_uni(rng, rng.randint(0, 2)))
        want = len(_reference_uni_gcd(f, g)) == 1
        assert _constant_gcd(f, g) == want, (f, g)
        verdicts.add(want)
    assert verdicts == {True, False}


def test_x_z2_identity():
    assert check_x_z2_identity()
    off_by_one = SkeinElement(
        2, ReductionMode.DYADIC, "abelian", x_z2_relation_poly(offset=5)
    )
    assert to_laurent(off_by_one) == LaurentPoly.const(2, -1)


def test_certified_zero_sums_past_int64_in_blocks():
    # Value -1 (the row [1, -1]) and coefficient -1 both have residue q - 1,
    # so each of the first 2,100 columns adds (q - 1)^2 ~ 2^52 to the int64
    # dot product: more than 2^63 in one sum.  The exact value is 2100 - 2100.
    columns = 4200
    relation = [-1] * (columns // 2) + [1] * (columns // 2)
    monos = [(1,)] * columns
    assert _certified_zero([(1, -1)], monos, [relation], 1, [], {})
    relation[-1] = -1
    assert not _certified_zero([(1, -1)], monos, [relation], 1, [], {})


def test_certified_zero_trusts_a_known_basis_only_for_relations_in_its_span(
    monkeypatch,
):
    # Columns 1, x, x^2.  The samples x = 2, 3 annihilate only (x - 2)(x - 3).
    # x - 2 vanishes on the fresh row x = 2 but not on the sample x = 3, and
    # is outside the known basis's span.  Every bound here needs one prime.
    from skeinlab import charvar

    monos = [(0,), (1,), (2,)]
    samples, fresh = [[1, 2], [1, 3]], [[1, 2]]
    (q,) = _modlin.primes_covering(12 * 4**2)
    v_q = _monomial_matrix_mod_p(samples, monos, q)
    bases = {q: _modlin.nullspace_mod_p(v_q, q)}
    evaluated = []

    def counting(rows, *args):
        evaluated.append(len(rows))
        return _monomial_matrix_mod_p(rows, *args)

    monkeypatch.setattr(charvar, "_monomial_matrix_mod_p", counting)
    assert not _certified_zero(samples, monos, [[-2, 1, 0]], 2, fresh, bases)
    assert evaluated == [3]
    # In the span: only the fresh rows are evaluated, and they still count.
    evaluated.clear()
    assert _certified_zero(samples, monos, [[6, -5, 1]], 2, fresh, bases)
    assert evaluated == [1]
    assert not _certified_zero(samples, monos, [[6, -5, 1]], 2, [[1, 4]], bases)


def _per_step_sl2(rng, walk_length):
    """The reference walk: one determinant-checked matrix per elementary step."""
    m = SL2IntMatrix.identity()
    for _ in range(walk_length):
        entry = rng.randint(-3, 3)
        if rng.randrange(2) == 0:
            step = SL2IntMatrix(1, entry, 0, 1)
        else:
            step = SL2IntMatrix(1, 0, entry, 1)
        m = m * step
    return m


def _reference_sample_row(spec, gen_vars, rng):
    """The reference row: per-step matrices, or Fraction eigenvalues."""
    kind, n = spec
    if kind == "free":
        images = [_per_step_sl2(rng, 5) for _ in range(n)]
        return images, [1] + subset_traces(images, [v.subset for v in gen_vars])
    lams = [
        Fraction(rng.randint(1, 9) * rng.choice((-1, 1)), rng.randint(1, 9))
        for _ in range(n)
    ]
    prods = [prod(lams[i - 1] for i in v.indices) for v in gen_vars]
    values = [x + 1 / x for x in prods]
    h = lcm(*(x.denominator for x in values))
    return None, [h] + [int(x * h) for x in values]


@pytest.mark.parametrize(
    "spec",
    [(kind, n) for kind in ("free", "abelian") for n in (2, 3, 4)],
    ids=lambda spec: "%s:%d" % spec,
)
def test_sample_rows_match_the_reference_walk_and_fraction_rows(spec):
    gen_vars = generator_vars(spec)
    rng, images_rng, replay = random.Random(9), random.Random(9), random.Random(9)
    for _ in range(300):
        images, row = _reference_sample_row(spec, gen_vars, replay)
        if images is not None:
            assert sample_representation(images_rng, spec[1], 5) == tuple(images)
        assert _sample_generator_values(spec, gen_vars, rng) == row
    assert rng.random() == replay.random()


@pytest.mark.parametrize("n, degree, count", [(2, 6, 20), (3, 4, 45)])
def test_abelian_harvest_is_the_exact_laurent_kernel(n, degree, count):
    # C[X(Z^n)] is the ring of symmetric Laurent polynomials, so the degree-<= d
    # relations are exactly the integer kernel of the map sending each monomial
    # in u_i, v_jk to its Laurent image: an answer with no sampling in it.
    spec = ("abelian", n)
    gen_vars = generator_vars(spec)
    monos = monomial_exponents(len(gen_vars), degree)

    def laurent(poly):
        return to_laurent(SkeinElement(n, ReductionMode.DYADIC, "abelian", poly))

    images = [
        laurent(Poly({tuple((gen_vars[i], e) for i, e in enumerate(m) if e): 1}))
        for m in monos
    ]
    keys = sorted({k for image in images for k in image.terms})
    rows = [[image.terms.get(k, 0) for k in keys] for image in images]
    kernel_dim = len(monos) - len(_modlin.int_rref(rows)[1])
    assert kernel_dim == count
    basis = harvest_relations(spec, degree, 2 * len(monos), seed=11)
    assert len(basis.relations) == kernel_dim
    assert all(laurent(rel).is_zero() for rel in basis.relations)


def _sample_rows(spec, count, seed=5):
    gen_vars = generator_vars(spec)
    rng = random.Random(seed)
    rows = [_sample_generator_values(spec, gen_vars, rng) for _ in range(count)]
    return gen_vars, rows


def _fraction_matrix_mod_p(rows, monos, p):
    """The Fraction route: each value a_i / h, one Fermat inverse per value."""
    out = []
    for h, *nums in rows:
        res = []
        for a in nums:
            f = Fraction(a, h)
            res.append(f.numerator % p * pow(f.denominator % p, p - 2, p) % p)
        out.append([
            prod(pow(r, e, p) for r, e in zip(res, mono)) % p
            for mono in monos
        ])
    return out


@pytest.mark.parametrize("spec", [("abelian", 3), ("free", 3)])
def test_monomial_matrix_matches_the_fraction_route(spec):
    gen_vars, rows = _sample_rows(spec, 30)
    monos = monomial_exponents(len(gen_vars), 3)
    for p in itertools.islice(_modlin.primes(), 2):
        got = _monomial_matrix_mod_p(rows, monos, p)
        assert got.tolist() == _fraction_matrix_mod_p(rows, monos, p)


def test_free_sample_rows_are_the_subset_traces():
    # The prefix products consume the same draws as one word per subset.
    spec = ("free", 4)
    gen_vars = generator_vars(spec)
    rng, replay = random.Random(3), random.Random(3)
    for _ in range(10):
        row = _sample_generator_values(spec, gen_vars, rng)
        images = sample_representation(replay, 4, walk_length=5)
        traces = [
            eval_word(reduce_word([(i, 1) for i in v.subset], 4), images).trace
            for v in gen_vars
        ]
        assert row == [1] + traces


def test_certification_bound_covers_the_cleared_value():
    # At a row [h, a_1, ...], h^D times a relation's value is an integer no
    # larger than sum |c| * max|x|^D, which never exceeds the bound of the
    # Fraction values, sum |c| * mag^D * (product of denominators)^D.
    spec = ("abelian", 3)
    gen_vars, rows = _sample_rows(spec, 40)
    rng = random.Random(8)
    for degree in (1, 3, 4):
        monos = monomial_exponents(len(gen_vars), degree)
        for h, *nums in rows:
            rel = [rng.randint(-50, 50) for _ in monos]
            value = sum(
                c * prod(Fraction(a, h) ** e for a, e in zip(nums, mono))
                for c, mono in zip(rel, monos)
            )
            cleared = h**degree * value
            bound = sum(map(abs, rel)) * max(abs(x) for x in [h, *nums]) ** degree
            assert cleared.denominator == 1 and abs(cleared) <= bound
            fracs = [Fraction(a, h) for a in nums]
            mag = max(1, *(abs(f.numerator) // f.denominator + 1 for f in fracs))
            den = prod(f.denominator for f in fracs)
            assert bound <= sum(map(abs, rel)) * mag**degree * den**degree


def test_parse_group_spec():
    assert parse_group_spec("free:3") == ("free", 3)
    assert parse_group_spec("abelian:2") == ("abelian", 2)
    for bad in ("free", "ring:2", "free:0", "free:x"):
        with pytest.raises(CharVarError):
            parse_group_spec(bad)


def verify_relations_on_fresh_samples(basis, count=50, seed=987):
    """Re-verify a harvested basis on newly sampled representations, exactly."""
    gen_vars = generator_vars(basis.group_spec)
    rng = random.Random(f"skeinlab-verify-{basis.group_spec}-{seed}")
    for _ in range(count):
        h, *nums = _sample_generator_values(basis.group_spec, gen_vars, rng)
        assignment = {v: Fraction(a, h) for v, a in zip(gen_vars, nums)}
        if any(rel.evaluate(assignment) != 0 for rel in basis.relations):
            return False
    return True


def test_harvest_abelian_2_degree_3_is_the_x_z2_relation():
    monos = monomial_exponents(3, 3)
    basis = harvest_relations(("abelian", 2), 3, 2 * len(monos), seed=11)
    assert len(basis.relations) == 1
    rel = basis.relations[0]
    known = x_z2_relation_poly()
    assert rel == known or rel == -known
    assert verify_relations_on_fresh_samples(basis)


def test_harvest_free_2_degree_4_empty():
    monos = monomial_exponents(3, 4)
    basis = harvest_relations(("free", 2), 4, 2 * len(monos), seed=11)
    assert basis.relations == []


def _fricke_quartic() -> Poly:
    """F = t123^2 - P*t123 + Q, the one relation of C[X(F_3)] (Magnus,
    Math. Z. 170, 1980), in the subset-trace variables."""
    t1, t2, t3, t12, t13, t23, t123 = map(v, generator_vars(("free", 3)))
    p = t1 * t23 + t2 * t13 + t3 * t12 - t1 * t2 * t3
    q = (
        t1**2 + t2**2 + t3**2 + t12**2 + t13**2 + t23**2
        - t1 * t2 * t12 - t1 * t3 * t13 - t2 * t3 * t23 + t12 * t13 * t23 - 4
    )
    return t123**2 - p * t123 + q


@pytest.mark.parametrize("degree, count", [(4, 1), (5, 8)])
def test_free_3_harvest_spans_the_fricke_multiples(degree, count):
    # The degree-d relations of X(F_3) are exactly F times the monomials of
    # degree <= d - 4: C(d + 3, 7) of them.
    gen_vars = generator_vars(("free", 3))
    monos = monomial_exponents(len(gen_vars), degree)
    basis = harvest_relations(("free", 3), degree, 2 * len(monos), seed=11)
    fricke = _fricke_quartic()
    multiples = [
        Poly({tuple((var, e) for var, e in zip(gen_vars, mono) if e): 1}) * fricke
        for mono in monomial_exponents(len(gen_vars), degree - 4)
    ]
    column = {mono: j for j, mono in enumerate(monos)}

    def rank(polys):
        rows = []
        for poly in polys:
            row = [0] * len(monos)
            for m, c in poly.terms.items():
                powers = dict(m)
                row[column[tuple(powers.get(var, 0) for var in gen_vars)]] = c
            rows.append(row)
        return len(_modlin.int_rref(rows)[1])

    assert len(basis.relations) == len(multiples) == count
    assert rank(basis.relations) == rank(multiples) == count
    assert rank(basis.relations + multiples) == count


def test_harvest_insufficient_samples():
    with pytest.raises(HarvestError):
        harvest_relations(("abelian", 2), 3, 5, seed=0)


def test_harvest_size_is_counted_not_enumerated():
    # The counted sample count matches --samples auto over the listed monomials.
    for spec in [("free", 1), ("free", 2), ("free", 3), ("abelian", 2), ("abelian", 3)]:
        nvars = len(generator_vars(spec))
        for degree in range(5):
            monos = monomial_exponents(nvars, degree)
            assert check_harvest_size(spec, degree) == 2 * len(monos)
            assert check_harvest_size(spec, degree, 7) == 7
    assert check_harvest_size(("free", 3), 7) == 6864  # 23.6M values still run
    # Refused before a generator or a sample exists, through the library too.
    for spec, degree, samples in [(("free", 64), 1, 4), (("free", 10**12), 0, 2),
                                  (("abelian", 10**8), 10**8, None)]:
        with pytest.raises(HarvestError, match="too large"):
            check_harvest_size(spec, degree, samples)
    with pytest.raises(HarvestError, match="too large"):
        harvest_relations(("free", 64), 1, 4, seed=0)


def test_harvest_abelian_3_and_tangent():
    nvars = len(generator_vars(("abelian", 3)))
    monos = monomial_exponents(nvars, 3)
    basis = harvest_relations(("abelian", 3), 3, 2 * len(monos), seed=11)
    # The three pairwise X(Z^2) relations have degree 3, so at least 3 appear.
    assert len(basis.relations) >= 3
    assert verify_relations_on_fresh_samples(basis)
    report = tangent_dim_at_trivial(basis)
    assert report.ambient_dim == 6
    assert report.jacobian_rank_at_chi0 == 0
    assert report.tangent_dim == 6


def test_tangent_abelian_2():
    monos = monomial_exponents(3, 3)
    basis = harvest_relations(("abelian", 2), 3, 2 * len(monos), seed=11)
    report = tangent_dim_at_trivial(basis)
    assert (report.ambient_dim, report.jacobian_rank_at_chi0, report.tangent_dim) == (
        3,
        0,
        3,
    )


def test_relation_json_round_trip():
    monos = monomial_exponents(3, 3)
    basis = harvest_relations(("abelian", 2), 3, 2 * len(monos), seed=11)
    blob = basis.to_dict()
    rebuilt = [
        relation_from_dict(basis.group_spec, entry) for entry in blob["relations"]
    ]
    assert rebuilt == basis.relations


def test_tangent_with_nonvanishing_gradient():
    # A synthetic basis whose relation has a nonzero gradient at the all-2
    # point: rank must be positive and tangent dim drop below ambient.
    from skeinlab.charvar import RelationBasis
    from skeinlab.skein import AbelianVar

    u1 = Poly.variable(AbelianVar((1,)))
    basis = RelationBasis(("abelian", 2), 1, 0, 0, [u1 - 2])
    report = tangent_dim_at_trivial(basis)
    assert report.jacobian_rank_at_chi0 == 1
    assert report.tangent_dim == 2


def test_failed_certification_widens_the_modulus(monkeypatch):
    from skeinlab import charvar

    calls = []

    def fails_once(*args):
        calls.append(len(calls))
        return len(calls) > 1 and _certified_zero(*args)

    monkeypatch.setattr(charvar, "_certified_zero", fails_once)
    monos = monomial_exponents(3, 3)
    basis = harvest_relations(("abelian", 2), 3, 2 * len(monos), seed=11)
    assert len(calls) == 2
    known = x_z2_relation_poly()
    assert basis.relations in ([known], [-known])

    calls.clear()
    monkeypatch.setattr(charvar, "_certified_zero", lambda *args: calls.append(0))
    with pytest.raises(HarvestError):
        harvest_relations(("abelian", 2), 3, 2 * len(monos), seed=11)
    # Every prime after the first gives a candidate; each one fails.
    assert len(calls) == charvar.HARVEST_PRIMES - 1
