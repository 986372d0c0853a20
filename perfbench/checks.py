"""Output checks that share no arithmetic with skeinlab.

Every expected value is recomputed here from the benchmark's own inputs:
2x2 integer matrices, exact rational evaluation of the returned term
dictionaries, Laurent monomials built by hand and Gaussian elimination
modulo a prime.  Nothing here calls skeinlab.oracle, Poly.evaluate or
LaurentPoly.__mul__.  Each check returns a list of error strings; an empty
list means the outputs passed.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from math import comb

import numpy as np

P = 2147483647  # prime for the modular rank and square-free tests


# -- 2x2 integer matrices, as tuples (a, b, c, d) ----------------------------

IDENTITY = (1, 0, 0, 1)


def mat_mul(x, y):
    a, b, c, d = x
    e, f, g, h = y
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def mat_inv(x):
    a, b, c, d = x
    return (d, -b, -c, a)  # adjugate; every matrix here has determinant 1


def mat_pow(x, e):
    base = mat_inv(x) if e < 0 else x
    out = IDENTITY
    for _ in range(abs(e)):
        out = mat_mul(out, base)
    return out


def trace(x):
    return x[0] + x[3]


def random_sl2(rng: random.Random, steps: int = 4):
    """Product of elementary unitriangular matrices: determinant exactly 1."""
    m = IDENTITY
    for _ in range(steps):
        t = rng.randint(-2, 2)
        m = mat_mul(m, (1, t, 0, 1) if rng.random() < 0.5 else (1, 0, t, 1))
    return m


def word_matrix(pairs, gens):
    m = IDENTITY
    for index, exponent in pairs:
        m = mat_mul(m, mat_pow(gens[index - 1], exponent))
    return m


def subset_trace(subset, gens):
    return trace(word_matrix([(i, 1) for i in subset], gens))


# -- exact evaluation of returned term dictionaries -----------------------------


def poly_value(terms, value_of):
    """sum of c * prod value_of(var)**e over a {monomial: coeff} dictionary."""
    total = 0
    for mono, c in terms.items():
        term = Fraction(c)
        for var, e in mono:
            term *= value_of(var) ** e
        total += term
    return total


def _is_power_of_two(n: int) -> bool:
    return n > 0 and n & (n - 1) == 0


# -- modular linear algebra ------------------------------------------------------


def _mod(c) -> int:
    c = Fraction(c)
    return c.numerator % P * pow(c.denominator % P, P - 2, P) % P


def rank_mod_p(rows) -> int:
    """Rank over GF(P) of a list of integer rows (P < 2^31 keeps int64 exact)."""
    if not rows or not rows[0]:
        return 0
    m = np.array([[_mod(c) for c in row] for row in rows], dtype=np.int64)
    rank = 0
    for col in range(m.shape[1]):
        nz = np.nonzero(m[rank:, col])[0]
        if nz.size == 0:
            continue
        piv = rank + int(nz[0])
        m[[rank, piv]] = m[[piv, rank]]
        m[rank] = m[rank] * pow(int(m[rank, col]), P - 2, P) % P
        others = np.nonzero(m[:, col])[0]
        others = others[others != rank]
        if others.size:
            m[others] = (m[others] - np.outer(m[others, col], m[rank])) % P
        rank += 1
        if rank == m.shape[0]:
            break
    return rank


# -- trace-reduce ------------------------------------------------------------------


def check_trace_words(words, results, rng: random.Random, points: int = 2):
    """words: [(rank, pairs)]; results: {mode: [terms dict or None]}.

    At random SL2(Z) generators the polynomial, evaluated at the subset
    traces, must equal the trace of the word's matrix.  Integral forms use
    only subset variables of {1..rank} with integer coefficients; dyadic
    forms only |S| <= 3 and power-of-two denominators.
    """
    errors = []
    for k, (rank, pairs) in enumerate(words):
        for mode, polys in results.items():
            terms = polys[k]
            if terms is None:
                continue
            for mono, c in terms.items():
                den = Fraction(c).denominator
                if mode == "integral" and den != 1:
                    errors.append(f"word {k}: integral coefficient {c}")
                if mode == "dyadic" and not _is_power_of_two(den):
                    errors.append(f"word {k}: non-dyadic coefficient {c}")
                for var, _ in mono:
                    s = var.subset
                    if not s or list(s) != sorted(set(s)) or s[0] < 1 or s[-1] > rank:
                        errors.append(f"word {k}: variable {s} outside rank {rank}")
                    elif mode == "dyadic" and len(s) > 3:
                        errors.append(f"word {k}: dyadic variable {s} has |S| > 3")
        for _ in range(points):
            gens = [random_sl2(rng) for _ in range(rank)]
            expected = trace(word_matrix(pairs, gens))
            cache = {}

            def value_of(var):
                if var.subset not in cache:
                    cache[var.subset] = subset_trace(var.subset, gens)
                return cache[var.subset]

            for mode, polys in results.items():
                if polys[k] is not None:
                    got = poly_value(polys[k], value_of)
                    if got != expected:
                        errors.append(f"word {k} ({mode}): value {got} != trace {expected}")
    return errors


# -- abelian-laurent ----------------------------------------------------------------


def sym_laurent(v) -> dict:
    """x^v + x^-v as {exponent tuple: coeff}; the zero vector gives 2."""
    v = tuple(v)
    neg = tuple(-e for e in v)
    return {v: 2} if v == neg else {v: 1, neg: 1}


def _dict_add(*dicts) -> dict:
    out = {}
    for d in dicts:
        for k, c in d.items():
            out[k] = out.get(k, 0) + c
    return {k: c for k, c in out.items() if c != 0}


def _abelian_value(lams):
    def value_of(var):
        prod = Fraction(1)
        for i in var.indices:
            prod *= lams[i - 1]
        return prod + 1 / prod

    return value_of


def _lam_power(lams, v):
    out = Fraction(1)
    for lam, e in zip(lams, v):
        out *= lam**e
    return out


def check_abelian_pairs(pairs, outputs, rng: random.Random):
    """pairs: [(v, w)]; outputs: per pair a dict of term dictionaries.

    Keys: dv, dw, prod, iv (canonical forms), Lv, Lw, Lprod, Liv (Laurent
    images), sum_plus, sum_minus (canonical forms of v+w and v-w, computed
    after the timed phase).
    """
    errors = []
    for k, ((v, w), out) in enumerate(zip(pairs, outputs)):
        if out is None:
            continue
        vp = [a + b for a, b in zip(v, w)]
        vm = [a - b for a, b in zip(v, w)]
        if out["Lv"] != sym_laurent(v):
            errors.append(f"pair {k}: image of [v] is not x^v + x^-v")
        if out["Lw"] != sym_laurent(w):
            errors.append(f"pair {k}: image of [w] is not x^w + x^-w")
        if out["Lprod"] != _dict_add(sym_laurent(vp), sym_laurent(vm)):
            errors.append(f"pair {k}: image of [v][w] is not the four-monomial sum")
        if out["Liv"] != out["Lv"]:
            errors.append(f"pair {k}: integral and dyadic images of [v] differ")
        for key in ("dv", "dw", "prod"):
            for mono in out[key]:
                if any(len(var.indices) > 2 for var, _ in mono):
                    errors.append(f"pair {k}: dyadic {key} uses a support of size > 2")
        # A diagonal character x_i -> lambda_i must send [v] to
        # lambda^v + lambda^-v, and the product to the product of values.
        lams = [Fraction(rng.randint(1, 7) * rng.choice((-1, 1)), rng.randint(1, 7))
                for _ in v]
        value_of = _abelian_value(lams)
        fv = _lam_power(lams, v) + _lam_power(lams, [-e for e in v])
        fw = _lam_power(lams, w) + _lam_power(lams, [-e for e in w])
        for key, expected in (("dv", fv), ("iv", fv), ("dw", fw), ("prod", fv * fw)):
            if poly_value(out[key], value_of) != expected:
                errors.append(f"pair {k}: {key} has the wrong value at a character")
        # The product is not reduced modulo the relations among u_i, v_jk, so
        # [v][w] = [v+w] + [v-w] holds in the algebra, tested at the character.
        sums = poly_value(out["sum_plus"], value_of) + poly_value(out["sum_minus"], value_of)
        if poly_value(out["prod"], value_of) != sums:
            errors.append(f"pair {k}: [v][w] != [v+w] + [v-w] at a character")
    return errors


# -- harvest -------------------------------------------------------------------------


def _laurent_image(mono_exps, supports):
    """Expansion of prod (x^s + x^-s)^e over the generators, as a dict."""
    out = {tuple(0 for _ in supports[0]): 1}
    for s, e in zip(supports, mono_exps):
        for _ in range(e):
            step = {}
            for ev, c in out.items():
                for sign in (1, -1):
                    key = tuple(a + sign * b for a, b in zip(ev, s))
                    step[key] = step.get(key, 0) + c
            out = step
    return out


def abelian_relation_count(n: int, degree: int) -> int:
    """Dimension of the degree-<= d relations among u_i, v_jk on (C*)^n / +-1.

    The symmetric Laurent model is injective on the coordinate ring, so the
    relations are the kernel of the map from monomials to Laurent images.
    """
    supports = [tuple(int(i == a) for i in range(n)) for a in range(n)]
    supports += [
        tuple(int(i in (a, b)) for i in range(n))
        for a, b in itertools.combinations(range(n), 2)
    ]
    monos = [m for m in itertools.product(range(degree + 1), repeat=len(supports))
             if sum(m) <= degree]
    images = [_laurent_image(m, supports) for m in monos]
    keys = sorted({k for img in images for k in img})
    col = {k: j for j, k in enumerate(keys)}
    rows = []
    for img in images:
        row = [0] * len(keys)
        for k, c in img.items():
            row[col[k]] = c
        rows.append(row)
    return len(monos) - rank_mod_p(rows)


def expected_relation_count(kind: str, n: int, degree: int) -> int:
    """Closed forms for the principal cases; the Laurent kernel otherwise."""
    if kind == "free" and n == 2:
        return 0  # the trace map of F_2 is onto C^3: no relations
    if kind == "free" and n == 3:
        return comb(degree + 3, 7)  # multiples of the degree-4 Fricke relation
    if kind == "abelian" and n == 2:
        return comb(degree, 3)  # multiples of the degree-3 X(Z^2) equation
    if kind == "abelian":
        return abelian_relation_count(n, degree)
    raise ValueError(f"no expected count for {kind}:{n}")


def tangent_dim(relations, gen_vars) -> int:
    """Ambient dimension minus the Jacobian rank at the all-2 point."""
    index = {v: i for i, v in enumerate(gen_vars)}
    rows = []
    for terms in relations:
        row = [0] * len(gen_vars)
        for mono, c in terms.items():
            deg = sum(e for _, e in mono)
            for var, e in mono:
                row[index[var]] += Fraction(c) * e * 2 ** (deg - 1)
        rows.append(row)
    return len(gen_vars) - rank_mod_p(rows)


def check_harvest(instance, relations, gen_vars, tangent, rng: random.Random, points: int = 4):
    """instance: (kind, n, degree, expected tangent dim).

    relations: term dictionaries; gen_vars: generator variables in order;
    tangent: the program's tangent dimension.
    """
    kind, n, degree, expected_tangent = instance
    errors = []
    label = f"{kind}:{n} degree {degree}"
    want = expected_relation_count(kind, n, degree)
    if len(relations) != want:
        errors.append(f"{label}: {len(relations)} relations, expected {want}")
    for _ in range(points):
        if kind == "free":
            gens = [random_sl2(rng, steps=5) for _ in range(n)]
            cache = {}

            def value_of(var):
                if var.subset not in cache:
                    cache[var.subset] = subset_trace(var.subset, gens)
                return cache[var.subset]
        else:
            value_of = _abelian_value(
                [Fraction(rng.randint(1, 9) * rng.choice((-1, 1)), rng.randint(1, 9))
                 for _ in range(n)]
            )
        for j, terms in enumerate(relations):
            if poly_value(terms, value_of) != 0:
                errors.append(f"{label}: relation {j} does not vanish at a fresh point")
    monos = list({m for terms in relations for m in terms})
    rows = [[terms.get(m, 0) for m in monos] for terms in relations]
    if rank_mod_p(rows) != len(relations):
        errors.append(f"{label}: relations are linearly dependent")
    own = tangent_dim(relations, gen_vars)
    if not tangent == own == expected_tangent:
        errors.append(
            f"{label}: tangent dimension {tangent}, recomputed {own},"
            f" expected {expected_tangent}"
        )
    return errors


# -- two-bridge -----------------------------------------------------------------------


def _xy_dict(terms):
    """{(deg t1, deg t12): coeff}, or None if another variable appears."""
    out = {}
    for mono, c in terms.items():
        ex = ey = 0
        for var, e in mono:
            if var.subset == (1,):
                ex = e
            elif var.subset == (1, 2):
                ey = e
            else:
                return None
        out[(ex, ey)] = c
    return out


def _uni_mod(coeffs):
    """Strip trailing zeros of a coefficient list mod P (lowest degree first)."""
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def _uni_gcd_degree(f, g) -> int:
    while g:
        inv = pow(g[-1], P - 2, P)
        while len(f) >= len(g):
            q = f[-1] * inv % P
            shift = len(f) - len(g)
            for i, c in enumerate(g):
                f[shift + i] = (f[shift + i] - q * c) % P
            _uni_mod(f)
            if not f:
                break
        f, g = g, f
    return len(f) - 1


def _square_free_in(xy, axis: int, rng: random.Random, tries: int = 6) -> bool:
    """Certify that no repeated factor of positive degree in `axis` exists.

    Specialize the other variable at random c; if the result keeps its
    degree and is square-free mod P, so is every such factor over Q.
    """
    degree = max(k[axis] for k in xy)
    if degree == 0:
        return True
    for _ in range(tries):
        c = rng.randint(-1000, 1000)
        f = [0] * (degree + 1)
        for key, coeff in xy.items():
            f[key[axis]] = (f[key[axis]] + _mod(coeff) * pow(c, key[1 - axis], P)) % P
        if f[degree] == 0:
            continue
        df = [(i * f[i]) % P for i in range(1, degree + 1)]
        if _uni_gcd_degree(_uni_mod(list(f)), _uni_mod(df)) == 0:
            return True
    return False


def relator_pairs(eps):
    n = len(eps)
    out = []
    for i in range(n):
        out += [(1, eps[i]), (2, eps[n - 1 - i])]
    return out


def check_two_bridge(eps, q_terms, phi_terms, square_free, rng: random.Random, points: int = 3):
    """Q = (t1^2 - t2 - 2) * Phi, Q = +-(tr W - tr(B W A^-1)) when B ~ A, and
    the square-free verdict equal to a certificate made mod P."""
    errors = []
    label = f"epsilons {list(eps)}"
    q, phi = _xy_dict(q_terms), _xy_dict(phi_terms)
    if q is None or phi is None:
        return [f"{label}: Q or Phi uses a variable other than t1, t2"]
    product = {}
    for (dx, dy), c in (((2, 0), 1), ((0, 1), -1), ((0, 0), -2)):
        for (ex, ey), d in phi.items():
            key = (ex + dx, ey + dy)
            product[key] = product.get(key, 0) + c * d
    if {k: c for k, c in product.items() if c != 0} != q:
        errors.append(f"{label}: Q != (t1^2 - t2 - 2) * Phi")
    # Phi is sign-normalized, so Q matches the trace difference up to one
    # global sign.
    pairs = relator_pairs(eps)
    signs = set()
    for _ in range(points):
        a = random_sl2(rng)
        p = random_sl2(rng)
        b = mat_mul(mat_mul(p, a), mat_inv(p))
        w = word_matrix(pairs, [a, b])
        expected = trace(w) - trace(mat_mul(mat_mul(b, w), mat_inv(a)))
        t1, t2 = trace(a), trace(mat_mul(a, b))
        got = sum(Fraction(c) * t1**ex * t2**ey for (ex, ey), c in q.items())
        if got or expected:  # a zero difference fixes no sign
            signs.add(1 if got == expected else -1 if got == -expected else 0)
    if len(signs) > 1 or 0 in signs:
        errors.append(f"{label}: Q(tr A, tr AB) != +-(tr W - tr(B W A^-1))")
    # The certificate proves Phi square-free when it holds; when it fails,
    # Phi is almost surely not square-free.  Either verdict must agree.
    certified = _square_free_in(phi, 0, rng) and _square_free_in(phi, 1, rng)
    if square_free and not certified:
        errors.append(f"{label}: square-free verdict True could not be certified")
    if not square_free and certified:
        errors.append(f"{label}: square-free verdict False, but Phi is certified square-free")
    return errors
