"""Exact sparse multivariate polynomials and Laurent polynomials.

Coefficients are exact rationals: plain Python ints wherever possible,
`fractions.Fraction` once denominators appear.  A polynomial is a map from
monomials to coefficients; a monomial is a tuple of (variable, power) pairs
sorted by the variable order.  The global term order is graded-lex over the
variable order, which keeps serialized canonical forms byte-stable.
Laurent polynomials key their terms by dense exponent tuples instead; both
kinds share one implementation of the ring operations (_SparsePoly).
"""

from __future__ import annotations

import operator
from fractions import Fraction
from itertools import chain
from typing import Iterable, Mapping, Sequence

Coeff = int | Fraction

Monomial = tuple  # tuple[tuple[var, int], ...], sorted by var


class PolyError(ValueError):
    pass


class PolyDivisionError(PolyError):
    pass


class PolyEvalError(PolyError):
    pass


def normalize_coeff(c: Coeff) -> Coeff:
    """Collapse integral Fractions to int; keep everything else as is."""
    if type(c) is int:  # the common case; isinstance on Fraction is an ABC check
        return c
    if isinstance(c, Fraction) and c.denominator == 1:
        return int(c)
    return c


def is_integral(c: Coeff) -> bool:
    return isinstance(c, int) or c.denominator == 1


def is_dyadic(c: Coeff) -> bool:
    """True iff the denominator, in lowest terms, is a power of two."""
    d = 1 if isinstance(c, int) else c.denominator
    return d & (d - 1) == 0


def coeff_to_str(c: Coeff) -> str:
    return str(c)


def coeff_from_str(s: str) -> Coeff:
    return normalize_coeff(Fraction(s))


class SubsetVar:
    """Trace coordinate t_S for a nonempty sorted index set S.

    Variables compare by (cardinality, lexicographic), so t_1 < t_2 < t_12.
    Instances are interned: construction with an equal subset returns the
    same object, which keeps monomial hashing cheap.
    """

    __slots__ = ("subset", "_key", "_hash")
    _registry: dict[tuple[int, ...], "SubsetVar"] = {}

    def __new__(cls, subset: Iterable[int]) -> "SubsetVar":
        key = tuple(sorted(set(subset)))
        cached = cls._registry.get(key)
        if cached is not None:
            return cached
        if not key or key[0] < 1:
            raise PolyError(f"subset must be a nonempty set of positive ints: {key}")
        self = object.__new__(cls)
        self.subset = key
        self._key = (len(key), key)
        self._hash = hash((cls.__name__, key))
        cls._registry[key] = self
        return self

    @property
    def sort_key(self) -> tuple:
        return self._key

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        return self is other or (
            isinstance(other, SubsetVar) and self.subset == other.subset
        )

    def __lt__(self, other: "SubsetVar") -> bool:
        return self._key < other._key

    def __repr__(self) -> str:
        return f"SubsetVar({self.subset})"

    def __str__(self) -> str:
        if len(self.subset) == 1:
            return f"t{self.subset[0]}"
        return "t[" + ",".join(map(str, self.subset)) + "]"


def _mono_degree(m: Monomial) -> int:
    return sum(e for _, e in m)


def _mono_normalize(m: Monomial) -> Monomial:
    """Sort pairs by variable, merge repeats, drop zero exponents."""
    if all(
        m[i][1] > 0 and (i == 0 or m[i - 1][0].sort_key < m[i][0].sort_key)
        for i in range(len(m))
    ):
        return tuple(m)
    merged: dict = {}
    for var, e in m:
        merged[var] = merged.get(var, 0) + e
    pairs = [(var, e) for var, e in merged.items() if e != 0]
    if any(e < 0 for _, e in pairs):
        raise PolyError(f"negative exponent in monomial {m}")
    pairs.sort(key=lambda t: t[0].sort_key)
    return tuple(pairs)


def _add_terms(out: dict, items: Iterable) -> dict:
    """Add (monomial, nonzero normalized coefficient) pairs into out, in place.

    Zero sums are dropped and integral sums become ints, so out stays a valid
    terms dict.  Returns out.
    """
    get = out.get
    for m, c in items:
        acc = get(m)
        if acc is None:
            out[m] = c
            continue
        s = acc + c
        if s:
            out[m] = normalize_coeff(s)
        else:
            del out[m]
    return out


def _sum_terms(polys: Iterable) -> dict:
    return _add_terms({}, chain.from_iterable(p.terms.items() for p in polys))


class _SparsePoly:
    """Exact sparse terms {monomial: coefficient} and the ring operations on them.

    Coefficients are never zero, and integral ones are ints.  Poly and
    LaurentPoly differ only in their monomials.  Each supplies `_mono_mul`
    (the product of two monomials), `_like` (an element of the same ring
    around a finished terms dict), `_const` (a constant of that ring) and
    `_ring` (equal for elements that may be combined).
    """

    __slots__ = ("terms",)

    def is_zero(self) -> bool:
        return not self.terms

    def _coerce(self, x):
        if type(x) is type(self):
            if x._ring != self._ring:
                raise PolyError(f"rank mismatch: {self._ring} != {x._ring}")
            return x
        if isinstance(x, (int, Fraction)):
            return self._const(x)
        return NotImplemented

    def __eq__(self, other: object) -> bool:
        if type(other) is type(self):
            return self._ring == other._ring and self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self.terms == self._const(other).terms
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self._ring, frozenset(self.terms.items())))

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._like(_add_terms(dict(self.terms), other.terms.items()))

    __radd__ = __add__

    def __neg__(self):
        return self._like({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        mono_mul = self._mono_mul
        out: dict = {}
        get = out.get
        for m1, c1 in a.items():
            for m2, c2 in b.items():
                m = mono_mul(m1, m2)
                acc = get(m)
                if acc is None:
                    out[m] = c1 * c2
                    continue
                s = acc + c1 * c2
                if s:
                    out[m] = s
                else:
                    del out[m]
        for m, c in out.items():
            if type(c) is not int:
                out[m] = normalize_coeff(c)
        return self._like(out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise PolyError("negative power")
        result = self._const(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result


class Poly(_SparsePoly):
    """Sparse multivariate polynomial with exact rational coefficients."""

    __slots__ = ()
    _ring = None  # all polynomials share one ring, whatever their variables
    # Bound in Poly itself so that Poly.__dict__ holds them: perfbench's
    # tracer wraps the multiplication it finds there.
    __mul__ = __rmul__ = _SparsePoly.__mul__

    def __init__(self, terms: Mapping[Monomial, Coeff] | None = None):
        items = (terms or {}).items()
        self.terms: dict[Monomial, Coeff] = _add_terms(
            {}, ((_mono_normalize(m), normalize_coeff(c)) for m, c in items if c)
        )

    @classmethod
    def _raw(cls, terms: dict[Monomial, Coeff]) -> "Poly":
        p = object.__new__(cls)
        p.terms = terms
        return p

    _like = _raw

    @staticmethod
    def _mono_mul(m1: Monomial, m2: Monomial) -> Monomial:
        """Merge two monomials, each sorted by variable."""
        if not m1:
            return m2
        if not m2:
            return m1
        out = []
        i = j = 0
        n1, n2 = len(m1), len(m2)
        while i < n1 and j < n2:
            v1, e1 = m1[i]
            v2, e2 = m2[j]
            if v1 is v2 or v1 == v2:
                out.append((v1, e1 + e2))
                i += 1
                j += 1
            elif v1.sort_key < v2.sort_key:
                out.append(m1[i])
                i += 1
            else:
                out.append(m2[j])
                j += 1
        out.extend(m1[i:])
        out.extend(m2[j:])
        return tuple(out)

    @classmethod
    def zero(cls) -> "Poly":
        return cls._raw({})

    @classmethod
    def const(cls, c: Coeff) -> "Poly":
        c = normalize_coeff(c)
        return cls._raw({(): c} if c != 0 else {})

    _const = const

    @classmethod
    def variable(cls, var) -> "Poly":
        return cls._raw({((var, 1),): 1})

    @classmethod
    def sum(cls, polys: Iterable["Poly"]) -> "Poly":
        """Sum many polynomials with a single accumulator dict."""
        return cls._raw(_sum_terms(polys))

    def is_constant(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and () in self.terms)

    def variables(self) -> list:
        seen = set()
        for m in self.terms:
            for v, _ in m:
                seen.add(v)
        return sorted(seen, key=lambda v: v.sort_key)

    def total_degree(self) -> int:
        if not self.terms:
            return 0
        return max(_mono_degree(m) for m in self.terms)

    def sorted_terms(self) -> list[tuple[Monomial, Coeff]]:
        """Terms in descending graded-lex order (leading term first)."""
        varlist = self.variables()
        pos = {v: i for i, v in enumerate(varlist)}

        def key(item):
            m, _ = item
            dense = [0] * len(varlist)
            for v, e in m:
                dense[pos[v]] = e
            return (_mono_degree(m), tuple(dense))

        return sorted(self.terms.items(), key=key, reverse=True)

    def evaluate(self, assignment: Mapping) -> Coeff:
        """Exact value at a variable assignment covering all variables."""
        total: Coeff = 0
        for m, c in self.terms.items():
            val = c
            for v, e in m:
                try:
                    x = assignment[v]
                except KeyError:
                    raise PolyEvalError(f"missing assignment for variable {v}") from None
                val = val * x**e
            total = total + val
        return normalize_coeff(total)

    def substitute(self, mapping: Mapping) -> "Poly":
        """Replace each mapped variable by a polynomial (or constant)."""
        pieces = []
        for m, c in self.terms.items():
            term = Poly.const(c)
            for v, e in m:
                if v in mapping:
                    image = mapping[v]
                    if not isinstance(image, Poly):
                        image = Poly.const(image)
                    term = term * image**e
                else:
                    term = term * Poly._raw({((v, e),): 1})
            pieces.append(term)
        return Poly.sum(pieces)

    def derivative(self, var) -> "Poly":
        pieces = []
        for m, c in self.terms.items():
            for i, (v, e) in enumerate(m):
                if v == var:
                    rest = m[:i] + ((v, e - 1),) + m[i + 1 :] if e > 1 else m[:i] + m[i + 1 :]
                    pieces.append((rest, normalize_coeff(c * e)))
                    break
        return Poly._raw(_add_terms({}, pieces))

    def map_variables(self, fn) -> "Poly":
        """Rebuild the polynomial with each variable replaced by fn(var)."""
        pieces = (
            (tuple(sorted(((fn(v), e) for v, e in m), key=lambda p: p[0].sort_key)), c)
            for m, c in self.terms.items()
        )
        return Poly._raw(_add_terms({}, pieces))

    def __repr__(self) -> str:
        return f"Poly({poly_pretty(self)})"


def _lex_key(m: Monomial, order_pos: Mapping) -> tuple:
    dense = [0] * len(order_pos)
    for v, e in m:
        if v not in order_pos:
            raise PolyDivisionError(f"variable {v} not in division order")
        dense[order_pos[v]] = e
    return tuple(dense)


def poly_divide(p: Poly, d: Poly, var_order: Sequence) -> tuple[Poly, Poly]:
    """Single-divisor multivariate division under pure lex order.

    var_order lists the variables from most to least significant and must
    cover every variable of p and d.  Returns (quotient, remainder) with
    p = quotient*d + remainder and no remainder term divisible by the
    leading monomial of d.
    """
    if d.is_zero():
        raise PolyDivisionError("division by the zero polynomial")
    order_pos = {v: i for i, v in enumerate(var_order)}
    d_terms = sorted(d.terms.items(), key=lambda t: _lex_key(t[0], order_pos), reverse=True)
    lt_mono, lt_coeff = d_terms[0]
    lt_exp = dict(lt_mono)

    quotient = Poly.zero()
    remainder = Poly.zero()
    rest = p
    while not rest.is_zero():
        terms = sorted(
            rest.terms.items(), key=lambda t: _lex_key(t[0], order_pos), reverse=True
        )
        mono, coeff = terms[0]
        exp = dict(mono)
        if all(exp.get(v, 0) >= e for v, e in lt_exp.items()):
            qexp = {v: e - lt_exp.get(v, 0) for v, e in exp.items()}
            qm = tuple(
                sorted(
                    ((v, e) for v, e in qexp.items() if e > 0),
                    key=lambda t: t[0].sort_key,
                )
            )
            qc = normalize_coeff(Fraction(coeff) / Fraction(lt_coeff))
            qpoly = Poly._raw({qm: qc})
            quotient = quotient + qpoly
            rest = rest - qpoly * d
        else:
            tpoly = Poly._raw({mono: coeff})
            remainder = remainder + tpoly
            rest = rest - tpoly
    return quotient, remainder


class LaurentPoly(_SparsePoly):
    """Exact Laurent polynomial in n commuting variables x_1, ..., x_n.

    Monomials are dense exponent tuples of length `rank`.
    """

    __slots__ = ("rank",)
    # Bound here for the same reason as in Poly.
    __mul__ = __rmul__ = _SparsePoly.__mul__

    def __init__(self, rank: int, terms: Mapping[tuple[int, ...], Coeff] | None = None):
        if rank < 1:
            raise PolyError(f"rank must be >= 1, got {rank}")
        self.rank = rank
        self.terms: dict[tuple[int, ...], Coeff] = {}
        if terms:
            for ev, c in terms.items():
                if len(ev) != rank:
                    raise PolyError(f"exponent vector {ev} has wrong length")
                c = normalize_coeff(c)
                if c != 0:
                    self.terms[tuple(ev)] = c

    @classmethod
    def _raw(cls, rank: int, terms: dict[tuple[int, ...], Coeff]) -> "LaurentPoly":
        p = object.__new__(cls)
        p.rank = rank
        p.terms = terms
        return p

    @property
    def _ring(self) -> int:
        return self.rank

    def _like(self, terms: dict[tuple[int, ...], Coeff]) -> "LaurentPoly":
        return LaurentPoly._raw(self.rank, terms)

    def _const(self, c: Coeff) -> "LaurentPoly":
        return LaurentPoly.const(self.rank, c)

    @staticmethod
    def _mono_mul(e1: tuple[int, ...], e2: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(map(operator.add, e1, e2))

    @classmethod
    def zero(cls, rank: int) -> "LaurentPoly":
        return cls._raw(rank, {})

    @classmethod
    def const(cls, rank: int, c: Coeff) -> "LaurentPoly":
        c = normalize_coeff(c)
        zero = tuple([0] * rank)
        return cls._raw(rank, {zero: c} if c != 0 else {})

    @classmethod
    def monomial(cls, rank: int, exponents: Sequence[int], c: Coeff = 1) -> "LaurentPoly":
        return cls(rank, {tuple(exponents): c})

    @classmethod
    def sum(cls, rank: int, polys: Iterable["LaurentPoly"]) -> "LaurentPoly":
        return cls._raw(rank, _sum_terms(polys))

    def invert_variables(self) -> "LaurentPoly":
        """Image under the involution x_i -> x_i^(-1)."""
        return LaurentPoly._raw(
            self.rank, {tuple(-e for e in ev): c for ev, c in self.terms.items()}
        )

    def is_symmetric(self) -> bool:
        """True iff invariant under simultaneous inversion of all variables."""
        for ev, c in self.terms.items():
            if self.terms.get(tuple(-e for e in ev), 0) != c:
                return False
        return True

    def evaluate(self, values: Sequence[Coeff]) -> Coeff:
        """Exact value at nonzero rational points."""
        if len(values) != self.rank:
            raise PolyEvalError(f"expected {self.rank} values, got {len(values)}")
        vals = [Fraction(v) for v in values]
        if any(v == 0 for v in vals):
            raise PolyEvalError("Laurent evaluation requires nonzero values")
        total = Fraction(0)
        for ev, c in self.terms.items():
            val = Fraction(c)
            for x, e in zip(vals, ev):
                val *= x**e
            total += val
        return normalize_coeff(total)

    def sorted_terms(self) -> list[tuple[tuple[int, ...], Coeff]]:
        return sorted(self.terms.items())

    def __repr__(self) -> str:
        if not self.terms:
            return "LaurentPoly(0)"
        bits = []
        for ev, c in self.sorted_terms():
            mono = "*".join(
                f"x{i + 1}" + (f"^{e}" if e != 1 else "")
                for i, e in enumerate(ev)
                if e != 0
            )
            bits.append(f"{c}" + (f"*{mono}" if mono else ""))
        return "LaurentPoly(" + " + ".join(bits) + ")"


# ---------------------------------------------------------------------------
# Serialization and pretty printing
# ---------------------------------------------------------------------------


def _mono_entry_to_json(var, power: int) -> dict:
    if isinstance(var, SubsetVar):
        return {"subset": list(var.subset), "power": power}
    return {"var": str(var), "power": power}


def poly_to_dict(p: Poly) -> dict:
    return {
        "terms": [
            {
                "coeff": coeff_to_str(c),
                "monomial": [_mono_entry_to_json(v, e) for v, e in m],
            }
            for m, c in p.sorted_terms()
        ]
    }


def poly_from_dict(data: Mapping, var_parser=None) -> Poly:
    """Rebuild a Poly from the JSON schema.

    Monomial entries carrying a "subset" key become SubsetVars; entries with
    a "var" name are resolved through var_parser.
    """
    terms: dict[Monomial, Coeff] = {}
    for entry in data["terms"]:
        mono = []
        for item in entry["monomial"]:
            if "subset" in item:
                var = SubsetVar(item["subset"])
            else:
                if var_parser is None:
                    raise PolyError(f"no parser for variable {item['var']!r}")
                var = var_parser(item["var"])
            mono.append((var, int(item["power"])))
        mono.sort(key=lambda t: t[0].sort_key)
        terms[tuple(mono)] = coeff_from_str(entry["coeff"])
    return Poly(terms)


def laurent_to_dict(p: LaurentPoly) -> dict:
    return {
        "rank": p.rank,
        "terms": [
            {"coeff": coeff_to_str(c), "exponents": list(ev)}
            for ev, c in p.sorted_terms()
        ],
    }


def laurent_from_dict(data: Mapping) -> LaurentPoly:
    return LaurentPoly(
        int(data["rank"]),
        {tuple(t["exponents"]): coeff_from_str(t["coeff"]) for t in data["terms"]},
    )


def poly_pretty(p: Poly) -> str:
    """Deterministic display form, graded-lex descending: `t1*t2 - t[1,2]`."""
    if p.is_zero():
        return "0"
    chunks: list[str] = []
    for i, (m, c) in enumerate(p.sorted_terms()):
        mono = "*".join(str(v) + (f"^{e}" if e != 1 else "") for v, e in m)
        mag = abs(c)
        if not mono:
            body = str(mag)
        elif mag == 1:
            body = mono
        else:
            body = f"{mag}*{mono}"
        if i == 0:
            chunks.append(body if c > 0 else f"-{body}")
        else:
            chunks.append((" + " if c > 0 else " - ") + body)
    return "".join(chunks)
