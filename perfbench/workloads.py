"""The four workloads: seeded inputs, one timed round, and its checks.

A round is one pass over the workload's inputs in a fresh interpreter, so
every memo table starts empty.  run_round() times each operation; check()
runs afterwards and compares the outputs with checks.py.  Each class keeps
the skeinlab imports inside setup(), which the caller times.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
from time import perf_counter

import checks

TRACE_RANKS = range(1, 7)
TRACE_LENGTHS = range(2, 13)
TRACE_REPEATS = 16

ABELIAN_RANKS = range(1, 5)
ABELIAN_PAIRS_PER_RANK = 80

HARVEST_INSTANCES = (
    # (group kind, rank, degree, expected tangent dimension at chi_0)
    ("free", 3, 5, 7),
    ("abelian", 3, 4, 6),
    ("abelian", 2, 6, 3),
    ("free", 2, 4, 3),
)

TWO_BRIDGE_LENGTHS = range(2, 8)


def _session_engine_stats():
    """Rule counts and memo size of the session-wide integral engine, which
    skein and charvar use through trace_engine.reduce_trace."""
    from skeinlab import trace_engine

    engine = trace_engine.get_engine(trace_engine.ReductionMode.INTEGRAL)
    return Counter(engine.stats), len(engine.memo)


def _timed(op, ops_ms):
    """Run op(); record its wall time in ms; return (result or None, failed)."""
    t0 = perf_counter()
    try:
        out, failed = op(), False
    except Exception:  # an operation that raises counts as failed
        out, failed = None, True
    ops_ms.append((perf_counter() - t0) * 1e3)
    return out, failed


class TraceReduce:
    """Cold TraceEngine.reduce of seeded random words, integral and dyadic."""

    def setup(self, seed: int) -> None:
        from skeinlab import trace_engine
        from skeinlab.words import reduce_word

        self.te = trace_engine
        self.rule = trace_engine.derive_rule_k4()
        rng = random.Random(f"perfbench-trace-reduce-{seed}")
        self.raw = []  # (rank, [(index, exponent), ...]) with exact symbol length
        for _ in range(TRACE_REPEATS):
            for rank in TRACE_RANKS:
                for length in TRACE_LENGTHS:
                    self.raw.append((rank, _random_pairs(rng, rank, length)))
        rng.shuffle(self.raw)
        self.words = [reduce_word(pairs, rank) for rank, pairs in self.raw]
        self.check_seed = f"perfbench-trace-check-{seed}"

    def run_round(self):
        M = self.te.ReductionMode
        self.engines = {
            "integral": self.te.TraceEngine(M.INTEGRAL),
            "dyadic": self.te.TraceEngine(M.DYADIC, rule_k4=self.rule),
        }
        ops_ms, failed, out = [], 0, {}
        for mode, engine in self.engines.items():
            polys = []
            for w in self.words:
                poly, bad = _timed(lambda: engine.reduce(w), ops_ms)
                failed += bad
                polys.append(poly)
            out[mode] = polys
        self.out = out
        return ops_ms, failed

    def outputs(self):
        return [[None if p is None else list(p.terms.items()) for p in polys]
                for polys in self.out.values()]

    def warm_pass(self) -> None:
        """Reduce every word again on the same engines: memo lookups only."""
        for mode, engine in self.engines.items():
            for w in self.words:
                engine.reduce(w)

    def engine_stats(self):
        stats, entries = Counter(), 0
        for engine in self.engines.values():
            stats.update(engine.stats)
            entries += len(engine.memo)
        return stats, entries

    def check(self):
        results = {
            mode: [None if p is None else p.terms for p in polys]
            for mode, polys in self.out.items()
        }
        return checks.check_trace_words(self.raw, results, random.Random(self.check_seed))


def _random_pairs(rng: random.Random, rank: int, length: int):
    """Letters with exponents in +-1..3, no two adjacent on the same generator."""
    pairs, left, last = [], length, None
    while left > 0:
        choices = [i for i in range(1, rank + 1) if i != last] or [last]
        index = rng.choice(choices)
        exponent = min(rng.randint(1, 3), left) * rng.choice((-1, 1))
        if pairs and index == last:  # rank 1: merge into the single letter
            exponent = abs(exponent) * (1 if pairs[-1][1] > 0 else -1)
        pairs.append((index, exponent))
        left -= abs(exponent)
        last = index
    return pairs


class AbelianLaurent:
    """Skein products of seeded Z^n vectors and their symmetric-Laurent images."""

    def setup(self, seed: int) -> None:
        from skeinlab import skein
        from skeinlab.trace_engine import ReductionMode
        from skeinlab.words import AbelianVector

        self.skein = skein
        self.M = ReductionMode
        rng = random.Random(f"perfbench-abelian-laurent-{seed}")
        self.pairs = []
        for n in ABELIAN_RANKS:
            # Coordinate magnitudes walk [0, 3]^n evenly; the seed draws the
            # signs, the coordinate order and the pair order.  The cost of a
            # pair grows steeply with its magnitudes, so drawing those too
            # would make a round's cost depend on the seed.
            mags = list(itertools.product(range(4), repeat=n))
            count = 2 * ABELIAN_PAIRS_PER_RANK
            vectors = []
            for k in range(count):
                m = list(mags[k * len(mags) // count])
                rng.shuffle(m)
                vectors.append(tuple(e * rng.choice((-1, 1)) for e in m))
            self.pairs += list(zip(vectors[0::2], vectors[1::2]))
        rng.shuffle(self.pairs)
        self.vectors = [
            (AbelianVector(len(v), v), AbelianVector(len(w), w)) for v, w in self.pairs
        ]
        self.check_seed = f"perfbench-abelian-check-{seed}"

    def _op(self, v, w):
        sk = self.skein
        dv = sk.abelian_from_vector(v, self.M.DYADIC)
        dw = sk.abelian_from_vector(w, self.M.DYADIC)
        prod = sk.multiply(dv, dw)
        iv = sk.abelian_from_vector(v, self.M.INTEGRAL)
        return {
            "dv": dv, "dw": dw, "prod": prod, "iv": iv,
            "Lv": sk.to_laurent(dv), "Lw": sk.to_laurent(dw),
            "Lprod": sk.to_laurent(prod), "Liv": sk.to_laurent(iv),
        }

    def run_round(self):
        ops_ms, failed, self.out = [], 0, []
        for v, w in self.vectors:
            res, bad = _timed(lambda: self._op(v, w), ops_ms)
            failed += bad
            self.out.append(res)
        return ops_ms, failed

    def engine_stats(self):
        return _session_engine_stats()

    def outputs(self):
        return [
            None if res is None else (
                [list(res[k].poly.terms.items()) for k in ("dv", "dw", "prod", "iv")]
                + [list(res[k].terms.items()) for k in ("Lv", "Lw", "Lprod", "Liv")]
            )
            for res in self.out
        ]

    def check(self):
        from skeinlab.words import AbelianVector

        sk, outputs = self.skein, []
        for (v, w), res in zip(self.pairs, self.out):
            if res is None:
                outputs.append(None)
                continue
            plus = tuple(a + b for a, b in zip(v, w))
            minus = tuple(a - b for a, b in zip(v, w))
            terms = {k: res[k].poly.terms for k in ("dv", "dw", "prod", "iv")}
            terms.update({k: res[k].terms for k in ("Lv", "Lw", "Lprod", "Liv")})
            for key, vec in (("sum_plus", plus), ("sum_minus", minus)):
                terms[key] = sk.abelian_from_vector(
                    AbelianVector(len(vec), vec), self.M.DYADIC
                ).poly.terms
            outputs.append(terms)
        return checks.check_abelian_pairs(self.pairs, outputs, random.Random(self.check_seed))


class Harvest:
    """Certified relation harvests and tangent dimensions on four instances."""

    def setup(self, seed: int) -> None:
        from skeinlab import charvar

        self.cv = charvar
        self.seed = seed
        self.instances = []
        for kind, n, degree, tangent in HARVEST_INSTANCES:
            spec = (kind, n)
            nvars = len(charvar.generator_vars(spec))
            samples = 2 * len(charvar.monomial_exponents(nvars, degree))  # --samples auto
            self.instances.append((spec, degree, samples))
        self.check_seed = f"perfbench-harvest-check-{seed}"

    def _op(self, spec, degree, samples):
        basis = self.cv.harvest_relations(spec, degree, samples, self.seed)
        return basis, self.cv.tangent_dim_at_trivial(basis)

    def run_round(self):
        ops_ms, failed, self.out = [], 0, []
        for spec, degree, samples in self.instances:
            res, bad = _timed(lambda: self._op(spec, degree, samples), ops_ms)
            failed += bad
            self.out.append(res)
        return ops_ms, failed

    def engine_stats(self):
        return Counter(), 0

    def outputs(self):
        return [
            None if res is None else (
                [list(r.terms.items()) for r in res[0].relations], res[1].tangent_dim
            )
            for res in self.out
        ]

    def check(self):
        rng, errors = random.Random(self.check_seed), []
        for instance, res in zip(HARVEST_INSTANCES, self.out):
            if res is None:
                continue
            basis, tangent = res
            gen_vars = self.cv.generator_vars(basis.group_spec)
            errors += checks.check_harvest(
                instance, [r.terms for r in basis.relations], gen_vars,
                tangent.tangent_dim, rng,
            )
        return errors


class TwoBridge:
    """Character polynomials and square-free tests of two-bridge presentations.

    The presentations are every epsilon vector of length 2..7 up to overall
    sign; the seed picks each vector's sign and the order of the round.
    """

    def setup(self, seed: int) -> None:
        from skeinlab import charvar

        self.cv = charvar
        rng = random.Random(f"perfbench-two-bridge-{seed}")
        self.eps = []
        for length in TWO_BRIDGE_LENGTHS:
            for rest in itertools.product((1, -1), repeat=length - 1):
                sign = rng.choice((1, -1))
                self.eps.append(tuple(sign * e for e in (1,) + rest))
        rng.shuffle(self.eps)
        self.presentations = [charvar.TwoBridgePresentation(e) for e in self.eps]
        self.check_seed = f"perfbench-two-bridge-check-{seed}"

    def _op(self, pres):
        result = self.cv.two_bridge_charpoly(pres)
        return result, self.cv.is_square_free(result.Phi)

    def run_round(self):
        ops_ms, failed, self.out = [], 0, []
        for pres in self.presentations:
            res, bad = _timed(lambda: self._op(pres), ops_ms)
            failed += bad
            self.out.append(res)
        return ops_ms, failed

    def engine_stats(self):
        return _session_engine_stats()

    def outputs(self):
        return [
            None if res is None else (
                list(res[0].Q.terms.items()), list(res[0].Phi.terms.items()), res[1]
            )
            for res in self.out
        ]

    def check(self):
        rng, errors = random.Random(self.check_seed), []
        for eps, res in zip(self.eps, self.out):
            if res is not None:
                result, square_free = res
                errors += checks.check_two_bridge(
                    eps, result.Q.terms, result.Phi.terms, square_free, rng
                )
        return errors


WORKLOADS = {
    "trace-reduce": TraceReduce,
    "abelian-laurent": AbelianLaurent,
    "harvest": Harvest,
    "two-bridge": TwoBridge,
}
