"""Closed forms assembled by chain sums against one-by-one addition.

``prefix_sums`` writes its additions down as one list, in the order of
one-by-one addition, and sums each (d, a) group of them at once with one
routine, ``series._staircase``, which adds each coefficient slot exactly over
one common denominator, on ints when the slot's numerators pack; when a
group declines, it merges the same additions one at a time;
``rs_normalize`` and ``_prefix_poly`` solve partial fractions and
prefix polynomials in fewer operations.  The reference functions below
add one coefficient at a time, in the original order, with their own
polynomial helpers; the fast paths must reproduce their bytes: JSON,
denominators, and the order of the series' keys.
"""

import json
import random
from fractions import Fraction
from itertools import zip_longest
from math import comb

from motivint import arcs, series
from motivint.arcs import MonomialGeometry
from motivint.characters import Character
from motivint.jsonio import motive_frac_to_json, series_to_json
from motivint.motives import MotiveClass, MotiveFrac, _multiset_union
from motivint.series import (
    RationalSeries,
    _binom_poly,
    _faulhaber,
    _lifted_numerator,
    _prefix_poly,
    _staircase,
    hadamard,
    prefix_sums,
    rs_normalize,
)

from helpers import (
    all_geometries,
    clear_caches,
    random_motive_class,
    random_motive_frac,
    twisted_geometries,
)
from test_corpus import ts_pairs


def _series_bytes(s: RationalSeries):
    return json.dumps(series_to_json(s)), list(s.poly), list(s.terms)


# ---------------------------------------------------------------------------
# one-by-one references
# ---------------------------------------------------------------------------


def _ref_trim(p):
    while p and not p[-1]:
        p.pop()
    return p


def _ref_add(p, q):
    out = list(p) + [0] * max(0, len(q) - len(p))
    for i, c in enumerate(q):
        out[i] = out[i] + c
    return _ref_trim(out)


def _ref_compose(p, k, j):
    out = []
    for t, c in enumerate(p):
        if not c:
            continue
        for s in range(t + 1):
            w = comb(t, s) * (k**s) * (j ** (t - s))
            if w == 0:
                continue
            while len(out) <= s:
                out.append(0)
            out[s] = out[s] + c * w
    return _ref_trim(out)


def _ref_eval(p, n):
    acc = 0
    for c in reversed(p):
        acc = acc * n + c
    return acc


def _ref_shift(c, k):
    return c if not k or not c else c.mul_lpow(k)


def _ref_geometric_prefix_poly(p, a):
    q = []
    res = list(p)
    while res:
        k = len(res) - 1
        c = _ref_shift(res[k], a).div_lpow_diff(a, 0)
        while len(q) <= k:
            q.append(0)
        q[k] = q[k] + c
        qm1 = [_ref_shift(x, -a) for x in _ref_compose(q, 1, -1)]
        res = _ref_add(p, [-x for x in _ref_add(q, [-y for y in qm1])])
    return _ref_trim(q)


def _ref_prefix_sums(series):
    out = RationalSeries()
    for i, c in series.poly.items():
        out._add_term(i, 1, 0, [c])
    for (r, d, a), npoly in series.terms.items():
        if a == 0:
            q = []
            for j, c in enumerate(npoly):
                if c:
                    q = _ref_add(q, _ref_trim([x * c for x in _faulhaber(j)]))
            const = None
        else:
            q = _ref_geometric_prefix_poly(npoly, a)
            const = -_ref_shift(_ref_eval(q, -1), -a)
        plain = _ref_trim(list(q))
        lagged = _ref_trim([_ref_shift(x, -a) for x in _ref_compose(q, 1, -1)])
        for rho in range(d):
            shifted = lagged if rho < r else plain
            if shifted:
                out._add_term(rho, d, a, shifted)
        if const is not None and const:
            out._add_term(0, 1, 0, [const])
    return out


def _ref_reduce(out, num_s, exps, r, d):
    distinct = sorted(set(exps))
    if len(distinct) == 1:
        base = _binom_poly(len(exps))
        for s, c in num_s.items():
            out._add_term(s * d + r, d, distinct[0], _ref_trim([x * c for x in base]))
        return
    a, b = distinct[0], distinct[1]
    rest = list(exps)
    rest.remove(a)
    rest_b = list(exps)
    rest_b.remove(b)
    lift_a = MotiveFrac(MotiveClass.lpow(a), [(a, b)])
    lift_b = MotiveFrac(MotiveClass.lpow(b), [(a, b)])
    _ref_reduce(out, {s: c * lift_a for s, c in num_s.items()}, rest_b, r, d)
    _ref_reduce(out, {s: -(c * lift_b) for s, c in num_s.items()}, rest, r, d)


def _ref_rs_normalize(num, den):
    work, exps, d = _lifted_numerator(num, den)
    if not work:
        return RationalSeries()
    if not exps:
        return RationalSeries(poly=work)
    out = RationalSeries()
    for r in range(d):
        num_s = {(i - r) // d: c for i, c in work.items() if (i - r) % d == 0}
        if num_s:
            _ref_reduce(out, num_s, exps, r, d)
    return out


# ---------------------------------------------------------------------------
# random chains with cancellations
# ---------------------------------------------------------------------------


def _chain_values(rng, length):
    """MotiveFracs over a few shared denominators, where a value is often
    followed by its negative so that running sums vanish on the way."""
    pool = [random_motive_frac(rng, 3) for _ in range(4)]
    values = []
    while len(values) < length:
        v = rng.choice(pool) if rng.random() < 0.7 else random_motive_frac(rng, 3)
        values.append(v)
        if rng.random() < 0.3:
            values.append(-v)
    return values


def test_multiset_union_is_max_multiplicity():
    rng = random.Random(31)
    factors = [(1, 0), (2, 0), (2, 1), (-1, 0)]
    for _ in range(300):
        a = tuple(sorted(rng.choice(factors) for _ in range(rng.randint(0, 4))))
        b = tuple(sorted(rng.choice(factors) for _ in range(rng.randint(0, 4))))
        want = []
        for k in sorted(set(a) | set(b)):
            want.extend([k] * max(a.count(k), b.count(k)))
        assert _multiset_union(a, b) == tuple(want)


def _one_by_one(items, rho):
    """The sum at offset rho of a staircase group, one _ref_add at a time;
    also whether a coefficient's running sum vanished on the way."""
    acc, dipped = [], False
    for r, plain, lagged in items:
        chosen = lagged if rho < r else plain
        if chosen:
            before, acc = acc, _ref_add(acc, chosen)
            dipped = dipped or any(b and not a for b, a in zip_longest(before, acc, fillvalue=0))
    return acc, dipped


def test_chain_sums_match_one_by_one_bytes():
    # the d = 1 group sum, a single chain of polynomials at offset 0: the
    # staircase gives the bytes of one-by-one _poly_add, or declines only
    # when a coefficient's running sum vanishes on the way and ends nonzero,
    # or some coefficients end at zero; a chain whose whole running sum
    # empties on the way and ends at zero is summed, to []
    rng = random.Random(4242)
    emptied = declined = emptied_summed = 0
    for _ in range(300):
        values = _chain_values(rng, 40)
        polys, acc, was_empty = [], [], False
        for _ in range(rng.randint(1, 12)):
            u = rng.random()
            if u < 0.2 and acc:  # cancel the whole running sum
                poly = [-c for c in acc]
            elif u < 0.4 and acc:  # cancel some slots
                poly = _ref_trim([-c if rng.random() < 0.5 else rng.choice(values) for c in acc])
            else:
                poly = _ref_trim([rng.choice(values) for _ in range(rng.randint(1, 3))])
            if not poly:
                continue
            polys.append(poly)
            acc = _ref_add(acc, poly)
            was_empty = was_empty or not acc
        if not polys:
            continue
        items = [(0, poly, []) for poly in polys]
        got = _staircase(items, 1)
        emptied += was_empty
        want, dipped = _one_by_one(items, 0)
        assert want == acc
        if got is None:
            declined += 1
            assert acc and (dipped or not all(acc)), polys
            continue
        emptied_summed += was_empty
        assert [motive_frac_to_json(c) for c in got[0][1]] == [
            motive_frac_to_json(c) for c in acc
        ], polys
    assert emptied > 20 and declined > 50 and emptied_summed > 30, (
        emptied,
        declined,
        emptied_summed,
    )


def test_staircase_matches_one_by_one_bytes():
    # each (d, a) group of prefix_sums, d = 1 included: the staircase gives
    # the bytes of one-by-one _poly_add at every offset, or declines; items
    # at repeated offsets cancel the whole running sum of an offset or some
    # of its coefficients, so that sums vanish on the way and at the end
    rng = random.Random(4242)
    summed = declined = dipped_summed = 0
    for _ in range(300):
        values = _chain_values(rng, 40)
        d = rng.choice([1, 1, 1, 2, 3, 5, 7])
        items = []
        for _ in range(rng.randint(1, 12)):
            r = rng.randrange(d)
            plain, lagged = (
                _ref_trim([rng.choice(values) for _ in range(rng.randint(0, 3))])
                for _ in range(2)
            )
            rho = rng.randrange(d)
            acc, _ = _one_by_one(items, rho)
            u = rng.random()
            if u < 0.4 and acc:  # cancel rho's whole running sum, or some slots
                cancel = _ref_trim(
                    [-c if u < 0.2 or rng.random() < 0.5 else rng.choice(values) for c in acc]
                )
                if rho < r:
                    lagged = cancel
                else:
                    plain = cancel
            items.append((r, plain, lagged))
        got = _staircase(items, d)
        sums = [_one_by_one(items, rho) for rho in range(d)]
        if got is None:
            declined += 1
            # only a sum that vanishes on the way and ends nonzero, or ends
            # with some coefficients zero, makes it decline
            assert any(
                acc and (dipped or not all(acc)) for acc, dipped in sums
            ), items
            continue
        summed += 1
        # a sum that vanishes on the way is summed when its offset ends at 0
        dipped_summed += any(dipped for _acc, dipped in sums)
        for rho, (acc, _dipped) in enumerate(sums):
            if rho in got:
                assert [motive_frac_to_json(c) for c in got[rho][1]] == [
                    motive_frac_to_json(c) for c in acc
                ], (items, rho)
            else:
                assert not acc
    assert summed > 100 and declined > 150 and dipped_summed > 30


def _packed_frac(rng, den, big=False):
    """A MotiveFrac over den whose numerator is an integer class in L, so
    packed; with ``big`` its coefficients are near 2^61."""
    terms = {}
    for _ in range(rng.randint(1, 3)):
        k = rng.randint(-3, 3)
        c = 2**61 - rng.randint(0, 9) if big else rng.randint(1, 4)
        terms[(k, k)] = rng.choice([-1, 1]) * c
    return MotiveFrac(MotiveClass(terms), den)


def _first_adder(items, rho):
    return next(n for n, (r, plain, lagged) in enumerate(items) if (lagged if rho < r else plain))


def _check_group(items, d):
    """The staircase against one-by-one sums at every offset: the same
    bytes and first additions, and a decline exactly where some offset's
    nonzero sum dipped on the way or ends with a zero coefficient; returns
    the one-by-one (sum, dipped) per offset, or None on a decline."""
    got = _staircase(items, d)
    sums = [_one_by_one(items, rho) for rho in range(d)]
    assert (got is None) == any(acc and (dipped or not all(acc)) for acc, dipped in sums), items
    if got is None:
        return None
    for rho, (acc, _dipped) in enumerate(sums):
        if rho in got:
            first, npoly = got[rho]
            assert first == _first_adder(items, rho)
            assert [motive_frac_to_json(c) for c in npoly] == [
                motive_frac_to_json(c) for c in acc
            ], (items, rho)
        else:
            assert not acc and not any(lagged if rho < r else plain for r, plain, lagged in items)
    return sums


def test_staircase_int_path_matches_one_by_one(monkeypatch):
    # groups of integer classes in L, which the staircase sums on ints, over
    # one shared denominator or mixed ones, with repeated offsets r, d up to
    # 60, and running sums cancelled on the way or at the end; then groups
    # whose coefficients are near 2^61, so that the lifted bounds reach 2^62
    # and the sums run on classes
    domains = []
    aligned = series._aligned

    def recording(classes):
        out = aligned(classes)
        domains.append(out is not None)
        return out

    monkeypatch.setattr(series, "_aligned", recording)
    rng = random.Random(2525)
    shared = [((1, 0),)]
    mixed = [(), ((1, 0),), ((2, 0),), ((1, 0), (2, 1)), ((-1, 0),), ((1, 0), (1, 0))]
    summed = declined = dipped_summed = wide = 0
    for case in range(150):
        big = case >= 120
        d = rng.choice([1, 2, 5, 12, 60] if not big else [1, 2, 3])
        dens = shared if rng.random() < 0.4 else mixed
        items = []
        for _ in range(rng.randint(3 if big else 1, d + 8)):
            r = rng.randrange(d)
            plain, lagged = (
                _ref_trim([_packed_frac(rng, rng.choice(dens), big) for _ in range(rng.randint(0, 3))])
                for _ in range(2)
            )
            rho = rng.randrange(d)
            acc, _ = _one_by_one(items, rho)
            u = rng.random() * (1 if d < 12 else 8)  # a few cancellations per wide group
            if u < 0.4 and acc:  # cancel rho's whole running sum, or some slots
                cancel = _ref_trim(
                    [-c if u < 0.2 or rng.random() < 0.5 else c for c in acc]
                )
                if rho < r:
                    lagged = cancel
                else:
                    plain = cancel
            items.append((r, plain, lagged))
        before = len(domains)
        checked = _check_group(items, d)
        if big:
            assert not all(domains[before:])
        if checked is None:
            declined += 1
            continue
        summed += 1
        wide += d == 60
        dipped_summed += any(dipped for _acc, dipped in checked)
    ints = sum(domains)
    assert summed > 50 and declined > 50 and dipped_summed > 10 and wide > 5
    assert ints > 180 and len(domains) - ints > 20, (ints, len(domains))


def test_staircase_work_is_linear_on_measure_series(monkeypatch):
    # x^3 y^4 z^5 on all of W: three (60, a) groups of 60 single-coefficient
    # items and a (1, 0) group of 182; the class additions made inside the
    # staircase, caches cleared, stay below width * (d + items) per group
    # (543 here; the walk of every offset through every item made 10,830)
    clear_caches()
    state = {"inside": False, "adds": 0, "bound": 0}
    add = MotiveClass.__add__

    def counting_add(self, other):
        state["adds"] += state["inside"]
        return add(self, other)

    staircase = series._staircase

    def counting_staircase(items, d):
        width = max((max(len(plain), len(lagged)) for _r, plain, lagged in items), default=0)
        state["bound"] += width * (d + len(items))
        state["inside"] = True
        try:
            return staircase(items, d)
        finally:
            state["inside"] = False

    monkeypatch.setattr(MotiveClass, "__add__", counting_add)
    monkeypatch.setattr(MotiveClass, "__radd__", counting_add)
    monkeypatch.setattr(series, "_staircase", counting_staircase)
    arcs.measure_series(MonomialGeometry.make(3, [3, 4, 5], None, [1, 2, 3]))
    assert state["bound"] == 543
    assert state["adds"] <= state["bound"], state


def _ref_grouped(poly, parts):
    """prefix_sums' fallback: every addition one at a time."""
    out = RationalSeries()
    for i, c in poly.items():
        out._add_term(i, 1, 0, [c])
    for r, d, a, plain, lagged, const in parts:
        for rho in range(d):
            shifted = lagged if rho < r else plain
            if shifted:
                out._add_term(rho, d, a, shifted)
        if const:
            out._add_term(0, 1, 0, [const])
    return out


def test_grouped_key_order_matches_one_by_one():
    # random parts over a few (d, a), (1, 0) among them, with repeated
    # offsets, empty plain or lagged polynomials, constants and Laurent
    # entries: the grouped sums keep each key where one-by-one addition puts it
    rng = random.Random(7171)
    summed = 0
    for _ in range(150):
        steps = [(1, 0)] + [(rng.choice([1, 2, 3, 5]), rng.randint(-2, 2)) for _ in range(2)]
        poly = {rng.randint(0, 4): random_motive_frac(rng, 2) for _ in range(rng.randint(0, 2))}
        poly = {i: c for i, c in poly.items() if c}
        parts = []
        for _ in range(rng.randint(1, 8)):
            d, a = rng.choice(steps)
            plain, lagged = (
                _ref_trim([random_motive_frac(rng, 2) for _ in range(rng.choice([0, 1, 2]))])
                for _ in range(2)
            )
            const = random_motive_frac(rng, 2) if rng.random() < 0.4 else None
            parts.append((rng.randrange(d), d, a, plain, lagged, const))
        # the additions of prefix_sums, in one-by-one order
        adds = [(1, 0, 0, [c], []) for c in poly.values()]
        for r, d, a, plain, lagged, const in parts:
            adds.append((d, a, r, plain, lagged))
            if const:
                adds.append((1, 0, 0, [const], []))
        terms = series._grouped_prefix_sums(adds)
        if terms is None:
            continue
        summed += 1
        got = RationalSeries()
        for i, c in poly.items():
            got._write_boundary(0, 1, 0, [c], i)
        got.terms = terms
        assert _series_bytes(got) == _series_bytes(_ref_grouped(poly, parts)), parts
    assert summed > 120, summed


def test_staircase_sums_coefficients_with_any_denominator():
    # a Fraction coefficient whose denominator is 2^61 - 1 is summed like any
    # other: the sum at d = 1 has the bytes of x + y
    x = MotiveFrac(MotiveClass({(0, 0): Fraction(1, 2**61 - 1)}), [(1, 0)])
    y = MotiveFrac(MotiveClass.lpow(2), [(2, 0)])
    got = _staircase([(0, [x], []), (0, [y], [])], 1)
    assert got is not None
    assert [motive_frac_to_json(c) for c in got[0][1]] == [motive_frac_to_json(x + y)]


def test_geometric_prefix_poly_matches_one_by_one_bytes():
    rng = random.Random(1618)
    for _ in range(200):
        p = _ref_trim([random_motive_frac(rng, 2) for _ in range(rng.randint(1, 4))])
        if rng.random() < 0.3 and len(p) > 1:
            p[rng.randrange(len(p) - 1)] = MotiveFrac.zero()
        a = rng.choice([-3, -2, -1, 1, 2, 3])
        got = _prefix_poly(p, a)
        want = _ref_geometric_prefix_poly(p, a)
        assert [motive_frac_to_json(MotiveFrac(0) + c) for c in got] == [
            motive_frac_to_json(MotiveFrac(0) + c) for c in want
        ]


def _sample_geometries():
    """Every 90th criterion-7 geometry (steps up to 60), ten twisted ones,
    and x^2 y^3 z^6 on {z = 0}, whose (1, 0) group empties twice on the way
    and ends at zero."""
    return (
        list(all_geometries(3, 6))[::90]
        + twisted_geometries(random.Random(5), 10)
        + [MonomialGeometry.make(3, [2, 3, 6], None, [3])]
    )


def _slices(num, den):
    """The lifted exponent count, the common step d and, per residue r,
    the numerator exponents s of the slice num_s."""
    work, exps, d = _lifted_numerator(num, den)
    slices = {}
    for i in work:
        slices.setdefault(i % d, set()).add(i // d)
    return len(exps), d, slices


def _is_proper(k, ss):
    return all(0 <= s < k for s in ss)


def _boundary_fractions():
    """Fractions whose slices sit at the proper/improper boundary: s =
    len(exps) - 1 (proper), s = len(exps) and s = -1 (improper), with
    repeated exponents, factors with b < 0 (each shifts s up by one), and
    proper and improper slices side by side in one fraction."""
    rng = random.Random(2626)
    cases = []
    for exps in ([1], [0, 2], [1, 1], [2, 2, -1], [0, 0, 0], [-1, 3, 3, 1]):
        k = len(exps)
        proper_sets = [(k - 1,), (0, k - 1), (0,)]
        improper_sets = [(k,), (-1,), (-1, k - 1), (0, k), (k, k + 1)]
        for d in (1, 2, 3):
            for neg in range(min(k, 2) + 1):
                den = [(-a, -d) if n < neg else (a, d) for n, a in enumerate(exps)]
                for _ in range(2):
                    num = {}
                    for r in range(d):
                        # slice r = 0 is proper and the others improper, or
                        # the other way round, from one case to the next
                        sets = proper_sets if (r == 0) == (len(cases) % 2 == 0) else improper_sets
                        for s in rng.choice(sets):
                            num[(s - neg) * d + r] = random_motive_frac(rng, 1) or MotiveFrac(1)
                    cases.append((num, den))
    # unequal steps: the numerator is lifted to the common step first
    cases += [({0: MotiveFrac(1), 5: MotiveFrac(2)}, [(1, 2), (1, 3), (0, 6)])]
    cases += [({-1: MotiveFrac(1), 11: MotiveFrac(-1)}, [(2, 2), (-1, -3)])]
    return cases


def test_rs_normalize_matches_one_by_one_bytes():
    rng = random.Random(8080)
    cases = _boundary_fractions()
    seen = set()
    for num, den in cases:
        k, _d, slices = _slices(num, den)
        for ss in slices.values():
            if _is_proper(k, ss) and k - 1 in ss:
                seen.add("proper, s = len(exps) - 1")
            if k in ss:
                seen.add("s = len(exps)")
            if -1 in ss:
                seen.add("s = -1")
        if len({_is_proper(k, ss) for ss in slices.values()}) == 2:
            seen.add("proper and improper slices")
    assert len(seen) == 4
    for _ in range(60):
        num = {rng.randint(-4, 8): random_motive_frac(rng, 2) for _ in range(rng.randint(1, 4))}
        den = [
            (rng.randint(-3, 3), rng.choice([-3, -2, -1, 1, 2, 3, 4, 6]))
            for _ in range(rng.randint(1, 4))
        ]
        cases.append((num, den))
    for geom in _sample_geometries():
        num, den = arcs._zeta_fraction(geom)
        cases.append((dict(num), list(den)))
    for num, den in cases:
        assert _series_bytes(rs_normalize(num, den)) == _series_bytes(
            _ref_rs_normalize(num, den)
        ), (num, den)


def test_proper_slices_write_no_laurent_entry(monkeypatch):
    # a proper slice's boundary corrections cancel, so it must not write them
    written = []
    add_at = RationalSeries._poly_add_at

    def recording(self, i, c):
        written.append(i)
        add_at(self, i, c)

    monkeypatch.setattr(RationalSeries, "_poly_add_at", recording)
    cases = _boundary_fractions() + [
        (dict(num), list(den)) for num, den in map(arcs._zeta_fraction, _sample_geometries())
    ]
    proper_slices = improper_writes = 0
    for num, den in cases:
        k, d, slices = _slices(num, den)
        written.clear()
        rs_normalize(num, den)
        for r, ss in slices.items():
            if _is_proper(k, ss):
                proper_slices += 1
                assert not [i for i in written if i % d == r], (num, den, r)
        improper_writes += len(written)
    assert proper_slices > 50 and improper_writes > 50


def test_lambda_of_fraction_on_proper_and_improper_zero_slices(monkeypatch):
    # lambda reads the slice r = 0; a proper one gives zero without being
    # reduced, an improper one is reduced as rs_normalize reduces it
    reduced = []
    reduce = series._reduce_single_step

    def counting(out, num_s, exps, r, d):
        reduced.append(r)
        reduce(out, num_s, exps, r, d)

    zero = motive_frac_to_json(series.lambda_functional(RationalSeries()))
    kinds = set()
    for num, den in _boundary_fractions():
        k, _d, slices = _slices(num, den)
        proper = _is_proper(k, slices.get(0, ()))
        want = motive_frac_to_json(series.lambda_functional(rs_normalize(num, den)))
        monkeypatch.setattr(series, "_reduce_single_step", counting)
        reduced.clear()
        got = motive_frac_to_json(series.lambda_of_fraction(num, den))
        monkeypatch.undo()
        assert got == want, (num, den)
        assert reduced == ([] if proper else [0]), (num, den)
        if proper:
            assert got == zero
        kinds.add((proper, 0 in slices, got == zero))
    assert {(True, True, True), (False, True, False)} <= kinds


def _random_fractions(rng):
    """rs_normalize of 25 random fractions, steps up to 6."""
    out = []
    for _ in range(25):
        num = {rng.randint(0, 5): random_motive_frac(rng, 2) for _ in range(rng.randint(1, 3))}
        den = [(rng.randint(-2, 3), rng.randint(1, 6)) for _ in range(rng.randint(1, 3))]
        out.append(rs_normalize(num, den))
    return out


def _measure_heads():
    """M0 T - Z(T) on _sample_geometries(): what measure_series sums."""
    return [
        RationalSeries(poly={1: arcs.measure_total(geom)}) - arcs.zeta_series(geom, Character.trivial())
        for geom in _sample_geometries()
    ]


def test_prefix_sums_match_one_by_one_bytes(monkeypatch):
    rng = random.Random(6060)
    cases = _random_fractions(rng)
    heads = _measure_heads()
    cases += heads
    # at (0, 1, 0), the Laurent entry x T and the constant of the geometric
    # sum of (0, 1, 1) cancel, and the constant of (0, 1, 2) brings the key
    # back: one by one it moves to the end of the dict, so the grouped sums
    # must decline and build the series one addition at a time
    for _ in range(20):
        y, z = [random_motive_frac(rng, 2)], [random_motive_frac(rng, 2)]
        if not y[0] or not z[0]:
            continue
        probe = _ref_prefix_sums(RationalSeries(terms={(0, 1, 1): y}))
        s = RationalSeries(
            poly={1: -probe.terms[(0, 1, 0)][0]}, terms={(0, 1, 1): y, (0, 1, 2): z}
        )
        assert list(_ref_prefix_sums(s).terms) == [(0, 1, 1), (0, 1, 2), (0, 1, 0)]
        cases.append(s)
    # one term with a = 0 and mixed denominators: its prefix polynomial is
    # sum_j p_j F_j, whose coefficient i carries only the denominators of
    # the p_j with F_{j,i} != 0 (F_{3,1} = 0, for one)
    dens = [(1, 0), (2, 0), (-1, -2), (3, 1)]
    for _ in range(300):
        d = rng.randint(1, 3)
        npoly = [
            MotiveFrac(random_motive_class(rng), rng.sample(dens, rng.randint(1, 2)))
            for _ in range(rng.randint(2, 4))
        ]
        cases.append(RationalSeries(terms={(rng.randrange(d), d, 0): npoly}))
    for s in cases:
        assert _series_bytes(prefix_sums(s)) == _series_bytes(_ref_prefix_sums(s)), s
    # Gauss-ring coefficients are not MotiveFracs: one-by-one addition throughout
    for geom in _sample_geometries()[::4]:
        s = arcs.exp_series(geom)
        assert _series_bytes(prefix_sums(s)) == _series_bytes(_ref_prefix_sums(s))
    # the grouped sums never decline on the geometries' measure heads, so
    # real inputs stay off the one-by-one fallback
    grouped = series._grouped_prefix_sums
    declines = []

    def counting(adds):
        out = grouped(adds)
        declines.append(out is None)
        return out

    monkeypatch.setattr(series, "_grouped_prefix_sums", counting)
    for s in heads:
        prefix_sums(s)
    assert len(declines) == len(heads) and not any(declines)


def test_prefix_sums_and_hadamard_merge_canonical_terms(monkeypatch):
    # every addition of prefix_sums and every product term of hadamard
    # already has an offset 0 <= r < d, so neither folds a term through
    # _add_term; with every group declining, the same additions merged one
    # at a time give the grouped bytes and key order
    cases = _random_fractions(random.Random(6060)) + _measure_heads()
    exps = [arcs.exp_series(geom) for geom in _sample_geometries()[::4]]
    pairs = [(arcs.exp_series(left), arcs.exp_series(right)) for left, right in ts_pairs()]
    grouped = [_series_bytes(prefix_sums(s)) for s in cases]

    def refuse(*args):
        raise AssertionError("a term folded through _add_term")

    monkeypatch.setattr(RationalSeries, "_add_term", refuse)
    for s in cases + exps:
        prefix_sums(s)
    for left, right in pairs:
        hadamard(left, right)
    monkeypatch.setattr(series, "_grouped_prefix_sums", lambda adds: None)
    assert [_series_bytes(prefix_sums(s)) for s in cases] == grouped
