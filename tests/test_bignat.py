"""Run-form arithmetic must agree with plain integer arithmetic."""

from __future__ import annotations

import contextlib
import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from selfref import bignat
from selfref.bignat import (BASE, BigNat, BigNatError, _digit_count,
                            _digits_to_int, _int_to_digits)
from selfref.diagonal import diagonal_sentence
from selfref.parser import parse_formula


def _random_runform(rng: random.Random) -> tuple[BigNat, int]:
    """A run-form value together with its exact integer meaning.  It
    leads with a nonzero digit and ends in a zero run that makes it
    longer than bignat._COLLAPSE_DIGITS, so from_runs keeps it in run
    form."""
    runs = []
    for _ in range(rng.randint(1, 5)):
        plen = rng.randint(1, 4)
        pattern = tuple(rng.randrange(BASE) for _ in range(plen))
        if not runs:
            pattern = (rng.randrange(1, BASE),) + pattern[1:]
        runs.append((pattern, rng.randint(1, 40)))
    value = 0
    for pattern, count in runs:
        for _ in range(count):
            for d in pattern:
                value = value * BASE + d
    runs.append(((0,), 4200))
    big = BigNat.from_runs(runs)
    assert big._runs is not None
    return big, value * BASE**4200


def test_roundtrip_int():
    for n in [0, 1, 23, 24, 25, 24**5, 10**30, 7**40]:
        assert BigNat.from_int(n).to_int() == n


def test_from_runs_matches_direct_value():
    rng = random.Random(11)
    for _ in range(200):
        big, value = _random_runform(rng)
        assert big.to_int() == value
        assert big == BigNat.from_int(value)


def test_power24():
    for e in [0, 1, 2, 7, 100]:
        assert BigNat.power24(e).to_int() == BASE**e
    huge = BigNat.power24(10**40)
    assert huge.digits24 == 10**40 + 1
    assert huge.mod_int(23) == 1


def test_add_sub_against_ints():
    rng = random.Random(5)
    for _ in range(150):
        a_big, a = _random_runform(rng)
        b_big, b = _random_runform(rng)
        assert (a_big + b_big).to_int() == a + b
        hi, lo = (a_big, b_big) if a >= b else (b_big, a_big)
        assert hi.sub(lo).to_int() == abs(a - b)


@pytest.mark.parametrize("runs", [
    [((7,), 1), ((0,), 4200)],
    [((5, 23), 3), ((23,), 4200)],  # additions carry through 4,200 digits
    [((1, 2, 3), 2000)],
    [((9,), 1), ((23,), 5000), ((4, 5), 1)],
])
def test_small_additions_keep_a_run_form_short(runs):
    a = BigNat.from_runs(runs)
    value = a.to_int()
    for k in range(600):
        a = k % 7 + a if k % 2 else a + BigNat(k % 7)
        value += k % 7
        # neighbouring runs of one block are joined, so they do not pile up
        assert len(a._runs.runs) <= len(runs) + 3
    assert a.to_int() == value


def test_sub_negative_raises():
    with pytest.raises(BigNatError):
        BigNat.from_int(3).sub(BigNat.from_int(5))


def test_mul_variants():
    rng = random.Random(7)
    for _ in range(100):
        a_big, a = _random_runform(rng)
        m = rng.randint(0, 10**6)
        assert (a_big * BigNat.from_int(m)).to_int() == a * m
        k = rng.randint(0, 50)
        assert a_big.shift24(k).to_int() == a * BASE**k
        assert (a_big * BigNat.power24(k)).to_int() == a * BASE**k


def test_divmod_and_mod():
    rng = random.Random(13)
    for _ in range(150):
        a_big, a = _random_runform(rng)
        m = rng.randint(1, 10**6)
        q, r = a_big.divmod_int(m)
        assert (q.to_int(), r) == divmod(a, m)
        assert a_big.mod_int(m) == a % m


def test_compare():
    rng = random.Random(17)
    vals = [_random_runform(rng) for _ in range(60)]
    for a_big, a in vals:
        for b_big, b in vals[:20]:
            assert (a_big < b_big) == (a < b)
            assert (a_big == b_big) == (a == b)
            assert (a_big >= b_big) == (a >= b)


def test_equal_values_hash_alike_in_either_form():
    runs = BigNat.from_runs([((5,), 5000)])
    value = runs.to_int()
    for equal in (BigNat(value), value):
        assert runs == equal and hash(runs) == hash(equal)
    assert len({runs, BigNat(value), value}) == 1
    # values too long to materialize hash as the residue an int of their
    # value would, with run counts past the modulus and θ's code among them
    modulus = sys.hash_info.modulus
    giants = [BigNat.from_runs([((2, 3, 14), c), ((2,), 1), ((15,), c)])
              for c in (2**61, 2**70 + 3, modulus - 1, modulus)]
    giants.append(diagonal_sentence(parse_formula("x=x")).theta_code)
    for v in giants:
        assert not v.is_materializable()
        assert hash(v) == hash(v.mod_int(modulus))


def test_huge_structured_identities():
    # values this large never materialize, so check algebraic laws instead
    c = 10**50 + 7
    w = BigNat.power24(c - 1)
    u = BigNat.from_runs([((2, 3, 14), c - 1)])
    v = BigNat.from_runs([((15,), c - 1)])
    # u spelled digitwise equals 1238 * (24**(3(c-1)) - 1) / (24**3 - 1)
    assert u * 13823 == BigNat.from_runs([((2, 3, 14), c - 1), ((0, 0, 0), 1)]).sub(u)
    # v * 23 == 15 * (w - 1)
    left = v * 23
    right = BigNat.from_runs([((23,), c - 1)]) * 15
    assert left == right
    # n = u*24*w + 2*w + v  joins the three digit regions exactly
    n = (u * 24) * w + (w * 2) + v
    direct = BigNat.from_runs([((2, 3, 14), c - 1), ((2,), 1), ((15,), c - 1)])
    assert n == direct
    # parity comes from the last digit only (24 is even)
    assert n.mod_int(2) == 15 % 2
    half, rem = direct.divmod_int(2)
    assert rem == 1
    assert half * 2 + 1 == direct


def test_small_numeral_segment_identity():
    # same identity as above but small enough to verify against ints
    for c in range(2, 40):
        w = BASE ** (c - 1)
        u = sum(1238 * BASE ** (3 * i) for i in range(c - 1))
        v = sum(15 * BASE**i for i in range(c - 1))
        n = u * 24 * w + 2 * w + v
        direct = BigNat.from_runs([((2, 3, 14), c - 1), ((2,), 1), ((15,), c - 1)])
        assert direct.to_int() == n


def _random_big_runform(rng: random.Random) -> tuple[BigNat, int]:
    """Like _random_runform but too long to collapse into a plain int."""
    runs = []
    for _ in range(rng.randint(1, 4)):
        plen = rng.randint(1, 3)
        pattern = tuple(rng.randrange(BASE) for _ in range(plen))
        runs.append((pattern, rng.randint(600, 4000)))
    big = BigNat.from_runs(runs)
    return big, big.to_int()


def test_engine_fuzz_on_genuine_runforms():
    # values here exceed the int-collapse threshold, so every operation
    # goes through the run-length streaming path
    rng = random.Random(101)
    for _ in range(40):
        a_big, a = _random_big_runform(rng)
        b_big, b = _random_big_runform(rng)
        assert a_big._runs is not None or a_big.to_int() == a
        assert (a_big + b_big).to_int() == a + b
        hi, lo = (a_big, b_big) if a >= b else (b_big, a_big)
        assert hi.sub(lo).to_int() == abs(a - b)
        m = rng.randint(1, 13822)
        assert (a_big * BigNat.from_int(m)).to_int() == a * m
        d = rng.randint(1, 10**6)
        q, r = a_big.divmod_int(d)
        assert (q.to_int(), r) == divmod(a, d)
        assert a_big.mod_int(d) == a % d
        assert (a_big < b_big) == (a < b)
        assert (a_big == b_big) == (a == b)


def test_engine_fuzz_boundary_alignment():
    # runs of equal total length with different boundary structure
    rng = random.Random(202)
    for _ in range(30):
        plen = rng.randint(1, 3)
        count = rng.randint(2000, 5000)
        pattern = tuple(rng.randrange(BASE) for _ in range(plen))
        a_big = BigNat.from_runs([(pattern, count)])
        b_big = BigNat.from_runs([(pattern * 2, count // 2),
                                  (pattern, count % 2)])
        assert a_big == b_big
        assert (a_big + 1).sub(1) == b_big
        assert a_big.sub(b_big) == 0


def test_json_roundtrip():
    rng = random.Random(23)
    for _ in range(30):
        a_big, a = _random_runform(rng)
        again = BigNat.from_json(a_big.to_json())
        assert again == a_big
    huge = BigNat.from_runs([((1, 0, 5), 10**30)])
    assert BigNat.from_json(huge.to_json()) == huge


def test_unsupported_product_raises():
    a = BigNat.from_runs([((1, 2), 10**30)])
    b = BigNat.from_runs([((3, 4), 10**30)])
    with pytest.raises(BigNatError):
        _ = a * b


# -- radix conversion, digit counts and residues against references ---------


def _peel_digits(n: int) -> tuple[int, ...]:
    """Reference: base-24 digits one divmod at a time, most significant
    first."""
    digits = [n % BASE]
    while n >= BASE:
        n //= BASE
        digits.append(n % BASE)
    return tuple(reversed(digits))


def _horner(digits) -> int:
    value = 0
    for d in digits:
        value = value * BASE + d
    return value


def _bitwise_affine_pow(a: int, b: int, k: int, m: int) -> tuple[int, int]:
    """Reference: compose x -> a*x + b (mod m) k times, one bit of k at a
    time."""
    ra, rb = 1, 0
    while k:
        if k & 1:
            ra, rb = (a * ra) % m, (a * rb + b) % m
        a, b = (a * a) % m, (a * b + b) % m
        k >>= 1
    return ra, rb


def _reference_mod(runs, m: int) -> int:
    r = 0
    for pattern, count in runs:  # most significant first
        a, b = _bitwise_affine_pow(pow(BASE, len(pattern), m),
                                   _horner(pattern) % m, count, m)
        r = (a * r + b) % m
    return r


_SPLITS = [BASE ** (512 * 2**k) for k in range(4)]


@pytest.mark.parametrize("n", [0, 1, BASE - 1, BASE] + [
    p + d for p in _SPLITS for d in (-1, 0, 1)])
def test_radix_conversion_at_the_split_points(n):
    digits = _int_to_digits(n)
    assert digits == _peel_digits(n)
    assert _digits_to_int(digits) == n
    assert _digit_count(n) == len(digits)
    assert _digit_count(n, 10) == len(str(n))


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=BASE**2500),
       st.integers(min_value=0, max_value=600))
def test_radix_conversion_round_trips(n, zeros):
    digits = _int_to_digits(n)
    assert digits == _peel_digits(n)
    assert _digits_to_int(digits) == n
    # leading zeros change nothing
    assert _digits_to_int((0,) * zeros + digits) == n
    assert _digit_count(n) == len(digits)
    assert _digit_count(n, 10) == len(str(n))
    assert BigNat.from_int(n).digits24 == len(digits)


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(st.one_of(
    st.integers(0, 1200).flatmap(
        lambda k: st.sampled_from([0, BASE**k - 1, BASE**k])),
    st.integers(0, 30_000).flatmap(lambda bits: st.integers(0, 2**bits)),
    st.tuples(st.integers(1, BASE**40), st.integers(0, 3000),
              st.integers(0, BASE**30)).map(
        lambda t: t[0] * BASE**t[1] + t[2])))
def test_radix_leaves_agree_with_one_digit_at_a_time(n):
    # the leaf reads 12 digits per divmod and 2 per table entry; values
    # with long zero stretches make many padded leaves
    digits = _int_to_digits(n)
    assert digits == _peel_digits(n)
    if n < BASE**bignat._LEAF:
        for width in {len(digits), len(digits) + 1, len(digits) + 13,
                      bignat._LEAF}:
            out = bytearray()
            bignat._put_digits(n, [], -1, width, out)
            assert tuple(out) == (0,) * (width - len(digits)) + digits


_RUNS = st.lists(
    st.tuples(st.lists(st.integers(0, BASE - 1), min_size=1, max_size=5)
              .map(tuple), st.integers(1, 600)),
    min_size=1, max_size=4)


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(_RUNS, st.integers(min_value=1, max_value=(1 << 61) - 1))
def test_run_form_residues_and_lengths_agree_with_int(runs, m):
    value = _horner([d for pattern, count in runs for d in pattern * count])
    big = BigNat.from_runs(runs)
    assert big.to_int() == value
    assert big.digits24 == len(_peel_digits(value))
    for modulus in (m, m % 10**6 + 1, 2, 23, 24):
        assert big.mod_int(modulus) == value % modulus
    small = m % (1 << 21) + 1
    q, r = big.divmod_int(small)
    assert (q.to_int(), r) == divmod(value, small)


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.lists(st.integers(0, BASE - 1), min_size=1,
                                   max_size=4).map(tuple),
                          st.integers(1, 40)), min_size=1, max_size=4),
       st.one_of(st.integers(0, (1 << 22) + 2), st.integers(0, BASE**64 - 1)))
def test_run_form_times_int_agrees_with_int(runs, m):
    # a leading 1 and a zero run too long to step digit by digit keep the
    # value in run form; factors fall below and above the one-pass cap, up
    # to the largest one multiplied digit by digit
    runs = [((1,), 1)] + runs + [((0,), 70_000)]
    big = BigNat.from_runs(runs)
    assert big._runs is not None
    value = _horner([1] + [d for pattern, count in runs[1:-1]
                           for d in pattern * count]) * BASE**70_000
    assert (big * m).to_int() == value * m
    assert (m * big).to_int() == value * m
    assert (big * BigNat(m)).to_int() == value * m


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(_RUNS, st.integers(min_value=1000, max_value=3000),
       st.integers(min_value=1, max_value=(1 << 61) - 1))
def test_residues_of_giant_run_counts(runs, count_digits, m):
    # run counts of thousands of decimal digits, as in codes of diagonal
    # sentences; the reference composes the run map one bit at a time
    rng = random.Random(count_digits)
    giant = [(p, c * 10**count_digits + rng.randrange(10**count_digits))
             for p, c in runs]
    big = BigNat.from_runs(giant)
    for modulus in (m, 3, 24, (1 << 61) - 1):
        assert big.mod_int(modulus) == _reference_mod(giant, modulus)


# -- add, sub and compare of genuine run forms against int -------------------

_DIGIT_TEXT = "0123456789abcdefghijklmn"


def _value(digits) -> int:
    """Reference: the value of base-24 digits, most significant first, read
    by int() alone."""
    return int("".join(_DIGIT_TEXT[d] for d in digits), BASE)


def _digits_of(runs) -> list[int]:
    return [d for pattern, count in runs for d in pattern * count]


@st.composite
def _run_lists(draw):
    """Runs, most significant first, of a value kept in run form: a
    nonzero lead digit, then periodic runs and explicit stretches of up to
    12,000 digits, and a last run that pads it past the int-collapse
    threshold.  Digits lean to 0 and 23, so carries and borrows ripple
    through whole runs."""
    rng = random.Random(draw(st.integers(0, 2**32)))

    def digit():
        return rng.choice((0, BASE - 1, rng.randrange(BASE)))

    runs = [((rng.randrange(1, BASE),), 1)]
    for _ in range(draw(st.integers(1, 4))):
        if draw(st.booleans()):
            pattern = tuple(digit() for _ in range(draw(st.integers(1, 4))))
            runs.append((pattern, draw(st.integers(1, 3000))))
        else:
            width = draw(st.integers(1, 12_000))
            runs.append((tuple(digit() for _ in range(width)), 1))
    pad = max(1, 4097 - len(_digits_of(runs)))
    runs.append(((digit(),), pad))
    return runs


@st.composite
def _twin(draw, runs):
    """Runs of the same length as ``runs``: each periodic run is kept,
    regrouped at twice its period, or replaced by the period one digit
    longer that agrees with it on its top width + 1 digits."""
    out = []
    for pattern, count in runs:
        how = draw(st.sampled_from(["keep", "regroup", "skew"]))
        if count < 2 or how == "keep":
            out.append((pattern, count))
        elif how == "regroup":
            out += [(pattern * 2, count // 2), (pattern, count % 2)]
        else:
            longer = pattern + pattern[:1]
            whole, rest = divmod(len(pattern) * count, len(longer))
            out += [(longer, whole), (longer[:rest], 1)]
    return out


@st.composite
def _operands(draw):
    """A run form, its value, and a second operand: another run form, a
    twin of the same length, a random int of up to about 15,000 digits, a
    near neighbour, or an int sharing a top stretch of the run form's
    digits and differing below."""
    runs = draw(_run_lists())
    a, digits = BigNat.from_runs(runs), _digits_of(runs)
    assert a._runs is not None
    value = _value(digits)
    kind = draw(st.sampled_from(["runs", "twin", "int", "near", "prefix"]))
    if kind in ("runs", "twin"):
        other = draw(_run_lists() if kind == "runs" else _twin(runs))
        return a, value, BigNat.from_runs(other), _value(_digits_of(other))
    rng = random.Random(draw(st.integers(0, 2**32)))
    if kind == "int":
        b = rng.randrange(BASE ** draw(st.integers(1, 15_000)))
    elif kind == "near":
        b = max(0, value + draw(st.integers(-3, 3)))
    else:
        keep = draw(st.integers(0, len(digits)))
        low = BASE ** (len(digits) - keep)
        b = value // low * low + rng.randrange(low)
    return a, value, b, b


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(_operands())
def test_add_sub_compare_of_run_forms_agree_with_int(operands):
    a, x, b, y = operands
    big_b = b if isinstance(b, BigNat) else BigNat(b)
    total = a + b
    assert total.to_int() == (b + a).to_int() == x + y
    assert total.digits24 == _digit_count(x + y)
    sign = (x > y) - (x < y)
    assert a.compare(b) == -big_b.compare(a) == sign
    assert (a == b) == (x == y)
    assert (a < b) == (x < y)
    for hi, lo, diff in ((a, b, x - y), (big_b, a, y - x)):
        if diff >= 0:
            assert hi.sub(lo).to_int() == diff
        else:
            with pytest.raises(BigNatError):
                hi.sub(lo)


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(_run_lists())
def test_run_forms_equal_their_value_in_any_cut(runs):
    a, digits = BigNat.from_runs(runs), _digits_of(runs)
    value = _value(digits)
    one_stretch = BigNat.from_digits(digits)
    assert one_stretch._runs is not None
    for equal in (value, BigNat(value), one_stretch):
        assert a == equal and a.compare(equal) == 0
        assert a.sub(equal) == 0
    assert a < value + 1 and not a < value


def test_long_explicit_stretch_over_a_periodic_run():
    # a 70,000-digit stretch is longer than any run the old digit-at-a-time
    # engine would step, so product and quotient must step it whole
    rng = random.Random(70)
    head = (rng.randrange(1, BASE),) + tuple(rng.randrange(BASE)
                                             for _ in range(69_999))
    big = BigNat.from_runs([(head, 1), ((7, 3), 5000)])
    value = _value(head + (7, 3) * 5000)
    assert (big * 987654321).to_int() == value * 987654321
    q, r = big.divmod_int(1_000_003)
    assert (q.to_int(), r) == divmod(value, 1_000_003)
    other = rng.randrange(BASE**59_999, BASE**60_000)
    assert (big + other).to_int() == value + other
    assert big.sub(other).to_int() == value - other


def test_divmod_of_a_run_too_long_to_materialize_walks_its_remainders():
    # 2,000,000 digits of a two-digit block pass _MATERIALIZE_LIMIT, so the
    # quotient comes from the remainder cycle, not from one division
    big = BigNat.from_runs([((7,), 1), ((0, 5), 1_000_000), ((3, 1, 4), 1)])
    for m in (7, 24, 577, 1000, 99_991):
        q, r = big.divmod_int(m)
        assert 0 <= r < m and r == big.mod_int(m)
        assert q * m + r == big


@contextlib.contextmanager
def _counting_streams():
    """The argument tuples of the bignat._stream calls made inside."""
    calls, real = [], bignat._stream
    bignat._stream = lambda *args: calls.append(args) or real(*args)
    try:
        yield calls
    finally:
        bignat._stream = real


@pytest.mark.parametrize("runs, n", [
    ([((5,), 1), ((23,), 5000)], 1),  # the carry clears a whole run
    ([((5, 23), 3), ((23,), 4200)], 7),
    ([((1,), 1), ((0,), 4200), ((23, 23), 900), ((23,), 10)], 23),
    ([((9,), 1), ((23,), 5000), ((4, 5), 1)], 24**2 - 1),
    ([((2, 3, 14), 2000)], 24**3 - 1),
    # a wide lowest block just below its top, and at it: the sum is
    # too close to 24**width for the logarithm to tell
    ([((7,), 1), ((0,), 4200), ((23,) * 99 + (22,), 1)], 1),
    ([((7,), 1), ((0,), 4200), ((23,) * 99 + (22,), 1)], 2),
    ([((7,), 1), ((0,), 4200), ((23,) * 100, 1)], 24**100 - 1),
])
def test_small_int_carries_only_through_the_runs_it_reaches(runs, n):
    a = BigNat.from_runs(runs)
    value = a.to_int()
    with _counting_streams() as calls:
        sums = [a + n, n + a, a + BigNat(n)]
    assert calls == []
    for got in sums:
        assert got.to_int() == value + n
        assert got == value + n


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(_RUNS, st.integers(1, 3), st.integers(0, 3000), st.data())
def test_small_int_additions_agree_with_int(runs, width, tops, data):
    # a run of top blocks below the drawn runs makes the carry travel
    runs = [((1,), 1), ((0,), 4200)] + runs + [((BASE - 1,) * width, tops)]
    a = BigNat.from_runs(runs)
    n = data.draw(st.integers(0, BASE ** a._runs.runs[0][1] - 1))
    with _counting_streams() as calls:
        got = a + n
    assert calls == []
    assert got.to_int() == a.to_int() + n
