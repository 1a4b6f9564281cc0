"""Exact naturals with a run-length base-24 representation.

Gödel codes of diagonal sentences are far too large to hold as plain
integers: substituting the numeral of a code c into a formula yields a
token string of length about 4c, so the code of the result has on the
order of c digits, and c itself already has thousands of digits.  Such
values are still highly structured: their digit strings consist of a few
explicit stretches plus long periodic runs coming from numeral segments.

``BigNat`` stores a natural either as a plain ``int`` or as a sequence of
runs of base-24 digits, each ``count`` copies of a ``width``-digit block
held as one int, as multiple-precision libraries hold words rather than
digits (Brent & Zimmermann, Modern Computer Arithmetic, 2010, section
1.1); arithmetic steps a whole stretch per big-int operation.  It
supports exactly the operations the certificate checker needs: addition,
subtraction, multiplication by moderate factors or powers of 24, division
with small divisors, modular reduction, and total ordering.  All of them
are exact; anything outside the supported fragment raises rather than
approximating.
"""

from __future__ import annotations

import sys
from itertools import accumulate
from math import lcm, log2
from typing import Iterable

BASE = 24

if hasattr(sys, "set_int_max_str_digits"):
    sys.set_int_max_str_digits(2_000_000)

# Collapse run forms back to plain ints below this many base-24 digits.
_COLLAPSE_DIGITS = 4096
# Refuse to materialize ints, or to step stretches in one operation, above
# this many base-24 digits.
_MATERIALIZE_LIMIT = 1_500_000
# Carries join the block copies they change up to this many digits.
_JOIN_DIGITS = 64
# Divisors of run forms stay below this: the remainders of a periodic run
# can take as many steps to recur.
_SMALL_FACTOR_CAP = 1 << 22

_LEAF = 512
_CHUNK = BASE**_LEAF
# A leaf splits into 12-digit pieces (24**12 < 2**56), and a piece into
# 2-digit pairs read from a table of their digits.
_PIECE = BASE**12
_PAIRS = [bytes(divmod(v, BASE)) for v in range(BASE * BASE)]
# byte d -> the character of digit d in int(..., 24)
_DIGIT_CHARS = bytes.maketrans(bytes(range(BASE)), b"0123456789abcdefghijklmn")


class BigNatError(ArithmeticError):
    """Raised when a value leaves the supported exact fragment."""


def _digit_count(n: int, base: int = BASE) -> int:
    """Number of digits of n >= 0 in base ``base`` (1 for zero), read from
    its bit length and one power comparison instead of a conversion."""
    if n < base:
        return 1
    k = int((n.bit_length() - 1) / log2(base))  # floor(log n), or one off
    p = base**k
    if p > n:
        return k
    return k + 1 + (n >= p * base)


# Radix conversion divides and conquers at the powers 24**(512 * 2**k), so
# both halves of a split have equal digit counts and a leaf has at most 512
# digits (Brent & Zimmermann, Modern Computer Arithmetic, 2010, section 1.7).

def _int_to_digits(n: int) -> tuple[int, ...]:
    """Base-24 digits of ``n``, most significant first."""
    powers = [_CHUNK]
    while 2 * powers[-1].bit_length() - 1 <= n.bit_length():
        powers.append(powers[-1] * powers[-1])
    out = bytearray()
    _put_digits(n, powers, len(powers) - 1, 0, out)
    return tuple(out) or (0,)


def _put_digits(n: int, powers: list[int], k: int, width: int,
                out: bytearray) -> None:
    """Append the digits of n < powers[k]**2, zero-padded to width digits;
    width 0 pads nothing, so a short value peels no full leaf."""
    if k < 0:
        pieces, digits = [], bytearray()
        while n:
            n, p = divmod(n, _PIECE)
            pieces.append(p)
        for p in reversed(pieces):
            h, p = divmod(p, 576**3)
            a, h = divmod(h, 576**2)
            b, p = divmod(p, 576**2)
            digits += _PAIRS[a] + _PAIRS[h // 576] + _PAIRS[h % 576] + \
                _PAIRS[b] + _PAIRS[p // 576] + _PAIRS[p % 576]
        out += digits.lstrip(b"\0").rjust(width, b"\0")
        return
    if not width and n < powers[k]:
        _put_digits(n, powers, k - 1, 0, out)
        return
    half = _LEAF << k
    hi, lo = divmod(n, powers[k])
    _put_digits(hi, powers, k - 1, width and width - half, out)
    _put_digits(lo, powers, k - 1, half, out)


def _digits_to_int(digits) -> int:
    """The value of a sequence of base-24 digits, most significant first."""
    powers = [_CHUNK]
    while _LEAF << len(powers) < len(digits):
        powers.append(powers[-1] * powers[-1])
    return _join_digits(digits, powers, len(powers) - 1)


def _join_digits(digits, powers: list[int], k: int) -> int:
    """The value of at most 512 * 2**(k+1) digits."""
    while k >= 0 and _LEAF << k >= len(digits):
        k -= 1
    if k < 0:
        return int(bytes(digits).translate(_DIGIT_CHARS), BASE) if digits \
            else 0
    cut = len(digits) - (_LEAF << k)
    return _join_digits(digits[:cut], powers, k - 1) * powers[k] + \
        _join_digits(digits[cut:], powers, k - 1)


class _Runs:
    """A digit sequence as (block, width, count) runs, least significant
    first: ``count`` copies of the ``width``-digit block, held as one int."""

    __slots__ = ("runs", "total")

    def __init__(self, runs: list[tuple[int, int, int]]):
        self.runs = runs
        self.total = sum(w * c for _, w, c in runs)

    def blocks_at(self, cuts: list[int]) -> list[tuple[int, int, int]]:
        """(block, width, phase) of the run holding each of the ascending
        digit positions ``cuts``; the zero block (0, 1, 0) past the end."""
        out = []
        i, start = 0, 0
        for pos in cuts:
            while i < len(self.runs) and \
                    start + self.runs[i][1] * self.runs[i][2] <= pos:
                start += self.runs[i][1] * self.runs[i][2]
                i += 1
            if i == len(self.runs):
                out.append((0, 1, 0))
            else:
                v, w, _ = self.runs[i]
                out.append((v, w, (pos - start) % w))
        return out


def _segments(a: _Runs, b: _Runs) -> list:
    """Cut two digit sequences at every run boundary of either, least
    significant first: (length, block of a, block of b) per stretch, each
    block as ``_Runs.blocks_at`` gives it at the stretch's first digit."""
    cuts = sorted({*accumulate((w * c for _, w, c in a.runs), initial=0),
                   *accumulate((w * c for _, w, c in b.runs), initial=0)})
    starts = cuts[:-1]
    return list(zip([hi - lo for lo, hi in zip(cuts, cuts[1:])],
                    a.blocks_at(starts), b.blocks_at(starts)))


def _window(v: int, w: int, phase: int, length: int) -> int:
    """The value of ``length`` digits of the w-digit block v repeated
    without end, from ``phase`` digits above its least significant one."""
    if not v:
        return 0
    if phase + length <= w:  # inside one copy: cut, do not rotate
        if phase:
            v //= BASE**phase
        return v if phase + length == w else v % BASE**length
    if phase:
        hi, lo = divmod(v, BASE**phase)
        v = hi + lo * BASE ** (w - phase)
    n, rest = divmod(length, w)
    value = v * ((BASE ** (w * n) - 1) // (BASE**w - 1))
    return value + (v % BASE**rest) * BASE ** (w * n) if rest else value


def _stream(a: _Runs, b: _Runs, state: int, step):
    """Combine two digit sequences with a finite-state transducer that
    reads whole stretches: ``step(x, y, width, state) -> (out, state)``
    takes the values of ``width`` digits of each operand and returns the
    value of ``width`` output digits.

    A stretch between two cuts is stepped in one call when it is shorter
    than the joint period of the two runs holding it.  Otherwise the joint
    period is stepped until the state stops changing, and the remaining
    periods repeat the last output as one run, so the cost is independent
    of run counts.  The carries and borrows used here are non-decreasing
    functions of the incoming state, so on a periodic stretch the states
    are monotone and settle on a fixed point after a few periods.
    Returns the output runs, least significant first, and the final state.
    """
    out = []
    for length, (va, wa, pa), (vb, wb, pb) in _segments(a, b):
        period = min(lcm(wa, wb), length)
        if period > _MATERIALIZE_LIMIT:
            raise BigNatError("stretch too long for exact streaming")
        nblocks, tail = divmod(length, period)
        x, y = _window(va, wa, pa, period), _window(vb, wb, pb, period)
        blocks: list[int] = []
        before = None
        while len(blocks) < nblocks and state != before:
            before = state
            d, state = step(x, y, period, state)
            blocks.append(d)
        out += [(_join(blocks, period), period * len(blocks), 1),
                (blocks[-1], period, nblocks - len(blocks))]
        if tail:
            cut = BASE**tail
            d, state = step(x % cut, y % cut, tail, state)
            out.append((d, tail, 1))
    return out, state


def _join(blocks: list[int], width: int) -> int:
    """One block from width-digit blocks given least significant first,
    joined in pairs so that the cost stays near-linear."""
    top = BASE**width
    while len(blocks) > 1:
        pairs = zip(blocks[::2], blocks[1::2] + [0])
        blocks = [lo + hi * top for lo, hi in pairs]
        top *= top
    return blocks[0] if blocks else 0


def _trim_msb_zeros(runs_lsb: list[tuple[int, int, int]]) -> list:
    """Drop empty runs and most significant zero digits, so the top block
    has no leading zero, and join neighbouring runs of one block, so that
    repeated additions of a small int do not splinter a run form."""
    runs: list[tuple[int, int, int]] = []
    for v, w, c in runs_lsb:
        if not w * c:
            continue
        if runs and runs[-1][0] == v and runs[-1][1] == w:
            c += runs.pop()[2]
        runs.append((v, w, c))
    while runs and runs[-1][0] == 0:
        runs.pop()
    if runs:
        v, w, c = runs[-1]
        n = _digit_count(v)
        if n < w:
            runs[-1:] = [(v, w, c - 1), (v, n, 1)] if c > 1 else [(v, n, 1)]
    return runs


class BigNat:
    """An exact natural number, possibly with an astronomically long
    base-24 digit string held in run-length form."""

    __slots__ = ("_int", "_runs")

    def __init__(self, value: int | _Runs):
        if isinstance(value, int):
            if value < 0:
                raise BigNatError("negative value")
            self._int: int | None = value
            self._runs: _Runs | None = None
        else:
            self._int = None
            self._runs = value

    # -- construction -------------------------------------------------

    @staticmethod
    def from_int(n: int) -> "BigNat":
        return BigNat(n)

    @staticmethod
    def from_digits(digits: Iterable[int]) -> "BigNat":
        """Build from base-24 digits given most significant first."""
        ds = list(digits)
        if any(d < 0 or d >= BASE for d in ds):
            raise BigNatError("digit out of range")
        return BigNat.from_runs([(tuple(ds), 1)] if ds else [])

    @staticmethod
    def from_runs(runs_msb: list[tuple[tuple[int, ...], int]]) -> "BigNat":
        """Build from (pattern, count) runs, most significant first.

        Pattern digits are given most significant first as well.
        """
        lsb: list[tuple[int, int, int]] = []
        for pattern, count in reversed(runs_msb):
            if count < 0:
                raise BigNatError("negative run count")
            if count == 0 or not pattern:
                continue
            if any(d < 0 or d >= BASE for d in pattern):
                raise BigNatError("digit out of range")
            lsb.append((_digits_to_int(pattern), len(pattern), count))
        return BigNat._from_lsb(lsb)

    @staticmethod
    def power24(exponent: int) -> "BigNat":
        if exponent < 0:
            raise BigNatError("negative exponent")
        return BigNat.from_runs([((1,), 1), ((0,), exponent)])

    @staticmethod
    def _from_lsb(runs_lsb: list[tuple[int, int, int]]) -> "BigNat":
        runs_lsb = _trim_msb_zeros(runs_lsb)
        if not runs_lsb:
            return BigNat(0)
        r = _Runs(runs_lsb)
        if r.total <= _COLLAPSE_DIGITS:
            return BigNat(BigNat(r)._materialize())
        return BigNat(r)

    # -- inspection ---------------------------------------------------

    @property
    def digits24(self) -> int:
        """Number of base-24 digits (1 for zero)."""
        if self._int is not None:
            return _digit_count(self._int)
        return self._runs.total

    def is_materializable(self) -> bool:
        return self._int is not None or self._runs.total <= _MATERIALIZE_LIMIT

    def to_int(self) -> int:
        if self._int is not None:
            return self._int
        if self._runs.total > _MATERIALIZE_LIMIT:
            raise BigNatError("value too large to materialize")
        return self._materialize()

    def _materialize(self) -> int:
        total = 0
        for v, w, c in reversed(self._runs.runs):  # msb first
            total = total * BASE ** (w * c) + _window(v, w, 0, w * c)
        return total

    def _as_runs(self) -> _Runs:
        if self._runs is not None:
            return self._runs
        return _Runs([(self._int, _digit_count(self._int), 1)])

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other: "BigNat | int") -> "BigNat":
        other = _coerce(other)
        if self._int is not None and other._int is not None:
            return BigNat(self._int + other._int)
        big, small = (other, self) if self._int is not None else (self, other)
        n, w = small._int, big._runs.runs[0][1]
        # below 24**w, read from the bit length (16**w) where it can be
        if n is not None and (n.bit_length() <= 4 * w or n < BASE**w):
            return BigNat._from_lsb(_add_int(big._runs.runs, n))

        def step(x: int, y: int, width: int, carry: int):
            s, top = x + y + carry, BASE**width
            return (s - top, 1) if s >= top else (s, 0)

        out, carry = _stream(self._as_runs(), other._as_runs(), 0, step)
        return BigNat._from_lsb(out + [(carry, 1, 1)])

    def __radd__(self, other: "BigNat | int") -> "BigNat":
        return self.__add__(other)

    def sub(self, other: "BigNat | int") -> "BigNat":
        other = _coerce(other)
        if self._int is not None and other._int is not None:
            if self._int < other._int:
                raise BigNatError("subtraction would go negative")
            return BigNat(self._int - other._int)

        def step(x: int, y: int, width: int, borrow: int):
            s = x - y - borrow
            return (s + BASE**width, 1) if s < 0 else (s, 0)

        out, borrow = _stream(self._as_runs(), other._as_runs(), 0, step)
        if borrow:
            raise BigNatError("subtraction would go negative")
        return BigNat._from_lsb(out)

    def shift24(self, k: int) -> "BigNat":
        """Multiply by 24**k."""
        if k < 0:
            raise BigNatError("negative shift")
        if self._int is not None and (self._int == 0 or k <= _COLLAPSE_DIGITS):
            return BigNat(self._int * BASE**k)
        runs = list(self._as_runs().runs)
        return BigNat._from_lsb([(0, 1, k)] + runs)

    def _mul_small(self, m: int) -> "BigNat":
        if self._int is not None:
            return BigNat(self._int * m)
        if m == 0:
            return BigNat(0)

        def step(x: int, _y: int, width: int, carry: int):
            carry, low = divmod(x * m + carry, BASE**width)
            return low, carry

        out, carry = _stream(self._runs, _Runs([]), 0, step)
        return BigNat._from_lsb(out + [(carry, _digit_count(carry), 1)])

    def _single_digit(self) -> tuple[int, int] | None:
        """If the value is d * 24**k with 0 < d < 24, return (d, k)."""
        found: tuple[int, int] | None = None
        pos = 0
        for v, w, c in self._as_runs().runs:  # lsb first
            if v:
                k = _digit_count(v) - 1
                d, rest = divmod(v, BASE**k)
                if rest or c > 1 or found is not None:
                    return None
                found = (d, pos + k)
            pos += w * c
        return found

    def __mul__(self, other: "BigNat | int") -> "BigNat":
        other = _coerce(other)
        if self._int is not None and other._int is not None:
            return BigNat(self._int * other._int)
        for a, b in ((self, other), (other, self)):
            single = b._single_digit()
            if single is not None:
                d, k = single
                return a._mul_small(d).shift24(k)
            if b._int is not None and b._int < BASE**64:
                return a._mul_small(b._int)
        raise BigNatError("product of two long run forms is unsupported")

    def __rmul__(self, other: "BigNat | int") -> "BigNat":
        return self.__mul__(other)

    def divmod_int(self, m: int) -> tuple["BigNat", int]:
        """Exact division by a small positive integer."""
        if m <= 0:
            raise BigNatError("divisor must be positive")
        if self._int is not None:
            q, r = divmod(self._int, m)
            return BigNat(q), r
        if m >= _SMALL_FACTOR_CAP:
            raise BigNatError("divisor too large for remainder transducer")
        # long division from the most significant run, one that can be
        # materialized in one step; in a longer one the remainder recurs
        out, rem = [], 0  # quotient runs, most significant first
        for v, w, c in reversed(self._runs.runs):
            if w * c <= _MATERIALIZE_LIMIT:
                q, rem = divmod(rem * BASE ** (w * c) + _window(v, w, 0, w * c), m)
                out.append((q, w * c, 1))
                continue
            top = BASE**w
            seen: dict[int, int] = {}
            blocks: list[int] = []
            while len(blocks) < c and rem not in seen:
                seen[rem] = len(blocks)
                q, rem = divmod(rem * top + v, m)
                blocks.append(q)
            out.append((_join(blocks[::-1], w), w * len(blocks), 1))
            if len(blocks) < c:
                first = seen[rem]
                cycle = blocks[first:]
                whole, part = divmod(c - len(blocks), len(cycle))
                out.append((_join(cycle[::-1], w), w * len(cycle), whole))
                out.append((_join(cycle[:part][::-1], w), w * part, 1))
                rem = list(seen)[first + part]
        return BigNat._from_lsb(out[::-1]), rem

    def mod_int(self, m: int) -> int:
        if m <= 0:
            raise BigNatError("modulus must be positive")
        if self._int is not None:
            return self._int % m
        r = 0
        for v, w, c in reversed(self._runs.runs):  # msb first
            ak, bk = _affine_pow(pow(BASE, w, m), v % m, c, m)
            r = (ak * r + bk) % m
        return r

    # -- comparison ---------------------------------------------------

    def compare(self, other: "BigNat | int") -> int:
        other = _coerce(other)
        if self._int is not None and other._int is not None:
            return (self._int > other._int) - (self._int < other._int)
        la, lb = self.digits24, other.digits24
        if la != lb:
            return 1 if la > lb else -1
        # from the most significant stretch down; two periodic stretches
        # that agree on their top wa + wb digits agree all the way down
        # (Fine and Wilf)
        for length, (va, wa, pa), (vb, wb, pb) in \
                reversed(_segments(self._as_runs(), other._as_runs())):
            window = min(length, wa + wb)
            skip = length - window
            x = _window(va, wa, (pa + skip) % wa, window)
            y = _window(vb, wb, (pb + skip) % wb, window)
            if x != y:
                return 1 if x > y else -1
        return 0

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (BigNat, int)):
            return self.compare(other) == 0
        return NotImplemented

    def __lt__(self, other: "BigNat | int") -> bool:
        return self.compare(other) < 0

    def __le__(self, other: "BigNat | int") -> bool:
        return self.compare(other) <= 0

    def __gt__(self, other: "BigNat | int") -> bool:
        return self.compare(other) > 0

    def __ge__(self, other: "BigNat | int") -> bool:
        return self.compare(other) >= 0

    def __hash__(self) -> int:
        if self._int is not None:
            return hash(self._int)
        # ints hash as their residue modulo the prime p, so equal values
        # hash alike in either form.  a = 24**w mod p is never 0, so a**c
        # needs only c mod (p - 1) (Fermat), and never 1 below the order of
        # 24 mod p (2.6e17 for 2**61 - 1, 7.2e8 for 2**31 - 1), so the sum
        # of a run's copies divides by a - 1
        p = sys.hash_info.modulus
        r = 0
        for v, w, c in reversed(self._runs.runs):  # msb first
            a = pow(BASE, w, p)
            ac = pow(a, c % (p - 1), p)
            r = (ac * r + v * (ac - 1) * pow(a - 1, -1, p)) % p
        return hash(r)

    # -- serialization ------------------------------------------------

    def to_json(self):
        if self._int is not None:
            return self._int
        return {
            "runs": [
                [[0] * (w - _digit_count(v)) + list(_int_to_digits(v)), c]
                for v, w, c in reversed(self._runs.runs)
            ]
        }

    @staticmethod
    def from_json(data) -> "BigNat":
        if isinstance(data, int):
            return BigNat(data)
        return BigNat.from_runs(
            [(tuple(p), c) for p, c in data["runs"]]
        )

    def __repr__(self) -> str:
        if self._int is not None:
            if self._int < 10**40:
                return f"BigNat({self._int})"
            s = str(self._int)
            return f"BigNat({s[:12]}...{s[-12:]}, dec_digits={len(s)})"
        return f"BigNat(<{len(self._runs.runs)} runs, {self.digits24} digits>)"


def as_int(value: "BigNat | int") -> "int | None":
    """The plain int of a natural, or None when it cannot be one."""
    if isinstance(value, BigNat):
        return value.to_int() if value.is_materializable() else None
    return value if isinstance(value, int) else None


def _add_int(runs: list[tuple[int, int, int]], n: int) -> list:
    """The runs of a run form plus n, least significant first, for n
    below 24**width of the lowest block.

    The carry out of a block is then at most one.  It passes a run of
    top blocks (every digit 23) in one step and stops in the first other
    block copy; the runs it does not reach stay as they are.  Neighbouring
    single copies it changes are joined while the block stays shorter
    than _JOIN_DIGITS, so that repeated small additions do not splinter
    the low end into one-digit runs.
    """
    out = [(0, 0, 1)]
    for i, (v, w, c) in enumerate(runs):
        while c and n:
            # no carry: the margin dwarfs the float error of the logarithms,
            # so 24**w is computed only for a sum close to it
            if log2(v + n) < w * log2(BASE) - 1e-6:
                n, low = 0, v + n
            elif n == 1 and v == BASE**w - 1:
                out.append((0, w, c))
                c = 0
                continue
            else:
                n, low = divmod(v + n, BASE**w)
            c -= 1
            pv, pw, pc = out[-1]
            if pc == 1 and pw + w <= _JOIN_DIGITS:
                out[-1] = (pv + low * BASE**pw, pw + w, 1)
            else:
                out.append((low, w, 1))
        if not n:
            return out + [(v, w, c)] + runs[i + 1:]
    return out + [(n, 1, 1)]


def _affine_pow(a: int, b: int, k: int, m: int) -> tuple[int, int]:
    """Compose x -> a*x + b (mod m) with itself k times, for 0 <= a < m.

    That is x -> a**k * x + b * (1 + a + ... + a**(k-1)); the geometric sum
    is (a**k - 1) / (a - 1), read off exactly from a**k mod m * (a - 1).
    """
    if a == 0:
        return (0, b % m) if k else (1, 0)
    if a == 1:
        return 1, b * k % m
    t = pow(a, k, m * (a - 1))
    return t % m, b * ((t - 1) // (a - 1)) % m


def _coerce(v: "BigNat | int") -> BigNat:
    if isinstance(v, BigNat):
        return v
    if isinstance(v, int):
        return BigNat(v)
    raise TypeError(f"cannot treat {type(v).__name__} as a natural")
