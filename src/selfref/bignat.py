"""Exact naturals with a run-length base-24 representation.

Gödel codes of diagonal sentences are far too large to hold as plain
integers: substituting the numeral of a code c into a formula yields a
token string of length about 4c, so the code of the result has on the
order of c digits, and c itself already has thousands of digits.  Such
values are still highly structured: their digit strings consist of a few
explicit stretches plus long periodic runs coming from numeral segments.

``BigNat`` stores a natural either as a plain ``int`` or as a sequence of
``(pattern, count)`` runs of base-24 digits (most significant first).  It
supports exactly the operations the certificate checker needs: addition,
subtraction, multiplication by moderate factors or powers of 24, division
with small divisors, modular reduction, and total ordering.  All of them
are exact; anything outside the supported fragment raises rather than
approximating.
"""

from __future__ import annotations

import sys
from math import gcd, log2
from typing import Iterable

BASE = 24

if hasattr(sys, "set_int_max_str_digits"):
    sys.set_int_max_str_digits(2_000_000)

# Collapse run forms back to plain ints below this many base-24 digits.
_COLLAPSE_DIGITS = 4096
# Refuse to materialize ints above this many base-24 digits.
_MATERIALIZE_LIMIT = 1_500_000
# Largest joint period the streaming engine will fast-forward over.
_PERIOD_CAP = 4096
# Segments at most this long are simulated digit by digit.
_EXPLICIT_CAP = 1 << 16
# Largest multiplier handled by the carry transducer in one pass.
_SMALL_FACTOR_CAP = 1 << 22

_LEAF = 512
_CHUNK = BASE**_LEAF
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
    out: list[int] = []
    _put_digits(n, powers, len(powers) - 1, 0, out)
    return tuple(out) or (0,)


def _put_digits(n: int, powers: list[int], k: int, width: int,
                out: list[int]) -> None:
    """Append the digits of n < powers[k]**2, zero-padded to width digits;
    width 0 pads nothing, so a short value peels no full leaf."""
    if k < 0:
        digits = []
        while n:
            n, d = divmod(n, BASE)
            digits.append(d)
        out.extend([0] * (width - len(digits)))
        out.extend(reversed(digits))
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
    """A digit sequence as (pattern, count) runs, least significant first.

    Patterns are stored least-significant-digit first as well, so the
    digit at offset j inside a run is ``pattern[j % len(pattern)]``.
    """

    __slots__ = ("runs", "total")

    def __init__(self, runs: list[tuple[tuple[int, ...], int]]):
        self.runs = runs
        self.total = sum(len(p) * c for p, c in runs)

    def boundaries(self) -> list[int]:
        out = [0]
        pos = 0
        for p, c in self.runs:
            pos += len(p) * c
            out.append(pos)
        return out

    def run_at(self, pos: int) -> tuple[tuple[int, ...], int, int]:
        """Return (pattern, phase, run_end) for the digit position ``pos``."""
        start = 0
        for p, c in self.runs:
            end = start + len(p) * c
            if pos < end:
                return p, (pos - start) % len(p), end
            start = end
        return (0,), 0, -1  # zero tail, unbounded


def _rotate(pattern: tuple[int, ...], phase: int) -> tuple[int, ...]:
    if phase == 0:
        return pattern
    return pattern[phase:] + pattern[:phase]


class _OutBuilder:
    """Accumulates output digits/runs least significant first."""

    __slots__ = ("runs", "buf")

    def __init__(self) -> None:
        self.runs: list[tuple[tuple[int, ...], int]] = []
        self.buf: list[int] = []

    def digit(self, d: int) -> None:
        self.buf.append(d)

    def flush(self) -> None:
        if self.buf:
            self.runs.append((tuple(self.buf), 1))
            self.buf = []

    def bulk(self, pattern: tuple[int, ...], count: int) -> None:
        if count <= 0 or not pattern:
            return
        self.flush()
        self.runs.append((pattern, count))

    def done(self) -> list[tuple[tuple[int, ...], int]]:
        self.flush()
        return self.runs


def _stream(runs_a: _Runs, runs_b: _Runs, state: int, step,
            drain_state: int | None):
    """Combine two digit streams with a finite-state digitwise transducer.

    ``step(da, db, state) -> (digit, state)``; returns the output runs
    and the final state.  Long stretches where both streams are periodic
    are fast-forwarded by detecting state cycles at the joint period, so
    the cost is independent of run lengths.  When
    ``drain_state`` is given, zero digits are fed in at the significant
    end until the state settles there; ``None`` stops at the last digit.
    """
    cuts = sorted(set(runs_a.boundaries()) | set(runs_b.boundaries()))
    out = _OutBuilder()
    for lo, hi in zip(cuts, cuts[1:]):
        length = hi - lo
        if length == 0:
            continue
        pa, pha, _ = runs_a.run_at(lo)
        pb, phb, _ = runs_b.run_at(lo)
        pa = _rotate(pa, pha)
        pb = _rotate(pb, phb)
        pj = len(pa) * len(pb) // gcd(len(pa), len(pb))
        nblocks, tail = divmod(length, pj)
        if length <= _EXPLICIT_CAP or nblocks <= 3:
            if length > _EXPLICIT_CAP:
                raise BigNatError("joint period too large for exact streaming")
            for j in range(length):
                d, state = step(pa[j % len(pa)], pb[j % len(pb)], state)
                out.digit(d)
            continue
        if pj > _PERIOD_CAP:
            raise BigNatError("joint period too large for exact streaming")
        block_a = pa * (pj // len(pa))
        block_b = pb * (pj // len(pb))
        entry_states: list[int] = []
        outputs: list[tuple[int, ...]] = []
        seen: dict[int, int] = {}
        k = 0
        while k < nblocks and state not in seen:
            seen[state] = k
            entry_states.append(state)
            digits = []
            for j in range(pj):
                d, state = step(block_a[j], block_b[j], state)
                digits.append(d)
                out.digit(d)
            outputs.append(tuple(digits))
            k += 1
        if k < nblocks:
            first = seen[state]
            cyclen = k - first
            cyc_digits = tuple(d for block in outputs[first:k] for d in block)
            whole, part = divmod(nblocks - k, cyclen)
            out.bulk(cyc_digits, whole)
            for block in outputs[first:first + part]:
                for d in block:
                    out.digit(d)
            state = entry_states[first + part] if part else entry_states[first]
        for j in range(tail):
            d, state = step(block_a[j % pj], block_b[j % pj], state)
            out.digit(d)
    if drain_state is not None:
        guard = 0
        while state != drain_state:
            d, state = step(0, 0, state)
            out.digit(d)
            guard += 1
            if guard > 64:
                raise BigNatError("transducer failed to settle")
    return out.done(), state


def _trim_msb_zeros(runs_lsb: list[tuple[tuple[int, ...], int]]) -> list:
    """Remove most-significant zero digits (they sit at the list tail)."""
    runs = list(runs_lsb)
    while runs:
        pattern, count = runs[-1]
        if all(d == 0 for d in pattern):
            runs.pop()
            continue
        if count > 1:
            runs[-1] = (pattern, count - 1)
            runs.append((pattern, 1))
            continue
        digits = list(pattern)
        while digits and digits[-1] == 0:
            digits.pop()
        runs.pop()
        if digits:
            runs.append((tuple(digits), 1))
        break
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
        lsb: list[tuple[tuple[int, ...], int]] = []
        for pattern, count in reversed(runs_msb):
            if count < 0:
                raise BigNatError("negative run count")
            if count == 0 or not pattern:
                continue
            if any(d < 0 or d >= BASE for d in pattern):
                raise BigNatError("digit out of range")
            lsb.append((tuple(reversed(pattern)), count))
        return BigNat._from_lsb(lsb)

    @staticmethod
    def power24(exponent: int) -> "BigNat":
        if exponent < 0:
            raise BigNatError("negative exponent")
        return BigNat.from_runs([((1,), 1), ((0,), exponent)])

    @staticmethod
    def _from_lsb(runs_lsb: list[tuple[tuple[int, ...], int]]) -> "BigNat":
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
        for pattern, count in reversed(self._runs.runs):  # msb first
            shift = BASE ** len(pattern)
            span = shift**count
            geo = (span - 1) // (shift - 1)
            total = total * span + _digits_to_int(pattern[::-1]) * geo
        return total

    def _as_runs(self) -> _Runs:
        if self._runs is not None:
            return self._runs
        return _Runs([(tuple(reversed(_int_to_digits(self._int))), 1)])

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other: "BigNat | int") -> "BigNat":
        other = _coerce(other)
        if self._int is not None and other._int is not None:
            return BigNat(self._int + other._int)

        def step(da: int, db: int, carry: int):
            s = da + db + carry
            return s % BASE, s // BASE

        return BigNat._from_lsb(
            _stream(self._as_runs(), other._as_runs(), 0, step, 0)[0]
        )

    def __radd__(self, other: "BigNat | int") -> "BigNat":
        return self.__add__(other)

    def sub(self, other: "BigNat | int") -> "BigNat":
        other = _coerce(other)
        if self._int is not None and other._int is not None:
            if self._int < other._int:
                raise BigNatError("subtraction would go negative")
            return BigNat(self._int - other._int)

        def step(da: int, db: int, borrow: int):
            s = da - db - borrow
            if s < 0:
                return s + BASE, 1
            return s, 0

        try:
            return BigNat._from_lsb(
                _stream(self._as_runs(), other._as_runs(), 0, step, 0)[0]
            )
        except BigNatError as exc:
            if "settle" in str(exc):
                raise BigNatError("subtraction would go negative") from None
            raise

    def shift24(self, k: int) -> "BigNat":
        """Multiply by 24**k."""
        if k < 0:
            raise BigNatError("negative shift")
        if self._int is not None and (self._int == 0 or k <= _COLLAPSE_DIGITS):
            return BigNat(self._int * BASE**k)
        runs = list(self._as_runs().runs)
        return BigNat._from_lsb([((0,), k)] + runs)

    def _mul_small(self, m: int) -> "BigNat":
        if self._int is not None:
            return BigNat(self._int * m)
        if m == 0:
            return BigNat(0)
        if m >= _SMALL_FACTOR_CAP:
            raise BigNatError("factor too large for carry transducer")

        def step(da: int, _db: int, carry: int):
            s = da * m + carry
            return s % BASE, s // BASE

        out, _ = _stream(self._as_runs(), _Runs([]), 0, step, 0)
        return BigNat._from_lsb(out)

    def _single_digit(self) -> tuple[int, int] | None:
        """If the value is d * 24**k, return (d, k)."""
        if self._int is not None:
            k = _digit_count(self._int) - 1
            d, rest = divmod(self._int, BASE**k)
            return None if rest else (d, k)
        found: tuple[int, int] | None = None
        pos = 0
        for pattern, count in self._runs.runs:  # lsb first
            nz = sum(1 for d in pattern if d != 0)
            if nz:
                if nz * count > 1 or found is not None:
                    return None
                offset = next(j for j, d in enumerate(pattern) if d != 0)
                found = (pattern[offset], pos + offset)
            pos += len(pattern) * count
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
            if b._int is not None and b._int < _SMALL_FACTOR_CAP:
                return a._mul_small(b._int)
            if b._int is not None and b._int < BASE**64:
                acc = BigNat(0)
                for d in _int_to_digits(b._int):
                    acc = acc.shift24(1)
                    if d:
                        acc = acc + a._mul_small(d)
                return acc
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
        # long division runs most significant digit first: reuse the
        # streaming engine on the digit-reversed sequence
        msb_runs = _Runs(
            [
                (tuple(reversed(p)), c)
                for p, c in reversed(self._runs.runs)
            ]
        )

        def step(da: int, _db: int, rem: int):
            cur = rem * BASE + da
            return cur // m, cur % m

        out_msb, rem = _stream(msb_runs, _Runs([]), 0, step, None)
        quotient_lsb = [
            (tuple(reversed(p)), c) for p, c in reversed(out_msb)
        ]
        return BigNat._from_lsb(quotient_lsb), rem

    def mod_int(self, m: int) -> int:
        if m <= 0:
            raise BigNatError("modulus must be positive")
        if self._int is not None:
            return self._int % m
        r = 0
        for pattern, count in reversed(self._runs.runs):  # msb first
            digits = pattern[::-1]
            b = 0  # the pattern's value mod m, folded one leaf at a time
            for i in range(0, len(digits), _LEAF):
                leaf = digits[i:i + _LEAF]
                b = (b * pow(BASE, len(leaf), m) + _digits_to_int(leaf)) % m
            ak, bk = _affine_pow(pow(BASE, len(pattern), m), b, count, m)
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
        ra = [(tuple(reversed(p)), c) for p, c in reversed(self._as_runs().runs)]
        rb = [(tuple(reversed(p)), c) for p, c in reversed(other._as_runs().runs)]
        a, b = _Runs(ra), _Runs(rb)
        cuts = sorted(set(a.boundaries()) | set(b.boundaries()))
        for lo, hi in zip(cuts, cuts[1:]):
            if hi <= lo:
                continue
            pa, pha, _ = a.run_at(lo)
            pb, phb, _ = b.run_at(lo)
            pa = _rotate(pa, pha)
            pb = _rotate(pb, phb)
            window = min(hi - lo, len(pa) + len(pb))
            for j in range(window):
                da = pa[j % len(pa)]
                db = pb[j % len(pb)]
                if da != db:
                    return 1 if da > db else -1
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
        # ints hash as their residue modulo this prime, so equal values
        # hash alike in either form
        return hash(self.mod_int(sys.hash_info.modulus))

    # -- serialization ------------------------------------------------

    def to_json(self):
        if self._int is not None:
            return self._int
        return {
            "runs": [
                [list(reversed(p)), c] for p, c in reversed(self._runs.runs)
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
