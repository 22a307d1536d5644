"""Exact arithmetic in Z[[q]] / q^N, the integers' power series ring truncated at order N.

A :class:`TruncatedSeries` stores coefficients of q^0 .. q^(N-1) as Python
ints, so every operation is exact: no floats, no modular tricks, no rounding.
Binary operations truncate to the smaller operand's order, since coefficients
past it are unknown for at least one side.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import accumulate
from operator import add, neg, sub
from typing import Iterable, Iterator, Optional

from .errors import NotAUnit, OrderTooSmall

__all__ = [
    "TruncatedSeries",
    "Comparison",
    "Mismatch",
    "Parity",
    "ParityVerdict",
    "linear_combine",
    "mul",
    "geometric_mul",
    "compare",
    "parity_of",
]

class TruncatedSeries:
    """An integer power series known exactly through q^(order-1). Immutable."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable[int]) -> None:
        cs = tuple(coeffs)
        if not cs:
            raise OrderTooSmall("a series needs at least the q^0 coefficient")
        for c in cs:
            # bool passes isinstance(int) but has no business in exact arithmetic
            if not isinstance(c, int) or isinstance(c, bool):
                raise TypeError(f"coefficients must be int, got {type(c).__name__}")
        self._coeffs = cs

    @classmethod
    def _trusted(cls, coeffs: Iterable[int]) -> "TruncatedSeries":
        """Wrap coefficients this package computed itself from ints.

        Skips the public constructor's per-coefficient type check; callers
        pass only results of int arithmetic on validated inputs.
        """
        cs = tuple(coeffs)
        if not cs:
            raise OrderTooSmall("a series needs at least the q^0 coefficient")
        self = object.__new__(cls)
        self._coeffs = cs
        return self

    @classmethod
    def zero(cls, order: int) -> "TruncatedSeries":
        return cls._trusted([0] * order)

    @classmethod
    def one(cls, order: int) -> "TruncatedSeries":
        return cls._trusted([1] + [0] * (order - 1))

    @classmethod
    def monomial(cls, exponent: int, order: int, coefficient: int = 1) -> "TruncatedSeries":
        """The series coefficient * q^exponent, truncated at `order`."""
        if exponent < 0:
            raise ValueError("exponent must be nonnegative")
        cs = [0] * order
        if exponent < order:
            cs[exponent] = coefficient
        return cls(cs)

    @property
    def order(self) -> int:
        """Number of known coefficients; the series is exact mod q^order."""
        return len(self._coeffs)

    @property
    def coefficients(self) -> tuple[int, ...]:
        return self._coeffs

    def __getitem__(self, n: int) -> int:
        if not 0 <= n < len(self._coeffs):
            raise IndexError(f"coefficient q^{n} is outside the known range")
        return self._coeffs[n]

    def __iter__(self) -> Iterator[int]:
        return iter(self._coeffs)

    def __len__(self) -> int:
        return len(self._coeffs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(self._coeffs)

    def __bool__(self) -> bool:
        return any(self._coeffs)

    # -- ring operations ----------------------------------------------------

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        n = min(len(self._coeffs), len(other._coeffs))
        return TruncatedSeries._trusted([a + b for a, b in zip(self._coeffs, other._coeffs)][:n])

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        n = min(len(self._coeffs), len(other._coeffs))
        return TruncatedSeries._trusted([a - b for a, b in zip(self._coeffs, other._coeffs)][:n])

    def __neg__(self) -> "TruncatedSeries":
        return TruncatedSeries._trusted([-a for a in self._coeffs])

    def __mul__(self, other):
        if isinstance(other, TruncatedSeries):
            return mul(self, other)
        if isinstance(other, int):
            return TruncatedSeries._trusted([other * a for a in self._coeffs])
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, int):
            return TruncatedSeries._trusted([other * a for a in self._coeffs])
        return NotImplemented

    # -- unary transforms ---------------------------------------------------

    def truncate(self, order: int) -> "TruncatedSeries":
        """Forget coefficients at and above q^order."""
        if order < 1:
            raise OrderTooSmall("truncation order must be at least 1")
        if order > len(self._coeffs):
            raise OrderTooSmall(
                f"cannot extend: series has order {len(self._coeffs)}, wanted {order}"
            )
        if order == len(self._coeffs):
            return self
        return TruncatedSeries._trusted(self._coeffs[:order])

    def shift(self, k: int) -> "TruncatedSeries":
        """Multiply by q^k (k >= 0), keeping the same order."""
        if k < 0:
            raise ValueError("shift must be nonnegative")
        n = len(self._coeffs)
        if k == 0:
            return self
        if k >= n:
            return TruncatedSeries.zero(n)
        return TruncatedSeries._trusted((0,) * k + self._coeffs[: n - k])

    def compose_sign(self) -> "TruncatedSeries":
        """Substitute q -> -q, i.e. negate the odd-index coefficients."""
        return TruncatedSeries._trusted(
            [c if i % 2 == 0 else -c for i, c in enumerate(self._coeffs)]
        )

    def compose_power(self, t: int) -> "TruncatedSeries":
        """Substitute q -> q^t for t >= 1, keeping the same order."""
        if t < 1:
            raise ValueError("power substitution needs t >= 1")
        n = len(self._coeffs)
        out = [0] * n
        for i in range(0, (n - 1) // t + 1):
            out[i * t] = self._coeffs[i]
        return TruncatedSeries._trusted(out)

    def invert(self) -> "TruncatedSeries":
        """Multiplicative inverse; exists over Z only when the constant term is +-1.

        Uses the standard recurrence g_n = -f_0 * sum_{i=1..n} f_i g_{n-i},
        valid since f_0 is its own inverse.
        """
        f = self._coeffs
        if f[0] not in (1, -1):
            raise NotAUnit(f"constant term {f[0]} is not invertible over the integers")
        n = len(f)
        f0 = f[0]
        g = [0] * n
        g[0] = f0
        for k in range(1, n):
            acc = 0
            for i in range(1, k + 1):
                fi = f[i]
                if fi:
                    acc += fi * g[k - i]
            g[k] = -f0 * acc
        return TruncatedSeries._trusted(g)

    # -- rendering ------------------------------------------------------------

    def __str__(self) -> str:
        return format_polynomial(self, max_terms=12)

    def __repr__(self) -> str:
        return f"TruncatedSeries(order={len(self._coeffs)}, {self})"


def format_polynomial(f: TruncatedSeries, max_terms: Optional[int] = None) -> str:
    """Render a series the way it would appear in print: c0 + c1*q + c2*q^2 + ...

    Zero terms are skipped; the tail marker ``+ O(q^N)`` records the order.
    """
    parts: list[str] = []
    shown = 0
    for n, c in enumerate(f.coefficients):
        if c == 0:
            continue
        if max_terms is not None and shown >= max_terms:
            parts.append("+ ...")
            break
        mag = abs(c)
        if n == 0:
            body = str(mag)
        else:
            head = "" if mag == 1 else f"{mag}*"
            body = f"{head}q" if n == 1 else f"{head}q^{n}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
        shown += 1
    if not parts:
        parts.append("0")
    parts.append(f"+ O(q^{f.order})")
    return " ".join(parts)


# -- module-level operations --------------------------------------------------


def linear_combine(c1: int, f: TruncatedSeries, c2: int, g: TruncatedSeries) -> TruncatedSeries:
    """c1*f + c2*g, truncated to the smaller order."""
    n = min(f.order, g.order)
    fc, gc = f.coefficients, g.coefficients
    return TruncatedSeries([c1 * fc[i] + c2 * gc[i] for i in range(n)])


class _Packing:
    """Kronecker substitution: a series mod q^order as one integer.

    A series is stored as its value at q = 2^w, reduced mod 2^(w*order);
    slot i of the integer holds the coefficient of q^i. Evaluation at 2^w
    is a ring homomorphism Z[q]/q^order -> Z/2^(w*order). Sums, products,
    multiplication by q^k and division by the unit 1 - s*q^b are ring
    operations, so any integer congruent to the value may stand for it and
    intermediate values need no bound. Reading the residue back as
    balanced base-2^w digits is exact when every coefficient read satisfies
    |c| < 2^(w-1). The width w is the least multiple of 8 with
    2^(w-1) > bound, so `bound` must bound every coefficient packed or
    unpacked.
    """

    __slots__ = ("order", "width", "mask", "_bytes", "_half", "_biases")

    def __init__(self, order: int, bound: int) -> None:
        if order < 1:
            raise OrderTooSmall("a series needs at least the q^0 coefficient")
        self.order = order
        self._bytes = (bound.bit_length() + 8) // 8
        self.width = 8 * self._bytes
        self.mask = (1 << (self.width * order)) - 1
        self._half = 1 << (self.width - 1)
        self._biases = int.from_bytes(self._half.to_bytes(self._bytes, "little") * order, "little")

    def pack(self, coeffs: Iterable[int]) -> int:
        """The value at q = 2^w of exactly `order` coefficients."""
        nb, half = self._bytes, self._half
        raw = b"".join([(c + half).to_bytes(nb, "little") for c in coeffs])
        return int.from_bytes(raw, "little") - self._biases

    def unpack(self, x: int) -> TruncatedSeries:
        """The series whose value is congruent to x; adding 2^(w-1) to every
        slot makes each digit nonnegative, so none borrows from the next."""
        nb, half = self._bytes, self._half
        raw = ((x + self._biases) & self.mask).to_bytes(nb * self.order, "little")
        return TruncatedSeries._trusted(
            [int.from_bytes(raw[i : i + nb], "little") - half for i in range(0, len(raw), nb)]
        )

    def shift(self, x: int, k: int) -> int:
        """x times q^k, for k >= 0."""
        if k >= self.order:
            return 0
        return (x << (k * self.width)) & self.mask

    def divide(self, x: int, b: int, s: int) -> int:
        """x divided by 1 - s*q^b, for b >= 1 and s = +-1.

        1/(1 - q^b) = Prod_t (1 + q^(b*2^t)) mod q^order, one shift-add per
        factor with b*2^t < order; 1/(1 + q^b) = (1 - q^b)/(1 - q^(2b)).
        """
        if b < 1:
            raise ValueError("geometric step must be at least 1")
        if b >= self.order:
            return x
        w, mask = self.width, self.mask
        if s == -1:
            x = (x - (x << (b * w))) & mask
            b *= 2
        while b < self.order:
            x = (x + (x << (b * w))) & mask
            b *= 2
        return x


def mul(f: TruncatedSeries, g: TruncatedSeries) -> TruncatedSeries:
    """Product truncated to min(f.order, g.order), by Kronecker substitution.

    Both operands are packed and multiplied once in CPython's bigint code.
    n*max(max|f|, 1)*max(max|g|, 1) bounds every product coefficient and
    every operand coefficient, so it sets the slot width.
    """
    n = min(f.order, g.order)
    fc, gc = f.coefficients[:n], g.coefficients[:n]
    p = _Packing(n, max(max(map(abs, fc)), 1) * max(max(map(abs, gc)), 1) * n)
    return p.unpack(p.pack(fc) * p.pack(gc))


def geometric_mul_inplace(coeffs: list[int], step: int, sign: int) -> None:
    """Multiply a coefficient list in place by sum_{j>=0} sign^j q^(j*step).

    Equivalently, divide by (1 - sign*q^step): out[n] = f[n] + sign*out[n-step].
    Each residue class mod step is then a running sum, alternating for
    sign = -1, which `accumulate` runs in C; negating the odd positions of
    the class before and after turns the alternating sum into a plain one.
    When the classes are short (step*step >= len), it instead updates one
    block of `step` coefficients at a time from the block before it.
    """
    if step < 1:
        raise ValueError("geometric step must be at least 1")
    if sign not in (1, -1):
        raise ValueError("geometric sign must be +1 or -1")
    n = len(coeffs)
    if step * step < n:
        for r in range(step):
            run = coeffs[r::step]
            if sign == -1:
                run[1::2] = map(neg, run[1::2])
                run = list(accumulate(run))
                run[1::2] = map(neg, run[1::2])
                coeffs[r::step] = run
            else:
                coeffs[r::step] = accumulate(run)
    else:
        op = add if sign == 1 else sub
        for i in range(step, n, step):
            coeffs[i : i + step] = map(op, coeffs[i : i + step], coeffs[i - step : i])


def geometric_mul(f: TruncatedSeries, step: int, sign: int) -> TruncatedSeries:
    """f(q) / (1 - sign*q^step), exact through f.order, in O(order) time."""
    cs = list(f.coefficients)
    geometric_mul_inplace(cs, step, sign)
    return TruncatedSeries._trusted(cs)


# -- comparison and parity -----------------------------------------------------


@dataclass(frozen=True)
class Mismatch:
    """First index where two series disagree, with both coefficients."""

    index: int
    lhs: int
    rhs: int


@dataclass(frozen=True)
class Comparison:
    equal: bool
    order_checked: int
    first_mismatch: Optional[Mismatch]


def compare(f: TruncatedSeries, g: TruncatedSeries, order: Optional[int] = None) -> Comparison:
    """Coefficient-exact comparison through q^(order-1).

    `order` defaults to the smaller operand order and may not exceed it.
    """
    limit = min(f.order, g.order)
    if order is None:
        order = limit
    if order < 1:
        raise OrderTooSmall("comparison order must be at least 1")
    if order > limit:
        raise OrderTooSmall(
            f"operands are only known through q^{limit - 1}, cannot compare at {order}"
        )
    fc, gc = f.coefficients, g.coefficients
    for i in range(order):
        if fc[i] != gc[i]:
            return Comparison(False, order, Mismatch(i, fc[i], gc[i]))
    return Comparison(True, order, None)


class Parity(Enum):
    ODD = "odd"
    EVEN = "even"
    NEITHER = "neither"
    ODD_AND_EVEN = "odd_and_even"


@dataclass(frozen=True)
class ParityVerdict:
    """Support pattern of a series: which residues mod 2 carry nonzero terms.

    ODD means every nonzero coefficient sits at an odd exponent, EVEN the
    mirror statement, ODD_AND_EVEN that the series is zero (both hold
    vacuously), NEITHER that both residue classes are occupied.
    first_nonzero_even / first_nonzero_odd locate the earliest nonzero
    coefficient of each class; first_violation is meaningful only for
    NEITHER, where it is the smaller of the two.
    """

    kind: Parity
    first_nonzero_even: Optional[int]
    first_nonzero_odd: Optional[int]

    @property
    def first_violation(self) -> Optional[int]:
        if self.kind is not Parity.NEITHER:
            return None
        assert self.first_nonzero_even is not None
        assert self.first_nonzero_odd is not None
        return min(self.first_nonzero_even, self.first_nonzero_odd)


def parity_of(f: TruncatedSeries) -> ParityVerdict:
    first_even: Optional[int] = None
    first_odd: Optional[int] = None
    for i, c in enumerate(f.coefficients):
        if c == 0:
            continue
        if i % 2 == 0:
            if first_even is None:
                first_even = i
        elif first_odd is None:
            first_odd = i
        if first_even is not None and first_odd is not None:
            break
    if first_even is None and first_odd is None:
        kind = Parity.ODD_AND_EVEN
    elif first_even is None:
        kind = Parity.ODD
    elif first_odd is None:
        kind = Parity.EVEN
    else:
        kind = Parity.NEITHER
    return ParityVerdict(kind, first_even, first_odd)
