"""Exact arithmetic in Z[[q]] / q^N, the integers' power series ring truncated at order N.

A :class:`TruncatedSeries` stores coefficients of q^0 .. q^(N-1) as Python
ints, so every operation is exact: no floats, no modular tricks, no rounding.
Binary operations truncate to the smaller operand's order, since coefficients
past it are unknown for at least one side.
"""

from __future__ import annotations

import struct
from enum import Enum
from itertools import repeat
from operator import add, sub
from typing import Iterable, Iterator, Optional, Sequence

from .errors import NotAUnit, OrderTooSmall

__all__ = [
    "TruncatedSeries",
    "Comparison",
    "Mismatch",
    "Parity",
    "ParityVerdict",
    "mul",
    "compare",
    "parity_of",
    "format_polynomial",
]


def _check_ints(**params: object) -> None:
    """Reject a named parameter that is not an int or is a bool by a
    TypeError naming it."""
    for name, value in params.items():
        if not isinstance(value, int) or isinstance(value, bool):
            raise TypeError(f"{name} must be an int, got {value!r}")


def _check_args(order: int, **params: int) -> None:
    """Reject an order, or a named int parameter (a step, a base), as
    `_check_ints` does, and an order below 1."""
    _check_ints(order=order, **params)
    if order < 1:
        raise OrderTooSmall(f"a series needs order >= 1, got {order}")


class _Record:
    """Base of the package's immutable records.

    A record lists its fields in `__slots__` and sets them in its own
    `__init__` through `_set`. It equals a record of its own class with the
    same field values and nothing else, hashes those values, refuses
    assignment and deletion, matches positionally by its fields, and copies
    and pickles by rebuilding through its class, so `__init__` re-validates.
    """

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        cls.__match_args__ = cls.__slots__

    def _set(self, *values: object) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return type(self), self._values()


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
        return cls.monomial(0, order, 0)

    @classmethod
    def one(cls, order: int) -> "TruncatedSeries":
        return cls.monomial(0, order)

    @classmethod
    def monomial(cls, exponent: int, order: int, coefficient: int = 1) -> "TruncatedSeries":
        """The series coefficient * q^exponent, truncated at `order` >= 1."""
        _check_ints(exponent=exponent, order=order, coefficient=coefficient)
        if exponent < 0:
            raise ValueError("exponent must be nonnegative")
        cs = [0] * order
        if exponent < order:
            cs[exponent] = coefficient
        return cls._trusted(cs)

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
        return TruncatedSeries._trusted(map(add, self._coeffs, other._coeffs))

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return TruncatedSeries._trusted(map(sub, self._coeffs, other._coeffs))

    def __neg__(self) -> "TruncatedSeries":
        return TruncatedSeries._trusted([-a for a in self._coeffs])

    def __mul__(self, other):
        if isinstance(other, TruncatedSeries):
            return mul(self, other)
        if isinstance(other, int):
            _check_ints(scalar=other)
            return TruncatedSeries._trusted([other * a for a in self._coeffs])
        return NotImplemented

    __rmul__ = __mul__

    # -- unary transforms ---------------------------------------------------

    def truncate(self, order: int) -> "TruncatedSeries":
        """Forget coefficients at and above q^order."""
        _check_ints(order=order)
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
        _check_ints(k=k)
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
        _check_ints(t=t)
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


# `pack`'s byte maps: a slot's top byte with its top bit flipped, and the
# byte, 0x00 or 0xff, that repeats its sign bit in a wider lane
_FLIP_TOP = bytes(b ^ 0x80 for b in range(256))
_SIGN_FILL = bytes(0xFF if b & 0x80 else 0 for b in range(256))


class _Packing:
    """Kronecker substitution: a series mod q^order as one integer.

    A series is stored as its value at q = 2^w, reduced mod 2^(w*order);
    slot i of the integer holds the coefficient of q^i. Evaluation at 2^w
    is a ring homomorphism Z[q]/q^order -> Z/2^(w*order). Sums, products,
    multiplication by q^k and division by the unit 1 - s*q^b are ring
    operations, so any integer congruent to the value may stand for it and
    intermediate values need no bound. The same holds for every window
    n <= order: a value needed only mod q^n is worked on mod 2^(w*n), so
    `pack` and `divide` take the window they serve. Reading the residue
    back as balanced base-2^w digits is exact when every coefficient read
    satisfies |c| < 2^(w-1). The width w is the least multiple of 8 with
    2^(w-1) > bound, so `bound` must bound every coefficient packed or
    unpacked. `mul` packs its operands and unpacks their product; the
    double sums and `Y_DEF` in `constructors` pack coefficient lists,
    divide and shift them, and unpack one sum; `_solve` there multiplies
    packed blocks and reads back only the slots it needs (`digits`).

    `pack` and `digits`, which `unpack` reads through, each have two paths. A slot of at most 8 bytes
    goes through an 8-byte lane per slot, which one `struct` call writes or
    reads in C; `struct` handles no integer wider than 8 bytes, so a wider
    slot, which only `mul` on large coefficients needs, goes through
    `int.to_bytes` or `int.from_bytes` slot by slot.
    """

    __slots__ = ("order", "width", "mask", "_bytes", "_half", "_biases")

    def __init__(self, order: int, bound: int) -> None:
        if order < 1:
            raise OrderTooSmall("a series needs at least the q^0 coefficient")
        self.order = order
        self._bytes = self.slot_bytes(bound)
        self.width = 8 * self._bytes
        self.mask = (1 << (self.width * order)) - 1
        self._half = 1 << (self.width - 1)
        self._biases = int.from_bytes(self._half.to_bytes(self._bytes, "little") * order, "little")

    @staticmethod
    def slot_bytes(bound: int) -> int:
        """The bytes of a slot that holds every |c| <= bound."""
        return (bound.bit_length() + 8) // 8

    def pack(self, coeffs: Sequence[int]) -> int:
        """The value at q = 2^w of a window of at most `order` coefficients.

        A coefficient outside the slot raises OverflowError. Each slot
        holds c + 2^(w-1), which is nonnegative, so no slot borrows from
        the next. For a slot of at most 8 bytes, `struct` writes each c as
        an 8-byte two's-complement lane; the lane's low bytes are the slot,
        and flipping its top bit adds 2^(w-1) mod 2^w. The c fits exactly
        when the lane bytes dropped all repeat the slot's sign bit.
        """
        n, nb = len(coeffs), self._bytes
        if n > self.order:
            raise ValueError(f"a packing holds at most {self.order} coefficients, got {n}")
        biases = self._biases if n == self.order else self._biases & self._ones(n)
        if nb > 8:
            half = self._half
            raw = b"".join([(c + half).to_bytes(nb, "little") for c in coeffs])
            return int.from_bytes(raw, "little") - biases
        try:
            lanes = struct.pack(f"<{n}q", *coeffs)
        except struct.error:  # the count matches, so a coefficient is past 64 bits
            raise OverflowError(f"a coefficient does not fit in a {self.width}-bit slot") from None
        top = lanes[nb - 1 :: 8]
        fill = top.translate(_SIGN_FILL)
        if any(lanes[t::8] != fill for t in range(nb, 8)):
            raise OverflowError(f"a coefficient does not fit in a {self.width}-bit slot")
        raw = bytearray(nb * n)
        for t in range(nb - 1):  # byte t of every lane goes to byte t of its slot
            raw[t::nb] = lanes[t::8]
        raw[nb - 1 :: nb] = top.translate(_FLIP_TOP)
        return int.from_bytes(raw, "little") - biases

    def unpack(self, x: int) -> TruncatedSeries:
        """The series whose value is congruent to x."""
        return TruncatedSeries._trusted(self.digits(x))

    def digits(self, x: int, h: int = 0) -> Iterable[int]:
        """The coefficients h..order-1 of the series whose value is
        congruent to x, for 0 <= h <= order; adding 2^(w-1) to every slot
        makes each digit nonnegative, so none borrows from the next, and
        only the slots from h on are read."""
        nb, half, n = self._bytes, self._half, self.order - h
        raw = (((x + self._biases) & self.mask) >> (self.width * h)).to_bytes(nb * n, "little")
        if nb > 8:
            return [int.from_bytes(raw[i : i + nb], "little") - half for i in range(0, len(raw), nb)]
        if nb < 8:  # byte t of every slot goes to byte t of its lane
            lanes = bytearray(8 * n)
            for t in range(nb):
                lanes[t::8] = raw[t::nb]
            raw = lanes
        return map(sub, struct.unpack(f"<{n}Q", raw), repeat(half))

    def _ones(self, n: int) -> int:
        """2^(w*n) - 1, the mask of the window of n slots, 0 <= n <= order."""
        return self.mask >> (self.width * (self.order - n))

    def divide(self, x: int, b: int, s: int, n: int) -> int:
        """x divided by 1 - s*q^b mod q^n, as an int in [0, 2^(w*n)), for
        b >= 1, s = +-1 and a window 0 <= n <= order.

        1/(1 - q^b) = Prod_t (1 + q^(b*2^t)) mod q^n, one shift-add per
        factor with b*2^t < n; 1/(1 + q^b) = (1 - q^b)/(1 - q^(2b)), with
        the factor 1 - q^b taken last, so that a short x, such as 1, grows
        by doubling and reaches the full window only at the last steps.
        Every value masked is nonnegative, where `&` is cheapest: x - x*q^b
        is taken with a bit set above both terms.
        """
        if b < 1:
            raise ValueError("geometric step must be at least 1")
        w = self.width
        mask = self._ones(n)
        x &= mask
        step = 2 * b if s == -1 else b
        while step < n:
            x = (x + (x << (w * step))) & mask
            step *= 2
        if s == -1 and b < n:
            x = ((x | (1 << (w * (n + b)))) - (x << (w * b))) & mask
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


# -- comparison and parity -----------------------------------------------------


class Mismatch(_Record):
    """First index where two series disagree, with both coefficients."""

    __slots__ = ("index", "lhs", "rhs")

    def __init__(self, index: int, lhs: int, rhs: int) -> None:
        self._set(index, lhs, rhs)


class Comparison(_Record):
    __slots__ = ("equal", "order_checked", "first_mismatch")

    def __init__(self, equal: bool, order_checked: int, first_mismatch: Optional[Mismatch]) -> None:
        self._set(equal, order_checked, first_mismatch)


def compare(f: TruncatedSeries, g: TruncatedSeries, order: Optional[int] = None) -> Comparison:
    """Coefficient-exact comparison through q^(order-1).

    `order` defaults to the smaller operand order and may not exceed it.
    """
    limit = min(f.order, g.order)
    if order is None:
        order = limit
    _check_ints(order=order)
    if order < 1:
        raise OrderTooSmall("comparison order must be at least 1")
    if order > limit:
        raise OrderTooSmall(
            f"operands are only known through q^{limit - 1}, cannot compare at {order}"
        )
    fc, gc = f.coefficients, g.coefficients
    if fc[:order] == gc[:order]:  # one C-level pass; the scan below finds the index
        return Comparison(True, order, None)
    for i in range(order):
        if fc[i] != gc[i]:
            return Comparison(False, order, Mismatch(i, fc[i], gc[i]))
    return Comparison(True, order, None)


class Parity(Enum):
    ODD = "odd"
    EVEN = "even"
    NEITHER = "neither"
    ODD_AND_EVEN = "odd_and_even"


class ParityVerdict(_Record):
    """Support pattern of a series: which residues mod 2 carry nonzero terms.

    ODD means every nonzero coefficient sits at an odd exponent, EVEN the
    mirror statement, ODD_AND_EVEN that the series is zero (both hold
    vacuously), NEITHER that both residue classes are occupied.
    first_nonzero_even / first_nonzero_odd locate the earliest nonzero
    coefficient of each class; first_violation is meaningful only for
    NEITHER, where it is the smaller of the two.
    """

    __slots__ = ("kind", "first_nonzero_even", "first_nonzero_odd")

    def __init__(
        self, kind: Parity, first_nonzero_even: Optional[int], first_nonzero_odd: Optional[int]
    ) -> None:
        self._set(kind, first_nonzero_even, first_nonzero_odd)

    @property
    def first_violation(self) -> Optional[int]:
        if self.kind is not Parity.NEITHER:
            return None
        assert self.first_nonzero_even is not None
        assert self.first_nonzero_odd is not None
        return min(self.first_nonzero_even, self.first_nonzero_odd)


def parity_of(f: TruncatedSeries) -> ParityVerdict:
    cs = f.coefficients
    even, odd = (next((i for i in range(r, len(cs), 2) if cs[i]), None) for r in (0, 1))
    if even is None:
        kind = Parity.ODD_AND_EVEN if odd is None else Parity.ODD
    else:
        kind = Parity.EVEN if odd is None else Parity.NEITHER
    return ParityVerdict(kind, even, odd)
