"""Exact truncated q-series arithmetic and the named series of the project.

All coefficients are exact integers, except where a global factor 1/2 enters
(the g1 component and its coefficient sequence a(n)); those use Fractions
with denominator dividing 2.  No floating point ever touches this module.

The module also provides a brute-force enumeration of lower 1-run
overpartitions, which serves as the independent oracle for every exact
formula downstream.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

__all__ = [
    "TruncatedSeries",
    "SERIES_NAMES",
    "named_series",
    "pochhammer_inf",
    "enumerate_p1bar",
    "check_ramanujan_relation",
    "DEFAULT_ENUMERATION_CEILING",
]

DEFAULT_ENUMERATION_CEILING = 60


class TruncatedSeries:
    """A power series known exactly up to and including order M.

    coeffs[j] is the coefficient of q^j; len(coeffs) == order + 1 always.
    Arithmetic silently truncates at the smaller order of the operands and
    never extends a series.
    """

    __slots__ = ("coeffs", "order")

    def __init__(self, coeffs, order=None):
        coeffs = list(coeffs)
        if order is None:
            if not coeffs:
                raise ValueError("empty coefficient list needs an explicit order")
            order = len(coeffs) - 1
        if order < 0:
            raise ValueError("order must be non-negative")
        if len(coeffs) < order + 1:
            coeffs = coeffs + [0] * (order + 1 - len(coeffs))
        else:
            coeffs = coeffs[: order + 1]
        self.coeffs = coeffs
        self.order = order

    @classmethod
    def one(cls, order):
        return cls([1] + [0] * order, order)

    @classmethod
    def zero(cls, order):
        return cls([0] * (order + 1), order)

    def __repr__(self):
        head = ", ".join(str(c) for c in self.coeffs[:6])
        tail = ", ..." if self.order > 5 else ""
        return f"TruncatedSeries([{head}{tail}], order={self.order})"

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        m = min(self.order, other.order)
        return self.coeffs[: m + 1] == other.coeffs[: m + 1] and self.order == other.order

    def __hash__(self):
        return hash((tuple(self.coeffs), self.order))

    def coefficient(self, n):
        if not 0 <= n <= self.order:
            raise IndexError(f"coefficient {n} beyond truncation order {self.order}")
        return self.coeffs[n]

    def _common_order(self, other):
        return min(self.order, other.order)

    def __add__(self, other):
        m = self._common_order(other)
        return TruncatedSeries([self.coeffs[j] + other.coeffs[j] for j in range(m + 1)], m)

    def __sub__(self, other):
        m = self._common_order(other)
        return TruncatedSeries([self.coeffs[j] - other.coeffs[j] for j in range(m + 1)], m)

    def __neg__(self):
        return TruncatedSeries([-c for c in self.coeffs], self.order)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return TruncatedSeries([c * other for c in self.coeffs], self.order)
        m = self._common_order(other)
        out = [0] * (m + 1)
        for i, a in enumerate(self.coeffs[: m + 1]):
            if a == 0:
                continue
            for j in range(m + 1 - i):
                b = other.coeffs[j]
                if b != 0:
                    out[i + j] += a * b
        return TruncatedSeries(out, m)

    __rmul__ = __mul__

    def inverse(self):
        """Multiplicative inverse; requires unit constant term +-1."""
        c0 = self.coeffs[0]
        if c0 not in (1, -1):
            raise ValueError("not invertible: constant term must be +-1")
        m = self.order
        out = [0] * (m + 1)
        out[0] = c0  # 1/c0 == c0 for +-1
        for j in range(1, m + 1):
            acc = 0
            for i in range(1, j + 1):
                a = self.coeffs[i]
                if a != 0:
                    acc += a * out[j - i]
            out[j] = -c0 * acc
        return TruncatedSeries(out, m)

    def power(self, e):
        if e < 0:
            return self.inverse().power(-e)
        result = TruncatedSeries.one(self.order)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    def alternate(self):
        """Substitute q -> -q (coefficientwise sign twist)."""
        return TruncatedSeries(
            [c if j % 2 == 0 else -c for j, c in enumerate(self.coeffs)], self.order
        )

    def shift(self, d):
        """Multiply by q^d."""
        if d < 0:
            raise ValueError("shift must be non-negative")
        return TruncatedSeries([0] * d + self.coeffs[: self.order + 1 - d], self.order)

    def divide_binomial(self, d, c):
        """Divide by (1 + c*q^d) in O(M); exact for any integer c, d >= 1."""
        if d < 1:
            raise ValueError("binomial exponent must be >= 1")
        out = list(self.coeffs)
        for j in range(d, self.order + 1):
            out[j] = out[j] - c * out[j - d]
        return TruncatedSeries(out, self.order)

    def multiply_binomial(self, d, c):
        """Multiply by (1 + c*q^d) in O(M)."""
        if d < 1:
            raise ValueError("binomial exponent must be >= 1")
        out = list(self.coeffs)
        for j in range(self.order, d - 1, -1):
            out[j] = out[j] + c * out[j - d]
        return TruncatedSeries(out, self.order)

    def to_json_dict(self, name):
        """Exact export: coefficients rendered as decimal strings, never floats."""
        return {
            "name": name,
            "order": self.order,
            "coeffs": [_decimal_string(c) for c in self.coeffs],
        }


def _decimal_string(c):
    """Exact decimal rendering; Fractions here always have denominator 1 or 2."""
    if isinstance(c, Fraction):
        if c.denominator == 1:
            return str(c.numerator)
        if c.denominator == 2:
            whole, rem = divmod(abs(c.numerator), 2)
            sign = "-" if c.numerator < 0 else ""
            return f"{sign}{whole}.5" if rem else f"{sign}{whole}"
        raise ValueError(f"coefficient denominator {c.denominator} not decimal-exact")
    return str(c)


def pochhammer_inf(sign, a, b, order):
    """(sign*q^a; q^b)_infinity = prod_{k>=0} (1 - sign*q^(a+k*b)), truncated."""
    if sign not in (1, -1):
        raise ValueError("sign must be +-1")
    if a < 1 or b < 1:
        raise ValueError("exponents a, b must be >= 1")
    out = TruncatedSeries.one(order)
    e = a
    while e <= order:
        out = out.multiply_binomial(e, -sign)
        e += b
    return out


def _mock_theta_f(order):
    """f(q) = sum_{n>=0} q^(n^2) / (-q;q)_n^2."""
    acc = TruncatedSeries.zero(order)
    recip = TruncatedSeries.one(order)
    n = 0
    while n * n <= order:
        if n >= 1:
            recip = recip.divide_binomial(n, 1).divide_binomial(n, 1)
        acc = acc + recip.shift(n * n)
        n += 1
    return acc


def _mock_theta_phi(order):
    """phi(q) = sum_{n>=0} q^(n^2) / (-q^2;q^2)_n."""
    acc = TruncatedSeries.zero(order)
    recip = TruncatedSeries.one(order)
    n = 0
    while n * n <= order:
        if n >= 1:
            recip = recip.divide_binomial(2 * n, 1)
        acc = acc + recip.shift(n * n)
        n += 1
    return acc


def _mock_theta_omega(order):
    """omega(q) = sum_{n>=0} q^(2n(n+1)) / (q;q^2)_{n+1}^2."""
    acc = TruncatedSeries.zero(order)
    recip = TruncatedSeries.one(order)
    n = 0
    while 2 * n * (n + 1) <= order:
        e = 2 * n + 1
        if e <= order:
            recip = recip.divide_binomial(e, -1).divide_binomial(e, -1)
        acc = acc + recip.shift(2 * n * (n + 1))
        n += 1
    return acc


def _build_series(name, order):
    E = lambda a, b: pochhammer_inf(1, a, b, order)  # (q^a; q^b)_inf
    if name == "P":
        return E(1, 1).inverse()
    if name == "Pbar":
        return pochhammer_inf(-1, 1, 1, order) * E(1, 1).inverse()
    if name == "f":
        return _mock_theta_f(order)
    if name == "phi":
        return _mock_theta_phi(order)
    if name == "omega_mock":
        return _mock_theta_omega(order)
    if name == "xi":
        # P(q^2)^4 / (P(q^4)^2 P(q)) as the eta quotient
        # (q^4;q^4)^2 (q;q) / (q^2;q^2)^4.
        return E(4, 4).power(2) * E(1, 1) * E(2, 2).inverse().power(4)
    if name == "G1":
        return E(4, 4) * E(1, 1).inverse() * E(2, 2).inverse() * _mock_theta_phi(order)
    if name == "G1bar":
        # (-q;-q)_inf = (-q;q^2)_inf (q^2;q^2)_inf
        mqmq = pochhammer_inf(-1, 1, 2, order) * E(2, 2)
        phi_neg = _mock_theta_phi(order).alternate()
        return E(4, 4) * mqmq.inverse() * E(2, 2).inverse() * phi_neg
    if name == "g1":
        half = Fraction(1, 2)
        base = E(4, 4).power(2) * E(1, 1) * E(2, 2).inverse().power(4) * _mock_theta_f(order)
        return base * half
    if name == "g2":
        half = Fraction(1, 2)
        base = E(4, 4).power(2) * E(1, 1).power(4) * E(2, 2).inverse().power(6)
        return base * half
    raise ValueError(f"unknown series tag {name!r}")


SERIES_NAMES = ("P", "Pbar", "f", "phi", "omega_mock", "xi", "G1", "G1bar", "g1", "g2")


@lru_cache(maxsize=64)
def named_series(name, order):
    """Build one of the named q-series, exactly, up to `order`."""
    if name not in SERIES_NAMES:
        raise ValueError(f"unknown series tag {name!r}")
    if order < 0:
        raise ValueError("order must be non-negative")
    return _build_series(name, order)


def enumerate_p1bar(n, ceiling=DEFAULT_ENUMERATION_CEILING):
    """Count lower 1-run overpartitions of n by exhaustive recursion.

    Equivalent to filtering every overpartition of n with the validity
    predicate, but organized as a recursion over part sizes so the count
    stays feasible up to the configured ceiling.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    if n > ceiling:
        raise ValueError(f"n={n} beyond enumeration ceiling {ceiling}; use generating function")

    @lru_cache(maxsize=None)
    def count(m, rem, above_overlined):
        # above_overlined: size m+1 is overlined, so size m must be absent
        # (the gap) and in particular cannot itself be overlined.
        if m == 0:
            return 1 if rem == 0 else 0
        if above_overlined:
            return count(m - 1, rem, False)
        total = 0
        for c in range(rem // m + 1):
            total += count(m - 1, rem - c * m, False)
            if c >= 1:
                total += count(m - 1, rem - c * m, True)
        return total

    result = count(n, n, False) if n > 0 else 1
    count.cache_clear()
    return result


def check_ramanujan_relation(order):
    """Test 2*phi(-q) - f(q) == (q;q)^2 / ((-q;q) (q^2;q^2)) coefficientwise.

    Returns (True, None) on full agreement up to `order`, else
    (False, first_failing_index).
    """
    lhs = _mock_theta_phi(order).alternate() * 2 - _mock_theta_f(order)
    rhs = (
        pochhammer_inf(1, 1, 1, order).power(2)
        * pochhammer_inf(-1, 1, 1, order).inverse()
        * pochhammer_inf(1, 2, 2, order).inverse()
    )
    for j in range(order + 1):
        if lhs.coeffs[j] != rhs.coeffs[j]:
            return False, j
    return True, None
