"""Exact arithmetic in multiquadratic fields Q(sqrt(d1),...,sqrt(dk)).

Elements are rational coordinate vectors over the subset basis
{prod_{i in S} sqrt(d_i) : S subseteq {1..k}}, indexed by bitmask with
generator 0 as the least significant bit.  An element is stored as integer
numerators over one positive denominator, reduced so that gcd(den, *nums) = 1;
that form is canonical, so equality and hashing compare it directly, and
``Fraction`` coordinates are only built when ``coords`` is read.  The
constructor reads each coordinate's ``as_integer_ratio()`` directly when it
is an ``int`` or ``Fraction``, and goes through ``Fraction(c)`` otherwise.
Automorphisms are sign vectors on the generators, so the Galois group over Q
is elementary abelian of order 2^k and composes by XOR of masks;
``galois_group`` returns that XOR group alone, and a ``FieldAutomorphism`` is
built from a mask only where one is applied to elements.

Because the top generator is the most significant bit, a coordinate vector of
length 2^k splits in halves as x = a + b*sqrt(d) with d = d_{k-1} and a, b
coordinate vectors of K = Q(sqrt(d_0),...,sqrt(d_{k-2})).  Arithmetic recurses
on that split, on plain integer vectors:

* a product is the twisted XOR-convolution z[m1 ^ m2] += x[m1]·y[m2]·P[m1 & m2],
  P[S] = prod_{i in S} d_i.  From 16 to 256 coordinates it is one int64
  kernel, z = (X[m ^ m2] * W) @ Y with W[m, m2] = P[m2 & ~m] gathered once
  per field, wherever max|x|·max|y|·max|P|·n <= 2^63 - 1: that bounds every
  term and partial sum, so the kernel cannot overflow and returns the same
  Python ints.  A field whose subset products pass int64 has no weights and
  never takes it.  Every other product is Karatsuba's, (a + b√d)(c + e√d) =
  (ac + d·be) + ((a+b)(c+e) - ac - be)√d, three products in K (fewer when b
  or e is 0), down to ``_CONVOLVE_MAX`` = 16 coordinates, where one loop over
  the nonzero coordinate pairs on Python ints convolves, exact at any size.
  The product's denominator is the product of the two denominators;
* the inverse is (a - b√d) / N with the norm N = a² - d·b² in K, itself
  inverted recursively down to a = ±1/|a|, with the content divided out at
  each level so that the integers stay small; a zero element raises
  ZeroDivisionError.  The squares a² and b² are ``_mul``'s case ``y is x``:
  it takes the kernel or splits as any product does, where the middle
  product is (a+b)² and 2ab = (a+b)² - a² - b², and convolves once over the
  nonzero pairs m1 < m2, each doubled, about half the products of two
  different vectors.

The canonical square root of a rational r^2 * prod_{i in S} d_i is the
positive multiple r of the basis monomial for S.  A square class is a vector
over F_2: the sign and the parity of each prime of the generators.  The
generators' vectors are reduced to a basis once per field, which proves them
independent (or names the first subset whose product is a square), and
q = n/m has a root on the monomial of S exactly when the vector of n*m is the
sum of S's and what n*m keeps of other primes is a square (tested with isqrt);
independence leaves at most one S.  Only the generators are factored, so a
field of any k is checked, and a square root located, without the 2^k subset
products, which are built on the arithmetic's first use.

For a tower Q <= K <= L with rational alpha, every tau fixes alpha, so the
sign character chi(rho, tau) only asks whether rho negates sqrt(alpha): it is
the parity of the generators that rho flips on the monomial of sqrt(alpha),
whatever tau is.  The law chi(r1 r2, tau) = chi(r2, r1^-1 tau) + chi(r1, tau)
holds for a product of the r1 it holds for, so ``verify_cocycle`` checks it on generators.
When [L:K] = 2, ``quadratic_kummer_embedding`` is the kk embedding of
1 -> Gal(L/K) -> Gal(L/Q) -> Gal(K/Q) -> 1 through the section that lifts each
tau to the automorphism fixing sqrt(alpha): sigma_rho is then eta^chi(rho, .).
"""

from __future__ import annotations

import functools
from fractions import Fraction
from math import gcd, isqrt, lcm, prod
from typing import Optional, Sequence

import numpy as np

from .errors import TowerError
from .groups import FiniteGroup, GroupHom, Section, _first_failure, subgroup_from_elements
from .wreath import WreathGroup, _check_wreath_order
from .embeddings import EmbeddingReport, ShortExactSequence, kk_embedding, verify_embedding

GENERATOR_BOUND = 10**6
# coordinate types whose as_integer_ratio() is already the reduced Fraction(c) form
_EXACT_TYPES = (int, Fraction)


# _mul convolves vectors of at most this many coordinates and splits longer ones
_CONVOLVE_MAX = 16
# _mul, squares included, hands vectors of _KERNEL_MIN to _KERNEL_MAX coordinates to the
# int64 kernel wherever _kernel_admits proves that no sum in it can overflow.  At 8
# coordinates the kernel's numpy calls and the field's weights cost more than the
# Python loop they replace.
_KERNEL_MIN, _KERNEL_MAX = 16, 256
_INT64_MAX = 2**63 - 1


@functools.cache
def _masks(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(m ^ m2, m2 & ~m) for m (rows) and m2 (columns) below n."""
    m = np.arange(n)
    return m[:, None] ^ m, m & ~m[:, None]


def _kernel_admits(x: Sequence[int], y: Sequence[int], field: "MultiQuadField") -> bool:
    """Whether ``_kernel`` computes the product of x and y exactly: n is in the
    kernel's range, the field has int64 weights, and max|x| max|y| max|P[:n]| n
    <= 2^63 - 1 bounds every term and partial sum.  Every |d_i| >= 1, so the
    largest weight is |P[n - 1]|; a zero vector counts as max 1, so that the
    other operand must fit int64 too."""
    n = len(x)
    return (_KERNEL_MIN <= n <= _KERNEL_MAX and field._weights is not None
            and (max(map(abs, x)) or 1) * (max(map(abs, y)) or 1)
            * abs(field._products[n - 1]) * n <= _INT64_MAX)


def _kernel(x: Sequence[int], y: Sequence[int], field: "MultiQuadField") -> list[int]:
    """The twisted XOR-convolution in int64: z = (X[m ^ m2] * W) @ Y, with the
    subfield's weights W[m, m2] = P[m2 & ~m] the top-left n x n block of the field's."""
    n = len(x)
    xor, _ = _masks(n)
    return ((np.array(x, dtype=np.int64)[xor] * field._weights[:n, :n])
            @ np.array(y, dtype=np.int64)).tolist()


def _convolve(x: Sequence[int], y: Sequence[int], products: Sequence[int]) -> list[int]:
    """z[m1 ^ m2] = sum x[m1] y[m2] prod_{i in m1 & m2} d_i over the nonzero coordinates;
    a square (y is x) takes each nonzero pair m1 < m2 once and doubles it."""
    z = [0] * len(x)
    if y is x:
        nz = [(m, c) for m, c in enumerate(x) if c]
        for i, (m1, a) in enumerate(nz):
            z[0] += a * a * products[m1]  # m1 ^ m1 = 0, m1 & m1 = m1
            a2 = 2 * a
            for m2, b in nz[i + 1:]:
                z[m1 ^ m2] += a2 * b * products[m1 & m2]
        return z
    ys = [(m2, b) for m2, b in enumerate(y) if b]
    for m1, a in enumerate(x):
        if a:
            for m2, b in ys:
                z[m1 ^ m2] += a * b * products[m1 & m2]
    return z


def _mul(x: Sequence[int], y: Sequence[int], field: "MultiQuadField") -> list[int]:
    """Product of integer coordinate vectors of the subfield of ``field`` on the
    first log2(len(x)) generators: the int64 kernel where its bound admits x and
    y, else split on the top generator down to ``_CONVOLVE_MAX`` coordinates,
    then one twisted XOR-convolution.  A square is the case ``y is x``, kept
    through the split."""
    n = len(x)
    if n == 1:
        return [x[0] * y[0]]
    if n == 2:
        (a, b), (c, e) = x, y
        return [a * c + field.generators[0] * (b * e), a * e + b * c]
    if _kernel_admits(x, y, field):
        return _kernel(x, y, field)
    if n <= _CONVOLVE_MAX:
        return _convolve(x, y, field._products)
    h = n >> 1
    a, b = x[:h], x[h:]
    c, e = (a, b) if y is x else (y[:h], y[h:])
    b_zero, e_zero = not any(b), not any(e)
    if b_zero and e_zero:
        return _mul(a, c, field) + [0] * h
    if b_zero:
        return _mul(a, c, field) + _mul(a, e, field)
    if e_zero:
        return _mul(a, c, field) + _mul(b, c, field)
    d = field.generators[h.bit_length() - 1]
    ac, be = _mul(a, c, field), _mul(b, e, field)
    s = [p + q for p, q in zip(a, b)]
    mid = _mul(s, s if y is x else [p + q for p, q in zip(c, e)], field)
    return ([p + d * q for p, q in zip(ac, be)]
            + [m - p - q for m, p, q in zip(mid, ac, be)])


def _inverse(x: Sequence[int], field: "MultiQuadField") -> tuple[list[int], int]:
    """x^-1 as (nums, den > 0): (a - b sqrt(d)) / (a^2 - d b^2), the norm inverted in K."""
    content = gcd(*x)
    if content == 0:
        raise ZeroDivisionError("inverse of zero field element")
    if content != 1:
        x = [c // content for c in x]
    n = len(x)
    if n == 1:
        return [x[0]], content  # x[0] is +-1 once the content is out
    h = n >> 1
    a, b = x[:h], x[h:]
    if not any(b):
        nums, den = _inverse(a, field)
        return nums + [0] * h, den * content
    d = field.generators[h.bit_length() - 1]
    norm_nums, norm_den = _inverse(
        [p - d * q for p, q in zip(_mul(a, a, field), _mul(b, b, field))], field)
    nums = _mul(a, norm_nums, field) + [-c for c in _mul(b, norm_nums, field)]
    den = norm_den * content
    g = gcd(den, *nums)
    if g != 1:
        nums, den = [c // g for c in nums], den // g
    return nums, den


def _ratio(c) -> tuple[int, int]:
    """Fraction(c) as Python ints: a numpy integer stays one inside a Fraction."""
    q = Fraction(c)
    return int(q.numerator), int(q.denominator)


def _prime_divisors(n: int) -> list[int]:
    """The primes dividing n, ascending, by trial division."""
    n, out, p = abs(n), [], 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    return out + [n] if n > 1 else out


class MultiQuadField:
    """Q(sqrt(d1),...,sqrt(dk)) for multiplicatively independent square-free d_i."""

    def __init__(self, generators: Sequence[int]):
        gens = tuple(int(d) for d in generators)
        self._prime_bits: dict[int, int] = {}  # each prime's bit in a parity vector; bit 0 is the sign
        vectors = []
        for d in gens:
            if d in (0, 1):
                raise ValueError(f"generator {d} is excluded")
            if abs(d) > GENERATOR_BOUND:
                raise ValueError(f"generator {d} exceeds bound {GENERATOR_BOUND}")
            divisors = _prime_divisors(d)
            if prod(divisors) != abs(d):
                raise ValueError(f"generator {d} is not square-free")
            vector = int(d < 0)
            for p in divisors:
                vector |= self._prime_bits.setdefault(p, 2 << len(self._prime_bits))
            vectors.append(vector)
        if len(set(gens)) != len(gens):
            raise ValueError("generators must be distinct")
        self.generators = gens
        self.k = len(gens)
        self.dim = 1 << self.k
        # highest bit -> (a parity vector, the mask of the generators it is the sum of)
        self._basis: dict[int, tuple[int, int]] = {}
        for i, vector in enumerate(vectors):
            bits, mask = self._reduce(vector, 1 << i)
            if not bits:  # the first dependent subset in ascending mask order
                raise ValueError(
                    f"generators are multiplicatively dependent: subset {mask:#b} "
                    f"multiplies to the square {self.subset_product(mask)}")
            self._basis[bits.bit_length()] = (bits, mask)

    @functools.cached_property
    def _products(self) -> tuple[int, ...]:
        """prod_{i in S} d_i for every mask S, built on the arithmetic's first use."""
        products = [1] * self.dim
        for i, d in enumerate(self.generators):
            bit = 1 << i
            for mask in range(bit):
                products[mask | bit] = products[mask] * d
        return tuple(products)

    @functools.cached_property
    def _weights(self) -> Optional[np.ndarray]:
        """The kernel's int64 weights W[m, m2] = P[m2 & ~m] for m, m2 below
        min(2^k, _KERNEL_MAX); None where that is under _KERNEL_MIN or a subset
        product there passes int64, so that such a field never takes the kernel."""
        n = min(self.dim, _KERNEL_MAX)
        if n < _KERNEL_MIN or abs(self._products[n - 1]) > _INT64_MAX:
            return None
        return np.array(self._products[:n], dtype=np.int64)[_masks(n)[1]]

    # -- square classes over F_2, without the 2^k subset products -----------------

    def _parity(self, n: int) -> tuple[int, int]:
        """(the sign of n at bit 0 and each prime of the generators that divides n
        to an odd power at its bit, |n| with those primes divided out).  p^v goes
        out by p, p^2, p^4, ... from the largest dividing n: O(log v) divisions."""
        bits, n = int(n < 0), abs(n)
        for p, bit in self._prime_bits.items():
            powers = [p]
            while n % powers[-1] == 0:
                powers.append(powers[-1] ** 2)
            for q in reversed(powers[:-1]):
                if n % q == 0:
                    n //= q
                    bits ^= bit if q == p else 0
        return bits, n

    def _reduce(self, bits: int, mask: int = 0) -> tuple[int, int]:
        """A parity vector reduced by the generators' basis, with ``mask`` xored by
        the generators taken out; the vector is 0 where it is their sum."""
        while bits.bit_length() in self._basis:
            b, m = self._basis[bits.bit_length()]
            bits, mask = bits ^ b, mask ^ m
        return bits, mask

    def _sqrt_monomial(self, q: Fraction) -> tuple[int, Fraction]:
        """(S, r) with q = r^2 * prod_{i in S} d_i and r > 0, for a nonzero q.

        q = n/m has a root on the monomial of S exactly when n*m*prod_S d_i is
        a square: the parities of n*m on the generators' primes are the sum of
        S's, and what is left of n*m is a square.  Independence leaves one S.
        """
        n = q.numerator * q.denominator
        bits, rest = self._parity(n)
        bits, mask = self._reduce(bits)
        if bits or isqrt(rest) ** 2 != rest:
            raise ValueError(f"sqrt({q}) does not lie in {self!r}")
        d = self.subset_product(mask)
        return mask, Fraction(isqrt(n * d), q.denominator * abs(d))

    # -- basis bookkeeping ---------------------------------------------------

    def subset_product(self, mask: int) -> int:
        return prod(d for i, d in enumerate(self.generators) if mask >> i & 1)

    def basis_label(self, mask: int) -> str:
        if mask == 0:
            return "1"
        return "·".join(f"√{self.generators[i]}" for i in range(self.k) if mask >> i & 1)

    # -- element constructors --------------------------------------------------

    def element(self, coords: Sequence) -> "MultiQuadElement":
        return MultiQuadElement(self, coords)

    def zero(self) -> "MultiQuadElement":
        return self.element([0] * self.dim)

    def one(self) -> "MultiQuadElement":
        return self.rational(1)

    def rational(self, q) -> "MultiQuadElement":
        coords = [0] * self.dim
        coords[0] = q
        return self.element(coords)

    def gen_sqrt(self, i: int) -> "MultiQuadElement":
        coords = [0] * self.dim
        coords[1 << i] = 1
        return self.element(coords)

    def sqrt_of_rational(self, q) -> "MultiQuadElement":
        """Canonical square root r * basis(S) of q = r^2 * prod_{i in S} d_i."""
        q = Fraction(q)
        if q == 0:
            return self.zero()
        mask, r = self._sqrt_monomial(q)
        coords = [0] * self.dim
        coords[mask] = r
        return self.element(coords)

    def __eq__(self, other) -> bool:
        return isinstance(other, MultiQuadField) and self.generators == other.generators

    def __hash__(self) -> int:
        return hash(self.generators)

    def __repr__(self) -> str:
        inside = ",".join(f"√{d}" for d in self.generators)
        return f"Q({inside})" if self.generators else "Q"


class MultiQuadElement:
    """Exact field element: 2^k integer numerators over one positive denominator.

    The form is reduced (gcd(den, *nums) = 1), so it is canonical; ``coords``
    gives the rational coordinates over the subset basis.
    """

    __slots__ = ("field", "nums", "den")

    def __init__(self, field: MultiQuadField, coords: Sequence):
        if len(coords) != field.dim:
            raise ValueError(f"need {field.dim} coordinates, got {len(coords)}")
        ratios = [c.as_integer_ratio() if type(c) in _EXACT_TYPES else _ratio(c) for c in coords]
        # each ratio is reduced, so over the lcm of the denominators gcd(den, *nums) = 1
        den = lcm(*(q for _, q in ratios))
        self.field = field
        self.nums = tuple(p * (den // q) for p, q in ratios)
        self.den = den

    @classmethod
    def _of(cls, field: MultiQuadField, nums: Sequence[int], den: int) -> "MultiQuadElement":
        """nums / den in reduced form; den must be positive."""
        g = gcd(den, *nums)
        x = object.__new__(cls)
        x.field = field
        x.nums = tuple(nums) if g == 1 else tuple(c // g for c in nums)
        x.den = den // g
        return x

    @property
    def coords(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(c, self.den) for c in self.nums)

    def _check_same_field(self, other: "MultiQuadElement") -> None:
        if self.field != other.field:
            raise ValueError("elements live in different fields")

    def _sum(self, other: "MultiQuadElement", sign: int) -> "MultiQuadElement":
        self._check_same_field(other)
        den = lcm(self.den, other.den)
        p, q = den // self.den, sign * (den // other.den)
        return MultiQuadElement._of(self.field, [p * a + q * b for a, b in
                                                 zip(self.nums, other.nums)], den)

    def __add__(self, other: "MultiQuadElement") -> "MultiQuadElement":
        return self._sum(other, 1)

    def __sub__(self, other: "MultiQuadElement") -> "MultiQuadElement":
        return self._sum(other, -1)

    def __neg__(self) -> "MultiQuadElement":
        return MultiQuadElement._of(self.field, [-a for a in self.nums], self.den)

    def __mul__(self, other: "MultiQuadElement") -> "MultiQuadElement":
        self._check_same_field(other)
        nums = _mul(self.nums, other.nums, self.field)
        return MultiQuadElement._of(self.field, nums, self.den * other.den)

    def inverse(self) -> "MultiQuadElement":
        """Divide the conjugate over the top generator by the norm, recursively."""
        nums, den = _inverse(self.nums, self.field)
        return MultiQuadElement._of(self.field, [self.den * c for c in nums], den)

    def __truediv__(self, other: "MultiQuadElement") -> "MultiQuadElement":
        return self * other.inverse()

    def __eq__(self, other) -> bool:
        return (isinstance(other, MultiQuadElement) and self.field == other.field
                and self.den == other.den and self.nums == other.nums)

    def __hash__(self) -> int:
        return hash((self.field, self.nums, self.den))

    def __bool__(self) -> bool:
        return any(self.nums)

    def is_rational(self) -> bool:
        return not any(self.nums[1:])

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return Fraction(self.nums[0], self.den)

    def __str__(self) -> str:
        terms = []
        for mask, c in enumerate(self.coords):
            if c == 0:
                continue
            if mask == 0:
                terms.append(str(c))
            elif c == 1:
                terms.append(self.field.basis_label(mask))
            else:
                terms.append(f"{c}·{self.field.basis_label(mask)}")
        return " + ".join(terms) if terms else "0"

    def __repr__(self) -> str:
        return f"<{self} in {self.field!r}>"


class FieldAutomorphism:
    """Automorphism sqrt(d_i) -> signs[i] * sqrt(d_i); composition is sign product."""

    __slots__ = ("field", "signs")

    def __init__(self, field: MultiQuadField, signs: Sequence[int]):
        signs = tuple(int(s) for s in signs)
        if len(signs) != field.k or any(s not in (-1, 1) for s in signs):
            raise ValueError("signs must be a +-1 vector, one entry per generator")
        self.field = field
        self.signs = signs

    def mask(self) -> int:
        return sum(1 << i for i, s in enumerate(self.signs) if s == -1)

    def apply(self, x: MultiQuadElement) -> MultiQuadElement:
        if x.field != self.field:
            raise ValueError("element lives in a different field")
        neg = self.mask()
        nums = [-c if (mask & neg).bit_count() & 1 else c for mask, c in enumerate(x.nums)]
        return MultiQuadElement._of(self.field, nums, x.den)

    __call__ = apply

    def compose(self, other: "FieldAutomorphism") -> "FieldAutomorphism":
        if other.field != self.field:
            raise ValueError("automorphisms of different fields")
        return FieldAutomorphism(self.field, tuple(a * b for a, b in zip(self.signs, other.signs)))

    def __eq__(self, other) -> bool:
        return (isinstance(other, FieldAutomorphism) and self.field == other.field
                and self.signs == other.signs)

    def __repr__(self) -> str:
        parts = ", ".join(f"√{d}->{s:+d}√{d}" for d, s in zip(self.field.generators, self.signs))
        return f"<automorphism {parts}>" if parts else "<identity automorphism>"


def _mask_labels(count: int) -> list[str]:
    if count == 2:
        return ["id", "eta"]
    return ["id"] + [f"rho{m}" for m in range(1, count)]


def galois_group(f: MultiQuadField) -> FiniteGroup:
    """Gal over Q as a concrete group: index m negates exactly the generators in
    bitmask m, so the group is elementary abelian of order 2^k under XOR."""
    idx = np.arange(f.dim, dtype=np.int32)
    # XOR on masks is a group by construction, each mask its own inverse: no table scans
    return FiniteGroup(idx[:, None] ^ idx[None, :], labels=_mask_labels(f.dim),
                       name=f"Gal({f!r}/Q)", _inverses=idx)


def _subfield_positions(f: MultiQuadField, k_generators: Sequence[int]) -> list[int]:
    k_gens = [int(d) for d in k_generators]
    positions = []
    for d in f.generators:
        if d in k_gens:
            positions.append(f.generators.index(d))
    if len(positions) != len(set(k_gens)) or len(set(k_gens)) != len(k_gens):
        raise ValueError("K generators must be a subset of the field generators")
    return positions


class QuadraticTower:
    """F=Q <= K <= L with L multiquadratic and a designated rational alpha
    whose canonical square root lies in L but not in K.

    The restriction Gal(L/Q) -> Gal(K/Q), between the two Galois groups, is
    built on first use and then shared by the cocycle check and the embeddings.
    """

    def __init__(self, l_field: MultiQuadField, k_generators: Sequence[int], alpha):
        self.L = l_field
        self.k_positions = _subfield_positions(l_field, k_generators)
        self.K_generators = tuple(l_field.generators[p] for p in self.k_positions)
        if len(self.K_generators) >= l_field.k:
            raise TowerError("K must be a proper subfield of L")
        self.K = MultiQuadField(self.K_generators)
        self.alpha = Fraction(alpha)
        if self.alpha <= 0:
            raise TowerError("alpha must be a positive rational")
        try:
            self.alpha_mask = l_field._sqrt_monomial(self.alpha)[0]
        except ValueError as exc:
            raise TowerError(str(exc)) from None
        self.k_mask = sum(1 << p for p in self.k_positions)  # the K generators as an L mask
        if self.alpha_mask & ~self.k_mask == 0:
            raise TowerError("sqrt(alpha) already lies in K")

    @functools.cached_property
    def sqrt_alpha(self) -> MultiQuadElement:
        return self.L.sqrt_of_rational(self.alpha)

    @property
    def gap(self) -> int:
        return self.L.k - len(self.K_generators)

    @functools.cached_property
    def restriction(self) -> GroupHom:
        """Gal(L/Q) -> Gal(K/Q): bit j of the image mask is bit k_positions[j] of the L mask."""
        m = np.arange(self.L.dim, dtype=np.int64)
        image = sum((((m >> p) & 1) << j for j, p in enumerate(self.k_positions)),
                    np.zeros_like(m))
        return GroupHom(galois_group(self.L), galois_group(self.K), image)

    def __repr__(self) -> str:
        return f"<tower Q <= {self.K!r} <= {self.L!r}, alpha={self.alpha}>"


def _chi_table(t: QuadraticTower) -> np.ndarray:
    """chi(rho, tau) for every rho of Gal(L/Q) (rows) and tau of Gal(K/Q) (columns),
    the exponent in (-1)^chi = rho(sqrt(rho^-1(tau(alpha)))) / sqrt(tau(alpha)).

    alpha is rational, so tau(alpha) = alpha and the quotient is the sign rho puts
    on the monomial of sqrt(alpha): the parity of mask(rho) & alpha_mask, one
    read-only column broadcast over tau.
    """
    column = np.array([(m & t.alpha_mask).bit_count() & 1 for m in range(t.L.dim)], dtype=np.int8)
    return np.broadcast_to(column[:, None], (t.L.dim, t.K.dim))


def tower_extension(t: QuadraticTower) -> ShortExactSequence:
    """1 -> Gal(L/K) -> Gal(L/Q) -> Gal(K/Q) -> 1 on concrete groups."""
    eps = t.restriction
    big = eps.domain
    fixing = [m for m in range(big.order) if m & t.k_mask == 0]
    _sub, incl = subgroup_from_elements(big, fixing, name=f"Gal({t.L!r}/{t.K!r})")
    return ShortExactSequence(incl, eps)


def quadratic_kummer_embedding(
    t: QuadraticTower,
) -> tuple[WreathGroup, GroupHom, EmbeddingReport]:
    """Embed Gal(L/Q) into Gal(L/K) wr_r Gal(K/Q) via sigma_rho(tau) = eta^chi.

    This is the kk embedding of ``tower_extension(t)`` through the section that
    lifts each tau to the automorphism of L fixing sqrt(alpha), the lift whose
    chi row is 0; eta is the flip of the single generator of L/K.
    """
    if t.gap != 1:
        raise TowerError("the chi-based embedding needs [L:K] = 2 (one extra generator)")
    _check_wreath_order(2, t.K.dim, t.K.dim)  # past int64 from k = 6; before any group is built
    ses = tower_extension(t)
    lifts = np.flatnonzero(_chi_table(t)[:, 0] == 0)
    choice = np.empty(t.K.dim, dtype=np.int64)
    choice[ses.g_to_q.image[lifts]] = lifts
    w, phi = kk_embedding(ses, Section(ses.q, ses.g, choice))
    return w, phi, verify_embedding(phi)


def verify_cocycle(t: QuadraticTower) -> tuple[bool, Optional[tuple[int, int, int]]]:
    """chi(r1 r2, tau) == chi(r2, r1^-1 tau) + chi(r1, tau) mod 2 over all triples,
    certified for r1 over the generators of Gal(L/Q).  Returns (True, None), or
    (False, the row-major first failing (rho1, rho2, tau)), found by sweeping the
    r1 rows up to the first failing generator."""
    big, small = t.restriction.domain, t.restriction.codomain
    table = _chi_table(t)
    back = small.inv_array(t.restriction.image)  # the restriction of r1^-1
    r2, tau = np.arange(big.order)[:, None], np.arange(small.order)

    def fails(r1: np.ndarray) -> np.ndarray:  # [i, r2, tau]: the law fails at r1[i]
        r1 = r1[:, None, None]
        rhs = (table[r2, small.mul_array(back[r1], tau)] + table[r1, tau]) % 2
        return table[big.mul_array(r1, r2), tau] != rhs

    gens = np.array(big.generators())
    bad = fails(gens).any(axis=(1, 2))
    if not bad.any():
        return True, None
    width = big.order * small.order
    first = _first_failure(lambda a, b: fails(np.arange(a, b)), int(gens[bad].min()) + 1, width)
    return False, (first // width, *divmod(first % width, small.order))
