import itertools
import random
import time
from fractions import Fraction
from decimal import Decimal
from math import gcd, isqrt, prod

import numpy as np
import pytest

from wreathlab import fields, groups
from wreathlab import (
    FieldAutomorphism,
    MultiQuadField,
    QuadraticTower,
    SizeLimitError,
    TowerError,
    construct_named,
    galois_group,
    kk_embedding,
    quadratic_kummer_embedding,
    tower_extension,
    verify_cocycle,
)
from wreathlab.search import are_isomorphic


def automorphisms(f):
    """The automorphism at each index of galois_group(f): index m negates the generators in m."""
    return [FieldAutomorphism(f, [-1 if m >> i & 1 else 1 for i in range(f.k)])
            for m in range(f.dim)]


def chi(t, rho, tau):
    """The paper's chi(rho, tau), the exponent in
    (-1)^chi = rho(sqrt(rho^-1(tau(alpha)))) / sqrt(tau(alpha)).  alpha is rational,
    so tau(alpha) = alpha and the quotient is the sign rho puts on the monomial of
    sqrt(alpha): the parity of the generators it flips there."""
    assert rho.field == t.L and tau.field == t.K
    return (rho.mask() & t.alpha_mask).bit_count() & 1


def restricted_mask(t, m):
    """The Gal(K/Q) index of the restriction of L's automorphism m, bit by bit:
    bit j is the bit of m at the generator of L that is K's j-th."""
    return sum((m >> t.L.generators.index(d) & 1) << j for j, d in enumerate(t.K.generators))


def random_element(field, rng, span=10):
    return field.element([Fraction(rng.randint(-span, span), rng.randint(1, span))
                          for _ in range(field.dim)])


@pytest.fixture(scope="module")
def q57():
    return MultiQuadField([5, 7])


@pytest.fixture(scope="module")
def tower57(q57):
    return QuadraticTower(q57, [5], Fraction(7))


# -- construction and validation ----------------------------------------------------


def test_field_rejects_bad_generators():
    with pytest.raises(ValueError):
        MultiQuadField([4])  # not square-free
    with pytest.raises(ValueError):
        MultiQuadField([0])
    with pytest.raises(ValueError):
        MultiQuadField([1])
    with pytest.raises(ValueError):
        MultiQuadField([2, 2])
    with pytest.raises(ValueError):
        MultiQuadField([2, 3, 6])  # 2*3*6 = 36 is a square
    with pytest.raises(ValueError):
        MultiQuadField([10**7])


def subset_products(gens):
    out = [1] * (1 << len(gens))
    for mask in range(1, len(out)):
        low = mask & -mask
        out[mask] = out[mask ^ low] * gens[low.bit_length() - 1]
    return out


def sqrt_by_products(gens, q):
    """The former search: the first mask S with n*m*prod_S d_i a positive square."""
    for mask, prod in enumerate(subset_products(gens)):
        square = q.numerator * q.denominator * prod
        if square > 0 and isqrt(square) ** 2 == square:
            return mask, Fraction(isqrt(square), q.denominator * abs(prod))
    return None


def test_square_classes_over_f2_match_the_subset_products():
    """Independence, its first dependent subset and every square root, read off the
    generators' prime parities, against the scan of all 2^k subset products."""
    rng = random.Random(5)
    pool = [-1, 2, 3, 5, 6, 7, 10, 14, 15, 21, 30, 35, -2, -3, -6, -15, 105, 210, 999_983]
    checked = dependent = 0
    for _ in range(300):
        gens = rng.sample(pool, rng.randint(1, 6))
        first = next((m for m, p in enumerate(subset_products(gens))
                      if m and p > 0 and isqrt(p) ** 2 == p), None)
        if first is not None:
            with pytest.raises(ValueError, match=f"subset {first:#b} multiplies to the square "
                                                 f"{subset_products(gens)[first]}$"):
                MultiQuadField(gens)
            dependent += 1
            continue
        f = MultiQuadField(gens)
        for _ in range(10):
            q = Fraction(rng.choice([-1, 1]) * rng.choice(pool[1:]) * rng.randint(1, 12) ** 2,
                         rng.choice([1, 2, 3, 7, 11, 999_983]) ** rng.randint(1, 2))
            want = sqrt_by_products(gens, q)
            if want is None:
                with pytest.raises(ValueError, match="does not lie in"):
                    f.sqrt_of_rational(q)
            else:
                coords = [0] * f.dim
                coords[want[0]] = want[1]
                assert f.sqrt_of_rational(q) == f.element(coords), (gens, q)
            checked += 1
    assert dependent > 50 and checked > 1000


def test_negative_generators_are_fine():
    f = MultiQuadField([-1, 2])
    assert f.dim == 4
    i = f.gen_sqrt(0)
    assert i * i == f.rational(-1)


# -- arithmetic ------------------------------------------------------------------------


def test_difference_of_squares(q57):
    one, s5 = q57.one(), q57.gen_sqrt(0)
    assert (one + s5) * (one - s5) == q57.rational(-4)


def test_inverse_of_sqrt7(q57):
    s7 = q57.gen_sqrt(1)
    assert s7.inverse() == q57.element([0, 0, Fraction(1, 7), 0])
    assert s7.inverse() * s7 == q57.one()


def test_sqrt5_times_sqrt7_is_the_joint_monomial(q57):
    prod = q57.gen_sqrt(0) * q57.gen_sqrt(1)
    assert prod == q57.element([0, 0, 0, 1])
    assert str(prod) == "√5·√7"


def test_element_printing(q57):
    x = q57.element([Fraction(3, 2), 0, 0, Fraction(1, 2)])
    assert str(x) == "3/2 + 1/2·√5·√7"
    assert str(q57.zero()) == "0"


def test_zero_has_no_inverse(q57):
    with pytest.raises(ZeroDivisionError):
        q57.zero().inverse()


@pytest.mark.parametrize("gens", [[5, 7], [2, 3, 5], [-1, 2]])
def test_field_axioms_on_random_samples(gens):
    field = MultiQuadField(gens)
    rng = random.Random(20260810)
    for _ in range(1000):
        a, b, c = (random_element(field, rng, span=6) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a and a * b == b * a
    for _ in range(50):
        a = random_element(field, rng, span=6)
        if a:
            assert a * a.inverse() == field.one()


# -- reference algorithms -------------------------------------------------------------
#
# The schoolbook product over the subset basis (O(4^k) rational operations) and
# the inverse as the product of all 2^k - 1 sign conjugates over the rational
# norm.  Both are slow but obviously right, and exact arithmetic makes their
# coordinates comparable for equality with the recursive ones.


def reference_mul(field, x, y):
    out = [Fraction(0)] * field.dim
    for s, a in enumerate(x):
        if a == 0:
            continue
        for t, b in enumerate(y):
            if b == 0:
                continue
            out[s ^ t] += a * b * field.subset_product(s & t)
    return tuple(out)


def reference_inverse(field, x):
    prod = field.one().coords
    for neg in range(1, field.dim):
        conjugate = [-c if (mask & neg).bit_count() % 2 else c for mask, c in enumerate(x)]
        prod = reference_mul(field, prod, conjugate)
    norm = reference_mul(field, x, prod)
    assert not any(norm[1:]), "norm failed to collapse to a rational"
    return tuple(c / norm[0] for c in prod)


def fraction_mul(x, y, gens):
    """Karatsuba on Fraction coordinates, split on the top generator."""
    n = len(x)
    if n == 1:
        return [x[0] * y[0]]
    if n == 2:
        (a, b), (c, e) = x, y
        return [a * c + gens[0] * (b * e), a * e + b * c]
    h = n >> 1
    a, b, c, e = x[:h], x[h:], y[:h], y[h:]
    b_zero, e_zero = not any(b), not any(e)
    if b_zero and e_zero:
        return fraction_mul(a, c, gens) + [Fraction(0)] * h
    if b_zero:
        return fraction_mul(a, c, gens) + fraction_mul(a, e, gens)
    if e_zero:
        return fraction_mul(a, c, gens) + fraction_mul(b, c, gens)
    d = gens[h.bit_length() - 1]
    ac, be = fraction_mul(a, c, gens), fraction_mul(b, e, gens)
    mid = fraction_mul([p + q for p, q in zip(a, b)], [p + q for p, q in zip(c, e)], gens)
    return ([p + d * q for p, q in zip(ac, be)]
            + [m - p - q for m, p, q in zip(mid, ac, be)])


def fraction_inverse(x, gens):
    """(a - b sqrt(d)) / (a^2 - d b^2) on Fraction coordinates, the norm inverted recursively."""
    n = len(x)
    if n == 1:
        return [1 / x[0]]
    h = n >> 1
    a, b = x[:h], x[h:]
    if not any(b):
        return fraction_inverse(a, gens) + [Fraction(0)] * h
    d = gens[h.bit_length() - 1]
    norm_inv = fraction_inverse(
        [p - d * q for p, q in zip(fraction_mul(a, a, gens), fraction_mul(b, b, gens))], gens)
    return fraction_mul(a, norm_inv, gens) + [-c for c in fraction_mul(b, norm_inv, gens)]


def oracle_samples(field, rng, dense):
    """Seeded dense elements (if ``dense``), elements with zero coordinates, and monomials."""
    samples = [random_element(field, rng) for _ in range(dense)]
    for _ in range(3):
        sparse = random_element(field, rng)
        support = rng.sample(range(field.dim), min(field.dim, 3))
        samples.append(field.element([c if m in support else 0
                                      for m, c in enumerate(sparse.coords)]))
    for mask in {0, field.dim - 1, rng.randrange(field.dim)}:
        coords = [Fraction(0)] * field.dim
        coords[mask] = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        samples.append(field.element(coords))
    return samples


ORACLE_FIELDS = ([[2, 3, 5, 7, 11, 13][:k] for k in range(7)]
                 + [[-1, 2], [-1, 2, -3, 5], [-1, 2, -3, 5, 7]])


@pytest.mark.parametrize("gens", ORACLE_FIELDS, ids=str)
def test_mul_matches_the_schoolbook_product(gens):
    field = MultiQuadField(gens)
    rng = random.Random(20261017 + field.k)
    samples = oracle_samples(field, rng, dense=4 if field.k <= 4 else 2)
    for x in samples:
        for y in samples:
            assert (x * y).coords == reference_mul(field, x.coords, y.coords)


@pytest.mark.parametrize("gens", ORACLE_FIELDS, ids=str)
def test_inverse_matches_the_conjugate_product(gens):
    field = MultiQuadField(gens)
    rng = random.Random(20261018 + field.k)
    # the conjugate product costs O(8^k) on dense input: keep it to k <= 4 there
    samples = oracle_samples(field, rng, dense=2 if field.k <= 4 else 0)
    for x in samples:
        assert x.inverse().coords == reference_inverse(field, x.coords)
    for _ in range(2):
        x = random_element(field, rng)
        if x:
            assert x * x.inverse() == field.one()


LARGE_PRIME = 850009


def large_element(field):
    """7p^2/4 + (p/2) times the top monomial: coefficients near 10^12 and 4 * 10^5."""
    coords = [Fraction(0)] * field.dim
    coords[0] += Fraction(7 * LARGE_PRIME**2, 4)
    coords[-1] += Fraction(LARGE_PRIME, 2)
    return field.element(coords)


@pytest.mark.parametrize("gens", ORACLE_FIELDS, ids=str)
def test_integer_arithmetic_matches_the_fraction_recursion(gens):
    field = MultiQuadField(gens)
    rng = random.Random(20261019 + field.k)
    samples = oracle_samples(field, rng, dense=4 if field.k <= 4 else 2) + [large_element(field)]
    for x in samples:
        for y in samples:
            assert (x * y).coords == tuple(fraction_mul(x.coords, y.coords, field.generators))
        assert x.inverse().coords == tuple(fraction_inverse(x.coords, field.generators))


ORACLE_TESTS = [test_mul_matches_the_schoolbook_product,
                test_inverse_matches_the_conjugate_product,
                test_integer_arithmetic_matches_the_fraction_recursion]


# Small inputs take the int64 kernel from 16 coordinates up; a _KERNEL_MAX of 0
# turns it off, so that the exact paths on Python ints are tested too.
KERNEL = pytest.mark.parametrize("kernel_max", [fields._KERNEL_MAX, 0],
                                 ids=["kernel_on", "kernel_off"])


# 2 never convolves (lengths 1 and 2 have their own formulas); 64 convolves whole
# vectors up to k = 6, so no split is left there
@KERNEL
@pytest.mark.parametrize("convolve_max", [2, 64], ids=["split_only", "convolve_whole"])
@pytest.mark.parametrize("oracle", ORACLE_TESTS, ids=lambda t: t.__name__[5:])
@pytest.mark.parametrize("gens", ORACLE_FIELDS, ids=str)
def test_oracles_hold_at_every_convolution_threshold(monkeypatch, convolve_max, oracle, gens,
                                                     kernel_max):
    monkeypatch.setattr(fields, "_CONVOLVE_MAX", convolve_max)
    monkeypatch.setattr(fields, "_KERNEL_MAX", kernel_max)
    oracle(gens)


@KERNEL
@pytest.mark.parametrize("convolve_max", [2, 16, 64])
def test_square_matches_the_general_product(monkeypatch, convolve_max, kernel_max):
    """_mul(x, x) takes the square path (y is x) all the way down its split, and
    matches _mul(x, list(x)), the general path."""
    monkeypatch.setattr(fields, "_CONVOLVE_MAX", convolve_max)
    monkeypatch.setattr(fields, "_KERNEL_MAX", kernel_max)
    squares = []
    mul = fields._mul
    monkeypatch.setattr(fields, "_mul", lambda x, y, f: squares.append(y is x) or mul(x, y, f))

    def check(x, field):
        squares.clear()
        square = fields._mul(x, x, field)
        assert all(squares), "a square's split made a product of two vectors"
        assert square == fields._mul(x, list(x), field)

    primes = [2, 3, 5, 7, 11, 13, -17]
    rng = random.Random(18)
    for k in range(1, 8):
        field = MultiQuadField(primes[:k])
        for density, span in itertools.product((0.2, 0.6, 1.0), (10**3, 10**9)):
            for _ in range(3):
                check([rng.randint(-span, span) if rng.random() < density else 0
                       for _ in range(field.dim)], field)
        check([rng.randint(-9, 9) for _ in range(field.dim // 2)] + [0] * (field.dim // 2), field)


def test_k7_products_split_twice_and_match_the_fraction_recursion():
    field = MultiQuadField([2, 3, 5, 7, 11, 13, 17])
    rng = random.Random(20261021)
    samples = oracle_samples(field, rng, dense=2) + [large_element(field)]
    for x, y in zip(samples, samples[1:] + samples[:1]):
        assert (x * y).coords == tuple(fraction_mul(x.coords, y.coords, field.generators))
    x = samples[0]
    assert x * x.inverse() == field.one()


def count_kernel_calls(monkeypatch):
    calls = []
    kernel = fields._kernel
    monkeypatch.setattr(fields, "_kernel", lambda x, y, f: calls.append(len(x)) or kernel(x, y, f))
    return calls


@pytest.mark.parametrize("gens", [[2, 3, 5, 7], [-2, 3, 5, 7], [2, 3, 5, 7, 11, -13]], ids=str)
def test_the_kernel_takes_a_product_up_to_its_bound_and_no_further(monkeypatch, gens):
    """max|x| max|y| |P[n-1]| n cannot equal the odd 2^63 - 1, so the tightest
    admitted product sits just below it; one more unit of max|y| passes it.  A
    negative top subset product (-210, -30030) must count by its size."""
    field = MultiQuadField(gens)
    n, top = field.dim, abs(field.subset_product(field.dim - 1))
    limit = fields._INT64_MAX // (top * n)  # the largest admitted max|x| * max|y|
    big = isqrt(limit)
    calls = count_kernel_calls(monkeypatch)
    for span_y, admitted in ((limit // big, True), (limit // big + 1, False)):
        assert (big * span_y * top * n <= fields._INT64_MAX) == admitted
        rng = random.Random(span_y)
        x = field.element([big] + [rng.randint(-big, big) for _ in range(n - 1)])
        y = field.element([rng.randint(-span_y, span_y) for _ in range(n - 1)] + [-span_y])
        del calls[:]
        assert (x * y).coords == tuple(fraction_mul(x.coords, y.coords, field.generators))
        # past the bound the whole product is split; the halves' own bounds decide
        assert (calls == [n]) if admitted else (n not in calls), (span_y, calls)
    # every coordinate at its extreme, x signed as the weights: z[0] = sum x y P piles up
    span_y = limit // big
    x = field.element([big if field.subset_product(m) > 0 else -big for m in range(n)])
    y = field.element([span_y] * n)
    del calls[:]
    z = x * y
    assert z.nums[0] == big * span_y * prod(1 + abs(d) for d in gens) > 2**58
    assert z.coords == tuple(fraction_mul(x.coords, y.coords, field.generators))
    assert calls == [n]
    # a zero operand bounds nothing: the other one past int64 keeps the exact path
    huge = field.element([2**70 + m for m in range(n)])
    assert field.zero() * huge == field.zero() == huge * field.zero()


@pytest.mark.parametrize("gens", [[999983, 999979, 999961, 999959],
                                  [2, 3, 999983, 999979, 999961, 999959]], ids=str)
def test_a_field_whose_products_pass_int64_never_takes_the_kernel(monkeypatch, gens):
    """Four primes near 10^6 make the top subset product pass int64 (about 10^24),
    so the field has no weights.  With 2 and 3 in front, the 16-coordinate
    subfield's products fit (about 6 * 10^12) and would admit the Karatsuba
    quarters of small elements, but no call reaches the kernel."""
    field = MultiQuadField(gens)
    assert field._weights is None
    calls = count_kernel_calls(monkeypatch)
    rng = random.Random(25)
    samples = [field.element([rng.randint(-1, 1) for _ in range(field.dim)]) for _ in range(4)]
    for x in samples:
        for y in samples:
            assert (x * y).coords == tuple(fraction_mul(x.coords, y.coords, field.generators))
        if x:
            assert x.inverse().coords == tuple(fraction_inverse(x.coords, field.generators))
    assert calls == []


@pytest.mark.parametrize("gens", [[2, 3, 5], [2, 3, 5, 7, 11], [2, 3, 5, 7, 11, 13]], ids=str)
def test_convolved_products_stay_exact_past_int64(gens):
    field = MultiQuadField(gens)
    x = large_element(field)
    y = x * x
    assert max(abs(c) for c in y.nums) > 2**63
    assert y.coords == tuple(fraction_mul(x.coords, x.coords, field.generators))
    # operands past int64 too
    assert (y * x).coords == tuple(fraction_mul(y.coords, x.coords, field.generators))


def test_every_accepted_coordinate_type_gives_the_fraction_element():
    field = MultiQuadField([2, 3])
    for c in (3, -7, True, False, Fraction(6, -8), "3/4", 0.1, Decimal("0.1"), np.int64(-5)):
        x = field.element([c, 1, c, 0])
        want = field.element([Fraction(c), 1, Fraction(c), 0])
        assert (x.nums, x.den) == (want.nums, want.den), c
        assert x.coords[0] == Fraction(c)
        assert all(type(v) is int for v in x.nums + (x.den,)), c
    # a numpy integer becomes a Python int, so its products cannot wrap
    big = field.element([np.int64(2**40), 0, 0, 0])
    assert (big * big).nums == (2**80, 0, 0, 0)


def assert_reduced(x):
    assert x.den > 0 and gcd(x.den, *x.nums) == 1
    assert x.coords == tuple(Fraction(c, x.den) for c in x.nums)


def test_equal_values_share_one_reduced_form(q57):
    forms = [
        q57.element([Fraction(1, 2), 0, Fraction(-3, 4), 2]),
        q57.element([Fraction(2, 4), 0, Fraction(-6, 8), Fraction(4, 2)]),
        q57.element(["1/2", 0, "-3/4", "2"]),
        q57.element([0.5, 0.0, -0.75, 2.0]),
        q57.rational(Fraction(1, 4)) * q57.element([2, 0, -3, 8]),
        q57.element([Fraction(1, 3), 0, Fraction(-1, 4), 1])
        + q57.element([Fraction(1, 6), 0, Fraction(-1, 2), 1]),
        -q57.element([Fraction(-1, 2), 0, Fraction(3, 4), -2]),
    ]
    for x in forms:
        assert_reduced(x)
        assert (x.nums, x.den) == ((2, 0, -3, 8), 4)
        assert x == forms[0] and hash(x) == hash(forms[0])
    assert len(set(forms)) == 1


def test_ints_and_fractions_give_the_same_element(q57):
    ints = q57.element([1, -2, 0, 3])
    fracs = q57.element([Fraction(1), Fraction(-4, 2), Fraction(0), Fraction(9, 3)])
    assert ints == fracs and hash(ints) == hash(fracs)
    assert (ints.nums, ints.den) == ((1, -2, 0, 3), 1)
    assert q57.rational(3) == q57.rational(Fraction(6, 2)) == q57.rational("3")
    assert q57.rational(3).rational_value() == 3


def test_zero_is_reduced_to_denominator_one(q57):
    x = q57.element([Fraction(1, 6), Fraction(-5, 4), 0, 7])
    for zero in (x - x, x + -x, q57.zero(), x * q57.zero(), q57.element([Fraction(0, 5)] * 4)):
        assert (zero.nums, zero.den) == ((0, 0, 0, 0), 1)
        assert zero == q57.zero() and hash(zero) == hash(q57.zero()) and not zero


@pytest.mark.parametrize("gens", [[5, 7], [-1, 2, -3]], ids=str)
def test_every_result_keeps_a_positive_reduced_denominator(gens):
    field = MultiQuadField(gens)
    rng = random.Random(20261020)
    auts = automorphisms(field)
    for _ in range(200):
        a, b = random_element(field, rng), random_element(field, rng)
        results = [a, b, a + b, a - b, -a, a * b, auts[rng.randrange(field.dim)](a)]
        if b:
            results += [b.inverse(), a / b]
        for x in results:
            assert_reduced(x)
    assert_reduced(field.rational(Fraction(-3, 7)).inverse())
    assert field.rational(Fraction(-3, 7)).inverse() == field.rational(Fraction(-7, 3))


def test_sqrt_of_rational_canonical_form(q57):
    assert q57.sqrt_of_rational(Fraction(7)) == q57.element([0, 0, 1, 0])
    assert q57.sqrt_of_rational(Fraction(28)) == q57.element([0, 0, 2, 0])
    assert q57.sqrt_of_rational(Fraction(35, 4)) == q57.element([0, 0, 0, Fraction(1, 2)])
    assert q57.sqrt_of_rational(Fraction(9)) == q57.rational(3)
    with pytest.raises(ValueError):
        q57.sqrt_of_rational(Fraction(3))


def test_sqrt_of_rational_on_non_square_free_subset_products():
    # 2 * 6 = 12 is not square-free, yet sqrt(3) = 1/2 sqrt(2) sqrt(6) lies in Q(sqrt 2, sqrt 6)
    f = MultiQuadField([2, 6])
    assert f.sqrt_of_rational(3) == f.element([0, 0, 0, Fraction(1, 2)])
    assert f.sqrt_of_rational(12) == f.element([0, 0, 0, 1])
    assert f.sqrt_of_rational(Fraction(3, 4)) == f.element([0, 0, 0, Fraction(1, 4)])
    for q in (3, 12, Fraction(3, 4)):
        root = f.sqrt_of_rational(q)
        assert root * root == f.rational(q)


def test_sqrt_of_negative_rational_uses_a_negative_generator():
    f = MultiQuadField([-1, 7])
    assert f.sqrt_of_rational(-7) == f.element([0, 0, 0, 1])
    assert f.sqrt_of_rational(Fraction(-9, 4)) == f.element([0, Fraction(3, 2), 0, 0])
    with pytest.raises(ValueError):
        MultiQuadField([5, 7]).sqrt_of_rational(-5)


def test_sqrt_of_rational_with_a_large_prime_square():
    p = 2305843009213693951  # 2^61 - 1
    f = MultiQuadField([5, 7])
    assert f.sqrt_of_rational(Fraction(7 * p * p, 4)) == f.element([0, 0, Fraction(p, 2), 0])
    with pytest.raises(ValueError):
        f.sqrt_of_rational(Fraction(7, p))


def test_prime_parities_match_one_division_at_a_time_and_a_huge_power_is_quick():
    """_parity strips p^v by p, p^2, p^4, ...; it agrees with dividing out one p at a
    time, and sqrt(10^40000) takes well under a second (2.2 s one division at a time)."""
    f = MultiQuadField([2, 3, 5, -7])
    rng = random.Random(35)
    for _ in range(200):
        exps = [rng.choice([0, 1, rng.randint(0, 300)]) for _ in range(4)]
        n = rng.choice([-1, 1]) * rng.randint(1, 10**6) * prod(map(pow, (2, 3, 5, 7), exps))
        bits, rest = int(n < 0), abs(n)
        for p, bit in f._prime_bits.items():
            while rest % p == 0:
                rest, bits = rest // p, bits ^ bit
        assert f._parity(n) == (bits, rest), n
    start = time.perf_counter()
    assert f.sqrt_of_rational(Fraction(10) ** 40000) == f.rational(10**20000)
    assert time.perf_counter() - start < 1.0


# -- automorphisms -----------------------------------------------------------------------


def test_automorphisms_are_ring_homs():
    field = MultiQuadField([2, 3, 5])
    rng = random.Random(7)
    sigma = FieldAutomorphism(field, (-1, 1, -1))
    for mask in range(field.dim):
        coords = [Fraction(0)] * field.dim
        coords[mask] = Fraction(1)
        basis = field.element(coords)
        out = sigma(basis)
        assert out == basis or out == -basis
    for _ in range(300):
        a, b = random_element(field, rng), random_element(field, rng)
        assert sigma(a * b) == sigma(a) * sigma(b)
        assert sigma(a + b) == sigma(a) + sigma(b)


def test_galois_group_of_biquadratic(q57):
    group, auts = galois_group(q57), automorphisms(q57)
    assert group.order == 4
    assert group.labels == ["id", "rho1", "rho2", "rho3"]
    assert group.mul(1, 2) == 3  # rho1 o rho2 = rho3
    assert auts[1].signs == (-1, 1) and auts[2].signs == (1, -1)
    assert auts[1].compose(auts[2]) == auts[3]


def test_galois_group_of_twelve_generators_takes_under_half_a_second():
    field = MultiQuadField([2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37])
    start = time.perf_counter()
    group = galois_group(field)
    elapsed = time.perf_counter() - start
    assert group.order == 4096
    assert elapsed < 0.5, elapsed


def test_galois_group_sizes():
    assert galois_group(MultiQuadField([2])).order == 2
    g8 = galois_group(MultiQuadField([2, 3, 5]))
    assert g8.order == 8 and len(g8.center_indices()) == 8
    assert (g8.element_orders() <= 2).all()


def test_restriction_table_for_the_biquadratic_tower(tower57):
    eps = tower57.restriction
    names = [eps.codomain.labels[eps(m)] for m in range(4)]
    assert names == ["id", "eta", "id", "eta"]
    auts_k = automorphisms(MultiQuadField([5]))
    assert auts_k[eps.image[2]].signs == (1,)  # rho2 restricts to the identity of K


def test_restricting_the_identity_automorphism(tower57):
    auts_k = automorphisms(MultiQuadField([5]))
    assert auts_k[tower57.restriction.image[0]].signs == (1,)


def test_restriction_kernel_size():
    field = MultiQuadField([2, 3, 5])
    eps = QuadraticTower(field, [2, 3], Fraction(5)).restriction
    assert eps.is_surjective()
    assert len(eps.kernel_indices()) == 2  # 2^(3-2)


# -- towers and chi --------------------------------------------------------------------------


def test_tower_validation():
    f = MultiQuadField([5, 7])
    with pytest.raises(TowerError):
        QuadraticTower(f, [5, 7], Fraction(7))  # K must be proper
    with pytest.raises(TowerError):
        QuadraticTower(f, [5], Fraction(5))  # sqrt(alpha) already in K
    with pytest.raises(TowerError):
        QuadraticTower(f, [5], Fraction(3))  # sqrt(3) not in L
    with pytest.raises(TowerError):
        QuadraticTower(f, [5], Fraction(-7))
    t = QuadraticTower(f, [5], Fraction(28))  # 28 = 2^2 * 7 works
    assert t.sqrt_alpha == f.element([0, 0, 2, 0])


def test_chi_is_zero_for_the_identity(tower57):
    assert fields._chi_table(tower57)[0].tolist() == [0, 0]


def test_chi_flip_values(tower57):
    table = fields._chi_table(tower57)
    assert table[2, 0] == 1  # rho2 negates sqrt(7)
    assert table[1, 1] == 0  # rho1 fixes sqrt(7)
    assert table[3, 1] == 1


TOWERS = [
    ([5, 7], [5], Fraction(7)),
    ([2, 3], [2], Fraction(3)),
    ([2, 3, 5], [2, 3], Fraction(5)),
    ([2, 3, 5, 7], [2, 3, 5], Fraction(63, 4)),
    ([-1, 2, 3], [-1, 2], Fraction(6)),
    ([2, 6], [2], Fraction(3)),
]


@pytest.mark.parametrize("gens,k_gens,alpha", TOWERS, ids=str)
def test_chi_has_the_closed_form_for_rational_alpha(gens, k_gens, alpha):
    # every tau fixes a rational alpha, so chi only asks whether rho flips sqrt(alpha)
    t = QuadraticTower(MultiQuadField(gens), k_gens, alpha)
    table = fields._chi_table(t)
    for rho in automorphisms(t.L):
        want = (rho.mask() & t.alpha_mask).bit_count() % 2
        assert table[rho.mask()].tolist() == [want] * t.K.dim


@pytest.mark.parametrize("gens,k_gens,alpha", TOWERS, ids=str)
def test_restriction_keeps_the_bits_of_the_k_generators(gens, k_gens, alpha):
    t = QuadraticTower(MultiQuadField(gens), k_gens, alpha)
    assert t.restriction.image.tolist() == [restricted_mask(t, m) for m in range(t.L.dim)]


# -- the quadratic radical embedding -----------------------------------------------------------


def test_biquadratic_embedding_matches_the_worked_table(tower57):
    w, phi, report = quadratic_kummer_embedding(tower57)
    gl = galois_group(tower57.L)
    table = {gl.labels[x]: w.label(phi(x)) for x in range(4)}
    assert table == {
        "id": "(id,id; id)",
        "rho1": "(id,id; eta)",
        "rho2": "(rho2,rho2; id)",
        "rho3": "(rho2,rho2; eta)",
    }
    assert report.is_homomorphism and report.is_injective
    assert report.image_order == 4 and report.wreath_order == 8
    assert not report.image_is_full


def test_two_three_tower_embedding():
    t = QuadraticTower(MultiQuadField([2, 3]), [2], Fraction(3))
    w, phi, report = quadratic_kummer_embedding(t)
    assert w.order == 8
    assert report.is_homomorphism and report.is_injective
    assert report.image_order == 4


def test_degenerate_base_field_tower():
    t = QuadraticTower(MultiQuadField([2]), [], Fraction(2))
    w, phi, report = quadratic_kummer_embedding(t)
    assert w.top.size == 1 and w.order == 2
    assert report.is_injective and report.image_is_full


def test_kummer_embedding_into_an_order_2048_wreath_stays_small(peak_mb):
    """Q(sqrt2, sqrt3, sqrt5, sqrt7) over Q(sqrt2, sqrt3, sqrt5) embeds Gal(L/Q), of
    order 16, into C:2 wr_r Gal(K/Q) of order 2048, whose dense table alone would
    be 16 MB; the embedding and its report stay under 2 MB."""
    t = QuadraticTower(MultiQuadField([2, 3, 5, 7]), [2, 3, 5], Fraction(7))
    t.restriction  # the Galois groups, built outside the traced region
    (w, _phi, report), peak = peak_mb(lambda: quadratic_kummer_embedding(t))
    assert w.order == 2048 and w._dense is None
    assert report.is_homomorphism and report.is_injective and report.image_order == 16
    assert peak < 2.0, f"peak {peak:.2f} MB"


def test_embedding_requires_a_quadratic_step():
    t = QuadraticTower(MultiQuadField([2, 3, 5]), [2], Fraction(15))
    with pytest.raises(TowerError):
        quadratic_kummer_embedding(t)


# towers whose sqrt(alpha) involves a generator of K, so the section fixing sqrt(alpha)
# is not the minimal-preimage default
SECTION_TOWERS = [((2, 3, 5), (2, 3), 15), ((-1, 2, 3), (-1, 2), 6),
                  ((2, 3, 5, 7, 11), (2, 3, 5, 7), 22)]


def test_embedding_agrees_with_kk_for_default_sections():
    """The default section fixes sqrt(alpha) exactly when sqrt(alpha) lies on the
    new generator alone; elsewhere its kk image differs from the Kummer embedding."""
    default_towers = [((5, 7), (5,), 7), ((2, 3), (2,), 3), ((2, 3, 5), (2, 3), 5)]
    for gens, k_gens, alpha in default_towers + SECTION_TOWERS:
        t = QuadraticTower(MultiQuadField(gens), k_gens, Fraction(alpha))
        _, phi, _ = quadratic_kummer_embedding(t)
        _, phi_kk = kk_embedding(tower_extension(t))
        agree = (phi.image == phi_kk.image).all()
        assert agree == ((gens, k_gens, alpha) in default_towers), (gens, k_gens, alpha)


def test_a_tower_past_the_cap_is_refused_before_any_galois_group(monkeypatch):
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]
    big = QuadraticTower(MultiQuadField(primes), primes[:11], Fraction(37))
    # the least K past int64: 6 generators, order 2^64 * 64 (5 give 2^32 * 32, which runs)
    least = QuadraticTower(MultiQuadField(primes[:7]), primes[:6], Fraction(17))

    def refuse(_f):
        raise AssertionError("a Galois group was built before the size check")

    monkeypatch.setattr(fields, "galois_group", refuse)
    start = time.perf_counter()
    with pytest.raises(SizeLimitError, match="wreath order .* exceeds the int64 index range"):
        quadratic_kummer_embedding(big)
    with pytest.raises(SizeLimitError, match=r"^wreath order 2\^64 \* 64 exceeds the int64 index range$"):
        quadratic_kummer_embedding(least)
    assert time.perf_counter() - start < 0.1


def test_galois_group_of_tower_is_klein(q57):
    group = galois_group(q57)
    assert are_isomorphic(group, construct_named("V4")) is not None
    from wreathlab.search import identify_small

    assert identify_small(group) == "C:2 × C:2"


def test_gal_lk_has_two_cosets(q57):
    # Hom(K, K) = {id, eta} matches the two cosets of the K-fixing subgroup
    from wreathlab import coset_action, subgroup_from_elements

    group = galois_group(q57)
    _, incl = subgroup_from_elements(group, [0, 2])  # id and the sqrt(7) flip
    om, sec = coset_action(group, incl)
    assert om.size == 2
    assert [int(v) for v in sec.choice] == [0, 1]


# -- cocycle relation ---------------------------------------------------------------------------


def test_cocycle_towers():
    for gens, k_gens, alpha in [([5, 7], [5], 7), ([2, 3], [2], 3),
                                ([2, 3, 5], [2, 3], 5)]:
        t = QuadraticTower(MultiQuadField(gens), k_gens, Fraction(alpha))
        ok, witness = verify_cocycle(t)
        assert ok and witness is None


def chi_values(t):
    """chi(rho, tau) at every pair, one chi call each, as an int64 array."""
    auts_l, auts_k = automorphisms(t.L), automorphisms(t.K)
    return np.array([[chi(t, rho, tau) for tau in auts_k] for rho in auts_l])


def reference_cocycle(t, table=None):
    """The cocycle law scanned over all (i1, i2, j), reading chi from ``table``
    or, by default, from a fresh chi call per term."""
    big, small = galois_group(t.L), galois_group(t.K)
    auts_l, auts_k = automorphisms(t.L), automorphisms(t.K)

    def value(i, j):
        return chi(t, auts_l[i], auts_k[j]) if table is None else int(table[i][j])

    for i1 in range(big.order):
        for i2 in range(big.order):
            prod = big.mul(i1, i2)
            for j in range(small.order):
                shifted = small.mul(small.inv(restricted_mask(t, i1)), j)
                if value(prod, j) != (value(i2, shifted) + value(i1, j)) % 2:
                    return False, (i1, i2, j)
    return True, None


@pytest.mark.parametrize("gens,k_gens,alpha", TOWERS, ids=str)
def test_chi_table_is_chi_at_every_pair(gens, k_gens, alpha):
    t = QuadraticTower(MultiQuadField(gens), k_gens, alpha)
    table = fields._chi_table(t)
    assert table.shape == (t.L.dim, t.K.dim) and not table.flags.writeable
    assert (table == chi_values(t)).all()


@pytest.mark.parametrize("gens,k_gens,alpha", TOWERS[:3], ids=str)
def test_cocycle_reports_the_first_failure_of_the_triple_scan(monkeypatch, gens, k_gens, alpha):
    """Every single-entry flip of the chi table, read by the certificate through
    ``_chi_table`` and by the oracle directly."""
    t = QuadraticTower(MultiQuadField(gens), k_gens, alpha)
    values = chi_values(t)
    for cell in np.ndindex(values.shape):
        broken = values.copy()
        broken[cell] ^= 1
        monkeypatch.setattr(fields, "_chi_table", lambda _t, broken=broken: broken)
        ok, witness = verify_cocycle(t)
        assert not ok and (ok, witness) == reference_cocycle(t, broken)
    monkeypatch.undo()
    assert verify_cocycle(t) == reference_cocycle(t) == (True, None)


def test_cocycle_failure_past_the_first_generator_is_found(monkeypatch):
    """chi + b1(rho) b2(rho), with b_i the i-th bit of the mask, keeps the law at
    r1 = the first generator (bit 0 moves neither bit) and breaks it at the
    second, so a check of the first generator alone would pass it."""
    t = QuadraticTower(MultiQuadField([2, 3, 5]), [2, 3], Fraction(5))
    m = np.arange(t.L.dim)
    broken = chi_values(t) ^ ((m >> 1) & (m >> 2) & 1)[:, None]
    gens = galois_group(t.L).generators()
    assert gens == [1, 2, 4]
    monkeypatch.setattr(fields, "_chi_table", lambda _t: broken)
    assert verify_cocycle(t) == reference_cocycle(t, broken) == (False, (2, 4, 0))


DIFFERENTIAL_TOWERS = [
    ([5, 7], [5], 7),
    ([2, 3, 5], [2], 15),
    ([2, 3, 5, 7], [3, 7], 10),
    ([2, 3, 5, 7, 11], [2, 3, 5, 7], 11),
    ([2, 3, 5, 7, 11], [5], 66),
]


def random_corruption(rng, values):
    """values with a random change: a few flipped cells, a flipped row, or a
    function u(rho) of the mask added to every column, either a character
    parity(mask & v), which keeps the law, or a product of two bits, which
    keeps it only along the other generators."""
    rows, cols = values.shape
    broken, m = values.copy(), np.arange(rows)
    kind = rng.randrange(4)
    if kind == 0:
        for _ in range(rng.randint(1, 4)):
            broken[rng.randrange(rows), rng.randrange(cols)] ^= 1
    elif kind == 1:
        broken[rng.randrange(rows)] ^= 1
    elif kind == 2:
        v = rng.randrange(rows)
        broken ^= np.array([bin(x & v).count("1") & 1 for x in range(rows)])[:, None]
    else:
        i, j = rng.sample(range(rows.bit_length() - 1), 2)
        broken ^= ((m >> i) & (m >> j) & 1)[:, None]
    return broken


@pytest.mark.parametrize("gens,k_gens,alpha", DIFFERENTIAL_TOWERS, ids=str)
def test_cocycle_agrees_with_the_triple_scan_on_random_corruptions(monkeypatch, gens, k_gens,
                                                                   alpha):
    t = QuadraticTower(MultiQuadField(gens), k_gens, Fraction(alpha))
    values, rng = chi_values(t), random.Random(len(gens) * 1000 + alpha)
    outcomes = set()
    for _ in range(24):
        broken = random_corruption(rng, values)
        monkeypatch.setattr(fields, "_chi_table", lambda _t, broken=broken: broken)
        # the fallback sweeps r1 in row blocks; any block size finds the same triple
        monkeypatch.setattr(groups, "SWEEP_CHUNK", rng.choice([1, 7, 2**16]))
        expected = reference_cocycle(t, broken)
        assert verify_cocycle(t) == expected
        outcomes.add(expected[0])
    assert outcomes == {True, False}


def test_tower_builds_its_galois_data_once_and_not_at_construction(monkeypatch):
    calls = []
    true_galois_group = fields.galois_group

    def counting(f):
        calls.append(f)
        return true_galois_group(f)

    monkeypatch.setattr(fields, "galois_group", counting)
    t = QuadraticTower(MultiQuadField([2, 3, 5]), [2, 3], Fraction(5))
    assert calls == []
    assert verify_cocycle(t) == (True, None)
    _w, _phi, report = quadratic_kummer_embedding(t)
    assert report.is_homomorphism and report.is_injective
    ses = tower_extension(t)
    assert calls == [t.L, t.K]
    assert ses.g_to_q is t.restriction
    assert t.restriction.image.tolist() == [
        sum(((m >> p) & 1) << j for j, p in enumerate(t.k_positions)) for m in range(8)]
    assert t.k_mask == 0b011


def test_cocycle_identity_case(tower57):
    # rho1 = rho2 = id: 0 = 0 + 0 for every tau
    assert not fields._chi_table(tower57)[0].any()
