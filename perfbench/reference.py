"""The benchmark's own reference objects, computed without wreathlab.

Every input the benchmark feeds to wreathlab and every answer it checks
against comes from here: Cayley tables of the named families in the
package's documented enumeration, relabelings and intercalate corruptions,
an independent wreath-product multiplication, float evaluation of
multiquadratic elements and seeded primes.  Only numpy and the standard
library are used.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

import numpy as np

# -- Cayley tables in the package's documented element order ----------------


def cyclic(n: int) -> np.ndarray:
    i = np.arange(n, dtype=np.int32)
    return (i[:, None] + i[None, :]) % n


def dihedral(n: int) -> np.ndarray:
    """D:n with r^a s^b at index 2a + b."""
    idx = np.arange(2 * n, dtype=np.int32)
    a, b = idx // 2, idx % 2
    sign = np.where(b == 0, 1, -1)
    exp = (a[:, None] + sign[:, None] * a[None, :]) % n
    return 2 * exp + (b[:, None] ^ b[None, :])


def permutations(n: int, even_only: bool = False) -> np.ndarray:
    """One-line permutations of 0..n-1 in lexicographic order, one per row."""
    perms = np.array(list(itertools.permutations(range(n))), dtype=np.int64).reshape(-1, n)
    if even_only:
        inversions = sum((perms[:, i] > perms[:, j]).astype(np.int64)
                         for i in range(n) for j in range(i + 1, n))
        perms = perms[np.asarray(inversions) % 2 == 0]
    return perms


def perm_table(perms: np.ndarray, chunk: int = 16) -> np.ndarray:
    """table[i, j] = index of perms[i] o perms[j]; rows are ranked by a radix key."""
    size, n = perms.shape
    radix = n ** np.arange(n - 1, -1, -1, dtype=np.int64)
    keys = perms @ radix  # ascending, because the rows are in lexicographic order
    table = np.empty((size, size), dtype=np.int32)
    for lo in range(0, size, chunk):  # chunked so the (rows, size, n) temporary stays small
        comp = perms[lo:lo + chunk][:, perms]  # comp[i, j, x] = p_i[p_j[x]]
        table[lo:lo + chunk] = np.searchsorted(keys, comp @ radix)
    return table


def affine(p: int) -> np.ndarray:
    """AGL:p with t -> a t + b at index (a - 1) p + b."""
    idx = np.arange((p - 1) * p, dtype=np.int32)
    a, b = idx // p + 1, idx % p
    na = (a[:, None] * a[None, :]) % p
    nb = (a[:, None] * b[None, :] + b[:, None]) % p
    return (na - 1) * p + nb


def klein() -> np.ndarray:
    i = np.arange(4, dtype=np.int64)
    return i[:, None] ^ i[None, :]


def quaternion() -> np.ndarray:
    """Q8 as 1,-1,i,-i,j,-j,k,-k: index 2u + sign with units 1,i,j,k = 0..3."""
    table = np.empty((8, 8), dtype=np.int64)
    for x in range(8):
        for y in range(8):
            u, v = x // 2, y // 2
            neg = (x % 2) ^ (y % 2)
            if u == 0 or v == 0:
                w = u + v
            elif u == v:
                w, neg = 0, neg ^ 1
            else:
                w = 6 - u - v  # the third imaginary unit
                neg ^= 0 if (v - u) % 3 == 1 else 1  # ij = k, jk = i, ki = j
            table[x, y] = 2 * w + neg
    return table


def named(spec: str) -> np.ndarray:
    """Reference table for a spec string of the package's grammar, as int32
    like the package's own tables."""
    if spec == "V4":
        table = klein()
    elif spec == "Q8":
        table = quaternion()
    else:
        family, _, arg = spec.partition(":")
        n = int(arg)
        builders = {"C": cyclic, "D": dihedral, "AGL": affine,
                    "S": lambda n: perm_table(permutations(n)),
                    "A": lambda n: perm_table(permutations(n, even_only=True))}
        if family not in builders:
            raise ValueError(f"no reference table for {spec!r}")
        table = builders[family](n)
    return table.astype(np.int32, copy=False)


def direct_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairs (i, j) at index i * |b| + j, as the package documents."""
    na, nb = len(a), len(b)
    return (a[:, None, :, None] * nb + b[None, :, None, :]).reshape(na * nb, na * nb)


def inverses(table: np.ndarray, identity: int = 0) -> np.ndarray:
    return np.argmax(table == identity, axis=1)


# -- seeded perturbations -----------------------------------------------------


def relabel(table: np.ndarray, identity: int, rng: random.Random) -> tuple[np.ndarray, int, np.ndarray]:
    """The same group with element i renamed sigma[i]; returns (table, identity, sigma)."""
    n = len(table)
    sigma = np.array(rng.sample(range(n), n), dtype=table.dtype)
    inv = np.argsort(sigma)
    return sigma[table[np.ix_(inv, inv)]], int(sigma[identity]), sigma


def intercalate(table: np.ndarray, identity: int, rng: random.Random) -> np.ndarray:
    """Swap the two values of a random 2x2 Latin subsquare.

    For an involution u the cells (x, y), (xu, uy) hold xy and the cells
    (x, uy), (xu, y) hold xuy.  Swapping them keeps a loop with the same
    identity and unique inverses (neither value is the identity), but a
    loop table within four cells of a group table is not associative.
    """
    n = len(table)
    involutions = [u for u in range(n) if u != identity and table[u, u] == identity]
    u = rng.choice(involutions)
    while True:
        x, y = rng.randrange(n), rng.randrange(n)
        xu, uy = int(table[x, u]), int(table[u, y])
        v1, v2 = int(table[x, y]), int(table[x, uy])
        if identity not in (x, xu, y, uy, v1, v2):
            break
    out = table.copy()
    out[x, y] = out[xu, uy] = v2
    out[x, uy] = out[xu, y] = v1
    return out


# -- wreath products ------------------------------------------------------------


class Wreath:
    """K wr_Omega H from its component tables, in the package's mixed radix.

    x = h * |K|^|Omega| + sum_w f(w) |K|^w and
    (f1, h1)(f2, h2) = (w -> f1(w) f2(h1^-1 . w), h1 h2).
    """

    def __init__(self, k_table: np.ndarray, act: np.ndarray, h_table: np.ndarray,
                 h_identity: int = 0):
        self.k = np.asarray(k_table, dtype=np.int64)
        self.act = np.asarray(act, dtype=np.int64)
        self.h = np.asarray(h_table, dtype=np.int64)
        self.h_inv = inverses(self.h, h_identity)
        self.nk = len(self.k)
        self.points = self.act.shape[1]
        self.powers = self.nk ** np.arange(self.points, dtype=np.int64)
        self.tuples = self.nk ** self.points
        self.order = self.tuples * len(self.h)

    def digits(self, t: np.ndarray) -> np.ndarray:
        return (t[..., None] // self.powers) % self.nk

    def table(self, chunk: int = 64) -> np.ndarray:
        x = np.arange(self.order, dtype=np.int64)
        out = np.empty((self.order, self.order), dtype=np.int64)
        for lo in range(0, self.order, chunk):
            rows = x[lo:lo + chunk, None]
            out[lo:lo + chunk] = self.mul(np.broadcast_to(rows, (len(rows), self.order)),
                                          np.broadcast_to(x, (len(rows), self.order)))
        return out

    def mul(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        h1, t1 = np.divmod(x, self.tuples)
        h2, t2 = np.divmod(y, self.tuples)
        d1, d2 = self.digits(t1), self.digits(t2)
        moved = np.take_along_axis(d2, self.act[self.h_inv[h1]], axis=-1)
        return self.h[h1, h2] * self.tuples + self.k[d1, moved] @ self.powers


def hom_violations(image: np.ndarray, domain: np.ndarray, mul, chunk: int = 64) -> int:
    """Number of pairs (a, b) with image[ab] != image[a] image[b], over all pairs."""
    image = np.asarray(image, dtype=np.int64)
    n = len(domain)
    bad = 0
    for lo in range(0, n, chunk):
        rows = np.arange(lo, min(lo + chunk, n))
        lhs = image[domain[rows]]
        rhs = mul(np.broadcast_to(image[rows][:, None], lhs.shape),
                  np.broadcast_to(image[None, :], lhs.shape))
        bad += int((lhs != rhs).sum())
    return bad


# -- multiquadratic fields ------------------------------------------------------

SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)


def random_coords(dim: int, rng: random.Random) -> list[Fraction]:
    """Nonzero coordinates: mul skips zero ones, so a seeded share of zeros
    would move the cost of an op with the seed."""
    return [Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))
            for _ in range(dim)]


def float_value(coords, generators, signs) -> float:
    """Value of sum_S c_S prod_{i in S} sqrt(d_i) under sqrt(d_i) -> signs[i] sqrt(d_i)."""
    roots = [s * math.sqrt(d) for d, s in zip(generators, signs)]
    total = 0.0
    for mask, c in enumerate(coords):
        term = float(c)
        for i, r in enumerate(roots):
            if mask >> i & 1:
                term *= r
        total += term
    return total


def float_scale(coords, generators) -> float:
    """Sum of absolute term values: the size of the rounding error to expect."""
    return float_value([abs(c) for c in coords], generators, [1] * len(generators))


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for n < 3.4e14."""
    if n < 2:
        return False
    for p in SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in (2, 3, 5, 7, 11, 13, 17):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def primes_near(anchors: list[int], rng: random.Random) -> list[int]:
    """For each anchor a, the first prime after a random point of [a, 1.01 a)."""
    out = []
    for a in anchors:
        p = rng.randrange(a, a + a // 100)
        while not is_prime(p):
            p += 1
        out.append(p)
    return out
