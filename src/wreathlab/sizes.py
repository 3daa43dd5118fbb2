"""Closed-form wreath-product size formulas, catalog rows, and plot data.

For a tower with m = [L^c : F], k = [K : F] and kc = [K^c : F]:

* regular route:  (m / kc)^kc * kc
* coset route:    (m / k)^k * kc

All evaluation is exact big-integer arithmetic; natural logs are taken last.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .errors import DivisibilityViolationError


def regular_size(m: int, kc: int) -> int:
    """(m/kc)^kc * kc as an exact integer."""
    if kc < 1:
        raise DivisibilityViolationError("kc must be at least 1")
    if m % kc != 0:
        raise DivisibilityViolationError(f"{kc} does not divide {m}")
    return (m // kc) ** kc * kc


def omega_size(m: int, k: int, kc: int) -> int:
    """(m/k)^k * kc as an exact integer."""
    if k < 1 or kc < k:
        raise DivisibilityViolationError("need 1 <= k <= kc")
    if m % k != 0:
        raise DivisibilityViolationError(f"{k} does not divide {m}")
    return (m // k) ** k * kc


# Miller-Rabin with the first 13 primes as bases is exact below this bound
# (Sorenson and Webster, "Strong pseudoprimes to twelve prime bases", 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT_BELOW = 3317044064679887385961981
_TRIAL_LIMIT = 1000


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n with no factor below ``_TRIAL_LIMIT``.  A
    probable prime at or above ``_MR_EXACT_BELOW`` raises ``ValueError``: it
    cannot be proved prime."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False  # a is a witness: n is certainly composite
    if n >= _MR_EXACT_BELOW:
        raise ValueError(f"cannot factor exactly: {n} is a probable prime past the "
                         f"deterministic Miller-Rabin range {_MR_EXACT_BELOW}")
    return True


def _pollard_brent(n: int) -> int:
    """A proper factor of the odd composite n: Pollard's rho with Brent's cycle search,
    on x -> x^2 + c for c = 1, 2, ... until one splits n."""
    for c in itertools.count(1):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += 128
            r *= 2
        if g == n:  # the batch overshot: step back through it one gcd at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g


def _factors(n: int, power: int = 1) -> Counter:
    """Prime factorization of n^power for n >= 1: trial division up to
    ``_TRIAL_LIMIT`` or sqrt(n), then Miller-Rabin and Pollard-Brent on the rest.

    Exact or refused: a probable-prime cofactor of ``_MR_EXACT_BELOW`` or more
    raises ``ValueError`` (see ``_is_prime``)."""
    out: Counter = Counter()
    d = 2
    while d < _TRIAL_LIMIT and d * d <= n:
        while n % d == 0:
            n //= d
            out[d] += power
        d += 1
    rest = [n] if n > 1 else []
    while rest:
        m = rest.pop()
        if m < _TRIAL_LIMIT**2 or _is_prime(m):  # no factor below _TRIAL_LIMIT or sqrt(m)
            out[m] += power
        else:
            d = _pollard_brent(m)
            rest += [d, m // d]
    return out


def _factor_str(factors: Counter) -> str:
    """Ascending primes as ``p^e`` (or ``p`` for e = 1) joined by ``*``; ``1`` if none."""
    if not factors:
        return "1"
    return "*".join(f"{p}^{e}" if e > 1 else str(p) for p, e in sorted(factors.items()))


def _over(head: str, den: int, factors: Counter) -> str:
    """``head/den``, a den of 1000 or more written as its ``factors`` in parentheses."""
    if den == 1:
        return head
    ds = _factor_str(factors) if den >= 1000 else str(den)
    return f"{head}/({ds})" if "*" in ds else f"{head}/{ds}"


@dataclass(frozen=True)
class SizeRow:
    """One catalog row: coefficients of the two size formulas in lowest terms."""

    k: int
    kc: int
    group_name: str
    dihedral: bool

    @property
    def regular_coeff(self) -> Fraction:
        return Fraction(1, self.kc ** (self.kc - 1))

    @property
    def omega_coeff(self) -> Fraction:
        return Fraction(self.kc, self.k**self.k)

    def regular_formula(self) -> str:
        return _over(f"m^{self.kc}", self.kc ** (self.kc - 1), _factors(self.kc, self.kc - 1))

    def omega_formula(self) -> str:
        c = self.omega_coeff
        num = "" if c.numerator == 1 else str(c.numerator)
        return _over(f"{num}m^{self.k}", c.denominator, _factors(c.denominator))

    def regular_at(self, m: int) -> int:
        return regular_size(m, self.kc)

    def omega_at(self, m: int) -> int:
        return omega_size(m, self.k, self.kc)


_TABLE: dict[int, list[SizeRow]] = {
    2: [SizeRow(2, 2, "C2", False)],
    3: [SizeRow(3, 3, "C3", False), SizeRow(3, 6, "S3", True)],
    4: [
        SizeRow(4, 4, "C4", False),
        SizeRow(4, 4, "C2xC2", False),
        SizeRow(4, 8, "D4", True),
        SizeRow(4, 12, "A4", False),
        SizeRow(4, 24, "S4", False),
    ],
    5: [
        SizeRow(5, 5, "C5", False),
        SizeRow(5, 10, "D5", True),
        SizeRow(5, 20, "F5", False),
        SizeRow(5, 60, "A5", False),
        SizeRow(5, 120, "S5", False),
    ],
}


def table1(kf: int) -> list[SizeRow]:
    """Catalog rows (bottom-group candidates and size formulas) for [K:F] = kf."""
    if kf not in _TABLE:
        raise ValueError(f"no catalog rows for [K:F] = {kf} (supported: 2..5)")
    return list(_TABLE[kf])


def find_row(kf: int, group: str) -> SizeRow:
    for row in table1(kf):
        if row.group_name == group:
            return row
    names = ", ".join(r.group_name for r in table1(kf))
    raise ValueError(f"group {group!r} not in the kf={kf} catalog ({names})")


@dataclass(frozen=True)
class FigureRow:
    m: int
    log_regular: float
    log_omega: float
    marker: str


# the largest m_max figure_data and crossover_report accept: they make one row
# per multiple of kc up to m_max, so at most 50,000 rows (kc >= 2)
M_MAX_BOUND = 10**5


def _multiples(kf: int, group: str, m_max: int) -> tuple[SizeRow, range]:
    """The catalog row and the multiples of its kc up to m_max, refused with
    ``ValueError`` above ``M_MAX_BOUND`` before any row is made."""
    if m_max > M_MAX_BOUND:
        raise ValueError(f"m_max {m_max} exceeds the bound {M_MAX_BOUND}")
    row = find_row(kf, group)
    return row, range(row.kc, m_max + 1, row.kc)


def figure_data(kf: int, group: str, m_max: int) -> list[FigureRow]:
    """Log-size rows for m over multiples of kc up to m_max.

    The m = 2*kc row carries the "2kc" marker (the reference line in the plots).
    """
    row, ms = _multiples(kf, group, m_max)
    return [FigureRow(m=m, log_regular=math.log(row.regular_at(m)),
                      log_omega=math.log(row.omega_at(m)),
                      marker="2kc" if m == 2 * row.kc else "")
            for m in ms]


FIGURE_CSV_HEADER = "m,log_regular,log_omega,marker"


def figure_csv(rows: list[FigureRow]) -> str:
    lines = [FIGURE_CSV_HEADER]
    for r in rows:
        lines.append(f"{r.m},{r.log_regular!r},{r.log_omega!r},{r.marker}")
    return "\n".join(lines) + "\n"


def crossover_report(kf: int, group: str, m_max: int) -> dict:
    """Per-m comparison of the two sizes, plus whether the observed pattern
    matches: equality everywhere for Galois rows; above m = 3kc the regular
    size dominates; at m = 2kc equality holds exactly for dihedral bottom groups.
    """
    row, ms = _multiples(kf, group, m_max)
    comparisons = []
    matches = True
    for m in ms:
        reg, om = row.regular_at(m), row.omega_at(m)
        relation = "eq" if reg == om else ("gt" if reg > om else "lt")
        comparisons.append({"m": m, "regular": reg, "omega": om, "relation": relation})
        if row.k == row.kc:
            if relation != "eq":
                matches = False
        else:
            if m == 2 * row.kc and (relation == "eq") != row.dihedral:
                matches = False
            if m >= 3 * row.kc and relation != "gt":
                matches = False
    return {
        "kf": kf,
        "group": group,
        "is_galois_row": row.k == row.kc,
        "is_dihedral": row.dihedral,
        "comparisons": comparisons,
        "matches_observed_pattern": matches,
    }


def tower_size_comparison(l_deg: int, lc_deg: int, k: int, kc: int) -> dict:
    """Compare the sharp wreath size ([L:K])^k * kc against the coset-route
    size ([L^c:F]/k)^k * kc for the same tower, with the exact ratio.

    The factorizations are exact.  A degree with a prime factor of
    ``_MR_EXACT_BELOW`` (about 3.3e24) or more raises ``ValueError``, as
    that factor cannot be proved prime.
    """
    sharp = omega_size(l_deg, k, kc)
    coset = omega_size(lc_deg, k, kc)
    if coset % sharp != 0:
        raise DivisibilityViolationError("sharp size does not divide the coset-route size")
    ratio = coset // sharp
    # (m/k)^k * kc factored through its base, so only m/k and kc are ever factored
    sharp_factors = _factors(l_deg // k, k) + _factors(kc)
    coset_factors = _factors(lc_deg // k, k) + _factors(kc)
    return {
        "sharp_size": sharp,
        "sharp_factored": _factor_str(sharp_factors),
        "coset_size": coset,
        "coset_factored": _factor_str(coset_factors),
        "ratio": ratio,
        "ratio_factored": _factor_str(coset_factors - sharp_factors),
        "note": (
            f"exact ratio is {ratio} (~{ratio / 1e6:.1f} million); "
            "larger round-number claims overstate it"
        ),
    }
