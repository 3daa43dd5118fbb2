"""Complete and regular wreath products as concrete groups with structure maps.

Element encoding is mixed radix: index = h * |K|^|Omega| + sum_w f(w) * |K|^w,
so the tuple digit at point 0 is least significant and the top element is the
most significant digit.  ``WreathGroup`` is the one wreath product object: the
codomain of every embedding, built by ``build_wreath`` and ``regular_wreath``.
It holds the encoding and the one statement of the product formula as
broadcasting functions on int64 index arrays; its scalar ``encode``,
``decode``, ``mul``, ``inv`` and ``label`` apply them to one index, and
``theta_table`` reads theta_h(f)(w) = f(h^-1 . w) off the formula.  It honours
the group protocol of ``groups.Group`` and reads its factors through it, so either
factor may itself be structural, and hom checks, closures, quotients, embeddings
and transports run on it with nothing of size ``order`` stored.

``WreathGroup.dense()`` builds the Cayley table as a ``FiniteGroup`` on
request (search, small-group identification and JSON export read tables) and
refuses a table past ``groups.BYTE_BUDGET`` (an order above 4096) before it
allocates anything.  It is assembled from the pointwise product of the
B = |K|^|Omega| tuples, K's products raised to a direct power one point at a
time, and the theta table.

A product is refused only past the int64 index range; ``theta_table`` and the
transports, which enumerate every element, refuse an int64 array past the byte
budget: one cell per element, one per digit.  ``embeddings.ShortExactSequence.wreath``
builds the extension's N wr_r Q once and keeps it for all of its sections.
"""

from __future__ import annotations

import copy
from typing import Optional, Sequence

import numpy as np

from .actions import FiniteGSet, regular_action
from .errors import SizeLimitError, WreathlabError
from .groups import FiniteGroup, Group, _budget, _index, _indices, _orbits, _rows_per_block

# elements are int64 indices, so no product has an order of 2^63 or more
_INDEX_LIMIT = 2**63


def _check_wreath_order(n_base: int, n_points: int, n_top: int, at_least: bool = False) -> None:
    """Refuse a wreath product of order n_base^n_points * n_top of ``_INDEX_LIMIT``
    or more with ``SizeLimitError``, before anything is built.

    The message writes an order past 20 digits as ``base^points * top``, and
    says "at least" when n_top is only a lower bound on the top group's order.
    From 2^16 points on two or more base elements the order (>= 2^65536) is not formed: it is None.
    """
    order = n_base**n_points * n_top if n_base < 2 or n_points < 2**16 else None
    text = f"{n_base}^{n_points} * {n_top}" if order is None or order >= 10**20 else str(order)
    if at_least:
        text = f"at least {text}"
    if order is None or order >= _INDEX_LIMIT:
        raise SizeLimitError(f"wreath order {text} exceeds the int64 index range", order)


class WreathGroup(Group):
    """K wr_Omega H as a structural group: the mixed-radix encoding and the product formula.

    The ``*_array`` methods work unchecked on int64 index arrays of any broadcastable
    shapes; the scalar methods are checked, and the order against int64 first.
    """

    def __init__(self, base_group: Group, top: FiniteGSet):
        _check_wreath_order(base_group.order, top.size, top.group.order)
        self.base_group = base_group
        self.top = top
        self.name = f"{base_group.name or 'K'} wr {top.group.name or 'H'}"
        self.n_base = base_group.order
        self.n_points = top.size
        self.n_top = top.group.order
        self.tuple_count = base_group.order**top.size
        self.order = self.tuple_count * self.n_top
        self.powers = [self.n_base**j for j in range(self.n_points)]
        self._pw = np.array(self.powers, dtype=np.int64)
        self._tuples = np.int64(self.tuple_count)  # int64: a table group's products are int32
        self._inv_act = top.act[top.group.inv_array(np.arange(self.n_top))]  # row h: h^-1's action
        self.identity = top.group.identity * self.tuple_count + base_group.identity * sum(self.powers)
        self._dense: Optional[FiniteGroup] = None

    # read only by ``perfbench/spans.py``; goes with its rename (ROADMAP item 3)
    product = property(lambda self: self)

    def encode(self, f: Sequence[int], h: int) -> int:
        """The index of (f, h), its digits read by ``groups._indices`` and its top by ``_index``."""
        f = _indices(f, self.n_base, WreathlabError, "tuple digit")
        if len(f) != self.n_points:
            raise WreathlabError(f"tuple length {len(f)} != |Omega| = {self.n_points}")
        return int(self.encode_array(f, _index(h, self.n_top, WreathlabError, "top index")))

    def decode(self, x: int) -> tuple[tuple[int, ...], int]:
        """(f, h) of the index x, read by ``groups._index``."""
        digits, h = self.decode_array(_index(x, self.order, WreathlabError, "wreath index"))
        return tuple(digits.tolist()), int(h)

    def decode_array(self, x) -> tuple[np.ndarray, np.ndarray]:
        """Unchecked decode of an index array: digits of shape x.shape + (n_points,), and tops."""
        h, t = np.divmod(np.asarray(x, dtype=np.int64), self.tuple_count)
        return t[..., None] // self._pw % self.n_base, h

    def encode_array(self, digits, tops) -> np.ndarray:
        """Unchecked inverse of ``decode_array``: indices of shape tops.shape."""
        digits = np.asarray(digits, dtype=np.int64)
        return np.asarray(tops, dtype=np.int64) * self.tuple_count + digits @ self._pw

    def mul(self, a: int, b: int) -> int:
        return int(self.mul_array(_index(a, self.order, WreathlabError, "wreath index"),
                                  _index(b, self.order, WreathlabError, "wreath index")))

    def inv(self, a: int) -> int:
        return int(self.inv_array(_index(a, self.order, WreathlabError, "wreath index")))

    def mul_array(self, x, y) -> np.ndarray:
        """(f1, h1)(f2, h2) = (f1 * theta_h1(f2), h1 h2) with theta_h1(f2)(w) = f2(h1^-1 . w)."""
        f1, h1 = self.decode_array(x)
        h2, t2 = np.divmod(np.asarray(y, dtype=np.int64), self.tuple_count)
        k, rows = self.base_group, self._inv_act[h1]
        t = self.top.group.mul_array(h1, h2) * self._tuples
        # one point at a time keeps every temporary at the broadcast shape
        for w in range(self.n_points):
            moved = t2 // self._pw[rows[..., w]] % self.n_base  # digit of f2 at h1^-1 . w
            t = t + k.mul_array(f1[..., w], moved) * self._pw[w]
        return t

    def inv_array(self, x) -> np.ndarray:
        """(f, h)^-1 = (theta_h^-1(f^-1), h^-1) with theta_h^-1(f)(w) = f(h . w)."""
        f, h = self.decode_array(x)
        moved = np.take_along_axis(f, self.top.act[h], axis=-1)
        return self.top.group.inv_array(h) * self._tuples + self.base_group.inv_array(moved) @ self._pw

    def tuple_product(self, f, g) -> np.ndarray:
        """Pointwise product of tuple-index arrays, read off (f, e)(g, e) = (fg, e)."""
        e = self.identity - self.identity % self.tuple_count
        return self.mul_array(e + np.asarray(f), e + np.asarray(g)) % self.tuple_count

    def theta_table(self) -> np.ndarray:
        """theta[h, f] = theta_h(f) for every h and f, read off (1, h)(f, e) = (theta_h(f), h)
        in blocks of tops, so ``mul_array``'s temporaries stay O(``SWEEP_CHUNK``)."""
        _budget(8 * self.order, "theta table", self.order)
        B, step = self.tuple_count, _rows_per_block(self.tuple_count)
        unit = self.identity % B
        tops, fs = np.arange(self.n_top)[:, None] * B + unit, self.identity - unit + np.arange(B)
        theta = np.empty((self.n_top, B), dtype=np.int64)
        for lo in range(0, self.n_top, step):
            np.remainder(self.mul_array(tops[lo:lo + step], fs), B, out=theta[lo:lo + step])
        return theta

    def dense_table(self) -> np.ndarray:
        """The Cayley table, one B x B block of tuple parts per h1.

        By associativity (f1, h1)(f2, h2) = (f1, e) [(1, h1)(f2, e)] (1, h2)
        has tuple part prod[f1, theta[h1, f2]] whatever h2 is, so each block
        is one gather from the tuple tables, reused along its row of blocks.
        The tuple product ``prod`` is K's table raised to a direct power, one
        point at a time with point 0 least significant, as in
        ``groups.direct_product``.
        """
        B, n, n_top = self.tuple_count, self.n_base, self.n_top
        k, h = np.arange(n), np.arange(n_top)
        kt, prod = self.base_group.mul_array(k[:, None], k), np.zeros((1, 1), dtype=np.int32)
        for j in range(self.n_points):
            m = n * prod.shape[0]
            prod = (kt[:, None, :, None] * self.powers[j] + prod[None, :, None, :]).reshape(m, m)
        theta_of = self.theta_table()
        tops = (self.top.group.mul_array(h[:, None], h) * B)[:, None, :, None]
        table = np.empty((n_top, B, n_top, B), dtype=np.int32)
        for h1 in range(n_top):  # row of blocks h1: prod[f1, theta[h1, f2]] + h1 h2 B
            vals = np.take(prod, theta_of[h1], axis=1)  # 2-3x faster than prod[:, idx]
            np.add(vals[:, None, :], tops[h1], out=table[h1])
        return table.reshape(self.order, self.order)

    def generators(self) -> list[int]:
        """K's generators at the least point of each orbit of Omega, then H's generators."""
        e, k_e, h_e = self.identity, self.base_group.identity, self.top.group.identity
        orbit_of = _orbits(self.top.act[self.top.group.generators()])
        points = np.flatnonzero(orbit_of == np.arange(self.n_points)).tolist()
        return ([e + (k - k_e) * self.powers[w] for w in points for k in self.base_group.generators()]
                + [e + (h - h_e) * self.tuple_count for h in self.top.group.generators()])

    def labels(self, indices) -> list[str]:
        """``(k_0,...,k_{n-1}; h)`` for each index of a row, from one array decode and
        one ``labels`` call per factor."""
        digits, tops = self.decode_array(_indices(indices, self.order, WreathlabError, "wreath index"))
        k, m = self.base_group.labels(digits.ravel()), self.n_points
        return [f"({','.join(k[m * i:m * i + m])}; {h})"
                for i, h in enumerate(self.top.group.labels(tops))]

    def label(self, x: int) -> str:
        return self.labels([x])[0]

    def label_index(self, text: str) -> int:
        """The index of ``(k_0,...,k_{n-1}; h)``, the inverse of ``label``.

        The text splits at the ``;`` and the commas that lie outside every
        parenthesis and bracket, so component labels may hold either.
        """
        s = text.strip()
        parts = _split_outside(s[1:-1], ";") if s[:1] == "(" and s[-1:] == ")" else []
        if len(parts) != 2:
            raise WreathlabError(f"cannot parse wreath element {text!r}")
        base_labels = _split_outside(parts[0], ",")
        if len(base_labels) != self.n_points:
            raise WreathlabError(f"expected {self.n_points} tuple entries in {text!r}")
        f = [self.base_group.label_index(lbl.strip()) for lbl in base_labels]
        return self.encode(f, self.top.group.label_index(parts[1].strip()))

    def dense(self) -> FiniteGroup:
        """The product as a Cayley-table ``FiniteGroup``, built on the first call.

        Indices, labels, generators and inverses are this product's, the labels
        decoded on their first read; the table, proved by differential tests,
        skips the table scans and Light's test.  A table past the byte budget
        raises ``SizeLimitError`` before anything is allocated.
        """
        if self._dense is None:
            _budget(4 * self.order**2, "wreath product table", self.order)
            # a bare copy of this product: a closure over self would make a reference
            # cycle through self._dense
            codec = copy.copy(self)
            self._dense = FiniteGroup(self.dense_table(), name=self.name,
                                      _generators=self.generators(),
                                      _label_source=lambda: codec.labels(np.arange(codec.order)),
                                      _inverses=self.inv_array(np.arange(self.order)))
        return self._dense

    def __repr__(self) -> str:
        return f"<{self.name} of order {self.order} (structural)>"


# ``perfbench/spans.py`` wraps this class by its former names; the aliases go with its
# rename (ROADMAP item 3)
_Codec = WreathProduct = WreathGroup


def _split_outside(text: str, sep: str) -> list[str]:
    """``text`` split at each ``sep`` that lies outside every parenthesis and bracket."""
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        elif ch == sep and depth == 0:
            parts.append(text[start:i])
            start = i + 1
    parts.append(text[start:])
    return parts


def build_wreath(k: Group, omega: FiniteGSet) -> WreathGroup:
    """Complete wreath product K wr_Omega H for H = omega.group; either may be structural."""
    return WreathGroup(k, omega)


def regular_wreath(k: Group, h: FiniteGroup) -> WreathGroup:
    """Regular wreath product K wr_r H (Omega = H under left multiplication)."""
    return build_wreath(k, regular_action(h))
