"""Complete and regular wreath products as concrete groups with structure maps.

Element encoding is mixed radix: index = h * |K|^|Omega| + sum_w f(w) * |K|^w,
so the tuple digit at point 0 is least significant and the top element is the
most significant digit.  ``_Codec`` holds the encoding and the one statement
of the product formula, as broadcasting functions on int64 index arrays.

Products up to the dense cap are ``FiniteGroup`` Cayley tables; larger ones
(up to the overall size cap) are structural ``WreathGroup`` objects whose
products the codec computes on demand.  Both honour the group protocol of
``groups.Group``: order, identity, name, scalar mul/inv, the array product
``mul_array``, labels, generators, powers and element orders, so hom checks,
closures and embeddings work on either.  Only dense products have a ``table``,
``element_orders()`` (which embedding search needs) and JSON export.  The
top projection is computed on first use, so a structural build stores
nothing of size ``order``.
"""

from __future__ import annotations

import functools
from typing import Optional, Sequence

import numpy as np

from .actions import FiniteGSet, regular_action
from .errors import SizeLimitError, WreathlabError
from .groups import DENSE_CAP_DEFAULT, FiniteGroup, Group, GroupHom

SIZE_CAP_DEFAULT = 10**7


def theta(omega: FiniteGSet, h: int, f: Sequence[int]) -> tuple[int, ...]:
    """Coordinate permutation theta_h(f)(w) = f(h^-1 . w) on Omega-tuples."""
    if len(f) != omega.size:
        raise WreathlabError(f"tuple length {len(f)} != |Omega| = {omega.size}")
    hinv = omega.group.inv(h)
    row = omega.act[hinv]
    return tuple(int(f[row[w]]) for w in range(omega.size))


class _Codec:
    """The mixed-radix encoding and the wreath product formula.

    ``encode``/``decode`` are the validated per-element API; ``encode_array``,
    ``decode_array``, ``mul`` and ``inv`` work unchecked on int64 index arrays
    of any broadcastable shapes.
    """

    def __init__(self, base: FiniteGroup, top: FiniteGSet):
        self.base = base
        self.top = top
        self.n_base = base.order
        self.n_points = top.size
        self.n_top = top.group.order
        self.tuple_count = base.order**top.size
        self.order = self.tuple_count * self.n_top
        self.powers = [self.n_base**j for j in range(self.n_points)]
        self.identity = self.encode([base.identity] * self.n_points, top.group.identity)
        self._pw = np.array(self.powers, dtype=np.int64)
        self._ktab = base.table.astype(np.int64)
        self._kinv = base.inverses.astype(np.int64)
        self._htab = top.group.table.astype(np.int64)
        self._hinv = top.group.inverses.astype(np.int64)
        self._inv_act = top.act[top.group.inverses]  # row h is the action of h^-1

    def encode(self, f: Sequence[int], h: int) -> int:
        if len(f) != self.n_points:
            raise WreathlabError(f"tuple length {len(f)} != |Omega| = {self.n_points}")
        t = 0
        for j in range(self.n_points):
            d = int(f[j])
            if not 0 <= d < self.n_base:
                raise WreathlabError(f"tuple digit {d} out of base-group range")
            t += d * self.powers[j]
        if not 0 <= h < self.n_top:
            raise WreathlabError(f"top index {h} out of range")
        return h * self.tuple_count + t

    def decode(self, x: int) -> tuple[tuple[int, ...], int]:
        if not 0 <= x < self.order:
            raise WreathlabError(f"wreath index {x} out of range")
        h, t = divmod(int(x), self.tuple_count)
        digits = []
        for _ in range(self.n_points):
            t, d = divmod(t, self.n_base)
            digits.append(d)
        # divmod peels from the least significant end, which is point 0
        return tuple(digits), h

    def decode_array(self, x) -> tuple[np.ndarray, np.ndarray]:
        """Unchecked decode of an index array: digits of shape x.shape + (n_points,), and tops."""
        h, t = np.divmod(np.asarray(x, dtype=np.int64), self.tuple_count)
        return t[..., None] // self._pw % self.n_base, h

    def encode_array(self, digits, tops) -> np.ndarray:
        """Unchecked inverse of ``decode_array``: indices of shape tops.shape."""
        digits = np.asarray(digits, dtype=np.int64)
        return np.asarray(tops, dtype=np.int64) * self.tuple_count + digits @ self._pw

    def mul(self, x, y) -> np.ndarray:
        """(f1, h1)(f2, h2) = (f1 * theta_h1(f2), h1 h2) with theta_h1(f2)(w) = f2(h1^-1 . w)."""
        f1, h1 = self.decode_array(x)
        h2, t2 = np.divmod(np.asarray(y, dtype=np.int64), self.tuple_count)
        rows = self._inv_act[h1]
        t = self._htab[h1, h2] * self.tuple_count
        # one point at a time keeps every temporary at the broadcast shape
        for w in range(self.n_points):
            moved = t2 // self._pw[rows[..., w]] % self.n_base  # digit of f2 at h1^-1 . w
            t = t + self._ktab[f1[..., w], moved] * self.powers[w]
        return t

    def inv(self, x) -> np.ndarray:
        """(f, h)^-1 = (theta_h^-1(f^-1), h^-1) with theta_h^-1(f)(w) = f(h . w)."""
        f, h = self.decode_array(x)
        moved = np.take_along_axis(f, self.top.act[h], axis=-1)
        return self._hinv[h] * self.tuple_count + self._kinv[moved] @ self._pw

    def tuple_product(self, f, g) -> np.ndarray:
        """Pointwise product of tuple-index arrays, read off (f, e)(g, e) = (fg, e)."""
        e = self.identity - self.identity % self.tuple_count
        return self.mul(e + np.asarray(f), e + np.asarray(g)) % self.tuple_count

    def theta_table(self) -> np.ndarray:
        """theta[h, f] = theta_h(f) for every h and f, read off (1, h)(f, e) = (theta_h(f), h)."""
        B = self.tuple_count
        unit = self.identity % B
        tops = np.arange(self.n_top, dtype=np.int64) * B + unit
        return self.mul(tops[:, None], self.identity - unit + np.arange(B)[None, :]) % B

    def dense_table(self) -> np.ndarray:
        """The Cayley table, one B x B block of tuple parts per h1.

        By associativity (f1, h1)(f2, h2) = (f1, e) [(1, h1)(f2, e)] (1, h2)
        has tuple part prod[f1, theta[h1, f2]] whatever h2 is, so each block
        is one gather from the tuple tables, reused along its row of blocks.
        """
        B, n_top = self.tuple_count, self.n_top
        f = np.arange(B, dtype=np.int64)
        prod = self.tuple_product(f[:, None], f[None, :]).astype(np.int32)
        theta_of = self.theta_table()
        tops = (self._htab * B).astype(np.int32)[:, None, :, None]
        table = np.empty((n_top, B, n_top, B), dtype=np.int32)
        for h1 in range(n_top):  # row of blocks h1: prod[f1, theta[h1, f2]] + h1 h2 B
            vals = prod[:, theta_of[h1]]
            np.add(tops[h1], vals[:, None, :], out=table[h1])
        return table.reshape(self.order, self.order)

    def generators(self) -> list[int]:
        """K's generators at the least point of each orbit of Omega, then H's generators."""
        unit = [self.base.identity] * self.n_points
        points = sorted({min(self.top.orbit(w)) for w in range(self.n_points)})
        base = [unit[:w] + [k] + unit[w + 1:] for w in points for k in self.base.generators()]
        return ([self.encode(f, self.top.group.identity) for f in base]
                + [self.encode(unit, h) for h in self.top.group.generators()])

    def label(self, x: int) -> str:
        f, h = self.decode(x)
        inner = ",".join(self.base.labels[d] for d in f)
        return f"({inner}; {self.top.group.labels[h]})"


class WreathGroup(Group):
    """Structural wreath product used above the dense-table cap.

    Honours the group protocol with products computed by the codec, so
    nothing of size ``order`` is stored.
    """

    def __init__(self, codec: _Codec, name: str):
        self._codec = codec
        self.order = codec.order
        self.identity = codec.identity
        self.name = name

    def mul(self, a: int, b: int) -> int:
        return int(self._codec.mul(a, b))

    def inv(self, a: int) -> int:
        return int(self._codec.inv(a))

    def mul_array(self, a, b) -> np.ndarray:
        return self._codec.mul(a, b)

    def label(self, x: int) -> str:
        return self._codec.label(x)

    def generators(self) -> list[int]:
        return self._codec.generators()

    def __repr__(self) -> str:
        return f"<{self.name} of order {self.order} (structural)>"


class WreathProduct:
    """K wr_Omega H with encode/decode, top projection and base inclusion."""

    def __init__(self, base_group: FiniteGroup, top: FiniteGSet,
                 size_cap: Optional[int] = None, dense_cap: Optional[int] = None):
        size_cap = SIZE_CAP_DEFAULT if size_cap is None else size_cap
        dense_cap = DENSE_CAP_DEFAULT if dense_cap is None else dense_cap
        # checked before the codec exists: its int64 radix powers overflow far past any cap
        order = base_group.order**top.size * top.group.order
        if order > size_cap:
            raise SizeLimitError(f"wreath order {order} exceeds cap {size_cap}", order)
        codec = _Codec(base_group, top)
        self.base_group = base_group
        self.top = top
        self._codec = codec
        self.order = codec.order
        name = f"{base_group.name or 'K'} wr {top.group.name or 'H'}"
        if codec.order <= dense_cap:
            labels = [codec.label(x) for x in range(codec.order)]
            # the dense-vs-structural differential test proves this table; skip Light's
            # test and take the codec's generators, as the structural product does
            self.product: FiniteGroup | WreathGroup = FiniteGroup(
                codec.dense_table(), labels=labels, name=name,
                _generator_source=codec.generators)
        else:
            self.product = WreathGroup(codec, name)

    @functools.cached_property
    def top_projection(self) -> GroupHom:
        """(f, h) |-> h, built on first use; unvalidated, its tests prove the hom law."""
        proj = np.arange(self.order, dtype=np.int64) // self._codec.tuple_count
        return GroupHom(self.product, self.top.group, proj, validate=False)

    # -- structure maps ------------------------------------------------------

    def encode(self, f: Sequence[int], h: int) -> int:
        return self._codec.encode(f, h)

    def decode(self, x: int) -> tuple[tuple[int, ...], int]:
        return self._codec.decode(x)

    def theta(self, h: int, f: Sequence[int]) -> tuple[int, ...]:
        return theta(self.top, h, f)

    def base_inclusion(self, f: Sequence[int]) -> int:
        """Index of the base tuple f at the identity top element."""
        return self._codec.encode(f, self.top.group.identity)

    def inverse(self, x: int) -> int:
        return self.product.inv(x)

    def mul(self, x: int, y: int) -> int:
        return self.product.mul(x, y)

    # -- formatting ------------------------------------------------------------

    def element_str(self, x: int) -> str:
        return self._codec.label(x)

    def parse_element(self, text: str) -> int:
        s = text.strip()
        if not (s.startswith("(") and s.endswith(")")):
            raise WreathlabError(f"cannot parse wreath element {text!r}")
        body = s[1:-1]
        tuple_part, sep, top_part = body.rpartition(";")
        if not sep:
            raise WreathlabError(f"cannot parse wreath element {text!r}")
        base_labels = [p.strip() for p in tuple_part.split(",")]
        if len(base_labels) != self.top.size:
            raise WreathlabError(
                f"expected {self.top.size} tuple entries in {text!r}")
        f = [self.base_group.label_index(lbl) for lbl in base_labels]
        h = self.top.group.label_index(top_part.strip())
        return self._codec.encode(f, h)

    def __repr__(self) -> str:
        return f"<WreathProduct order {self.order}: {self.product!r}>"


def build_wreath(k: FiniteGroup, omega: FiniteGSet,
                 size_cap: Optional[int] = None,
                 dense_cap: Optional[int] = None) -> WreathProduct:
    """Complete wreath product K wr_Omega H for H = omega.group."""
    return WreathProduct(k, omega, size_cap=size_cap, dense_cap=dense_cap)


def regular_wreath(k: FiniteGroup, h: FiniteGroup,
                   size_cap: Optional[int] = None,
                   dense_cap: Optional[int] = None) -> WreathProduct:
    """Regular wreath product K wr_r H (Omega = H under left multiplication)."""
    return build_wreath(k, regular_action(h), size_cap=size_cap, dense_cap=dense_cap)
