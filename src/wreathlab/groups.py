"""Finite groups as explicit multiplication tables with 0-based element indices.

Every group carries a full ``order x order`` table (``table[i][j]`` is the
index of ``g_i * g_j``), an identity index, an inverse table and optional
display labels.  Every integer handed to the package (tables, action cells,
hom images, sections, elements, wreath digits) is read by ``_int64_rows``,
which refuses a bool, float, str or None; ``_indices`` range-checks element indices.
Validation is exact at every order: a table from outside the package (a
direct ``FiniteGroup`` call, ``group_from_json`` or ``load_group``) passes
the range, identity and inverse checks and is proved associative by Light's
test on each greedy generator.  Both Light's test and the inverse check
compare the table in row blocks of about ``SWEEP_CHUNK`` cells, so
validation needs O(``SWEEP_CHUNK``) memory beside the table.

Tables the package builds are groups by construction: the named families
below are formulas, and ``direct_product``, ``subgroup_from_elements`` and
``quotient`` derive theirs from groups already certified.  Each passes one
keyword, ``_inverses``, the inverses its construction knows in O(order), and
that alone marks it trusted: it skips all four table scans (range, identity,
inverses and Light's test) and picks the same ascending greedy generators on
first use, without Light's test.  Tests run the user-table path on each of
them instead and compare generators and inverses.

Subgroups are closed by Dimino's coset method (G. Butler, *Fundamental
Algorithms for Permutation Groups*, LNCS 559, 1991): ``closure`` builds a
generator's powers by doubling, one ``mul_array`` per doubling, and extends
the subgroup so far by whole right cosets, one ``mul_array`` per batch of new
cosets, not one per element or per breadth-first level.

Conjugacy classes and cosets are orbits of generator permutations, found by one
routine, ``_orbits`` (Holt, Eick and O'Brien, *Handbook of Computational Group
Theory*, 2005, section 4.1): classes under x -> s x s^-1 over G's generators s,
the cosets of H under x -> x t over any generating set of H, which
``coset_partition`` takes.

Named families fix a documented enumeration so all derived objects (subgroups,
quotients, wreath products) are bit-reproducible; each table is one array
expression in the element coordinates below.  One size rule, ``_budget``, refuses
a named, product, subgroup, quotient, wreath, theta, transport or Galois table
past ``BYTE_BUDGET`` (64 MiB, the int32 table of order 4096) before allocating it.
``named_orders`` gives a spec's order and centre order without building it:

* ``C:n``    -- residues 0..n-1, index = exponent.
* ``D:n``    -- elements r^a s^b, index = 2a + b (a major), order 2n.
* ``S:n``    -- one-line permutations of {0..n-1} in lexicographic order.
* ``A:n``    -- even permutations in lexicographic order.
* ``AGL:p``  -- affine maps t -> a t + b on F_p, index = (a-1) p + b.
* ``V4``     -- Klein four-group, index = XOR bitmask.
* ``Q8``     -- quaternions 1,-1,i,-i,j,-j,k,-k in that order.
"""

from __future__ import annotations

import itertools
import json
import math
import time
from array import array
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .errors import (
    GroupFormatError,
    GroupValidationError,
    NonNormalSubgroupError,
    NotSurjectiveError,
    SectionMismatchError,
    SizeLimitError,
)

# the most bytes one table the package builds may take: the int32 table of order 4096
BYTE_BUDGET = 4 * 4096**2
# cells per block of every first-failure sweep and of the inverse check, so their
# memory stays O(chunk) at every order
SWEEP_CHUNK = 2**16


def _budget(nbytes: int, what: str, order: int) -> None:
    """Refuse an array of ``nbytes`` past ``BYTE_BUDGET``, before it is allocated, with
    ``SizeLimitError`` carrying ``order``, the order of the group it is for."""
    if nbytes > BYTE_BUDGET:
        raise SizeLimitError(f"{what} of order {order} exceeds the byte budget {BYTE_BUDGET}", order)


def _rows_per_block(order: int) -> int:
    """Rows of ``order`` cells in a block of about ``SWEEP_CHUNK`` cells."""
    return max(1, SWEEP_CHUNK // order)


def _first_failure(law: Callable[[int, int], np.ndarray], rows: int, width: int) -> Optional[int]:
    """The flat index row * width + cell of the row-major first failure of a law
    on rows 0..rows-1, or None.  ``law(a, b)`` is True where rows a..b-1 fail; it
    runs on blocks of ``_rows_per_block(width)`` rows, so memory is O(SWEEP_CHUNK)."""
    step = _rows_per_block(width)
    for a in range(0, rows, step):
        bad = law(a, min(a + step, rows))
        if bad.any():
            return a * width + int(bad.argmax())
    return None


def _count_distinct(values: np.ndarray):
    """The number of distinct values along the last axis, by one sort: an int for
    one row, an array of counts for stacked rows.  ``np.unique`` would import numpy.ma."""
    v = np.sort(values, axis=-1)
    new = v[..., 1:] != v[..., :-1]
    if v.ndim == 1:
        return int(np.count_nonzero(new)) + (v.size > 0)
    return np.count_nonzero(new, axis=-1) + (v.shape[-1] > 0)


def _orbits(perms: np.ndarray) -> np.ndarray:
    """Each point's orbit label, the least point of its orbit, under the group that
    the rows of ``perms``, the (k, n) point images of k permutations, generate.

    A round gives each point the least label among its own, its images' and its
    preimages', each label the least of its points', and then labels jump to
    their labels' until they settle.  Labels fall and stay in their orbit, so
    once every permutation keeps them they are constant on orbits: the least
    points.  Memory is a few (2k, n) int64 arrays.
    """
    k, n = perms.shape
    moves = np.empty((2 * k, n), dtype=np.int64)
    moves[:k] = perms
    moves[np.arange(k, 2 * k)[:, None], perms] = np.arange(n)  # row k + i inverts row i
    least = np.arange(n, dtype=np.int64)
    while True:
        new = np.minimum(least[moves].min(axis=0, initial=n), least)
        np.minimum.at(new, least, new)
        while (new[new] != new).any():
            new = new[new]
        if (new[perms] == new).all():
            return new
        least = new


def _int64_rows(table, error: type[Exception], what: str = "table") -> np.ndarray:
    """The one reader of the integers handed to the package: ``table`` as int64
    rows, or ``error``.  An array of an integer dtype is returned as it is;
    other rows go, in one pass, through ``array('q').fromlist``, which takes a
    Python or numpy int and refuses a float, str, None or list cell and a value
    past int64.  It reads a bool as 0 or 1, so the type of each cell of value 0
    or 1 (two per row of a group table) is read and a bool refused.  Ragged
    rows are refused; an empty table stays 1-D, as ``np.asarray`` makes it."""
    if isinstance(table, np.ndarray) and table.dtype.kind in "iu":
        return table
    cells, rows = array("q"), []
    try:
        for row in table:
            row = row if type(row) is list else list(row)
            if rows and len(row) != len(rows[0]):
                raise error(f"{what} rows differ in length: {len(rows[0])} and {len(row)}")
            cells.fromlist(row)
            rows.append(row)
    except (TypeError, OverflowError) as exc:
        raise error(f"{what} must be int64 integers: {exc}") from None
    if not rows:
        return np.empty(0, dtype=np.int64)
    flat, width = np.frombuffer(cells, dtype=np.int64), len(rows[0])
    for k in np.flatnonzero(flat.view(np.uint64) <= 1).tolist():  # a 1-D scan: 2-D costs 3x
        i, j = divmod(k, width)
        if type(rows[i][j]) is bool:
            raise error(f"{what} must be int64 integers: cell ({i}, {j}) is a bool")
    return flat.reshape(len(rows), width)


def _int64_indices(values, error: type[Exception], what: str = "indices") -> np.ndarray:
    """Indices as one int64 row, read by ``_int64_rows``: refusals raise ``error``,
    as does an array that is not one row (stacked rows are several sections)."""
    out = _int64_rows(values[None] if isinstance(values, np.ndarray) else [values], error, what)[0]
    if out.ndim != 1:
        raise error(f"{what} must be one row, got shape {out.shape}")
    return out.astype(np.int64, copy=False)


def _indices(values, order: int, error: type[Exception], what: str) -> np.ndarray:
    """A row of element indices of a group of ``order``, read by ``_int64_indices`` (a
    refusal raises ``error``); one outside 0..order-1 raises ``GroupValidationError``."""
    x = _int64_indices(values, error, what)
    bad = x.view(np.uint64) >= order  # a negative index reads as past 2^63
    if bad.any():
        raise GroupValidationError(f"{what} {int(x[bad][0])} out of range 0..{order - 1}")
    return x


def _index(x, order: int, error: type[Exception], what: str) -> int:
    """One index, checked as ``_indices`` checks a row; an int in range reads no array."""
    if (type(x) is int or isinstance(x, np.integer)) and 0 <= x < order:
        return int(x)
    return _indices([x], order, error, what).item()


class Group:
    """The element protocol every group representation honours.

    A group has ``order``, ``identity`` and ``name``; ``mul``/``mul_array`` and
    ``inv``/``inv_array`` on one index or broadcast over index arrays;
    ``label``/``label_index``, and ``labels`` on a row of indices;
    ``generators()``, on which hom laws are checked; and ``point_maps`` or None;
    ``power`` is built on them.  Constructions read groups through these only.
    ``FiniteGroup`` stores its Cayley table, which one keyword, ``_inverses``,
    marks as package-built and so trusted without scans.  ``wreath.WreathGroup``
    computes products from the wreath formula, adds the array codec
    (``encode_array``, ``decode_array``) and builds its table on request (``dense``).
    """

    point_maps = None

    def power(self, x: int, k: int) -> int:
        """x^k by square and multiply, in O(log |k|) products."""
        if k < 0:
            x, k = self.inv(x), -k
        acc = self.identity
        while k:
            if k & 1:
                acc = self.mul(acc, x)
            x, k = self.mul(x, x), k >> 1
        return acc


class FiniteGroup(Group):
    """A finite group given by a closed multiplication table, validated exactly.

    ``identity`` must be a Python or numpy integer.  One keyword marks a table
    the package builds: ``_inverses``, its inverse of each index.  Such a table
    skips the range, identity-row and inverse scans and Light's test; only its
    shape, dtype, positive order and identity index are checked, and it picks
    its generators on first use of ``generators()``, not at construction.
    ``tests/test_certificates.py`` proves each construction by its
    ``certify_from_scratch``, which builds the same table through the user path
    and compares generators and inverses.  Only beside ``_inverses``,
    ``_generators`` gives generators other than the greedy ones
    (``WreathGroup.dense`` passes the product's), and ``_label_source``, in
    place of ``labels``, gives the labels on their first read; without either
    they are the indices.
    """

    def __init__(
        self,
        table,
        identity: int = 0,
        labels: Optional[Sequence[str]] = None,
        name: Optional[str] = None,
        point_maps: Optional[Sequence[tuple]] = None,
        _generators: Optional[list[int]] = None,
        _label_source: Optional[Callable[[], list[str]]] = None,
        _inverses: Optional[np.ndarray] = None,
    ):
        if isinstance(identity, bool) or not isinstance(identity, (int, np.integer)):
            raise GroupFormatError(f"identity must be an integer, got {identity!r}")
        table = _int64_rows(table, GroupFormatError)
        if table.ndim != 2 or table.shape[0] != table.shape[1]:
            raise GroupFormatError(f"table must be square, got shape {table.shape}")
        self.order = int(table.shape[0])
        if self.order <= 0:
            raise GroupValidationError("group order must be positive")
        # closure is checked before the int32 cast, which would wrap an entry such as 2**40
        if _inverses is None and (table.min() < 0 or table.max() >= self.order):
            bad = np.argwhere((table < 0) | (table >= self.order))[0]
            raise GroupValidationError(
                f"table not closed: entry at {tuple(int(v) for v in bad)} out of range")
        self.table = table.astype(np.int32, copy=False)
        self._labels = [str(x) for x in labels] if labels is not None else None
        if self._labels is not None and len(self._labels) != self.order:
            raise GroupFormatError("labels length does not match group order")
        self._label_source = _label_source
        self.name = name
        # one-line point data for permutation-like families (S:n, A:n, AGL:p)
        self.point_maps = list(point_maps) if point_maps is not None else None
        self._orders: Optional[np.ndarray] = None
        self._center: Optional[list[int]] = None
        self._generators = _generators
        self.identity = _index(identity, self.order, GroupFormatError, "identity index")
        if _inverses is None:
            self._validate()
            self.inverses = self._compute_inverses()
            self._generators = _pick_generators(self, range(self.order), self._light_test)[0]
        else:
            self.inverses = _inverses.astype(np.int32, copy=False)
        self.table.setflags(write=False)
        self.inverses.setflags(write=False)

    # -- element operations ------------------------------------------------

    def mul(self, a: int, b: int) -> int:
        return self.table.item(_index(a, self.order, GroupFormatError, "element"),
                               _index(b, self.order, GroupFormatError, "element"))

    def inv(self, a: int) -> int:
        return self.inverses.item(_index(a, self.order, GroupFormatError, "element"))

    def mul_array(self, a, b) -> np.ndarray:
        return self.table[a, b]

    def inv_array(self, a) -> np.ndarray:
        return self.inverses[a]

    def _label_list(self) -> list[str]:
        """Display labels by index, made on first read where none were given."""
        if self._labels is None:
            source = self._label_source or (lambda: [str(i) for i in range(self.order)])
            self._labels = source()
        return self._labels

    def labels(self, indices) -> list[str]:
        """The label of each index of a row, read by ``_indices``."""
        every = self._label_list()
        return [every[x] for x in _indices(indices, self.order, GroupFormatError, "element").tolist()]

    def label(self, x: int) -> str:
        return self._label_list()[_index(x, self.order, GroupFormatError, "element")]

    def label_index(self, label: str) -> int:
        try:
            return self._label_list().index(label)
        except ValueError:
            raise KeyError(f"no element labeled {label!r}") from None

    # -- cached structure --------------------------------------------------

    def element_orders(self) -> np.ndarray:
        """Vector of element orders, computed once per group."""
        if self._orders is None:
            n = self.order
            orders = np.zeros(n, dtype=np.int64)
            cur = np.arange(n)
            k = 1
            while True:
                mask = (cur == self.identity) & (orders == 0)
                orders[mask] = k
                if orders.all():
                    break
                cur = self.table[cur, np.arange(n)]
                k += 1
            orders.setflags(write=False)
            self._orders = orders
        return self._orders

    def center_indices(self) -> list[int]:
        """The central elements, ascending, computed once per group."""
        if self._center is None:
            self._center = np.flatnonzero((self.table == self.table.T).all(axis=1)).tolist()
        return list(self._center)

    def __repr__(self) -> str:
        name = self.name or "FiniteGroup"
        return f"<{name} of order {self.order}>"

    # -- validation ----------------------------------------------------------

    def _validate(self) -> None:
        n, e, t = self.order, self.identity, self.table
        if not (t[e] == np.arange(n)).all():
            j = int(np.nonzero(t[e] != np.arange(n))[0][0])
            raise GroupValidationError(f"identity row fails: e*g{j} != g{j}")
        if not (t[:, e] == np.arange(n)).all():
            i = int(np.nonzero(t[:, e] != np.arange(n))[0][0])
            raise GroupValidationError(f"identity column fails: g{i}*e != g{i}")

    def _compute_inverses(self) -> np.ndarray:
        n, e, t = self.order, self.identity, self.table
        inv = np.empty(n, dtype=np.int32)
        step = _rows_per_block(n)
        for lo in range(0, n, step):
            hits = t[lo:lo + step] == e
            first = hits.argmax(axis=1)
            # every row holds e at its first hit, and there are as many hits as rows
            if np.count_nonzero(hits) != len(first) or not hits[np.arange(len(first)), first].all():
                i = int((hits.sum(axis=1) != 1).argmax())
                raise GroupValidationError(f"element g{lo + i} has no unique inverse")
            inv[lo:lo + step] = first
        both = t[inv, np.arange(n)] == e
        if not both.all():
            i = int(np.nonzero(~both)[0][0])
            raise GroupValidationError(f"left/right inverse mismatch at g{i}")
        return inv

    def _light_test(self, s: int) -> None:
        """Light's test for s: (x s) y = x (s y) for all x, y, in row blocks of x;
        raises at the row-major first failing (x, y)."""
        t, n = self.table, self.order
        xs, sy = t[:, s], t[s]
        bad = _first_failure(lambda a, b: t[xs[a:b]] != t[a:b].take(sy, axis=1), n, n)
        if bad is not None:
            x, y = divmod(bad, n)
            raise GroupValidationError(f"associativity fails at (a,b,c)=({x},{s},{y})")

    def generators(self) -> list[int]:
        """Greedy generators by ascending index.  A table from outside the package
        has them at construction, each first passing Light's test, which proves
        associativity once they generate; a table the package builds, associative
        by construction, picks them the same way on first use, without the test."""
        if self._generators is None:
            self._generators = _pick_generators(self, range(self.order))[0]
        return self._generators

    def conjugacy_classes(self) -> dict[int, list[int]]:
        """Each conjugacy class {y x y^-1} as its ascending members, keyed by its
        least element, in ascending order of the keys: the orbits of x -> s x s^-1
        over the generators s, one gather of the table per generator."""
        s = np.array(self.generators(), dtype=np.int64)[:, None]
        labels = _orbits(self.table[self.table[s, np.arange(self.order)], self.inverses[s]])
        classes: dict[int, list[int]] = {}
        for x, rep in enumerate(labels.tolist()):  # a class first appears at its least element
            classes.setdefault(rep, []).append(x)
        return classes


def _pick_generators(g: Group, candidates: Iterable[int],
                     check: Optional[Callable[[int], None]] = None
                     ) -> tuple[list[int], list[list[int]]]:
    """Greedy generators of g: each candidate not yet generated passes ``check``
    (which raises to refuse it) and is taken.  Returns the generators and, for
    each prefix of them, the ascending elements of the subgroup it generates."""
    gens, levels, known = [], [], {g.identity}
    for s in candidates:
        if len(known) == g.order:
            break
        if s in known:
            continue
        if check is not None:
            check(s)
        gens.append(s)
        levels.append(closure(g, gens, levels[-1] if levels else None))
        known = set(levels[-1])
    return gens, levels


class GroupHom:
    """A total map between finite groups, recorded element-by-element.

    With ``validate`` the hom law is certified by ``certify_hom`` and its
    ``Certificate`` kept as ``certificate``, so a later report reuses it;
    otherwise ``certificate`` is None.
    """

    def __init__(self, domain, codomain, image, validate: bool = True):
        self.domain = domain
        self.codomain = codomain
        self.image = _indices(image, codomain.order, GroupFormatError, "hom image")
        self.image.setflags(write=False)
        if len(self.image) != domain.order:
            raise GroupValidationError("hom image length does not match domain order")
        if int(self.image[domain.identity]) != codomain.identity:
            raise GroupValidationError("hom does not send identity to identity")
        self.certificate: Optional[Certificate] = None
        if validate:
            cert = certify_hom(self)
            if cert.counterexample is not None:
                raise GroupValidationError(f"hom law fails at pair {cert.counterexample}")
            self.certificate = cert

    def __call__(self, a: int) -> int:
        return self.image.item(_index(a, self.domain.order, GroupFormatError, "element"))

    def _fails(self, lo: int, hi: int, b: Optional[np.ndarray] = None) -> np.ndarray:
        """bad[a - lo, j] is phi(a b_j) != phi(a) phi(b_j), for the rows lo <= a < hi
        and the columns b, every element by default."""
        return _hom_law_fails(self.domain, self.codomain, self.image, lo, hi, b)

    def find_hom_counterexample(self):
        """First (a, b) with phi(ab) != phi(a)phi(b) over all pairs, row-major, or None."""
        bad = _first_failure(self._fails, self.domain.order, self.domain.order)
        return None if bad is None else divmod(bad, self.domain.order)

    def is_injective(self) -> bool:
        return _count_distinct(self.image) == self.domain.order

    def is_surjective(self) -> bool:
        return _count_distinct(self.image) == self.codomain.order

    def image_set(self) -> set[int]:
        return set(int(x) for x in self.image)

    def kernel_indices(self) -> list[int]:
        return [int(i) for i in np.nonzero(self.image == self.codomain.identity)[0]]

    def compose(self, inner: "GroupHom") -> "GroupHom":
        """self o inner."""
        return GroupHom(inner.domain, self.codomain, self.image[inner.image], validate=False)

    def inverse(self) -> "GroupHom":
        if not (self.is_injective() and self.is_surjective()):
            raise GroupValidationError("only bijective homs can be inverted")
        inv = np.empty(self.codomain.order, dtype=np.int64)
        inv[self.image] = np.arange(self.domain.order)
        return GroupHom(self.codomain, self.domain, inv, validate=False)

    def __repr__(self) -> str:
        return f"<GroupHom {self.domain!r} -> {self.codomain!r}>"


def _hom_law_fails(domain: Group, codomain: Group, img: np.ndarray, lo: int, hi: int,
                   b: Optional[np.ndarray] = None) -> np.ndarray:
    """bad[a - lo, j, ...] is phi(a b_j) != phi(a) phi(b_j) for the rows lo <= a < hi
    and the columns b, every element by default.  img holds phi's values, of shape
    (|domain|,), or of several maps side by side, (|domain|, m): trailing axes
    index and broadcast as one map does.  The one statement of the hom law."""
    a = np.arange(lo, hi)[:, None]
    b = np.arange(domain.order) if b is None else b
    return img[domain.mul_array(a, b)] != codomain.mul_array(img[a], img[b])


@dataclass(frozen=True)
class Certificate:
    """How a law was checked: method, number of checks, seconds taken, and its first
    failure or None: a hom law's first failing pair, the theta laws' message."""

    method: str
    checks: int
    elapsed_s: float
    counterexample: Optional[object]


def certify_hom(phi: GroupHom) -> Certificate:
    """The hom law of phi, certified by phi(x s) = phi(x) phi(s) for every x and every
    generator s of the domain, which gives it on all pairs.

    Only when that fails are the pairs swept row by row, up to the first failing
    row x0 of the generator check, so the counterexample is the one
    ``find_hom_counterexample`` reports.
    """
    start = time.perf_counter()
    n = phi.domain.order
    bad = phi._fails(0, n, np.array(phi.domain.generators(), dtype=np.int64))  # [x, i] at (x, s_i)
    checks, counterexample = bad.size, None
    if bad.any():  # sweep the rows up to the first failing one, for the first failing pair
        first = _first_failure(phi._fails, int(bad.any(axis=1).argmax()) + 1, n)
        counterexample, checks = divmod(first, n), checks + first + 1
    return Certificate("generator-certified", checks, time.perf_counter() - start,
                       counterexample)


class Section:
    """A right inverse of a surjection: one chosen preimage per target point.

    ``domain`` is either the quotient group Q or a coset Omega-set; ``choice``
    holds indices of ``to``, read by ``_indices``.  It need not be a homomorphism.
    """

    def __init__(self, domain, to: Group, choice):
        self.domain = domain
        self.to = to
        self.choice = _indices(choice, to.order, SectionMismatchError, "section")
        self.choice.setflags(write=False)

    def __call__(self, q: int) -> int:
        return self.choice.item(_index(q, len(self.choice), SectionMismatchError, "point"))


# -- named families ---------------------------------------------------------


def _cyclic(n: int) -> FiniteGroup:
    idx = np.arange(n, dtype=np.int32)
    # row i, (i + j) mod n, is the window i..i+n-1 of idx twice over: a view whose
    # strides are both one cell, copied once, so no division and one order^2 array
    twice = np.concatenate([idx, idx])
    table = np.ndarray((n, n), np.int32, buffer=twice, strides=(twice.itemsize,) * 2).copy()
    # the labels are the indices, made on first read
    return FiniteGroup(table, name=f"C:{n}", _inverses=-idx % n)


def _dihedral(n: int) -> FiniteGroup:
    idx = np.arange(2 * n, dtype=np.int32)
    a, b = idx // 2, idx % 2
    # r^a s^b r^c s^d = r^(a + (-1)^b c) s^(b + d), built in place in one order^2 array
    table = (1 - 2 * b[:, None]) * a[None, :]
    table += a[:, None]
    np.remainder(table, n, out=table)
    table *= 2
    table[0::2, 1::2] += 1  # s^(b + d) is s exactly when b != d
    table[1::2, 0::2] += 1
    rot = ["", "r"] + [f"r{k}" for k in range(2, n)]
    labels = [(r + s) or "e" for r in rot for s in ("", "s")]
    # a reflection r^a s is its own inverse; r^a goes to r^-a
    inverses = np.where(b == 1, idx, 2 * (-a % n))
    return FiniteGroup(table, labels=labels, name=f"D:{n}", _inverses=inverses)


def _perm_group(n: int, even_only: bool) -> FiniteGroup:
    """S:n, or A:n by inversion parity, on one-line permutations in lexicographic order.

    Row i has the ascending key sum_x p_i(x) n^(n-1-x).  The key of p_i o p_j is
    summed one (size, size) gather per point x, in uint16 since every key is
    below n^n <= 6^6 < 2^16, and a lookup array of n^n entries maps it to its rank.
    """
    perms = np.array(list(itertools.permutations(range(n))), dtype=np.uint16)
    if even_only:
        i, j = np.triu_indices(n, 1)
        perms = perms[(perms[:, i] > perms[:, j]).sum(axis=1) % 2 == 0]
    radix = (n ** np.arange(n - 1, -1, -1)).astype(np.uint16)
    composed = np.zeros((len(perms), len(perms)), dtype=np.uint16)
    for x in range(n):
        # [i, j] = p_i(p_j(x)) n^(n-1-x)
        composed += np.take(perms * radix[x], perms[:, x], axis=1)
    rank = np.zeros(n**n, dtype=np.int32)
    rank[perms @ radix.astype(np.int64)] = np.arange(len(perms), dtype=np.int32)
    maps = [tuple(p) for p in perms.tolist()]
    labels = ["".join(str(x + 1) for x in p) for p in maps]
    # argsort of a one-line permutation is its inverse
    return FiniteGroup(rank[composed], labels=labels, name=f"{'A' if even_only else 'S'}:{n}",
                       point_maps=maps, _inverses=rank[np.argsort(perms, axis=1) @ radix])


def _affine(p: int) -> FiniteGroup:
    idx = np.arange(p * (p - 1), dtype=np.int32)
    a, b = idx // p + 1, idx % p
    # (a t + b) o (c t + d) = a c t + (a d + b)
    table = ((a[:, None] * a[None, :]) % p - 1) * p + (a[:, None] * b[None, :] + b[:, None]) % p
    pairs = list(zip(a.tolist(), b.tolist()))
    labels = [f"{x}t+{y}" for x, y in pairs]
    maps = [tuple((x * t + y) % p for t in range(p)) for x, y in pairs]
    # (a t + b)^-1 = a^-1 t - a^-1 b, with a^-1 = a^(p-2) by Fermat
    a_inv = a ** (p - 2) % p
    return FiniteGroup(table, labels=labels, name=f"AGL:{p}", point_maps=maps,
                       _inverses=(a_inv - 1) * p + (-a_inv * b) % p)


def _klein() -> FiniteGroup:
    idx = np.arange(4)
    table = idx[:, None] ^ idx[None, :]
    return FiniteGroup(table, labels=["e", "a", "b", "ab"], name="V4", _inverses=idx)


def _quaternion() -> FiniteGroup:
    idx = np.arange(8)
    u, sign = idx[:, None] // 2, idx[:, None] % 2  # unit 1, i, j, k and sign bit
    # units multiply by XOR (ij = k, jk = i, ki = j); neg[u, v] is the sign bit of u v
    neg = np.array([[0, 0, 0, 0], [0, 1, 0, 1], [0, 1, 1, 0], [0, 0, 1, 1]])
    table = 2 * (u ^ u.T) + (sign ^ sign.T ^ neg[u, u.T])
    # +-1 are their own inverses; the inverse of +-i, +-j, +-k flips its sign
    return FiniteGroup(table, labels=["1", "-1", "i", "-i", "j", "-j", "k", "-k"], name="Q8",
                       _inverses=idx ^ (idx >= 2))


_PRIMES_AGL = {2, 3, 5, 7}


def _parse_named(spec: str) -> tuple[str, int]:
    """(family, n) of a spec string such as ``C:4`` or ``AGL:3`` (n is 0 for V4
    and Q8), refused exactly as ``construct_named`` refuses it: a table past the
    byte budget raises ``SizeLimitError``."""
    s = spec.strip()
    if s in ("V4", "Q8"):
        return s, 0
    if ":" not in s:
        raise ValueError(f"unknown group spec {spec!r}")
    family, _, arg = s.partition(":")
    try:
        n = int(arg)
    except ValueError:
        raise ValueError(f"bad parameter in group spec {spec!r}") from None
    if family == "C":
        if n < 1:
            raise ValueError("C:n requires n >= 1")
        _budget(4 * n**2, f"{s} table", n)
    elif family == "D":
        if n < 2:
            raise ValueError("D:n requires n >= 2")
        _budget(4 * (2 * n)**2, f"{s} table", 2 * n)
    elif family == "S":
        if not 1 <= n <= 6:
            raise ValueError("S:n supported for 1 <= n <= 6 (table size bound)")
    elif family == "A":
        if not 2 <= n <= 6:
            raise ValueError("A:n supported for 2 <= n <= 6")
    elif family == "AGL":
        if n not in _PRIMES_AGL:
            raise ValueError("AGL:p supported for primes p <= 7")
    else:
        raise ValueError(f"unknown group spec {spec!r}")
    return family, n


def construct_named(spec: str) -> FiniteGroup:
    """Build a named family member from a spec string like ``C:4`` or ``AGL:3``;
    a table past the byte budget raises ``SizeLimitError`` before any allocation."""
    family, n = _parse_named(spec)
    if family == "V4":
        return _klein()
    if family == "Q8":
        return _quaternion()
    if family in ("S", "A"):
        return _perm_group(n, even_only=family == "A")
    return {"C": _cyclic, "D": _dihedral, "AGL": _affine}[family](n)


def named_orders(spec: str) -> tuple[int, int]:
    """(|G|, |Z(G)|) of the group ``construct_named(spec)`` builds, from the spec
    alone, so a caller can refuse an oversized construction before building G."""
    family, n = _parse_named(spec)
    if family in ("S", "A"):
        order = math.factorial(n) // (2 if family == "A" else 1)
    else:
        order = {"V4": 4, "Q8": 8, "C": n, "D": 2 * n, "AGL": n * (n - 1)}[family]
    if family == "C" or order <= 4:  # every named group of order at most 4 is abelian
        return order, order
    if family == "D":  # r^(n/2) is the one central rotation, when n is even
        return order, 2 - n % 2
    return order, 2 if family == "Q8" else 1  # S:n, A:n and AGL:p past order 4: Z(G) = 1


# -- constructions ------------------------------------------------------------


def direct_product(a: Group, b: Group) -> FiniteGroup:
    """Componentwise product on pairs, a-index major, of any two groups; labels are made
    on first read.  A table past the byte budget raises ``SizeLimitError`` before any allocation."""
    order, nb = a.order * b.order, b.order
    _budget(4 * order**2, "direct product table", order)
    ia, ib = np.arange(a.order), np.arange(nb)
    ta, tb = (g.mul_array(i[:, None], i).astype(np.int32, copy=False) for g, i in ((a, ia), (b, ib)))
    # table[(i1*nb+i2),(j1*nb+j2)] = ta[i1,j1]*nb + tb[i2,j2]: one int32 order^2 array
    table = (ta[:, None, :, None] * nb + tb[None, :, None, :]).reshape(order, order)
    return FiniteGroup(table, identity=a.identity * nb + b.identity,
                       name=f"{a.name or 'G'} x {b.name or 'H'}",
                       _label_source=lambda: [f"({x},{y})" for x in a.labels(ia) for y in b.labels(ib)],
                       _inverses=(a.inv_array(ia)[:, None] * nb + b.inv_array(ib)[None, :]).ravel())


def subgroup_from_elements(g: Group, elems: Iterable[int], name: Optional[str] = None):
    """Subgroup on a closed element set, indexed by ascending parent index.

    ``elems`` is read by ``_indices`` (a refusal raises ``GroupFormatError``).  All of G gives
    G and its identity hom.  Otherwise products are found among the members by binary search,
    so nothing of size |G| is allocated: a subgroup of a structural product of any order is cheap.
    The int32 table is written in row blocks, so the only |H|^2 array is the table.
    """
    members = np.array(sorted(set(_indices(elems, g.order, GroupFormatError, "element").tolist())),
                       dtype=np.int64)
    n = len(members)
    if n == g.order:
        return g, GroupHom(g, g, members)
    _budget(4 * n**2, "subgroup table", n)
    table = np.empty((n, n), dtype=np.int32)

    def escapes(a: int, b: int) -> np.ndarray:  # writes rows a..b-1 of the table
        products = g.mul_array(members[a:b, None], members)
        table[a:b] = np.searchsorted(members, products)
        return members.take(table[a:b], mode="clip") != products

    bad = _first_failure(escapes, n, n)
    if bad is not None:
        i, j = divmod(bad, n)
        raise GroupValidationError(f"element set not closed: g{members[i]}*g{members[j]} escapes")
    maps = [g.point_maps[x] for x in members.tolist()] if g.point_maps is not None else None
    # a closed non-empty subset of a finite group holds the identity and every inverse
    sub = FiniteGroup(table, identity=int(np.searchsorted(members, g.identity)),
                      labels=g.labels(members),
                      name=name or f"subgroup({n}) of {g.name}", point_maps=maps,
                      _inverses=np.searchsorted(members, g.inv_array(members)))
    return sub, GroupHom(sub, g, members)


def closure(g: Group, gens: Iterable[int], start: Optional[Iterable[int]] = None) -> list[int]:
    """Elements of the subgroup generated by ``gens``, ascending, by Dimino's coset method.

    Each generator s not yet reached extends the subgroup H generated so far
    to a union of right cosets H y.  A representative y not yet reached brings
    its powers y, ..., y^(k-1) up to the first y^k already reached; they come
    by doubling (with P the first m powers, P y^m are the next m, one
    ``mul_array`` each) and represent k - 1 new cosets, all found by one more
    ``mul_array`` of H by them.  The representatives start from s; each round
    multiplies the new ones by every generator, in one ``mul_array``, until
    no product is new.  Membership is a Python set, and only ``mul``,
    ``mul_array`` and ``identity`` are used, so a structural product is
    closed without a table.

    ``start``, if given, is the subgroup generated by all of ``gens`` but the
    last, and only the last generator extends it.
    """
    gens = [_index(x, g.order, GroupFormatError, "generator") for x in gens]
    if start is None:
        seen, used, todo = {g.identity}, [], gens
    else:
        seen, used, todo = set(start), gens[:-1], gens[-1:]
    for s in todo:
        if s in seen:
            continue
        used.append(s)
        block = np.fromiter(seen, dtype=np.int64, count=len(seen))  # H
        candidates = [s]
        while candidates:
            reps = []
            for y in candidates:
                if y not in seen:
                    powers = _powers_outside(g, y, seen)
                    seen.update(g.mul_array(block[:, None], np.array(powers)).ravel().tolist())
                    reps += powers
            if not reps or len(used) == 1:  # the powers of a lone generator are closed under it
                break
            candidates = g.mul_array(np.array(reps)[:, None], np.array(used)).ravel().tolist()
    return sorted(seen)


def _powers_outside(g: Group, y: int, seen: set) -> list[int]:
    """y, y^2, ..., y^(k-1) for the least k > 1 with y^k in ``seen``, which holds
    the identity and not y, by doubling: with P the first m powers and t = y^m,
    P t are the next m and t t the next t, all in one ``mul_array``."""
    powers, t = [g.identity, y], int(g.mul_array(y, y))
    while t not in seen:
        *step, t = g.mul_array(np.array(powers + [t]), t).tolist()
        for i, z in enumerate(step):
            if z in seen:
                return powers[1:] + step[:i]
        powers += step
    return powers[1:]


def subgroup_generated(g: Group, gens: Iterable[int]):
    """Closure of ``gens`` under multiplication, as (subgroup, inclusion); ``gens``
    is refused as ``subgroup_from_elements`` refuses its elements."""
    gens = _indices(gens, g.order, GroupFormatError, "generator")
    return subgroup_from_elements(g, closure(g, gens.tolist()))


def center_subgroup(g: FiniteGroup):
    return subgroup_from_elements(g, g.center_indices(), name=f"Z({g.name})")


def normal_core(g: Group, h: GroupHom):
    """Largest normal subgroup of g in H = image(h): the fixed point of K <- {k in K : s^-1 k s
    in K for every generator s of g} from K = H.  Each step keeps every normal subgroup in H."""
    core, gens = (np.array(v, dtype=np.int64) for v in (sorted(h.image_set()), g.generators()))
    while True:
        conj = g.mul_array(g.mul_array(g.inv_array(gens)[:, None], core), gens[:, None])
        kept = core[(core.take(np.searchsorted(core, conj), mode="clip") == conj).all(axis=0)]
        if len(kept) == len(core):
            return subgroup_from_elements(g, core, name=f"core of {h.domain.name} in {g.name}")
        core = kept


def coset_partition(g: Group, gens) -> tuple[np.ndarray, np.ndarray]:
    """Left cosets xH of the subgroup H that ``gens`` (read by ``_int64_rows``)
    generates, as the orbits of x -> x t over t in ``gens``: one row of |G|
    images per t.  An irredundant list has at most log2 |G| members, each at
    least doubling the subgroup, so a longer one (a member list of H, say) is
    first reduced to greedy generators.

    Returns the coset index of every element and the minimal element of each
    coset; cosets are numbered by ascending minimal element.
    """
    gens = _indices(gens, g.order, GroupFormatError, "generator")
    if len(gens) > g.order.bit_length():
        gens = np.array(_pick_generators(g, gens.tolist())[0], dtype=np.int64)
    least = _orbits(g.mul_array(np.arange(g.order), gens[:, None]))
    reps = np.flatnonzero(least == np.arange(g.order))
    return np.searchsorted(reps, least), reps


def quotient(g: Group, n: GroupHom):
    """Coset group g/image(n) with its projection; representatives are minimal.
    N is normal when t r lies in rN for each generator t of N and ascending
    representative r (then r^-1 N r = N, and so x^-1 N x = N on rN); the first
    representative that fails is the least failing x."""
    gens = n.image[n.domain.generators()]
    coset_of, reps = coset_partition(g, gens)
    bad = (coset_of[g.mul_array(gens[:, None], reps)] != np.arange(len(reps))).any(axis=0)
    if bad.any():
        raise NonNormalSubgroupError(f"gN != Ng at g index {reps[bad.argmax()]}")
    q = _coset_group(g, coset_of, reps, f"{g.name}/{n.domain.name}")
    return q, GroupHom(g, q, coset_of)


def _coset_group(g: Group, coset_of: np.ndarray, reps: np.ndarray, name: str) -> FiniteGroup:
    """The group of the cosets of a normal subgroup, given as ``coset_partition`` gives them."""
    _budget(4 * len(reps)**2, "quotient table", len(reps))
    table = coset_of.astype(np.int32)[g.mul_array(reps[:, None], reps)]
    labels = [f"[{x}]" for x in g.labels(reps)]
    return FiniteGroup(table, identity=int(coset_of[g.identity]), labels=labels, name=name,
                       _inverses=coset_of[g.inv_array(reps)])


# -- section helpers ----------------------------------------------------------


def default_section(eps: GroupHom, overrides: Optional[dict[int, int]] = None) -> Section:
    """Minimal-index preimage per target, with the identity mapped to identity.

    ``overrides`` maps codomain indices to chosen preimages, read by
    ``_int64_rows`` and checked: a refusal raises ``SectionMismatchError``.
    """
    if not eps.is_surjective():
        raise NotSurjectiveError("section requested for a non-surjective map")
    q = eps.codomain
    # eps is onto, so every target's least preimage is below |G|
    choice = np.full(q.order, eps.domain.order, dtype=np.int64)
    np.minimum.at(choice, eps.image, np.arange(eps.domain.order))
    choice[q.identity] = eps.domain.identity
    if overrides:
        t, x = _int64_rows([[*overrides], [*overrides.values()]], SectionMismatchError, "overrides")
        bad = (x < 0) | (x >= eps.domain.order) | (eps.image.take(x, mode="clip") != t)
        if bad.any():
            raise SectionMismatchError(f"override {x[bad][0]} is not a preimage of {t[bad][0]}")
        choice[t] = x
    return Section(q, eps.domain, choice)


# -- JSON exchange ------------------------------------------------------------


def group_to_json(g: Group) -> dict:
    """Exchange dict with keys in the documented order, its table read by ``mul_array``
    in row blocks; a table past the byte budget raises ``SizeLimitError`` first."""
    n = g.order
    _budget(4 * n**2, "group JSON table", n)
    every, step = np.arange(n), _rows_per_block(n)
    data = {"order": n, "identity": g.identity, "labels": g.labels(every), "table": [None] * n}
    for lo in range(0, n, step):
        data["table"][lo:lo + step] = g.mul_array(every[lo:lo + step, None], every).tolist()
    return data


def _exchange_fields(data, kind: str, keys: tuple, integers: tuple, labels: str, error: type):
    """``data[labels]``, after checking that data is an object with ``keys``, each of
    ``integers`` an int and the labels absent or strings; else ``error``."""
    if not isinstance(data, dict):
        raise error(f"{kind} JSON must be an object")
    for key in keys:
        if key not in data:
            raise error(f"{kind} JSON missing key {key!r}")
    for key in integers:
        if type(data[key]) is not int:  # refuses bool, float and str as well
            raise error(f"{kind} JSON {key!r} must be an integer, got {data[key]!r}")
    text = data.get(labels)
    if text is not None and not (isinstance(text, list) and all(isinstance(x, str) for x in text)):
        raise error(f"{kind} JSON {labels} must be a list of strings")
    return text


def group_from_json(data: dict) -> FiniteGroup:
    """The group of an exchange dict.  ``order`` and ``identity`` must be ints,
    ``labels``, if present, a list of strings and ``table`` a square integer
    array; data that is not raises ``GroupFormatError``, a table that is not a
    group ``GroupValidationError``."""
    labels = _exchange_fields(data, "group", ("order", "identity", "table"), ("order", "identity"),
                              "labels", GroupFormatError)
    g = FiniteGroup(data["table"], identity=data["identity"], labels=labels)
    if g.order != data["order"]:
        raise GroupFormatError("declared order does not match table size")
    return g


def _write_json_line(data: dict, path) -> None:
    """Write ``data`` as one line of JSON, encoded whole: faster than ``json.dump``, same bytes."""
    text = json.dumps(data)
    with open(path, "w", encoding="utf-8") as fh:
        print(text, file=fh)


def save_group(g: Group, path) -> None:
    """Write ``group_to_json(g)`` as one line of JSON."""
    _write_json_line(group_to_json(g), path)


def _read_integer_json(path, error: type[Exception] = GroupFormatError):
    """The JSON value of a file in which every number is an integer: a float such
    as 0.5 or 1.0, NaN or Infinity raises ``error`` at parse time, as does text
    that is not JSON."""
    def refuse(token: str):
        raise error(f"JSON number {token} is not an integer")

    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh, parse_float=refuse, parse_constant=refuse)
        except json.JSONDecodeError as exc:
            raise error(f"{path} is not JSON: {exc}") from None


def load_group(path) -> FiniteGroup:
    """The group of an exchange file, read by ``_read_integer_json``: a
    non-integer JSON number raises ``GroupFormatError``."""
    return group_from_json(_read_integer_json(path))
