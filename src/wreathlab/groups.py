"""Finite groups as explicit multiplication tables with 0-based element indices.

Every group carries a full ``order x order`` table (``table[i][j]`` is the
index of ``g_i * g_j``), an identity index, an inverse table and optional
display labels.  Validation is exact at every order and checks laws on generators
(Light's test for associativity).  Named families fix a documented enumeration
so all derived objects (subgroups, quotients, wreath products) are bit-reproducible:

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
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import (
    GroupValidationError,
    NonNormalSubgroupError,
    NotSurjectiveError,
    SectionMismatchError,
    SizeLimitError,
)

DIRECT_PRODUCT_CAP = 10**7


class Group:
    """The element protocol every group representation honours.

    A group has ``order``, ``identity`` and ``name``; scalar ``mul`` and
    ``inv``; ``mul_array``, the product broadcast over index arrays; ``label``;
    and ``generators()``, on which hom laws are checked.  ``FiniteGroup`` stores
    its Cayley table, while ``wreath.WreathGroup`` computes products from the
    wreath formula.
    """

    def power(self, x: int, k: int) -> int:
        if k < 0:
            return self.power(self.inv(x), -k)
        acc = self.identity
        for _ in range(k):
            acc = self.mul(acc, x)
        return acc

    def element_order(self, x: int) -> int:
        if not 0 <= x < self.order:
            raise IndexError(f"element index {x} out of range")
        cur, k = x, 1
        while cur != self.identity:
            cur = self.mul(cur, x)
            k += 1
        return k


class FiniteGroup(Group):
    """A finite group given by a closed multiplication table, validated exactly.

    ``_certify=False`` skips only ``generators()``, for formula-built tables.
    """

    def __init__(
        self,
        table,
        identity: int = 0,
        labels: Optional[Sequence[str]] = None,
        name: Optional[str] = None,
        point_maps: Optional[Sequence[tuple]] = None,
        _certify: bool = True,
    ):
        table = np.asarray(table, dtype=np.int32)
        if table.ndim != 2 or table.shape[0] != table.shape[1]:
            raise GroupValidationError(f"table must be square, got shape {table.shape}")
        self.order = int(table.shape[0])
        self.identity = int(identity)
        self.table = table
        self.labels = [str(x) for x in labels] if labels is not None else [str(i) for i in range(self.order)]
        if len(self.labels) != self.order:
            raise GroupValidationError("labels length does not match group order")
        self.name = name
        # one-line point data for permutation-like families (S:n, A:n, AGL:p)
        self.point_maps = list(point_maps) if point_maps is not None else None
        self._orders: Optional[np.ndarray] = None
        self._generators: Optional[list[int]] = None
        self._validate()
        self.inverses = self._compute_inverses()
        self.table.setflags(write=False)
        self.inverses.setflags(write=False)
        if _certify:
            self.generators()

    # -- element operations ------------------------------------------------

    def mul(self, a: int, b: int) -> int:
        return int(self.table[a, b])

    def inv(self, a: int) -> int:
        return int(self.inverses[a])

    def mul_array(self, a, b) -> np.ndarray:
        return self.table[a, b]

    def label(self, x: int) -> str:
        return self.labels[x]

    def label_index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise KeyError(f"no element labeled {label!r}") from None

    def elements(self) -> range:
        return range(self.order)

    # -- cached structure --------------------------------------------------

    @property
    def is_abelian(self) -> bool:
        return bool((self.table == self.table.T).all())

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
        mask = (self.table == self.table.T).all(axis=1)
        return [int(i) for i in np.nonzero(mask)[0]]

    def conjugate(self, y: int, x: int) -> int:
        """y x y^-1."""
        return int(self.table[self.table[y, x], self.inverses[y]])

    def __repr__(self) -> str:
        name = self.name or "FiniteGroup"
        return f"<{name} of order {self.order}>"

    # -- validation ----------------------------------------------------------

    def _validate(self) -> None:
        n, e, t = self.order, self.identity, self.table
        if n <= 0:
            raise GroupValidationError("group order must be positive")
        if not 0 <= e < n:
            raise GroupValidationError(f"identity index {e} out of range")
        if t.min() < 0 or t.max() >= n:
            bad = np.argwhere((t < 0) | (t >= n))[0]
            raise GroupValidationError(f"table not closed: entry at {tuple(int(v) for v in bad)} out of range")
        if not (t[e] == np.arange(n)).all():
            j = int(np.nonzero(t[e] != np.arange(n))[0][0])
            raise GroupValidationError(f"identity row fails: e*g{j} != g{j}")
        if not (t[:, e] == np.arange(n)).all():
            i = int(np.nonzero(t[:, e] != np.arange(n))[0][0])
            raise GroupValidationError(f"identity column fails: g{i}*e != g{i}")

    def _compute_inverses(self) -> np.ndarray:
        hits = self.table == self.identity
        if not (hits.sum(axis=1) == 1).all():
            i = int(np.nonzero(hits.sum(axis=1) != 1)[0][0])
            raise GroupValidationError(f"element g{i} has no unique inverse")
        inv = hits.argmax(axis=1).astype(np.int32)
        both = self.table[inv, np.arange(self.order)] == self.identity
        if not both.all():
            i = int(np.nonzero(~both)[0][0])
            raise GroupValidationError(f"left/right inverse mismatch at g{i}")
        return inv

    def generators(self) -> list[int]:
        """Greedy generators by ascending index, each first passing Light's test
        (x s) y = x (s y) for all x, y, which proves associativity once they generate."""
        if self._generators is None:
            t, gens, known = self.table, [], {self.identity}
            for s in range(self.order):
                if s in known:
                    continue
                bad = t[t[:, s]] != t[:, t[s]]
                if bad.any():
                    x, y = divmod(int(bad.argmax()), self.order)
                    raise GroupValidationError(f"associativity fails at (a,b,c)=({x},{s},{y})")
                gens.append(s)
                known = set(closure(self, gens))
            self._generators = gens
        return self._generators


class GroupHom:
    """A total map between finite groups, recorded element-by-element."""

    def __init__(self, domain, codomain, image, validate: bool = True):
        self.domain = domain
        self.codomain = codomain
        self.image = np.asarray(image, dtype=np.int64)
        self.image.setflags(write=False)
        if len(self.image) != domain.order:
            raise GroupValidationError("hom image length does not match domain order")
        if self.image.min() < 0 or self.image.max() >= codomain.order:
            raise GroupValidationError("hom image entry out of codomain range")
        if int(self.image[domain.identity]) != codomain.identity:
            raise GroupValidationError("hom does not send identity to identity")
        if validate:  # phi(x s) = phi(x) phi(s) for every x and generator s proves the law
            img, x = self.image, np.arange(domain.order)[:, None]
            s = np.array(domain.generators(), dtype=np.int64)
            bad = img[domain.mul_array(x, s)] != codomain.mul_array(img[x], img[s])
            if bad.any():
                a, i = divmod(int(bad.argmax()), bad.shape[1])
                raise GroupValidationError(f"hom law fails at pair {(a, int(s[i]))}")

    def __call__(self, a: int) -> int:
        return int(self.image[a])

    def find_hom_counterexample(self):
        """First (a, b) with phi(ab) != phi(a)phi(b) over all pairs, row-major, or None."""
        img, a = self.image, np.arange(self.domain.order)[:, None]
        bad = img[self.domain.mul_array(a, a.T)] != self.codomain.mul_array(img[a], img[a.T])
        return divmod(int(bad.argmax()), bad.shape[1]) if bad.any() else None

    def is_homomorphism(self) -> bool:
        return self.find_hom_counterexample() is None

    def is_injective(self) -> bool:
        return len(np.unique(self.image)) == self.domain.order

    def is_surjective(self) -> bool:
        return len(np.unique(self.image)) == self.codomain.order

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


def identity_hom(g: FiniteGroup) -> GroupHom:
    return GroupHom(g, g, np.arange(g.order), validate=False)


class Section:
    """A right inverse of a surjection: one chosen preimage per target point.

    ``domain`` is either the quotient group Q or a coset Omega-set; ``choice``
    holds G-element indices.  A section is not required to be a homomorphism.
    """

    def __init__(self, domain, to: FiniteGroup, choice):
        self.domain = domain
        self.to = to
        self.choice = np.asarray(choice, dtype=np.int64)
        self.choice.setflags(write=False)

    def __call__(self, q: int) -> int:
        return int(self.choice[q])

    def __len__(self) -> int:
        return len(self.choice)


# -- named families ---------------------------------------------------------


def _cyclic(n: int) -> FiniteGroup:
    idx = np.arange(n)
    table = (idx[:, None] + idx[None, :]) % n
    return FiniteGroup(table, labels=[str(k) for k in range(n)], name=f"C:{n}")


def _dihedral(n: int) -> FiniteGroup:
    size = 2 * n
    table = np.empty((size, size), dtype=np.int32)
    for a in range(n):
        for b in range(2):
            for c in range(n):
                for d in range(2):
                    exp = (a + (c if b == 0 else -c)) % n
                    table[2 * a + b, 2 * c + d] = 2 * exp + ((b + d) % 2)
    labels = []
    for a in range(n):
        for b in range(2):
            rot = "" if a == 0 else ("r" if a == 1 else f"r{a}")
            ref = "s" if b else ""
            labels.append((rot + ref) or "e")
    return FiniteGroup(table, labels=labels, name=f"D:{n}")


def _perm_group(perms: list[tuple], name: str) -> FiniteGroup:
    index = {p: i for i, p in enumerate(perms)}
    size = len(perms)
    table = np.empty((size, size), dtype=np.int32)
    for i, p in enumerate(perms):
        for j, q in enumerate(perms):
            table[i, j] = index[tuple(p[q[x]] for x in range(len(p)))]
    labels = ["".join(str(x + 1) for x in p) for p in perms]
    return FiniteGroup(table, identity=index[tuple(range(len(perms[0])))],
                       labels=labels, name=name, point_maps=perms)


def _is_even(p: tuple) -> bool:
    inversions = sum(1 for i in range(len(p)) for j in range(i + 1, len(p)) if p[i] > p[j])
    return inversions % 2 == 0


def _symmetric(n: int) -> FiniteGroup:
    return _perm_group(list(itertools.permutations(range(n))), f"S:{n}")


def _alternating(n: int) -> FiniteGroup:
    perms = [p for p in itertools.permutations(range(n)) if _is_even(p)]
    return _perm_group(perms, f"A:{n}")


def _affine(p: int) -> FiniteGroup:
    pairs = [(a, b) for a in range(1, p) for b in range(p)]
    index = {ab: i for i, ab in enumerate(pairs)}
    size = len(pairs)
    table = np.empty((size, size), dtype=np.int32)
    for i, (a, b) in enumerate(pairs):
        for j, (c, d) in enumerate(pairs):
            table[i, j] = index[((a * c) % p, (a * d + b) % p)]
    labels = [f"{a}t+{b}" for a, b in pairs]
    maps = [tuple((a * t + b) % p for t in range(p)) for a, b in pairs]
    return FiniteGroup(table, labels=labels, name=f"AGL:{p}", point_maps=maps)


def _klein() -> FiniteGroup:
    idx = np.arange(4)
    table = idx[:, None] ^ idx[None, :]
    return FiniteGroup(table, labels=["e", "a", "b", "ab"], name="V4")


_Q8_UNITS = "1ijk"


def _quaternion() -> FiniteGroup:
    # unit products with sign: (u, v) -> (sign, w)
    prod = {
        ("1", "1"): (1, "1"), ("1", "i"): (1, "i"), ("1", "j"): (1, "j"), ("1", "k"): (1, "k"),
        ("i", "1"): (1, "i"), ("i", "i"): (-1, "1"), ("i", "j"): (1, "k"), ("i", "k"): (-1, "j"),
        ("j", "1"): (1, "j"), ("j", "i"): (-1, "k"), ("j", "j"): (-1, "1"), ("j", "k"): (1, "i"),
        ("k", "1"): (1, "k"), ("k", "i"): (1, "j"), ("k", "j"): (-1, "i"), ("k", "k"): (-1, "1"),
    }
    table = np.empty((8, 8), dtype=np.int32)
    for i in range(8):
        for j in range(8):
            u, su = _Q8_UNITS[i // 2], -1 if i % 2 else 1
            v, sv = _Q8_UNITS[j // 2], -1 if j % 2 else 1
            sw, w = prod[(u, v)]
            sign = su * sv * sw
            table[i, j] = 2 * _Q8_UNITS.index(w) + (0 if sign == 1 else 1)
    labels = ["1", "-1", "i", "-i", "j", "-j", "k", "-k"]
    return FiniteGroup(table, labels=labels, name="Q8")


_PRIMES_AGL = {2, 3, 5, 7}


def construct_named(spec: str) -> FiniteGroup:
    """Build a named family member from a spec string like ``C:4`` or ``AGL:3``."""
    s = spec.strip()
    if s == "V4":
        return _klein()
    if s == "Q8":
        return _quaternion()
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
        return _cyclic(n)
    if family == "D":
        if n < 2:
            raise ValueError("D:n requires n >= 2")
        return _dihedral(n)
    if family == "S":
        if not 1 <= n <= 6:
            raise ValueError("S:n supported for 1 <= n <= 6 (table size bound)")
        return _symmetric(n)
    if family == "A":
        if not 2 <= n <= 6:
            raise ValueError("A:n supported for 2 <= n <= 6")
        return _alternating(n)
    if family == "AGL":
        if n not in _PRIMES_AGL:
            raise ValueError("AGL:p supported for primes p <= 7")
        return _affine(n)
    raise ValueError(f"unknown group spec {spec!r}")


# -- constructions ------------------------------------------------------------


def direct_product(a: FiniteGroup, b: FiniteGroup, max_order: int = DIRECT_PRODUCT_CAP) -> FiniteGroup:
    """Componentwise product on pairs, a-index major."""
    order = a.order * b.order
    if order > max_order:
        raise SizeLimitError(f"direct product order {order} exceeds cap {max_order}", order)
    nb = b.order
    ia = np.arange(a.order)
    ib = np.arange(nb)
    # table[(i1*nb+i2),(j1*nb+j2)] = a.table[i1,j1]*nb + b.table[i2,j2]
    ta = np.kron(a.table.astype(np.int64), np.ones((nb, nb), dtype=np.int64)) * nb
    tb = np.tile(b.table.astype(np.int64), (a.order, a.order))
    labels = [f"({a.labels[i]},{b.labels[j]})" for i in ia for j in ib]
    name = f"{a.name or 'G'} x {b.name or 'H'}"
    return FiniteGroup(ta + tb, labels=labels, name=name)


def subgroup_from_elements(g: FiniteGroup, elems: Iterable[int], name: Optional[str] = None):
    """Subgroup on a closed element set, indexed by ascending parent index."""
    members = sorted(set(int(x) for x in elems))
    if members and not 0 <= members[0] <= members[-1] < g.order:
        raise GroupValidationError("element index out of the group's range")
    pos = np.full(g.order, -1, dtype=np.int32)
    pos[members] = np.arange(len(members))
    table = pos[g.table[np.ix_(members, members)]]
    if (table < 0).any():
        i, j = divmod(int((table < 0).argmax()), len(members))
        raise GroupValidationError(
            f"element set not closed: g{members[i]}*g{members[j]} escapes")
    labels = [g.labels[x] for x in members]
    maps = [g.point_maps[x] for x in members] if g.point_maps is not None else None
    sub = FiniteGroup(table, identity=int(pos[g.identity]), labels=labels,
                      name=name or f"subgroup({len(members)}) of {g.name}", point_maps=maps)
    incl = GroupHom(sub, g, np.array(members, dtype=np.int64))
    return sub, incl


def closure(g: Group, gens: Iterable[int]) -> list[int]:
    """Elements of the subgroup generated by ``gens``, ascending; one array product per BFS level."""
    gens = np.array([int(x) for x in gens], dtype=np.int64)
    seen = {g.identity}
    level = [g.identity]
    while level:
        step = g.mul_array(np.array(level)[:, None], gens).ravel().tolist()
        level = [y for y in dict.fromkeys(step) if y not in seen]
        seen.update(level)
    return sorted(seen)


def subgroup_generated(g: FiniteGroup, gens: Iterable[int]):
    """Closure of ``gens`` under multiplication, as (subgroup, inclusion)."""
    return subgroup_from_elements(g, closure(g, gens))


def center_subgroup(g: FiniteGroup):
    return subgroup_from_elements(g, g.center_indices(), name=f"Z({g.name})")


def normal_core(g: FiniteGroup, h: GroupHom):
    """Largest normal subgroup of g inside image(h): intersection of conjugates."""
    members = np.array(sorted(h.image_set()), dtype=np.int64)
    in_h = np.zeros(g.order, dtype=bool)
    in_h[members] = True
    # m is in the core iff x^-1 m x lies in H for every x; row x holds those conjugates
    x = np.arange(g.order)[:, None]
    conj = g.table[g.table[g.inverses[x], members], x]
    core = members[in_h[conj].all(axis=0)]
    return subgroup_from_elements(g, core, name=f"core of {h.domain.name} in {g.name}")


def coset_partition(g: Group, members) -> tuple[np.ndarray, np.ndarray]:
    """Left cosets x*M of the element set ``members``.

    Returns the coset index of every element and the minimal element of each
    coset; cosets are numbered by ascending minimal element.
    """
    members = np.asarray(members, dtype=np.int64)
    coset_of = np.full(g.order, -1, dtype=np.int64)
    reps: list[int] = []
    for x in range(g.order):
        if coset_of[x] < 0:
            coset_of[g.mul_array(x, members)] = len(reps)
            reps.append(x)
    return coset_of, np.array(reps, dtype=np.int64)


def quotient(g: FiniteGroup, n: GroupHom):
    """Coset group g/image(n) with its projection; representatives are minimal."""
    members = np.array(sorted(n.image_set()), dtype=np.int64)
    # row x of each side is the coset xN, resp. Nx, as a sorted set
    bad = (np.sort(g.table[:, members], axis=1) != np.sort(g.table[members].T, axis=1)).any(axis=1)
    if bad.any():
        raise NonNormalSubgroupError(f"gN != Ng at g index {int(bad.argmax())}")
    coset_of, reps = coset_partition(g, members)
    table = coset_of[g.table[reps[:, None], reps[None, :]]]
    labels = [f"[{g.labels[r]}]" for r in reps]
    q = FiniteGroup(table, identity=int(coset_of[g.identity]), labels=labels,
                    name=f"{g.name}/{n.domain.name}")
    proj = GroupHom(g, q, coset_of)
    return q, proj


def check_presentation_d4(g: Group, x: int, y: int) -> bool:
    """x^4 = y^2 = e, y x y^-1 = x^-1, and <x, y> is all of g."""
    e = g.identity
    if g.power(x, 4) != e or g.power(y, 2) != e:
        return False
    if g.mul(g.mul(y, x), g.inv(y)) != g.inv(x):
        return False
    return len(closure(g, [x, y])) == g.order


# -- section helpers ----------------------------------------------------------


def default_section(eps: GroupHom, overrides: Optional[dict[int, int]] = None) -> Section:
    """Minimal-index preimage per target, with the identity mapped to identity.

    ``overrides`` maps codomain indices to chosen preimages (checked).
    """
    if not eps.is_surjective():
        raise NotSurjectiveError("section requested for a non-surjective map")
    q = eps.codomain
    # eps is onto, so the first occurrences are the minimal preimages of 0..|Q|-1
    choice = np.unique(eps.image, return_index=True)[1].astype(np.int64)
    choice[q.identity] = eps.domain.identity
    if overrides:
        for t, x in overrides.items():
            if int(eps.image[x]) != t:
                raise SectionMismatchError(f"override {x} is not a preimage of {t}")
            choice[t] = x
    return Section(q, eps.domain, choice)


# -- JSON exchange ------------------------------------------------------------


def group_to_json(g: FiniteGroup) -> dict:
    """Exchange dict with keys in the documented order."""
    return {
        "order": g.order,
        "identity": g.identity,
        "labels": list(g.labels),
        "table": [[int(v) for v in row] for row in g.table],
    }


def group_from_json(data: dict) -> FiniteGroup:
    for key in ("order", "identity", "table"):
        if key not in data:
            raise GroupValidationError(f"group JSON missing key {key!r}")
    g = FiniteGroup(data["table"], identity=data["identity"], labels=data.get("labels"))
    if g.order != int(data["order"]):
        raise GroupValidationError("declared order does not match table size")
    return g


def save_group(g: FiniteGroup, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(group_to_json(g), fh)
        fh.write("\n")


def load_group(path) -> FiniteGroup:
    with open(path, "r", encoding="utf-8") as fh:
        return group_from_json(json.load(fh))
