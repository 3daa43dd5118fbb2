"""Independent group oracles, shared by the test modules.

Each oracle computes its answer by a route the package does not take: plain
loops over a family's documented enumeration, all-pairs saturation, the
defining formula of the wreath product, or the former sweeps that faster
routines replaced.  None of them is called by ``src``.
"""

import itertools
from fractions import Fraction

import numpy as np

from wreathlab import FiniteGroup, GroupHom, Section
from wreathlab.groups import closure


def identity_hom(g):
    """The identity map of g, unchecked: every index to itself."""
    return GroupHom(g, g, np.arange(g.order), validate=False)


def rational_value(x):
    """The value of a multiquadratic element with no irrational coordinate."""
    assert not any(x.nums[1:]), f"{x} is not rational"
    return Fraction(x.nums[0], x.den)


def brute_closure(g, gens):
    """Independent closure oracle: saturate products with plain sets."""
    elems = {g.identity} | set(gens)
    while True:
        new = {g.mul(a, b) for a in elems for b in elems}
        if new <= elems:
            return elems
        elems |= new


def bfs_closure(g, gens):
    """Second closure oracle, for orders where the all-pairs saturation of
    ``brute_closure`` is too slow: the former breadth-first closure, one array
    product of each level by every generator."""
    gens = np.array(list(gens), dtype=np.int64)
    level, seen = [g.identity], {g.identity}
    while level:
        step = g.mul_array(np.array(level)[:, None], gens).ravel().tolist()
        level = [y for y in dict.fromkeys(step) if y not in seen]
        seen.update(level)
    return seen


def generator_sets(g, rng):
    """The group's generators, then a few random single elements, pairs and triples."""
    sets = [g.generators()]
    for size in (1, 1, 2, 2, 3):
        sets.append([rng.randrange(g.order) for _ in range(size)])
    return sets


def element_order(g, x):
    """The least k >= 1 with x^k = e, on any group: a structural product has no
    ``element_orders`` table."""
    return next(k for k in itertools.count(1) if g.power(x, k) == g.identity)


def check_presentation_d4(g, x, y):
    """x^4 = y^2 = e, y x y^-1 = x^-1, and <x, y> is all of g."""
    e = g.identity
    if g.power(x, 4) != e or g.power(y, 2) != e:
        return False
    if g.mul(g.mul(y, x), g.inv(y)) != g.inv(x):
        return False
    return len(closure(g, [x, y])) == g.order


def first_failing_pair(hom):
    """The row-major first pair breaking the hom law, by a plain loop."""
    dom, cod = hom.domain, hom.codomain
    for a in range(dom.order):
        for b in range(dom.order):
            if hom(dom.mul(a, b)) != cod.mul(hom(a), hom(b)):
                return (a, b)
    return None


def normal_core_sweep(g, members):
    """The members m of H with x^-1 m x in H for every x in g, ascending: the
    former ``normal_core``, one row of |H| conjugates per element of g."""
    members = np.array(sorted(members), dtype=np.int64)
    in_h = np.zeros(g.order, dtype=bool)
    in_h[members] = True
    x = np.arange(g.order)[:, None]
    conj = g.mul_array(g.mul_array(g.inv_array(x), members), x)
    return members[in_h[conj].all(axis=0)].tolist()


def class_sweep(g):
    """The conjugacy classes keyed by least element, as ``conjugacy_classes`` gives
    them: the former per-class loop, one gather of the table by each element
    not yet classed."""
    t = g.table
    least = np.full(g.order, -1)
    for x in range(g.order):
        if least.item(x) < 0:  # x is the least element of a class not yet seen
            least[t[t[:, x], g.inverses]] = x
    classes = {}
    for x, rep in enumerate(least.tolist()):
        classes.setdefault(rep, []).append(x)
    return classes


def member_coset_partition(g, members):
    """(coset of each element, least member of each coset) of the left cosets x M
    of the member list M: the former ``coset_partition``, one ``mul_array`` of
    M per coset, over a Python list of |G| entries."""
    members = np.asarray(members, dtype=np.int64)
    coset_of, reps = [-1] * g.order, []
    for x in range(g.order):
        if coset_of[x] < 0:
            for y in g.mul_array(x, members).tolist():
                coset_of[y] = len(reps)
            reps.append(x)
    return np.array(coset_of, dtype=np.int64), np.array(reps, dtype=np.int64)


# -- sections -------------------------------------------------------------------------


def fibers(eps):
    """The preimages of each point of eps's codomain, ascending, by a plain loop."""
    out = [[] for _ in range(eps.codomain.order)]
    for x in range(eps.domain.order):
        out[eps(x)].append(x)
    return out


def all_sections(eps):
    """Every right inverse of eps, in the order of ``itertools.product`` over the fibers."""
    for combo in itertools.product(*fibers(eps)):
        yield Section(eps.codomain, eps.domain, np.array(combo, dtype=np.int64))


def random_section(eps, rng):
    """One preimage per point, drawn by ``rng.choice`` in point order: the kk
    suite's draws."""
    choice = [rng.choice(fiber) for fiber in fibers(eps)]
    return Section(eps.codomain, eps.domain, np.array(choice, dtype=np.int64))


# -- loop-built oracles of the named families ------------------------------------
#
# Each oracle fills the table one entry at a time from the family's documented
# enumeration and returns (table, identity, labels, point_maps, name).


def loop_cyclic(n):
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    return table, 0, [str(k) for k in range(n)], None, f"C:{n}"


def loop_dihedral(n):
    size = 2 * n
    table = [[0] * size for _ in range(size)]
    for a in range(n):
        for b in range(2):
            for c in range(n):
                for d in range(2):
                    exp = (a + (c if b == 0 else -c)) % n
                    table[2 * a + b][2 * c + d] = 2 * exp + ((b + d) % 2)
    labels = []
    for a in range(n):
        for b in range(2):
            rot = "" if a == 0 else ("r" if a == 1 else f"r{a}")
            ref = "s" if b else ""
            labels.append((rot + ref) or "e")
    return table, 0, labels, None, f"D:{n}"


def loop_perm_group(perms, name):
    index = {p: i for i, p in enumerate(perms)}
    table = [[index[tuple(p[q[x]] for x in range(len(p)))] for q in perms] for p in perms]
    labels = ["".join(str(x + 1) for x in p) for p in perms]
    return table, index[tuple(range(len(perms[0])))], labels, perms, name


def loop_is_even(p):
    inversions = sum(1 for i in range(len(p)) for j in range(i + 1, len(p)) if p[i] > p[j])
    return inversions % 2 == 0


def loop_affine(p):
    pairs = [(a, b) for a in range(1, p) for b in range(p)]
    index = {ab: i for i, ab in enumerate(pairs)}
    table = [[index[((a * c) % p, (a * d + b) % p)] for c, d in pairs] for a, b in pairs]
    labels = [f"{a}t+{b}" for a, b in pairs]
    maps = [tuple((a * t + b) % p for t in range(p)) for a, b in pairs]
    return table, 0, labels, maps, f"AGL:{p}"


def loop_klein():
    table = [[i ^ j for j in range(4)] for i in range(4)]
    return table, 0, ["e", "a", "b", "ab"], None, "V4"


def loop_quaternion():
    units = "1ijk"
    prod = {
        ("1", "1"): (1, "1"), ("1", "i"): (1, "i"), ("1", "j"): (1, "j"), ("1", "k"): (1, "k"),
        ("i", "1"): (1, "i"), ("i", "i"): (-1, "1"), ("i", "j"): (1, "k"), ("i", "k"): (-1, "j"),
        ("j", "1"): (1, "j"), ("j", "i"): (-1, "k"), ("j", "j"): (-1, "1"), ("j", "k"): (1, "i"),
        ("k", "1"): (1, "k"), ("k", "i"): (1, "j"), ("k", "j"): (-1, "i"), ("k", "k"): (-1, "1"),
    }
    table = [[0] * 8 for _ in range(8)]
    for i in range(8):
        for j in range(8):
            sw, w = prod[(units[i // 2], units[j // 2])]
            sign = (-1 if i % 2 else 1) * (-1 if j % 2 else 1) * sw
            table[i][j] = 2 * units.index(w) + (0 if sign == 1 else 1)
    return table, 0, ["1", "-1", "i", "-i", "j", "-j", "k", "-k"], None, "Q8"


def loop_oracle(spec):
    if spec == "Q8":
        return loop_quaternion()
    if spec == "V4":
        return loop_klein()
    family, _, arg = spec.partition(":")
    n = int(arg)
    return {
        "C": lambda: loop_cyclic(n),
        "D": lambda: loop_dihedral(n),
        "S": lambda: loop_perm_group(list(itertools.permutations(range(n))), spec),
        "A": lambda: loop_perm_group([p for p in itertools.permutations(range(n))
                                      if loop_is_even(p)], spec),
        "AGL": lambda: loop_affine(n),
    }[family]()


def loop_group(spec, perm=None):
    """The group of ``loop_oracle(spec)`` through the user-table path, its
    element i renumbered as perm[i] by a loop when a permutation is given."""
    table, identity, labels, maps, name = loop_oracle(spec)
    if perm is None:
        return FiniteGroup(table, identity=identity, labels=labels, name=name, point_maps=maps)
    moved = [[0] * len(table) for _ in table]
    for i, row in enumerate(table):
        for j, cell in enumerate(row):
            moved[perm[i]][perm[j]] = perm[cell]
    return FiniteGroup(moved, identity=perm[identity])


# -- renumbered tables --------------------------------------------------------------


def renumbered(g, perm):
    """g with its element i renamed perm[i], through the user-table path: the
    table goes through ``tolist()``, so it is converted and validated as a
    table from outside the package; labels are the new indices."""
    perm = np.asarray(perm, dtype=np.int64)
    table = np.empty((g.order, g.order), dtype=np.int64)
    table[np.ix_(perm, perm)] = perm[g.table]
    return FiniteGroup(table.tolist(), identity=int(perm[g.identity]))


def relabeled(g, rng):
    """g with its elements renumbered by a permutation that rng draws."""
    return renumbered(g, rng.sample(range(g.order), g.order))


# -- wreath products ------------------------------------------------------------------


def brute_wreath_mul(w, x, y):
    """Independent product oracle straight from the defining formula."""
    f1, h1 = w.decode(x)
    f2, h2 = w.decode(y)
    k, hgrp, om = w.base_group, w.top.group, w.top
    twisted = [f2[om.act[hgrp.inv(h1), j]] for j in range(om.size)]
    prod = [k.mul(a, b) for a, b in zip(f1, twisted)]
    return w.encode(prod, hgrp.mul(h1, h2))


def wreath_label(w, x):
    """The label format: decode, then join the base labels and the top label."""
    f, h = w.decode(x)
    return "(" + ",".join(w.base_group.label(d) for d in f) + "; " + w.top.group.label(h) + ")"


class WreathOracle:
    """A wreath product's identity, products and labels, one element at a time
    from the defining formula: the reference of a product that has no table."""

    point_maps = None

    def __init__(self, w):
        self.w, self.order = w, w.order
        self.identity = w.encode([w.base_group.identity] * w.n_points, w.top.group.identity)

    def mul(self, x, y):
        return brute_wreath_mul(self.w, x, y)

    def label(self, x):
        return wreath_label(self.w, x)
