"""Isomorphism and embedding search by generator-image backtracking.

The search picks generators of the domain greedily, highest element order
first, and gives each an image of the same order, pruned by the orders of its
products with the generators already mapped.  It extends each assignment over
the generated subgroup with full edge consistency (img[x*s] == img[x]*img[s]
for every already-mapped x and every generator s), which certifies the
homomorphism law on the subgroup.  Budget exhaustion raises, so it is never
confused with a negative answer.  Groups are read only through ``mul_array``,
``element_orders()`` and ``conjugacy_classes()``, never through a table.

Each generator's column of the domain is read once, by one ``mul_array``.
The codomain is read only through ``mul_array`` too, with no scalar product
per edge: an extension walks the breadth-first queue one frontier at a time,
and the images of a frontier's edges come from one ``mul_array``.

The search state is held in Python containers: the partial map ``img`` is a
list and the used codomain elements a bytearray, so extending a map reads no
numpy scalar per edge; the candidate filter reads the bytearray through a
zero-copy numpy bool view.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Optional

import numpy as np

from .errors import SearchBudgetExceededError
from .groups import FiniteGroup, GroupHom, _pick_generators, construct_named, direct_product

DEFAULT_NODE_BUDGET = 10**7


def order_profile(g: FiniteGroup) -> Counter:
    """How many elements g has of each order."""
    counts = np.bincount(g.element_orders()).tolist()
    return Counter({k: c for k, c in enumerate(counts) if c})


class _Search:
    def __init__(self, a: FiniteGroup, b: FiniteGroup, budget: int):
        self.a = a
        self.b = b
        self.budget = budget
        self.nodes = 0
        self.a_orders = a.element_orders()
        self.b_orders = b.element_orders()
        # highest order first, ties by ascending index
        ranked = np.argsort(-self.a_orders, kind="stable").tolist()
        self.gens, self.levels = _pick_generators(a, ranked)
        # cols[i][x] = x * gens[i], each generator's column of a read once
        self.cols = a.mul_array(np.arange(a.order)[:, None], self.gens).T.tolist()
        self.img = [-1] * a.order
        self.used = bytearray(b.order)
        self.used_view = np.frombuffer(self.used, dtype=bool)
        self.img[a.identity] = b.identity
        self.used[b.identity] = True

    def run(self) -> Optional[list[int]]:
        if not self.gens:
            return list(self.img)
        if self._dfs(0, [self.a.identity]):
            return list(self.img)
        return None

    def _candidates(self, level: int) -> list[int]:
        """Unused elements of b of the new generator's order; the first
        generator goes only to class representatives, as conjugation moves
        any embedding to one that does."""
        g_new = self.gens[level]
        pool = np.flatnonzero(self.b_orders == self.a_orders[g_new])
        if level == 0:
            reps = self.b.conjugacy_classes()
            return [h for h in pool.tolist() if h in reps]
        pool = pool[~self.used_view[pool]]
        # ord(g_j g_new) must equal ord(img(g_j) h) for every mapped generator g_j
        for gj in self.gens[:level]:
            want = self.a_orders[self.cols[level][gj]]
            pool = pool[self.b_orders[self.b.mul_array(self.img[gj], pool)] == want]
        return pool.tolist()

    def _dfs(self, level: int, mapped: list[int]) -> bool:
        g_new = self.gens[level]
        for h in self._candidates(level):
            if self.used[h]:
                continue
            added = self._extend(level, mapped, g_new, h)
            if added is None:
                continue
            if level + 1 == len(self.gens):
                return True
            if self._dfs(level + 1, self.levels[level]):
                return True
            self._undo(added)
        return False

    def _undo(self, added: list[int]) -> None:
        for y in added:
            self.used[self.img[y]] = False
            self.img[y] = -1

    def _extend(self, level: int, mapped: list[int], g_new: int, h: int):
        """Map the generated subgroup; None (with rollback) on any conflict.

        The edges x -> x s are examined in breadth-first order, x in the queue
        and s among the generators so far, one frontier of the queue at a
        time: the images img[x] img[s] of a frontier's edges come from one
        ``mul_array`` of b, and each edge counts one node of the budget."""
        img, used, budget = self.img, self.used, self.budget
        cols = self.cols[: level + 1]
        img_gens = np.array([img[g] for g in self.gens[:level]] + [h], dtype=np.int64)
        added = [g_new]
        img[g_new] = h
        used[h] = True
        frontier, nodes = list(mapped) + [g_new], self.nodes
        while frontier:
            found = []
            targets = self.b.mul_array(np.array([img[x] for x in frontier])[:, None], img_gens)
            for x, iys in zip(frontier, targets.tolist()):
                for col, iy in zip(cols, iys):
                    nodes += 1
                    if nodes > budget:
                        self.nodes = nodes
                        self._undo(added)
                        raise SearchBudgetExceededError(
                            f"embedding search exceeded {budget} nodes")
                    y = col[x]
                    j = img[y]
                    if j < 0 and not used[iy]:
                        img[y] = iy
                        used[iy] = True
                        added.append(y)
                        found.append(y)
                    elif j != iy:
                        self.nodes = nodes
                        self._undo(added)
                        return None
            frontier = found
        self.nodes = nodes
        return added


def embeds_into(a: FiniteGroup, b: FiniteGroup) -> Optional[GroupHom]:
    """An injective hom a -> b if one exists; None otherwise.

    Exhausting ``DEFAULT_NODE_BUDGET`` raises SearchBudgetExceededError instead of answering.
    """
    if b.order % a.order != 0:
        return None
    ca, cb = order_profile(a), order_profile(b)
    if any(ca[k] > cb.get(k, 0) for k in ca):
        return None
    img = _Search(a, b, DEFAULT_NODE_BUDGET).run()
    if img is None:
        return None
    return GroupHom(a, b, img)


def are_isomorphic(a: FiniteGroup, b: FiniteGroup) -> Optional[GroupHom]:
    """An isomorphism a -> b found by invariant screening plus backtracking."""
    if a.order != b.order:
        return None
    # at equal orders this also screens commutativity: a group is abelian when |Z| = |G|
    if len(a.center_indices()) != len(b.center_indices()):
        return None
    if order_profile(a) != order_profile(b):
        return None
    return embeds_into(a, b)


# -- small-group identification ------------------------------------------------

_IDENTIFY_LIMIT = 64


def _single_specs(order: int) -> list[str]:
    # aliases are suppressed so every order has one preferred name:
    # S:1, S:2, A:2, A:3, D:2 collapse onto C:1, C:2, C:3, C:2 x C:2
    out = [f"C:{order}"]
    for n in (3, 4):
        if math.factorial(n) == order:
            out.append(f"S:{n}")
    for n in (4, 5):
        if math.factorial(n) // 2 == order:
            out.append(f"A:{n}")
    if order % 2 == 0 and order // 2 >= 3:
        out.append(f"D:{order // 2}")
    if order == 8:
        out.append("Q8")
    return out


def _atoms() -> list[tuple[str, int]]:
    atoms = [(f"C:{n}", n) for n in range(2, _IDENTIFY_LIMIT // 2 + 1)]
    atoms += [("S:3", 6), ("S:4", 24), ("A:4", 12)]
    atoms += [(f"D:{n}", 2 * n) for n in range(3, _IDENTIFY_LIMIT // 4 + 1)]
    atoms += [("Q8", 8)]
    return atoms


def _product_specs(order: int) -> list[tuple[str, ...]]:
    atoms = _atoms()
    results: list[tuple[str, ...]] = []

    def rec(start: int, remaining: int, chosen: tuple[str, ...]):
        if remaining == 1:
            if len(chosen) >= 2:
                results.append(chosen)
            return
        for idx in range(start, len(atoms)):
            name, k = atoms[idx]
            if remaining % k == 0:
                rec(idx, remaining // k, chosen + (name,))

    rec(0, order, ())
    results.sort(key=lambda t: (len(t), t))
    return results


def _build_product(specs: tuple[str, ...]) -> FiniteGroup:
    g = construct_named(specs[0])
    for spec in specs[1:]:
        g = direct_product(g, construct_named(spec))
    return g


def identify_small(g: FiniteGroup) -> str:
    """Catalog name of g (named families and their direct products) or a stub."""
    if g.order > _IDENTIFY_LIMIT:
        raise ValueError(f"identify_small supports order <= {_IDENTIFY_LIMIT}, got {g.order}")
    for spec in _single_specs(g.order):
        try:
            cand = construct_named(spec)
        except ValueError:
            continue
        if are_isomorphic(g, cand) is not None:
            return spec
    for specs in _product_specs(g.order):
        if are_isomorphic(g, _build_product(specs)) is not None:
            return " × ".join(specs)
    return f"unidentified(order={g.order})"
