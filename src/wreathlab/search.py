"""Isomorphism and embedding search by generator-image backtracking.

The search assigns images to a small generating chain, pruned by element
orders and short word checks, and extends each assignment over the generated
subgroup with full edge consistency (img[x*s] == img[x]*img[s] for every
already-mapped x and every generator s), which certifies the homomorphism law
on the subgroup.  Budget exhaustion raises, so it is never confused with a
negative answer.
"""

from __future__ import annotations

from collections import Counter
from typing import Optional

import numpy as np

from .errors import SearchBudgetExceededError
from .groups import FiniteGroup, GroupHom, closure, construct_named, direct_product

DEFAULT_NODE_BUDGET = 10**7


def order_profile(g: FiniteGroup) -> Counter:
    return Counter(int(v) for v in g.element_orders())


def conjugacy_class_reps(g: FiniteGroup) -> list[int]:
    seen = np.zeros(g.order, dtype=bool)
    inv = g.inverses
    reps = []
    idx = np.arange(g.order)
    for x in range(g.order):
        if seen[x]:
            continue
        reps.append(x)
        cls = g.table[g.table[idx, x], inv[idx]]
        seen[cls] = True
    return reps


def generating_chain(g: FiniteGroup) -> list[int]:
    """Small generating set, highest element orders first."""
    if g.order == 1:
        return []
    orders = g.element_orders()
    ranked = sorted(range(g.order), key=lambda x: (-int(orders[x]), x))
    gens: list[int] = []
    known = {g.identity}
    for x in ranked:
        if x in known:
            continue
        gens.append(x)
        known = set(closure(g, gens))
        if len(known) == g.order:
            return gens
    raise AssertionError("generating chain failed to exhaust the group")


class _Search:
    def __init__(self, a: FiniteGroup, b: FiniteGroup, budget: int):
        self.a = a
        self.b = b
        self.budget = budget
        self.nodes = 0
        self.gens = generating_chain(a)
        self.levels = [closure(a, self.gens[: i + 1]) for i in range(len(self.gens))]
        self.a_orders = a.element_orders()
        self.b_orders = b.element_orders()
        self.img = np.full(a.order, -1, dtype=np.int64)
        self.used = np.zeros(b.order, dtype=bool)
        self.img[a.identity] = b.identity
        self.used[b.identity] = True

    def run(self) -> Optional[np.ndarray]:
        if not self.gens:
            return self.img.copy()
        if self._dfs(0, [self.a.identity]):
            return self.img.copy()
        return None

    def _candidates(self, level: int) -> list[int]:
        need = int(self.a_orders[self.gens[level]])
        pool = np.nonzero(self.b_orders == need)[0]
        if level == 0:
            reps = set(conjugacy_class_reps(self.b))
            return [int(h) for h in pool if int(h) in reps]
        out = []
        g_new = self.gens[level]
        for h in pool:
            h = int(h)
            if self.used[h]:
                continue
            ok = True
            for j in range(level):
                gj, hj = self.gens[j], int(self.img[self.gens[j]])
                if int(self.a_orders[self.a.table[gj, g_new]]) != int(
                    self.b_orders[self.b.table[hj, h]]
                ):
                    ok = False
                    break
            if ok:
                out.append(h)
        return out

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
            for y in added:
                self.used[self.img[y]] = False
                self.img[y] = -1
        return False

    def _extend(self, level: int, mapped: list[int], g_new: int, h: int):
        """Map the generated subgroup; None (with rollback) on any conflict."""
        a, b, img, used = self.a, self.b, self.img, self.used
        gens_now = self.gens[: level + 1]
        img_gens = [int(img[g]) for g in gens_now[:-1]] + [h]
        added = [g_new]
        img[g_new] = h
        used[h] = True
        queue = list(mapped) + [g_new]
        pos = 0
        ok = True
        while pos < len(queue) and ok:
            x = queue[pos]
            pos += 1
            ix = int(img[x])
            for s, hs in zip(gens_now, img_gens):
                self.nodes += 1
                if self.nodes > self.budget:
                    for y in added:
                        used[img[y]] = False
                        img[y] = -1
                    raise SearchBudgetExceededError(
                        f"embedding search exceeded {self.budget} nodes")
                y = int(a.table[x, s])
                iy = int(b.table[ix, hs])
                j = int(img[y])
                if j < 0:
                    if used[iy]:
                        ok = False
                        break
                    img[y] = iy
                    used[iy] = True
                    added.append(y)
                    queue.append(y)
                elif j != iy:
                    ok = False
                    break
        if ok:
            return added
        for y in added:
            used[img[y]] = False
            img[y] = -1
        return None


def embeds_into(a: FiniteGroup, b: FiniteGroup, budget: int = DEFAULT_NODE_BUDGET) -> Optional[GroupHom]:
    """An injective hom a -> b if one exists; None otherwise.

    Budget exhaustion raises SearchBudgetExceededError instead of answering.
    """
    if b.order % a.order != 0:
        return None
    ca, cb = order_profile(a), order_profile(b)
    if any(ca[k] > cb.get(k, 0) for k in ca):
        return None
    img = _Search(a, b, budget).run()
    if img is None:
        return None
    return GroupHom(a, b, img)


def are_isomorphic(a: FiniteGroup, b: FiniteGroup, budget: int = DEFAULT_NODE_BUDGET) -> Optional[GroupHom]:
    """An isomorphism a -> b found by invariant screening plus backtracking."""
    if a.order != b.order:
        return None
    if a.is_abelian != b.is_abelian:
        return None
    if order_profile(a) != order_profile(b):
        return None
    if len(a.center_indices()) != len(b.center_indices()):
        return None
    return embeds_into(a, b, budget=budget)


# -- small-group identification ------------------------------------------------

_IDENTIFY_LIMIT = 64


def _single_specs(order: int) -> list[str]:
    # aliases are suppressed so every order has one preferred name:
    # S:1, S:2, A:2, A:3, D:2 collapse onto C:1, C:2, C:3, C:2 x C:2
    out = [f"C:{order}"]
    for n in (3, 4):
        if _factorial(n) == order:
            out.append(f"S:{n}")
    for n in (4, 5):
        if _factorial(n) // 2 == order:
            out.append(f"A:{n}")
    if order % 2 == 0 and order // 2 >= 3:
        out.append(f"D:{order // 2}")
    if order == 8:
        out.append("Q8")
    return out


def _factorial(n: int) -> int:
    out = 1
    for k in range(2, n + 1):
        out *= k
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
