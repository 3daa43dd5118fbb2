import random
from collections import Counter

import numpy as np
import pytest

from wreathlab import (
    SearchBudgetExceededError,
    build_wreath,
    construct_named,
    direct_product,
    regular_wreath,
)
from wreathlab import search
from wreathlab.groups import FiniteGroup, _pick_generators, closure
from wreathlab.search import are_isomorphic, embeds_into, identify_small, order_profile
from wreathlab.suites import THETA_CATALOG, _theta_omega

from tests.oracles import relabeled

CATALOG = ["C:1", "C:4", "C:6", "V4", "S:3", "D:4", "Q8", "A:4", "D:6", "C:8"]


def test_c6_isomorphic_to_c2_times_c3():
    a = construct_named("C:6")
    b = direct_product(construct_named("C:2"), construct_named("C:3"))
    assert are_isomorphic(a, b) is not None


def test_c4_not_isomorphic_to_klein():
    assert are_isomorphic(construct_named("C:4"), construct_named("V4")) is None


def test_the_centre_screen_tells_an_abelian_group_from_a_non_abelian_one(monkeypatch):
    """At equal orders |Z| = |G| exactly for the abelian one, so the centre screen
    answers before the order profiles are read."""
    from wreathlab import search
    monkeypatch.setattr(search, "order_profile", lambda g: pytest.fail("order profile read"))
    for a, b in (("C:6", "S:3"), ("C:8", "Q8"), ("C:8", "D:4"), ("C:24", "S:4")):
        ga, gb = construct_named(a), construct_named(b)
        assert len(ga.center_indices()) == ga.order and len(gb.center_indices()) < gb.order
        assert are_isomorphic(ga, gb) is None and are_isomorphic(gb, ga) is None


def test_agl3_isomorphic_to_s3():
    iso = are_isomorphic(construct_named("AGL:3"), construct_named("S:3"))
    assert iso is not None
    assert iso.find_hom_counterexample() is None
    assert iso.is_injective() and iso.is_surjective()


def test_isomorphism_is_symmetric_on_catalog():
    groups = {spec: construct_named(spec) for spec in CATALOG}
    for sa in CATALOG:
        for sb in CATALOG:
            ab = are_isomorphic(groups[sa], groups[sb]) is not None
            ba = are_isomorphic(groups[sb], groups[sa]) is not None
            assert ab == ba
            assert ab == (sa == sb)


def test_embedding_screen_rejects_c4_into_elementary_abelian():
    c4 = construct_named("C:4")
    e8 = direct_product(direct_product(construct_named("C:2"), construct_named("C:2")),
                        construct_named("C:2"))
    assert embeds_into(c4, e8) is None


def test_d4_embeds_into_the_order8_wreath():
    w = regular_wreath(construct_named("C:2"), construct_named("C:2"))
    hom = embeds_into(construct_named("D:4"), w.dense())
    assert hom is not None and hom.is_injective()


def test_s3_embeds_into_a3_wreath_c2():
    w = regular_wreath(construct_named("A:3"), construct_named("C:2"))
    assert w.order == 18
    hom = embeds_into(construct_named("S:3"), w.dense())
    assert hom is not None
    assert hom.find_hom_counterexample() is None
    assert hom.is_injective()


def test_lagrange_screen():
    assert embeds_into(construct_named("C:5"), construct_named("A:4")) is None


def test_embedding_hom_is_injective_whenever_found():
    pairs = [("C:4", "D:4"), ("S:3", "S:4"), ("V4", "D:4"), ("C:6", "A:4")]
    for sa, sb in pairs:
        hom = embeds_into(construct_named(sa), construct_named(sb))
        if hom is not None:
            assert len(hom.image_set()) == hom.domain.order


def test_budget_exhaustion_is_distinct_from_no(monkeypatch):
    a = construct_named("S:4")
    b = construct_named("S:5")
    monkeypatch.setattr(search, "DEFAULT_NODE_BUDGET", 3)
    with pytest.raises(SearchBudgetExceededError):
        embeds_into(a, b)


def test_identify_wreath_as_d4():
    w = regular_wreath(construct_named("C:2"), construct_named("C:2"))
    assert identify_small(w.dense()) == "D:4"


def test_identify_trivial():
    assert identify_small(construct_named("C:1")) == "C:1"


def test_identify_rejects_large_groups():
    with pytest.raises(ValueError):
        identify_small(construct_named("S:5"))


def test_identify_klein_prefers_product_name():
    assert identify_small(construct_named("V4")) == "C:2 × C:2"


def test_identify_s3_and_q8():
    assert identify_small(construct_named("S:3")) == "S:3"
    assert identify_small(construct_named("Q8")) == "Q8"


def test_identify_unknown_stub():
    # SL(2,3) has order 24 but is not in the named/product catalog
    # (use a group we do know is off-catalog: the dicyclic group of order 12)
    import numpy as np

    from wreathlab.groups import FiniteGroup

    n = 12
    # dicyclic Dic3 = <a,b | a^6, b^2=a^3, b a b^-1 = a^-1>, elements a^i b^j
    def mul(x, y):
        i1, j1 = x % 6, x // 6
        i2, j2 = y % 6, y // 6
        if j1 == 0:
            i, j = (i1 + i2) % 6, j2
        elif j2 == 0:
            i, j = (i1 - i2) % 6, 1
        else:
            i, j = (i1 - i2 + 3) % 6, 0
        return i + 6 * j

    table = np.array([[mul(x, y) for y in range(n)] for x in range(n)])
    g = FiniteGroup(table)
    name = identify_small(g)
    assert name == "unidentified(order=12)"


# -- the generator picker and conjugacy classes ------------------------------------


def generating_chain(g):
    """Oracle: the former search picker, highest element order first, with the
    closure recomputed from scratch at every pick; (generators, prefix subgroups)."""
    orders = g.element_orders()
    ranked = sorted(range(g.order), key=lambda x: (-int(orders[x]), x))
    gens, known = [], {g.identity}
    for x in ranked:
        if len(known) == g.order:
            break
        if x in known:
            continue
        gens.append(x)
        known = set(closure(g, gens))
    return gens, [closure(g, gens[: i + 1]) for i in range(len(gens))]


def ascending_generators(g):
    """Oracle: the former loop of ``FiniteGroup.generators()``, ascending index with
    Light's test on each pick; (generators, prefix subgroups)."""
    t, gens, known = g.table, [], {g.identity}
    for s in range(g.order):
        if s in known:
            continue
        assert not (t[t[:, s]] != t[:, t[s]]).any()
        gens.append(s)
        known = set(closure(g, gens))
    return gens, [closure(g, gens[: i + 1]) for i in range(len(gens))]


NAMED_UP_TO_120 = ([f"C:{n}" for n in range(1, 121)] + [f"D:{n}" for n in range(2, 61)]
                   + [f"S:{n}" for n in range(1, 6)] + [f"A:{n}" for n in range(2, 6)]
                   + [f"AGL:{p}" for p in (2, 3, 5, 7)] + ["V4", "Q8"])
DENSE_THETA_SHAPES = [c for c in THETA_CATALOG if c[:2] != ("C:5", "C:5")]


def assert_picks_match_the_former_pickers(g):
    by_order = np.argsort(-g.element_orders(), kind="stable").tolist()
    assert _pick_generators(g, by_order) == generating_chain(g)
    expected = ascending_generators(g)
    assert _pick_generators(g, range(g.order)) == expected
    # generators() runs the ascending pick with Light's test on a table built afresh
    assert FiniteGroup(g.table, identity=g.identity).generators() == expected[0]


def test_pick_generators_matches_the_former_pickers_on_named_families():
    for spec in NAMED_UP_TO_120:
        assert_picks_match_the_former_pickers(construct_named(spec))


@pytest.mark.parametrize("k_spec,h_spec,degree", DENSE_THETA_SHAPES)
def test_pick_generators_matches_the_former_pickers_on_dense_products(k_spec, h_spec, degree):
    k, omega = _theta_omega(k_spec, h_spec, degree)
    assert_picks_match_the_former_pickers(build_wreath(k, omega).dense())


def assert_closure_extends_each_prefix_subgroup(g):
    by_order = np.argsort(-g.element_orders(), kind="stable").tolist()
    for candidates in (by_order, range(g.order)):
        gens, _ = _pick_generators(g, candidates)
        for i in range(1, len(gens) + 1):
            prefix = closure(g, gens[: i - 1])
            assert closure(g, gens[:i], prefix) == closure(g, gens[:i])


def test_closure_from_a_prefix_subgroup_on_named_families():
    for spec in NAMED_UP_TO_120:
        assert_closure_extends_each_prefix_subgroup(construct_named(spec))


@pytest.mark.parametrize("k_spec,h_spec,degree", DENSE_THETA_SHAPES)
def test_closure_from_a_prefix_subgroup_on_dense_products(k_spec, h_spec, degree):
    k, omega = _theta_omega(k_spec, h_spec, degree)
    assert_closure_extends_each_prefix_subgroup(build_wreath(k, omega).dense())


@pytest.mark.parametrize("spec", ["S:4", "A:5", "D:5", "Q8", "AGL:5"])
def test_conjugacy_classes_match_a_brute_force_sweep(spec):
    g = construct_named(spec)
    brute = {}
    for x in range(g.order):
        cls = sorted({g.mul(g.mul(y, x), g.inv(y)) for y in range(g.order)})
        brute.setdefault(cls[0], cls)
    classes = g.conjugacy_classes()
    assert classes == brute
    assert list(classes) == sorted(brute)  # keyed by least element, ascending


def test_order_profile_counts_every_element_order():
    for spec in ("C:1", "C:12", "D:15", "S:5", "A:5", "AGL:7", "Q8"):
        g = construct_named(spec)
        assert order_profile(g) == Counter(int(v) for v in g.element_orders())
        assert 0 not in order_profile(g).values()


# -- the frontier extension against the per-edge one -------------------------------


FrontierSearch = search._Search


class PerEdgeSearch(FrontierSearch):
    """Oracle: the search as it extended a map before it went by frontiers, one
    scalar ``mul`` per edge on each side."""

    def _extend(self, level, mapped, g_new, h):
        a_mul, b_mul, img, used = self.a.mul, self.b.mul, self.img, self.used
        gens_now = self.gens[: level + 1]
        img_gens = [img[g] for g in gens_now[:-1]] + [h]
        added = [g_new]
        img[g_new] = h
        used[h] = True
        queue = list(mapped) + [g_new]
        for x in queue:  # grows as the subgroup is mapped
            ix = img[x]
            for s, hs in zip(gens_now, img_gens):
                self.nodes += 1
                if self.nodes > self.budget:
                    self._undo(added)
                    raise SearchBudgetExceededError(
                        f"embedding search exceeded {self.budget} nodes")
                y = a_mul(x, s)
                iy = b_mul(ix, hs)
                j = img[y]
                if j < 0 and not used[iy]:
                    img[y] = iy
                    used[iy] = True
                    added.append(y)
                    queue.append(y)
                elif j != iy:
                    self._undo(added)
                    return None
        return added


def both_searches(a, b, budget=search.DEFAULT_NODE_BUDGET):
    """(map or exception, nodes) of the frontier search and of the per-edge oracle."""
    out = []
    for cls in (FrontierSearch, PerEdgeSearch):
        s = cls(a, b, budget)
        try:
            out.append((s.run(), s.nodes))
        except SearchBudgetExceededError as exc:
            out.append((str(exc), s.nodes))
    return out


def group_of(spec):
    if spec == "C2^3":
        c2 = construct_named("C:2")
        return direct_product(c2, direct_product(c2, c2))
    return construct_named(spec)


# (candidate subgroup, ambient group, whether an injective hom exists)
SEARCH_PAIRS = [
    ("D:4", "S:4", True), ("C:5", "A:5", True), ("A:4", "A:5", True), ("S:3", "S:4", True),
    ("V4", "A:4", True), ("C:4", "D:4", True), ("D:5", "A:5", True), ("D:7", "AGL:7", True),
    ("C:6", "AGL:7", True), ("S:4", "S:5", True),
    ("Q8", "S:4", False), ("C2^3", "S:4", False), ("C:6", "A:5", False), ("C:4", "A:5", False),
    ("D:4", "Q8", False), ("Q8", "D:4", False), ("A:4", "D:6", False), ("D:6", "S:4", False),
]


@pytest.mark.parametrize("a,b,exists", SEARCH_PAIRS)
def test_the_frontier_search_maps_as_the_per_edge_search(a, b, exists):
    rng = random.Random(f"{a}->{b}")
    for ga, gb in [(group_of(a), group_of(b))] + [
            (relabeled(group_of(a), rng), relabeled(group_of(b), rng)) for _ in range(3)]:
        (got, nodes), want = both_searches(ga, gb)
        assert (got, nodes) == want and (got is not None) == exists
        if exists:
            assert (embeds_into(ga, gb).image == got).all()


@pytest.mark.parametrize("a,b", [("C:4", "C:8"), ("C:2", "S:4"), ("C:4", "A:4"), ("C:2", "D:16"),
                                 ("C:3", "D:8"), ("C:2", "D:12"), ("C:5", "D:5")])
def test_identification_searches_as_the_per_edge_search(monkeypatch, a, b):
    """Every search identify_small makes on a relabeled product, run both ways."""
    g = relabeled(direct_product(construct_named(a), construct_named(b)), random.Random(a + b))
    runs = []

    class Both(FrontierSearch):
        def run(self):
            runs.append(both_searches(self.a, self.b, self.budget))
            return runs[-1][0][0]
    monkeypatch.setattr(search, "_Search", Both)
    assert identify_small(g) == f"{a} × {b}"
    assert runs and all(frontier == per_edge for frontier, per_edge in runs)


def test_the_budget_runs_out_at_the_same_edge(monkeypatch):
    a, b = construct_named("S:4"), construct_named("S:5")
    (found, needed), want = both_searches(a, b)
    assert found is not None and (found, needed) == want
    for budget in (1, 3, 10, needed // 2, needed - 1, needed):
        frontier, per_edge = both_searches(a, b, budget)
        assert frontier == per_edge
        assert isinstance(frontier[0], str) == (budget < needed)
    monkeypatch.setattr(search, "DEFAULT_NODE_BUDGET", needed - 1)
    with pytest.raises(SearchBudgetExceededError, match=f"exceeded {needed - 1} nodes"):
        embeds_into(a, b)


def test_search_reads_the_codomain_through_mul_array_only(monkeypatch):
    a, b = construct_named("S:4"), construct_named("S:5")
    monkeypatch.setattr(b, "mul", lambda x, y: pytest.fail("scalar mul of the codomain"))
    assert embeds_into(a, b) is not None


def test_search_into_a_structural_wreath_fails_on_its_order_profile():
    """The known defect of ROADMAP item 1, pinned until it is mended: a structural
    codomain has no element_orders()."""
    w = regular_wreath(construct_named("C:2"), construct_named("C:13"))
    with pytest.raises(AttributeError, match="element_orders"):
        embeds_into(construct_named("C:13"), w)


def test_the_centre_is_computed_once_per_group():
    g = construct_named("S:3")
    first = g.center_indices()
    first.append(99)  # the caller's copy, not the cache
    assert g.center_indices() == [0] == construct_named("S:3").center_indices()
    g._center = [1]  # the cache is what answers
    assert g.center_indices() == [1]
    q8 = construct_named("Q8")
    brute = [z for z in range(8) if all(q8.mul(z, x) == q8.mul(x, z) for x in range(8))]
    assert q8.center_indices() == brute == [0, 1]
