import numpy as np
import pytest

from wreathlab import (
    SearchBudgetExceededError,
    build_wreath,
    construct_named,
    direct_product,
    regular_wreath,
)
from wreathlab.groups import FiniteGroup, _pick_generators, closure
from wreathlab.search import are_isomorphic, embeds_into, identify_small
from wreathlab.suites import THETA_CATALOG, _theta_omega

CATALOG = ["C:1", "C:4", "C:6", "V4", "S:3", "D:4", "Q8", "A:4", "D:6", "C:8"]


def test_c6_isomorphic_to_c2_times_c3():
    a = construct_named("C:6")
    b = direct_product(construct_named("C:2"), construct_named("C:3"))
    assert are_isomorphic(a, b) is not None


def test_c4_not_isomorphic_to_klein():
    assert are_isomorphic(construct_named("C:4"), construct_named("V4")) is None


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


def test_budget_exhaustion_is_distinct_from_no():
    a = construct_named("S:4")
    b = construct_named("S:5")
    with pytest.raises(SearchBudgetExceededError):
        embeds_into(a, b, budget=3)


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
