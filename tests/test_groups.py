import itertools
import json
import re

import pytest

from wreathlab import (
    GroupValidationError,
    NonNormalSubgroupError,
    SizeLimitError,
    center_subgroup,
    check_presentation_d4,
    construct_named,
    coset_partition,
    direct_product,
    group_from_json,
    group_to_json,
    normal_core,
    quotient,
    regular_wreath,
    subgroup_from_elements,
    subgroup_generated,
)
from wreathlab.search import are_isomorphic


def brute_closure(g, gens):
    """Independent closure oracle: saturate products with plain sets."""
    elems = {g.identity} | set(gens)
    while True:
        new = {g.mul(a, b) for a in elems for b in elems}
        if new <= elems:
            return elems
        elems |= new


# -- named families -------------------------------------------------------------


def test_agl3_is_nonabelian_of_order_6():
    g = construct_named("AGL:3")
    assert g.order == 6
    assert not g.is_abelian


def test_agl5_has_order_20():
    g = construct_named("AGL:5")
    assert g.order == 20
    assert not g.is_abelian


def test_trivial_group():
    g = construct_named("C:1")
    assert g.order == 1
    assert g.identity == 0


@pytest.mark.parametrize(
    "spec,order",
    [("C:7", 7), ("D:4", 8), ("S:4", 24), ("A:4", 12), ("A:5", 60),
     ("V4", 4), ("Q8", 8), ("AGL:2", 2), ("AGL:7", 42), ("S:1", 1), ("A:2", 1)],
)
def test_named_orders(spec, order):
    assert construct_named(spec).order == order


@pytest.mark.parametrize("spec", ["X:3", "C:0", "D:1", "S:7", "A:1", "AGL:4", "AGL:11", "foo"])
def test_named_rejects_bad_specs(spec):
    with pytest.raises(ValueError):
        construct_named(spec)


def test_symmetric_indexing_is_lexicographic():
    g = construct_named("S:3")
    assert g.point_maps == list(itertools.permutations(range(3)))
    # composition applies the right factor first: act agrees with map composition
    i, j = 1, 4  # (0,2,1) and (2,0,1)
    composed = tuple(g.point_maps[i][g.point_maps[j][x]] for x in range(3))
    assert g.point_maps[g.mul(i, j)] == composed


def test_q8_center_and_orders():
    g = construct_named("Q8")
    assert sorted(g.center_indices()) == [0, 1]
    assert [g.element_order(x) for x in range(8)] == [1, 2, 4, 4, 4, 4, 4, 4]


# -- direct products -------------------------------------------------------------


def test_klein_product_has_three_involutions():
    g = direct_product(construct_named("C:2"), construct_named("C:2"))
    assert g.order == 4
    assert sum(1 for x in range(4) if g.element_order(x) == 2) == 3


def test_product_with_trivial_factor():
    g = construct_named("S:3")
    prod = direct_product(construct_named("C:1"), g)
    assert are_isomorphic(prod, g) is not None


def test_c2_times_c3_is_cyclic():
    prod = direct_product(construct_named("C:2"), construct_named("C:3"))
    iso = are_isomorphic(prod, construct_named("C:6"))
    assert iso is not None
    assert iso.is_homomorphism() and iso.is_injective() and iso.is_surjective()


def test_product_size_cap():
    g = construct_named("C:6")
    with pytest.raises(SizeLimitError):
        direct_product(g, g, max_order=10)


# -- subgroups, cores, quotients --------------------------------------------------


def test_empty_generators_give_trivial_subgroup(d4):
    sub, incl = subgroup_generated(d4, [])
    assert sub.order == 1
    assert incl(0) == d4.identity


def test_rotation_subgroup_of_d4(d4):
    sub, _ = subgroup_generated(d4, [2])  # r has index 2 (a=1, b=0)
    assert sub.order == 4
    assert are_isomorphic(sub, construct_named("C:4")) is not None


def test_s4_two_generators_close_to_order_6(s4):
    i12 = s4.point_maps.index((1, 0, 2, 3))
    i123 = s4.point_maps.index((1, 2, 0, 3))
    sub, incl = subgroup_generated(s4, [i12, i123])
    assert sub.order == 6
    assert set(int(v) for v in incl.image) == brute_closure(s4, [i12, i123])


def test_core_of_whole_group(s3):
    whole, incl = subgroup_from_elements(s3, range(s3.order))
    core, _ = normal_core(s3, incl)
    assert core.order == s3.order


def test_core_of_point_stabilizer_is_trivial(s4):
    members = [i for i, pm in enumerate(s4.point_maps) if pm[3] == 3]
    _, incl = subgroup_from_elements(s4, members)
    core, _ = normal_core(s4, incl)
    assert core.order == 1
    # independent oracle: intersect all conjugates directly
    expected = set(members)
    for y in range(s4.order):
        expected &= {s4.mul(s4.mul(y, x), s4.inv(y)) for x in members}
    assert expected == {s4.identity}


def test_core_of_normal_subgroup_is_itself(d4):
    _, incl = subgroup_generated(d4, [2])
    core, core_incl = normal_core(d4, incl)
    assert core.order == 4
    assert core_incl.image_set() == incl.image_set()


def test_core_and_normality_of_every_cyclic_subgroup_against_brute_force(s4):
    for x in range(s4.order):
        _, incl = subgroup_generated(s4, [x])
        members = sorted(incl.image_set())
        core = set(members)
        for y in range(s4.order):
            core &= {s4.mul(s4.mul(y, m), s4.inv(y)) for m in members}
        assert normal_core(s4, incl)[1].image_set() == core
        first_bad = next((y for y in range(s4.order)
                          if {s4.mul(y, m) for m in members} != {s4.mul(m, y) for m in members}),
                         None)
        if first_bad is None:
            assert quotient(s4, incl)[0].order == s4.order // len(members)
        else:
            with pytest.raises(NonNormalSubgroupError, match=f"at g index {first_bad}$"):
                quotient(s4, incl)


def test_non_closed_set_names_the_first_escaping_pair(s4):
    elems = [0, s4.point_maps.index((1, 0, 2, 3)), s4.point_maps.index((0, 2, 1, 3)),
             s4.point_maps.index((1, 2, 0, 3))]
    members = sorted(elems)
    # oracle: the row-major first product that leaves the set
    a, b = next((a, b) for a in members for b in members if s4.mul(a, b) not in members)
    with pytest.raises(GroupValidationError,
                       match=re.escape(f"element set not closed: g{a}*g{b} escapes")):
        subgroup_from_elements(s4, elems)
    with pytest.raises(GroupValidationError, match="out of the group's range"):
        subgroup_from_elements(s4, [0, s4.order])


def test_quotient_by_whole_group(s3):
    _, incl = subgroup_from_elements(s3, range(s3.order))
    q, proj = quotient(s3, incl)
    assert q.order == 1
    assert all(proj(x) == 0 for x in range(s3.order))


def test_sign_quotient_of_s3(s3):
    even = [i for i, pm in enumerate(s3.point_maps)
            if sum(1 for a in range(3) for b in range(a + 1, 3) if pm[a] > pm[b]) % 2 == 0]
    _, incl = subgroup_from_elements(s3, even)
    q, proj = quotient(s3, incl)
    assert q.order == 2
    assert proj.is_surjective()


def test_d4_center_quotient_is_klein(d4):
    _, incl = center_subgroup(d4)
    q, _ = quotient(d4, incl)
    assert q.order == 4
    assert are_isomorphic(q, construct_named("V4")) is not None


def test_quotient_rejects_non_normal(s3):
    i12 = s3.point_maps.index((1, 0, 2))
    _, incl = subgroup_generated(s3, [i12])
    with pytest.raises(NonNormalSubgroupError):
        quotient(s3, incl)


def test_quotient_kills_exactly_the_subgroup(d4):
    _, incl = subgroup_generated(d4, [2])
    _, proj = quotient(d4, incl)
    assert set(proj.kernel_indices()) == set(int(v) for v in incl.image)


def test_coset_partition_numbers_cosets_by_minimal_member(s4):
    _, incl = subgroup_generated(s4, [s4.point_maps.index((1, 0, 2, 3))])
    members = sorted(incl.image_set())
    coset_of, reps = coset_partition(s4, members)
    cosets = {frozenset(s4.mul(x, m) for m in members) for x in range(s4.order)}
    assert list(reps) == sorted(min(c) for c in cosets)
    for x in range(s4.order):
        coset = next(c for c in cosets if x in c)
        assert reps[coset_of[x]] == min(coset)


def test_quotient_and_partition_share_representatives(d4):
    _, incl = subgroup_generated(d4, [2])
    q, proj = quotient(d4, incl)
    coset_of, reps = coset_partition(d4, sorted(incl.image_set()))
    assert (proj.image == coset_of).all()
    assert q.labels == [f"[{d4.labels[r]}]" for r in reps]


def test_coset_partition_of_a_structural_product():
    w = regular_wreath(construct_named("C:2"), construct_named("C:2"), dense_cap=1)
    base = sorted(w.top_projection.kernel_indices())
    coset_of, reps = coset_partition(w.product, base)
    assert list(reps) == [0, 4]
    assert list(coset_of) == [0, 0, 0, 0, 1, 1, 1, 1]


def test_element_order_identity(s4):
    assert s4.element_order(s4.identity) == 1


# -- D4 presentation ---------------------------------------------------------------


def test_d4_canonical_presentation(d4):
    r, s = 2, 1
    assert check_presentation_d4(d4, r, s)


def test_presentation_fails_on_identity_pair(d4):
    assert not check_presentation_d4(d4, d4.identity, d4.identity)


# -- validation ---------------------------------------------------------------------


def test_validation_catches_broken_identity():
    with pytest.raises(GroupValidationError):
        group_from_json({"order": 2, "identity": 0, "table": [[1, 0], [0, 1]]})


def test_validation_catches_broken_associativity():
    # identity row/column fine, but (1*1)*2 != 1*(1*2)
    table = [[0, 1, 2], [1, 0, 0], [2, 0, 1]]
    with pytest.raises(GroupValidationError):
        group_from_json({"order": 3, "identity": 0, "table": table})


def test_every_constructed_hom_satisfies_the_law(s4, d4, q8):
    for g in (s4, d4, q8):
        _, incl = center_subgroup(g)
        assert incl.find_hom_counterexample() is None
        _, proj = quotient(g, incl)
        assert proj.find_hom_counterexample() is None


# -- JSON exchange -------------------------------------------------------------------


def test_group_json_roundtrip(tmp_path, d4):
    path = tmp_path / "d4.json"
    with open(path, "w") as fh:
        json.dump(group_to_json(d4), fh)
    with open(path) as fh:
        loaded = group_from_json(json.load(fh))
    assert loaded.order == d4.order
    assert (loaded.table == d4.table).all()
    assert loaded.labels == d4.labels


def test_group_json_key_order(d4):
    assert list(group_to_json(d4)) == ["order", "identity", "labels", "table"]


def test_corrupted_json_is_rejected(d4):
    data = group_to_json(d4)
    data["table"][3][5] = (data["table"][3][5] + 1) % d4.order
    with pytest.raises(GroupValidationError):
        group_from_json(data)


def test_order_600_loop_is_rejected(c600_loop):
    with pytest.raises(GroupValidationError, match=r"associativity fails at \(a,b,c\)=\(129,1,41\)"):
        group_from_json(c600_loop)
    # the reported triple really fails: 129 * 1 = 130 and (130, 41) is a swapped cell
    t = c600_loop["table"]
    assert t[t[129][1]][41] != t[129][t[1][41]]


def test_exhaustive_associativity_for_small_constructions():
    for spec in ("C:12", "D:6", "S:4", "Q8", "AGL:5"):
        g = construct_named(spec)
        t = g.table
        for a in range(g.order):
            assert (t[t[a, :], :] == t[a, :][t]).all()
