import hashlib
import itertools
import json
import random
import re

import numpy as np
import pytest

from wreathlab import (
    ActionValidationError,
    FiniteGroup,
    FiniteGSet,
    GroupFormatError,
    GroupHom,
    GroupValidationError,
    NonNormalSubgroupError,
    Section,
    SectionMismatchError,
    SizeLimitError,
    WreathlabError,
    action_from_json,
    center_subgroup,
    certify_hom,
    check_equivariant,
    construct_named,
    coset_partition,
    default_section,
    direct_product,
    group_from_json,
    group_to_json,
    identity_hom,
    kk_embedding,
    load_group,
    natural_action,
    normal_core,
    quotient,
    regular_action,
    regular_wreath,
    save_group,
    subgroup_from_elements,
    subgroup_generated,
    transport_iso,
    transport_subgroup,
)
from wreathlab import groups, suites
from wreathlab.cli import main
from wreathlab.groups import DENSE_CAP_DEFAULT, closure, named_orders
from wreathlab.search import are_isomorphic

from tests.oracles import (
    brute_closure,
    check_presentation_d4,
    element_order,
    generator_sets,
    loop_oracle,
    normal_core_sweep,
    relabeled,
)


# -- named families -------------------------------------------------------------


def test_agl3_is_nonabelian_of_order_6():
    g = construct_named("AGL:3")
    assert g.order == 6
    assert len(g.center_indices()) < g.order


def test_agl5_has_order_20():
    g = construct_named("AGL:5")
    assert g.order == 20
    assert len(g.center_indices()) < g.order


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
    with pytest.raises(ValueError):
        named_orders(spec)


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
    assert g.element_orders().tolist() == [1, 2, 4, 4, 4, 4, 4, 4]


_SEEDED = random.Random(20230626)
ORACLE_SPECS = ([f"S:{n}" for n in range(1, 7)] + [f"A:{n}" for n in range(2, 7)]
                + [f"AGL:{p}" for p in (2, 3, 5, 7)] + [f"D:{n}" for n in range(2, 65)]
                + [f"D:{_SEEDED.randint(240, 260)}", f"C:{_SEEDED.randint(240, 260)}", "Q8"]
                + ["C:1", "C:2", "C:513"])


@pytest.mark.parametrize("spec", ORACLE_SPECS)
def test_named_family_matches_its_loop_built_oracle(spec):
    g = construct_named(spec)
    table, identity, labels, maps, name = loop_oracle(spec)
    assert g.table.tolist() == table
    assert g.identity == identity
    assert g.inverses.tolist() == [row.index(identity) for row in table]
    assert g.labels == labels
    assert g.point_maps == maps
    assert g.name == name


@pytest.mark.parametrize("spec,order", [("C:4097", 4097), ("D:2049", 4098), ("C:10000000000", 10**10)])
def test_named_orders_above_the_dense_cap_are_refused(spec, order):
    for build in (construct_named, named_orders):
        with pytest.raises(SizeLimitError) as err:
            build(spec)
        assert err.value.order == order
        assert f"exceeds the dense-table cap {DENSE_CAP_DEFAULT}" in str(err.value)


# -- direct products -------------------------------------------------------------


def test_klein_product_has_three_involutions():
    g = direct_product(construct_named("C:2"), construct_named("C:2"))
    assert g.order == 4
    assert np.count_nonzero(g.element_orders() == 2) == 3


def test_product_with_trivial_factor():
    g = construct_named("S:3")
    prod = direct_product(construct_named("C:1"), g)
    assert are_isomorphic(prod, g) is not None


def test_c2_times_c3_is_cyclic():
    prod = direct_product(construct_named("C:2"), construct_named("C:3"))
    iso = are_isomorphic(prod, construct_named("C:6"))
    assert iso is not None
    assert certify_hom(iso).counterexample is None and iso.is_injective() and iso.is_surjective()


def test_product_identity_follows_the_factors_identities():
    c3 = construct_named("C:3")
    rev = FiniteGroup([[2 - c3.mul(2 - i, 2 - j) for j in range(3)] for i in range(3)], identity=2)
    prod = direct_product(rev, construct_named("C:2"))
    assert prod.identity == 2 * 2 + 0
    assert are_isomorphic(prod, construct_named("C:6")) is not None


def test_product_dense_cap(peak_mb):
    # the dense-table cap bounds the product, checked before its 69 MB table is allocated
    c64, c65 = construct_named("C:64"), construct_named("C:65")

    def refused():
        with pytest.raises(SizeLimitError) as err:
            direct_product(c64, c65)
        return err.value

    err, peak = peak_mb(refused)
    assert err.order == 64 * 65 > DENSE_CAP_DEFAULT
    assert peak < 1


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


def sorted_rows_first_non_normal(g, members):
    """The least x whose left coset xN and right coset Nx, each a sorted row of
    the table, differ; None where N is normal."""
    bad = (np.sort(g.table[:, members], axis=1) != np.sort(g.table[members].T, axis=1)).any(axis=1)
    return int(bad.argmax()) if bad.any() else None


def brute_quotient(g, members):
    """The coset group's table, labels and projection, from the left cosets as
    sets, numbered by least member."""
    coset = [frozenset(g.mul(x, m) for m in members) for x in range(g.order)]
    least = {}
    for x, c in enumerate(coset):
        least.setdefault(c, x)
    number = {c: i for i, c in enumerate(least)}
    reps = list(least.values())
    table = [[number[coset[g.mul(a, b)]] for b in reps] for a in reps]
    return table, [f"[{g.labels[r]}]" for r in reps], [number[c] for c in coset]


def test_core_and_normality_of_every_cyclic_subgroup_against_brute_force():
    rng = random.Random(28)
    named = [construct_named(s) for s in ("C:12", "D:6", "D:15", "Q8", "A:4", "S:4", "A:5", "AGL:7")]
    outcomes = set()
    for g in named + [relabeled(named[i], rng) for i in (1, 5, 7)]:
        for x in range(g.order):
            _, incl = subgroup_generated(g, [x])
            members = sorted(incl.image_set())
            core = set(members)
            for y in range(g.order):
                core &= {g.mul(g.mul(y, m), g.inv(y)) for m in members}
            assert normal_core(g, incl)[1].image_set() == core
            first_bad = next((y for y in range(g.order)
                              if {g.mul(y, m) for m in members} != {g.mul(m, y) for m in members}),
                             None)
            assert sorted_rows_first_non_normal(g, members) == first_bad
            outcomes.add(first_bad is None)
            if first_bad is None:
                q, proj = quotient(g, incl)
                assert ((q.table.tolist(), q.labels, proj.image.tolist())
                        == brute_quotient(g, members)), (g.name, x)
            else:
                with pytest.raises(NonNormalSubgroupError, match=f"^gN != Ng at g index {first_bad}$"):
                    quotient(g, incl)
    assert outcomes == {True, False}


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


def test_a_subgroup_of_a_structural_product_allocates_nothing_of_its_order():
    # C:2 wr_r C:36 has order 2^36 * 36: a lookup array of that length would need 9 TiB
    w = regular_wreath(construct_named("C:2"), construct_named("C:36"))
    trivial, incl = subgroup_from_elements(w, [w.identity])
    assert trivial.order == 1 and trivial.inverses.tolist() == [0]
    assert incl.image.tolist() == [w.identity]
    x = w.encode([1] + [0] * 35, 1)  # (f, h)^36 = (1 at every point, e), so x has order 72
    sub, incl = subgroup_generated(w, [x])
    assert sub.order == element_order(w, x) == 72
    assert (sub.inverses == FiniteGroup(sub.table, identity=sub.identity).inverses).all()
    assert (incl.image[sub.inverses] == w.inv_array(incl.image)).all()


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
    w = regular_wreath(construct_named("C:2"), construct_named("C:2"))
    base = sorted(w.encode(f, w.top.group.identity) for f in np.ndindex(2, 2))
    coset_of, reps = coset_partition(w, base)
    assert list(reps) == [0, 4]
    assert list(coset_of) == [0, 0, 0, 0, 1, 1, 1, 1]


def test_element_order_identity(s4):
    assert s4.element_orders()[s4.identity] == 1


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


def save_group_with_json_dump(g, path):
    """The exchange writer before ``tolist`` and one ``json.dumps``: a test oracle."""
    data = {"order": g.order, "identity": g.identity, "labels": list(g.labels),
            "table": [[int(v) for v in row] for row in g.table]}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)
        fh.write("\n")


def test_save_group_writes_the_bytes_of_the_json_dump_writer(tmp_path):
    rev = FiniteGroup([[2 - (4 - i - j) % 3 for j in range(3)] for i in range(3)], identity=2)
    c2 = construct_named("C:2")
    built = [construct_named("C:1"), construct_named("S:4"), construct_named("Q8"),
              direct_product(rev, c2), regular_wreath(c2, construct_named("C:3")).dense(),
              FiniteGroup([[1, 0], [0, 1]], identity=1, labels=["a", 'e"\u00e9'])]
    for g in built:
        save_group(g, tmp_path / "new.json")
        save_group_with_json_dump(g, tmp_path / "old.json")
        assert (tmp_path / "new.json").read_bytes() == (tmp_path / "old.json").read_bytes()
        assert load_group(tmp_path / "new.json").table.tolist() == g.table.tolist()


def test_the_s3_wreath_s3_export_keeps_its_bytes(capsys, tmp_path):
    # the md5 of the file the json.dump writer made for this build
    path = tmp_path / "s3wr.json"
    assert main(["build", "--k", "S:3", "--h", "S:3", "--omega", "natural:3",
                 "--out", str(path)]) == 0
    assert hashlib.md5(path.read_bytes()).hexdigest() == "d1b126b9ffd3c2628ee84fed2a1dcfd3"


def test_group_json_key_order(d4):
    assert list(group_to_json(d4)) == ["order", "identity", "labels", "table"]


def test_corrupted_json_is_rejected(d4):
    data = group_to_json(d4)
    data["table"][3][5] = (data["table"][3][5] + 1) % d4.order
    with pytest.raises(GroupValidationError):
        group_from_json(data)


MALFORMED_GROUP_TEXTS = {
    "a float cell": '{"order": 2, "identity": 0, "table": [[0, 1], [1, 0.5]]}',
    "a float equal to an integer": '{"order": 2, "identity": 0, "table": [[0, 1], [1, 0.0]]}',
    "a float identity": '{"order": 2, "identity": 0.7, "table": [[0, 1], [1, 0]]}',
    "an exponent": '{"order": 2e0, "identity": 0, "table": [[0, 1], [1, 0]]}',
    "NaN": '{"order": 2, "identity": 0, "table": [[0, 1], [1, NaN]]}',
    "Infinity": '{"order": 2, "identity": 0, "table": [[0, 1], [1, -Infinity]]}',
    "a string order": '{"order": "2", "identity": 0, "table": [[0, 1], [1, 0]]}',
    "a bool identity": '{"order": 2, "identity": false, "table": [[0, 1], [1, 0]]}',
    "a null identity": '{"order": 2, "identity": null, "table": [[0, 1], [1, 0]]}',
    "a ragged row": '{"order": 2, "identity": 0, "table": [[0, 1], [1]]}',
    "a null cell": '{"order": 2, "identity": 0, "table": [[0, 1], [1, null]]}',
    "a string cell": '{"order": 2, "identity": 0, "table": [[0, 1], [1, "e"]]}',
    "a cell past int64": '{"order": 2, "identity": 0, "table": [[0, 1], [1, %d]]}' % 2**70,
    "a non-square table": '{"order": 2, "identity": 0, "table": [[0, 1]]}',
    "labels that are not a list": '{"order": 2, "identity": 0, "labels": "ab", "table": [[0, 1], [1, 0]]}',
    "too few labels": '{"order": 2, "identity": 0, "labels": ["e"], "table": [[0, 1], [1, 0]]}',
    "a missing key": '{"order": 2, "table": [[0, 1], [1, 0]]}',
    "a list": '[[0, 1], [1, 0]]',
    "text that is not JSON": '{"order": 2,',
}


@pytest.mark.parametrize("what", sorted(MALFORMED_GROUP_TEXTS))
def test_malformed_group_json_is_refused_as_a_format_error(tmp_path, what):
    path = tmp_path / "g.json"
    path.write_text(MALFORMED_GROUP_TEXTS[what])
    with pytest.raises(GroupFormatError):
        load_group(path)


def test_out_of_range_cells_are_refused_before_the_int32_cast():
    # 2**40 and 2**32 + 1 would wrap to 0 and 1 in int32 and make a valid C:2 table
    for cell in (2**40, 2**32 + 1, -(2**32) + 1):
        table = [[0, 1], [1, cell]]
        with pytest.raises(GroupValidationError, match="table not closed"):
            group_from_json({"order": 2, "identity": 0, "table": table})
        with pytest.raises(GroupValidationError, match="table not closed"):
            FiniteGroup(np.array(table, dtype=np.int64))
    with pytest.raises(GroupFormatError, match="integers"):
        FiniteGroup(np.array([[0.0, 1.0], [1.0, 0.0]]))
    # a valid file still loads, labels and all
    g = group_from_json({"order": 2, "identity": 1, "labels": ["a", "e"], "table": [[1, 0], [0, 1]]})
    assert (g.order, g.identity, g.labels) == (2, 1, ["a", "e"])


@pytest.mark.parametrize("identity", [0.9, 0.0, np.float64(0), "0", True, False, np.bool_(False),
                                      None, [0]], ids=repr)
def test_an_identity_that_is_not_an_integer_is_refused(identity):
    with pytest.raises(GroupFormatError, match="identity must be an integer"):
        FiniteGroup([[0, 1], [1, 0]], identity=identity)


@pytest.mark.parametrize("identity", [1, np.int64(1), np.int32(1), np.uint8(1)], ids=repr)
def test_python_and_numpy_integer_identities_are_accepted(identity):
    g = FiniteGroup([[1, 0], [0, 1]], identity=identity)
    assert g.identity == 1 and type(g.identity) is int


@pytest.mark.parametrize("chunk", [1, 60, 2**20])
def test_inverse_failures_name_the_first_bad_row_at_every_block_size(monkeypatch, chunk):
    monkeypatch.setattr(groups, "SWEEP_CHUNK", chunk)  # rows per block: 1, 5 and all 12
    table = construct_named("C:12").table.copy()
    table[9, 4] = table[11, 5] = 0  # rows 9 and 11 now hold the identity twice
    with pytest.raises(GroupValidationError, match=r"^element g9 has no unique inverse$"):
        FiniteGroup(table)


def test_certification_at_the_dense_cap_fits_in_the_table_and_16_mb(peak_mb):
    g, peak = peak_mb(lambda: construct_named("C:4096"))
    assert peak <= g.table.nbytes / 2**20 + 16
    d = construct_named("D:2048")
    perm = np.random.default_rng(4096).permutation(d.order)
    table = np.empty(d.table.shape, dtype=np.int64)  # a user table, cast to int32 on load
    table[np.ix_(perm, perm)] = perm[d.table]
    identity = int(perm[d.identity])
    del g, d
    h, peak = peak_mb(lambda: FiniteGroup(table, identity=identity))
    assert h.order == 4096
    assert peak <= h.table.nbytes / 2**20 + 16


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


def test_power_matches_repeated_multiplication():
    w = regular_wreath(construct_named("C:2"), construct_named("C:3"))
    for g, xs in ((construct_named("S:4"), range(24)), (w, range(0, w.order, 5))):
        for x in xs:
            for k in range(-20, 21):
                base, acc = (x, g.identity) if k >= 0 else (g.inv(x), g.identity)
                for _ in range(abs(k)):
                    acc = g.mul(acc, base)
                assert g.power(x, k) == acc, (g, x, k)


def test_power_squares_and_multiplies_for_a_huge_exponent():
    c7 = construct_named("C:7")
    assert c7.power(3, 10**9) == 3 * 10**9 % 7
    assert c7.power(3, 10**18) == 3 * 10**18 % 7
    assert c7.power(3, -10**18) == -3 * 10**18 % 7
    w = regular_wreath(construct_named("C:2"), construct_named("C:2"))
    x = w.encode((0, 1), 1)  # of order 4
    assert w.power(x, 10**18) == w.identity
    assert w.power(x, 10**18 + 1) == x


# -- list tables: one-pass conversion with strict cells ------------------------------


@pytest.mark.parametrize("table", [[[0, 1.9], [1.2, 0]], [[0, "1"], [1, 0]], [[0, 1], [1, None]],
                                   [[0, np.float64(1)], [1, 0]], [[0, True], [True, 0]]], ids=repr)
def test_in_process_float_and_str_cells_are_refused(table):
    # [[0, True], [True, 0]] once loaded as C:2, each True read as 1
    with pytest.raises(GroupFormatError, match="integers"):
        FiniteGroup(table)


def test_a_json_str_cell_is_refused():
    with pytest.raises(GroupFormatError):
        group_from_json({"order": 2, "identity": 0, "table": [[0, 1], ["1", 0]]})


@pytest.mark.parametrize("table", [[], [[]], [[[0], [1]], [[1], [0]]], [[0, 1], [1]], [0, 1], 5],
                         ids=repr)
def test_tables_that_are_not_square_rows_of_ints_stay_format_errors(table):
    with pytest.raises(GroupFormatError):
        FiniteGroup(table)


@pytest.mark.parametrize("table", [[(0, 1), (1, 0)], ((0, 1), (1, 0)),
                                   [np.array([0, 1]), np.array([1, 0], dtype=np.int32)],
                                   [[np.int64(0), 1], [1, np.uint8(0)]]],
                         ids=repr)
def test_integer_rows_of_any_sequence_type_still_load(table):
    g = FiniteGroup(table)
    assert g.table.tolist() == [[0, 1], [1, 0]] and g.table.dtype == np.int32


@pytest.mark.parametrize("cell", [-1, 2**40, 2**32 + 1])
def test_out_of_range_list_cells_are_refused_as_not_closed(cell):
    with pytest.raises(GroupValidationError, match="table not closed"):
        FiniteGroup([[0, 1], [1, cell]])


def test_a_cell_past_int64_is_a_format_error():
    with pytest.raises(GroupFormatError, match="int64"):
        FiniteGroup([[0, 1], [1, 2**70]])


# -- homs, sections and point bijections: integer indices only ---------------------


NON_INTEGER_INDICES = [[0, 1.7], [0.0, 1.0], ["0", "1"], None, [0, None], "01",
                       np.array([0.0, 1.0]), np.array([0, 1.5], dtype=object)]
INTEGER_INDICES = [[0, 1], (0, 1), [np.int64(0), np.int32(1)], range(2), np.array([0, 1]),
                   np.array([0, 1], dtype=np.uint8), np.array([0, 1], dtype=object)]


@pytest.mark.parametrize("values", NON_INTEGER_INDICES, ids=repr)
def test_homs_sections_and_point_bijections_refuse_non_integer_indices(values):
    c2 = construct_named("C:2")
    with pytest.raises(GroupFormatError, match="int"):
        GroupHom(c2, c2, values)
    with pytest.raises(SectionMismatchError, match="int"):
        Section(c2, c2, values)
    omega = regular_action(c2)
    with pytest.raises(GroupFormatError, match="int"):
        check_equivariant(values, omega, omega, identity_hom(c2))


@pytest.mark.parametrize("values", INTEGER_INDICES, ids=repr)
def test_integer_indices_of_any_sequence_type_still_load(values):
    c2 = construct_named("C:2")
    hom, section = GroupHom(c2, c2, values), Section(c2, c2, values)
    assert hom.image.tolist() == section.choice.tolist() == [0, 1]
    assert hom.image.dtype == section.choice.dtype == np.int64
    omega = regular_action(c2)
    assert check_equivariant(values, omega, omega, identity_hom(c2))


def _c2_wreath():
    c2 = construct_named("C:2")
    return regular_wreath(c2, c2)


def _c4_onto_c2():
    """C:4 -> C:4/<2>; 1 and 3 lie over the point 1."""
    c4 = construct_named("C:4")
    return quotient(c4, subgroup_generated(c4, [2])[1])[1]


# every entry point that takes an index from outside, with its documented error class;
# each call puts the index v where 1 gives a valid input
INDEX_ENTRY_POINTS = {
    "FiniteGroup": (GroupFormatError, lambda c2, v: FiniteGroup([[0, v], [v, 0]])),
    "group_from_json": (GroupFormatError, lambda c2, v: group_from_json(
        {"order": 2, "identity": 0, "table": [[0, v], [v, 0]]})),
    "FiniteGSet": (ActionValidationError, lambda c2, v: FiniteGSet(c2, [[0, v], [v, 0]])),
    "action_from_json": (ActionValidationError, lambda c2, v: action_from_json(
        {"group": group_to_json(c2), "size": 2, "act": [[0, v], [v, 0]]})),
    "natural_action": (ActionValidationError, lambda c2, v: natural_action(
        2, FiniteGroup(c2.table, point_maps=[(0, v), (v, 0)]))),
    "GroupHom": (GroupFormatError, lambda c2, v: GroupHom(c2, c2, [0, v])),
    "Section": (SectionMismatchError, lambda c2, v: Section(c2, c2, [0, v])),
    "check_equivariant": (GroupFormatError, lambda c2, v: check_equivariant(
        [0, v], regular_action(c2), regular_action(c2), identity_hom(c2))),
    "transport_iso": (GroupFormatError, lambda c2, v: transport_iso(
        identity_hom(c2), identity_hom(c2), [0, v], _c2_wreath(), _c2_wreath())),
    "transport_subgroup": (GroupFormatError, lambda c2, v: transport_subgroup(
        identity_hom(c2), identity_hom(c2), [0, v], _c2_wreath(), _c2_wreath())),
    "subgroup_from_elements": (GroupFormatError, lambda c2, v: subgroup_from_elements(c2, [0, v])),
    "subgroup_generated": (GroupFormatError, lambda c2, v: subgroup_generated(c2, [v])),
    "WreathGroup.encode digit": (WreathlabError, lambda c2, v: _c2_wreath().encode([v, 0], 0)),
    "WreathGroup.encode top": (WreathlabError, lambda c2, v: _c2_wreath().encode([0, 0], v)),
    "WreathGroup.decode": (WreathlabError, lambda c2, v: _c2_wreath().decode(v)),
    "default_section target": (SectionMismatchError, lambda c2, v: default_section(
        _c4_onto_c2(), {v: 3})),
    "default_section preimage": (SectionMismatchError, lambda c2, v: default_section(
        _c4_onto_c2(), {1: v})),
}


@pytest.mark.parametrize("value", [True, False, 1.0, 1.5, np.float64(1), "1", None, 2**63],
                         ids=repr)
@pytest.mark.parametrize("entry", list(INDEX_ENTRY_POINTS))
def test_every_entry_point_refuses_an_index_that_is_not_an_int64_integer(entry, value):
    """Each once took some of these: a bool as 0 or 1, a float or str by int(), a float
    point map by np.array, and a float override escaped as IndexError."""
    error, call = INDEX_ENTRY_POINTS[entry]
    with pytest.raises(error):
        call(construct_named("C:2"), value)


@pytest.mark.parametrize("value", [1, np.int64(1), np.uint8(1)], ids=repr)
@pytest.mark.parametrize("entry", list(INDEX_ENTRY_POINTS))
def test_every_entry_point_takes_python_and_numpy_ints(entry, value):
    INDEX_ENTRY_POINTS[entry][1](construct_named("C:2"), value)


def test_out_of_range_generators_and_overrides_are_refused():
    c4 = construct_named("C:4")
    for gens in ([4], [-1], [1, 2**40]):
        with pytest.raises(GroupValidationError, match="range"):
            subgroup_generated(c4, gens)
    for preimage in (7, -1, 2):
        with pytest.raises(SectionMismatchError, match=f"override {preimage} is not a preimage"):
            default_section(_c4_onto_c2(), {1: preimage})
    assert default_section(_c4_onto_c2(), {1: 3}).choice.tolist() == [0, 3]


def test_a_truncating_section_no_longer_builds_a_kk_embedding():
    """[0, 1.9] once loaded as [0, 1], a section of S:3 -> C:2 through the choice 1."""
    s3 = construct_named("S:3")
    ses = suites.ses_from_subgroup(s3, suites.find_normal_subgroup(s3, "A:3")[1])
    with pytest.raises(SectionMismatchError, match="float"):
        kk_embedding(ses, Section(ses.q, ses.g, [0, 1.9]))


def test_scalar_mul_and_inv_return_python_ints(s4):
    assert all(type(s4.mul(a, b)) is int for a in range(24) for b in range(24))
    assert [s4.inv(a) for a in range(24)] == s4.inverses.tolist()
    assert all(type(s4.inv(a)) is int for a in range(24))


# -- closure by doubling and cosets ----------------------------------------------------


NAMED_UP_TO_120 = ([f"C:{n}" for n in range(1, 121)] + [f"D:{n}" for n in range(2, 61)]
                   + [f"S:{n}" for n in range(1, 6)] + [f"A:{n}" for n in range(2, 6)]
                   + [f"AGL:{p}" for p in (2, 3, 5, 7)] + ["V4", "Q8"])


def test_named_orders_match_the_built_group_and_its_centre():
    for spec in NAMED_UP_TO_120 + ["S:6", "A:6", "D:1023", "D:1024"]:
        g = construct_named(spec)
        assert named_orders(f" {spec} ") == (g.order, len(g.center_indices())), spec


def test_coset_closure_matches_brute_force_on_named_families_and_relabeled_tables():
    rng = random.Random(18)
    for spec in NAMED_UP_TO_120:
        g = construct_named(spec)
        groups_ = [g, relabeled(g, rng)] if g.order in (12, 24, 32, 60, 64, 120) else [g]
        for h in groups_:
            for gens in generator_sets(h, rng):
                assert closure(h, gens) == sorted(brute_closure(h, gens)), (spec, gens)


def test_normal_core_matches_the_sweep_on_named_families_and_relabeled_tables():
    rng = random.Random(34)
    for spec in NAMED_UP_TO_120:
        g = construct_named(spec)
        for h in [g, relabeled(g, rng)] if g.order in (12, 24, 32, 60, 64, 120) else [g]:
            for gens in generator_sets(h, rng):
                members = closure(h, gens)
                _sub, incl = subgroup_from_elements(h, members)
                core, core_incl = normal_core(h, incl)
                assert core_incl.image.tolist() == normal_core_sweep(h, members), (spec, gens)
                assert core.name == f"core of {incl.domain.name} in {h.name}"


def test_coset_closure_matches_brute_force_on_find_normal_subgroup_calls(monkeypatch):
    calls = []

    def checked(g, gens, start=None):
        gens = list(gens)
        out = closure(g, gens, start)
        assert out == sorted(brute_closure(g, gens))
        calls.append(len(gens))
        return out

    monkeypatch.setattr(suites, "closure", checked)
    for spec, sub in (("S:3", "A:3"), ("D:4", "V4"), ("S:4", "V4"), ("S:4", "A:4"),
                      ("Q8", "C:4"), ("A:5", "A:5"), ("D:6", "C:6")):
        suites.find_normal_subgroup(construct_named(spec), sub)
    assert max(calls) >= 8  # unions of classes: many generators in one call


def test_closure_of_a_cyclic_group_doubles_its_powers():
    g = construct_named("C:4096")
    count = [0]

    def counting(a, b):
        count[0] += 1
        return groups.FiniteGroup.mul_array(g, a, b)

    g.mul_array = counting
    assert closure(g, [1]) == list(range(4096))
    assert count[0] <= 2 * 12 + 2  # the breadth-first closure made 4096 calls
