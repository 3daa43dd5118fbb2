import json
import time

import numpy as np
import pytest

from wreathlab import (
    ActionValidationError,
    FiniteGSet,
    action_from_json,
    action_to_json,
    check_equivariant,
    construct_named,
    coset_action,
    group_to_json,
    identity_hom,
    load_action,
    natural_action,
    regular_action,
    save_action,
    subgroup_from_elements,
)
from wreathlab.search import are_isomorphic


def test_regular_action_of_c2_swaps_points():
    g = construct_named("C:2")
    om = regular_action(g)
    assert om.size == 2
    assert om.apply(1, 0) == 1 and om.apply(1, 1) == 0


def test_regular_action_of_trivial_group():
    om = regular_action(construct_named("C:1"))
    assert om.size == 1 and om.apply(0, 0) == 0


def test_regular_action_table_is_the_cayley_table(s3):
    om = regular_action(s3)
    assert (om.act == s3.table).all()


def test_regular_action_skips_the_sweep_that_user_actions_keep(monkeypatch):
    d = construct_named("D:2048")
    start = time.perf_counter()
    om = regular_action(d)
    elapsed = time.perf_counter() - start
    assert om.act is d.table and om.size == d.order and om.point_labels == d.labels
    assert elapsed < 0.05, elapsed  # the compatibility sweep took 0.24-0.38 s
    # an action built from outside is still checked, on the same table
    swept = []
    monkeypatch.setattr(FiniteGSet, "_validate", lambda self: swept.append(self))
    c4 = construct_named("C:4")
    regular_action(c4)
    assert swept == []
    FiniteGSet(c4, c4.table)
    assert len(swept) == 1


def test_regular_action_is_free_and_transitive(s4):
    om = regular_action(s4)
    for w1 in range(om.size):
        for w2 in range(om.size):
            carriers = [h for h in range(s4.order) if om.apply(h, w1) == w2]
            assert len(carriers) == 1


def test_coset_action_by_whole_group(s3):
    _, incl = subgroup_from_elements(s3, range(s3.order))
    om, sec = coset_action(s3, incl)
    assert om.size == 1
    assert sec(0) == s3.identity


def test_coset_action_on_stabilizer_is_the_point_action(s4):
    members = [i for i, pm in enumerate(s4.point_maps) if pm[3] == 3]
    _, incl = subgroup_from_elements(s4, members)
    om, sec = coset_action(s4, incl)
    assert om.size == 4
    assert om.is_transitive()
    # section contract: each representative lies in its own coset
    coset_of = {}
    for w in range(om.size):
        for hh in members:
            coset_of[s4.mul(int(sec(w)), hh)] = w
    for w in range(om.size):
        assert coset_of[int(sec(w))] == w
    # the coset action is equivariantly the natural point action: xi maps a
    # coset to the image of the stabilized point under its representative
    nat = natural_action(4, s4)
    xi = [s4.point_maps[int(sec(w))][3] for w in range(om.size)]
    assert check_equivariant(xi, om, nat, identity_hom(s4))


def test_natural_action_of_s3_and_a4():
    s3 = construct_named("S:3")
    om = natural_action(3, s3)
    assert om.is_transitive()
    stab = [h for h in range(s3.order) if om.apply(h, 0) == 0]
    assert len(stab) == 2
    a4 = construct_named("A:4")
    assert natural_action(4, a4).is_transitive()


def test_agl3_evaluation_action():
    agl = construct_named("AGL:3")
    om = natural_action(3, agl)
    assert om.size == 3 and om.is_transitive()
    # gamma_{a,b}(t) = a t + b: index of gamma_{2,1} is (2-1)*3 + 1 = 4
    assert [om.apply(4, t) for t in range(3)] == [1, 0, 2]


def test_natural_action_requires_point_data():
    with pytest.raises(ActionValidationError):
        natural_action(2, construct_named("C:2"))


def test_equivariance_identity_case(s3):
    om = regular_action(s3)
    assert check_equivariant(list(range(om.size)), om, om, identity_hom(s3))


def test_equivariance_rejects_scrambled_orbit():
    s3 = construct_named("S:3")
    om = natural_action(3, s3)
    # search the 3-point bijections: only those commuting with every
    # permutation survive, and for the full symmetric action that is identity
    good = [xi for xi in [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]
            if check_equivariant(xi, om, om, identity_hom(s3))]
    assert good == [(0, 1, 2)]


def test_equivariance_matches_a_pointwise_scan():
    import itertools

    s3, agl = construct_named("S:3"), construct_named("AGL:3")
    cases = [(natural_action(3, s3), natural_action(3, s3), identity_hom(s3)),
             (natural_action(3, agl), natural_action(3, s3), are_isomorphic(agl, s3)),
             (regular_action(s3), regular_action(s3), identity_hom(s3))]
    for om, om_hat, phi in cases:
        for xi in itertools.islice(itertools.permutations(range(om.size)), 200):
            scan = all(xi[om.apply(h, w)] == om_hat.apply(phi(h), xi[w])
                       for h in range(om.group.order) for w in range(om.size))
            assert check_equivariant(list(xi), om, om_hat, phi) == scan


def test_action_axioms_rejected_when_broken():
    c4 = construct_named("C:4")
    with pytest.raises(ActionValidationError):
        FiniteGSet(c4, [[0, 1], [1, 0], [1, 0], [0, 1]])  # compatibility fails
    with pytest.raises(ActionValidationError):
        FiniteGSet(construct_named("C:2"), [[1, 0], [0, 1]])  # identity row fails


def test_action_json_roundtrip(tmp_path, d4):
    om = regular_action(d4)
    path = tmp_path / "act.json"
    with open(path, "w") as fh:
        json.dump(action_to_json(om), fh)
    with open(path) as fh:
        loaded = action_from_json(json.load(fh))
    assert loaded.size == om.size
    assert (loaded.act == om.act).all()
    assert loaded.point_labels == om.point_labels


def c2_action_json():
    return action_to_json(regular_action(construct_named("C:2")))  # act [[0, 1], [1, 0]]


@pytest.mark.parametrize("size", ["2", 2.0, 2.5, True, None])
def test_action_json_size_must_be_an_exact_int(size):
    data = c2_action_json()
    data["size"] = size
    with pytest.raises(ActionValidationError, match="'size' must be an integer"):
        action_from_json(data)


@pytest.mark.parametrize("data", [[1, 2], "act", 7, None])
def test_action_json_must_be_an_object(data):
    with pytest.raises(ActionValidationError, match="action JSON must be an object"):
        action_from_json(data)


@pytest.mark.parametrize("labels", [5, "ab", [0, 1], ["0", None]])
def test_action_json_point_labels_must_be_a_list_of_strings(labels):
    # 5 once raised TypeError, and "ab" was read as the labels a and b
    data = c2_action_json()
    data["point_labels"] = labels
    with pytest.raises(ActionValidationError, match="point_labels must be a list of strings"):
        action_from_json(data)


@pytest.mark.parametrize("key", ["group", "size", "act"])
def test_action_json_names_a_missing_key(key):
    data = c2_action_json()
    del data[key]
    with pytest.raises(ActionValidationError, match=f"action JSON missing key '{key}'"):
        action_from_json(data)


@pytest.mark.parametrize("act", [[[0, 1.9], [1, 0]], [[0, 1.0], [1, 0]], [[0, True], [1, 0]],
                                 [[0, "1"], [1, 0]], [[0, None], [1, 0]], "01,10"])
def test_action_json_act_must_be_rows_of_exact_ints(act):
    # [[0, 1.9], [1, 0]] once loaded as the regular action of C:2, its 1.9 truncated to 1
    data = c2_action_json()
    data["act"] = act
    with pytest.raises(ActionValidationError, match="'act' must be int64 integers"):
        action_from_json(data)


@pytest.mark.parametrize("act", [[[0, 1.9], [1, 0]], [[0, 1.0], [1, 0]], [[0, True], [1, 0]],
                                 [[0, "1"], [1, 0]], [[0, None], [1, 0]], "01,10",
                                 [[0, True], ["1", 0]], np.array([[0, 1.9], [1, 0]]),
                                 np.array([[True, False], [False, True]])])
def test_in_process_action_cells_must_be_exact_ints(act):
    # [[0, 1.9], [1, 0]] and [[0, True], ["1", 0]] once loaded as the regular action of C:2
    with pytest.raises(ActionValidationError, match="'act' must be int64 integers"):
        FiniteGSet(construct_named("C:2"), act)


@pytest.mark.parametrize("act", [[[0, 1], [1]], [[0, 2**70], [1, 0]]])
def test_action_tables_that_are_not_int64_arrays_are_refused(act):
    with pytest.raises(ActionValidationError, match="'act' (rows differ in length|must be int64)"):
        FiniteGSet(construct_named("C:2"), act)


def test_integer_action_tables_of_any_width_are_accepted():
    c2 = construct_named("C:2")
    for act in ([[0, 1], [1, 0]], ((0, 1), (1, 0)), np.array([[0, 1], [1, 0]], dtype=np.uint8)):
        om = FiniteGSet(c2, act)
        assert om.act.dtype == np.int64 and om.act.tolist() == [[0, 1], [1, 0]]


@pytest.mark.parametrize("text", ["1.0", "1.9", "NaN", "Infinity"])
def test_action_file_refuses_a_non_integer_number_at_parse_time(tmp_path, text):
    path = tmp_path / "act.json"
    path.write_text(json.dumps(c2_action_json()).replace('"act": [[0, 1]', f'"act": [[0, {text}]'))
    with pytest.raises(ActionValidationError, match=f"JSON number {text} is not an integer"):
        load_action(path)


def test_action_file_that_is_not_json_is_refused(tmp_path):
    path = tmp_path / "act.json"
    path.write_text("{not json")
    with pytest.raises(ActionValidationError, match="is not JSON"):
        load_action(path)


def test_action_file_roundtrip(tmp_path):
    om = natural_action(3, construct_named("S:3"))
    path = tmp_path / "act.json"
    save_action(om, path)
    loaded = load_action(path)
    assert (loaded.act == om.act).all() and loaded.point_labels == om.point_labels


def save_action_with_json_dump(omega, path):
    """The action writer before ``tolist`` and one ``json.dumps``: a test oracle."""
    data = {"group": group_to_json(omega.group), "size": omega.size,
            "act": [[int(v) for v in row] for row in omega.act],
            "point_labels": list(omega.point_labels)}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)
        fh.write("\n")


def test_save_action_writes_the_bytes_of_the_json_dump_writer(tmp_path):
    s4 = construct_named("S:4")
    stab, incl = subgroup_from_elements(s4, [x for x in range(24) if s4.point_maps[x][3] == 3])
    actions = [regular_action(construct_named("D:4")), regular_action(construct_named("C:1")),
               natural_action(4, s4), natural_action(3, construct_named("AGL:3")),
               coset_action(s4, incl)[0]]
    for omega in actions:
        save_action(omega, tmp_path / "new.json")
        save_action_with_json_dump(omega, tmp_path / "old.json")
        assert (tmp_path / "new.json").read_bytes() == (tmp_path / "old.json").read_bytes()
        assert load_action(tmp_path / "new.json").act.tolist() == omega.act.tolist()
