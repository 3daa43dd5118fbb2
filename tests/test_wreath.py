import gc
import importlib
import importlib.util
import itertools
import re
import weakref
from pathlib import Path

import numpy as np
import pytest

from wreathlab import (
    FiniteGSet,
    GroupHom,
    GroupValidationError,
    SizeLimitError,
    WreathlabError,
    build_wreath,
    certify_hom,
    construct_named,
    natural_action,
    regular_action,
    regular_wreath,
    save_group,
)
from wreathlab import wreath
from wreathlab.groups import FiniteGroup, closure, direct_product
from wreathlab.search import are_isomorphic
from wreathlab.suites import THETA_CATALOG, _theta_omega, check_theta_properties
from wreathlab.wreath import WreathGroup, _check_wreath_order
from tests.oracles import brute_wreath_mul, check_presentation_d4, element_order, wreath_label


def theta_of(w, h, f):
    """theta_h(f) for a tuple f, read off ``WreathGroup.theta_table``, the package's one
    statement of theta."""
    t = w.encode(f, w.top.group.identity) % w.tuple_count
    return w.decode(int(w.theta_table()[h, t]))[0]


def top_projection(w):
    """(f, h) |-> h as an unvalidated hom; the tests below prove its law."""
    image = np.arange(w.order, dtype=np.int64) // w.tuple_count
    return GroupHom(w, w.top.group, image, validate=False)


def base_inclusion(w, f):
    """Index of the base tuple f at the identity top element."""
    return w.encode(f, w.top.group.identity)


# -- theta -----------------------------------------------------------------------


def test_theta_identity_fixes_tuples():
    w = regular_wreath(construct_named("C:6"), construct_named("S:3"))
    f = (0, 3, 1, 2, 5, 4)
    assert theta_of(w, 0, f) == f


def test_theta_swaps_the_two_middle_tuples():
    w = regular_wreath(construct_named("C:2"), construct_named("C:2"))
    assert theta_of(w, 1, (0, 1)) == (1, 0)
    assert theta_of(w, 1, (1, 0)) == (0, 1)
    assert theta_of(w, 1, (0, 0)) == (0, 0)
    assert theta_of(w, 1, (1, 1)) == (1, 1)


def test_theta_rejects_wrong_length():
    w = regular_wreath(construct_named("C:2"), construct_named("C:2"))
    with pytest.raises(WreathlabError):
        theta_of(w, 1, (0, 1, 0))


def theta_all_pairs(k, omega):
    """Oracle for ``check_theta_properties``: the theta laws swept over all pairs.

    theta_(h1 h2) = theta_h1 o theta_h2 for every (h1, h2), then for each h
    that theta_h is a bijection and theta_h(fg) = theta_h(f) theta_h(g) for
    every (f, g); returns the first failure, or None.
    """
    w = WreathGroup(k, omega)
    h_grp = omega.group
    tuples = np.arange(w.tuple_count)
    prod, pv = w.tuple_product(tuples[:, None], tuples[None, :]), w.theta_table()
    b = prod.shape[0]
    for h1 in range(h_grp.order):
        for h2 in range(h_grp.order):
            lhs = pv[h_grp.table[h1, h2]]
            rhs = pv[h1][pv[h2]]
            if not (lhs == rhs).all():
                f = int(np.nonzero(lhs != rhs)[0][0])
                return f"theta_(h1 h2) != theta_h1 o theta_h2 at (h1,h2,f)=({h1},{h2},{f})"
    for h in range(h_grp.order):
        if np.bincount(pv[h], minlength=b).max() != 1:
            return f"theta_{h} is not a bijection"
        lhs = pv[h][prod]
        rhs = prod[pv[h][:, None], pv[h][None, :]]
        if not (lhs == rhs).all():
            f, g = (int(v) for v in np.argwhere(lhs != rhs)[0])
            return f"theta_{h}(fg) != theta_{h}(f) theta_{h}(g) at (f,g)=({f},{g})"
    return None


CHECK_KINDS = ("is not the identity", "is not a bijection", "theta_(h1 h2)", "(fg)")


def check_kind(failure):
    return next(kind for kind in CHECK_KINDS if kind in failure)


def test_theta_certificate_counts_its_checks_and_covers_trivial_groups():
    # B = 8 tuples, H = C:2 with one generator, 3 generator tuples of K^Omega:
    # 8 (identity) + 8 (bijection) + 2*8 (hom law) + 8*3 (multiplicativity)
    k, omega = construct_named("C:2"), natural_action(3, construct_named("S:3"))
    omega = FiniteGSet(construct_named("C:2"), omega.act[[0, 1]])
    def outcome(k, omega):
        cert = check_theta_properties(k, omega)
        assert cert.method == "generator-certified" and cert.elapsed_s >= 0
        return cert.counterexample, cert.checks

    assert outcome(k, omega) == (None, 56)
    c1 = construct_named("C:1")
    assert outcome(c1, regular_action(c1)) == (None, 1)
    assert outcome(construct_named("C:3"), regular_action(c1)) == (None, 3)
    assert outcome(c1, regular_action(construct_named("C:3")))[0] is None


def test_theta_certificate_agrees_with_the_oracle_on_swapped_action_rows(monkeypatch):
    """Every pair of rows swapped in the action table of the first 15 shapes."""
    monkeypatch.setattr(FiniteGSet, "_validate", lambda self: None)
    kinds = set()
    mutants = 0
    for k_spec, h_spec, degree in THETA_CATALOG[:15]:
        k, omega = _theta_omega(k_spec, h_spec, degree)
        for a, b in itertools.combinations(range(omega.group.order), 2):
            act = omega.act.copy()
            act[[a, b]] = act[[b, a]]
            mutant = FiniteGSet(omega.group, act)
            failure = check_theta_properties(k, mutant).counterexample
            assert (failure is None) == (theta_all_pairs(k, mutant) is None), (k_spec, h_spec, a, b)
            mutants += 1
            if failure is not None:
                kinds.add(check_kind(failure))
    assert mutants == 390
    assert kinds == {"is not the identity", "theta_(h1 h2)"}


def twist_mul(monkeypatch, x0, y0, z0):
    """Make WreathGroup.mul_array return z0 for the product x0 y0 and the true value elsewhere."""
    true_mul = WreathGroup.mul_array

    def mul(self, x, y):
        hit = (np.asarray(x) == x0) & (np.asarray(y) == y0)
        return np.where(hit, z0, true_mul(self, x, y))

    monkeypatch.setattr(WreathGroup, "mul_array", mul)


@pytest.mark.parametrize("k_spec,h_spec,degree", THETA_CATALOG[:15])
def test_theta_certificate_agrees_with_the_oracle_on_twisted_products(monkeypatch, k_spec,
                                                                      h_spec, degree):
    """Twists that reach theta or a product with a generator of K^Omega.

    The certificate presumes that the tuple product is a group, as K's table
    is certified and the product formula multiplies tuples pointwise; a twist
    elsewhere in the product breaks that premise, and the dense-vs-structural
    differential test below covers the product itself.
    """
    k, omega = _theta_omega(k_spec, h_spec, degree)
    w = WreathGroup(k, omega)
    b = w.tuple_count
    e = w.identity - w.identity % b
    unit = w.identity % b
    s = omega.group.generators()[0]
    g0 = unit + (k.generators()[0] - k.identity)  # K's first generator at point 0
    f1 = (g0 + 1) % b
    collide = w.mul(s * b + unit, e + g0)
    square = w.mul(e + g0, e + g0)
    mutants = [
        # theta_s(f1) = theta_s(g0): theta_s is not injective
        (s * b + unit, e + f1, collide, "is not a bijection"),
        # g0 g0 moved to another tuple: theta_s no longer respects it
        (e + g0, e + g0, e + (square + 1) % b, "(fg)"),
    ]
    for x0, y0, z0, kind in mutants:
        with monkeypatch.context() as m:
            twist_mul(m, x0, y0, z0)
            failure = check_theta_properties(k, omega).counterexample
            assert failure is not None and check_kind(failure) == kind, failure
            assert theta_all_pairs(k, omega) is not None
    assert check_theta_properties(k, omega).counterexample is None


# -- construction ------------------------------------------------------------------


def test_c2_wreath_c2_is_d4():
    w = regular_wreath(construct_named("C:2"), construct_named("C:2"))
    assert w.order == 8
    assert are_isomorphic(w.dense(), construct_named("D:4")) is not None


def test_trivial_base_reproduces_the_top(s3):
    w = regular_wreath(construct_named("C:1"), s3)
    assert w.order == 6
    assert are_isomorphic(w.dense(), s3) is not None


def test_s3_natural_wreath_order(s3):
    w = build_wreath(s3, natural_action(3, s3))
    assert w.order == 6**3 * 6 == 1296


def test_regular_wreath_size_law():
    w = regular_wreath(construct_named("A:3"), construct_named("C:2"))
    assert w.order == 3**2 * 2 == 18
    w = regular_wreath(construct_named("C:1"), construct_named("C:1"))
    assert w.order == 1


def test_an_enumeration_refusal_carries_the_exact_order():
    w = regular_wreath(construct_named("C:10"), construct_named("D:4"))
    with pytest.raises(SizeLimitError,
                       match="^theta table of order 800000000 exceeds the byte budget 67108864$") as err:
        w.theta_table()
    assert err.value.order == 10**8 * 8


def test_the_theta_table_is_built_in_blocks_of_tops_near_its_own_size(peak_mb):
    """C:2 wr_r C:16: 16 tops of 2^16 tuples, one top per block, 8 MB of int64.  Built
    in one block, ``mul_array``'s temporaries peaked at 33.5 MB.  On the regular
    action theta_h(f)(w) = f(w - h), so theta_h rotates the bits of f left by h."""
    w = regular_wreath(construct_named("C:2"), construct_named("C:16"))
    theta, peak = peak_mb(w.theta_table)
    assert theta.nbytes == 8 * 2**20
    assert peak <= 1.5 * 8, f"peak {peak:.2f} MB"
    f, h = np.arange(2**16), np.arange(16)[:, None]
    assert (theta == ((f << h) | (f >> (16 - h))) & 0xFFFF).all()


def test_an_order_past_int64_is_refused_whatever_the_cap():
    """C:2 wr_r C:62 has order 62 * 2^62 >= 2^63: its indices would wrap in int64."""
    with pytest.raises(SizeLimitError, match="int64") as err:
        regular_wreath(construct_named("C:2"), construct_named("C:62"))
    assert err.value.order == 2**62 * 62
    with pytest.raises(SizeLimitError, match="int64"):
        WreathGroup(construct_named("C:2"), regular_action(construct_named("C:62")))
    # the largest order below the limit is still a structural product
    w = regular_wreath(construct_named("C:2"), construct_named("C:1"))
    assert w.order == 2


@pytest.mark.parametrize("n_base,n_points,n_top,at_least,text", [
    (10, 19, 9, False, "wreath order 90000000000000000000 exceeds the int64 index range"),
    (10, 20, 1, False, "wreath order 10^20 * 1 exceeds the int64 index range"),
    (2, 2048, 2048, True, "wreath order at least 2^2048 * 2048 exceeds the int64 index range"),
])
def test_the_refusal_writes_an_order_past_20_digits_as_a_power(n_base, n_points, n_top,
                                                                at_least, text):
    with pytest.raises(SizeLimitError) as err:
        _check_wreath_order(n_base, n_points, n_top, at_least)
    assert str(err.value) == text and err.value.order == n_base**n_points * n_top


def test_an_order_of_2_to_the_65536_or_more_is_refused_without_being_formed():
    """2^(2^40) would take 2^37 bytes: past 2^16 points the refusal never forms it."""
    with pytest.raises(SizeLimitError) as err:
        _check_wreath_order(2, 2**40, 2**40)
    assert str(err.value) == ("wreath order 2^1099511627776 * 1099511627776 "
                              "exceeds the int64 index range")
    assert err.value.order is None
    # a trivial base group has order n_top, whatever the points
    _check_wreath_order(1, 2**40, 5)


def digit_decode(w, x):
    """The mixed-radix decode as a digit loop: point 0 is the least significant digit."""
    h, t = divmod(x, w.base_group.order**w.top.size)
    digits = []
    for _ in range(w.top.size):
        t, d = divmod(t, w.base_group.order)
        digits.append(d)
    return tuple(digits), h


def test_encode_decode_roundtrip():
    w = build_wreath(construct_named("S:3"), natural_action(3, construct_named("S:3")))
    for x in range(w.order):
        f, h = w.decode(x)
        assert (f, h) == digit_decode(w, x)
        assert all(type(v) is int for v in (*f, h))
        assert w.encode(f, h) == x
        assert type(w.encode(f, h)) is int
    with pytest.raises(WreathlabError, match="wreath index 1296 out of range"):
        w.decode(w.order)
    with pytest.raises(WreathlabError, match="wreath index -1 out of range"):
        w.decode(-1)
    with pytest.raises(WreathlabError, match=r"tuple length 2 != \|Omega\| = 3"):
        w.encode((0, 0), 0)
    with pytest.raises(WreathlabError, match=re.escape("tuple digit 6 out of range 0..5")):
        w.encode((0, 6, 0), 0)
    with pytest.raises(WreathlabError, match=re.escape("tuple digit -1 out of range 0..5")):
        w.encode((-1, 0, 0), 0)
    with pytest.raises(WreathlabError, match="top index 6 out of range"):
        w.encode((0, 0, 0), 6)


def test_multiplication_matches_brute_formula_on_all_pairs():
    for w in (
        regular_wreath(construct_named("C:2"), construct_named("C:2")),
        regular_wreath(construct_named("A:3"), construct_named("C:2")),
        build_wreath(construct_named("C:2"), natural_action(3, construct_named("S:3"))),
    ):
        table = w.dense().table
        for x in range(w.order):
            for y in range(w.order):
                assert int(table[x, y]) == brute_wreath_mul(w, x, y)


def test_inverse_examples():
    w = regular_wreath(construct_named("C:2"), construct_named("C:2"))
    e = w.encode((0, 0), 0)
    assert w.inv(e) == e
    x = w.encode((0, 1), 1)
    assert w.inv(x) == w.encode((1, 0), 1)  # x^-1 = x^3
    base = w.encode((1, 1), 0)
    assert w.inv(base) == base


def test_structural_representation_above_dense_cap():
    w = regular_wreath(construct_named("C:2"), construct_named("D:4"))
    assert isinstance(w, WreathGroup)
    assert w.order == 2**8 * 8
    # spot-check the structural arithmetic against the defining formula
    rng = np.random.default_rng(0)
    for _ in range(200):
        x, y = (int(v) for v in rng.integers(0, w.order, 2))
        assert w.mul(x, y) == brute_wreath_mul(w, x, y)
        assert w.mul(x, w.inv(x)) == w.identity


def test_top_projection_is_exact():
    w = regular_wreath(construct_named("A:3"), construct_named("C:2"))
    proj = top_projection(w)
    assert proj.find_hom_counterexample() is None
    assert proj.is_surjective()
    # kernel is exactly the base tuples (top component = identity)
    kernel = set(proj.kernel_indices())
    base = {base_inclusion(w, f) for f in np.ndindex(3, 3)}
    assert kernel == base
    # section property: base tuples project to the identity
    for x in base:
        assert proj(x) == w.top.group.identity


def test_element_print_and_parse():
    w = regular_wreath(construct_named("C:2"), construct_named("C:2"))
    assert w.label(w.encode((0, 1), 1)) == "(0,1; 1)"
    assert w.label_index("(0,1; 1)") == w.encode((0, 1), 1)
    for x in range(w.order):
        assert w.label_index(w.label(x)) == x
    with pytest.raises(WreathlabError):
        w.label_index("0,1; 1")
    with pytest.raises(WreathlabError):
        w.label_index("(0; 1)")


def test_a_label_with_commas_reads_back():
    c2 = construct_named("C:2")
    w = regular_wreath(direct_product(c2, c2), c2)
    assert w.label(5) == "((0,1),(0,1); 0)"
    assert w.label_index("((0,1),(0,1); 0)") == 5
    for text in ("((0,1); 0)", "((0,1),(0,1),(0,0); 0)"):
        with pytest.raises(WreathlabError, match="expected 2 tuple entries"):
            w.label_index(text)
    for text in ("((0,1),(0,1) 0)", "((0,1),(0,1); 0; 1)", "(0,1),(0,1); 0", "()"):
        with pytest.raises(WreathlabError, match="cannot parse"):
            w.label_index(text)
    nested = build_wreath(regular_wreath(c2, c2), regular_action(c2))  # a wreath as base group
    assert nested.label(37) == "((1,0; 1),(0,0; 1); 0)"
    assert nested.label_index("((1,0; 1),(0,0; 1); 0)") == 37


def test_element_orders_in_the_d4_wreath():
    w = regular_wreath(construct_named("C:2"), construct_named("C:2"))
    x = w.encode((0, 1), 1)
    y = w.encode((0, 0), 1)
    assert element_order(w, x) == 4
    assert element_order(w, y) == 2


def test_projection_law_exhaustively_on_a_large_dense_wreath():
    # the projection is built without validation; check it on all pairs here
    s3 = construct_named("S:3")
    w = build_wreath(s3, natural_action(3, s3))
    assert w.order == 1296
    assert top_projection(w).find_hom_counterexample() is None


def test_projection_law_on_generators_of_a_structural_wreath():
    v4, s3 = construct_named("V4"), construct_named("S:3")
    w = regular_wreath(v4, s3)
    assert isinstance(w, WreathGroup)
    assert w.order == 24576
    unit = [v4.identity] * 6
    gens = ([w.encode([k] + unit[1:], s3.identity) for k in v4.generators()]
            + [w.encode(unit, h) for h in s3.generators()])
    assert closure(w, gens) == list(range(w.order))
    # phi(x s) = phi(x) phi(s) for every x and generator s is the law on all pairs
    proj, g = top_projection(w), w
    x, s = np.arange(w.order)[:, None], np.array(gens)
    assert (proj.image[g.mul_array(x, s)] == s3.mul_array(proj.image[x], proj.image[s])).all()
    assert g.generators() == gens


def test_structural_generators_cover_every_orbit_and_certify_homs():
    c2 = construct_named("C:2")
    omega = FiniteGSet(c2, [[0, 1, 2], [1, 0, 2]])  # orbits {0, 1} and {2}
    w = build_wreath(c2, omega)
    gens = w.generators()
    assert gens == [w.encode((1, 0, 0), 0), w.encode((0, 0, 1), 0), w.encode((0, 0, 0), 1)]
    assert closure(w, gens) == list(range(w.order))
    # homs out of a structural product are validated on these generators
    assert certify_hom(GroupHom(w, c2, top_projection(w).image)).counterexample is None
    broken = np.array(top_projection(w).image)
    broken[gens[0]] = 1
    assert GroupHom(w, c2, broken, validate=False).find_hom_counterexample() is not None
    with pytest.raises(GroupValidationError, match="hom law fails"):
        GroupHom(w, c2, broken)


def test_structural_generators_take_the_least_point_of_interleaved_orbits():
    c2 = construct_named("C:2")
    omega = FiniteGSet(c2, [[0, 1, 2, 3, 4], [2, 3, 0, 1, 4]])  # orbits {0, 2}, {1, 3} and {4}
    w = build_wreath(c2, omega)
    base = [w.encode(f, 0) for f in ((1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 0, 0, 1))]
    assert w.generators() == base + [w.encode((0,) * 5, 1)]
    assert closure(w, w.generators()) == list(range(w.order))


DENSE_THETA_SHAPES = [c for c in THETA_CATALOG if c[:2] != ("C:5", "C:5")]


@pytest.mark.parametrize("k_spec,h_spec,degree", DENSE_THETA_SHAPES)
def test_codec_generators_generate_every_dense_product(k_spec, h_spec, degree):
    k, omega = _theta_omega(k_spec, h_spec, degree)
    w = build_wreath(k, omega)
    dense = w.dense()
    assert isinstance(dense, FiniteGroup)
    # the dense table takes the structural product's generators
    gens = dense.generators()
    assert gens == w.generators()
    assert closure(dense, gens) == list(range(w.order))
    # so homs out of the dense product are checked on them: the projection passes, a
    # change at one generator fails
    proj = top_projection(w)
    GroupHom(dense, omega.group, proj.image)
    broken = np.array(proj.image)
    broken[gens[-1]] = omega.group.identity
    with pytest.raises(GroupValidationError, match="hom law fails"):
        GroupHom(dense, omega.group, broken)


def test_structural_c2_wreath_c2_builds_and_keeps_the_d4_presentation():
    w = regular_wreath(construct_named("C:2"), construct_named("C:2"))
    assert isinstance(w, WreathGroup)
    assert w._dense is None  # the dense table is built on request only
    proj = top_projection(w)
    assert proj.find_hom_counterexample() is None
    assert proj.kernel_indices() == [base_inclusion(w, f) for f in ((0, 0), (1, 0), (0, 1), (1, 1))]
    x = w.encode((0, 1), 1)
    y = w.encode((0, 0), 1)
    assert check_presentation_d4(w, x, y)
    assert element_order(w, x) == 4
    assert w.power(x, -1) == w.inv(x)
    assert not check_presentation_d4(w, y, x)


@pytest.mark.parametrize("k_spec,h_spec,degree", THETA_CATALOG + [("C:45", "C:2", None)])
def test_the_array_codec_agrees_with_the_scalar_codec(k_spec, h_spec, degree):
    w = build_wreath(*_theta_omega(k_spec, h_spec, degree))
    idx = np.arange(w.order)
    digits, tops = w.decode_array(idx)
    assert digits.shape == (w.order, w.top.size)
    assert [(tuple(map(int, f)), int(h)) for f, h in zip(digits, tops)] == \
        [w.decode(x) for x in idx]
    assert (w.encode_array(digits, tops) == idx).all()
    assert [w.encode(f, int(h)) for f, h in zip(digits, tops)] == idx.tolist()


def test_the_dense_table_is_built_once_and_refused_past_the_cap():
    w = regular_wreath(construct_named("C:2"), construct_named("C:3"))
    dense = w.dense()
    assert w.dense() is dense
    structural = build_wreath(*_theta_omega("C:5", "C:5", None))
    with pytest.raises(SizeLimitError, match="byte budget"):
        structural.dense()  # C:5 wr C:5 has no dense table


@pytest.mark.parametrize("k_spec,h_spec,degree", THETA_CATALOG)
def test_codec_labels_match_the_scalar_format(k_spec, h_spec, degree):
    w = build_wreath(*_theta_omega(k_spec, h_spec, degree))
    idx = np.arange(w.order)
    assert w.labels(idx) == [wreath_label(w, x) for x in idx.tolist()]
    assert w.labels([]) == []
    for bad in (-1, w.order):
        with pytest.raises(WreathlabError, match=f"wreath index {bad} out of range"):
            w.label(bad)


def test_every_method_the_tracer_wraps_is_defined_on_its_own_class():
    """The benchmark tracer wraps each method through ``cls.__dict__``, so a method
    only inherited (or renamed away) would crash a traced run; its two shims stay."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for table in (spans.METHODS, spans.COUNTED):
        for layer, classes in table.items():
            module = importlib.import_module(f"wreathlab.{layer}")
            for cls_name, methods in classes.items():
                for method in methods:
                    assert method in vars(getattr(module, cls_name)), (layer, cls_name, method)
    assert wreath.WreathProduct is WreathGroup
    w = regular_wreath(construct_named("C:2"), construct_named("C:2"))
    assert w.product is w


@pytest.mark.parametrize("k_spec,h_spec,degree", [("C:2", "C:3", None), ("Q8", "C:2", None),
                                                  ("S:3", "S:3", 3)])
def test_dense_labels_are_decoded_on_first_read(monkeypatch, tmp_path, k_spec, h_spec, degree):
    w = build_wreath(*_theta_omega(k_spec, h_spec, degree))
    decodes = []
    real = WreathGroup.labels
    monkeypatch.setattr(WreathGroup, "labels",
                        lambda self, indices: decodes.append(len(indices)) or real(self, indices))
    dense = w.dense()
    assert decodes == []  # the table is built without its labels
    assert dense.labels(range(w.order)) == w.labels(range(w.order))
    assert dense.labels([0, 1]) and decodes == [w.order, w.order]  # decoded once
    x = w.order // 3
    assert dense.label(x) == w.label(x) and dense.label_index(w.label(x)) == x
    save_group(dense, tmp_path / "lazy.json")
    eager = FiniteGroup(dense.table, identity=dense.identity, labels=real(w, np.arange(w.order)))
    save_group(eager, tmp_path / "eager.json")
    assert (tmp_path / "lazy.json").read_bytes() == (tmp_path / "eager.json").read_bytes()


def test_the_dense_group_holds_no_reference_cycle_back_to_its_product():
    w = build_wreath(*_theta_omega("S:3", "S:3", 3))
    want = w.labels([0, 1, w.order - 1])
    dense, product = w.dense(), weakref.ref(w)
    gc.disable()
    try:
        del w
        assert product() is None  # freed by reference counting, without the cycle collector
    finally:
        gc.enable()
    assert [dense.label(x) for x in (0, 1, dense.order - 1)] == want
