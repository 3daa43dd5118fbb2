import numpy as np
import pytest

from wreathlab import (
    FiniteGSet,
    GroupHom,
    GroupValidationError,
    SizeLimitError,
    WreathlabError,
    build_wreath,
    check_presentation_d4,
    construct_named,
    natural_action,
    regular_action,
    regular_wreath,
    theta,
)
from wreathlab.groups import closure
from wreathlab.search import are_isomorphic
from wreathlab.suites import THETA_CATALOG, _theta_omega
from wreathlab.wreath import WreathGroup


def brute_wreath_mul(w, x, y):
    """Independent product oracle straight from the defining formula."""
    f1, h1 = w.decode(x)
    f2, h2 = w.decode(y)
    k, hgrp, om = w.base_group, w.top.group, w.top
    twisted = [f2[om.apply(hgrp.inv(h1), j)] for j in range(om.size)]
    prod = [k.mul(a, b) for a, b in zip(f1, twisted)]
    return w.encode(prod, hgrp.mul(h1, h2))


# -- theta -----------------------------------------------------------------------


def test_theta_identity_fixes_tuples():
    om = regular_action(construct_named("S:3"))
    f = (0, 3, 1, 2, 5, 4)
    assert theta(om, 0, f) == f


def test_theta_swaps_the_two_middle_tuples():
    om = regular_action(construct_named("C:2"))
    assert theta(om, 1, (0, 1)) == (1, 0)
    assert theta(om, 1, (1, 0)) == (0, 1)
    assert theta(om, 1, (0, 0)) == (0, 0)
    assert theta(om, 1, (1, 1)) == (1, 1)


def test_theta_rejects_wrong_length():
    om = regular_action(construct_named("C:2"))
    with pytest.raises(WreathlabError):
        theta(om, 1, (0, 1, 0))


# -- construction ------------------------------------------------------------------


def test_c2_wreath_c2_is_d4():
    w = regular_wreath(construct_named("C:2"), construct_named("C:2"))
    assert w.order == 8
    assert are_isomorphic(w.product, construct_named("D:4")) is not None


def test_trivial_base_reproduces_the_top(s3):
    w = regular_wreath(construct_named("C:1"), s3)
    assert w.order == 6
    assert are_isomorphic(w.product, s3) is not None


def test_s3_natural_wreath_order(s3):
    w = build_wreath(s3, natural_action(3, s3))
    assert w.order == 6**3 * 6 == 1296


def test_regular_wreath_size_law():
    w = regular_wreath(construct_named("A:3"), construct_named("C:2"))
    assert w.order == 3**2 * 2 == 18
    w = regular_wreath(construct_named("C:1"), construct_named("C:1"))
    assert w.order == 1


def test_size_cap_carries_the_exact_order():
    with pytest.raises(SizeLimitError) as err:
        regular_wreath(construct_named("C:10"), construct_named("D:4"))
    assert err.value.order == 10**8 * 8


def test_encode_decode_roundtrip():
    w = build_wreath(construct_named("S:3"), natural_action(3, construct_named("S:3")))
    for x in range(w.order):
        f, h = w.decode(x)
        assert w.encode(f, h) == x
    with pytest.raises(WreathlabError):
        w.decode(w.order)
    with pytest.raises(WreathlabError):
        w.encode((0, 0), 0)


def test_multiplication_matches_brute_formula_on_all_pairs():
    for w in (
        regular_wreath(construct_named("C:2"), construct_named("C:2")),
        regular_wreath(construct_named("A:3"), construct_named("C:2")),
        build_wreath(construct_named("C:2"), natural_action(3, construct_named("S:3"))),
    ):
        table = w.product.table
        for x in range(w.order):
            for y in range(w.order):
                assert int(table[x, y]) == brute_wreath_mul(w, x, y)


def test_inverse_examples():
    w = regular_wreath(construct_named("C:2"), construct_named("C:2"))
    e = w.encode((0, 0), 0)
    assert w.inverse(e) == e
    x = w.encode((0, 1), 1)
    assert w.inverse(x) == w.encode((1, 0), 1)  # x^-1 = x^3
    base = w.encode((1, 1), 0)
    assert w.inverse(base) == base
    # inverses agree with the materialized table
    for z in range(w.order):
        assert w.inverse(z) == int(w.product.inverses[z])


def test_structural_representation_above_dense_cap():
    w = regular_wreath(construct_named("C:2"), construct_named("D:4"), dense_cap=100)
    assert isinstance(w.product, WreathGroup)
    assert w.order == 2**8 * 8
    # spot-check the structural arithmetic against the defining formula
    rng = np.random.default_rng(0)
    for _ in range(200):
        x, y = (int(v) for v in rng.integers(0, w.order, 2))
        assert w.product.mul(x, y) == brute_wreath_mul(w, x, y)
        assert w.product.mul(x, w.product.inv(x)) == w.product.identity
    # same wreath densely: tables agree with the structural route
    dense = regular_wreath(construct_named("C:2"), construct_named("D:4"))
    for _ in range(100):
        x, y = (int(v) for v in rng.integers(0, w.order, 2))
        assert int(dense.product.table[x, y]) == w.product.mul(x, y)


def test_top_projection_is_exact():
    w = regular_wreath(construct_named("A:3"), construct_named("C:2"))
    proj = w.top_projection
    assert proj.find_hom_counterexample() is None
    assert proj.is_surjective()
    # kernel is exactly the base tuples (top component = identity)
    kernel = set(proj.kernel_indices())
    base = {w.base_inclusion(f) for f in np.ndindex(3, 3)}
    assert kernel == base
    # section property: base tuples project to the identity
    for x in base:
        assert proj(x) == w.top.group.identity


def test_element_print_and_parse():
    w = regular_wreath(construct_named("C:2"), construct_named("C:2"))
    assert w.element_str(w.encode((0, 1), 1)) == "(0,1; 1)"
    assert w.parse_element("(0,1; 1)") == w.encode((0, 1), 1)
    for x in range(w.order):
        assert w.parse_element(w.element_str(x)) == x
    with pytest.raises(WreathlabError):
        w.parse_element("0,1; 1")
    with pytest.raises(WreathlabError):
        w.parse_element("(0; 1)")


def test_element_orders_in_the_d4_wreath():
    w = regular_wreath(construct_named("C:2"), construct_named("C:2"))
    x = w.encode((0, 1), 1)
    y = w.encode((0, 0), 1)
    assert w.product.element_order(x) == 4
    assert w.product.element_order(y) == 2


def test_projection_law_exhaustively_on_a_large_dense_wreath():
    # the projection is built without validation; check it on all pairs here
    s3 = construct_named("S:3")
    w = build_wreath(s3, natural_action(3, s3))
    assert w.order == 1296
    assert w.top_projection.find_hom_counterexample() is None


def test_projection_law_on_generators_of_a_structural_wreath():
    v4, s3 = construct_named("V4"), construct_named("S:3")
    w = regular_wreath(v4, s3, dense_cap=1)
    assert isinstance(w.product, WreathGroup)
    assert w.order == 24576
    unit = [v4.identity] * 6
    gens = ([w.encode([k] + unit[1:], s3.identity) for k in v4.generators()]
            + [w.encode(unit, h) for h in s3.generators()])
    assert closure(w.product, gens) == list(range(w.order))
    # phi(x s) = phi(x) phi(s) for every x and generator s is the law on all pairs
    proj, g = w.top_projection, w.product
    x, s = np.arange(w.order)[:, None], np.array(gens)
    assert (proj.image[g.mul_array(x, s)] == s3.mul_array(proj.image[x], proj.image[s])).all()
    assert g.generators() == gens


def test_structural_generators_cover_every_orbit_and_certify_homs():
    c2 = construct_named("C:2")
    omega = FiniteGSet(c2, [[0, 1, 2], [1, 0, 2]])  # orbits {0, 1} and {2}
    w = build_wreath(c2, omega, dense_cap=1)
    gens = w.product.generators()
    assert gens == [w.encode((1, 0, 0), 0), w.encode((0, 0, 1), 0), w.encode((0, 0, 0), 1)]
    assert closure(w.product, gens) == list(range(w.order))
    # homs out of a structural product are validated on these generators
    assert GroupHom(w.product, c2, w.top_projection.image).is_homomorphism()
    broken = np.array(w.top_projection.image)
    broken[gens[0]] = 1
    assert GroupHom(w.product, c2, broken, validate=False).find_hom_counterexample() is not None
    with pytest.raises(GroupValidationError, match="hom law fails"):
        GroupHom(w.product, c2, broken)


def test_structural_c2_wreath_c2_builds_and_keeps_the_d4_presentation():
    w = regular_wreath(construct_named("C:2"), construct_named("C:2"), dense_cap=1)
    assert isinstance(w.product, WreathGroup)
    assert "top_projection" not in vars(w)  # built on first use only
    proj = w.top_projection
    assert proj.find_hom_counterexample() is None
    assert proj.kernel_indices() == [w.base_inclusion(f) for f in ((0, 0), (1, 0), (0, 1), (1, 1))]
    x = w.encode((0, 1), 1)
    y = w.encode((0, 0), 1)
    assert check_presentation_d4(w.product, x, y)
    assert w.product.element_order(x) == 4
    assert w.product.power(x, -1) == w.inverse(x)
    assert not check_presentation_d4(w.product, y, x)


@pytest.mark.parametrize("k_spec,h_spec,degree", THETA_CATALOG)
def test_structural_products_match_dense_tables(k_spec, h_spec, degree):
    k, omega = _theta_omega(k_spec, h_spec, degree)
    structural = build_wreath(k, omega, dense_cap=1)
    assert isinstance(structural.product, WreathGroup)
    codec = structural._codec
    idx = np.arange(structural.order)
    # the array decoder agrees with the validated scalar decode
    digits, tops = codec.decode_array(idx)
    assert digits.shape == (structural.order, structural.top.size)
    assert [(tuple(map(int, f)), int(h)) for f, h in zip(digits, tops)] == \
        [structural.decode(x) for x in idx]
    # and the array encoder inverts it, agreeing with the validated scalar encode
    assert (codec.encode_array(digits, tops) == idx).all()
    assert [structural.encode(f, int(h)) for f, h in zip(digits, tops)] == idx.tolist()
    # seeded pairs against the defining formula
    rng = np.random.default_rng(5)
    xs, ys = rng.integers(0, structural.order, (2, 300))
    products = structural.product.mul_array(xs, ys)
    for x, y, z in zip(xs, ys, products):
        assert int(z) == brute_wreath_mul(structural, int(x), int(y))
    assert (structural.product.mul_array(xs, codec.inv(xs)) == structural.product.identity).all()
    if structural.order > 4096:
        return  # C:5 wr C:5 has no dense table
    dense = build_wreath(k, omega)
    table = dense.product.table
    for lo in range(0, dense.order, 256):
        rows = idx[lo:lo + 256, None]
        assert (structural.product.mul_array(rows, idx[None, :]) == table[lo:lo + 256]).all()
    assert (codec.inv(idx) == dense.product.inverses).all()
