import numpy as np
import pytest

from wreathlab import (
    FiniteGroup,
    GroupHom,
    NotEquivariantError,
    SectionMismatchError,
    Section,
    ShortExactSequence,
    UnsupportedPrimeError,
    all_sections,
    build_wreath,
    center_subgroup,
    construct_named,
    coset_action,
    default_section,
    identity_hom,
    kk_embedding,
    natural_action,
    omega_embedding,
    regular_wreath,
    solvability_witness,
    subgroup_from_elements,
    subgroup_generated,
    transport_iso,
    transport_subgroup,
    verify_embedding,
)
from wreathlab.search import are_isomorphic
from wreathlab.suites import (
    find_normal_subgroup,
    ses_catalog,
    ses_from_subgroup,
    stabilizer_subgroup,
)
from wreathlab.wreath import WreathGroup


def sign_ses():
    s3 = construct_named("S:3")
    return ses_from_subgroup(s3, find_normal_subgroup(s3, "A:3")[1])


# -- sections ----------------------------------------------------------------------


def test_default_section_of_identity_is_identity(s3):
    s = default_section(identity_hom(s3))
    assert list(s.choice) == list(range(s3.order))


def test_default_section_picks_minimal_transposition():
    ses = sign_ses()
    s = default_section(ses.g_to_q)
    g = ses.g
    assert s(ses.q.identity) == g.identity
    nontrivial = [x for x in range(g.order) if int(ses.g_to_q.image[x]) == 1]
    assert s(1) == min(nontrivial)


def test_section_override_must_hit_the_right_fiber():
    ses = sign_ses()
    with pytest.raises(SectionMismatchError):
        default_section(ses.g_to_q, {1: ses.g.identity})


def test_bad_section_is_rejected_by_kk():
    ses = sign_ses()
    bad = Section(ses.q, ses.g, np.array([0, 0]))
    with pytest.raises(SectionMismatchError):
        kk_embedding(ses, bad)


# -- the regular-wreath embedding -----------------------------------------------------


def test_kk_on_s3_a3_is_injective_into_order_18():
    ses = sign_ses()
    w, phi = kk_embedding(ses)
    assert w.order == 18
    report = verify_embedding(phi)
    assert report.is_homomorphism and report.is_injective
    assert report.image_order == 6 and not report.image_is_full


def test_kk_with_trivial_kernel_is_the_identity_in_disguise(s3):
    _, incl = subgroup_generated(s3, [])
    ses = ses_from_subgroup(s3, incl)
    w, phi = kk_embedding(ses)
    assert w.order == s3.order
    report = verify_embedding(phi)
    assert report.is_injective and report.image_is_full


def test_kk_section_independence_over_all_sections():
    ses = sign_ses()
    images = set()
    for s in all_sections(ses.g_to_q):
        _, phi = kk_embedding(ses, s)
        report = verify_embedding(phi)
        assert report.is_homomorphism and report.is_injective
        images.add(tuple(int(v) for v in phi.image))
    assert len(images) > 1  # different sections genuinely move the embedding


def test_kk_values_land_in_the_kernel_by_construction(d4):
    _, incl = subgroup_generated(d4, [2])
    ses = ses_from_subgroup(d4, incl)
    w, phi = kk_embedding(ses)
    kernel = set(ses.g_to_q.kernel_indices())
    n_img = [int(v) for v in ses.n_to_g.image]
    for x in range(d4.order):
        digits, _ = w.decode(phi(x))
        for d in digits:
            assert n_img[d] in kernel


def test_ses_rejects_mismatched_maps(s3, d4):
    _, incl = center_subgroup(d4)
    from wreathlab import quotient

    _, proj = quotient(d4, incl)
    with pytest.raises(Exception):
        ShortExactSequence(identity_hom(s3), proj)


# -- the coset embedding ---------------------------------------------------------------


def test_omega_embedding_on_s4_stabilizer(s4):
    _, incl = stabilizer_subgroup(s4, 4)
    w, phi = omega_embedding(s4, incl)
    assert w.order == 6**4 * 24 == 31104
    report = verify_embedding(phi)
    assert report.is_homomorphism and report.is_injective
    assert report.image_order == 24


def test_omega_with_whole_group_is_identity_like(s3):
    _, incl = subgroup_from_elements(s3, range(s3.order))
    w, phi = omega_embedding(s3, incl)
    assert w.top.size == 1
    report = verify_embedding(phi)
    assert report.is_injective and report.image_is_full


def test_omega_coincides_with_kk_for_normal_subgroups(d4, s3):
    for g, incl in (
        (d4, subgroup_generated(d4, [2])[1]),
        (s3, find_normal_subgroup(s3, "A:3")[1]),
    ):
        ses = ses_from_subgroup(g, incl)
        _, phi_kk = kk_embedding(ses)
        _, phi_om = omega_embedding(g, incl)
        assert (phi_kk.image == phi_om.image).all()


def test_omega_custom_section_must_respect_cosets(s4):
    _, incl = stabilizer_subgroup(s4, 4)
    om, reps = coset_action(s4, incl)
    bad = Section(om, s4, np.zeros(om.size, dtype=int))
    with pytest.raises(SectionMismatchError):
        omega_embedding(s4, incl, s=bad)


def test_omega_embedding_when_the_coset_of_h_is_not_point_0(s4):
    # reversed indices: the identity is last, and element 0 lies outside the stabilizer H
    perm = np.arange(s4.order)[::-1]
    table = np.empty_like(s4.table)
    table[np.ix_(perm, perm)] = perm[s4.table]
    g = FiniteGroup(table, identity=int(perm[s4.identity]))
    members = sorted(int(perm[i]) for i, pm in enumerate(s4.point_maps) if pm[3] == 3)
    _, incl = subgroup_from_elements(g, members)
    om, reps = coset_action(g, incl)
    p_h = next(p for p in range(om.size) if reps(p) in members)
    assert g.identity != 0 and p_h != 0
    report = verify_embedding(omega_embedding(g, incl)[1])
    assert report.is_homomorphism and report.is_injective and report.image_order == 24
    # the largest member of each coset is a section too; any non-member of H over p_H is not
    cosets = [sorted(g.mul(reps(p), m) for m in members) for p in range(om.size)]
    top = Section(om, g, [c[-1] for c in cosets])
    assert verify_embedding(omega_embedding(g, incl, s=top)[1]).is_injective
    choice = list(reps.choice)
    choice[p_h] = next(x for x in range(g.order) if x not in members)
    with pytest.raises(SectionMismatchError, match=f"s\\({p_h}\\) lies over point"):
        omega_embedding(g, incl, s=Section(om, g, choice))


# -- verification reports ----------------------------------------------------------------


def test_report_fields_for_identity_hom(s3):
    report = verify_embedding(identity_hom(s3))
    assert report.is_homomorphism and report.is_injective and report.image_is_full
    assert report.counterexample is None


def test_mutated_phi_yields_a_counterexample():
    ses = sign_ses()
    w, phi = kk_embedding(ses)
    image = np.array(phi.image)
    image[1] = image[0]  # force a non-identity element onto the identity image
    broken = GroupHom(ses.g, w.product, image, validate=False)
    report = verify_embedding(broken)
    assert not report.is_homomorphism
    assert report.counterexample is not None
    a, b = report.counterexample
    lhs = int(broken.image[ses.g.table[a, b]])
    rhs = w.product.mul(int(broken.image[a]), int(broken.image[b]))
    assert lhs != rhs
    assert report.to_json()["counterexample"] == [a, b]


def first_failing_pair(hom):
    """Oracle: the row-major first pair breaking the hom law, by a plain loop."""
    dom, cod = hom.domain, hom.codomain
    for a in range(dom.order):
        for b in range(dom.order):
            if hom(dom.mul(a, b)) != cod.mul(hom(a), hom(b)):
                return (a, b)
    return None


def test_kk_into_a_structural_product_matches_the_dense_build():
    for _name, ses in ses_catalog():
        w_dense, phi_dense = kk_embedding(ses)
        w_struct, phi_struct = kk_embedding(ses, dense_cap=1)
        assert isinstance(w_struct.product, WreathGroup)
        assert (phi_struct.image == phi_dense.image).all()
        assert verify_embedding(phi_struct).to_json() == verify_embedding(phi_dense).to_json()
        # a broken image fails at the same first pair through either codomain
        image = np.array(phi_dense.image)
        image[1], image[2] = image[2], image[1]
        broken = [GroupHom(ses.g, w.product, image, validate=False)
                  for w in (w_dense, w_struct)]
        expected = first_failing_pair(broken[0])
        assert expected is not None
        assert [hom.find_hom_counterexample() for hom in broken] == [expected, expected]
        assert verify_embedding(broken[1]).to_json() == verify_embedding(broken[0]).to_json()


def test_image_order_divides_wreath_order():
    ses = sign_ses()
    w, phi = kk_embedding(ses)
    report = verify_embedding(phi)
    assert report.wreath_order % report.image_order == 0


def test_report_json_schema():
    ses = sign_ses()
    _, phi = kk_embedding(ses)
    payload = verify_embedding(phi).to_json()
    assert list(payload) == ["is_homomorphism", "is_injective", "image_order",
                             "wreath_order", "image_is_full", "counterexample"]
    assert payload["counterexample"] is None


# -- transports ---------------------------------------------------------------------------


def test_transport_identity_components(s3):
    w = build_wreath(construct_named("C:2"), natural_action(3, s3))
    ident_k = identity_hom(construct_named("C:2"))
    moved = transport_iso(GroupHom(w.base_group, w.base_group, [0, 1]),
                          identity_hom(s3), [0, 1, 2], w, w)
    assert (moved.image == np.arange(w.order)).all()


def test_transport_affine_to_symmetric_wreath():
    agl = construct_named("AGL:3")
    s3 = construct_named("S:3")
    w_agl = build_wreath(agl, natural_action(3, agl))
    w_s3 = build_wreath(s3, natural_action(3, s3))
    psi = are_isomorphic(agl, s3)
    assert psi is not None
    xi = None
    import itertools

    for cand in itertools.permutations(range(3)):
        from wreathlab import check_equivariant

        if check_equivariant(list(cand), w_agl.top, w_s3.top, psi):
            xi = list(cand)
            break
    assert xi is not None
    moved = transport_iso(psi, psi, xi, w_agl, w_s3)
    assert len(set(int(v) for v in moved.image)) == 1296
    # round trip is the identity on a full sweep
    back = moved.inverse().compose(moved)
    assert (back.image == np.arange(w_agl.order)).all()


def test_transport_rejects_non_equivariant_bijection(s3):
    w = build_wreath(construct_named("C:2"), natural_action(3, s3))
    with pytest.raises(NotEquivariantError):
        transport_iso(identity_hom(construct_named("C:2")), identity_hom(s3),
                      [1, 0, 2], w, w)


def test_transport_subgroup_c2_from_c3_to_s3():
    s3 = construct_named("S:3")
    c3_sub, incl_h = find_normal_subgroup(s3, "C:3")
    c2 = construct_named("C:2")
    w_small = build_wreath(c2, natural_action(3, c3_sub))
    w_big = build_wreath(c2, natural_action(3, s3))
    assert (w_small.order, w_big.order) == (24, 48)
    moved = transport_subgroup(identity_hom(c2), incl_h, [0, 1, 2], w_small, w_big)
    assert moved.find_hom_counterexample() is None
    assert len(set(int(v) for v in moved.image)) == w_small.order


def test_transport_subgroup_identity_components():
    c2 = construct_named("C:2")
    w = regular_wreath(c2, c2)
    moved = transport_subgroup(identity_hom(c2), identity_hom(c2), [0, 1], w, w)
    assert (moved.image == np.arange(w.order)).all()


def test_transport_with_trivial_base_reduces_to_top_inclusion():
    s3 = construct_named("S:3")
    c3_sub, incl_h = find_normal_subgroup(s3, "C:3")
    c1 = construct_named("C:1")
    w_small = build_wreath(c1, natural_action(3, c3_sub))
    w_big = build_wreath(c1, natural_action(3, s3))
    moved = transport_subgroup(identity_hom(c1), incl_h, [0, 1, 2], w_small, w_big)
    _, tops = zip(*(w_big.decode(int(v)) for v in moved.image))
    assert list(tops) == [int(v) for v in incl_h.image]


# -- solvability -----------------------------------------------------------------------------


def test_solvability_for_the_full_degree9_wreath():
    s3 = construct_named("S:3")
    w = build_wreath(s3, natural_action(3, s3))
    witness = solvability_witness(w.product, 3)
    assert witness is not None and witness.is_injective()
    assert witness.find_hom_counterexample() is None


def test_solvability_trivial_cases():
    assert solvability_witness(construct_named("C:2"), 2) is not None
    assert solvability_witness(construct_named("C:5"), 3) is None


def test_solvability_rejects_large_primes():
    with pytest.raises(UnsupportedPrimeError):
        solvability_witness(construct_named("C:2"), 5)
