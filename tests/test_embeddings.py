import random
import re
import time

import numpy as np
import pytest

from wreathlab import (
    FiniteGroup,
    GroupHom,
    NotEquivariantError,
    NotIsomorphismError,
    SectionMismatchError,
    Section,
    ShortExactSequence,
    SizeLimitError,
    UnsupportedPrimeError,
    build_wreath,
    center_subgroup,
    construct_named,
    coset_action,
    default_section,
    kk_embedding,
    natural_action,
    omega_embedding,
    regular_action,
    regular_wreath,
    solvability_witness,
    subgroup_from_elements,
    subgroup_generated,
    transport_iso,
    verify_embedding,
)
from wreathlab.embeddings import _sigma_image
from wreathlab.search import are_isomorphic
from wreathlab.suites import (
    check_theta_properties,
    find_normal_subgroup,
    iso_suite,
    ses_catalog,
    ses_from_subgroup,
    stabilizer_subgroup,
)
from wreathlab.wreath import WreathGroup

from tests.oracles import all_sections, identity_hom, random_section


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


def test_kk_embeddings_of_one_extension_share_its_wreath_product():
    name, ses = ses_catalog()[3]
    assert name == "S4/V4"
    eps = ses.g_to_q
    rng = random.Random(1)
    sections = [default_section(eps), random_section(eps, rng), random_section(eps, rng)]
    fresh = regular_wreath(ses.n, ses.q)
    built = []
    for s in sections:
        w, phi = kk_embedding(ses, s)
        built.append(w)
        # the same indices as an embedding into a product built afresh
        assert (phi.image == _sigma_image(ses.g, eps.image, s.choice, ses.n_to_g, fresh)).all()
    assert all(w is built[0] for w in built) and built[0] is ses.wreath()
    assert built[0] is not fresh and built[0].order == fresh.order == 4**6 * 6
    x = np.arange(0, fresh.order, 97)
    assert (built[0].mul_array(x, x[::-1]) == fresh.mul_array(x, x[::-1])).all()
    assert built[0].label(4321) == fresh.label(4321)


def test_the_calls_that_enumerate_a_whole_product_refuse_it_above_their_cap(peak_mb):
    """A structural product of any order below int64 is built, but a transport or a
    theta table holds every element, so each refuses past the byte budget before allocating."""
    c2, c24 = construct_named("C:2"), construct_named("C:24")
    w = regular_wreath(c2, c24)  # order 2^24 * 24 = 402653184

    def refused(call):
        with pytest.raises(SizeLimitError, match=r"^(transport digits|theta table) of order \d+ "
                                                 r"exceeds the byte budget 67108864$") as err:
            call()
        return err.value

    err, peak = peak_mb(lambda: refused(
        lambda: transport_iso(identity_hom(c2), identity_hom(c24), list(range(24)), w, w)))
    assert err.order == w.order == 2**24 * 24 and peak < 2, peak
    omega = regular_action(construct_named("D:4"))
    err, peak = peak_mb(lambda: refused(
        lambda: check_theta_properties(construct_named("C:10"), omega)))
    assert err.order == 10**8 * 8 and peak < 2, peak


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
    broken = GroupHom(ses.g, w, image, validate=False)
    report = verify_embedding(broken)
    assert not report.is_homomorphism
    assert report.counterexample is not None
    a, b = report.counterexample
    lhs = int(broken.image[ses.g.table[a, b]])
    rhs = w.mul(int(broken.image[a]), int(broken.image[b]))
    assert lhs != rhs
    assert report.to_json()["counterexample"] == [a, b]


def test_image_order_divides_wreath_order():
    ses = sign_ses()
    w, phi = kk_embedding(ses)
    report = verify_embedding(phi)
    assert report.wreath_order % report.image_order == 0


def test_report_json_schema():
    ses = sign_ses()
    _, phi = kk_embedding(ses)
    report = verify_embedding(phi)
    payload = report.to_json()
    assert list(payload) == ["is_homomorphism", "is_injective", "image_order",
                             "wreath_order", "image_is_full", "counterexample",
                             "method", "checks"]
    assert payload["counterexample"] is None
    # every x of S:3 against each of its two generators; the time stays out of the JSON
    assert (payload["method"], payload["checks"]) == ("generator-certified", 6 * 2)
    assert report.elapsed_s >= 0 and "elapsed_s" not in payload


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


def test_coset_embedding_into_an_order_4096_wreath_stays_small(peak_mb):
    """D:8 over <r^3 s> lands in C:2 wr_8 D:8 of order 4096, whose dense table
    alone would be 64 MB; the embedding and its report stay under 2 MB."""
    d8 = construct_named("D:8")
    _sub, incl = subgroup_generated(d8, [7])  # r^3 s is index 2 * 3 + 1

    def embed_and_verify():
        w, phi = omega_embedding(d8, incl)
        return w, verify_embedding(phi)

    (w, report), peak = peak_mb(embed_and_verify)
    assert w.order == 4096 and w._dense is None
    assert report.is_homomorphism and report.is_injective and report.image_order == 16
    assert peak < 2.0, f"peak {peak:.2f} MB"


def test_the_hom_law_is_certified_once_per_embedding(monkeypatch):
    """The certificate a validated GroupHom keeps is the one its report shows."""
    from wreathlab import embeddings, groups

    ses = ses_catalog()[3][1]  # S4/V4
    calls = []
    real = groups.certify_hom

    def counted(phi):
        calls.append(phi)
        return real(phi)

    monkeypatch.setattr(groups, "certify_hom", counted)
    monkeypatch.setattr(embeddings, "certify_hom", counted)
    _w, phi = kk_embedding(ses)
    assert calls == [phi]
    report = verify_embedding(phi)
    assert calls == [phi]
    cert = phi.certificate
    assert (report.method, report.checks, report.elapsed_s) == (
        cert.method, cert.checks, cert.elapsed_s)
    # a hom built unchecked has no certificate, so its report certifies it, alike
    unchecked = GroupHom(phi.domain, phi.codomain, phi.image, validate=False)
    assert unchecked.certificate is None
    assert verify_embedding(unchecked).to_json() == report.to_json()
    assert calls == [phi, unchecked]


@pytest.mark.parametrize("k_spec,h_spec",
                         [("C:2", "C:2"), ("C:3", "C:6"), ("C:2", "C:12"), ("S:3", "S:3")])
def test_identity_transport_on_a_structural_regular_wreath(k_spec, h_spec):
    """Orders 8, 4374, 49,152 and 279,936: an all-pairs check would need order^2 cells."""
    k, h = construct_named(k_spec), construct_named(h_spec)
    w = regular_wreath(k, h)
    assert isinstance(w, WreathGroup)
    moved = transport_iso(identity_hom(k), identity_hom(h), list(range(h.order)), w, w)
    assert (moved.image == np.arange(w.order)).all()


def test_structural_transport_that_breaks_the_law_names_the_first_pair():
    s3 = construct_named("S:3")
    w = regular_wreath(s3, s3)
    assert isinstance(w, WreathGroup)
    # swap two transpositions and fix the rest: a bijection that is no hom
    swap = np.arange(6)
    swap[[1, 2]] = [2, 1]
    bad_psi = GroupHom(s3, s3, swap, validate=False)
    assert bad_psi.find_hom_counterexample() is not None
    with pytest.raises(NotIsomorphismError, match=r"hom law at pair \((\d+), (\d+)\)") as err:
        transport_iso(bad_psi, identity_hom(s3), list(range(6)), w, w)
    a, b = (int(v) for v in re.search(r"\((\d+), (\d+)\)", str(err.value)).groups())
    # the named pair fails, and no pair before it in row-major order does
    f, h = w.decode_array(np.arange(w.order))
    image = w.encode_array(swap[f], h)
    g = w
    assert image[g.mul(a, b)] != g.mul(int(image[a]), int(image[b]))
    rows = np.arange(a + 1)[:, None]
    cols = np.arange(w.order)[None, :]
    bad = image[g.mul_array(rows, cols)] != g.mul_array(image[rows], image[cols])
    assert int(bad.ravel().argmax()) == a * w.order + b


def test_transport_rejects_non_equivariant_bijection(s3):
    w = build_wreath(construct_named("C:2"), natural_action(3, s3))
    with pytest.raises(NotEquivariantError):
        transport_iso(identity_hom(construct_named("C:2")), identity_hom(s3),
                      [1, 0, 2], w, w)


def test_transport_with_trivial_base_reduces_to_the_top_map():
    s3, c1 = construct_named("S:3"), construct_named("C:1")
    c = s3.point_maps.index((1, 2, 0))
    conj = GroupHom(s3, s3, [s3.mul(s3.mul(c, h), s3.inv(c)) for h in range(s3.order)])
    w = build_wreath(c1, natural_action(3, s3))
    moved = transport_iso(identity_hom(c1), conj, list(s3.point_maps[c]), w, w)
    _, tops = zip(*(w.decode(int(v)) for v in moved.image))
    assert list(tops) == [int(v) for v in conj.image]


# -- solvability -----------------------------------------------------------------------------


def test_solvability_for_the_full_degree9_wreath():
    s3 = construct_named("S:3")
    w = build_wreath(s3, natural_action(3, s3))
    witness = solvability_witness(w.dense(), 3)
    assert witness is not None and witness.is_injective()
    assert witness.find_hom_counterexample() is None


def test_solvability_trivial_cases():
    assert solvability_witness(construct_named("C:2"), 2) is not None
    assert solvability_witness(construct_named("C:5"), 3) is None


def count_dense_builds(monkeypatch):
    """Record the order of every table ``WreathGroup.dense`` builds (not reuses)."""
    built = []
    original = WreathGroup.dense

    def counting(self):
        if self._dense is None:
            built.append(self.order)
        return original(self)
    monkeypatch.setattr(WreathGroup, "dense", counting)
    return built


def test_solvability_refuses_by_lagrange_before_building_a_table(monkeypatch):
    built = count_dense_builds(monkeypatch)
    assert solvability_witness(construct_named("C:5"), 3) is None
    assert built == []


def test_iso_suite_builds_two_order_1296_tables(monkeypatch):
    built = count_dense_builds(monkeypatch)
    verdicts = [(v.name, v.passed, v.detail) for v in iso_suite()]
    assert verdicts == [
        ("affine wreath matches symmetric wreath (order 1296)", True,
         "bijective hom, generator-certified, 5184 checks; inverse round-trips"),
        ("degree-9 imprimitive solvability for the full wreath", True, "injective witness found"),
        ("C2 solvable at p=2", True, ""),
        ("C5 rejected at p=3 (Lagrange)", True, ""),
        ("regular-case transport matches the direct formula", True, ""),
    ]
    assert built.count(1296) == 2


def test_solvability_rejects_large_primes():
    with pytest.raises(UnsupportedPrimeError):
        solvability_witness(construct_named("C:2"), 5)


def test_an_oversized_coset_embedding_is_refused_before_any_coset_work(peak_mb):
    """G = C:2 wr_r C:8 of order 2048 over H = <base element, top element of order 2>,
    of order 8: the coset wreath has order at least 8^256 * 256, past int64."""
    g = regular_wreath(construct_named("C:2"), construct_named("C:8"))
    _h, incl = subgroup_generated(g, [g.encode([1] + [0] * 7, 0), g.encode([0] * 8, 4)])
    assert incl.domain.order == 8

    def refused():
        start = time.perf_counter()
        with pytest.raises(SizeLimitError) as err:
            omega_embedding(g, incl)
        return err.value, time.perf_counter() - start

    (err, seconds), peak = peak_mb(refused)
    assert str(err) == "wreath order at least 8^256 * 256 exceeds the int64 index range"
    assert err.order == 8**256 * 256
    assert seconds < 0.1 and peak < 5
