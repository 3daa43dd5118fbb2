"""The array routines of the embeddings against per-element oracles.

Each oracle is the loop the library ran one element (and one point) at a time
before the sigma formula, the Kummer encoder and the transport body became
array code.  The library must give exactly the same wreath indices.
"""

import itertools
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from wreathlab import (
    GroupHom,
    MultiQuadField,
    NotIsomorphismError,
    QuadraticTower,
    Section,
    SectionMismatchError,
    all_sections,
    build_wreath,
    check_equivariant,
    coset_action,
    coset_partition,
    construct_named,
    default_section,
    direct_product,
    identity_hom,
    kk_embedding,
    natural_action,
    normal_core,
    omega_embedding,
    quadratic_kummer_embedding,
    quotient,
    random_section,
    subgroup_from_elements,
    subgroup_generated,
    transport_iso,
    transport_subgroup,
    verify_embedding,
)
from wreathlab import suites
from wreathlab.embeddings import _sigma_image
from wreathlab.groups import closure, named_orders
from wreathlab.fields import chi, restriction_hom
from wreathlab.search import are_isomorphic
from wreathlab.suites import find_normal_subgroup, ses_catalog, ses_from_subgroup, stabilizer_subgroup
from tests.test_fields import SECTION_TOWERS, automorphisms

# the towers of cocycle_suite
COCYCLE_TOWERS = [((5, 7), (5,), 7), ((2, 3), (2,), 3), ((2, 3, 5), (2, 3), 5)]


def index_of(incl, order):
    """Digit of each element of the ambient group under the inclusion, -1 off its image."""
    out = np.full(order, -1, dtype=np.int64)
    out[incl.image] = np.arange(incl.domain.order)
    return out


def kk_oracle(ses, s):
    """sigma_g(t) = s(t)^-1 g s(eps(g)^-1 t) and eps(g) for each g; -1 marks an escape."""
    g, q, eps = ses.g, ses.q, ses.g_to_q
    n_index = index_of(ses.n_to_g, g.order)
    out = []
    for x in range(g.order):
        top = int(eps.image[x])
        top_inv = q.inv(top)
        digits = [int(n_index[g.mul(g.mul(g.inv(s(t)), x), s(q.mul(top_inv, t)))])
                  for t in range(q.order)]
        out.append((digits, top))
    return out


def omega_oracle(g, h_k, s, omega_q):
    """sigma_g(w) = s(w)^-1 g s(top(g)^-1 . w) on cosets; -1 marks an escape."""
    q = omega_q.group
    _q, proj = quotient(g, normal_core(g, h_k)[1])
    h_index = index_of(h_k, g.order)
    out = []
    for x in range(g.order):
        top = int(proj.image[x])
        top_inv_row = omega_q.act[q.inv(top)]
        digits = [int(h_index[g.mul(g.mul(g.inv(s(p)), x), s(int(top_inv_row[p])))])
                  for p in range(omega_q.size)]
        out.append((digits, top))
    return out


def encode_all(w, pairs):
    return np.array([w.encode(digits, top) for digits, top in pairs], dtype=np.int64)


def first_escape(pairs):
    return next((x, p) for x, (digits, _) in enumerate(pairs)
                for p, d in enumerate(digits) if d < 0)


def kummer_oracle(t, w):
    """One validated encode per rho of the row of chi(rho, tau) over tau."""
    auts_l, auts_k = automorphisms(t.L), automorphisms(t.K)
    eps = restriction_hom(t.L, t.K_generators)
    return np.array([w.encode([chi(t, rho, tau) for tau in auts_k], int(eps.image[m]))
                     for m, rho in enumerate(auts_l)], dtype=np.int64)


def chi_by_division(t, rho, tau):
    """chi read off the quotient of the two radicals."""
    tau_alpha = tau.apply(t.K.rational(t.alpha)).rational_value()
    pre = rho.apply(t.L.rational(tau_alpha)).rational_value()
    quotient_val = rho.apply(t.L.sqrt_of_rational(pre)) / t.L.sqrt_of_rational(tau_alpha)
    return {t.L.one(): 0, -t.L.one(): 1}[quotient_val]


def transport_oracle(psi, phi, xi, w, w_hat):
    """(f, h) |-> (psi o f o xi^-1, phi(h)), one decode and one encode per element."""
    xi_inv = np.empty(len(xi), dtype=np.int64)
    xi_inv[np.asarray(xi)] = np.arange(len(xi))
    image = np.empty(w.order, dtype=np.int64)
    for x in range(w.order):
        f, h = w.decode(x)
        digits = [int(psi.image[f[int(xi_inv[j])]]) for j in range(w_hat.top.size)]
        image[x] = w_hat.encode(digits, phi(h))
    return image


def s5_over_a5():
    s5, a5 = construct_named("S:5"), construct_named("A:5")
    _sub, incl = subgroup_from_elements(s5, [s5.point_maps.index(p) for p in a5.point_maps])
    return "S5/A5", ses_from_subgroup(s5, incl)


def test_kk_sigma_matches_the_per_element_loop():
    rng = random.Random(11)
    for name, ses in ses_catalog() + [s5_over_a5()]:
        sections = [default_section(ses.g_to_q)]
        if ses.q.order <= 4 and name != "S5/A5":  # S:5 over A:5 has 60^2 sections
            sections += list(all_sections(ses.g_to_q))
        sections += [random_section(ses.g_to_q, rng) for _ in range(5)]
        for s in sections:
            w, phi = kk_embedding(ses, s)
            assert (phi.image == encode_all(w, kk_oracle(ses, s))).all(), (name, s.choice)


def omega_cases():
    for degree in (4, 5):
        g = construct_named(f"{'S' if degree == 4 else 'A'}:{degree}")
        for point in range(1, degree + 1):
            yield g, stabilizer_subgroup(g, point)[1]
    for n in range(5, 15):
        g = construct_named(f"D:{n}")
        for a in range(n):
            yield g, subgroup_generated(g, [2 * a + 1])[1]  # <r^a s>
    s3 = construct_named("S:3")
    yield s3, subgroup_from_elements(s3, range(s3.order))[1]


def test_omega_sigma_matches_the_per_element_loop():
    for g, incl in omega_cases():
        w, phi = omega_embedding(g, incl)  # A:5 over stab reaches 14.9M
        reps = coset_action(g, incl)[1]
        assert (phi.image == encode_all(w, omega_oracle(g, incl, reps, w.top))).all(), \
            (g.name, incl.image_set())


def agrees_on_all_pairs(g, w, phi):
    """phi(x) phi(y) = phi(xy) for every pair, in the product's own multiplication."""
    x = np.arange(g.order)
    return (w.mul_array(phi.image[:, None], phi.image[None, :])
            == phi.image[g.mul_array(x[:, None], x[None, :])]).all()


@pytest.mark.parametrize("spec,point", [("S:5", 5), ("S:6", 6), ("A:5", 5), ("A:6", 6),
                                        ("AGL:7", 1)])
def test_the_papers_stabilizer_embeddings_agree_with_the_oracles(spec, point):
    """G into Stab wr_Omega G over the cosets of a point stabilizer, at default
    settings: S_n into S_(n-1) wr_n S_n reaches order 2.1 * 10^15 at n = 6."""
    g = construct_named(spec)
    _h, incl = stabilizer_subgroup(g, point)
    w, phi = omega_embedding(g, incl)
    report = verify_embedding(phi)
    assert report.is_homomorphism and report.is_injective and report.wreath_order == w.order
    reps = coset_action(g, incl)[1]
    assert (phi.image == encode_all(w, omega_oracle(g, incl, reps, w.top))).all()
    assert agrees_on_all_pairs(g, w, phi)


def test_the_five_generator_kummer_embedding_agrees_with_the_oracles():
    """Gal(L/Q) into Gal(L/K) wr Gal(K/Q) of order 2^32 * 32, at default settings."""
    t = QuadraticTower(MultiQuadField([2, 3, 5, 7, 11, 13]), [2, 3, 5, 7, 11], Fraction(13))
    w, phi, report = quadratic_kummer_embedding(t)
    assert report.is_homomorphism and report.is_injective and w.order == 2**32 * 32
    assert (phi.image == kummer_oracle(t, w)).all()
    assert agrees_on_all_pairs(phi.domain, w, phi)


def test_omega_sigma_with_random_coset_representatives():
    s4 = construct_named("S:4")
    rng = random.Random(3)
    for point in range(1, 5):
        _h, incl = stabilizer_subgroup(s4, point)
        omega, _reps = coset_action(s4, incl)
        coset_of, _ = coset_partition(s4, sorted(incl.image_set()))
        cosets = [np.flatnonzero(coset_of == p).tolist() for p in range(omega.size)]
        for _ in range(3):
            s = Section(omega, s4, [rng.choice(c) for c in cosets])
            w, phi = omega_embedding(s4, incl, s=s)
            assert (phi.image == encode_all(w, omega_oracle(s4, incl, s, w.top))).all()


def test_kummer_encoder_matches_the_per_element_loop():
    for gens, k_gens, alpha in COCYCLE_TOWERS + SECTION_TOWERS:
        t = QuadraticTower(MultiQuadField(list(gens)), list(k_gens), Fraction(alpha))
        w, phi, report = quadratic_kummer_embedding(t)
        assert (phi.image == kummer_oracle(t, w)).all()
        assert report.is_homomorphism and report.is_injective


@pytest.mark.parametrize("gens,k_gens,alphas", [
    ((2, 3, 5, 7), (2, 3, 5), (7, 14, Fraction(105, 4))),
    ((5, 7), (5,), (7, 35)),
    ((2, 3, 5), (2, 3), (5, 10, 30)),
])
def test_chi_without_division_matches_the_radical_quotient(gens, k_gens, alphas):
    for alpha in alphas:
        t = QuadraticTower(MultiQuadField(list(gens)), list(k_gens), Fraction(alpha))
        auts_l, auts_k = automorphisms(t.L), automorphisms(t.K)
        for rho, tau in itertools.product(auts_l, auts_k):
            assert chi(t, rho, tau) == chi_by_division(t, rho, tau)


def test_transports_match_the_per_element_loop():
    agl, s3 = construct_named("AGL:3"), construct_named("S:3")
    w_agl = build_wreath(agl, natural_action(3, agl))
    w_s3 = build_wreath(s3, natural_action(3, s3))
    psi = are_isomorphic(agl, s3)
    xi = next(list(c) for c in itertools.permutations(range(3))
              if check_equivariant(list(c), w_agl.top, w_s3.top, psi))
    moved = transport_iso(psi, psi, xi, w_agl, w_s3)
    assert (moved.image == transport_oracle(psi, psi, xi, w_agl, w_s3)).all()

    # conjugation by a 3-cycle c, with xi = c itself, so xi^-1 != xi
    c2 = construct_named("C:2")
    c = s3.point_maps.index((1, 2, 0))
    conj = GroupHom(s3, s3, [s3.mul(s3.mul(c, h), s3.inv(c)) for h in range(s3.order)])
    w = build_wreath(c2, natural_action(3, s3))
    xi = list(s3.point_maps[c])
    moved = transport_iso(identity_hom(c2), conj, xi, w, w)
    assert (moved.image == transport_oracle(identity_hom(c2), conj, xi, w, w)).all()

    c3_sub, incl_h = find_normal_subgroup(s3, "C:3")
    w_small = build_wreath(c2, natural_action(3, c3_sub))
    w_big = build_wreath(c2, natural_action(3, s3))
    moved = transport_subgroup(identity_hom(c2), incl_h, [0, 1, 2], w_small, w_big)
    assert (moved.image == transport_oracle(identity_hom(c2), incl_h, [0, 1, 2],
                                            w_small, w_big)).all()


# -- the guards ------------------------------------------------------------------


def sign_ses():
    s3 = construct_named("S:3")
    return ses_from_subgroup(s3, find_normal_subgroup(s3, "A:3")[1])


@pytest.mark.parametrize("length", [1, 3])
def test_kk_rejects_a_section_of_the_wrong_length(length):
    ses = sign_ses()  # |Q| = 2
    bad = Section(ses.q, ses.g, [ses.g.identity] * length)
    with pytest.raises(SectionMismatchError, match=f"{length} values for 2 points"):
        kk_embedding(ses, bad)


@pytest.mark.parametrize("length", [3, 5])
def test_omega_rejects_a_section_of_the_wrong_length(length, s4):
    _h, incl = stabilizer_subgroup(s4, 4)
    omega, reps = coset_action(s4, incl)  # 4 cosets
    choice = list(reps.choice) + [reps(0)] if length == 5 else list(reps.choice)[:length]
    with pytest.raises(SectionMismatchError, match=f"{length} values for 4 points"):
        omega_embedding(s4, incl, s=Section(omega, s4, choice))


def test_sigma_escape_names_the_first_point_row_major():
    ses = sign_ses()
    w, _phi = kk_embedding(ses)
    bad = Section(ses.q, ses.g, [0, 0])  # not a section: s(1) lies over 0
    x, p = first_escape(kk_oracle(ses, bad))
    with pytest.raises(SectionMismatchError, match=rf"sigma_g\({p}\) for g index {x} "):
        _sigma_image(ses.g, ses.g_to_q.image, bad, ses.n_to_g, w)

    s4 = construct_named("S:4")
    _h, incl = stabilizer_subgroup(s4, 4)
    w, _phi = omega_embedding(s4, incl)
    omega, reps = coset_action(s4, incl)
    bad = Section(omega, s4, [reps(1), reps(0), reps(2), reps(3)])
    x, p = first_escape(omega_oracle(s4, incl, bad, w.top))
    _q, proj = quotient(s4, normal_core(s4, incl)[1])
    with pytest.raises(SectionMismatchError, match=rf"sigma_g\({p}\) for g index {x} "):
        _sigma_image(s4, proj.image, bad, incl, w)


@pytest.mark.parametrize("choice", [[0, 6], [-1, 1]])
def test_kk_rejects_a_section_value_outside_the_group(choice):
    ses = sign_ses()
    with pytest.raises(SectionMismatchError, match="out of the group's index range"):
        kk_embedding(ses, Section(ses.q, ses.g, choice))


def test_transport_rejects_a_base_map_into_a_larger_group():
    s3, c2, c4 = construct_named("S:3"), construct_named("C:2"), construct_named("C:4")
    w = build_wreath(c2, natural_action(3, s3))
    into_c4 = GroupHom(c2, c4, [0, 2])  # injective, but C:4 is not the target base C:2
    with pytest.raises(NotIsomorphismError, match="base group"):
        transport_subgroup(into_c4, identity_hom(s3), [0, 1, 2], w, w)


def unbounded_normal_subgroup(g, spec):
    """The inclusion image ``find_normal_subgroup`` gave before its bounds: every
    union of nontrivial conjugacy classes, r ascending, with no cut on r, on the
    classes or on |T|; None where no normal subgroup matches."""
    target = construct_named(spec)
    classes = g.conjugacy_classes()
    nontrivial = [rep for rep in classes if rep != g.identity]
    seen = set()
    for r in range(len(nontrivial) + 1):
        for combo in itertools.combinations(nontrivial, r):
            members = frozenset(closure(g, [x for rep in combo for x in classes[rep]]))
            if members in seen or len(members) != target.order:
                continue
            seen.add(members)
            sub, incl = subgroup_from_elements(g, members)
            if are_isomorphic(sub, target) is not None:
                return incl.image.tolist()
    return None


def normal_subgroup_image(g, spec):
    try:
        return find_normal_subgroup(g, spec)[1].image.tolist()
    except ValueError:
        return None


NORMAL_TARGETS = ["C:2", "C:3", "C:4", "V4", "C:6", "S:3", "Q8", "D:4"]


def test_bounded_normal_subgroup_lookup_matches_the_unbounded_enumeration():
    """Every named group of order <= 24 and eight direct products, against each
    target.  The unbounded enumeration visits 2^(classes - 1) unions, so it runs on
    the groups of at most 12 classes; C:13 to C:24, cyclic, have one subgroup of
    each order d dividing n, the multiples of n/d, and that is the oracle there."""
    specs = ([f"C:{n}" for n in range(1, 25)] + [f"D:{n}" for n in range(2, 13)]
             + [f"S:{n}" for n in range(1, 5)] + [f"A:{n}" for n in range(2, 5)]
             + ["AGL:2", "AGL:3", "V4", "Q8"])
    groups = [construct_named(spec) for spec in specs] + [
        direct_product(construct_named(a), construct_named(b))
        for a, b in [("V4", "C:2"), ("S:3", "C:2"), ("Q8", "C:2"), ("D:4", "C:2"),
                     ("S:3", "C:3"), ("V4", "C:3"), ("A:4", "C:2"), ("D:6", "C:2")]]
    compared = found = 0
    for g in groups:
        for spec in NORMAL_TARGETS:
            got = normal_subgroup_image(g, spec)
            if len(g.conjugacy_classes()) <= 12:
                assert got == unbounded_normal_subgroup(g, spec), (g.name, spec)
                compared += 1
            else:
                d = construct_named(spec).order
                cyclic = spec.startswith("C:") and g.order % d == 0
                assert got == (list(range(0, g.order, g.order // d)) if cyclic else None), \
                    (g.name, spec)
            found += got is not None
    assert compared == 8 * (len(groups) - 12)
    assert found == 92
    # D:4 has two normal V4s; the first union of classes reaches the same one
    assert normal_subgroup_image(construct_named("D:4"), "V4") == [0, 1, 4, 5]


def test_the_class_sum_screen_changes_no_lookup(monkeypatch):
    """Every named group G of order <= 64 against every named T whose order divides
    |G|: with the class-sum screen the lookup returns the same subgroup, or the same
    refusal, as with the screen patched out."""
    specs = ([f"C:{n}" for n in range(1, 65)] + [f"D:{n}" for n in range(2, 33)]
             + [f"S:{n}" for n in range(1, 5)] + [f"A:{n}" for n in range(2, 6)]
             + [f"AGL:{p}" for p in (2, 3, 5, 7)] + ["V4", "Q8"])
    order = {spec: named_orders(spec)[0] for spec in specs}
    pairs = [(g, t) for g in specs for t in specs if order[g] % order[t] == 0]
    groups = {spec: construct_named(spec) for spec in specs}
    screened = [normal_subgroup_image(groups[g], t) for g, t in pairs]
    refused = sum(not suites._class_sums_admit(groups[g].conjugacy_classes(),
                                               groups[g].element_orders(), groups[t])
                  for g, t in pairs)
    monkeypatch.setattr(suites, "_class_sums_admit", lambda *_: True)
    for (g, t), got in zip(pairs, screened):
        assert got == normal_subgroup_image(groups[g], t), (g, t)
    assert (len(pairs), refused) == (1273, 420)


@pytest.mark.parametrize("spec,target", [("C:20", "V4"), ("C:64", "Q8"), ("C:24", "V4"),
                                         ("D:256", "V4"), ("C:4096", "S:3")])
def test_a_missing_normal_subgroup_is_refused_fast(spec, target):
    """The unbounded enumeration took 21.7 s on C:20 / V4 and doubles per class."""
    g = construct_named(spec)
    start = time.perf_counter()
    with pytest.raises(ValueError, match=f"no normal subgroup of {spec} isomorphic to {target}"):
        find_normal_subgroup(g, target)
    assert time.perf_counter() - start < 0.5
