"""Exact generator certificates against exhaustive oracles on perturbed inputs.

Group tables, hom images and action tables are perturbed by hypothesis; the
generator-based checks at construction must accept exactly the inputs that a
plain all-triples or all-pairs sweep accepts, and ``certify_hom`` must name
the pair that the all-pairs sweep finds first.
"""

import functools
import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wreathlab import (
    ActionValidationError,
    Certificate,
    FiniteGSet,
    GroupHom,
    GroupValidationError,
    MultiQuadField,
    build_wreath,
    center_subgroup,
    certify_hom,
    check_equivariant,
    construct_named,
    coset_action,
    coset_partition,
    direct_product,
    galois_group,
    identity_hom,
    kk_embedding,
    natural_action,
    quotient,
    regular_action,
    subgroup_from_elements,
    subgroup_generated,
    transport_iso,
    transport_subgroup,
)
from wreathlab import groups as groups_module
from wreathlab.groups import FiniteGroup, closure
from wreathlab.search import are_isomorphic
from wreathlab.suites import find_normal_subgroup, ses_catalog

EXACT = settings(derandomize=True, database=None, max_examples=80, deadline=None)

# even orders up to 64, so every table has an intercalate off the identity row and column
GROUP_SPECS = ["C:2xC:2", "C:4", "S:3", "D:4", "Q8", "C:2xC:4", "C:12", "A:4", "C:2xD:4",
               "C:2xQ8", "S:4", "D:16", "AGL:7", "C:2xS:4", "D:32", "C:4xD:8"]


@functools.lru_cache(maxsize=None)
def group(spec):
    factors = [construct_named(s) for s in spec.split("x")]
    return functools.reduce(direct_product, factors)


def associative(t):
    """Oracle: (a b) c == a (b c) over all triples, one row a at a time."""
    return all((t[t[a]] == t[a][t]).all() for a in range(len(t)))


def draw_intercalate(data, g):
    """Rows a, b and columns c, d with g_a g_c = g_b g_d and g_a g_d = g_b g_c, none the identity.

    b = j a for an involution j makes a b^-1 = j an involution, so d = b^-1 a c
    closes the intercalate.
    """
    e, n = g.identity, g.order
    j = data.draw(st.sampled_from([x for x in range(n) if x != e and g.mul(x, x) == e]))
    a = data.draw(st.sampled_from([x for x in range(n) if x not in (e, j)]))
    b = g.mul(j, a)
    c = data.draw(st.sampled_from([x for x in range(n) if x not in (e, g.mul(g.inv(a), b))]))
    return a, b, c, g.mul(g.mul(g.inv(b), a), c)


@EXACT
@given(st.data())
def test_group_certificate_agrees_with_the_triple_sweep(data):
    g = group(data.draw(st.sampled_from(GROUP_SPECS)))
    t = g.table.copy()
    if data.draw(st.booleans()):
        a, b, c, d = draw_intercalate(data, g)
        assert t[a, c] == t[b, d] and t[a, d] == t[b, c]
        t[[a, a, b, b], [c, d, c, d]] = t[[a, a, b, b], [d, c, d, c]]
    perm = np.array(data.draw(st.permutations(range(g.order))))
    table = np.empty_like(t)
    table[np.ix_(perm, perm)] = perm[t]
    identity = int(perm[g.identity])
    try:
        h = FiniteGroup(table, identity=identity)
    except GroupValidationError as exc:
        accepted, message = False, str(exc)
    else:
        accepted = True
        gens = h.generators()
        assert closure(h, gens) == list(range(g.order))
        assert len(gens) <= (g.order - 1).bit_length()  # each pick at least doubles
    assert accepted == associative(table)
    if not accepted and message.startswith("associativity"):
        # the reported triple is the row-major first failure of Light's test for its s
        x, s, y = map(int, message.split("=(")[1].rstrip(")").split(","))
        bad = table[table[:, s]] != table[:, table[s]]
        assert divmod(int(bad.argmax()), g.order) == (x, y)
    # the certificate compares row blocks; any block size gives the same verdict and message
    chunk = data.draw(st.sampled_from([1, 7, g.order + 3]))
    with mock.patch.object(groups_module, "SWEEP_CHUNK", chunk):
        try:
            h = FiniteGroup(table, identity=identity)
        except GroupValidationError as exc:
            assert not accepted and str(exc) == message
        else:
            assert accepted and h.generators() == gens


# -- tables the package builds ----------------------------------------------------
#
# Named families, direct products, subgroups, quotients and Galois groups are
# associative by construction and skip Light's test.  These tests stand in for
# it: the certificate a user-supplied table gets passes on each of their tables,
# at sizes up to the dense cap, and picks the generators they pick lazily.


def certify_from_scratch(g):
    """g's table through the user-supplied path: Light's test on every greedy
    pick, which raises unless the table is associative."""
    h = FiniteGroup(g.table, identity=g.identity)
    assert g.generators() == h.generators()
    assert (g.inverses == h.inverses).all()


BUILT_SPECS = (["C:1", "C:2", "C:7", "C:500", "C:4096", "D:2", "D:3", "D:31", "D:259", "D:2048",
                "V4", "Q8"] + [f"S:{n}" for n in range(1, 7)] + [f"A:{n}" for n in range(2, 7)]
               + [f"AGL:{p}" for p in (2, 3, 5, 7)])


@pytest.mark.parametrize("spec", BUILT_SPECS)
def test_every_named_family_passes_the_certificate_it_skips(spec):
    certify_from_scratch(construct_named(spec))


def reversed_c3():
    """C:3 as a user table with identity 2."""
    return FiniteGroup([[2 - (4 - i - j) % 3 for j in range(3)] for i in range(3)], identity=2)


@pytest.mark.parametrize("factors", [("C:2", "Q8"), ("S:3", "D:4"), ("A:4", "C:3"), ("S:4", "A:5"),
                                     ("C:64", "C:64"), ("D:32", "D:32"), ("rev", "S:3")])
def test_direct_products_pass_the_certificate_they_skip(factors):
    a, b = (reversed_c3() if f == "rev" else construct_named(f) for f in factors)
    certify_from_scratch(direct_product(a, b))


def large_subgroups():
    """(group, inclusion of a normal subgroup) at orders up to the dense cap."""
    c4096, d2048, s6 = construct_named("C:4096"), construct_named("D:2048"), construct_named("S:6")
    even = [x for x, p in enumerate(s6.point_maps)
            if sum(p[i] > p[j] for i in range(6) for j in range(i + 1, 6)) % 2 == 0]
    return [(c4096, subgroup_generated(c4096, [64])[1]), (d2048, center_subgroup(d2048)[1]),
            (s6, subgroup_from_elements(s6, even)[1])]


def test_subgroups_and_quotients_pass_the_certificate_they_skip():
    pairs = [(ses.g, ses.n_to_g) for _, ses in ses_catalog()] + large_subgroups()
    for g, incl in pairs:
        certify_from_scratch(incl.domain)
        certify_from_scratch(quotient(g, incl)[0])


PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]


@pytest.mark.parametrize("k", range(1, 13))
def test_galois_groups_pass_the_certificate_they_skip(k):
    certify_from_scratch(galois_group(MultiQuadField(PRIMES[:k])))


def test_package_tables_skip_lights_test_and_user_tables_run_it():
    def refuse(self, s):
        raise AssertionError("Light's test ran on a table the package built")

    with mock.patch.object(FiniteGroup, "_light_test", refuse):
        s4 = construct_named("S:4")
        built = [construct_named(spec) for spec in BUILT_SPECS if spec not in ("C:4096", "D:2048")]
        built.append(direct_product(s4, construct_named("Q8")))
        sub, incl = subgroup_generated(s4, [s4.point_maps.index((1, 0, 3, 2)),
                                            s4.point_maps.index((2, 3, 0, 1))])
        built += [sub, quotient(s4, incl)[0], galois_group(MultiQuadField(PRIMES[:4]))]
        for g in built:
            assert closure(g, g.generators()) == list(range(g.order))
    tested = []
    with mock.patch.object(FiniteGroup, "_light_test", lambda self, s: tested.append(s)):
        h = FiniteGroup(s4.table, identity=s4.identity)
    assert tested == h.generators() == s4.generators()


@functools.lru_cache(maxsize=None)
def homs():
    s4, d8, q8 = construct_named("S:4"), construct_named("D:8"), construct_named("Q8")
    c12, c4 = construct_named("C:12"), construct_named("C:4")
    a4 = [x for x, p in enumerate(s4.point_maps)
          if sum(p[i] > p[j] for i in range(4) for j in range(i + 1, 4)) % 2 == 0]
    _, sign_kernel = subgroup_from_elements(s4, a4)
    ses = ses_catalog()[0][1]
    w, phi = kk_embedding(ses)
    return [
        identity_hom(construct_named("AGL:5")),
        GroupHom(c12, c4, np.arange(12) % 4),
        sign_kernel,
        quotient(s4, sign_kernel)[1],
        quotient(d8, center_subgroup(d8)[1])[1],
        quotient(q8, center_subgroup(q8)[1])[1],
        phi,  # into a structural product
        GroupHom(ses.g, w.dense(), phi.image),  # the same map into the dense table
    ]


def all_but_one_generator(data, g):
    """A generator s of g and the elements of the subgroup K the other generators generate."""
    gens = g.generators()
    k = data.draw(st.integers(0, len(gens) - 1))
    return gens[k], np.array(closure(g, gens[:k] + gens[k + 1:]))


def twist_on_a_coset(data, hom):
    """phi changed on one left coset r K of K = <generators but s>: phi'(r h) = c phi(h).

    phi'(x t) = phi'(x) phi'(t) still holds for every generator t in K, so
    only s can expose the change.
    """
    g, cod = hom.domain, hom.codomain
    _, members = all_but_one_generator(data, g)
    coset_of, reps = coset_partition(g, members)
    c = np.array(hom.image[reps])  # phi(r), then one value replaced
    c[data.draw(st.integers(0, len(reps) - 1))] = data.draw(st.integers(0, cod.order - 1))
    c[coset_of[g.identity]] = cod.identity
    x = np.arange(g.order)
    rep_inverses = np.array([g.inv(int(r)) for r in reps], dtype=np.int64)
    h = g.mul_array(rep_inverses[coset_of], x)
    return cod.mul_array(c[coset_of], hom.image[h])


def perturbed_image(data, hom):
    """hom's image twisted on a coset of all generators but one, or changed at one element."""
    if data.draw(st.booleans()):
        return twist_on_a_coset(data, hom)
    image = np.array(hom.image)
    # the identity's image is checked before the hom law, with or without validation
    x = data.draw(st.sampled_from([x for x in range(len(image)) if x != hom.domain.identity]))
    image[x] = data.draw(st.integers(0, hom.codomain.order - 1))
    return image


@EXACT
@given(st.data())
def test_hom_check_on_generators_agrees_with_all_pairs(data):
    hom = data.draw(st.sampled_from(homs()))
    image = perturbed_image(data, hom)
    oracle = GroupHom(hom.domain, hom.codomain, image, validate=False).find_hom_counterexample()
    try:
        GroupHom(hom.domain, hom.codomain, image)
    except GroupValidationError:
        raised = True
    else:
        raised = False
    assert raised == (oracle is not None)


@functools.lru_cache(maxsize=None)
def transports():
    """Transports between wreath products, out of structural products and, with
    the same images, between their dense tables."""
    c2, c4, s3, agl = (construct_named(x) for x in ("C:2", "C:4", "S:3", "AGL:3"))
    c3_sub, incl_h = find_normal_subgroup(s3, "C:3")
    inversion = GroupHom(c4, c4, [0, 3, 2, 1])
    w3, w4 = build_wreath(c2, natural_action(3, s3)), build_wreath(c2, regular_action(c4))
    small = build_wreath(c2, natural_action(3, c3_sub))
    moves = [
        (transport_iso(identity_hom(c2), identity_hom(s3), [0, 1, 2], w3, w3), w3, w3),
        (transport_iso(identity_hom(c2), inversion, list(inversion.image), w4, w4), w4, w4),
        (transport_subgroup(identity_hom(c2), incl_h, [0, 1, 2], small, w3), small, w3),
    ]
    out = [t for t, _w, _w_hat in moves]
    out += [GroupHom(w.dense(), w_hat.dense(), t.image, validate=False) for t, w, w_hat in moves]
    w_agl, w_s3 = build_wreath(agl, natural_action(3, agl)), build_wreath(s3, natural_action(3, s3))
    psi = are_isomorphic(agl, s3)
    xi = next(list(p) for p in itertools.permutations(range(3))
              if check_equivariant(list(p), w_agl.top, w_s3.top, psi))
    out.append(transport_iso(psi, psi, xi, w_agl, w_s3))  # order 1296
    return out


def first_failing_pair(phi):
    """Oracle: the row-major first pair breaking the hom law, from one all-pairs comparison."""
    img, a = phi.image, np.arange(phi.domain.order)[:, None]
    bad = img[phi.domain.mul_array(a, a.T)] != phi.codomain.mul_array(img[a], img[a.T])
    return divmod(int(bad.argmax()), bad.shape[1]) if bad.any() else None


@EXACT
@given(st.data())
def test_certify_hom_agrees_with_all_pairs_on_homs_and_transports(data):
    hom = data.draw(st.sampled_from(homs() + transports()))
    image = perturbed_image(data, hom) if data.draw(st.integers(0, 4)) else hom.image
    phi = GroupHom(hom.domain, hom.codomain, image, validate=False)
    expected = first_failing_pair(phi)
    cert = certify_hom(phi)
    assert isinstance(cert, Certificate) and cert.method == "generator-certified"
    assert cert.counterexample == expected
    grid = phi.domain.order * len(phi.domain.generators())
    if expected is None:
        assert cert.checks == grid
    else:  # the generator grid, then the pairs swept up to the counterexample
        assert cert.checks == grid + expected[0] * phi.domain.order + expected[1] + 1
    # the library's oracle sweeps in blocks; any block size gives the same pair
    chunk = data.draw(st.sampled_from([1, 7, phi.domain.order + 3, groups_module.SWEEP_CHUNK]))
    with mock.patch.object(groups_module, "SWEEP_CHUNK", chunk):
        assert phi.find_hom_counterexample() == expected
        assert certify_hom(phi).counterexample == expected


@functools.lru_cache(maxsize=None)
def actions():
    s4 = construct_named("S:4")
    _, stab = subgroup_from_elements(s4, [x for x, p in enumerate(s4.point_maps) if p[0] == 0])
    return [
        regular_action(construct_named("S:3")),
        regular_action(construct_named("Q8")),
        natural_action(4, s4),
        natural_action(5, construct_named("AGL:5")),
        coset_action(s4, stab)[0],
        coset_action(construct_named("D:8"), center_subgroup(construct_named("D:8"))[1])[0],
    ]


def action_axioms_hold(grp, act):
    """Oracle: the identity axiom and compatibility for every h1."""
    if not (act[grp.identity] == np.arange(act.shape[1])).all():
        return False
    return all((act[h1][act] == act[grp.table[h1]]).all() for h1 in range(grp.order))


def twist_on_a_right_coset(data, omega):
    """act changed on one right coset K r of K = <generators but s>: act'(h r) = act(h) o tau.

    h1.(h2.w) = (h1 h2).w still holds for every h1 in K, so only s can
    expose the change.
    """
    g, act = omega.group, omega.act
    _, members = all_but_one_generator(data, g)
    x = np.arange(g.order)
    rep = g.table[members[:, None], x].min(axis=0)  # least element of K x
    tau, others = act[rep], sorted(set(rep.tolist()) - {g.identity})
    if not others:
        return np.array(act)  # K is all of g: nothing to twist
    r = data.draw(st.sampled_from(others))
    tau[rep == r] = act[r][data.draw(st.permutations(range(omega.size)))]
    h = g.table[x, g.inverses[rep]]
    return np.take_along_axis(act[h], tau, axis=1)


@EXACT
@given(st.data())
def test_action_check_on_generators_agrees_with_all_h1(data):
    omega = data.draw(st.sampled_from(actions()))
    if data.draw(st.booleans()):
        act = twist_on_a_right_coset(data, omega)
    else:
        act = np.array(omega.act)
        h = data.draw(st.integers(0, omega.group.order - 1))
        act[h, data.draw(st.integers(0, omega.size - 1))] = data.draw(st.integers(0, omega.size - 1))
    try:
        FiniteGSet(omega.group, act)
    except ActionValidationError as exc:
        accepted, message = False, str(exc)
    else:
        accepted = True
    assert accepted == action_axioms_hold(omega.group, act)
    g = omega.group
    if not accepted and message.startswith("compatibility"):
        # the first failing generator h1, and its row-major first failing (h2, w)
        h1, h2, w = map(int, message.split("=(")[1].rstrip(")").split(","))
        fails = [s for s in g.generators() if (act[s][act] != act[g.table[s]]).any()]
        bad = act[h1][act] != act[g.table[h1]]
        assert h1 == fails[0] and divmod(int(bad.argmax()), omega.size) == (h2, w)
    # the check compares row blocks of h2; any block size gives the same verdict and message
    chunk = data.draw(st.sampled_from([1, 7, g.order * omega.size + 3]))
    with mock.patch.object(groups_module, "SWEEP_CHUNK", chunk):
        try:
            FiniteGSet(g, act)
        except ActionValidationError as exc:
            assert not accepted and str(exc) == message
        else:
            assert accepted
