"""One conformance suite for every ``Group`` class.

``REGISTRY`` holds (name, factory, reference) entries.  ``factory()`` builds
the group under test and ``reference(g)`` what it must agree with, index for
index: a ``FiniteGroup`` table (``dense()`` for a structural product, a
loop-built table for a named family), or ``WreathOracle``, the defining
formula one element at a time, for a product past the dense cap.  Since
``dense()`` is read off ``mul_array``, every ``WreathGroup`` is also checked
against the defining formula on seeded pairs.

On every entry the suite checks the protocol: ``mul``/``mul_array`` and
``inv``/``inv_array`` on scalars and broadcast shapes, the identity, labels
and ``label_index``, that ``generators()`` generate, ``point_maps``, ``power``
and ``closure``.  Products, inverses and labels are compared on all elements
wherever the reference is a table, on seeded samples otherwise.  On every
entry with a table it checks that ``subgroup_from_elements``,
``coset_partition``, ``coset_action``, ``normal_core``, ``quotient``,
``kk_embedding``, ``omega_embedding`` and ``certify_hom`` give equal output
on the group and on its reference, and that each embedding made is an
injective homomorphism.  On every entry, conjugacy classes, coset partitions
and a product's top orbits, all orbits of generator permutations, match the
former loops kept in ``tests/oracles.py``.

A new ``Group`` class needs one registry line here:
``test_every_group_class_is_registered`` fails until it has one.
"""

import functools
import gc
import random

import numpy as np
import pytest

from wreathlab import (
    FiniteGroup,
    GroupHom,
    WreathlabError,
    build_wreath,
    certify_hom,
    construct_named,
    coset_action,
    coset_partition,
    direct_product,
    group_from_json,
    group_to_json,
    kk_embedding,
    load_action,
    natural_action,
    normal_core,
    omega_embedding,
    quotient,
    regular_action,
    regular_wreath,
    save_action,
    subgroup_from_elements,
    verify_embedding,
)
from wreathlab.groups import BYTE_BUDGET, Group, _orbits, closure
from wreathlab.suites import THETA_CATALOG, _theta_omega, ses_from_subgroup
from wreathlab.wreath import WreathGroup

from tests.oracles import (
    WreathOracle,
    bfs_closure,
    brute_closure,
    brute_wreath_mul,
    class_sweep,
    first_failing_pair,
    generator_sets,
    loop_group,
    member_coset_partition,
    normal_core_sweep,
    renumbered,
)

# the order up to which a reference without a table is still compared on every
# element (a table is compared on every element at any order), and the cells a
# construction may take on one subgroup before the suite leaves that subgroup out
ALL_PAIRS = 1296
CELLS = 2**21
SHAPES = [(), (5,), (3, 1), (2, 3, 4)]


# -- the registry -------------------------------------------------------------------


def _structural(w):
    return w.dense() if 4 * w.order**2 <= BYTE_BUDGET else WreathOracle(w)


def _named(spec):
    return spec, lambda: construct_named(spec), lambda g: loop_group(spec)


def _renumbered(name, spec, perm):
    return name, lambda: renumbered(construct_named(spec), perm), lambda g: loop_group(spec, perm)


def _shape(k_spec, h_spec, degree):
    name = f"{k_spec} wr {h_spec}" + (f" natural:{degree}" if degree else "")
    return name, lambda: build_wreath(*_theta_omega(k_spec, h_spec, degree)), _structural


def _product_base(specs, h_spec, degree):
    """A wreath product over a direct product, whose labels hold commas."""
    def build():
        k = functools.reduce(direct_product, map(construct_named, specs))
        h = construct_named(h_spec)
        return build_wreath(k, regular_action(h) if degree is None else natural_action(degree, h))
    return f"({' x '.join(specs)}) wr {h_spec}", build, _structural


def _c2_wr_c2(dense):
    w = regular_wreath(construct_named("C:2"), construct_named("C:2"))
    return w.dense() if dense else w


def _wreath_as_base(dense):
    return build_wreath(_c2_wr_c2(dense), regular_action(construct_named("C:2")))


def _wreath_as_top(dense):
    w = _c2_wr_c2(dense)
    _pair, incl = subgroup_from_elements(w, [w.identity, 3])  # 3 is (1,1; e)
    return build_wreath(construct_named("C:2"), coset_action(w, incl)[0])


def _permutation(n):
    return random.Random(f"renumbered {n}").sample(range(n), n)


REGISTRY = (
    [_named(spec) for spec in ("C:1", "C:12", "D:6", "V4", "Q8", "S:4", "A:5", "AGL:5")]
    + [_renumbered("D:6 renumbered", "D:6", _permutation(12)),
       _renumbered("S:4 renumbered", "S:4", _permutation(24)),
       # the identity at index 5, so the coset of H = {1, 5} is point 1, not 0
       _renumbered("S:3 with identity 5", "S:3", [5, 1, 2, 3, 4, 0])]
    # C:45 wr_r C:2 has the widest tuple block under the dense cap; C:2 wr_r V4 is
    # the shape of the product kk builds for Q8 over its centre
    + [_shape(*shape) for shape in THETA_CATALOG + [("C:45", "C:2", None), ("C:2", "V4", None)]]
    + [_product_base(["C:2", "C:2"], "C:2", None), _product_base(["C:2", "C:3"], "S:3", 3),
       ("(C:2 wr C:2) wr C:2", lambda: _wreath_as_base(False),
        lambda g: _wreath_as_base(True).dense()),
       ("C:2 wr (C:2 wr C:2 on the cosets of a pair)", lambda: _wreath_as_top(False),
        lambda g: _wreath_as_top(True).dense())]
)
ENTRIES = {name: (factory, reference) for name, factory, reference in REGISTRY}


def build(name):
    factory, reference = ENTRIES[name]
    g = factory()
    return g, reference(g)


@pytest.fixture(scope="module", params=list(ENTRIES))
def entry(request):
    """(group, reference) of one registry entry; the module scope runs every
    check of one entry before the next entry is built."""
    return build(request.param)


def group_classes():
    """Every ``Group`` class that wreathlab defines, by a walk of the subclass tree."""
    found, todo = [], [Group]
    while todo:
        for cls in todo.pop().__subclasses__():
            todo.append(cls)
            if cls.__module__.split(".")[0] == "wreathlab" and cls not in found:
                found.append(cls)
    return found


def unregistered():
    registered = {type(factory()) for factory, _reference in ENTRIES.values()}
    return [cls for cls in group_classes() if cls not in registered]


def test_every_group_class_is_registered():
    assert set(group_classes()) >= {FiniteGroup, WreathGroup}
    assert unregistered() == []


def test_a_group_class_without_an_entry_fails_the_completeness_check():
    extra = type("XorGroup", (Group,), {"__module__": "wreathlab.fields"})
    try:
        assert unregistered() == [extra]
    finally:
        del extra
        gc.collect()
    assert unregistered() == []


# -- the protocol --------------------------------------------------------------------


def is_table(ref):
    return isinstance(ref, FiniteGroup)


def ref_mul(ref, a, b):
    """The reference's products, broadcast over index arrays."""
    if is_table(ref):
        return ref.table[a, b].astype(np.int64)
    return np.vectorize(ref.mul, otypes=[np.int64])(a, b)


def elements(g, ref, rng):
    """Every element where the reference is a table or the order is at most
    ``ALL_PAIRS``, else the identity and 300 seeded samples."""
    if is_table(ref) or g.order <= ALL_PAIRS:
        return np.arange(g.order)
    return np.unique(np.append(rng.integers(0, g.order, 300), [0, g.identity, g.order - 1]))


def check_products(g, ref):
    rng = np.random.default_rng(g.order)
    n, e = g.order, ref.identity
    for a, b in rng.integers(0, n, (40, 2)).tolist():
        assert type(g.mul(a, b)) is int and g.mul(a, b) == ref.mul(a, b), (a, b)
        assert type(g.inv(a)) is int and ref.mul(a, g.inv(a)) == ref.mul(g.inv(a), a) == e, a
    for shape in SHAPES:
        a, b, c = (rng.integers(0, n, s) for s in (shape, shape, shape[1:]))
        for x, y in ((a, b), (a, c)):
            out = g.mul_array(x, y)
            assert np.shape(out) == np.broadcast_shapes(np.shape(x), np.shape(y))
            assert (out == ref_mul(ref, x, y)).all(), shape
        out = g.inv_array(a)
        assert np.shape(out) == shape and (ref_mul(ref, a, out) == e).all(), shape
    x = elements(g, ref, rng)
    if is_table(ref):
        for lo in range(0, n, 256):
            rows = x[lo:lo + 256, None]
            assert (g.mul_array(rows, x) == ref.table[lo:lo + 256]).all(), lo
        assert (g.inv_array(x) == ref.inverses).all()
    else:
        y = rng.permutation(x)
        assert (g.mul_array(x, y) == ref_mul(ref, x, y)).all()
    assert (ref_mul(ref, x, g.inv_array(x)) == e).all()
    assert (g.mul_array(g.identity, x) == x).all() and (g.mul_array(x, g.identity) == x).all()
    if isinstance(g, WreathGroup):
        # dense() is read off mul_array, so a product is also checked against the
        # defining formula on 300 seeded pairs
        xs, ys = np.random.default_rng(5).integers(0, n, (2, 300)).tolist()
        assert g.mul_array(xs, ys).tolist() == [brute_wreath_mul(g, a, b) for a, b in zip(xs, ys)]


def check_identity_labels_and_generators(g, ref):
    assert type(g.identity) is int and g.identity == ref.identity
    x = elements(g, ref, np.random.default_rng(g.order)).tolist()
    labels = [g.label(i) for i in x]
    assert labels == [ref.label(i) for i in x]
    assert [g.label_index(text) for text in labels] == x
    gens = g.generators()
    assert closure(g, gens) == list(range(g.order))
    if is_table(ref):
        assert gens == ref.generators()
    assert g.point_maps == ref.point_maps


def check_power(g, ref):
    rng = random.Random(g.order)
    for x in [g.identity] + [rng.randrange(g.order) for _ in range(8)]:
        powers = [ref.identity]  # x^0, x^1, ... up to the first return to the identity
        while len(powers) == 1 or powers[-1] != ref.identity:
            powers.append(ref.mul(powers[-1], x))
        m = len(powers) - 1
        for k in list(range(-2 * m - 1, 2 * m + 2)) + [10**18 + 1, -(10**18) - 1]:
            assert g.power(x, k) == powers[k % m], (x, k)


def check_closure(g, ref):
    rng = random.Random(f"closure {g.order}")
    oracle = ref if is_table(ref) else g  # bfs_closure multiplies arrays
    for gens in generator_sets(g, rng):
        want = bfs_closure(oracle, gens)
        if len(want) <= 256:
            assert want == brute_closure(ref, gens)
        assert closure(g, gens) == sorted(want), gens


def check_labels(g, ref):
    """``labels(indices)`` is ``label`` of each index, on seeded rows, a repeated
    index and ``[]``, and refuses what ``label`` refuses, with its class."""
    rng = np.random.default_rng(g.order)
    for x in ([], rng.integers(0, g.order, 7), [g.identity, g.identity],
              elements(g, ref, rng)[:64]):
        assert g.labels(x) == [g.label(i) for i in np.asarray(x, dtype=np.int64).tolist()]
    for bad in (-1, g.order, 1.5, True, None):
        with pytest.raises(WreathlabError) as scalar:
            g.label(bad)
        with pytest.raises(WreathlabError) as row:
            g.labels([g.identity, bad])
        assert type(row.value) is type(scalar.value), bad


PROTOCOL = (check_products, check_identity_labels_and_generators, check_labels, check_power,
            check_closure)


@pytest.mark.parametrize("check", PROTOCOL, ids=lambda check: check.__name__[6:])
def test_protocol(entry, check):
    check(*entry)


# -- constructions -------------------------------------------------------------------


def candidate_subgroups(ref):
    """<all generators but the last> and <the last>, as ascending members."""
    gens = ref.generators()
    return [closure(ref, part) for part in (gens[:-1], gens[-1:])]


def subgroups(g, ref):
    """The candidate subgroups whose tables and coset actions fit ``CELLS``."""
    out = []
    for members in candidate_subgroups(ref):
        if (members not in out and len(members)**2 <= CELLS
                and g.order * (g.order // len(members)) <= CELLS):
            out.append(members)
    return out


def normal_closure(g, members):
    """The least normal subgroup holding ``members``: closed under conjugation by
    each generator, which suffices in a finite group."""
    gens = np.array(g.generators(), dtype=np.int64)
    while True:
        conj = g.mul_array(g.mul_array(g.inv_array(gens)[:, None], members), gens[:, None])
        new = set(conj.ravel().tolist()).difference(members)
        if not new:
            return members
        members = closure(g, members + sorted(new))


def normal_subgroups(g, ref):
    """The cores and normal closures of the candidate subgroups whose tables
    and quotient tables fit ``CELLS``: the proper nontrivial ones where any is."""
    found = []
    for members in candidate_subgroups(ref):
        for normal in (normal_core_sweep(ref, members), normal_closure(ref, members)):
            if normal not in found and max(len(normal), g.order // len(normal))**2 <= CELLS:
                found.append(normal)
    return [n for n in found if 1 < len(n) < g.order] or found


def with_table(entry):
    g, ref = entry
    if not is_table(ref):
        pytest.skip(f"{g!r} has no table to compare constructions with")
    return g, ref


def outcome(make):
    """make()'s value, or the type and message of the package error it raised."""
    try:
        return make()
    except WreathlabError as exc:
        return type(exc).__name__, str(exc)


def subgroup_summary(sub, incl):
    """Read through the protocol: a subgroup on every element of a product is the product."""
    x = np.arange(sub.order)
    return (sub.mul_array(x[:, None], x).tolist(), sub.identity, sub.inv_array(x).tolist(),
            sub.labels(x), sub.point_maps, sub.name, incl.image.tolist())


def certificate(hom):
    cert = certify_hom(hom)
    return cert.method, cert.checks, cert.counterexample


def hom_summary(hom):
    """The certificate and the verify_embedding report of hom and of hom with two
    image values swapped.  The broken hom's counterexample is checked against
    the all-pairs sweep up to order 256 and against a plain loop up to 64."""
    out = [certificate(hom), verify_embedding(hom).to_json()]
    if hom.domain.order >= 3:
        image = np.array(hom.image)
        i, j = [x for x in range(3) if x != hom.domain.identity][:2]
        image[[i, j]] = image[[j, i]]
        broken = GroupHom(hom.domain, hom.codomain, image, validate=False)
        cert = certificate(broken)
        if hom.domain.order <= 256:
            assert cert[2] == broken.find_hom_counterexample()
        if hom.domain.order <= 64:
            assert cert[2] == first_failing_pair(broken)
        out += [cert, verify_embedding(broken).to_json()]
    return out


def embedding_summary(w, phi):
    report = verify_embedding(phi)
    assert report.is_homomorphism and report.is_injective, w.name
    assert report.image_order == phi.domain.order, w.name
    return phi.image.tolist(), w.labels(phi.image), w.name, w.order, hom_summary(phi)


def test_subgroups_cosets_and_cores(entry):
    g, ref = with_table(entry)
    assert subgroups(g, ref)
    for members in subgroups(g, ref):
        got = []
        for group in (g, ref):
            sub, incl = subgroup_from_elements(group, members)
            coset_of, reps = coset_partition(group, members)
            omega, section = coset_action(group, incl)
            core, core_incl = normal_core(group, incl)
            got.append((subgroup_summary(sub, incl), coset_of.tolist(), reps.tolist(),
                        omega.act.tolist(), omega.point_labels, section.choice.tolist(),
                        subgroup_summary(core, core_incl), hom_summary(incl)))
        assert got[0] == got[1], members
        coset_of = got[0][1]
        assert coset_of[0] == 0  # the coset holding index 0 is point 0
        assert got[0][6][-1] == normal_core_sweep(ref, members)


def test_quotients_and_kk_embeddings(entry):
    g, ref = with_table(entry)
    assert normal_subgroups(g, ref)
    for members in normal_subgroups(g, ref):
        got = []
        for group in (g, ref):
            _n, incl = subgroup_from_elements(group, members)
            q, proj = quotient(group, incl)
            kk = outcome(lambda: embedding_summary(*kk_embedding(ses_from_subgroup(group, incl))))
            got.append((q.table.tolist(), q.identity, q.inverses.tolist(), q.labels(range(q.order)),
                        q.name, proj.image.tolist(), hom_summary(proj), kk))
        assert got[0] == got[1], members


def test_omega_embeddings(entry):
    g, ref = with_table(entry)
    for members in subgroups(g, ref):
        got = [outcome(lambda: embedding_summary(
            *omega_embedding(group, subgroup_from_elements(group, members)[1])))
            for group in (g, ref)]
        assert got[0] == got[1], members


def test_classes_cosets_and_top_orbits_match_the_oracles(entry):
    """Classes, cosets and a product's top orbits are orbits of generator
    permutations: against the former class loop, the member walk over cosets
    and the orbit of each point read off the action's column."""
    g, ref = entry
    if is_table(ref):
        assert ref.conjugacy_classes() == class_sweep(ref)
        if isinstance(g, FiniteGroup):
            assert g.conjugacy_classes() == class_sweep(ref)
    oracle = ref if is_table(ref) else g  # the member walk multiplies arrays
    gens = g.generators()
    for part in (gens[:-1], gens[-1:]):
        members = closure(g, part)
        want = [a.tolist() for a in member_coset_partition(oracle, members)]
        assert [a.tolist() for a in coset_partition(g, part)] == want, part
        if len(members) * g.order <= CELLS:
            assert [a.tolist() for a in coset_partition(g, members)] == want, part
    if isinstance(g, WreathGroup):
        top = g.top
        least = [min(top.act[:, w].tolist()) for w in range(top.size)]
        assert _orbits(top.act[top.group.generators()]).tolist() == least


def table_summary(g):
    x = np.arange(g.order)
    return g.table.tolist(), g.identity, g.inverses.tolist(), g.labels(x), g.name


def test_direct_products_and_exchange_files_take_a_structural_group(tmp_path):
    """Each read a table once, so each refused C:2 wr_r C:2 without dense()."""
    c2 = construct_named("C:2")
    w = regular_wreath(c2, c2)
    d = w.dense()
    for (a, b), (a_ref, b_ref) in (((w, c2), (d, c2)), ((c2, w), (c2, d)), ((w, w), (d, d))):
        assert table_summary(direct_product(a, b)) == table_summary(direct_product(a_ref, b_ref))
    assert group_to_json(w) == group_to_json(d)
    assert table_summary(group_from_json(group_to_json(w)))[:4] == table_summary(d)[:4]
    for group in (w, d):
        _pair, incl = subgroup_from_elements(group, [group.identity, 3])  # 3 is (1,1; e)
        save_action(coset_action(group, incl)[0], tmp_path / f"{type(group).__name__}.json")
    written = [(tmp_path / f"{cls.__name__}.json").read_bytes() for cls in (WreathGroup, FiniteGroup)]
    assert written[0] == written[1]
    loaded = load_action(tmp_path / "WreathGroup.json")
    assert (loaded.act.tolist(), table_summary(loaded.group)[:4]) == (
        coset_action(d, subgroup_from_elements(d, [d.identity, 3])[1])[0].act.tolist(),
        table_summary(d)[:4])


def test_constructions_read_a_structural_groups_labels_in_one_call(monkeypatch):
    """subgroup_from_elements, coset_action and quotient once read one label per element."""
    w = regular_wreath(construct_named("C:2"), construct_named("C:4"))
    base = [x for x in range(w.order) if w.decode(x)[1] == 0]  # the normal base group
    _b, incl = subgroup_from_elements(w, base)
    calls, real = [], WreathGroup.labels
    monkeypatch.setattr(WreathGroup, "labels",
                        lambda self, indices: calls.append(len(indices)) or real(self, indices))
    for construct, count in ((subgroup_from_elements, len(base)), (coset_action, 4), (quotient, 4)):
        calls.clear()
        construct(w, base if construct is subgroup_from_elements else incl)
        assert calls == [count], construct.__name__


def test_the_coset_of_h_off_point_0_embeds_through_its_own_point():
    """S:3 with its identity at index 5: H = {1, 5}, the subgroup the suite takes
    from the last generator, is the coset at point 1, and 0's coset is point 0."""
    g, ref = build("S:3 with identity 5")
    assert [1, 5] in subgroups(g, ref)
    for group in (g, ref):
        _sub, incl = subgroup_from_elements(group, [1, 5])
        omega, section = coset_action(group, incl)
        coset_of, _reps = coset_partition(group, [1, 5])
        assert coset_of[group.identity] == 1 and coset_of[0] == 0
        assert section.choice.tolist()[:2] == [0, 1]
        assert omega.act[group.identity].tolist() == [0, 1, 2]
        report = verify_embedding(omega_embedding(group, incl)[1])
        assert report.is_homomorphism and report.is_injective


# -- the suite fails on a broken class --------------------------------------------------


def swap_two_digits(true):
    def mul_array(self, x, y):
        digits, tops = self.decode_array(true(self, x, y))
        return self.encode_array(digits[..., [1, 0, *range(2, self.n_points)]], tops)
    return mul_array


MUTANTS = {
    "mul_array swaps two digits": ("mul_array", swap_two_digits),
    "inv_array off by one": ("inv_array",
                             lambda true: lambda self, x: (true(self, x) + 1) % self.order),
    "label_index off by one": ("label_index", lambda true: lambda self, text: true(self, text) + 1),
}


@pytest.mark.parametrize("mutant", sorted(MUTANTS))
def test_a_broken_wreath_method_fails_the_suite(monkeypatch, mutant):
    method, broken = MUTANTS[mutant]
    monkeypatch.setattr(WreathGroup, method, broken(getattr(WreathGroup, method)))
    g, ref = build("C:2 wr C:3")  # the reference is built from the broken class too
    failed = []
    for check in PROTOCOL:
        try:
            check(g, ref)
        except AssertionError:
            failed.append(check.__name__)
    assert failed, mutant
