"""Named verification suites enumerating the package's structural properties.

Each suite returns Verdict records; the CLI prints them sorted and the
acceptance tests assert on them.  The theta, omega, cocycle and iso suites are
exact and take no depth.  The depth (``sampled:N``) and the seed only set the
kk suite's random sections, drawn where a quotient is too large to try them all.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

from .actions import check_equivariant, natural_action, regular_action
from .embeddings import (
    ShortExactSequence,
    all_sections,
    kk_embedding,
    omega_embedding,
    random_section,
    solvability_witness,
    transport_iso,
    verify_embedding,
)
from .fields import MultiQuadField, QuadraticTower, verify_cocycle
from .groups import (
    FiniteGroup,
    GroupHom,
    center_subgroup,
    closure,
    construct_named,
    quotient,
    subgroup_from_elements,
    subgroup_generated,
)
from .search import are_isomorphic
from .wreath import _Codec, build_wreath

KK_RANDOM_SECTIONS_DEFAULT = 20
KK_ALL_SECTIONS_LIMIT = 4


@dataclass(frozen=True)
class Verdict:
    suite: str
    name: str
    passed: bool
    detail: str = ""

    def to_json(self) -> dict:
        return {"suite": self.suite, "property": self.name,
                "pass": self.passed, "detail": self.detail}


# -- shared fixtures ------------------------------------------------------------


def find_normal_subgroup(g: FiniteGroup, spec: str):
    """Normal subgroup of g isomorphic to the named spec, as (subgroup, inclusion).

    Normal subgroups are enumerated as closures of unions of conjugacy classes.
    """
    if spec == "center":
        return center_subgroup(g)
    target = construct_named(spec)
    classes = g.conjugacy_classes()
    nontrivial = [rep for rep in classes if rep != g.identity]
    seen: set[frozenset] = set()
    for r in range(len(nontrivial) + 1):
        for combo in itertools.combinations(nontrivial, r):
            gens: list[int] = []
            for rep in combo:
                gens.extend(classes[rep])
            members = frozenset(closure(g, gens))
            if members in seen or len(members) != target.order:
                continue
            seen.add(members)
            sub, incl = subgroup_from_elements(g, members)
            if are_isomorphic(sub, target) is not None:
                return sub, incl
    raise ValueError(f"no normal subgroup of {g.name} isomorphic to {spec}")


def stabilizer_subgroup(g: FiniteGroup, point: int):
    """Point stabilizer of a permutation-like group (1-based point)."""
    if g.point_maps is None:
        raise ValueError("group carries no point data")
    p = point - 1
    members = [i for i, pm in enumerate(g.point_maps) if pm[p] == p]
    return subgroup_from_elements(g, members, name=f"stab({point}) in {g.name}")


def ses_from_subgroup(g: FiniteGroup, incl: GroupHom) -> ShortExactSequence:
    _q, proj = quotient(g, incl)
    return ShortExactSequence(incl, proj)


def ses_catalog() -> list[tuple[str, ShortExactSequence]]:
    out = []
    s3 = construct_named("S:3")
    out.append(("S3/A3", ses_from_subgroup(s3, find_normal_subgroup(s3, "A:3")[1])))
    d4 = construct_named("D:4")
    out.append(("D4/<r>", ses_from_subgroup(d4, subgroup_generated(d4, [2])[1])))
    out.append(("D4/V4", ses_from_subgroup(d4, find_normal_subgroup(d4, "V4")[1])))
    s4 = construct_named("S:4")
    out.append(("S4/V4", ses_from_subgroup(s4, find_normal_subgroup(s4, "V4")[1])))
    q8 = construct_named("Q8")
    out.append(("Q8/center", ses_from_subgroup(q8, center_subgroup(q8)[1])))
    return out


THETA_CATALOG: list[tuple[str, str, Optional[int]]] = [
    # (base spec, top spec, natural-action degree or None for regular)
    ("C:2", "C:2", None),
    ("C:2", "C:3", None),
    ("C:3", "C:3", None),
    ("A:3", "C:2", None),
    ("C:4", "C:2", None),
    ("V4", "C:2", None),
    ("S:3", "C:2", None),
    ("C:6", "C:2", None),
    ("Q8", "C:2", None),
    ("C:2", "D:4", None),
    ("C:2", "Q8", None),
    ("C:2", "S:3", 3),
    ("C:2", "S:4", 4),
    ("S:3", "S:3", 3),
    ("AGL:3", "AGL:3", 3),
    ("C:5", "C:5", None),  # order 15625: above the dense cap
]


def _theta_omega(k_spec: str, h_spec: str, degree: Optional[int]):
    k = construct_named(k_spec)
    h = construct_named(h_spec)
    omega = regular_action(h) if degree is None else natural_action(degree, h)
    return k, omega


def check_theta_properties(k: FiniteGroup, omega) -> tuple[Optional[str], int]:
    """(first failure or None, checks) of the theta laws, certified on generators.

    theta_h(f) is the tuple part of (1, h)(f, e).  In order, each naming its
    first failure row-major: theta_e = id; theta_s is a bijection for each
    generator s of H; theta_(h1 s) = theta_h1 o theta_s for every h1 and f;
    theta_s(fg) = theta_s(f) theta_s(g) for every f and every g generating
    K^Omega (a generator of K at one point).  The s and the g that pass are
    closed under products, so both laws hold for every h, f and g.
    """
    codec, h_grp = _Codec(k, omega), omega.group
    b, pv = codec.tuple_count, codec.theta_table()
    gens = np.array(h_grp.generators(), dtype=np.int64)
    k_gens = np.array(k.generators(), dtype=np.int64)
    g = (codec.identity % b + (k_gens[None, :] - k.identity) * codec._pw[:, None]).ravel()
    checks = b * (1 + len(gens) * (1 + h_grp.order + len(g)))
    f = np.arange(b)
    bad = pv[h_grp.identity] != f
    if bad.any():
        return f"theta_{h_grp.identity} is not the identity at f={int(np.argmax(bad))}", checks
    for s in gens.tolist():
        if np.bincount(pv[s], minlength=b).max() != 1:
            return f"theta_{s} is not a bijection", checks
    # bad[h1, i, f]: theta_(h1 s_i)(f) against theta_h1(theta_s_i(f))
    bad = pv[h_grp.mul_array(np.arange(h_grp.order)[:, None], gens)] != pv[:, pv[gens]]
    if bad.any():
        h1, i, f0 = (int(v) for v in np.argwhere(bad)[0])
        return (f"theta_(h1 h2) != theta_h1 o theta_h2 at (h1,h2,f)="
                f"({h1},{gens[i]},{f0})"), checks
    # bad[i, f, j]: theta_s_i(f g_j) against theta_s_i(f) theta_s_i(g_j)
    ps = pv[gens]
    bad = (ps[:, codec.tuple_product(f[:, None], g[None, :])]
           != codec.tuple_product(ps[:, :, None], ps[:, g][:, None, :]))
    if bad.any():
        i, f0, j = (int(v) for v in np.argwhere(bad)[0])
        s = gens[i]
        return f"theta_{s}(fg) != theta_{s}(f) theta_{s}(g) at (f,g)=({f0},{g[j]})", checks
    return None, checks


# -- suites ---------------------------------------------------------------------


def theta_suite() -> list[Verdict]:
    out = []
    for k_spec, h_spec, degree in THETA_CATALOG:
        k, omega = _theta_omega(k_spec, h_spec, degree)
        failure, checks = check_theta_properties(k, omega)
        order = k.order**omega.size * omega.group.order
        detail = f"generator-certified, {checks} checks, order {order}"
        name = f"{k_spec} wr {h_spec}" + (f" (natural:{degree})" if degree else "")
        out.append(Verdict("theta", name, failure is None,
                           f"{failure}; {detail}" if failure else detail))
    return out


def _verify_section(ses: ShortExactSequence, section) -> tuple[Optional[str], int]:
    """(failure or None, hom-law checks) of the kk embedding through one section."""
    _w, phi = kk_embedding(ses, section)
    report = verify_embedding(phi)
    if not report.is_homomorphism:
        return f"hom law fails at {report.counterexample}", report.checks
    if not report.is_injective:
        return "not injective", report.checks
    return None, report.checks


def kk_suite(random_sections: Optional[int] = None, seed: int = 0) -> list[Verdict]:
    """The default section, then every section where the quotient has at most
    ``KK_ALL_SECTIONS_LIMIT`` elements and seeded random ones otherwise."""
    random_sections = (KK_RANDOM_SECTIONS_DEFAULT if random_sections is None
                       else random_sections)
    rng = random.Random(seed)
    out = []
    for name, ses in ses_catalog():
        if ses.q.order <= KK_ALL_SECTIONS_LIMIT:
            total = ses.n.order**ses.q.order  # each fiber is a coset of N
            sections, which = all_sections(ses.g_to_q), f"all {total} sections"
        else:
            sections = (random_section(ses.g_to_q, rng) for _ in range(random_sections))
            which = f"sampled:{random_sections} seed {seed}"
        count, checks = 0, 0
        for section in itertools.chain([None], sections):
            count += 1
            failure, n = _verify_section(ses, section)
            checks += n
            if failure is not None:
                break
        detail = (f"{count} sections verified: the default, then {which}; "
                  f"each generator-certified, {checks} checks")
        out.append(Verdict("kk", name, failure is None, failure or detail))
    return out


def omega_suite() -> list[Verdict]:
    out = []

    s4 = construct_named("S:4")
    _stab, incl = stabilizer_subgroup(s4, 4)
    w, phi = omega_embedding(s4, incl)
    report = verify_embedding(phi)
    ok = (w.order == 31104 and report.is_homomorphism and report.is_injective)
    out.append(Verdict("omega", "S4 point stabilizer",
                       ok, f"wreath order {w.order}, report {report.to_json()}"))

    # with a normal subgroup both embeddings use the same wreath and agree argwise
    for gname, g, sub_spec in (
        ("D4", construct_named("D:4"), "<r>"),
        ("S3", construct_named("S:3"), "A:3"),
    ):
        if sub_spec == "<r>":
            _n, incl = subgroup_generated(g, [2])
        else:
            _n, incl = find_normal_subgroup(g, sub_spec)
        ses = ses_from_subgroup(g, incl)
        _wk, phi_kk = kk_embedding(ses)
        _wo, phi_om = omega_embedding(g, incl)
        same = bool((phi_kk.image == phi_om.image).all())
        out.append(Verdict("omega", f"{gname}: normal subgroup coincidence",
                           same, "kk and coset images agree argwise" if same
                           else "images differ"))

    g = construct_named("S:3")
    _whole, incl = subgroup_from_elements(g, range(g.order))
    w, phi = omega_embedding(g, incl)
    report = verify_embedding(phi)
    ok = w.top.size == 1 and report.is_injective and report.image_is_full
    out.append(Verdict("omega", "whole-group subgroup degenerates to identity",
                       ok, f"wreath order {w.order}"))
    return out


def cocycle_suite() -> list[Verdict]:
    towers = [
        ("(5,7) alpha=7", QuadraticTower(MultiQuadField([5, 7]), [5], Fraction(7))),
        ("(2,3) alpha=3", QuadraticTower(MultiQuadField([2, 3]), [2], Fraction(3))),
        ("(2,3,5) K=(2,3) alpha=5",
         QuadraticTower(MultiQuadField([2, 3, 5]), [2, 3], Fraction(5))),
    ]
    out = []
    for name, tower in towers:
        ok, witness = verify_cocycle(tower)
        triples = tower.L.dim**2 * tower.K.dim
        out.append(Verdict("cocycle", name, ok,
                           f"{triples} triples" if ok else f"fails at {witness}"))
    return out


def iso_suite() -> list[Verdict]:
    out = []

    agl = construct_named("AGL:3")
    s3 = construct_named("S:3")
    w_agl = build_wreath(agl, natural_action(3, agl))
    w_s3 = build_wreath(s3, natural_action(3, s3))
    psi = are_isomorphic(agl, s3)
    ok = psi is not None
    detail = ""
    if ok:
        xi = next((list(c) for c in itertools.permutations(range(w_agl.top.size))
                   if check_equivariant(c, w_agl.top, w_s3.top, psi)), None)
        ok = xi is not None
        if ok:
            transported = transport_iso(psi, psi, xi, w_agl, w_s3)
            report = verify_embedding(transported)
            back = transported.inverse().compose(transported)
            ok = (report.is_homomorphism and report.image_is_full
                  and bool((back.image == np.arange(w_agl.order)).all()))
            detail = (f"bijective hom, {report.method}, {report.checks} checks; "
                      "inverse round-trips")
    out.append(Verdict("iso", "affine wreath matches symmetric wreath (order 1296)",
                       ok, detail or "component identification failed"))

    witness = solvability_witness(w_s3.dense(), 3)
    ok = witness is not None and witness.is_injective()
    out.append(Verdict("iso", "degree-9 imprimitive solvability for the full wreath",
                       ok, "injective witness found" if ok else "no witness"))

    ok = solvability_witness(construct_named("C:2"), 2) is not None
    out.append(Verdict("iso", "C2 solvable at p=2", ok, ""))
    ok = solvability_witness(construct_named("C:5"), 3) is None
    out.append(Verdict("iso", "C5 rejected at p=3 (Lagrange)", ok, ""))

    # regular-wreath specialization: xi = phi reproduces the component formula
    c2, c4 = construct_named("C:2"), construct_named("C:4")
    w1 = build_wreath(c2, regular_action(c4))
    aut = GroupHom(c4, c4, [0, 3, 2, 1])  # inversion automorphism
    ident = GroupHom(c2, c2, [0, 1])
    moved = transport_iso(ident, aut, list(aut.image), w1, w1)
    aut_inv = aut.inverse()
    expected = np.empty(w1.order, dtype=np.int64)
    for x in range(w1.order):
        f, h = w1.decode(x)
        digits = [f[aut_inv(j)] for j in range(4)]
        expected[x] = w1.encode(digits, aut(h))
    ok = bool((moved.image == expected).all())
    out.append(Verdict("iso", "regular-case transport matches the direct formula",
                       ok, ""))
    return out


SUITES: dict[str, Callable[..., list[Verdict]]] = {
    "theta": lambda samples, seed: theta_suite(),
    "kk": lambda samples, seed: kk_suite(samples, seed),
    "omega": lambda samples, seed: omega_suite(),
    "cocycle": lambda samples, seed: cocycle_suite(),
    "iso": lambda samples, seed: iso_suite(),
}


def run_suites(which: str, samples: Optional[int] = None, seed: int = 0) -> list[Verdict]:
    if which == "all":
        names = sorted(SUITES)
    elif which in SUITES:
        names = [which]
    else:
        raise ValueError(f"unknown suite {which!r} (choose from all, {', '.join(sorted(SUITES))})")
    verdicts: list[Verdict] = []
    for name in names:
        verdicts.extend(SUITES[name](samples, seed))
    return sorted(verdicts, key=lambda v: (v.suite, v.name))
