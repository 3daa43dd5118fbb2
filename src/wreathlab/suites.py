"""Named verification suites enumerating the package's structural properties.

Each suite returns Verdict records; the CLI prints them sorted and the
acceptance tests assert on them.  Sampling depths are seeded and overridable.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

from .actions import natural_action, regular_action
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
from .search import are_isomorphic, conjugacy_class_reps
from .wreath import _Codec, build_wreath, theta

THETA_EXHAUSTIVE_LIMIT = 10**4
THETA_SAMPLES_DEFAULT = 10**4
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
    idx = np.arange(g.order)
    classes: dict[int, list[int]] = {}
    for rep in conjugacy_class_reps(g):
        cls = g.table[g.table[idx, rep], g.inverses[idx]]
        classes[rep] = sorted(set(int(v) for v in cls))
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
    ("C:5", "C:5", None),  # order 15625: exercised by sampling
]


def _theta_omega(k_spec: str, h_spec: str, degree: Optional[int]):
    k = construct_named(k_spec)
    h = construct_named(h_spec)
    omega = regular_action(h) if degree is None else natural_action(degree, h)
    return k, omega


def check_theta_properties(k: FiniteGroup, omega, exhaustive: bool,
                           samples: int, seed: int = 0) -> Optional[str]:
    """First failure of the theta homomorphism/automorphism laws, else None."""
    h_grp = omega.group
    if exhaustive:
        prod, pv = _Codec(k, omega).tuple_tables()
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
    rng = random.Random(seed)
    npts = omega.size
    for _ in range(samples):
        h1, h2 = rng.randrange(h_grp.order), rng.randrange(h_grp.order)
        f = tuple(rng.randrange(k.order) for _ in range(npts))
        if theta(omega, h_grp.mul(h1, h2), f) != theta(omega, h1, theta(omega, h2, f)):
            return f"theta hom law fails at sampled (h1,h2)=({h1},{h2})"
        g = tuple(rng.randrange(k.order) for _ in range(npts))
        fg = tuple(k.mul(a, b) for a, b in zip(f, g))
        tf, tg = theta(omega, h1, f), theta(omega, h1, g)
        if theta(omega, h1, fg) != tuple(k.mul(a, b) for a, b in zip(tf, tg)):
            return f"theta_{h1} not multiplicative on a sampled pair"
    return None


# -- suites ---------------------------------------------------------------------


def theta_suite(samples: Optional[int] = None, seed: int = 0) -> list[Verdict]:
    samples = THETA_SAMPLES_DEFAULT if samples is None else samples
    out = []
    for k_spec, h_spec, degree in THETA_CATALOG:
        k, omega = _theta_omega(k_spec, h_spec, degree)
        order = k.order**omega.size * omega.group.order
        exhaustive = order <= THETA_EXHAUSTIVE_LIMIT
        failure = check_theta_properties(k, omega, exhaustive, samples, seed)
        mode = "exhaustive" if exhaustive else f"sampled:{samples}"
        name = f"{k_spec} wr {h_spec}" + (f" (natural:{degree})" if degree else "")
        out.append(Verdict("theta", name, failure is None,
                           failure or f"{mode}, order {order}"))
    return out


def _verify_section(ses: ShortExactSequence, section) -> Optional[str]:
    _w, phi = kk_embedding(ses, section)
    report = verify_embedding(phi)
    if not report.is_homomorphism:
        return f"hom law fails at {report.counterexample}"
    if not report.is_injective:
        return "not injective"
    return None


def kk_suite(random_sections: Optional[int] = None, seed: int = 0) -> list[Verdict]:
    random_sections = (KK_RANDOM_SECTIONS_DEFAULT if random_sections is None
                       else random_sections)
    rng = random.Random(seed)
    out = []
    for name, ses in ses_catalog():
        failure = _verify_section(ses, None)
        count = 1
        if failure is None:
            if ses.q.order <= KK_ALL_SECTIONS_LIMIT:
                for s in all_sections(ses.g_to_q):
                    count += 1
                    failure = _verify_section(ses, s)
                    if failure is not None:
                        break
            else:
                for _ in range(random_sections):
                    count += 1
                    failure = _verify_section(ses, random_section(ses.g_to_q, rng))
                    if failure is not None:
                        break
        out.append(Verdict("kk", name, failure is None,
                           failure or f"{count} sections verified"))
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


def _equivariant_bijection(w, w_hat, phi: GroupHom):
    for xi in itertools.permutations(range(w.top.size)):
        ok = True
        for h in range(w.top.group.order):
            if not all(xi[w.top.apply(h, p)] == w_hat.top.apply(phi(h), xi[p])
                       for p in range(w.top.size)):
                ok = False
                break
        if ok:
            return list(xi)
    return None


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
        xi = _equivariant_bijection(w_agl, w_s3, psi)
        ok = xi is not None
        if ok:
            transported = transport_iso(psi, psi, xi, w_agl, w_s3)
            back = transported.inverse().compose(transported)
            ok = bool((back.image == np.arange(w_agl.order)).all())
            detail = f"bijective hom over {w_agl.order}^2 pairs; inverse round-trips"
    out.append(Verdict("iso", "affine wreath matches symmetric wreath (order 1296)",
                       ok, detail or "component identification failed"))

    witness = solvability_witness(w_s3.product, 3)
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
    expected = np.empty(w1.order, dtype=np.int64)
    for x in range(w1.order):
        f, h = w1.decode(x)
        digits = [f[aut.inverse()(j)] for j in range(4)]
        expected[x] = w1.encode(digits, aut(h))
    ok = bool((moved.image == expected).all())
    out.append(Verdict("iso", "regular-case transport matches the direct formula",
                       ok, ""))
    return out


SUITES: dict[str, Callable[..., list[Verdict]]] = {
    "theta": lambda samples, seed: theta_suite(samples, seed),
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
