"""Embeddings of group extensions into wreath products, with full verification.

Two constructions are provided and cross-checked:

* ``kk_embedding`` sends an extension 1 -> N -> G -> Q -> 1 into the regular
  wreath product N wr_r Q via g |-> (sigma_g, eps(g)) with
  sigma_g(q) = s(q)^-1 * g * s(eps(g)^-1 * q) for a chosen section s.
* ``omega_embedding`` sends G into H wr_Omega (G/core(H)) for any subgroup
  H <= G, where Omega is the left-coset space of H and the quotient acts by
  translation; the same sigma formula applies with coset representatives.

Transport maps move embeddings across isomorphic or included components, and
``solvability_witness`` searches for an embedding into the affine wreath
product that characterizes radical solvability of imprimitive polynomials of
degree p^2.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .actions import FiniteGSet, check_equivariant, coset_action, natural_action
from .errors import (
    NotEquivariantError,
    NotIsomorphismError,
    SectionMismatchError,
    UnsupportedPrimeError,
    WreathlabError,
)
from .groups import (
    FiniteGroup,
    GroupHom,
    Section,
    construct_named,
    coset_partition,
    default_section,
    normal_core,
    quotient,
)
from .search import embeds_into
from .wreath import WreathProduct, build_wreath, regular_wreath


class ShortExactSequence:
    """1 -> N -> G -> Q -> 1 with image(iota) = kernel(eps) verified."""

    def __init__(self, n_to_g: GroupHom, g_to_q: GroupHom):
        if n_to_g.codomain is not g_to_q.domain:
            raise WreathlabError("inclusion and surjection disagree on the middle group")
        if not n_to_g.is_injective():
            raise WreathlabError("N -> G is not injective")
        if not g_to_q.is_surjective():
            raise WreathlabError("G -> Q is not surjective")
        if n_to_g.image_set() != set(g_to_q.kernel_indices()):
            raise WreathlabError("image(N -> G) != kernel(G -> Q)")
        self.n_to_g = n_to_g
        self.g_to_q = g_to_q

    @property
    def n(self) -> FiniteGroup:
        return self.n_to_g.domain

    @property
    def g(self) -> FiniteGroup:
        return self.n_to_g.codomain

    @property
    def q(self) -> FiniteGroup:
        return self.g_to_q.codomain


@dataclass
class EmbeddingReport:
    hom: GroupHom
    is_homomorphism: bool
    is_injective: bool
    image_order: int
    wreath_order: int
    image_is_full: bool
    counterexample: Optional[tuple[int, int]]

    def to_json(self) -> dict:
        return {
            "is_homomorphism": self.is_homomorphism,
            "is_injective": self.is_injective,
            "image_order": self.image_order,
            "wreath_order": self.wreath_order,
            "image_is_full": self.image_is_full,
            "counterexample": list(self.counterexample) if self.counterexample else None,
        }

    def __str__(self) -> str:
        return json.dumps(self.to_json())


def all_sections(eps: GroupHom):
    """Every right inverse of eps (|preimage| per point choices)."""
    q = eps.codomain
    fibers = [[x for x in range(eps.domain.order) if int(eps.image[x]) == t]
              for t in range(q.order)]
    for combo in itertools.product(*fibers):
        yield Section(q, eps.domain, np.array(combo, dtype=np.int64))


def random_section(eps: GroupHom, rng: random.Random) -> Section:
    q = eps.codomain
    choice = np.empty(q.order, dtype=np.int64)
    for t in range(q.order):
        fiber = [x for x in range(eps.domain.order) if int(eps.image[x]) == t]
        choice[t] = rng.choice(fiber)
    return Section(q, eps.domain, choice)


def _check_section(eps: GroupHom, s: Section) -> None:
    for t in range(eps.codomain.order):
        if int(eps.image[s(t)]) != t:
            raise SectionMismatchError(f"eps(s({t})) != {t}: section is not a right inverse")


def kk_embedding(ses: ShortExactSequence, s: Optional[Section] = None,
                 size_cap: Optional[int] = None,
                 dense_cap: Optional[int] = None) -> tuple[WreathProduct, GroupHom]:
    """Embed the extension into N wr_r Q (universal embedding of Kaloujnine-Krasner).

    Every value sigma_g(q) is checked to land in image(N -> G) before it is
    converted to a base-group index.
    """
    g, q, n = ses.g, ses.q, ses.n
    eps, iota = ses.g_to_q, ses.n_to_g
    if s is None:
        s = default_section(eps)
    _check_section(eps, s)
    w = regular_wreath(n, q, size_cap=size_cap, dense_cap=dense_cap)
    n_index = np.full(g.order, -1, dtype=np.int64)
    n_index[iota.image] = np.arange(n.order)
    image = np.empty(g.order, dtype=np.int64)
    for x in range(g.order):
        top = int(eps.image[x])
        top_inv = q.inv(top)
        digits = []
        for t in range(q.order):
            val = g.mul(g.mul(g.inv(s(t)), x), s(q.mul(top_inv, t)))
            d = int(n_index[val])
            if d < 0:
                raise SectionMismatchError(
                    f"sigma_g({t}) for g index {x} escapes the kernel")
            digits.append(d)
        image[x] = w.encode(digits, top)
    return w, GroupHom(g, w.product, image)


def omega_embedding(g: FiniteGroup, h_k: GroupHom, s: Optional[Section] = None,
                    size_cap: Optional[int] = None,
                    dense_cap: Optional[int] = None) -> tuple[WreathProduct, GroupHom]:
    """Embed g into H wr_Omega Q with H = image(h_k), Omega its cosets,
    Q = g / normal_core(H).

    The quotient acts on Omega through preimages (well defined because the
    core lies inside H); sigma values are checked to land in H.
    """
    _core, core_incl = normal_core(g, h_k)
    q, proj = quotient(g, core_incl)
    omega_g, reps = coset_action(g, h_k)
    q_reps = default_section(proj)
    act_q = omega_g.act[np.asarray(q_reps.choice)]
    for x in range(g.order):
        if not (act_q[int(proj.image[x])] == omega_g.act[x]).all():
            raise WreathlabError("induced quotient action on cosets is ill defined")
    omega_q = FiniteGSet(q, act_q, point_labels=list(omega_g.point_labels))
    if s is None:
        s = reps
    coset_of, _ = coset_partition(g, sorted(h_k.image_set()))
    for w_idx in range(omega_g.size):
        if int(coset_of[s(w_idx)]) != w_idx:
            raise SectionMismatchError(f"section value for coset {w_idx} lies in the wrong coset")
    base = h_k.domain
    w = build_wreath(base, omega_q, size_cap=size_cap, dense_cap=dense_cap)
    h_index = np.full(g.order, -1, dtype=np.int64)
    h_index[h_k.image] = np.arange(base.order)
    image = np.empty(g.order, dtype=np.int64)
    for x in range(g.order):
        top = int(proj.image[x])
        top_inv_row = omega_q.act[q.inv(top)]
        digits = []
        for w_idx in range(omega_q.size):
            val = g.mul(g.mul(g.inv(s(w_idx)), x), s(int(top_inv_row[w_idx])))
            d = int(h_index[val])
            if d < 0:
                raise WreathlabError(
                    f"sigma_g(omega) for g index {x} escapes the subgroup")
            digits.append(d)
        image[x] = w.encode(digits, top)
    return w, GroupHom(g, w.product, image)


def verify_embedding(phi: GroupHom) -> EmbeddingReport:
    """Exhaustive homomorphism/injectivity/fullness report for phi."""
    counterexample = phi.find_hom_counterexample()
    image_order = len(np.unique(phi.image))
    wreath_order = phi.codomain.order
    return EmbeddingReport(
        hom=phi,
        is_homomorphism=counterexample is None,
        is_injective=image_order == phi.domain.order,
        image_order=int(image_order),
        wreath_order=int(wreath_order),
        image_is_full=image_order == wreath_order,
        counterexample=counterexample,
    )


def _transport_image(psi: GroupHom, phi: GroupHom, xi, w: WreathProduct,
                     w_hat: WreathProduct) -> np.ndarray:
    xi = np.asarray(xi, dtype=np.int64)
    xi_inv = np.empty(len(xi), dtype=np.int64)
    xi_inv[xi] = np.arange(len(xi))
    image = np.empty(w.order, dtype=np.int64)
    for x in range(w.order):
        f, h = w.decode(x)
        # (f, h) |-> (psi o f o xi^-1, phi(h))
        digits = [int(psi.image[f[int(xi_inv[j])]]) for j in range(w_hat.top.size)]
        image[x] = w_hat.encode(digits, phi(h))
    return image


def transport_iso(psi: GroupHom, phi: GroupHom, xi, w: WreathProduct,
                  w_hat: WreathProduct) -> GroupHom:
    """Isomorphism (f, h) |-> (psi o f o xi^-1, phi(h)) between wreath products.

    psi and phi must be isomorphisms of the base and top groups and xi an
    equivariant point bijection; the result is verified bijective over the
    full element range.
    """
    if not (psi.is_injective() and psi.is_surjective()):
        raise NotIsomorphismError("base-component map is not an isomorphism")
    if not (phi.is_injective() and phi.is_surjective()):
        raise NotIsomorphismError("top-component map is not an isomorphism")
    if not check_equivariant(xi, w.top, w_hat.top, phi):
        raise NotEquivariantError("point bijection is not equivariant for the top maps")
    if w.order != w_hat.order:
        raise NotIsomorphismError("wreath products have different orders")
    image = _transport_image(psi, phi, xi, w, w_hat)
    out = GroupHom(w.product, w_hat.product, image, validate=False)
    bad = out.find_hom_counterexample()
    if bad is not None:
        raise NotIsomorphismError(f"transport fails the hom law at pair {bad}")
    if len(np.unique(image)) != w.order:
        raise NotIsomorphismError("transport is not bijective")
    return out


def transport_subgroup(iota_k: GroupHom, iota_h: GroupHom, xi, w: WreathProduct,
                       w_hat: WreathProduct) -> GroupHom:
    """Injective hom K wr_Omega H -> K^ wr_Omega^ H^ from component inclusions."""
    if not iota_k.is_injective():
        raise NotIsomorphismError("base-component map is not injective")
    if not iota_h.is_injective():
        raise NotIsomorphismError("top-component map is not injective")
    if not check_equivariant(xi, w.top, w_hat.top, iota_h):
        raise NotEquivariantError("point bijection is not equivariant for the inclusions")
    image = _transport_image(iota_k, iota_h, xi, w, w_hat)
    out = GroupHom(w.product, w_hat.product, image, validate=False)
    bad = out.find_hom_counterexample()
    if bad is not None:
        raise NotIsomorphismError(f"transport fails the hom law at pair {bad}")
    if len(np.unique(image)) != w.order:
        raise NotIsomorphismError("transport is not injective")
    return out


_SOLVABILITY_PRIMES = (2, 3)


def solvability_wreath(p: int, size_cap: Optional[int] = None,
                       dense_cap: Optional[int] = None) -> WreathProduct:
    """AGL(1,F_p) wr_Omega AGL(1,F_p) with Omega = F_p under evaluation."""
    if p not in _SOLVABILITY_PRIMES:
        raise UnsupportedPrimeError(
            f"solvability criterion supports p in {_SOLVABILITY_PRIMES} at desk scale")
    agl = construct_named(f"AGL:{p}")
    omega = natural_action(p, agl)
    return build_wreath(agl, omega, size_cap=size_cap, dense_cap=dense_cap)


def solvability_witness(g: FiniteGroup, p: int) -> Optional[GroupHom]:
    """An embedding of g into the degree-p^2 affine wreath product, or None."""
    w = solvability_wreath(p)
    return embeds_into(g, w.product)
