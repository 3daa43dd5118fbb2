"""Embeddings of group extensions into wreath products, with full verification.

Two embeddings are provided, and both come from one construction.  A
section s picks a representative s(p) for each point p of an Omega-set of a
quotient Q of G, and x in G goes to (sigma_x, top(x)) with
sigma_x(p) = s(p)^-1 * x * s(top(x)^-1 . p).  ``_sigma_image`` is the one
statement of that formula, evaluated for all x together:

* ``omega_embedding`` sends G into H wr_Omega (G/core(H)) for any subgroup
  H <= G: Omega is the left-coset space of H, G/core(H) is G's image on it
  (the core is the action's kernel) and s picks coset representatives.
* ``kk_embedding`` is the same formula with Omega = Q acting on itself: it
  sends an extension 1 -> N -> G -> Q -> 1 into the regular wreath product
  N wr_r Q, s a section of eps and top = eps (Kaloujnine-Krasner).

Transport maps move embeddings across isomorphic components, and
``solvability_witness`` searches for an embedding into the affine wreath
product that characterizes radical solvability of imprimitive polynomials of
degree p^2.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .actions import FiniteGSet, check_equivariant, coset_action, natural_action
from .errors import (
    GroupFormatError,
    NotEquivariantError,
    NotIsomorphismError,
    SectionMismatchError,
    UnsupportedPrimeError,
    WreathlabError,
)
from .groups import (
    FiniteGroup,
    Group,
    GroupHom,
    Section,
    _budget,
    _coset_group,
    _count_distinct,
    _int64_indices,
    certify_hom,
    construct_named,
    coset_partition,
    default_section,
)
from .search import embeds_into
from .wreath import WreathGroup, _check_wreath_order, build_wreath, regular_wreath


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
        self._wreath: Optional[WreathGroup] = None

    @property
    def n(self) -> FiniteGroup:
        return self.n_to_g.domain

    @property
    def g(self) -> Group:
        return self.n_to_g.codomain

    @property
    def q(self) -> FiniteGroup:
        return self.g_to_q.codomain

    def wreath(self) -> WreathGroup:
        """N wr_r Q, built on the first call and kept: it depends only on the extension."""
        if self._wreath is None:
            self._wreath = regular_wreath(self.n, self.q)
        return self._wreath


@dataclass
class EmbeddingReport:
    hom: GroupHom
    is_homomorphism: bool
    is_injective: bool
    image_order: int
    wreath_order: int
    image_is_full: bool
    counterexample: Optional[tuple[int, int]]
    method: str
    checks: int
    elapsed_s: float

    def to_json(self) -> dict:
        """Every field but ``hom`` and ``elapsed_s``, so equal checks serialize equally."""
        return {
            "is_homomorphism": self.is_homomorphism,
            "is_injective": self.is_injective,
            "image_order": self.image_order,
            "wreath_order": self.wreath_order,
            "image_is_full": self.image_is_full,
            "counterexample": list(self.counterexample) if self.counterexample else None,
            "method": self.method,
            "checks": self.checks,
        }

    def __str__(self) -> str:
        return json.dumps(self.to_json())


def _check_section(point_of: np.ndarray, choice: np.ndarray, size: int) -> None:
    """Each row of choice, of shape (..., size), must pick one preimage under
    point_of of each point 0..size-1, in order."""
    if choice.shape[-1] != size:
        raise SectionMismatchError(f"section has {choice.shape[-1]} values for {size} points")
    bad = point_of[choice] != np.arange(size)
    if bad.any():
        at = int(bad.argmax())
        t = at % size
        raise SectionMismatchError(
            f"section value s({t}) lies over point {int(point_of[choice.flat[at]])}, not {t}")


def _sigma_image(g: Group, tops: np.ndarray, choice: np.ndarray, sub: GroupHom,
                 w: WreathGroup) -> np.ndarray:
    """Wreath index of (sigma_x, top(x)) for every x in g, for each section s
    whose values s(p) are a row of choice: shape (..., |Omega|) -> (..., |g|).

    sigma_x(p) = s(p)^-1 * x * s(top(x)^-1 . p) for each point p of
    Omega = w.top, all at once in two ``mul_array`` calls of g.  Every value is
    checked to land in image(sub) before it becomes a base-group digit.
    """
    moved = w.top.act[w.top.group.inv_array(tops)]  # row x is p |-> top(x)^-1 . p
    x = np.arange(g.order)[:, None]
    s_moved = choice.take(moved, axis=-1)  # s(top(x)^-1 . p); take is faster than [..., moved]
    vals = g.mul_array(g.mul_array(g.inv_array(choice)[..., None, :], x), s_moved)
    digit_of = np.full(g.order, -1, dtype=np.int64)
    digit_of[sub.image] = np.arange(sub.domain.order)
    digits = digit_of[vals]
    if (digits < 0).any():
        x, p = np.unravel_index(int((digits < 0).argmax()), digits.shape)[-2:]
        raise SectionMismatchError(
            f"sigma_g({p}) for g index {x} escapes the image of the base group")
    return w.encode_array(digits, tops)


def kk_embedding(ses: ShortExactSequence,
                 s: Optional[Section] = None) -> tuple[WreathGroup, GroupHom]:
    """Embed the extension into N wr_r Q (universal embedding of Kaloujnine-Krasner).

    This is the sigma formula with Omega = Q acting on itself by left
    multiplication and s a section of G -> Q.  The product is the extension's
    own (``ses.wreath``), so every section of one extension shares it.
    """
    eps = ses.g_to_q
    if s is None:
        s = default_section(eps)
    _check_section(eps.image, s.choice, ses.q.order)
    w = ses.wreath()
    return w, GroupHom(ses.g, w, _sigma_image(ses.g, eps.image, s.choice, ses.n_to_g, w))


def _check_coset_wreath(g_order: int, t_order: Optional[int], at_least: bool = False) -> None:
    """Refuse T wr Q, Q acting on the [G : T] cosets of T, from the orders alone: the CLI
    calls it before any subgroup work, ``omega_embedding`` before any coset work.

    kk's Q is G/T, of order [G : T]; omega's Q acts transitively on the cosets, so [G : T]
    only bounds its order from below.  A |T| that does not divide |G| passes to the lookup.
    """
    if t_order is not None and g_order % t_order == 0:
        index = g_order // t_order
        _check_wreath_order(t_order, index, index, at_least=at_least)


# ``perfbench/workloads.py`` passes the last parameter, unused; ROADMAP item 3 deletes it
def omega_embedding(g: Group, h_k: GroupHom, s: Optional[Section] = None,
                    size_cap=None) -> tuple[WreathGroup, GroupHom]:
    """Embed g into H wr_Omega Q with H = image(h_k), Omega its cosets and
    Q = g / core(H) the image of g on Omega, the core being the action's kernel.

    Q's elements are the core's cosets, numbered by least member as in ``quotient``;
    s picks one representative per coset of H.
    """
    _check_coset_wreath(g.order, h_k.domain.order, at_least=True)
    omega_g, reps = coset_action(g, h_k)
    core = np.flatnonzero((omega_g.act == omega_g.act[g.identity]).all(axis=1))
    tops, q_reps = coset_partition(g, core)
    # named as quotient names g by normal_core, which is g itself on every element
    core_name = g.name if len(core) == g.order else f"core of {h_k.domain.name} in {g.name}"
    q = _coset_group(g, tops, q_reps, f"{g.name}/{core_name}")
    omega_q = FiniteGSet(q, omega_g.act[q_reps], point_labels=omega_g.point_labels)
    s = reps if s is None else s
    # the coset of x is x . p_H, where p_H = r_0^-1 . 0 is the point of the coset H
    p_h = omega_g.act[g.inv(reps(0)), 0]
    _check_section(omega_g.act[:, p_h], s.choice, omega_g.size)
    w = build_wreath(h_k.domain, omega_q)
    return w, GroupHom(g, w, _sigma_image(g, tops, s.choice, h_k, w))


def verify_embedding(phi: GroupHom) -> EmbeddingReport:
    """Homomorphism (certified on generators), injectivity and fullness report for phi.

    The hom law is certified once per hom: the certificate phi was built with
    is reused, and only a hom built unchecked is certified here.
    """
    cert = phi.certificate or certify_hom(phi)
    image_order = _count_distinct(phi.image)
    wreath_order = phi.codomain.order
    return EmbeddingReport(
        hom=phi,
        is_homomorphism=cert.counterexample is None,
        is_injective=image_order == phi.domain.order,
        image_order=int(image_order),
        wreath_order=int(wreath_order),
        image_is_full=image_order == wreath_order,
        counterexample=cert.counterexample,
        method=cert.method,
        checks=cert.checks,
        elapsed_s=cert.elapsed_s,
    )


def transport_iso(psi: GroupHom, phi: GroupHom, xi, w: WreathGroup,
                  w_hat: WreathGroup) -> GroupHom:
    """Isomorphism (f, h) |-> (psi o f o xi^-1, phi(h)) between wreath products.

    psi and phi must be isomorphisms of the base and top groups and xi an
    equivariant point bijection; the result is certified a hom and verified
    bijective over the full element range.
    """
    if not (psi.is_injective() and psi.is_surjective()):
        raise NotIsomorphismError("base-component map is not an isomorphism")
    if not (phi.is_injective() and phi.is_surjective()):
        raise NotIsomorphismError("top-component map is not an isomorphism")
    if not check_equivariant(xi, w.top, w_hat.top, phi):
        raise NotEquivariantError("point bijection is not equivariant for the top maps")
    if w.order != w_hat.order:
        raise NotIsomorphismError("wreath products have different orders")
    if psi.codomain.order != w_hat.base_group.order:
        raise NotIsomorphismError("base-component map does not land in the target base group")
    _budget(8 * w.order * w.n_points, "transport digits", w.order)
    xi_inv = np.argsort(_int64_indices(xi, GroupFormatError, "point bijection"))  # a bijection
    f, h = w.decode_array(np.arange(w.order))
    image = w_hat.encode_array(psi.image[f[:, xi_inv]], phi.image[h])
    out = GroupHom(w, w_hat, image, validate=False)
    cert = certify_hom(out)
    if cert.counterexample is not None:
        raise NotIsomorphismError(f"transport fails the hom law at pair {cert.counterexample}")
    out.certificate = cert
    if _count_distinct(image) != w.order:
        raise NotIsomorphismError("transport is not bijective")
    return out


_SOLVABILITY_PRIMES = (2, 3)


def solvability_wreath(p: int) -> WreathGroup:
    """AGL(1,F_p) wr_Omega AGL(1,F_p) with Omega = F_p under evaluation."""
    if p not in _SOLVABILITY_PRIMES:
        raise UnsupportedPrimeError(
            f"solvability criterion supports p in {_SOLVABILITY_PRIMES} at desk scale")
    agl = construct_named(f"AGL:{p}")
    omega = natural_action(p, agl)
    return build_wreath(agl, omega)


def solvability_witness(g: FiniteGroup, p: int) -> Optional[GroupHom]:
    """An embedding of g into the degree-p^2 affine wreath product, or None.

    Search reads Cayley tables, so the product is made dense here, once
    Lagrange's theorem on the structural product leaves an embedding possible.
    """
    w = solvability_wreath(p)
    if w.order % g.order:
        return None
    return embeds_into(g, w.dense())
