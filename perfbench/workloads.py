"""The three benchmark workloads as fixed, seeded operation lists.

An operation's ``make`` runs untimed: it generates the operation's inputs
from the operation's own seed with ``reference`` (never with wreathlab) and
returns a ``Prepared``.  Its ``thunk`` is the timed region, and every
wreathlab call of the operation happens inside it.  Its ``check`` runs
untimed and compares the result with an answer the benchmark computed
itself.

The op list of a workload is the same for every seed.  A seed changes the
inputs (relabelings, corruptions, sections, field elements, primes, sizes
inside narrow windows), never the number or the kind of the operations.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, NamedTuple, Optional

import numpy as np

import reference as ref
import wreathlab as wl
import wreathlab.cli
import wreathlab.suites

# Known defects of the package at the time the benchmark was defined.  An
# operation that fails in exactly one of these ways counts as failed (it
# lowers success_ratio) but leaves the run correct; any other failure makes
# the run incorrect.
KNOWN_DEFECTS = {
    "assoc-spot-check": "a corrupted table above order 512 is accepted, because "
                        "associativity is only spot-checked on 2000 random triples there",
    "structural-search": "embeds_into into a structural wreath product raises "
                         "AttributeError (no element_orders)",
}

DENSE_CAP = 4096          # the package's default dense-table cap when the benchmark was defined
VALIDATION_CLIFF = 512    # above this order the package spot-checks associativity


class Failure(NamedTuple):
    text: str
    known: Optional[str] = None


Check = Callable[[Any, Optional[BaseException]], tuple[str, Optional[Failure]]]


class Prepared(NamedTuple):
    thunk: Callable[[], Any]
    check: Check
    key: str      # identifies the generated inputs, for the input digest
    props: dict   # input properties, summarised per run


@dataclass
class Op:
    kind: str
    make: Callable[[random.Random, dict], Prepared]
    seed: int


def table_key(table) -> str:
    """A short digest of an array's bytes, taken without copying the array."""
    return hashlib.sha256(memoryview(np.ascontiguousarray(table))).hexdigest()[:16]


def raised(exc: Optional[BaseException]) -> Optional[Failure]:
    if exc is None:
        return None
    return Failure(f"raised {type(exc).__name__}: {exc}")


def run_cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = wreathlab.cli.main(argv)
    return code, out.getvalue()


def injective_hom_failure(image, domain: np.ndarray, mul, order: int) -> Optional[Failure]:
    """The image must have ``order`` elements and obey the hom law on all pairs."""
    image = np.asarray(image, dtype=np.int64)
    size = len(np.unique(image))
    if size != order:
        return Failure(f"image has {size} elements, expected {order}")
    bad = ref.hom_violations(image, domain, mul)
    return Failure(f"hom law fails on {bad} pairs") if bad else None


def wreath_of(w) -> ref.Wreath:
    """Reference multiplication for a package product, from its component tables."""
    return ref.Wreath(w.base_group.table, w.top.act, w.top.group.table, w.top.group.identity)


def report_failure(report, order: int, wreath_order: int) -> Optional[Failure]:
    got = (report.is_homomorphism, report.is_injective, report.image_order, report.wreath_order)
    want = (True, True, order, wreath_order)
    return None if got == want else Failure(f"report {got} != {want}")


def cli_op(argv_of: Callable[[random.Random], tuple[list[str], list[str], dict]],
           tail: bool = False) -> Callable:
    """A wreathlab.cli.main call that must exit 0 and print the expected lines.

    With ``tail`` only the last lines are compared.  An expected line that
    ends in ``*`` need only be a prefix of the printed line.
    """
    def make(rng, ctx):
        argv, expected, props = argv_of(rng)

        def check(value, exc):
            if exc is not None:
                return "", raised(exc)
            code, out = value
            lines = out.splitlines()
            got = lines[-len(expected):] if tail else lines
            ok = code == 0 and len(got) == len(expected) and all(
                g.startswith(e[:-1]) if e.endswith("*") else g == e
                for g, e in zip(got, expected))
            if not ok:
                return out, Failure(f"{' '.join(argv)}: exit {code}, output {got[:3]} "
                                    f"!= {expected[:3]}")
            return out, None
        return Prepared(lambda: run_cli(argv), check, " ".join(argv), props)
    return make


# -- catalog --------------------------------------------------------------------


def construct_op(spec_of: Callable[[random.Random], str]) -> Callable:
    def make(rng, ctx):
        spec = spec_of(rng)
        table = ref.named(spec)

        def check(g, exc):
            if exc is not None:
                return "", raised(exc)
            if g.order != len(table) or g.identity != 0 or not np.array_equal(g.table, table):
                return spec, Failure(f"{spec}: table differs from the reference")
            return f"{spec}:{table_key(g.table)}", None
        return Prepared(lambda: wl.construct_named(spec), check, spec, {"order": len(table)})
    return make


def json_text(table: np.ndarray, identity: int) -> str:
    """The exchange format of group_to_json, written row by row so that no
    nested list of the whole table is ever held by the benchmark."""
    n = len(table)
    rows = ",".join("[" + ",".join(map(str, row.tolist())) + "]" for row in table)
    labels = ",".join(f'"g{i}"' for i in range(n))
    return f'{{"order": {n}, "identity": {identity}, "labels": [{labels}], "table": [{rows}]}}'


def json_op(spec_of: Callable[[random.Random], str], corrupt: bool) -> Callable:
    """A relabeled group's JSON text, valid or with one intercalate swapped,
    parsed and loaded through group_from_json as a file load would."""
    def make(rng, ctx):
        spec = spec_of(rng)
        table, identity, _ = ref.relabel(ref.named(spec), 0, rng)
        if corrupt:
            table = ref.intercalate(table, identity, rng)
        n = len(table)
        text = json_text(table, identity)

        def check(g, exc):
            if corrupt:
                if isinstance(exc, wl.GroupValidationError):
                    return "rejected", None
                if exc is not None:
                    return "", raised(exc)
                known = "assoc-spot-check" if n > VALIDATION_CLIFF else None
                return "accepted", Failure(f"corrupted order-{n} table accepted", known)
            if exc is not None:
                return "", raised(exc)
            if (g.order, g.identity) != (n, identity) or not np.array_equal(g.table, table):
                return "", Failure("loaded table differs from the input")
            if not np.array_equal(g.inverses, ref.inverses(table, identity)):
                return "", Failure("inverse table differs from the reference")
            return table_key(g.table), None
        return Prepared(lambda: wl.group_from_json(json.loads(text)), check,
                        f"{spec}:{table_key(table)}", {"order": n, "corrupted": corrupt})
    return make


# Direct products of order 32..64, with the name identify_small gives them.
# The search cost of these stays within 2x under random relabeling; products
# such as C:8 x Q8 vary 7x with the labeling and would make the timings
# depend on the seed.
IDENTIFY_POOL = [
    ("C:4", "C:8", "C:4 × C:8"), ("C:2", "S:4", "C:2 × S:4"), ("C:4", "A:4", "C:4 × A:4"),
    ("C:2", "D:16", "C:2 × D:16"), ("C:3", "D:8", "C:3 × D:8"), ("C:2", "D:12", "C:2 × D:12"),
    ("C:5", "D:5", "C:5 × D:5"),
]


def identify_op(a: str, b: str, name: str) -> Callable:
    def make(rng, ctx):
        table, identity, _ = ref.relabel(ref.direct_product(ref.named(a), ref.named(b)), 0, rng)

        def run():
            return wl.identify_small(wl.FiniteGroup(table, identity=identity))

        def check(got, exc):
            if exc is not None:
                return "", raised(exc)
            return got, None if got == name else Failure(f"identified {got!r}, expected {name!r}")
        return Prepared(run, check, f"{a}x{b}:{table_key(table)}", {"order": len(table)})
    return make


def group_table(spec: str) -> np.ndarray:
    if spec == "C2^3":
        c2 = ref.cyclic(2)
        return ref.direct_product(c2, ref.direct_product(c2, c2))
    return ref.named(spec)


# (candidate subgroup, ambient group, whether an injective hom exists)
SEARCH_POOL = [
    ("D:4", "S:4", True), ("C:5", "A:5", True), ("A:4", "A:5", True), ("S:3", "S:4", True),
    ("V4", "A:4", True), ("C:4", "D:4", True), ("D:5", "A:5", True), ("D:7", "AGL:7", True),
    ("C:6", "AGL:7", True), ("S:4", "S:5", True),
    ("Q8", "S:4", False), ("C2^3", "S:4", False), ("C:6", "A:5", False), ("C:4", "A:5", False),
    ("D:4", "Q8", False), ("Q8", "D:4", False), ("A:4", "D:6", False), ("D:6", "S:4", False),
]


def search_op(a: str, b: str, exists: bool) -> Callable:
    def make(rng, ctx):
        ta, ea, _ = ref.relabel(group_table(a), 0, rng)
        tb, eb, _ = ref.relabel(group_table(b), 0, rng)

        def run():
            return wl.embeds_into(wl.FiniteGroup(ta, identity=ea), wl.FiniteGroup(tb, identity=eb))

        def check(hom, exc):
            if exc is not None:
                return "", raised(exc)
            if hom is None:
                return "refuted", Failure(f"{a} -> {b} not found") if exists else None
            if not exists:
                return "found", Failure(f"{a} -> {b} cannot exist")
            return "found", injective_hom_failure(hom.image, ta, lambda x, y: tb[x, y], len(ta))
        return Prepared(run, check, f"{a}->{b}:{table_key(ta)}:{table_key(tb)}",
                        {"order": len(tb), "search": "found" if exists else "refuted"})
    return make


def structural_search_op(make_n: Callable[[random.Random], int]) -> Callable:
    """C:n into C:2 wr_r C:n, a product above the dense cap."""
    def make(rng, ctx):
        n = make_n(rng)
        tn, en, _ = ref.relabel(ref.cyclic(n), 0, rng)

        def run():
            w = wl.regular_wreath(wl.FiniteGroup(ref.cyclic(2)), wl.FiniteGroup(ref.cyclic(n)))
            return w, wl.embeds_into(wl.FiniteGroup(tn, identity=en), w.product)

        def check(value, exc):
            if isinstance(exc, AttributeError) and "element_orders" in str(exc):
                return "AttributeError", Failure(str(exc), "structural-search")
            if exc is not None:
                return "", raised(exc)
            w, hom = value
            if hom is None:
                return "refuted", Failure(f"C:{n} -> C:2 wr C:{n} not found")
            return "found", injective_hom_failure(hom.image, tn, wreath_of(w).mul, n)
        order = 2**n * n
        return Prepared(run, check, f"C:{n}:{table_key(tn)}",
                        {"order": order, "search": "found", "wreath_order": order})
    return make


def build_argv(k: str, h: str, omega: str, order: int, name: Optional[str]) -> Callable:
    def argv_of(rng):
        line = f"order {order}" + (f", identified {name}" if name else "")
        return ["build", "--k", k, "--h", h, "--omega", omega], [line], {"wreath_order": order}
    return argv_of


# (base, top, omega, order, the name identify_small gives, or None above order 64).
# Fixed rather than seeded: each dense build holds an order^2 table, so a
# seeded size would move the peak RSS with the seed.
BUILDS = [("C:2", "C:2", "regular", 8, "D:4"), ("C:2", "C:3", "regular", 24, "C:2 × A:4"),
          ("S:3", "S:3", "natural:3", 1296, None), ("AGL:3", "AGL:3", "natural:3", 1296, None),
          ("C:2", "S:4", "natural:4", 384, None), ("C:25", "C:2", "regular", 1250, None),
          ("C:2", "C:5", "regular", 160, None), ("C:3", "C:3", "regular", 81, None)]


class OpList:
    """Collects a workload's operations, each with a seed drawn from the workload seed."""

    def __init__(self, name: str, seed: int):
        self.rng = random.Random(f"{name}:{seed}")
        self.ops: list[Op] = []

    def add(self, kind: str, make: Callable) -> None:
        self.ops.append(Op(kind, make, self.rng.getrandbits(64)))


def fixed(spec: str) -> Callable:
    return lambda rng: spec


def window(family: str, lo: int, hi: int) -> Callable:
    return lambda rng: f"{family}:{rng.randint(lo, hi)}"


def catalog(seed: int, smoke: bool) -> list[Op]:
    """Trusted construction beside untrusted loading, identification and search.

    Seeded sizes stay in windows a few percent wide: construction and
    validation cost grows as n^2 or n^3, so a wide window would make the
    timings depend on the seed rather than on the code.
    """
    ops = OpList("catalog", seed)
    for spec in ["S:4", "AGL:5"] if smoke else ["S:5", "S:6", "A:6", "AGL:7"]:
        ops.add("construct", construct_op(fixed(spec)))
    # both sides of the order-512 validation cliff
    cliff = [window("D", 248, 252), window("D", 257, 261),
             window("C", 500, 508), window("C", 513, 521)]
    for spec_of in cliff[1:] if smoke else cliff:
        ops.add("construct", construct_op(spec_of))
    small = [window("C", 60, 62), window("D", 30, 31), fixed("S:4"), fixed("A:5"),
             fixed("AGL:5"), fixed("Q8"), window("C", 100, 103), window("D", 50, 51)]
    for i in range(2 if smoke else 16):
        ops.add("construct", construct_op(small[i % len(small)]))

    even = [window("D", 30, 31), fixed("S:4"), fixed("AGL:5"), fixed("Q8"), window("D", 60, 62)]
    for i in range(2 if smoke else 20):
        ops.add("json_load", json_op(even[i % len(even)], corrupt=i % 2 == 1))
    if not smoke:
        # a block of one kind and cost in the middle of the catalog's op
        # costs, so that op_p50_ms lies inside it, not at an edge between kinds
        for _ in range(20):
            ops.add("json_load", json_op(fixed("D:32"), corrupt=False))
        for corrupt in (False, True):
            ops.add("json_load", json_op(window("D", 248, 252), corrupt))
    for i in range(2 if smoke else 8):
        ops.add("json_load", json_op(window("D", 257, 261), corrupt=i % 2 == 1))

    for a, b, name in IDENTIFY_POOL[:2] if smoke else IDENTIFY_POOL * 2:
        ops.add("identify", identify_op(a, b, name))
    for a, b, exists in SEARCH_POOL[::10] if smoke else SEARCH_POOL + SEARCH_POOL[:6]:
        ops.add("embeds_into", search_op(a, b, exists))
    for _ in range(1 if smoke else 2):
        ops.add("embeds_into", structural_search_op(lambda rng: rng.randint(13, 14)))

    for build in BUILDS[:3] if smoke else BUILDS:
        ops.add("cli_build", cli_op(build_argv(*build)))
    return ops.ops


# -- embed ----------------------------------------------------------------------


def ses_catalog_op(rng, ctx) -> Prepared:
    def check(cat, exc):
        if exc is not None:
            return "", raised(exc)
        ctx["ses"] = dict(cat)
        return ",".join(name for name, _ in cat), None
    return Prepared(lambda: wl.suites.ses_catalog(), check, "ses_catalog", {})


def s5_ses_op(rng, ctx) -> Prepared:
    """S:5 over A:5, with the even permutations located by the benchmark."""
    radix = 5 ** np.arange(4, -1, -1)
    even = np.isin(ref.permutations(5) @ radix, ref.permutations(5, even_only=True) @ radix)
    members = np.nonzero(even)[0].tolist()

    def run():
        s5 = wl.construct_named("S:5")
        _a5, incl = wl.subgroup_from_elements(s5, members)
        return wl.suites.ses_from_subgroup(s5, incl)

    def check(ses, exc):
        if exc is not None:
            return "", raised(exc)
        ctx["ses"]["S5/A5"] = ses
        return f"{ses.n.order}:{ses.q.order}", None
    return Prepared(run, check, "S5/A5", {})


def kk_op(name: str) -> Callable:
    """kk_embedding with a random section, then verify_embedding."""
    def make(rng, ctx):
        ses = ctx["ses"][name]
        eps = np.asarray(ses.g_to_q.image)
        choice = np.array([rng.choice(np.nonzero(eps == t)[0].tolist()) for t in range(ses.q.order)])

        def run():
            w, phi = wl.kk_embedding(ses, wl.Section(ses.q, ses.g, choice))
            return w, phi, wl.verify_embedding(phi)

        n, q, order = ses.n.order, ses.q.order, ses.g.order

        def check(value, exc):
            if exc is not None:
                return "", raised(exc)
            w, phi, report = value
            return table_key(phi.image), (
                report_failure(report, order, n**q * q)
                or injective_hom_failure(phi.image, ses.g.table, wreath_of(w).mul, order))
        return Prepared(run, check, f"{name}:{choice.tolist()}", {"wreath_order": n**q * q})
    return make


def omega_op(spec_of: Callable[[random.Random], tuple], size_cap: Optional[int] = None) -> Callable:
    """omega_embedding over a point stabilizer or a generated subgroup, then verify."""
    def make(rng, ctx):
        group, (kind, arg), wreath_order, label = spec_of(rng)

        def run():
            g = wl.construct_named(group)
            if kind == "stab":
                _h, incl = wl.suites.stabilizer_subgroup(g, arg)
            else:
                _h, incl = wl.subgroup_generated(g, [arg])
            w, phi = wl.omega_embedding(g, incl, size_cap=size_cap)
            return g, w, phi, wl.verify_embedding(phi)

        def check(value, exc):
            if exc is not None:
                return "", raised(exc)
            g, w, phi, report = value
            return table_key(phi.image), (
                report_failure(report, g.order, wreath_order)
                or injective_hom_failure(phi.image, g.table, wreath_of(w).mul, g.order))
        return Prepared(run, check, label, {"wreath_order": wreath_order})
    return make


def reflection_coset(n: int) -> Callable:
    def spec_of(rng):
        a = rng.randrange(n)
        return f"D:{n}", ("gen", 2 * a + 1), 2**n * 2 * n, f"D:{n}/<r^{a}s>"
    return spec_of


def a5_stabilizer(rng):
    k = rng.randint(1, 5)
    return "A:5", ("stab", k), 12**5 * 60, f"A:5/stab:{k}"


def transport_op(rng, ctx) -> Prepared:
    """transport_iso from AGL:3 wr_3 AGL:3 onto S:3 wr_3 S:3, through a seeded
    relabeling pi of the three points and conjugation by pi on the groups."""
    pi = np.array(rng.sample(range(3), 3), dtype=np.int64)
    perms = ref.permutations(3)
    radix = 3 ** np.arange(2, -1, -1)
    pts = np.arange(3)
    agl_maps = np.array([(a * pts + b) % 3 for a in (1, 2) for b in range(3)])
    conj = pi[agl_maps[:, np.argsort(pi)]]  # pi o (t -> a t + b) o pi^-1
    psi = np.searchsorted(perms @ radix, conj @ radix)
    src = ref.Wreath(ref.affine(3), agl_maps, ref.affine(3))
    dst = ref.Wreath(ref.named("S:3"), perms, ref.named("S:3"))
    domain = src.table()

    def run():
        agl, s3 = wl.construct_named("AGL:3"), wl.construct_named("S:3")
        w = wl.build_wreath(agl, wl.natural_action(3, agl))
        w_hat = wl.build_wreath(s3, wl.natural_action(3, s3))
        iso = wl.GroupHom(agl, s3, psi)
        return wl.transport_iso(iso, iso, pi.tolist(), w, w_hat)

    def check(hom, exc):
        if exc is not None:
            return "", raised(exc)
        return table_key(hom.image), injective_hom_failure(hom.image, domain, dst.mul, src.order)
    return Prepared(run, check, f"pi={pi.tolist()}", {"wreath_order": src.order})


def embed_argv(mode: str, group: str, flag: str, sub: str, order: int, wreath_order: int):
    def argv_of(rng):
        arg = f"stab:{rng.randint(1, 4)}" if sub == "stab" else sub
        line = (f"homomorphism: True, injective: True, image order {order} of {wreath_order}, "
                f"full: False")
        return (["embed", "--mode", mode, "--group", group, flag, arg], [line],
                {"wreath_order": wreath_order})
    return argv_of


VERIFY_PASSES = {"kk": 5, "omega": 4, "iso": 5, "theta": 16, "cocycle": 3}


def verify_argv(suite: str) -> Callable:
    """verify --suite SUITE: one PASS line per property, then 'all passed'."""
    def argv_of(rng):
        expected = ["PASS *"] * VERIFY_PASSES[suite] + ["all passed"]
        return ["verify", "--suite", suite, "--seed", str(rng.randrange(1000))], expected, {}
    return argv_of


def embed(seed: int, smoke: bool) -> list[Op]:
    """kk and coset embeddings with verification, transport, and the CLI suites."""
    ops = OpList("embed", seed)
    ops.add("ses", ses_catalog_op)
    names = ["S3/A3", "D4/<r>", "D4/V4", "S4/V4", "Q8/center"]
    for _ in range(1 if smoke else 16):
        for name in names:
            ops.add("kk", kk_op(name))
    ops.add("ses", s5_ses_op)
    for _ in range(1 if smoke else 3):
        ops.add("kk", kk_op("S5/A5"))
    for n in [5, 9] if smoke else range(5, 15):
        ops.add("omega", omega_op(reflection_coset(n)))
    if not smoke:
        ops.add("omega", omega_op(a5_stabilizer, size_cap=2 * 10**7))
    for _ in range(1 if smoke else 2):
        ops.add("transport", transport_op)
    embeds = [("kk", "S:3", "--normal", "A:3", 6, 18),
              ("kk", "S:4", "--normal", "V4", 24, 4**6 * 6),
              ("omega", "S:4", "--subgroup", "stab", 24, 6**4 * 24),
              ("omega", "A:4", "--subgroup", "stab", 12, 3**4 * 12)]
    for e in embeds[:1] if smoke else embeds:
        ops.add("cli_embed", cli_op(embed_argv(*e), tail=True))
    for suite in ["omega"] if smoke else ["kk", "omega", "iso", "theta"]:
        ops.add("cli_verify", cli_op(verify_argv(suite)))
    return ops.ops


# -- tower ----------------------------------------------------------------------


def near(got: float, want: float, scale: float) -> bool:
    return abs(got - want) <= 1e-9 * (1.0 + abs(want) + scale)


def field_op(k: int, op: str) -> Callable:
    """mul or inverse of seeded elements of Q(sqrt 2, sqrt 3, ..., sqrt(p_k)),
    checked against float arithmetic under two sign embeddings.

    The generators are fixed: larger primes make every coefficient larger, so
    a seeded choice of them would move the cost of an inverse by 2x.
    """
    gens = list(ref.SMALL_PRIMES[:k])

    def make(rng, ctx):
        x, y = ref.random_coords(2**k, rng), ref.random_coords(2**k, rng)
        embeddings = [[1] * k, [rng.choice((-1, 1)) for _ in range(k)]]

        def run():
            f = wl.MultiQuadField(gens)
            a = f.element(x)
            return a * f.element(y) if op == "mul" else (a, a.inverse())

        def check(value, exc):
            if exc is not None:
                return "", raised(exc)
            if op == "mul":
                out, scale = value.coords, ref.float_scale(x, gens) * ref.float_scale(y, gens)
            else:
                a, inv = value
                if a * inv != a.field.one():
                    return str(inv), Failure("x * x.inverse() != 1")
                out = inv.coords
                scale = ref.float_scale(x, gens) * ref.float_scale(out, gens)
            for signs in embeddings:
                vx, vout = ref.float_value(x, gens, signs), ref.float_value(out, gens, signs)
                got, want = ((vout, vx * ref.float_value(y, gens, signs)) if op == "mul"
                             else (vx * vout, 1.0))
                if not near(got, want, scale):
                    return str(out), Failure(f"float check fails under {signs}: {got} vs {want}")
            return str(out), None
        return Prepared(run, check, f"{gens}:{x}:{y}", {"k": k})
    return make


def small_square(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(1, 9), rng.randint(1, 9)) ** 2


def cocycle_op(rng, ctx) -> Prepared:
    alpha = 5 * small_square(rng)

    def run():
        return wl.verify_cocycle(wl.QuadraticTower(wl.MultiQuadField([2, 3, 5]), [2, 3], alpha))

    def check(value, exc):
        if exc is not None:
            return "", raised(exc)
        return str(value), None if value == (True, None) else Failure(f"cocycle {value}")
    return Prepared(run, check, str(alpha), {"k": 3})


def kummer_op(rng, ctx) -> Prepared:
    """Gal(L/Q) for L = Q(sqrt 2, sqrt 3, sqrt 5, sqrt 7) into C:2 wr Gal(K/Q)."""
    alpha = 7 * small_square(rng)
    bits = np.arange(16)
    gal_l = bits[:, None] ^ bits[None, :]  # sign vectors compose by XOR of masks
    gal_k = gal_l[:8, :8]

    def run():
        t = wl.QuadraticTower(wl.MultiQuadField([2, 3, 5, 7]), [2, 3, 5], alpha)
        return wl.quadratic_kummer_embedding(t)

    def check(value, exc):
        if exc is not None:
            return "", raised(exc)
        _w, phi, report = value
        mul = ref.Wreath(ref.cyclic(2), gal_k, gal_k).mul
        return table_key(phi.image), (report_failure(report, 16, 2**8 * 8)
                                      or injective_hom_failure(phi.image, gal_l, mul, 16))
    return Prepared(run, check, str(alpha), {"k": 4})


def tower_prime_op(p: int) -> Callable:
    """A tower whose alpha = 7 p^2 / 4 carries a large prime square."""
    def make(rng, ctx):
        alpha = Fraction(7 * p * p, 4)

        def run():
            return wl.QuadraticTower(wl.MultiQuadField([5, 7]), [5], alpha)

        def check(t, exc):
            if exc is not None:
                return "", raised(exc)
            want = (0, 0, Fraction(p, 2), 0)  # (p/2) sqrt(7), basis mask 0b10
            got = t.sqrt_alpha.coords
            return str(t.sqrt_alpha), None if got == want else Failure(f"sqrt(alpha) = {got}")
        return Prepared(run, check, str(p), {"k": 2})
    return make


def tower_embed_argv(section: bool) -> Callable:
    def argv_of(rng):
        alpha = 7 * small_square(rng)
        argv = ["embed", "--mode", "tower", "--field", "5,7", "--K", "5", "--alpha", str(alpha)]
        expected = ["homomorphism: True, injective: True, image order 4 of 8, full: False"]
        if section:
            argv += ["--section", "eta:rho1"]
            expected.append("section_cross_check: agree")
        return argv, expected, {"k": 2}
    return argv_of


# the size catalog rows per [K:F]: (bottom group, kc)
TABLE1 = {2: [("C2", 2)], 3: [("C3", 3), ("S3", 6)],
          4: [("C4", 4), ("C2xC2", 4), ("D4", 8), ("A4", 12), ("S4", 24)],
          5: [("C5", 5), ("D5", 10), ("F5", 20), ("A5", 60), ("S5", 120)]}


def sizes_table_argv(rng):
    kf = rng.randint(2, 5)
    return (["sizes", "--emit", "table1", "--kf", str(kf)],
            [f"{name}: kc={kc}, *" for name, kc in TABLE1[kf]], {})


def sizes_figure_argv(kf: int, group: str, k: int, kc: int) -> Callable:
    """Figure CSV rows, recomputed from the two size formulas."""
    def argv_of(rng):
        m_max = rng.randint(4 * kc, 12 * kc)
        lines = ["m,log_regular,log_omega,marker"]
        for m in range(kc, m_max + 1, kc):
            regular = (m // kc) ** kc * kc
            omega = (m // k) ** k * kc
            marker = "2kc" if m == 2 * kc else ""
            lines.append(f"{m},{math.log(regular)!r},{math.log(omega)!r},{marker}")
        argv = ["sizes", "--kf", str(kf), "--group", group, "--m-max", str(m_max),
                "--format", "csv"]
        return argv, lines, {}
    return argv_of


# Trial division costs about p steps, so each prime is drawn within 1% of a
# fixed anchor: the seed changes the primes but hardly their cost.
ANCHORS = [400_000, 550_000, 700_000, 850_000]


def tower(seed: int, smoke: bool) -> list[Op]:
    """Exact multiquadratic arithmetic, chi and the cocycle law, and sizes.

    The counts place p50 inside the block of mul at k=4 and p90 inside the
    block of mul at k=6, ops of one cost each.  At a boundary between ops of
    different kinds a percentile would jump with the machine's load.
    """
    ops = OpList("tower", seed)
    muls = {3: 1, 4: 1, 5: 1, 6: 1} if smoke else {3: 80, 4: 45, 5: 30, 6: 20}
    for k, count in muls.items():
        for _ in range(count):
            ops.add("mul", field_op(k, "mul"))
    inverses = {3: 1, 4: 1} if smoke else {3: 6, 4: 3, 5: 2}
    for k, count in inverses.items():
        for _ in range(count):
            ops.add("inverse", field_op(k, "inverse"))
    ops.add("cocycle", cocycle_op)
    ops.add("kummer", kummer_op)
    for p in ref.primes_near(ANCHORS[:2] if smoke else ANCHORS, ops.rng):
        ops.add("tower_prime", tower_prime_op(p))
    for section in (False, True):
        ops.add("cli_embed", cli_op(tower_embed_argv(section), tail=True))
    if not smoke:
        ops.add("cli_verify", cli_op(verify_argv("cocycle")))
    for _ in range(1 if smoke else 2):
        ops.add("cli_sizes", cli_op(sizes_table_argv))
    for args in [(3, "S3", 3, 6)] if smoke else [(3, "S3", 3, 6), (4, "D4", 4, 8)]:
        ops.add("cli_sizes", cli_op(sizes_figure_argv(*args)))
    return ops.ops


WORKLOADS = {"catalog": catalog, "embed": embed, "tower": tower}
