"""Command-line surface: build, embed, sizes, verify.

Exit codes: 0 success/verified, 1 verification failure, 2 usage error,
3 resource limit (a wreath order past the int64 index range, the dense-table
cap, the search budget, overflow or memory).

The argument parser is built once, at import, so repeated in-process ``main``
calls pay only for their own command.  ``main`` looks the command up by name,
``cmd_<command>`` in this module, on every call, so a replaced ``cmd_*``
function is the one that runs.  ``embed`` refuses an oversized kk or coset
embedding from the group specs alone, before it builds the group or does any
subgroup work.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import Optional

from .actions import coset_action, load_action, natural_action, regular_action
from .embeddings import _check_coset_wreath, kk_embedding, omega_embedding, verify_embedding
from .errors import (
    GroupFormatError,
    SearchBudgetExceededError,
    SizeLimitError,
    WreathlabError,
)
from .fields import MultiQuadField, QuadraticTower, quadratic_kummer_embedding, tower_extension
from .groups import (
    FiniteGroup,
    center_subgroup,
    construct_named,
    default_section,
    load_group,
    named_orders,
    save_group,
    subgroup_from_elements,
)
from .search import embeds_into, identify_small
from .sizes import M_MAX_BOUND, figure_csv, figure_data, table1
from .suites import Verdict, find_normal_subgroup, run_suites, ses_from_subgroup, stabilizer_subgroup
from .wreath import build_wreath

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text)


def _resolve_subgroup(g: FiniteGroup, spec: str):
    if spec == "center":
        return center_subgroup(g)
    if spec.startswith("stab:"):
        return stabilizer_subgroup(g, int(spec.split(":", 1)[1]))
    named = construct_named(spec)
    hom = embeds_into(named, g)
    if hom is None:
        raise ValueError(f"{g.name} has no subgroup isomorphic to {spec}")
    return subgroup_from_elements(g, hom.image_set())


def _parse_section_pairs(text: str) -> dict[str, str]:
    pairs = {}
    for chunk in text.split(","):
        q_label, sep, g_label = chunk.partition(":")
        if not sep:
            raise ValueError(f"bad section pair {chunk!r} (expected q-label:g-label)")
        pairs[q_label.strip()] = g_label.strip()
    return pairs


def _section_from_pairs(eps, pairs: dict[str, str]):
    overrides = {}
    for q_label, g_label in pairs.items():
        overrides[eps.codomain.label_index(q_label)] = eps.domain.label_index(g_label)
    return default_section(eps, overrides)


# -- build -----------------------------------------------------------------------


def _build_omega(h: Optional[FiniteGroup], mode: str):
    if mode == "regular":
        return regular_action(h)
    if mode.startswith("natural:"):
        return natural_action(int(mode.split(":", 1)[1]), h)
    if mode.startswith("cosets:"):
        _sub, incl = _resolve_subgroup(h, mode.split(":", 1)[1])
        return coset_action(h, incl)[0]
    if mode.startswith("file:"):
        return load_action(mode.split(":", 1)[1])
    raise ValueError(f"unknown omega mode {mode!r}")


# the omega modes that act through the top group, so cannot run without --h
_TOP_MODES = ("regular", "natural", "cosets")


def cmd_build(args) -> int:
    mode = args.omega.partition(":")[0]
    if not args.h and mode in _TOP_MODES:
        raise ValueError(f"--omega {mode} requires --h")
    k = construct_named(args.k)
    h = construct_named(args.h) if args.h else None
    omega = _build_omega(h, args.omega)
    w = build_wreath(k, omega)
    identified = identify_small(w.dense()) if w.order <= 64 else None
    if args.format == "json":
        payload = {
            "order": w.order,
            "identified": identified,
            "base_order": k.order,
            "omega_size": omega.size,
            "top_order": omega.group.order,
        }
        _emit(json.dumps(payload), None)
    else:
        line = f"order {w.order}"
        if identified is not None:
            line += f", identified {identified}"
        _emit(line, None)
    if args.out:
        save_group(w.dense(), args.out)
    return EXIT_OK


# -- embed -----------------------------------------------------------------------


def _print_embedding(domain, w, phi, report, args, extra: Optional[dict] = None) -> int:
    image = w.labels(phi.image)  # every image label from one decode
    if args.format == "json":
        payload = {
            "phi": [
                {"domain": domain.label(x), "image": image[x], "index": phi(x)}
                for x in range(domain.order)
            ],
            # the time is reported here only, so text output repeats run to run
            "report": {**report.to_json(), "elapsed_s": report.elapsed_s},
        }
        if extra:
            payload.update(extra)
        _emit(json.dumps(payload), args.out)
    else:
        lines = [f"{domain.label(x)} -> {image[x]}" for x in range(domain.order)]
        lines.append(
            f"homomorphism: {report.is_homomorphism}, injective: {report.is_injective}, "
            f"image order {report.image_order} of {report.wreath_order}, "
            f"full: {report.image_is_full}")
        if extra:
            lines.extend(f"{key}: {value}" for key, value in extra.items())
        _emit("\n".join(lines), args.out)
    return EXIT_OK if (report.is_homomorphism and report.is_injective) else EXIT_VERIFICATION


def _parse_integers(text: str, flag: str) -> list[int]:
    """A comma-separated list of integers; an empty or non-integer entry is a usage error."""
    try:
        return [int(v) for v in text.split(",")]
    except ValueError:
        raise ValueError(f"{flag} takes comma-separated integers, got {text!r}") from None


def _parse_tower(args) -> QuadraticTower:
    k_gens = _parse_integers(args.K, "--K") if args.K else []
    try:
        alpha = Fraction(args.alpha)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"--alpha takes a rational such as 5 or 3/2, got {args.alpha!r}") from None
    return QuadraticTower(MultiQuadField(_parse_integers(args.field, "--field")), k_gens, alpha)


# the arguments each embed mode cannot run without
_MODE_ARGS = {"kk": ("group", "normal"), "omega": ("group", "subgroup"), "tower": ("field", "alpha")}


def _spec_orders(group_spec: str, sub_spec: str) -> tuple[int, Optional[int]]:
    """(|G|, |T|) from the specs alone; |T| is None for stab:k, known only after its lookup."""
    g_order, center_order = named_orders(group_spec)
    if sub_spec == "center":
        return g_order, center_order
    return g_order, None if sub_spec.startswith("stab:") else named_orders(sub_spec)[0]


def cmd_embed(args) -> int:
    missing = [f"--{name}" for name in _MODE_ARGS[args.mode] if getattr(args, name) is None]
    if missing:
        raise ValueError(f"{args.mode} mode requires {' and '.join(missing)}")
    if args.mode == "kk":
        _check_coset_wreath(*_spec_orders(args.group, args.normal))
        g = construct_named(args.group)
        _n, incl = find_normal_subgroup(g, args.normal)
        ses = ses_from_subgroup(g, incl)
        section = None
        if args.section:
            section = _section_from_pairs(ses.g_to_q, _parse_section_pairs(args.section))
        w, phi = kk_embedding(ses, section)
        return _print_embedding(g, w, phi, verify_embedding(phi), args)
    if args.mode == "omega":
        # stab:k needs S:n, A:n or AGL:p, whose coset products all fit int64
        _check_coset_wreath(*_spec_orders(args.group, args.subgroup), at_least=True)
        g = construct_named(args.group)
        _sub, incl = _resolve_subgroup(g, args.subgroup)
        w, phi = omega_embedding(g, incl)
        return _print_embedding(g, w, phi, verify_embedding(phi), args)
    if args.mode == "tower":
        t = _parse_tower(args)
        w, phi, report = quadratic_kummer_embedding(t)
        extra = None
        if args.section:
            ses = tower_extension(t)
            section = _section_from_pairs(ses.g_to_q, _parse_section_pairs(args.section))
            _wk, phi_kk = kk_embedding(ses, section)
            agree = bool((phi_kk.image == phi.image).all())
            extra = {"section_cross_check": "agree" if agree else "DISAGREE"}
        return _print_embedding(phi.domain, w, phi, report, args, extra)
    raise ValueError(f"unknown embed mode {args.mode!r}")


# -- sizes -----------------------------------------------------------------------


def cmd_sizes(args) -> int:
    if args.emit == "table1":
        rows = table1(args.kf)
        if args.format == "json":
            payload = {
                "kf": args.kf,
                "rows": [
                    {"group": r.group_name, "kc": r.kc,
                     "regular": r.regular_formula(), "omega": r.omega_formula()}
                    for r in rows
                ],
            }
            _emit(json.dumps(payload), args.out)
        else:
            lines = [
                f"{r.group_name}: kc={r.kc}, regular={r.regular_formula()}, omega={r.omega_formula()}"
                for r in rows
            ]
            _emit("\n".join(lines), args.out)
        return EXIT_OK
    if not args.group:
        raise ValueError("--group is required unless --emit table1 is used")
    rows = figure_data(args.kf, args.group, args.m_max)
    if args.format == "json":
        payload = {
            "kf": args.kf,
            "group": args.group,
            "rows": [
                {"m": r.m, "log_regular": r.log_regular,
                 "log_omega": r.log_omega, "marker": r.marker}
                for r in rows
            ],
        }
        _emit(json.dumps(payload), args.out)
    else:
        _emit(figure_csv(rows).removesuffix("\n"), args.out)
    return EXIT_OK


# -- verify ----------------------------------------------------------------------


def cmd_verify(args) -> int:
    samples = None
    if args.depth.startswith("sampled:"):
        samples = int(args.depth.split(":", 1)[1])
        if samples < 0:
            raise ValueError(f"bad depth {args.depth!r} (N must be at least 0)")
    elif args.depth != "exhaustive":
        raise ValueError(f"bad depth {args.depth!r} (use exhaustive or sampled:N)")
    if args.group_json:
        try:
            verdict = Verdict("json", "group_invariants", True,
                              f"order {load_group(args.group_json).order} valid")
        except GroupFormatError:
            raise  # not a group exchange file at all: a usage error, not a failed verdict
        except (WreathlabError, KeyError, ValueError) as exc:
            verdict = Verdict("json", "group_invariants", False, str(exc))
        verdicts = [verdict.to_json()]
    else:
        verdicts = [v.to_json() for v in run_suites(args.suite, samples, args.seed)]
    all_passed = all(v["pass"] for v in verdicts)
    if args.format == "json":
        _emit(json.dumps({"verdicts": verdicts, "all_passed": all_passed}), args.out)
    else:
        lines = [
            f"{'PASS' if v['pass'] else 'FAIL'} {v['suite']}: {v['property']}"
            + (f" ({v['detail']})" if v["detail"] else "")
            for v in verdicts
        ]
        lines.append("all passed" if all_passed else "FAILURES present")
        _emit("\n".join(lines), args.out)
    return EXIT_OK if all_passed else EXIT_VERIFICATION


# -- parser ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="wreathlab",
                                     description="wreath products, extension embeddings, "
                                                 "multiquadratic towers, size tables")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="materialize a wreath product")
    p.add_argument("--k", required=True, help="base group spec (e.g. C:2, S:3, AGL:3)")
    p.add_argument("--h", help="top group spec")
    p.add_argument("--omega", default="regular",
                   help="regular | natural:n | cosets:SUB | file:PATH")
    p.add_argument("--out", help="write the product group JSON here")
    p.add_argument("--format", choices=["text", "json"], default="text")

    p = sub.add_parser("embed", help="construct and verify an embedding")
    p.add_argument("--mode", choices=["kk", "omega", "tower"], required=True)
    p.add_argument("--group", help="ambient group spec (kk/omega modes)")
    p.add_argument("--normal", help="normal subgroup spec (kk mode); 'center' allowed")
    p.add_argument("--subgroup", help="subgroup spec (omega mode); stab:k and center allowed")
    p.add_argument("--field", help="tower generators, e.g. 5,7; a list that starts with a "
                                   "negative one takes =, as in --field=-1,2,3")
    p.add_argument("--K", help="middle-field generators, e.g. 5; a list that starts with a "
                               "negative one takes =, as in --K=-1,2")
    p.add_argument("--alpha", help="rational alpha with sqrt(alpha) in L")
    p.add_argument("--section", help="comma-separated q-label:g-label overrides")
    p.add_argument("--out")
    p.add_argument("--format", choices=["text", "json"], default="text")

    p = sub.add_parser("sizes", help="size formulas, catalog rows and figure data")
    p.add_argument("--kf", type=int, required=True)
    p.add_argument("--group")
    p.add_argument("--m-max", type=int, default=120,
                   help=f"largest m of the figure rows, at most {M_MAX_BOUND}")
    p.add_argument("--emit", choices=["figure", "table1"], default="figure")
    p.add_argument("--out")
    p.add_argument("--format", choices=["text", "csv", "json"], default="text")

    p = sub.add_parser("verify", help="run verification suites")
    p.add_argument("--suite", default="all",
                   choices=["all", "theta", "kk", "omega", "cocycle", "iso"])
    p.add_argument("--depth", default="exhaustive",
                   help="exhaustive | sampled:N; sets only how many random sections "
                        "the kk suite tries (default 20), the other suites are exact")
    p.add_argument("--seed", type=int, default=0, help="seed of the kk suite's random sections")
    p.add_argument("--group-json", help="validate a group exchange file instead")
    p.add_argument("--out")
    p.add_argument("--format", choices=["text", "json"], default="text")

    return parser


# built once per process; argparse keeps no state between parse_args calls
_PARSER = build_parser()


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else EXIT_OK
    try:
        # looked up per call, so a replaced cmd_* (a test's patch, a tracer's wrapper) runs
        return globals()[f"cmd_{args.command}"](args)
    except (SizeLimitError, SearchBudgetExceededError, OverflowError, MemoryError) as exc:
        print(f"resource limit: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return EXIT_RESOURCE
    except (WreathlabError, ValueError, KeyError, OSError) as exc:  # OSError: an unreadable path
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
