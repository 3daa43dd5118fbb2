"""Finite left group actions on index sets, with the checks wreaths rely on."""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .errors import ActionValidationError, GroupFormatError
from .groups import (
    FiniteGroup,
    Group,
    GroupHom,
    Section,
    _count_distinct,
    _exchange_fields,
    _first_failure,
    _int64_indices,
    _int64_rows,
    _read_integer_json,
    _write_json_line,
    coset_partition,
    group_from_json,
    group_to_json,
    load_group,
)


class FiniteGSet:
    """A left action of a finite group on points 0..size-1.

    ``act[h][w]`` is the image of point ``w`` under group element ``h``,
    read by ``groups._int64_rows``: an array of an integer dtype, or rows of
    Python or numpy ints (a bool, float, str or None cell, ragged rows or a
    value past int64 raise ``ActionValidationError``).  Both action axioms are
    verified exactly at construction.  ``_group_table``, for the regular
    action only, says that ``act`` is the group's own Cayley table: it is
    kept as that read-only array unchecked, since its range, identity and
    compatibility axioms are the closure, identity and associativity the
    group already certified.
    """

    def __init__(self, group: Group, act, point_labels: Optional[Sequence[str]] = None,
                 _group_table: bool = False):
        self.group = group
        self.act = act if _group_table else _int64_rows(
            act, ActionValidationError, "'act'").astype(np.int64, copy=False)
        if self.act.ndim != 2 or self.act.shape[0] != group.order:
            raise ActionValidationError(
                f"action table must be |H| x |Omega|, got {self.act.shape}")
        self.size = int(self.act.shape[1])
        self.point_labels = (
            [str(x) for x in point_labels] if point_labels is not None
            else [str(w) for w in range(self.size)]
        )
        if len(self.point_labels) != self.size:
            raise ActionValidationError("point_labels length does not match size")
        if not _group_table:
            self._validate()
            self.act.setflags(write=False)

    def _validate(self) -> None:
        act, grp = self.act, self.group
        if act.min() < 0 or act.max() >= self.size:
            raise ActionValidationError("action table entry out of range")
        pts = np.arange(self.size)
        if not (act[grp.identity] == pts).all():
            w = int(np.nonzero(act[grp.identity] != pts)[0][0])
            raise ActionValidationError(f"identity axiom fails at point {w}")
        for h1 in grp.generators():  # exact: the h1 that pass are closed under products
            h1_times = grp.mul_array(h1, np.arange(grp.order))
            # row h2 compares h1.(h2.w) with (h1 h2).w
            bad = _first_failure(lambda a, b: act[h1][act[a:b]] != act[h1_times[a:b]],
                                 grp.order, self.size)
            if bad is not None:
                h2, w = divmod(bad, self.size)
                raise ActionValidationError(
                    f"compatibility axiom fails at (h1,h2,w)=({h1},{h2},{w})")

    def __repr__(self) -> str:
        return f"<FiniteGSet |Omega|={self.size} under {self.group!r}>"


def regular_action(h: FiniteGroup) -> FiniteGSet:
    """H acting on itself by left multiplication; the table is the Cayley table."""
    return FiniteGSet(h, h.table, point_labels=h.labels(np.arange(h.order)), _group_table=True)


def coset_action(g: Group, h: GroupHom):
    """Left translation on cosets of image(h), plus the representative section.

    Cosets are indexed by ascending minimal member, so the coset holding index 0 is
    point 0, and quotients built from the same subgroup share the indexing.
    """
    coset_of, reps = coset_partition(g, h.image[h.domain.generators()])
    act = coset_of[g.mul_array(np.arange(g.order)[:, None], reps)]
    omega = FiniteGSet(g, act, point_labels=[f"{x}·H" for x in g.labels(reps)])
    return omega, Section(omega, g, reps)


def natural_action(n: int, g: Group) -> FiniteGSet:
    """Point action of a permutation-like group, its one-line point data read as ``act``."""
    if g.point_maps is None:
        raise ActionValidationError("group carries no point data for a natural action")
    degree = len(g.point_maps[0])
    if degree != n:
        raise ActionValidationError(f"natural action degree {degree} != requested {n}")
    return FiniteGSet(g, g.point_maps)


def check_equivariant(xi, omega: FiniteGSet, omega_hat: FiniteGSet, phi: GroupHom) -> bool:
    """xi(h.w) == phi(h).xi(w) for all h, w, with xi a point bijection; a
    non-integer point raises ``GroupFormatError``."""
    xi = _int64_indices(xi, GroupFormatError, "point bijection")
    if (len(xi) != omega.size or omega_hat.size != omega.size or _count_distinct(xi) != omega.size
            or xi.min() < 0 or xi.max() >= omega_hat.size):
        return False
    return bool((xi[omega.act] == omega_hat.act[phi.image][:, xi]).all())


# -- JSON exchange --------------------------------------------------------------


def action_to_json(omega: FiniteGSet) -> dict:
    return {
        "group": group_to_json(omega.group),
        "size": omega.size,
        "act": omega.act.tolist(),
        "point_labels": list(omega.point_labels),
    }


def action_from_json(data: dict) -> FiniteGSet:
    """The action of an exchange dict.  ``group`` is a group dict or the path of
    a group file, ``size`` an int, ``act`` a list of rows of ints and
    ``point_labels``, if present, a list of strings.  A bool, float or string
    in ``size`` or ``act``, a value that is not an object, a missing key or
    labels that are not strings raise ``ActionValidationError``."""
    labels = _exchange_fields(data, "action", ("group", "size", "act"), ("size",), "point_labels",
                              ActionValidationError)
    grp = data["group"]
    group = load_group(grp) if isinstance(grp, str) else group_from_json(grp)
    omega = FiniteGSet(group, data["act"], point_labels=labels)
    if omega.size != data["size"]:
        raise ActionValidationError("declared size does not match action table")
    return omega


def save_action(omega: FiniteGSet, path) -> None:
    """Write ``action_to_json(omega)`` as one line of JSON."""
    _write_json_line(action_to_json(omega), path)


def load_action(path) -> FiniteGSet:
    """The action of an exchange file; a non-integer JSON number raises
    ``ActionValidationError`` at parse time."""
    return action_from_json(_read_integer_json(path, ActionValidationError))
