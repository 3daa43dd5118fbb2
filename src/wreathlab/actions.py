"""Finite left group actions on index sets, with the checks wreaths rely on."""

from __future__ import annotations

import json
from typing import Optional, Sequence

import numpy as np

from .errors import ActionValidationError, GroupFormatError
from .groups import (
    FiniteGroup,
    GroupHom,
    Section,
    _first_failure,
    _int64_indices,
    _read_integer_json,
    coset_partition,
    group_from_json,
    group_to_json,
    load_group,
)


def _int64_table(act) -> np.ndarray:
    """``act`` as int64, refusing any cell that is not an exact integer."""
    if isinstance(act, np.ndarray):
        exact = np.issubdtype(act.dtype, np.integer)
    else:
        exact = isinstance(act, (list, tuple)) and all(
            isinstance(row, (list, tuple)) and all(type(v) is int for v in row) for row in act)
    if not exact:
        raise ActionValidationError(
            "'act' must be a list of rows of integers or an array of an integer dtype")
    try:
        return np.asarray(act, dtype=np.int64)
    except (ValueError, OverflowError) as exc:  # ragged rows, or an int past int64
        raise ActionValidationError(f"'act' is not a table of int64 integers: {exc}") from None


class FiniteGSet:
    """A left action of a finite group on points 0..size-1.

    ``act[h][w]`` is the image of point ``w`` under group element ``h``:
    an array of an integer dtype, or a list of rows of ints (a bool, float or
    string cell raises ``ActionValidationError``).  Both action axioms are
    verified exactly at construction.  ``_group_table``, for the regular
    action only, says that ``act`` is ``group.table`` itself: it is kept as
    that read-only array unchecked, since its range, identity and
    compatibility axioms are the closure, identity and associativity the
    group already certified.
    """

    def __init__(self, group: FiniteGroup, act, point_labels: Optional[Sequence[str]] = None,
                 _group_table: bool = False):
        self.group = group
        self.act = act if _group_table else _int64_table(act)
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
            # row h2 compares h1.(h2.w) with (h1 h2).w
            bad = _first_failure(lambda a, b: act[h1][act[a:b]] != act[grp.table[h1, a:b]],
                                 grp.order, self.size)
            if bad is not None:
                h2, w = divmod(bad, self.size)
                raise ActionValidationError(
                    f"compatibility axiom fails at (h1,h2,w)=({h1},{h2},{w})")

    def apply(self, h: int, w: int) -> int:
        return int(self.act[h, w])

    def orbit(self, w: int) -> set[int]:
        return set(int(v) for v in self.act[:, w])

    def is_transitive(self) -> bool:
        return len(self.orbit(0)) == self.size

    def __repr__(self) -> str:
        return f"<FiniteGSet |Omega|={self.size} under {self.group!r}>"


def regular_action(h: FiniteGroup) -> FiniteGSet:
    """H acting on itself by left multiplication; the table is the Cayley table."""
    return FiniteGSet(h, h.table, point_labels=list(h.labels), _group_table=True)


def coset_action(g: FiniteGroup, h: GroupHom):
    """Left translation on cosets of image(h), plus the representative section.

    Cosets are indexed by ascending minimal member, so the identity coset is
    point 0 and quotients built from the same subgroup share the indexing.
    """
    coset_of, reps = coset_partition(g, sorted(h.image_set()))
    act = coset_of[g.table[:, reps]]
    labels = [f"{g.labels[r]}·H" for r in reps]
    omega = FiniteGSet(g, act, point_labels=labels)
    section = Section(omega, g, reps)
    return omega, section


def natural_action(n: int, g: FiniteGroup) -> FiniteGSet:
    """Point action of a permutation-like group carrying one-line point data."""
    if g.point_maps is None:
        raise ActionValidationError("group carries no point data for a natural action")
    degree = len(g.point_maps[0])
    if degree != n:
        raise ActionValidationError(f"natural action degree {degree} != requested {n}")
    act = np.array(g.point_maps, dtype=np.int64)
    return FiniteGSet(g, act)


def check_equivariant(xi, omega: FiniteGSet, omega_hat: FiniteGSet, phi: GroupHom) -> bool:
    """xi(h.w) == phi(h).xi(w) for all h, w, with xi a point bijection; a
    non-integer point raises ``GroupFormatError``."""
    xi = _int64_indices(xi, GroupFormatError)
    if len(xi) != omega.size or omega_hat.size != omega.size:
        return False
    if len(set(int(v) for v in xi)) != omega.size:
        return False
    if xi.min() < 0 or xi.max() >= omega_hat.size:
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
    a group file, ``size`` an int and ``act`` a list of rows of ints; a bool,
    float or string in either raises ``ActionValidationError``."""
    grp = data["group"]
    group = load_group(grp) if isinstance(grp, str) else group_from_json(grp)
    size, act = data["size"], data["act"]
    if type(size) is not int:  # refuses bool, float and str as well
        raise ActionValidationError(f"action JSON 'size' must be an integer, got {size!r}")
    omega = FiniteGSet(group, act, point_labels=data.get("point_labels"))
    if omega.size != size:
        raise ActionValidationError("declared size does not match action table")
    return omega


def save_action(omega: FiniteGSet, path) -> None:
    """Write ``action_to_json(omega)`` as one line of JSON, as ``save_group`` does."""
    text = json.dumps(action_to_json(omega))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
        fh.write("\n")


def load_action(path) -> FiniteGSet:
    """The action of an exchange file; a non-integer JSON number raises
    ``ActionValidationError`` at parse time."""
    return action_from_json(_read_integer_json(path, ActionValidationError))
