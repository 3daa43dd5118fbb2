"""The kk suite's blocks of sections against the loop over one section at a time.

``oracle_kk_suite`` is the suite as it ran before it checked sections in
blocks: one ``kk_embedding``, certificate and distinct count per section, the
sections from the oracles ``all_sections`` and ``random_section``.  The blocked suite
must give the same verdicts, counts, checks and exceptions, draw the same
random sections, and build the same images.
"""

import itertools
import random

import numpy as np
import pytest

from wreathlab import (
    GroupValidationError,
    Section,
    SectionMismatchError,
    construct_named,
    default_section,
    kk_embedding,
    subgroup_from_elements,
)
from wreathlab import embeddings, groups, suites
from wreathlab.embeddings import _sigma_image
from wreathlab.suites import (
    KK_ALL_SECTIONS_LIMIT,
    KK_RANDOM_SECTIONS_DEFAULT,
    Verdict,
    _verify_section,
    _verify_sections,
    kk_suite,
    ses_catalog,
    ses_from_subgroup,
)

from tests.oracles import all_sections, random_section

CATALOG = ses_catalog()


def s5_over_a5():
    s5, a5 = construct_named("S:5"), construct_named("A:5")
    _sub, incl = subgroup_from_elements(s5, [s5.point_maps.index(p) for p in a5.point_maps])
    return ses_from_subgroup(s5, incl)


def oracle_kk_suite(catalog, random_sections=None, seed=0):
    """The per-section loop of the kk suite, over the extensions of ``catalog``."""
    random_sections = (KK_RANDOM_SECTIONS_DEFAULT if random_sections is None
                       else random_sections)
    rng = random.Random(seed)
    out = []
    for name, ses in catalog:
        total = ses.n.order**ses.q.order
        if ses.q.order <= KK_ALL_SECTIONS_LIMIT or random_sections >= total:
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


def oracle_rows(ses, rows):
    """(failure, count, checks) of ``_verify_section`` on each row in turn."""
    count, checks = 0, 0
    for row in rows:
        count += 1
        failure, n = _verify_section(ses, Section(ses.q, ses.g, row))
        checks += n
        if failure is not None:
            return failure, count, checks
    return None, count, checks


def outcome(call):
    """A call's result, or the type and message of what it raised."""
    try:
        return call()
    except Exception as exc:  # noqa: BLE001 -- compared, never swallowed silently
        return type(exc), str(exc)


def s4_v4():
    return dict(CATALOG)["S4/V4"]


@pytest.fixture
def small_blocks(monkeypatch):
    """Blocks of three S4/V4 sections, so that every run crosses block boundaries."""
    g = s4_v4().g
    monkeypatch.setattr(groups, "SWEEP_CHUNK", 3 * g.order * len(g.generators()) * 6)


@pytest.mark.parametrize("depth,seed", [(None, 0), (None, 3), (0, 0), (3, 1), (100, 7),
                                        (4095, 2), (4096, 1), (10**8, 0)])
def test_the_blocked_suite_gives_the_per_section_verdicts(depth, seed):
    assert kk_suite(depth, seed) == oracle_kk_suite(CATALOG, depth, seed)


def test_blocks_of_a_few_sections_give_the_per_section_verdicts(small_blocks):
    for depth, seed in ((None, 0), (50, 4), (4096, 1)):
        assert kk_suite(depth, seed) == oracle_kk_suite(CATALOG, depth, seed)


def test_stacked_sigma_images_are_each_sections_image():
    rng = random.Random(5)
    cases = [(name, ses, list(all_sections(ses.g_to_q))) for name, ses in CATALOG]
    s5 = s5_over_a5()
    cases.append(("S5/A5", s5, [random_section(s5.g_to_q, rng) for _ in range(12)]))
    for name, ses, sections in cases:
        sections = [default_section(ses.g_to_q)] + sections
        eps, w = ses.g_to_q, ses.wreath()
        stacked = _sigma_image(ses.g, eps.image, np.stack([s.choice for s in sections]),
                               ses.n_to_g, w)
        assert stacked.shape == (len(sections), ses.g.order), name
        for row, s in zip(stacked, sections):
            assert (row == kk_embedding(ses, s)[1].image).all(), (name, s.choice)


@pytest.mark.parametrize("at", [0, 1, 2, 3, 7])
def test_a_non_section_raises_what_the_loop_raises(small_blocks, at):
    ses = s4_v4()
    rows = [s.choice.tolist() for s in itertools.islice(all_sections(ses.g_to_q), 9)]
    bad = list(rows[at])
    bad[2] = bad[1]  # s(2) lies over point 1
    rows[at] = bad
    want = outcome(lambda: oracle_rows(ses, rows))
    assert want[0] is SectionMismatchError and "lies over point" in want[1]
    assert outcome(lambda: _verify_sections(ses, iter(rows))) == want


def corrupt_row(monkeypatch, ses, target, how):
    """Make ``_sigma_image`` break the map of each section of ses whose values are
    a row of target, in a stacked call as in a single one."""
    real = embeddings._sigma_image

    def sigma(g, tops, choice, sub, w):
        images = real(g, tops, choice, sub, w)
        if g is not ses.g:
            return images
        hit = (choice[..., None, :] == np.atleast_2d(target)).all(axis=-1).any(axis=-1)
        if hit.any():
            images = images.copy()
            images[hit] = how(images[hit], w)
        return images
    monkeypatch.setattr(embeddings, "_sigma_image", sigma)
    monkeypatch.setattr(suites, "_sigma_image", sigma)


def swap_two(images, w):
    return images[..., [0, 2, 1] + list(range(3, images.shape[-1]))]


def trivial(images, w):
    return np.full_like(images, w.identity)


@pytest.mark.parametrize("how,raises", [(swap_two, True), (trivial, False)])
@pytest.mark.parametrize("depth,seed", [(None, 0), (4096, 1)])
def test_a_row_that_breaks_the_law_gives_the_loops_verdict(monkeypatch, small_blocks,
                                                           how, raises, depth, seed):
    ses = s4_v4()
    target = list(itertools.islice(all_sections(ses.g_to_q), 5))[-1].choice
    if depth is None:  # S4/V4 draws first from the seed's stream: take its fourth section
        rng = random.Random(seed)
        target = [random_section(ses.g_to_q, rng) for _ in range(4)][-1].choice
    corrupt_row(monkeypatch, ses, target, how)
    monkeypatch.setattr(suites, "ses_catalog", lambda: CATALOG)
    want = outcome(lambda: oracle_kk_suite(CATALOG, depth, seed))
    if raises:
        assert want[0] is GroupValidationError and "hom law fails" in want[1]
    else:
        verdict = next(v for v in want if v.name == "S4/V4")
        assert not verdict.passed and verdict.detail == "not injective"
    assert outcome(lambda: kk_suite(depth, seed)) == want


def test_a_failure_leaves_the_next_sampled_extension_its_random_sections(monkeypatch,
                                                                        small_blocks):
    """Two sampled extensions share the seed's random stream: a failure in the
    first must draw no more sections than the loop draws, or the second draws
    other sections than the loop's."""
    ses = s4_v4()
    catalog = [("first", ses), ("second", ses)]
    monkeypatch.setattr(suites, "ses_catalog", lambda: catalog)
    rng = random.Random(9)
    first, second = (random_section(ses.g_to_q, rng).choice for _ in range(2))
    # the first fails at its first random section, mid-block (blocks of the default
    # and two random sections), and the second at its first, the seed's second draw
    corrupt_row(monkeypatch, ses, [first, second], trivial)
    want = oracle_kk_suite(catalog, 30, 9)
    assert want == [Verdict("kk", "first", False, "not injective"),
                    Verdict("kk", "second", False, "not injective")]
    assert kk_suite(30, 9) == want


def test_a_passing_suite_builds_no_hom_per_section(monkeypatch, peak_mb):
    """Every section of a passing run is certified in its block: none is run
    again alone, and the blocks keep the run's memory small."""
    alone = []
    monkeypatch.setattr(suites, "_verify_section", lambda *args: alone.append(args))
    verdicts, peak = peak_mb(lambda: kk_suite(4096, 1))
    assert all(v.passed for v in verdicts) and alone == []
    assert verdicts[3] == Verdict("kk", "S4/V4", True, (
        "4097 sections verified: the default, then all 4096 sections; "
        "each generator-certified, 294984 checks"))
    assert peak < 4, peak


@pytest.mark.parametrize("shape", [(2, 6), (6, 6), ()])
def test_a_section_is_one_row_of_values(shape):
    """_sigma_image reads stacked rows as several sections, so a Section holds one."""
    ses = s4_v4()
    with pytest.raises(SectionMismatchError):
        Section(ses.q, ses.g, np.zeros(shape, dtype=np.int64))
