"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import time
from fractions import Fraction

import numpy as np

from wreathlab import (
    MultiQuadField,
    QuadraticTower,
    build_wreath,
    check_equivariant,
    check_presentation_d4,
    construct_named,
    figure_data,
    kk_embedding,
    natural_action,
    omega_embedding,
    omega_size,
    quadratic_kummer_embedding,
    regular_size,
    regular_wreath,
    solvability_witness,
    table1,
    tower_extension,
    tower_size_comparison,
    transport_iso,
    verify_embedding,
)
from wreathlab.cli import main
from wreathlab.groups import default_section, subgroup_generated
from wreathlab.search import are_isomorphic, identify_small
from wreathlab.suites import (
    THETA_CATALOG,
    _theta_omega,
    check_theta_properties,
    find_normal_subgroup,
    kk_suite,
    ses_from_subgroup,
    stabilizer_subgroup,
)

from tests.test_sizes import PLOT_DATA
from tests.test_wreath import theta_all_pairs


class _timer:
    def __init__(self, bound):
        self.bound = bound

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.t0
        if exc[0] is None:
            assert self.elapsed < self.bound, (
                f"took {self.elapsed:.2f}s, bound {self.bound}s")
        return False


def _report(n, timer, msg):
    print(f"criterion {n}: PASS ({timer.elapsed:.2f}s) - {msg}")


def test_criterion_1_d4_identification(capsys):
    with _timer(1.0) as t:
        assert main(["build", "--k", "C:2", "--h", "C:2", "--omega", "regular"]) == 0
        out = capsys.readouterr().out
        assert "order 8" in out and "D:4" in out
        w = regular_wreath(construct_named("C:2"), construct_named("C:2"))
        x = w.encode((0, 1), 1)
        y = w.encode((0, 0), 1)
        assert check_presentation_d4(w, x, y)
        assert identify_small(w.dense()) == "D:4"
    with capsys.disabled():
        _report(1, t, "order-8 wreath satisfies the dihedral presentation, named D:4")


def test_criterion_2_biquadratic_reproduction(capsys):
    with _timer(1.0) as t:
        tower = QuadraticTower(MultiQuadField([5, 7]), [5], Fraction(7))
        ses = tower_extension(tower)
        s = default_section(ses.g_to_q,
                            {ses.q.label_index("eta"): ses.g.label_index("rho1")})
        w, phi = kk_embedding(ses, s)
        f1 = (0, 0)  # constant identity tuple
        f4 = (1, 1)  # constant flip tuple (the K-fixing automorphism rho2)
        id_k, eta = 0, 1
        expected = [(f1, id_k), (f1, eta), (f4, id_k), (f4, eta)]
        assert [w.decode(phi(x)) for x in range(4)] == expected
        assert ses.g.labels == ["id", "rho1", "rho2", "rho3"]
        report = verify_embedding(phi)
        assert report.is_homomorphism and report.is_injective
        assert report.image_order == 4 and not report.image_is_full
        # the chi-route embedding produces the identical table
        _w2, phi2, report2 = quadratic_kummer_embedding(tower)
        assert (phi2.image == phi.image).all()
        assert report2.is_injective and not report2.image_is_full
    with capsys.disabled():
        _report(2, t, "phi table is ((f1,id),(f1,eta),(f4,id),(f4,eta)), injective, not full")


def test_criterion_3_kk_property_suite(capsys):
    with _timer(30.0) as t:
        verdicts = kk_suite()
        names = {v.name for v in verdicts}
        assert names == {"S3/A3", "D4/<r>", "D4/V4", "S4/V4", "Q8/center"}
        assert all(v.passed for v in verdicts), [v for v in verdicts if not v.passed]
        # exhaustive section sweeps actually happened for the small quotients
        counts = {v.name: int(v.detail.split()[0]) for v in verdicts}
        assert counts["S3/A3"] == 1 + 3**2
        assert counts["D4/<r>"] == 1 + 4**2
        assert counts["D4/V4"] == 1 + 4**2
        assert counts["Q8/center"] == 1 + 2**4
    with capsys.disabled():
        _report(3, t, "five extensions verified for default plus enumerated sections")


def test_criterion_4_omega_embedding_s4(capsys):
    with _timer(10.0) as t:
        s4 = construct_named("S:4")
        _, incl = stabilizer_subgroup(s4, 4)
        w, phi = omega_embedding(s4, incl)
        assert w.order == 31104 == 6**4 * 24
        # exhaustive check over all 24^2 domain pairs
        for a in range(24):
            for b in range(24):
                assert phi(s4.mul(a, b)) == w.mul(phi(a), phi(b))
        assert len(set(int(v) for v in phi.image)) == 24
    with capsys.disabled():
        _report(4, t, "injective homomorphism into the order-31104 wreath")


def test_criterion_5_cocycle_relation(capsys):
    from wreathlab import verify_cocycle

    with _timer(5.0) as t:
        towers = [
            QuadraticTower(MultiQuadField([5, 7]), [5], Fraction(7)),
            QuadraticTower(MultiQuadField([2, 3]), [2], Fraction(3)),
            QuadraticTower(MultiQuadField([2, 3, 5]), [2, 3], Fraction(5)),
        ]
        for tower in towers:
            ok, witness = verify_cocycle(tower)
            assert ok, witness
    with capsys.disabled():
        _report(5, t, "additive composition law holds on all triples of three towers")


def test_criterion_6_theta_homomorphism(capsys):
    with _timer(60.0) as t:
        oracle_checked = 0
        for k_spec, h_spec, degree in THETA_CATALOG:
            k, omega = _theta_omega(k_spec, h_spec, degree)
            cert = check_theta_properties(k, omega)
            assert cert.counterexample is None, (k_spec, h_spec, cert.counterexample)
            assert cert.method == "generator-certified" and cert.checks > 0
            if k.order**omega.size * omega.group.order <= 10**4:
                assert theta_all_pairs(k, omega) is None, (k_spec, h_spec)
                oracle_checked += 1
        assert len(THETA_CATALOG) == 16 and oracle_checked == 15
    with capsys.disabled():
        _report(6, t, f"coordinate-permutation maps certified on generators on "
                      f"{len(THETA_CATALOG)} wreaths; all-pairs oracle agrees on {oracle_checked}")


def test_criterion_7_transport_and_solvability(capsys):
    import itertools

    with _timer(120.0) as t:
        agl = construct_named("AGL:3")
        s3 = construct_named("S:3")
        w_agl = build_wreath(agl, natural_action(3, agl))
        w_s3 = build_wreath(s3, natural_action(3, s3))
        psi = are_isomorphic(agl, s3)
        assert psi is not None
        xi = next(list(c) for c in itertools.permutations(range(3))
                  if check_equivariant(list(c), w_agl.top, w_s3.top, psi))
        moved = transport_iso(psi, psi, xi, w_agl, w_s3)
        # explicit full-pair sweep: 1296^2 products on both sides
        img = moved.image
        lhs = img[w_agl.dense().table]
        rhs = w_s3.dense().table[img[:, None], img[None, :]]
        assert (lhs == rhs).all()
        assert len(np.unique(img)) == 1296
        assert solvability_witness(w_s3.dense(), 3) is not None
    with capsys.disabled():
        _report(7, t, "order-1296 wreaths identified over all 1296^2 pairs; solvable")


def test_criterion_8_size_formulas(capsys):
    with _timer(5.0) as t:
        # consistency with every wreath shape materialized by the other criteria
        built = [
            regular_wreath(construct_named("C:2"), construct_named("C:2")),
            regular_wreath(construct_named("A:3"), construct_named("C:2")),
            regular_wreath(construct_named("C:4"), construct_named("C:2")),
            regular_wreath(construct_named("V4"), construct_named("C:2")),
            regular_wreath(construct_named("C:2"), construct_named("V4")),
            regular_wreath(construct_named("V4"), construct_named("S:3")),
            build_wreath(construct_named("S:3"), natural_action(3, construct_named("S:3"))),
            build_wreath(construct_named("AGL:3"), natural_action(3, construct_named("AGL:3"))),
        ]
        s4 = construct_named("S:4")
        built.append(omega_embedding(s4, stabilizer_subgroup(s4, 4)[1])[0])
        for w in built:
            k_ord, n_pts, h_ord = w.base_group.order, w.top.size, w.top.group.order
            assert omega_size(k_ord * n_pts, n_pts, h_ord) == w.order
            if n_pts == h_ord:
                assert regular_size(k_ord * h_ord, h_ord) == w.order
        # catalog rows match the closed forms at 20 admissible m each
        for kf in (2, 3, 4, 5):
            for row in table1(kf):
                for j in range(1, 21):
                    m = row.kc * j
                    assert row.regular_at(m) == regular_size(m, row.kc)
                    assert row.omega_at(m) == omega_size(m, row.k, row.kc)
        # plotted log values reproduce to 1e-9
        for (group, kf), (reg_logs, om_logs) in sorted(PLOT_DATA.items()):
            kc = next(r.kc for r in table1(kf) if r.group_name == group)
            rows = figure_data(kf, group, 10 * kc)
            for row, er, eo in zip(rows, reg_logs, om_logs):
                assert abs(row.log_regular - er) < 1e-9
                assert abs(row.log_omega - eo) < 1e-9
        assert abs(figure_data(3, "S3", 12)[-1].log_regular - 5.950642552587727) < 1e-9
    with capsys.disabled():
        _report(8, t, "formulas match materialized orders, catalog rows, and plotted logs")


def test_criterion_9_sextic_tower_arithmetic(capsys):
    with _timer(1.0) as t:
        report = tower_size_comparison(l_deg=36, lc_deg=432, k=6, kc=72)
        assert report["sharp_size"] == 3359232 == 2**9 * 3**8
        assert report["coset_size"] == 10030613004288 == 2**21 * 3**14
        assert report["ratio"] == 2985984
        assert report["note"]  # the discrepancy note is part of the report
    with capsys.disabled():
        _report(9, t, "6^6*72 = 3359232 and 72^6*72 = 10030613004288, ratio 2985984")


def test_criterion_10_normal_case_coherence(capsys):
    with _timer(5.0) as t:
        # group-level towers with a normal middle subgroup
        d4 = construct_named("D:4")
        s3 = construct_named("S:3")
        cases = [
            (d4, subgroup_generated(d4, [2])[1]),
            (s3, find_normal_subgroup(s3, "A:3")[1]),
        ]
        # plus the concrete tower where K/Q is Galois
        tower = QuadraticTower(MultiQuadField([5, 7]), [5], Fraction(7))
        ses_t = tower_extension(tower)
        cases.append((ses_t.g, ses_t.n_to_g))
        for g, incl in cases:
            ses = ses_from_subgroup(g, incl)
            wk, phi_kk = kk_embedding(ses)
            wo, phi_om = omega_embedding(g, incl)
            assert wk.order == wo.order
            assert (phi_kk.image == phi_om.image).all()
    with capsys.disabled():
        _report(10, t, "regular and coset embeddings agree argwise when the subgroup is normal")
