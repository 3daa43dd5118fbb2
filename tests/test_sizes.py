import math
import time
from fractions import Fraction

import pytest

from wreathlab import (
    DivisibilityViolationError,
    build_wreath,
    construct_named,
    crossover_report,
    figure_csv,
    figure_data,
    natural_action,
    omega_size,
    regular_size,
    regular_wreath,
    table1,
    tower_size_comparison,
)

# log sizes as plotted for the non-Galois bottom groups, frozen for regression;
# rows run over m = kc, 2kc, ..., 10kc
PLOT_DATA = {
    ("S3", 3): (
        [1.791759469228055, 5.950642552587727, 8.383433201236713, 10.1095256359474,
         11.448386943832658, 12.542316284596385, 13.467220363559935, 14.26840871930707,
         14.975106933245371, 15.60727002719233],
        [3.871201010907891, 5.950642552587727, 7.16703787691222, 8.030084094267563,
         8.699514748210191, 9.246479418592056, 9.708931458073831, 10.1095256359474,
         10.462874742916549, 10.778956289890028],
    ),
    ("D4", 4): (
        [2.0794415416798357, 7.6246189861593985, 10.868339851024713, 13.16979643063896,
         14.954944841152638, 16.413517295504278, 17.646722734122342, 18.714973875118524,
         19.65723816036959, 20.5001222856322],
        [4.852030263919617, 7.6246189861593985, 9.246479418592056, 10.39720770839918,
         11.289781913656018, 12.019068140831838, 12.63567086014087, 13.16979643063896,
         13.640928573264494, 14.0623706358958],
    ),
    ("A4", 4): (
        [2.4849066497880004, 10.802672816507345, 15.668254113805316, 19.120438983226688,
         21.798161598997204, 23.98602028052466, 25.83582843845176, 27.438205149946032,
         28.85160157782263, 30.11592776571655],
        [6.879355804460439, 9.65194452670022, 11.273804959132878, 12.424533248940001,
         13.31710745419684, 14.04639368137266, 14.662996400681692, 15.197121971179783,
         15.668254113805316, 16.08969617643662],
    ),
    ("S4", 4): (
        [3.1780538303479458, 19.81358616378663, 29.54474875838258, 36.44911849722532,
         41.804563728766354, 46.180281091821264, 49.879897407675465, 53.08465083066401,
         55.91144368641721, 58.44009606220504],
        [10.345091707260165, 13.117680429499947, 14.739540861932605, 15.890269151739728,
         16.782843356996565, 17.512129584172385, 18.128732303481417, 18.662857873979508,
         19.133990016605043, 19.555432079236347],
    ),
    ("D5", 5): (
        [2.302585092994046, 9.234056898593499, 13.288707979675143, 16.16552870419295,
         18.39696421733505, 20.220179785274595, 21.761686583547178, 23.097000509792405,
         24.27483086635624, 25.328436022934504],
        [5.768320995793772, 9.234056898593499, 11.261382439134321, 12.699792801393226,
         13.815510557964275, 14.727118341934048, 15.49787174107034, 16.16552870419295,
         16.75444388247487, 17.281246460764002],
    ),
    ("F5", 5): (
        [2.995732273553991, 16.8586758847529, 24.967978046916183, 30.721619495951803,
         35.184490522236, 38.83092165811509, 41.91393525466026, 44.58456310715071,
         46.940223820278376, 49.047434133434905],
        [9.927204079153444, 13.392939981953171, 15.420265522493992, 16.8586758847529,
         17.974393641323946, 18.88600142529372, 19.65675482443001, 20.324411787552624,
         20.913326965834543, 21.44012954412367],
    ),
    ("A5", 5): (
        [4.0943445622221, 45.68317539581882, 70.01108188230869, 87.27200622941554,
         100.66061930826812, 111.5999127159054, 120.8489535055409, 128.86083706301227,
         135.92781920239526, 142.24945014186486],
        [16.518877811162103, 19.984613713961828, 22.01193925450265, 23.450349616761557,
         24.566067373332604, 25.47767515730238, 26.248428556438668, 26.916085519561282,
         27.5050006978432, 28.03180327613233],
    ),
    ("S5", 5): (
        [4.787491742782046, 87.96515340997549, 136.6209663829552, 171.14281507716893,
         197.92004123487408, 219.79862805014864, 238.29670962941964, 254.32047674436237,
         268.45444102312837, 281.0977029020675],
        [20.677760894521775, 24.1434967973215, 26.170822337862322, 27.609232700121225,
         28.724950456692277, 29.636558240662048, 30.40731163979834, 31.074968602920954,
         31.66388378120287, 32.190686359492005],
    ),
}


# -- closed forms ----------------------------------------------------------------------


def test_regular_size_examples():
    assert regular_size(4, 2) == 8
    assert regular_size(6, 6) == 6
    assert regular_size(12, 6) == 12**6 // 6**5 == 384


def test_omega_size_examples():
    assert omega_size(12, 3, 6) == 2 * 12**3 // 9 == 384
    assert omega_size(432, 6, 72) == 72**6 * 72
    assert omega_size(5, 5, 5) == 5


def test_size_divisibility_errors():
    with pytest.raises(DivisibilityViolationError):
        regular_size(10, 4)
    with pytest.raises(DivisibilityViolationError):
        omega_size(10, 4, 8)
    with pytest.raises(DivisibilityViolationError):
        omega_size(12, 6, 3)  # k > kc


def test_sizes_match_materialized_wreaths():
    cases = [
        regular_wreath(construct_named("C:2"), construct_named("C:2")),
        regular_wreath(construct_named("A:3"), construct_named("C:2")),
        regular_wreath(construct_named("V4"), construct_named("C:2")),
        build_wreath(construct_named("C:2"), natural_action(3, construct_named("S:3"))),
        build_wreath(construct_named("S:3"), natural_action(3, construct_named("S:3"))),
    ]
    for w in cases:
        k_ord = w.base_group.order
        n_pts = w.top.size
        h_ord = w.top.group.order
        assert omega_size(k_ord * n_pts, n_pts, h_ord) == w.order
        if n_pts == h_ord:
            assert regular_size(k_ord * h_ord, h_ord) == w.order


# -- Table rows ------------------------------------------------------------------------


def test_table_formulas():
    rows = {r.group_name: r for r in table1(4)}
    assert rows["S4"].omega_formula() == "3m^4/32"
    assert rows["D4"].omega_formula() == "m^4/32"
    assert rows["A4"].regular_formula() == "m^12/(2^22*3^11)"
    row2 = table1(2)[0]
    assert row2.regular_formula() == "m^2/2" and row2.omega_formula() == "m^2/2"


def test_table_rows_match_general_formulas_at_twenty_points():
    for kf in (2, 3, 4, 5):
        for row in table1(kf):
            for j in range(1, 21):
                m = row.kc * j
                assert row.regular_at(m) == regular_size(m, row.kc)
                assert row.omega_at(m) == omega_size(m, row.k, row.kc)
                # the lowest-terms coefficients evaluate identically
                assert Fraction(1, row.kc ** (row.kc - 1)) * m**row.kc == row.regular_at(m)
                assert row.omega_coeff * m**row.k == row.omega_at(m)


def test_table_group_catalog():
    assert [r.group_name for r in table1(5)] == ["C5", "D5", "F5", "A5", "S5"]
    with pytest.raises(ValueError):
        table1(6)


def test_a5_row_at_120():
    row = next(r for r in table1(5) if r.group_name == "A5")
    assert row.regular_at(120) == 120**60 // (2**118 * 3**59 * 5**59)
    assert row.omega_at(120) == 12 * 120**5 // 625


# -- figure data --------------------------------------------------------------------------


@pytest.mark.parametrize("group,kf", sorted(PLOT_DATA))
def test_figure_data_matches_plotted_logs(group, kf):
    regular_logs, omega_logs = PLOT_DATA[(group, kf)]
    row_kc = {r.group_name: r.kc for r in table1(kf)}[group]
    rows = figure_data(kf, group, 10 * row_kc)
    assert len(rows) == 10
    for row, exp_reg, exp_om in zip(rows, regular_logs, omega_logs):
        assert abs(row.log_regular - exp_reg) < 1e-9
        assert abs(row.log_omega - exp_om) < 1e-9


def test_figure_marker_and_csv():
    rows = figure_data(3, "S3", 24)
    assert [r.marker for r in rows] == ["", "2kc", "", ""]
    text = figure_csv(rows)
    assert text.splitlines()[0] == "m,log_regular,log_omega,marker"
    assert "12,5.950642552587727,5.950642552587727,2kc" in text


def test_figure_galois_row_has_equal_columns():
    for row in figure_data(3, "C3", 30):
        assert row.log_regular == row.log_omega


def test_figure_at_m_equals_kc():
    rows = figure_data(4, "S4", 24)
    assert math.isclose(rows[0].log_regular, math.log(24))


# -- crossover observations ---------------------------------------------------------------


def test_crossover_dihedral_equality_at_2kc():
    report = crossover_report(3, "S3", 60)
    at_12 = next(c for c in report["comparisons"] if c["m"] == 12)
    assert at_12["relation"] == "eq" and at_12["regular"] == 384
    assert report["matches_observed_pattern"]


def test_crossover_s4_dominates_at_3kc():
    report = crossover_report(4, "S4", 240)
    at_72 = next(c for c in report["comparisons"] if c["m"] == 72)
    assert at_72["relation"] == "gt"
    assert at_72["regular"] == 72**24 // (2**69 * 3**23)
    assert at_72["omega"] == 3 * 72**4 // 32
    assert report["matches_observed_pattern"]


def test_crossover_galois_rows_always_equal():
    for kf, group in ((2, "C2"), (3, "C3"), (4, "C4"), (4, "C2xC2"), (5, "C5")):
        report = crossover_report(kf, group, 20 * kf)
        assert report["is_galois_row"]
        assert all(c["relation"] == "eq" for c in report["comparisons"])
        assert report["matches_observed_pattern"]


# -- the sextic-tower comparison -------------------------------------------------------------


def test_degree_432_closure_comparison():
    report = tower_size_comparison(l_deg=36, lc_deg=432, k=6, kc=72)
    assert report["sharp_size"] == 3359232 == 2**9 * 3**8
    assert report["sharp_factored"] == "2^9*3^8"
    assert report["coset_size"] == 10030613004288 == 2**21 * 3**14
    assert report["coset_factored"] == "2^21*3^14"
    assert report["ratio"] == 2985984 == 2**12 * 3**6
    assert "million" in report["note"]


def test_a_large_prime_power_is_factored_through_its_base():
    # sizes are (m/k)^k * kc: trial division runs to sqrt(p), never to p
    p = 10**9 + 7
    start = time.perf_counter()
    report = tower_size_comparison(2 * p, 4 * p, 2, 2)
    assert time.perf_counter() - start < 1
    assert report["sharp_size"] == 2 * p**2 and report["sharp_factored"] == f"2*{p}^2"
    assert report["coset_size"] == 8 * p**2 and report["coset_factored"] == f"2^3*{p}^2"
    assert report["ratio"] == 4 and report["ratio_factored"] == "2^2"


@pytest.mark.parametrize("p,p_squared", [
    (2**61 - 1, "2305843009213693951^2"),
    ((10**9 + 7) * (10**9 + 9), "1000000007^2*1000000009^2"),
])
def test_large_prime_factors_are_found_without_trial_division(p, p_squared):
    # trial division to sqrt(p) does not return on these in 10 s: 2^61 - 1 is
    # prime, and (10^9 + 7)(10^9 + 9) has two prime factors near 10^9
    start = time.perf_counter()
    report = tower_size_comparison(2 * p, 4 * p, 2, 2)
    assert time.perf_counter() - start < 1
    assert report["sharp_size"] == 2 * p**2 and report["sharp_factored"] == f"2*{p_squared}"
    assert report["coset_size"] == 8 * p**2 and report["coset_factored"] == f"2^3*{p_squared}"
    assert report["ratio"] == 4 and report["ratio_factored"] == "2^2"


def test_a_prime_past_the_exact_primality_range_is_refused():
    p = 2**89 - 1  # prime, and above the deterministic Miller-Rabin range
    with pytest.raises(ValueError, match="probable prime past the deterministic Miller-Rabin"):
        tower_size_comparison(2 * p, 4 * p, 2, 2)
    # a composite that large is still split exactly
    q = (2**61 - 1) * (10**9 + 7) * 1009**3
    assert tower_size_comparison(2 * q, 4 * q, 2, 2)["sharp_factored"] == \
        "2*1009^6*1000000007^2*2305843009213693951^2"
