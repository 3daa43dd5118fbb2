import json
import os
import subprocess
import sys
import time

import pytest

from wreathlab import (
    construct_named,
    crossover_report,
    figure_csv,
    figure_data,
    group_to_json,
    load_group,
    regular_wreath,
)
import wreathlab
from wreathlab import cli
from wreathlab.cli import main
from wreathlab.sizes import M_MAX_BOUND


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- build -----------------------------------------------------------------------------


def test_build_d4(capsys):
    code, out, _ = run(capsys, "build", "--k", "C:2", "--h", "C:2", "--omega", "regular")
    assert code == 0
    assert out.strip() == "order 8, identified D:4"


def test_build_trivial_base(capsys):
    code, out, _ = run(capsys, "build", "--k", "C:1", "--h", "S:3", "--omega", "regular")
    assert code == 0
    assert out.strip() == "order 6, identified S:3"


def test_build_degree9_wreath(capsys):
    code, out, _ = run(capsys, "build", "--k", "S:3", "--h", "S:3", "--omega", "natural:3")
    assert code == 0
    assert out.strip() == "order 1296"


def test_build_writes_group_json(capsys, tmp_path):
    path = tmp_path / "w.json"
    code, _, _ = run(capsys, "build", "--k", "C:2", "--h", "C:2",
                     "--omega", "regular", "--out", str(path))
    assert code == 0
    g = load_group(path)
    assert g.order == 8
    assert list(json.loads(path.read_text())) == ["order", "identity", "labels", "table"]


def test_build_from_action_file(capsys, tmp_path):
    from wreathlab import natural_action, save_action

    path = tmp_path / "omega.json"
    save_action(natural_action(3, construct_named("S:3")), path)
    code, out, _ = run(capsys, "build", "--k", "C:2", "--omega", f"file:{path}")
    assert code == 0
    # the 3-point hyperoctahedral group is C2 x S4
    assert out.strip() == "order 48, identified C:2 × S:4"


@pytest.mark.parametrize("omega,mode", [
    ([], "regular"),
    (["--omega", "regular"], "regular"),
    (["--omega", "natural:3"], "natural"),
    (["--omega", "cosets:C:1"], "cosets"),
])
def test_build_without_the_top_group_its_omega_needs_is_a_usage_error(capsys, omega, mode):
    code, out, err = run(capsys, "build", "--k", "C:2", *omega)
    assert (code, out, err) == (2, "", f"error: --omega {mode} requires --h\n")


def test_build_json_schema_is_stable(capsys):
    for args in (("C:2", "C:2"), ("C:1", "S:3")):
        code, out, _ = run(capsys, "build", "--k", args[0], "--h", args[1],
                           "--omega", "regular", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert list(payload) == ["order", "identified", "base_order", "omega_size", "top_order"]


def test_build_admits_a_structural_product_of_any_order_below_int64(capsys):
    """Nothing of the product's order is allocated, so only the int64 index range bounds it."""
    code, out, err = run(capsys, "build", "--k", "C:10", "--h", "D:4", "--omega", "regular")
    assert (code, out, err) == (0, "order 800000000\n", "")
    code, out, _ = run(capsys, "build", "--k", "C:2", "--h", "C:40")
    assert (code, out) == (0, "order 43980465111040\n")


@pytest.mark.parametrize("k,h", [("C:200000", "C:2"), ("C:2", "D:3000")])
def test_build_refuses_a_spec_above_the_dense_cap_at_once(capsys, k, h):
    start = time.perf_counter()
    code, _, err = run(capsys, "build", "--k", k, "--h", h)
    elapsed = time.perf_counter() - start
    assert code == 3
    assert "resource limit" in err and "exceeds the dense-table cap 4096" in err
    assert elapsed < 1.0, f"took {elapsed:.2f} s"


def test_build_refuses_json_export_above_the_dense_cap_before_allocating(capsys, tmp_path,
                                                                         peak_mb):
    """C:5 wr_r C:5 has order 15625: a dense table would take 977 MB."""
    path = tmp_path / "x.json"
    (code, out, err), peak = peak_mb(lambda: run(capsys, "build", "--k", "C:5", "--h", "C:5",
                                                 "--omega", "regular", "--out", str(path)))
    assert code == 3
    assert out == "order 15625\n"
    assert "resource limit: wreath product order 15625 exceeds the dense-table cap 4096" in err
    assert not path.exists()
    assert peak < 2.0, f"peak {peak:.2f} MB"


@pytest.mark.parametrize("k,h", [("C:2", "C:70"), ("C:3", "C:40")])
def test_build_refuses_an_order_past_int64_with_exit_3(k, h):
    """Neither order fits an int64 index; run as a fresh process, so any uncaught
    error would show as a traceback."""
    src = os.path.dirname(os.path.dirname(wreathlab.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "wreathlab.cli", "build", "--k", k, "--h", h],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert proc.returncode == 3, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "resource limit" in proc.stderr and "int64" in proc.stderr


def test_overflow_and_memory_errors_exit_3(capsys, monkeypatch):
    for error in (OverflowError("int too large"), MemoryError()):
        def fail(*_args, **_kwargs):
            raise error
        monkeypatch.setattr(cli, "build_wreath", fail)
        code, _, err = run(capsys, "build", "--k", "C:2", "--h", "C:2")
        assert code == 3
        assert err.startswith("resource limit: ")


# -- embed -----------------------------------------------------------------------------


def test_embed_tower_reproduces_the_biquadratic_table(capsys):
    code, out, _ = run(capsys, "embed", "--mode", "tower", "--field", "5,7",
                       "--K", "5", "--alpha", "7", "--section", "eta:rho1")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[:4] == [
        "id -> (id,id; id)",
        "rho1 -> (id,id; eta)",
        "rho2 -> (rho2,rho2; id)",
        "rho3 -> (rho2,rho2; eta)",
    ]
    assert "image order 4 of 8" in lines[4]
    assert "full: False" in lines[4]
    assert lines[5] == "section_cross_check: agree"


def test_embed_kk_sign_extension(capsys):
    code, out, _ = run(capsys, "embed", "--mode", "kk", "--group", "S:3",
                       "--normal", "A:3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert list(payload) == ["phi", "report"]
    assert payload["report"]["is_injective"]
    assert payload["report"]["image_order"] == 6
    assert payload["report"]["wreath_order"] == 18


def test_embed_omega_stabilizer(capsys):
    code, out, _ = run(capsys, "embed", "--mode", "omega", "--group", "S:4",
                       "--subgroup", "stab:4", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["report"]["wreath_order"] == 31104
    assert payload["report"]["is_injective"]
    # the JSON report names its certificate, and only it carries the time
    report = payload["report"]
    assert list(report)[-3:] == ["method", "checks", "elapsed_s"]
    assert (report["method"], report["checks"]) == ("generator-certified", 24 * 3)
    assert report["elapsed_s"] >= 0
    code, text, _ = run(capsys, "embed", "--mode", "omega", "--group", "S:4",
                        "--subgroup", "stab:4")
    assert code == 0
    assert text.splitlines()[-1] == ("homomorphism: True, injective: True, "
                                     "image order 24 of 31104, full: False")


def test_embed_unknown_group_is_usage_error(capsys):
    code, _, err = run(capsys, "embed", "--mode", "kk", "--group", "Z:9",
                       "--normal", "A:3")
    assert code == 2
    assert "error" in err


def test_embed_without_the_named_normal_subgroup_exits_2_fast(capsys):
    """No union of classes of C:4096 or D:2048 holds the 1025 or 513 involutions of
    the target, so the lookup refuses before any closure; it once took minutes."""
    for group, normal, bound in [("C:24", "V4", 1.0), ("C:4096", "D:1024", 3.0),
                                 ("D:2048", "D:512", 3.0)]:
        start = time.perf_counter()
        code, out, err = run(capsys, "embed", "--mode", "kk", "--group", group, "--normal", normal)
        elapsed = time.perf_counter() - start
        assert code == 2 and out == ""
        assert f"no normal subgroup of {group} isomorphic to {normal}" in err
        assert elapsed < bound, f"{group} / {normal} took {elapsed:.2f} s"


@pytest.mark.parametrize("argv", [
    ["--mode", "kk", "--group", "C:4096", "--normal", "C:2"],
    ["--mode", "kk", "--group", "D:2048", "--normal", "C:2"],
    ["--mode", "omega", "--group", "C:4096", "--subgroup", "C:2"],
    ["--mode", "omega", "--group", "D:2048", "--subgroup", "center"],
], ids=" ".join)
def test_an_oversized_embedding_is_refused_before_any_subgroup_work(capsys, peak_mb, argv):
    start = time.perf_counter()
    (code, out, err), peak = peak_mb(lambda: run(capsys, "embed", *argv))
    elapsed = time.perf_counter() - start
    bound = "at least " if "omega" in argv else ""
    assert code == 3 and out == ""
    assert err == f"resource limit: wreath order {bound}2^2048 * 2048 exceeds the int64 index range\n"
    assert len(err) < 200 and elapsed < 1.0 and peak < 50, (len(err), elapsed, peak)


def test_small_refusals_keep_their_messages_and_usage_errors_come_first(capsys):
    # where |T| does not divide |G|, the lookup's usage error comes first
    code, _, err = run(capsys, "embed", "--mode", "kk", "--group", "C:24", "--normal", "C:5")
    assert (code, err) == (2, "error: no normal subgroup of C:24 isomorphic to C:5\n")
    code, _, err = run(capsys, "embed", "--mode", "omega", "--group", "C:24", "--subgroup", "C:5")
    assert (code, err) == (2, "error: C:24 has no subgroup isomorphic to C:5\n")


@pytest.mark.parametrize("argv,orders", [
    (["--mode", "omega", "--group", "S:5", "--subgroup", "stab:5"], "120 of 955514880"),
    (["--mode", "omega", "--group", "S:6", "--subgroup", "stab:6"], "720 of 2149908480000000"),
    (["--mode", "omega", "--group", "A:5", "--subgroup", "stab:5"], "60 of 14929920"),
    (["--mode", "omega", "--group", "A:6", "--subgroup", "stab:6"], "360 of 16796160000000"),
    (["--mode", "omega", "--group", "AGL:7", "--subgroup", "stab:1"], "42 of 11757312"),
    (["--mode", "tower", "--field", "2,3,5,7,11,13", "--K", "2,3,5,7,11", "--alpha", "13"],
     "64 of 137438953472"),
], ids=" ".join)
def test_the_papers_coset_embeddings_run_at_default_settings(capsys, argv, orders):
    """S_n into S_(n-1) wr_n S_n and the 5-generator Kummer tower, once refused by an
    order cap although nothing of the product's order is allocated."""
    start = time.perf_counter()
    code, out, err = run(capsys, "embed", *argv)
    elapsed = time.perf_counter() - start
    assert (code, err) == (0, "")
    assert out.splitlines()[-1] == (f"homomorphism: True, injective: True, image order {orders}, "
                                    "full: False")
    assert elapsed < 1.0, f"took {elapsed:.2f} s"


@pytest.mark.parametrize("argv,missing", [
    (["--mode", "kk", "--group", "S:3"], "kk mode requires --normal"),
    (["--mode", "omega"], "omega mode requires --group and --subgroup"),
    (["--mode", "tower", "--field", "2,3"], "tower mode requires --alpha"),
])
def test_embed_without_an_argument_its_mode_needs_is_a_usage_error(capsys, argv, missing):
    code, out, err = run(capsys, "embed", *argv)
    assert (code, out, err) == (2, "", f"error: {missing}\n")


def test_embed_bad_tower_is_usage_error(capsys):
    code, _, _ = run(capsys, "embed", "--mode", "tower", "--field", "4,7",
                     "--K", "4", "--alpha", "7")
    assert code == 2


def test_embed_tower_with_a_huge_prime_alpha_answers_fast(capsys):
    # 2^61 - 1 is prime: no square root of 7/(2^61 - 1) lies in Q(sqrt 5, sqrt 7)
    start = time.perf_counter()
    code, _, err = run(capsys, "embed", "--mode", "tower", "--field", "5,7",
                       "--K", "5", "--alpha", "7/2305843009213693951")
    elapsed = time.perf_counter() - start
    assert code == 2 and "does not lie in" in err
    assert elapsed < 1.0, f"took {elapsed:.2f} s"


def test_embed_tower_past_the_cap_exits_3_before_building_galois_groups(capsys):
    primes = "2,3,5,7,11,13,17,19,23,29,31,37"
    start = time.perf_counter()
    code, _, err = run(capsys, "embed", "--mode", "tower", "--field", primes,
                       "--K", primes.rsplit(",", 1)[0], "--alpha", "37")
    elapsed = time.perf_counter() - start
    assert code == 3 and "exceeds the int64 index range" in err
    assert elapsed < 0.2, f"took {elapsed:.2f} s"


@pytest.mark.parametrize("n_field,n_k,alpha,code,message", [
    (22, 21, 79, 3, "resource limit: wreath order 2^2097152 * 2097152 exceeds the int64 index range"),
    (25, 24, 97, 3, "resource limit: wreath order 2^16777216 * 16777216 exceeds the int64 index "
                    "range"),
    (22, 2, 79, 2, "error: the chi-based embedding needs [L:K] = 2 (one extra generator)"),
    # a usage fault still comes before the size: alpha outside L
    (22, 21, 101, 2, "error: sqrt(101) does not lie in Q(√2,"),
])
def test_a_tower_of_many_generators_is_refused_before_its_fields_are_built(
        capsys, peak_mb, n_field, n_k, alpha, code, message):
    """The field checks factor the generators, not the 2^k subset products, so a
    tower of any size is checked at once; the refusal once took 7 s and 700 MB."""
    primes = [p for p in range(2, 100) if all(p % d for d in range(2, p))][:n_field]
    argv = ["embed", "--mode", "tower", "--field", ",".join(map(str, primes)),
            "--K", ",".join(map(str, primes[:n_k])), "--alpha", str(alpha)]
    start = time.perf_counter()
    (got, out, err), peak = peak_mb(lambda: run(capsys, *argv))
    elapsed = time.perf_counter() - start
    assert (got, out) == (code, "") and err.startswith(message), err
    assert elapsed < 1.0 and peak < 50, (elapsed, peak)


def test_embed_tower_section_cross_check_tells_the_sqrt_alpha_section_apart(capsys):
    argv = ["embed", "--mode", "tower", "--field", "2,3,5", "--K", "2,3", "--alpha", "15"]
    for pairs, verdict in (("rho1:rho1,rho2:rho6,rho3:rho7", "agree"),
                           ("rho1:rho1,rho2:rho2,rho3:rho3", "DISAGREE")):
        code, out, _ = run(capsys, *argv, "--section", pairs)
        assert code == 0
        assert out.splitlines()[-1] == f"section_cross_check: {verdict}"


# -- sizes ------------------------------------------------------------------------------


def test_sizes_figure_rows_match_plotted_values(capsys):
    code, out, _ = run(capsys, "sizes", "--kf", "3", "--group", "S3", "--m-max", "60")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "m,log_regular,log_omega,marker"
    assert len(lines) == 11
    assert lines[2] == "12,5.950642552587727,5.950642552587727,2kc"


def test_sizes_emits_figure_csv_on_stdout_and_to_file(capsys, tmp_path):
    expected = figure_csv(figure_data(3, "S3", 60))
    code, out, _ = run(capsys, "sizes", "--kf", "3", "--group", "S3", "--m-max", "60")
    assert code == 0
    assert out == expected
    path = tmp_path / "fig.csv"
    code, out, _ = run(capsys, "sizes", "--kf", "3", "--group", "S3", "--m-max", "60",
                       "--out", str(path))
    assert code == 0
    assert path.read_bytes() == expected.encode("utf-8")


def test_sizes_table1_kf2(capsys):
    code, out, _ = run(capsys, "sizes", "--emit", "table1", "--kf", "2")
    assert code == 0
    assert out.strip() == "C2: kc=2, regular=m^2/2, omega=m^2/2"


def test_sizes_s5_first_row(capsys):
    code, out, _ = run(capsys, "sizes", "--kf", "5", "--group", "S5", "--m-max", "120")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2
    assert lines[1].startswith("120,4.787491742782046,")


def test_sizes_json_schema(capsys):
    code, out, _ = run(capsys, "sizes", "--kf", "3", "--group", "S3",
                       "--m-max", "12", "--format", "json")
    payload = json.loads(out)
    assert list(payload) == ["kf", "group", "rows"]
    assert list(payload["rows"][0]) == ["m", "log_regular", "log_omega", "marker"]


def test_sizes_requires_group_without_table_emit(capsys):
    code, _, _ = run(capsys, "sizes", "--kf", "3")
    assert code == 2


@pytest.mark.parametrize("m_max", [M_MAX_BOUND + 1, 10**12])
def test_sizes_refuses_an_m_max_past_the_bound_at_once(capsys, m_max):
    start = time.perf_counter()
    code, out, err = run(capsys, "sizes", "--kf", "3", "--group", "S3", "--m-max", str(m_max))
    elapsed = time.perf_counter() - start
    assert code == 2 and out == ""
    assert f"m_max {m_max} exceeds the bound {M_MAX_BOUND}" in err
    assert elapsed < 1.0, f"took {elapsed:.2f} s"
    with pytest.raises(ValueError, match="exceeds the bound"):
        crossover_report(3, "S3", m_max)


def test_sizes_accepts_m_max_at_the_bound(capsys):
    code, out, _ = run(capsys, "sizes", "--kf", "2", "--group", "C2",
                       "--m-max", str(M_MAX_BOUND))
    assert code == 0
    assert len(out.splitlines()) == 1 + M_MAX_BOUND // 2
    assert str(M_MAX_BOUND) in run(capsys, "sizes", "--help")[1]


# -- verify ------------------------------------------------------------------------------


def test_verify_cocycle_suite(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "cocycle")
    assert code == 0
    assert "all passed" in out


def test_verify_json_output_sorted(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "cocycle", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["all_passed"]
    names = [v["property"] for v in payload["verdicts"]]
    assert names == sorted(names)


def test_verify_corrupted_group_json(capsys, tmp_path):
    w = regular_wreath(construct_named("C:2"), construct_named("C:2"))
    data = group_to_json(w.dense())
    data["table"][2][3] = (data["table"][2][3] + 1) % 8
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    code, out, _ = run(capsys, "verify", "--group-json", str(path))
    assert code == 1
    assert "FAIL" in out


@pytest.mark.parametrize("text", [
    '{"order": 2, "identity": 0, "labels": ["e", "a"], "table": [[0, 1], [1, 0.5]]}',
    '{"order": 2, "identity": 0.7, "table": [[0, 1], [1, 0]]}',
    '{"order": "2", "identity": 0, "table": [[0, 1], [1, 0]]}',
    '{"order": 2, "identity": 0, "table": [[0, 1], [1]]}',
    '{"order": 2, "identity": 0, "table": [[0, 1], [1, null]]}',
])
def test_verify_refuses_malformed_group_json_as_a_usage_error(capsys, tmp_path, text):
    path = tmp_path / "f.json"
    path.write_text(text)
    code, out, err = run(capsys, "verify", "--group-json", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: ")


def test_verify_reports_an_out_of_range_cell_as_a_failed_verdict(capsys, tmp_path):
    path = tmp_path / "f.json"
    path.write_text('{"order": 2, "identity": 0, "table": [[0, 1], [1, %d]]}' % 2**40)
    code, out, _ = run(capsys, "verify", "--group-json", str(path))
    assert code == 1
    assert out.startswith("FAIL json: group_invariants (table not closed")


def test_verify_rejects_the_order_600_loop(capsys, tmp_path, c600_loop):
    path = tmp_path / "loop.json"
    path.write_text(json.dumps(c600_loop))
    code, out, _ = run(capsys, "verify", "--group-json", str(path))
    assert code == 1
    assert out.startswith("FAIL json: group_invariants (associativity fails")


def test_verify_valid_group_json(capsys, tmp_path):
    from wreathlab import save_group

    path = tmp_path / "good.json"
    save_group(construct_named("D:4"), path)
    code, out, _ = run(capsys, "verify", "--group-json", str(path))
    assert code == 0


def test_verify_sampled_depth(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "kk",
                       "--depth", "sampled:3", "--seed", "1")
    assert code == 0
    assert ("PASS kk: S4/V4 (4 sections verified: the default, then sampled:3 seed 1; "
            "each generator-certified, 288 checks)") in out.splitlines()


def test_verify_sampled_depth_covering_every_section_enumerates_them(capsys):
    # S4/V4 has 4^6 = 4096 sections: a larger N tries each once, not N random ones
    code, out, _ = run(capsys, "verify", "--suite", "kk", "--depth", "sampled:100000000")
    assert code == 0
    assert ("PASS kk: S4/V4 (4097 sections verified: the default, then all 4096 sections; "
            "each generator-certified, 294984 checks)") in out.splitlines()


def test_verify_negative_sampled_depth_is_usage_error(capsys):
    for depth in ("sampled:-5", "sampled:-1"):
        code, out, err = run(capsys, "verify", "--suite", "kk", "--depth", depth)
        assert (code, out) == (2, "")
        assert f"bad depth '{depth}'" in err


def test_verify_kk_names_how_its_sections_were_chosen(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "kk")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 6 and lines[-1] == "all passed"
    # S4/V4 has 4^6 sections: the default depth samples 20 of them, and says so
    assert ("PASS kk: S4/V4 (21 sections verified: the default, then sampled:20 seed 0; "
            "each generator-certified, 1512 checks)") in lines
    assert ("PASS kk: S3/A3 (10 sections verified: the default, then all 9 sections; "
            "each generator-certified, 120 checks)") in lines


def test_verify_theta_is_certified_whatever_the_depth(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "theta")
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "all passed"
    assert len(lines) == 17
    assert all(line.startswith("PASS theta: ") and "generator-certified, " in line
               and " checks, order " in line for line in lines[:-1])
    assert "PASS theta: C:5 wr C:5 (generator-certified, 37500 checks, order 15625)" in lines
    for argv in (["--depth", "sampled:3"], ["--seed", "7"],
                 ["--depth", "sampled:50", "--seed", "1"]):
        assert run(capsys, "verify", "--suite", "theta", *argv) == (0, out, "")


def test_verify_bad_depth_is_usage_error(capsys):
    for depth in ("shallow", "sampled:many"):
        code, out, err = run(capsys, "verify", "--suite", "theta", "--depth", depth)
        assert (code, out) == (2, "")
    assert "bad depth 'shallow'" in run(capsys, "verify", "--depth", "shallow")[2]


def test_action_file_with_group_reference(capsys, tmp_path):
    from wreathlab import action_to_json, natural_action, save_group

    s3 = construct_named("S:3")
    gpath = tmp_path / "s3.json"
    save_group(s3, gpath)
    data = action_to_json(natural_action(3, s3))
    data["group"] = str(gpath)
    apath = tmp_path / "act.json"
    apath.write_text(json.dumps(data))
    code, out, _ = run(capsys, "build", "--k", "C:2", "--omega", f"file:{apath}")
    assert code == 0
    assert out.startswith("order 48")


def test_action_file_with_a_malformed_group_reference_is_a_usage_error(capsys, tmp_path):
    from wreathlab import action_to_json, natural_action

    s3 = construct_named("S:3")
    group = group_to_json(s3)
    group["table"][0][0] = 0.0  # written as 0.0: refused, not truncated
    gpath = tmp_path / "s3.json"
    gpath.write_text(json.dumps(group))
    data = action_to_json(natural_action(3, s3))
    data["group"] = str(gpath)
    apath = tmp_path / "act.json"
    apath.write_text(json.dumps(data))
    code, _, err = run(capsys, "build", "--k", "C:2", "--omega", f"file:{apath}")
    assert code == 2
    assert "JSON number 0.0 is not an integer" in err


def test_usage_error_exit_code(capsys):
    assert main(["frobnicate"]) == 2
    assert main([]) == 2


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0


# -- one parser per process ------------------------------------------------------------

REPEATED_ARGVS = [
    ["sizes", "--kf", "3", "--emit", "table1"],
    ["embed", "--mode", "tower", "--field", "2,3,5", "--K", "2,3", "--alpha", "15",
     "--section", "rho1:rho1,rho2:rho6,rho3:rho7"],
    ["embed", "--mode", "frobnicate"],
    ["--help"],
    ["verify", "--suite", "omega"],
]


def test_the_reused_parser_answers_every_repeat_byte_for_byte(capsys):
    first = [run(capsys, *argv) for argv in REPEATED_ARGVS]
    assert [code for code, _, _ in first] == [0, 0, 2, 0, 0]
    assert "invalid choice: 'frobnicate'" in first[2][2] and first[3][1].startswith("usage:")
    assert [run(capsys, *argv) for argv in REPEATED_ARGVS] == first


def test_main_answers_without_building_a_parser(capsys, monkeypatch):
    def refuse():
        raise AssertionError("main built a parser")

    monkeypatch.setattr(cli, "build_parser", refuse)
    for _ in range(2):
        code, out, _ = run(capsys, "sizes", "--emit", "table1", "--kf", "3")
        assert code == 0 and out.startswith("C3: kc=3,")


def test_main_dispatches_to_the_command_bound_at_call_time(capsys, monkeypatch):
    seen = []
    monkeypatch.setattr(cli, "cmd_sizes", lambda args: seen.append(args.kf) or 7)
    assert main(["sizes", "--kf", "4", "--emit", "table1"]) == 7
    assert seen == [4]
