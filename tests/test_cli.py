import json
import time

import pytest

from wreathlab import (
    construct_named,
    figure_csv,
    figure_data,
    group_to_json,
    load_group,
    regular_wreath,
)
from wreathlab.cli import main


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


def test_build_json_schema_is_stable(capsys):
    for args in (("C:2", "C:2"), ("C:1", "S:3")):
        code, out, _ = run(capsys, "build", "--k", args[0], "--h", args[1],
                           "--omega", "regular", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert list(payload) == ["order", "identified", "base_order", "omega_size", "top_order"]


def test_build_size_cap_exit_code(capsys):
    code, _, err = run(capsys, "build", "--k", "C:10", "--h", "D:4",
                       "--omega", "regular")
    assert code == 3
    assert "resource limit" in err


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


def test_build_env_size_cap(capsys, monkeypatch):
    monkeypatch.setenv("WREATHLAB_SIZE_CAP", "4")
    code, _, err = run(capsys, "build", "--k", "C:2", "--h", "C:2", "--omega", "regular")
    assert code == 3
    monkeypatch.setenv("WREATHLAB_SIZE_CAP", "1000")
    code, out, _ = run(capsys, "build", "--k", "C:2", "--h", "C:2", "--omega", "regular")
    assert code == 0


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
