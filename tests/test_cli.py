"""Command-line behavior: exit statuses, JSON output, config parsing."""
import json
import time

import pytest

from dpring.cli import (
    ConfigError,
    build_run_config,
    main,
    parse_config_text,
)
from dpring.fields import PrimeField, RationalField
from dpring.ore import expand_power, ore_from_text

Q = RationalField()


def run(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse exits on usage errors
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


# -- config parsing -------------------------------------------------------------


def test_parse_config_text_happy_path():
    raw = parse_config_text("b = 100\nr = 3\nk_max = 1\n")
    assert raw == {"b": 100, "r": 3, "k_max": 1}


def test_parse_config_accepts_comments_and_blanks():
    raw = parse_config_text("# scale\nb = 10\n\nr = 3  # ratio\n")
    assert raw == {"b": 10, "r": 3}


def test_parse_config_errors_carry_line_numbers():
    with pytest.raises(ConfigError, match="line 2"):
        parse_config_text("b = 10\nbogus = 1\n")
    with pytest.raises(ConfigError, match="line 1"):
        parse_config_text("b ten\n")
    with pytest.raises(ConfigError, match="line 3"):
        parse_config_text("b = 10\nr = 3\nk_max = one\n")
    with pytest.raises(ConfigError, match="line 2"):
        parse_config_text("b = 10\nb = 11\n")


def test_build_run_config_defaults():
    cfg = build_run_config({})
    assert cfg.params.base == 10
    assert cfg.params.ratio == 3
    assert cfg.params.k_max == 1
    assert cfg.params.field == Q
    assert cfg.seed == 0 and cfg.output is None


def test_build_run_config_fields():
    cfg = build_run_config({"field": "gf", "prime": 3})
    assert cfg.params.field == PrimeField(3)
    with pytest.raises(ConfigError):
        build_run_config({"field": "gf"})
    with pytest.raises(ConfigError):
        build_run_config({"prime": 3})
    with pytest.raises(ConfigError):
        build_run_config({"b": 1})


def test_build_run_config_budgets():
    cfg = build_run_config({"max_expand_m": 4, "max_basis_size": 99})
    assert cfg.budgets.max_expand_m == 4
    assert cfg.budgets.max_basis_size == 99


# -- exit statuses -----------------------------------------------------------------


def test_unknown_subcommand_is_2(capsys):
    code, _, _ = run(capsys, ["frobnicate"])
    assert code == 2


def test_missing_subcommand_is_2(capsys):
    code, _, _ = run(capsys, [])
    assert code == 2


def test_params_validate_statuses(capsys, tmp_path):
    bad = write(tmp_path, "bad.cfg", "b = 2\nr = 3\nk_max = 2\n")
    code, out, _ = run(capsys, ["params", "--validate", "--config", bad])
    assert code == 3
    doc = json.loads(out)
    assert doc["status"] == "invalid"
    assert "not strictly increasing" in doc["error"]
    # inspection without --validate reports but does not fail
    code, out, _ = run(capsys, ["params", "--config", bad])
    assert code == 0
    assert json.loads(out)["levels"]["1"]["valid"] is False
    code, out, _ = run(capsys, ["params", "--validate"])
    assert code == 0
    assert json.loads(out)["status"] == "ok"


def test_config_parse_failure_is_3(capsys, tmp_path):
    cfg = write(tmp_path, "bad.cfg", "b = 10\nwhat = 1\n")
    code, out, _ = run(capsys, ["params", "--config", cfg])
    assert code == 3
    assert "line 2" in json.loads(out)["error"]


def test_missing_config_file_is_3(capsys):
    code, out, _ = run(capsys, ["params", "--config", "/nonexistent.cfg"])
    assert code == 3


def test_negative_budget_is_3(capsys, tmp_path):
    # refused with the config, not reported later as a budget exceeded
    cfg = write(tmp_path, "neg.cfg", "max_basis_size = -3\n")
    code, out, _ = run(capsys, ["verify", "--campaign", "inclusions",
                                "--config", cfg])
    assert code == 3
    assert "max_basis_size must be >= 0, got -3" in json.loads(out)["error"]
    with pytest.raises(ConfigError, match="max_expand_m"):
        build_run_config({"max_expand_m": -1})
    assert build_run_config({"max_component_dim": 0}).budgets.max_component_dim == 0


def test_budget_exceeded_is_4(capsys):
    code, out, _ = run(capsys, ["expand", "--m", "40"])
    assert code == 4
    assert json.loads(out)["schema"] == "dpring.error/1"


def test_inclusions_family_over_max_basis_size_is_4(capsys, tmp_path):
    # the (30, 3) ideal_level family has 3,146 rows: counted, never built,
    # and refused one row over the budget
    cfg = write(tmp_path, "tight.cfg", "max_basis_size = 3145\n")
    code, out, _ = run(capsys, ["verify", "--campaign", "inclusions",
                                "--config", cfg, "--knob", "lengths=30,",
                                "--knob", "degree_cap=3"])
    assert code == 4
    assert "3146 rows" in json.loads(out)["error"]


# -- expand ------------------------------------------------------------------------


def test_expand_m3_has_three_coefficients(capsys):
    code, out, _ = run(capsys, ["expand", "--m", "3"])
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "dpring.expand/1"
    assert sorted(doc["coefficients"]) == ["1", "2", "3"]


def test_expand_round_trips(capsys):
    code, out, _ = run(capsys, ["expand", "--m", "5"])
    doc = json.loads(out)
    assert ore_from_text(Q, doc["ore_text"]) == expand_power(Q, 5)


def test_expand_window(capsys):
    code, out, _ = run(capsys, ["expand", "--m", "6", "--window", "4"])
    assert code == 0
    doc = json.loads(out)
    assert sorted(doc["coefficients"]) == ["4", "5", "6"]
    full = expand_power(Q, 6)
    windowed = ore_from_text(Q, doc["ore_text"])
    assert windowed.coeff(4) == full.coeff(4)


def test_expand_respects_budget_override(capsys, tmp_path):
    cfg = write(tmp_path, "w.cfg", "max_expand_m = 4\n")
    code, _, _ = run(capsys, ["expand", "--m", "4", "--config", cfg])
    assert code == 0
    code, out, _ = run(capsys, ["expand", "--m", "5", "--config", cfg])
    assert code == 4
    assert "budget 4" in json.loads(out)["error"]


# -- member ------------------------------------------------------------------------


def test_member_statuses(capsys, tmp_path):
    poly = write(tmp_path, "p.txt", "1*x0.x1.x0.x0.x0.x0.x0.x0.x0\n")
    code, out, _ = run(capsys, ["member", "--input", poly, "--space", "B",
                                "--k", "1", "--length", "9", "--degree", "1"])
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "dpring.member/1"
    assert doc["kind"] == "member"
    assert doc["verified"] is True
    stray = write(tmp_path, "q.txt", "1*x1.x0.x0.x0.x0.x0.x0.x0.x0\n")
    code, out, _ = run(capsys, ["member", "--input", stray, "--space", "B",
                                "--k", "1", "--length", "9", "--degree", "1"])
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "non_member" and doc["verified"] is True


def test_member_space_letters(capsys, tmp_path):
    poly = write(tmp_path, "p.txt", "1*" + ".".join(["x0"] * 20))
    for space in ("W", "B"):
        code, out, _ = run(capsys, ["member", "--input", poly, "--space", space,
                                    "--k", "1", "--length", "20", "--degree", "0"])
        assert code == 0, space
        assert json.loads(out)["kind"] == "member"
    # the union of the collisions spans over levels is gone
    code, _, err = run(capsys, ["member", "--input", poly, "--space", "Bsum",
                                "--k", "1", "--length", "20", "--degree", "0"])
    assert code == 2 and "invalid choice: 'Bsum'" in err
    code, out, _ = run(capsys, ["member", "--input", poly, "--space", "I",
                                "--length", "20", "--degree", "0"])
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "member" and doc["level"] is None


def test_member_ideal_refuses_a_level(capsys, tmp_path):
    # the truncated ideal spans every fitting level: --k is refused, not dropped
    poly = write(tmp_path, "p.txt", "1*" + ".".join(["x0"] * 20))
    code, out, _ = run(capsys, ["member", "--input", poly, "--space", "I",
                                "--k", "1", "--length", "20", "--degree", "0"])
    assert code == 3
    assert "takes no level" in json.loads(out)["error"]


def test_member_words_non_member(capsys, tmp_path):
    # each window segment x1.x0^9 is no pivot of its window span
    stray = write(tmp_path, "w.txt", "1*" + ".".join((["x1"] + ["x0"] * 9) * 2))
    code, out, _ = run(capsys, ["member", "--input", stray, "--space", "W",
                                "--k", "1", "--length", "20", "--degree", "2"])
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "non_member" and doc["verified"] is True


def test_member_refuses_a_large_family_before_building_it(capsys, tmp_path):
    # the truncated ideal at (80, 3) has 2422371 rows: refused from the
    # closed-form count, not after enumerating two million of them
    poly = write(tmp_path, "i.txt", "1*" + ".".join(["x0"] * 77 + ["x1"] * 3))
    start = time.perf_counter()
    code, out, _ = run(capsys, ["member", "--input", poly, "--space", "I",
                                "--length", "80", "--degree", "3"])
    assert time.perf_counter() - start < 5
    assert code == 4
    assert "has 2422371 rows, over the budget 2000000" in json.loads(out)["error"]


def test_member_requires_level_for_lettered_spaces(capsys, tmp_path):
    poly = write(tmp_path, "p.txt", "1*x0")
    code, out, _ = run(capsys, ["member", "--input", poly, "--space", "W",
                                "--length", "1", "--degree", "0"])
    assert code == 3


def test_degenerate_level_is_3(capsys, tmp_path):
    # both levels of (2,3,2) are degenerate: no collision family to query,
    # sample or escape from, while the word span is still answered
    cfg = write(tmp_path, "232.cfg", "b = 2\nr = 3\nk_max = 2\n")
    poly = write(tmp_path, "p.txt", "1*" + ".".join(["x0"] * 15))
    code, out, _ = run(capsys, ["member", "--input", poly, "--space", "B",
                                "--k", "2", "--length", "15", "--degree", "0",
                                "--config", cfg])
    assert code == 3
    assert "level 2 is degenerate" in json.loads(out)["error"]
    for campaign in ("products", "z_closure", "escape", "inclusions",
                     "counterexample"):
        code, out, _ = run(capsys, ["verify", "--campaign", campaign,
                                    "--config", cfg])
        assert code == 3, campaign
        assert "degenerate" in json.loads(out)["error"], campaign
    block = write(tmp_path, "w.txt", "1*" + ".".join(["x0"] * 16))
    code, out, _ = run(capsys, ["member", "--input", block, "--space", "W",
                                "--k", "2", "--length", "16", "--degree", "0",
                                "--config", cfg])
    assert code == 0
    assert json.loads(out)["kind"] == "member"


def test_counterexample_over_gf2_is_1(capsys, tmp_path):
    # the degree-zero factors draw no coefficient that vanishes in GF(2), so
    # the products check runs; the escape fails because A_1 = -(r - 1) = -2
    # vanishes there, and the escape drops below the floor
    cfg = write(tmp_path, "gf2.cfg", "field = gf\nprime = 2\n")
    code, out, _ = run(capsys, ["verify", "--campaign", "counterexample",
                                "--config", cfg])
    assert code == 1
    checks = json.loads(out)["checks"]
    assert [(c["component"], c["verdict"], c["detail"]) for c in checks
            if c["claim"].startswith("products")] == [
        ("lengths 29..53", "pass", {"products": 20, "failures": 0})]
    assert [(c["verdict"], c["detail"]) for c in checks
            if c["claim"] == "escape avoids the collision span"] == [
        ("fail", {"floor": 8}), ("fail", {"floor": 16})]


def test_member_bigrade_mismatch_is_3(capsys, tmp_path):
    poly = write(tmp_path, "p.txt", "1*x0.x0")
    code, out, _ = run(capsys, ["member", "--input", poly, "--space", "B",
                                "--k", "1", "--length", "9", "--degree", "1"])
    assert code == 3


def test_member_missing_input_is_3(capsys):
    code, _, _ = run(capsys, ["member", "--input", "/missing.txt", "--space", "B",
                              "--k", "1", "--length", "9", "--degree", "1"])
    assert code == 3


# -- verify ----------------------------------------------------------------------------


def test_verify_ballot_passes(capsys):
    code, out, err = run(capsys, ["verify", "--campaign", "ballot"])
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "dpring.report/1"
    assert doc["campaign"] == "ballot" and doc["verdict"] == "pass"
    assert "verdict pass" in err  # progress goes to stderr


def test_verify_unknown_campaign_is_3(capsys):
    code, _, _ = run(capsys, ["verify", "--campaign", "nonsense"])
    assert code == 3


def test_verify_knob_sets_the_escape_level(capsys, tmp_path):
    cfg = write(tmp_path, "k2.cfg", "b = 10\nr = 3\nk_max = 2\n")
    code, out, _ = run(capsys, ["verify", "--config", cfg, "--campaign",
                                "escape", "--knob", "k=2"])
    assert code == 0
    [check] = json.loads(out)["checks"]
    assert check["detail"]["escape_index"] == 9996


def test_verify_knob_values(capsys):
    # comma-separated ints make a sequence, a trailing comma one of one
    code, out, _ = run(capsys, ["verify", "--campaign", "inclusions",
                                "--knob", "lengths=20,", "--knob",
                                "degree_cap=1"])
    assert code == 0
    assert json.loads(out)["parameters"]["lengths"] == [20]
    for knob, status in (("hmax=2", 3),        # a name escape does not take
                         ("h=1,2", 3),         # a sequence for an int
                         ("h=two", 2), ("h", 2)):
        code, _, err = run(capsys, ["verify", "--campaign", "escape",
                                    "--knob", knob])
        assert code == status, (knob, err)
    code, _, err = run(capsys, ["verify", "--campaign", "inclusions",
                                "--knob", "lengths=20"])
    assert code == 3 and "lengths must be a non-empty sequence" in err
    code, _, err = run(capsys, ["verify", "--campaign", "escape",
                                "--knob", "h=1", "--knob", "h=2"])
    assert code == 3 and "twice" in err


def test_series_subcommand(capsys):
    # the series campaign runs through verify alone; the subcommand is gone
    code, out, _ = run(capsys, ["verify", "--campaign", "series", "--knob",
                                "dimension=3", "--knob", "trials=5"])
    assert code == 0
    doc = json.loads(out)
    assert doc["campaign"] == "series" and doc["verdict"] == "pass"
    code, _, err = run(capsys, ["series", "--dim", "3", "--trials", "5"])
    assert code == 2 and "invalid choice: 'series'" in err


def test_series_refuses_zero_sized_knobs(capsys):
    for knob in ("trials=0", "dimension=1"):
        code, out, _ = run(capsys, ["verify", "--campaign", "series",
                                    "--knob", knob])
        assert code == 3
        name = knob.split("=")[0]
        assert json.loads(out)["error"].startswith(f"{name} must be >= ")


def test_series_over_gf(capsys, tmp_path):
    cfg = write(tmp_path, "gf.cfg", "field = gf\nprime = 5\n")
    code, out, _ = run(capsys, ["verify", "--campaign", "series", "--knob",
                                "dimension=3", "--knob", "trials=5",
                                "--config", cfg])
    assert code == 0
    assert json.loads(out)["parameters"]["field"] == "gf(5)"


def test_ballot_knob_is_held_to_the_expansion_budget(capsys, tmp_path):
    cfg = write(tmp_path, "m4.cfg", "max_expand_m = 4\n")
    code, _, _ = run(capsys, ["verify", "--campaign", "ballot", "--knob",
                              "m_max=4", "--config", cfg])
    assert code == 0
    start = time.perf_counter()
    code, out, _ = run(capsys, ["verify", "--campaign", "ballot", "--knob",
                                "m_max=5", "--config", cfg])
    assert time.perf_counter() - start < 1  # refused before any expansion
    assert code == 4
    assert "budget 4" in json.loads(out)["error"]


# -- output and determinism --------------------------------------------------------------


def test_output_file(capsys, tmp_path):
    target = tmp_path / "out.json"
    code, out, _ = run(capsys, ["expand", "--m", "2", "--output", str(target)])
    assert code == 0
    assert out == ""  # everything lands in the file
    doc = json.loads(target.read_text())
    assert doc["m"] == 2


@pytest.mark.parametrize("argv", [["params"], ["verify", "--campaign", "ballot"]])
def test_unwritable_output_is_refused_before_any_work(capsys, tmp_path, argv):
    target = str(tmp_path / "missing" / "out.json")
    cfg = write(tmp_path, "out.cfg", f"output = {target}\n")
    for flags in (["--output", target], ["--config", cfg]):
        code, out, err = run(capsys, argv + flags)
        assert code == 3
        doc = json.loads(out)  # on stdout, as the path takes nothing
        assert doc["schema"] == "dpring.error/1" and doc["status"] == 3
        assert "cannot write output" in doc["error"]
        assert "verify:" not in err  # no campaign started
    assert not (tmp_path / "missing").exists()


def test_same_seed_byte_identical(capsys):
    _, out1, _ = run(capsys, ["verify", "--campaign", "series", "--seed", "9"])
    _, out2, _ = run(capsys, ["verify", "--campaign", "series", "--seed", "9"])
    assert out1 == out2


def test_timing_flag_adds_elapsed(capsys):
    _, plain, _ = run(capsys, ["verify", "--campaign", "ballot"])
    _, timed, _ = run(capsys, ["verify", "--campaign", "ballot", "--timing"])
    assert "elapsed_s" not in json.loads(plain)
    assert "elapsed_s" in json.loads(timed)


def test_timing_flag_only_on_campaign_runners(capsys):
    code, _, _ = run(capsys, ["expand", "--m", "2", "--timing"])
    assert code == 2
    _, timed, _ = run(capsys, ["verify", "--campaign", "series", "--knob",
                               "trials=2", "--timing"])
    assert "elapsed_s" in json.loads(timed)
