"""Command line behavior: parsing, exit codes, file output, config merging."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from mcnspde import validate_statistics
from mcnspde.cli import (
    EXIT_BAD_CONFIG,
    EXIT_CHECK_FAILED,
    EXIT_OK,
    _config_file_flags,
    _parse_n_list,
    _study_config,
    build_parser,
    main,
)

SMALL_HEAT = [
    "heat",
    "--n-list", "8,16,32",
    "--k", "6",
    "--mc", "3",
    "--seed", "4242",
]


def test_parse_n_list_forms():
    assert _parse_n_list("8,16,32") == (8, 16, 32)
    assert _parse_n_list(" 8, 16 ,32, ") == (8, 16, 32)
    assert _parse_n_list("8..256") == (8, 16, 32, 64, 128, 256)
    assert _parse_n_list("4...64") == (4, 8, 16, 32, 64)
    assert _parse_n_list("16..16") == (16,)
    with pytest.raises(ValueError):
        _parse_n_list("16..8")
    with pytest.raises(ValueError):
        _parse_n_list("two,four")


def test_heat_study_to_stdout(capsys):
    assert main(SMALL_HEAT) == EXIT_OK
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[0] == "N,tau,rms_error,standard_error"
    assert len(lines) == 4
    assert lines[1].startswith("8,0.125")
    n_str, tau_str, rms_str, se_str = lines[1].split(",")
    assert n_str == "8" and float(tau_str) == 0.125
    assert float(rms_str) > 0 and float(se_str) > 0


def test_heat_study_to_file_is_deterministic(tmp_path, capsys):
    dest = tmp_path / "study.csv"
    assert main(SMALL_HEAT + ["--out", str(dest)]) == EXIT_OK
    first = dest.read_bytes()
    summary = capsys.readouterr().out
    assert "fitted rate:" in summary  # human summary replaces the CSV on stdout
    assert main(SMALL_HEAT + ["--out", str(dest)]) == EXIT_OK
    assert dest.read_bytes() == first


def test_report_file(tmp_path, capsys):
    report = tmp_path / "summary.txt"
    assert main(SMALL_HEAT + ["--report", str(report)]) == EXIT_OK
    text = report.read_text()
    assert "realizations:   3" in text
    assert "base seed:      4242" in text
    capsys.readouterr()


def test_wave_study_runs(tmp_path, capsys):
    argv = [
        "wave",
        "--n-list", "8,16",
        "--k", "6",
        "--mc", "2",
        "--norm", "l2_velocity",
    ]
    assert main(argv) == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "N,tau,rms_error,standard_error"
    assert len(lines) == 3
    # the report names the wave law as it does the heat one: 8 windows of N_max = 16, each
    # 2 increments, the gaps and velocity parts of N = 8 and 16 and 4 oracle pieces, and the
    # exact semidiscrete oracle the rows measure against
    report = tmp_path / "r.txt"
    assert main(argv + ["--report", str(report)]) == EXIT_OK
    text = report.read_text()
    assert "noise windows:  8, 96 normals per path" in text
    assert "exact mode:     semidiscrete" in text
    assert "reference N" not in text
    assert "master steps" not in text
    capsys.readouterr()


# Each case carries a fixed id, so deleting one case renames no other.  The
# ids keep the names that positional numbering gave these cases.
@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(["heat", "--n-list", "12"], id="argv0"),
        pytest.param(["heat", "--mc", "0"], id="argv1"),
        # the benchmark noise loads sin(3 pi x), which needs 3 interior nodes
        pytest.param(["heat", "--k", "2", "--n-list", "8,16", "--mc", "2"], id="heat-k2"),
    ],
)
def test_bad_configuration_exit_code(argv, capsys):
    assert main(argv) == EXIT_BAD_CONFIG
    assert capsys.readouterr().err.startswith("error:")


def test_program_errors_are_not_reported_as_bad_configuration(monkeypatch):
    """A ValueError from inside a study is a bug: it propagates instead of exiting 2."""

    def broken_study(config):
        raise ValueError("broken inside the study")

    monkeypatch.setattr("mcnspde.cli.run_study", broken_study)
    with pytest.raises(ValueError, match="broken inside the study"):
        main(SMALL_HEAT)


def test_unknown_scheme_is_a_parse_error():
    with pytest.raises(SystemExit):
        main(["heat", "--scheme", "rk4"])
    with pytest.raises(SystemExit):
        main([])


def test_validate_exit_code_tracks_checks(tmp_path, capsys):
    expected = validate_statistics(samples=500, seed=7)
    code = main(["validate", "--samples", "500", "--seed", "7", "--out", str(tmp_path / "v.txt")])
    want = EXIT_OK if expected.all_passed else EXIT_CHECK_FAILED
    assert code == want
    out = capsys.readouterr().out
    assert "checks passed" in out
    assert (tmp_path / "v.txt").read_text() == expected.text()


def test_validate_rejects_bad_samples(capsys):
    assert main(["validate", "--samples", "1"]) == EXIT_BAD_CONFIG
    assert "error:" in capsys.readouterr().err


def test_validate_rejects_seeds_outside_a_64_bit_word(capsys):
    for seed in (-1, 2**64, 2**121):
        assert main(["validate", "--samples", "100", "--seed", str(seed)]) == EXIT_BAD_CONFIG
        assert "seed must be a 64-bit word" in capsys.readouterr().err


def test_config_file_provides_defaults(tmp_path, capsys):
    cfg = tmp_path / "study.cfg"
    cfg.write_text(
        """
        # small smoke study
        n_list = 8,16   # mixed separators on purpose
        k = 6
        mc = 4
        exact-mode = semidiscrete
        seed = 99
        """
    )
    report = tmp_path / "r.txt"
    argv = ["heat", "--config", str(cfg), "--mc", "5", "--report", str(report)]
    assert main(argv) == EXIT_OK
    text = report.read_text()
    assert "realizations:   5" in text  # explicit flag beats the file value
    assert "base seed:      99" in text  # file value fills the gap
    assert "exact mode:     semidiscrete" in text
    capsys.readouterr()


def test_config_file_rejects_unknown_keys(tmp_path, capsys):
    cfg = tmp_path / "study.cfg"
    cfg.write_text("volume = 11\n")
    assert main(["heat", "--config", str(cfg)]) == EXIT_BAD_CONFIG
    assert "unknown config key" in capsys.readouterr().err


def test_config_file_rejects_repeated_keys(tmp_path, capsys):
    cfg = tmp_path / "study.cfg"
    cfg.write_text("mc = 4\nk = 6\nmc = 5\n")
    assert main(["heat", "--config", str(cfg)]) == EXIT_BAD_CONFIG
    assert "config key 'mc' is given more than once" in capsys.readouterr().err
    cfg.write_text("n-list = 8,16\nn_list = 8,32\n")  # one key, two spellings
    assert main(["heat", "--config", str(cfg)]) == EXIT_BAD_CONFIG
    assert "config key 'n_list' is given more than once" in capsys.readouterr().err


def test_master_steps_is_not_a_setting(tmp_path, capsys):
    """Paths are drawn on the finest mesh, so neither a flag nor a file sets their size."""
    with pytest.raises(SystemExit) as exc:
        main(SMALL_HEAT + ["--master-steps", "1024"])
    assert exc.value.code == EXIT_BAD_CONFIG
    cfg = tmp_path / "study.cfg"
    cfg.write_text("master-steps = 1024\n")
    assert main(["heat", "--config", str(cfg)]) == EXIT_BAD_CONFIG
    assert "unknown config key 'master_steps'" in capsys.readouterr().err


def test_config_file_rejects_bad_lines(tmp_path, capsys):
    cfg = tmp_path / "study.cfg"
    cfg.write_text("just some words\n")
    assert main(["heat", "--config", str(cfg)]) == EXIT_BAD_CONFIG
    assert "key = value" in capsys.readouterr().err


def test_config_file_switches_take_yes_or_no(tmp_path, capsys):
    cfg = tmp_path / "study.cfg"
    args = build_parser().parse_args(["heat"])
    for value in ("1", "TRUE", "Yes", "on"):
        cfg.write_text(f"paper = {value}\n")
        assert _config_file_flags(cfg, args) == ["--paper"]
    for value in ("0", "False", "NO", "off"):
        cfg.write_text(f"paper = {value}\n")
        assert _config_file_flags(cfg, args) == []
    cfg.write_text("paper = maybe\n")
    assert main(["heat", "--config", str(cfg)]) == EXIT_BAD_CONFIG
    assert "'paper' wants yes or no, got 'maybe'" in capsys.readouterr().err


def test_config_file_may_not_name_another_config_file(tmp_path, capsys):
    other = tmp_path / "other.cfg"
    other.write_text("mc = 4\n")
    cfg = tmp_path / "study.cfg"
    cfg.write_text(f"config = {other}\n")
    assert main(["heat", "--config", str(cfg)]) == EXIT_BAD_CONFIG
    assert "may not name another config file" in capsys.readouterr().err


def test_missing_config_file(tmp_path, capsys):
    assert main(["heat", "--config", str(tmp_path / "nope.cfg")]) == EXIT_BAD_CONFIG
    capsys.readouterr()


def test_paper_presets_resolve_without_running():
    parser = build_parser()
    heat = _study_config(parser.parse_args(["heat", "--paper"]), "heat")
    assert heat.n_list == (4, 8, 16, 32, 64, 128, 256, 512, 1024)
    assert heat.mc_count == 1000
    # 64 windows of 16 increments, the gaps of N = 64..1024 and 4 oracle pieces
    assert (heat.window_law.windows, heat.window_law.normals) == (64, 3264)
    wave = _study_config(parser.parse_args(["wave", "--paper"]), "wave")
    assert (wave.n_list, wave.mc_count) == (heat.n_list, 1000)
    # 64 windows of 16 increments, the gaps and velocity parts of N = 64..1024 and 4 pieces
    assert (wave.window_law.windows, wave.window_law.normals) == (64, 5248)
    # seed and worker overrides still apply on top of the preset
    custom = _study_config(parser.parse_args(["heat", "--paper", "--seed", "5"]), "heat")
    assert custom.base_seed == 5
    # so do explicit sizes: the preset fills only what was not given
    # (paths follow the finest marched mesh: 8 heat windows of N_max = 32, 64 of wave N_max = 2048)
    argv = ["heat", "--paper", "--mc", "5", "--n-list", "8..32"]
    sized = _study_config(parser.parse_args(argv), "heat")
    assert (sized.mc_count, sized.n_list) == (5, (8, 16, 32))
    assert (sized.window_law.windows, sized.window_law.normals) == (8, 120)
    assert sized.k == 40
    finer = _study_config(parser.parse_args(["wave", "--paper", "--n-list", "8..2048"]), "wave")
    assert finer.n_list[-1] == 2048
    assert (finer.window_law.windows, finer.mc_count) == (64, 1000)
    # without --paper the same flags override the desk preset
    desk = _study_config(parser.parse_args(["wave", "--n-list", "8..256"]), "wave")
    assert (desk.n_list[-1], desk.window_law.windows, desk.mc_count) == (256, 32, 300)


def test_config_file_values_beat_the_paper_preset(tmp_path, capsys):
    cfg = tmp_path / "study.cfg"
    cfg.write_text("n-list = 8,16\nk = 6\nmc = 4\npaper = yes\n")
    assert "--paper" in _config_file_flags(cfg, build_parser().parse_args(["heat"]))
    report = tmp_path / "r.txt"
    argv = ["heat", "--config", str(cfg), "--mc", "2", "--report", str(report)]
    assert main(argv) == EXIT_OK
    text = report.read_text()
    assert "realizations:   2" in text  # explicit flag beats the file value
    # the file's n-list beats the preset's: 8 windows of N_max = 16, not 64 of 1024
    assert "noise windows:  8, 72 normals per path" in text
    assert "interior nodes: 6" in text
    capsys.readouterr()


def test_scheme_and_mode_flags_reach_config():
    parser = build_parser()
    args = parser.parse_args(["heat", "--scheme", "em", "--exact-mode", "semidiscrete"])
    config = _study_config(args, "heat")
    assert config.scheme == "em"
    assert config.exact_mode == "semidiscrete"


def test_console_script_help():
    # the child imports the package in src/, as the tests do, installed or not
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "mcnspde", "--help"], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0
    for word in ("heat", "wave", "validate"):
        assert word in proc.stdout
