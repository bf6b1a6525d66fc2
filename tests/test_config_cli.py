import numpy as np
import pytest

from sensemat.cli import main
from sensemat.config import ConfigError, ExperimentConfig, parse_config
from sensemat.experiments import (
    emit_csv,
    format_value,
    read_csv,
    run_experiment_sweep,
)


def _line_value(output, key):
    for line in output.splitlines():
        if line.startswith(key + "="):
            return line.partition("=")[2]
    raise AssertionError(f"no {key}= line in output:\n{output}")


def test_defaults():
    cfg = parse_config()
    assert cfg["p0"] == (0.9, 0.8, 0.7, 0.6, 0.5)
    assert cfg["n_su"] == 3
    assert cfg["slot_duration"] == 0.2
    assert cfg["sensing_time"] == 0.001
    assert cfg["handover_time"] == 0.0001
    assert cfg["p_fa"] == 0.1 and cfg["p_d"] == 0.9
    assert cfg["allocator"] == "sms"
    assert cfg["rebuild_per_slot"] is True
    assert cfg.snr_linear == pytest.approx(10 ** -1.5)
    assert cfg.profile.n_channels == 5
    assert cfg.timing.rate == 1.0


def test_parse_file_and_overrides(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(
        "# experiment setup\n"
        "\n"
        "p0 = [0.5, 0.6]\n"
        "n_su = 2\n"
        "rebuild_per_slot = off\n"
        "allocator = msms\n"
        "seed = 42\n"
    )
    cfg = parse_config(str(path))
    assert cfg["p0"] == (0.5, 0.6)
    assert cfg["n_su"] == 2
    assert cfg["rebuild_per_slot"] is False
    assert cfg["allocator"] == "msms"
    assert cfg["seed"] == 42
    over = parse_config(str(path), overrides={"seed": "7", "n_su": 4})
    assert over["seed"] == 7 and over["n_su"] == 4
    assert over["p0"] == (0.5, 0.6)  # file value survives untouched keys


def test_parse_errors_carry_file_and_line(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("n_su = 2\nwhatever\n")
    with pytest.raises(ConfigError, match=rf"{path.name}:2"):
        parse_config(str(path))
    path.write_text("n_su = 2\nwarp_factor = 9\n")
    with pytest.raises(ConfigError, match="unknown key 'warp_factor'"):
        parse_config(str(path))
    path.write_text("sensing_time = quick\n")
    with pytest.raises(ConfigError, match=rf"{path.name}:1.*sensing_time"):
        parse_config(str(path))
    path.write_text("rebuild_per_slot = maybe\n")
    with pytest.raises(ConfigError, match="boolean"):
        parse_config(str(path))
    path.write_text("p0 = 0.5, 0.6\n")
    with pytest.raises(ConfigError, match="bracketed"):
        parse_config(str(path))
    with pytest.raises(ConfigError, match="unknown config key"):
        parse_config(None, overrides={"nope": 1})


def test_validation_errors():
    with pytest.raises(ConfigError, match="infeasible timing"):
        parse_config(None, overrides={"slot_duration": 0.005})
    with pytest.raises(ConfigError, match="allocator"):
        parse_config(None, overrides={"allocator": "bogus"})
    with pytest.raises(ConfigError, match="n_su"):
        parse_config(None, overrides={"n_su": 0})
    with pytest.raises(ConfigError, match="target_p_d"):
        parse_config(None, overrides={"target_p_d": 1.0})


def test_replace_and_digest():
    cfg = parse_config()
    again = parse_config()
    assert cfg.digest() == again.digest()
    assert len(cfg.digest()) == 12
    changed = cfg.replace(seed=99)
    assert changed.digest() != cfg.digest()
    assert changed["seed"] == 99
    assert cfg["seed"] == 0  # original untouched
    with pytest.raises(ConfigError):
        cfg.replace(warp=1)


def test_sim_config_mapping():
    cfg = parse_config(None, overrides={"n_slots": 500, "seed": 3, "allocator": "pmsms"})
    sim = cfg.sim_config()
    assert sim.n_slots == 500
    assert sim.seed == 3
    assert sim.allocator == "pmsms"
    assert sim.profile.n_channels == 5
    fixed = cfg.sim_config(matrix=[[1, 0, 0, 0, 0]] * 3, rebuild_per_slot=False)
    assert fixed.matrix is not None and fixed.rebuild_per_slot is False


def test_format_value():
    assert format_value(True) == "true"
    assert format_value(False) == "false"
    assert format_value(3) == "3"
    assert format_value(np.int64(4)) == "4"
    assert format_value(0.123456789123) == "0.123456789"
    assert format_value("sms") == "sms"


def test_csv_round_trip(tmp_path):
    path = tmp_path / "out.csv"
    columns = ["x", "value", "label"]
    rows = [[1, 0.125, "a"], [2, 0.0625, "b"]]
    meta = {"tool": "sensemat", "seed": 7}
    emit_csv(str(path), columns, rows, meta)
    meta2, cols2, rows2 = read_csv(str(path))
    assert meta2 == {"tool": "sensemat", "seed": "7"}
    assert cols2 == columns
    assert rows2 == [[1, 0.125, "a"], [2, 0.0625, "b"]]
    bad = tmp_path / "bad.csv"
    bad.write_text("x,y\n1,2\n")
    with pytest.raises(ValueError, match="metadata"):
        read_csv(str(bad))


def test_cli_allocate(capsys):
    assert main(["allocate"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["1 0 0 0 0", "2 5 0 0 0", "3 4 0 0 0"]
    assert main(["allocate", "--slot", "2"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["3 4 0 0 0", "1 0 0 0 0", "2 5 0 0 0"]


def test_cli_analyze_fixed_matrix(capsys):
    rc = main(["analyze", "--p0", "[0.3, 0.8]", "--matrix", "2 1"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "2 1"
    assert float(_line_value(out, "closed_form")) == pytest.approx(1.09285, abs=1e-9)
    assert float(_line_value(out, "exact")) == pytest.approx(0.85537, abs=1e-9)


def test_cli_optimal(capsys):
    rc = main(["optimal", "--p0", "[0.3,0.8]", "--n-su", "1"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "2 1"
    assert _line_value(out, "objective") == "exact"
    assert float(_line_value(out, "value")) == pytest.approx(0.85537, abs=1e-9)


def test_cli_optimal_budget_error(capsys):
    rc = main(["optimal", "--allow-repeats"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "budget" in err


def test_cli_simulate_deterministic(capsys):
    args = ["simulate", "--n-slots", "40", "--seed", "9"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    second = capsys.readouterr().out
    assert first == second
    assert _line_value(first, "n_slots") == "40"
    assert float(_line_value(first, "network_throughput")) > 0


def test_cli_simulate_fixed_matrix(capsys):
    rc = main([
        "simulate", "--matrix", "1 0 0 0 0; 2 5 0 0 0; 3 4 0 0 0",
        "--n-slots", "20",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert _line_value(out, "fairness_degenerate") == "false"


def test_cli_error_exit(capsys):
    rc = main(["simulate", "--allocator", "bogus"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "allocator" in err


def test_cli_sweep_custom(tmp_path, capsys):
    out_path = tmp_path / "sweep.csv"
    rc = main([
        "sweep", "--preset", "custom", "--var", "sensing_time",
        "--values", "0.002,0.001", "--n-slots", "25", "--out", str(out_path),
    ])
    assert rc == 0
    assert "wrote" in capsys.readouterr().out
    meta, columns, rows = read_csv(str(out_path))
    assert meta["preset"] == "custom"
    assert meta["var"] == "sensing_time"
    assert meta["tool"] == "sensemat"
    assert "config" in meta and len(meta["config"]) == 12
    assert columns[0] == "sensing_time"
    assert [r[0] for r in rows] == [0.001, 0.002]  # sorted by the swept column


def test_cli_sweep_custom_needs_var(capsys):
    rc = main(["sweep", "--preset", "custom"])
    assert rc == 2
    assert "--var" in capsys.readouterr().err


def test_sweep_fig6_energy_columns(tmp_path):
    cfg = parse_config(None, overrides={"n_slots": 30})
    result = run_experiment_sweep("fig6", cfg, out_path=str(tmp_path / "f6.csv"))
    assert len(result.rows) == 9
    assert result.meta["optimal_model"] == "full-length-sequence-per-user"
    cols = result.columns
    exact_i = cols.index("optimal_energy_exact")
    closed_i = cols.index("optimal_energy_closed_form")
    low_i, high_i = cols.index("sms_bound_low"), cols.index("sms_bound_high")
    for row in result.rows:
        assert row[low_i] == 3.0 and row[high_i] == 5.0
        assert row[closed_i] <= row[exact_i] + 1e-9


def test_sweep_fig4_falls_back_when_budget_exceeded(tmp_path):
    cfg = parse_config(None, overrides={"n_slots": 10})
    result = run_experiment_sweep(
        "fig4", cfg, out_path=str(tmp_path / "f4.csv"), allow_repeats=True
    )
    note = result.meta.get("note", "")
    assert "search-budget-exceeded" in note
    assert "repetition-free-fallback" in note
    assert len(result.rows) == 10
    gap_i = result.columns.index("optimality_gap")
    assert all(row[gap_i] <= 0.03 + 1e-12 for row in result.rows)


def test_sweep_fig8_persistence_ratio(tmp_path):
    cfg = parse_config(None, overrides={"n_slots": 15, "seed": 2})
    result = run_experiment_sweep("fig8", cfg, out_path=str(tmp_path / "f8.csv"))
    assert len(result.rows) == 20
    ratio_i = result.columns.index("gain_ratio")
    last = result.rows[-1]
    assert last[0] == 1.0
    assert last[ratio_i] == pytest.approx(1.0, abs=1e-12)
    meta, _, rows = read_csv(str(tmp_path / "f8.csv"))
    assert meta["n_su_forced"] == "8"
    assert len(rows) == 20


def test_sweep_rejects_unknown_preset():
    cfg = parse_config()
    with pytest.raises(ConfigError, match="unknown preset"):
        run_experiment_sweep("fig99", cfg)


@pytest.mark.parametrize("command", ["analyze", "simulate"])
@pytest.mark.parametrize("matrix, problem", [
    ("-1 0 0 0 0", "entry [0,0]=-1 outside 0..5"),   # used to wrap to channel 5
    ("1 2", "row length 2 does not match channel count 5"),  # used to score 2 channels
    ("6 0 0 0 0", "entry [0,0]=6 outside 0..5"),     # used to die with IndexError
])
def test_cli_rejects_bad_matrix_with_one_error_line(command, matrix, problem, capsys):
    rc = main([command, "--n-su", "1", "--n-slots", "10", f"--matrix={matrix}"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: bad --matrix: {problem}\n"


def test_sweep_custom_int_key_takes_integral_values(tmp_path, capsys):
    out_path = tmp_path / "n_su.csv"
    rc = main(["sweep", "--preset", "custom", "--var", "n_su", "--values", "3,2",
               "--n-slots", "20", "--out", str(out_path)])
    assert rc == 0
    _, _, rows = read_csv(str(out_path))
    assert [r[0] for r in rows] == [2, 3]


def test_sweep_custom_reports_the_swept_slots_and_seed(tmp_path, capsys):
    for var, values in (("n_slots", "30,20"), ("seed", "4,5")):
        out_path = tmp_path / f"{var}.csv"
        assert main(["sweep", "--preset", "custom", "--var", var, "--values", values,
                     "--n-slots", "25", "--seed", "1", "--out", str(out_path)]) == 0
        _, columns, rows = read_csv(str(out_path))
        assert [r[columns.index(var)] for r in rows] == [r[0] for r in rows]


@pytest.mark.parametrize("var, values, message", [
    ("seed", "1.5", "seed takes whole numbers"),
    ("n_su", "2.5", "n_su takes whole numbers"),
    ("p0", "0.5", "p0 cannot be swept"),
    ("rebuild_per_slot", "1", "rebuild_per_slot cannot be swept"),
    ("allocator", "1", "allocator cannot be swept"),
    ("bogus", "1", "unknown config key 'bogus'"),
    ("n_su", "0", "n_su must be >= 1"),
])
def test_sweep_custom_rejects_values_its_key_cannot_take(var, values, message, tmp_path, capsys):
    out_path = tmp_path / "rejected.csv"
    rc = main(["sweep", "--preset", "custom", "--var", var, "--values", values,
               "--n-slots", "10", "--out", str(out_path)])
    assert rc == 2
    assert not out_path.exists()
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert message in err


def test_replace_coerces_whole_numbers_for_int_keys():
    changed = parse_config().replace(n_su=2.0)
    assert changed["n_su"] == 2 and type(changed["n_su"]) is int


@pytest.mark.parametrize("changes, message", [
    ({"n_su": 0}, "n_su must be >= 1"),
    ({"seed": 1.5}, "seed takes whole numbers"),
    ({"warp": 1}, "unknown config key 'warp'"),
])
def test_replace_validates(changes, message):
    with pytest.raises(ConfigError, match=message):
        parse_config().replace(**changes)


def test_sweep_fig7_takes_a_tiny_target_p_d(tmp_path, capsys):
    # 1 - 1e-17 rounds to 1.0, whose normal quantile used to raise
    out_path = tmp_path / "fig7.csv"
    assert main(["sweep", "--preset", "fig7", "--target-p-d", "1e-17",
                 "--n-slots", "10", "--out", str(out_path)]) == 0
    _, columns, rows = read_csv(str(out_path))
    assert all(0.0 <= r[columns.index("p_fa_mapped")] <= 1e-17 for r in rows)


@pytest.mark.parametrize("command", ["allocate", "analyze"])
@pytest.mark.parametrize("slot", ["0", "-1"])
def test_slot_below_one_is_rejected(command, slot, capsys):
    # slot 0 used to print slot 3's matrix, and -1 slot 2's
    assert main([command, f"--slot={slot}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --slot must be >= 1, got {slot}\n"
