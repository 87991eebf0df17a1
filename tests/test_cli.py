import os
import re

import pytest

from mixedwave import cli


def test_defaults_resolution(tmp_path):
    cfg = cli.parse_config(["solve", "--problem", "standing-wave"])
    assert cfg["command"] == "solve"
    assert cfg["mesh_n"] == 8
    assert cfg["steps"] == 20
    assert cfg["T"] == 0.5
    assert cfg["rt_index"] == 0
    assert cfg["forcing"] == "pointwise"
    assert cfg["constants"] == "unit"
    for key, value in (("recovery", "literal"), ("enrich", "2")):
        assert key not in cfg
        conf = tmp_path / (key + ".conf")
        conf.write_text("{} = {}\n".format(key, value))
        with pytest.raises(cli.UnknownKeyError, match=key):
            cli.read_config_file(str(conf))


def test_flag_overrides_config_file(tmp_path):
    conf = tmp_path / "run.conf"
    conf.write_text(
        "# comment\n"
        "problem = standing-wave\n"
        "mesh_n = 4\n"
        "steps = 6\n"
    )
    cfg = cli.parse_config(
        ["solve", "--config", str(conf), "--mesh-n", "16"]
    )
    assert cfg["mesh_n"] == 16  # flag wins
    assert cfg["steps"] == 6  # file wins over default
    assert cfg["problem"] == "standing-wave"


def test_unknown_key_names_the_key(tmp_path):
    conf = tmp_path / "bad.conf"
    conf.write_text("mesh_size = 4\n")
    with pytest.raises(cli.UnknownKeyError, match="mesh_size"):
        cli.read_config_file(str(conf))


def test_type_mismatch_names_the_key(tmp_path):
    conf = tmp_path / "bad.conf"
    conf.write_text("steps = soon\n")
    with pytest.raises(cli.TypeMismatchError, match="steps"):
        cli.read_config_file(str(conf))


def test_unknown_value_names_the_key(tmp_path):
    conf = tmp_path / "bad.conf"
    conf.write_text("forcing = sometimes\n")
    with pytest.raises(cli.UnknownValueError, match="forcing"):
        cli.read_config_file(str(conf))


def test_missing_required_problem():
    with pytest.raises(cli.MissingRequiredError, match="problem"):
        cli.parse_config(["solve"])


def test_missing_command():
    with pytest.raises(cli.MissingRequiredError, match="command"):
        cli.parse_config(["--problem", "standing-wave"])


def test_oracle_check_needs_no_problem():
    cfg = cli.parse_config(["oracle-check"])
    assert cfg["problem"] is None


def test_bad_numeric_ranges():
    with pytest.raises(cli.TypeMismatchError, match="steps"):
        cli.parse_config(["solve", "--problem", "standing-wave", "--steps", "0"])
    with pytest.raises(cli.TypeMismatchError, match="'T'"):
        cli.parse_config(["solve", "--problem", "standing-wave", "--T", "-1"])
    for study, levels in (("spatial", "0,1,2"), ("temporal", "0,2,4"), ("spatial", "4,-8,16")):
        with pytest.raises(cli.TypeMismatchError, match="levels"):
            cli.parse_config(
                ["study", "--problem", "standing-wave", "--study", study, "--levels", levels]
            )


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--mesh-n", "abc", "key 'mesh_n' expects an integer, got 'abc'"),
        ("--T", "soon", "key 'T' expects a number, got 'soon'"),
        ("--rt-index", "2", "key 'rt_index' must be one of (0, 1), got 2"),
    ],
)
def test_bad_flag_value_is_a_config_error(tmp_path, capsys, flag, value, message):
    # flags and config files share one coercion and its messages
    out = tmp_path / "o"
    rc = cli.main(["estimate", "--problem", "standing-wave", "--out", str(out), flag, value])
    assert rc == 2 and not out.exists()
    assert capsys.readouterr().err == "config-error: {}\n".format(message)
    conf = tmp_path / "run.conf"
    conf.write_text("{} = {}\n".format(flag[2:].replace("-", "_"), value))
    with pytest.raises(cli.ConfigError, match=re.escape(message)):
        cli.read_config_file(str(conf))


def test_flags_are_typed_like_config_values():
    cfg = cli.parse_config(["solve", "--problem", "standing-wave", "--rt-index", "1", "--T", "0.25"])
    assert cfg["rt_index"] == 1 and type(cfg["rt_index"]) is int
    assert cfg["T"] == 0.25 and type(cfg["T"]) is float
    with pytest.raises(cli.UnknownValueError, match="command"):
        cli.parse_config(["bogus", "--problem", "standing-wave"])


def test_study_needs_three_levels():
    with pytest.raises(cli.MissingRequiredError, match="levels"):
        cli.parse_config(
            ["study", "--problem", "standing-wave", "--levels", "4,8"]
        )


def test_missing_config_file():
    with pytest.raises(cli.MissingRequiredError, match="nope.conf"):
        cli.parse_config(["solve", "--problem", "standing-wave", "--config", "nope.conf"])


def test_config_error_exit_code(tmp_path, capsys):
    rc = cli.main(["solve", "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "config-error:" in capsys.readouterr().err


def test_solve_writes_artifacts(tmp_path):
    out = tmp_path / "run"
    rc = cli.main(
        [
            "solve",
            "--problem",
            "standing-wave",
            "--mesh-n",
            "4",
            "--steps",
            "4",
            "--T",
            "0.2",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    assert (out / "resolved_config.txt").exists()
    assert (out / "manifest.txt").exists()
    traj_dir = out / "trajectory"
    assert (traj_dir / "grid.csv").exists()
    assert (traj_dir / "state_0.bin").exists()
    assert (traj_dir / "state_4.bin").exists()
    manifest = (out / "manifest.txt").read_text()
    assert "config_sha256 = " in manifest
    assert "numpy = " in manifest


def test_estimate_writes_report_and_is_deterministic(tmp_path):
    args = [
        "estimate",
        "--problem",
        "standing-wave",
        "--mesh-n",
        "4",
        "--steps",
        "4",
        "--T",
        "0.2",
    ]
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert cli.main(args + ["--out", str(out)]) == 0
        outs.append(out)
    for fname in ("report.csv", "cells_final.csv"):
        a = (outs[0] / fname).read_bytes()
        b = (outs[1] / fname).read_bytes()
        assert a == b
        assert len(a) > 0
    header = (outs[0] / "report.csv").read_text().splitlines()[0]
    assert header.startswith("n,t_n,")
    assert "eff_u" in header


def test_temporal_study_command(tmp_path):
    out = tmp_path / "study"
    rc = cli.main(
        [
            "study",
            "--problem",
            "standing-wave",
            "--study",
            "temporal",
            "--mesh-n",
            "4",
            "--levels",
            "4,8,16",
            "--T",
            "0.4",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    lines = (out / "study.csv").read_text().strip().splitlines()
    assert lines[0].startswith("level,h,k,err_u,")
    assert len(lines) == 4


def test_oracle_check_command(tmp_path):
    out = tmp_path / "oracle"
    rc = cli.main(["oracle-check", "--out", str(out)])
    assert rc == 0
    text = (out / "oracle_check.txt").read_text()
    assert "all oracle checks passed" in text


def test_numerical_error_exit_code(tmp_path, capsys):
    # a one-cell run cannot represent the problem data but should fail
    # through the numerical-error path, not crash
    out = tmp_path / "o"
    rc = cli.main(
        [
            "estimate",
            "--problem",
            "standing-wave",
            "--mesh-files",
            str(tmp_path / "missing.node"),
            str(tmp_path / "missing.ele"),
            "--out",
            str(out),
        ]
    )
    assert rc == 2
    assert "missing.node" in capsys.readouterr().err


@pytest.mark.parametrize("token", [True, False], ids=["bad-token", "directory"])
def test_unreadable_mesh_file_is_a_config_error(tmp_path, capsys, token):
    node, ele = tmp_path / "a.node", tmp_path / "b.ele"
    node.write_text("4 2\n0 0\n1 0\n1 1\n0 1\n")
    if token:
        ele.write_text("2 3\n0 1 2\n0 2 q\n")
    else:
        ele.mkdir()
    rc = cli.main(
        [
            "estimate",
            "--problem",
            "standing-wave",
            "--mesh-files",
            str(node),
            str(ele),
            "--out",
            str(tmp_path / "o"),
        ]
    )
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("config-error:")
    assert ("b.ele, line 3" if token else "b.ele") in err
