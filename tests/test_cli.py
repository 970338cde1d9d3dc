import configparser
import os
import subprocess
import sys
from pathlib import Path

import pytest

from nprl import cli
from nprl.errors import ConfigError

SMALL_OVERRIDES = [
    "generator.n_patients=30",
    "generator.missing_rate=0.0",
    "model.gru_hidden=4",
    "model.trunk_widths=8",
    "pretrain.epochs=2",
    "finetune.epochs=2",
    "baseline.epochs=2",
    "eval.k_folds=3",
    "eval.resample_target=60",
    "theory.max_instances=60",
    "theory.pretrain_epochs=2",
    "theory.finetune_epochs=2",
    "theory.n_probes=2",
    "theory.n_pairs=300",
]


def run_cli(args, out_dir):
    return cli.main(args + ["--out", str(out_dir)])


def set_args(overrides):
    out = []
    for item in overrides:
        out.extend(["--set", item])
    return out


class TestRunConfig:
    def test_defaults_cover_every_section(self):
        cfg = cli.RunConfig.load(None, [])
        assert set(cfg.values) == set(cli.DEFAULTS)

    def test_shipped_default_file_matches_builtins(self):
        repo_config = Path(__file__).resolve().parents[1] / "configs" / "default.ini"
        # A key left out of the file silently takes its builtin value, so the
        # file must name every key for drift on any of them to show.
        parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
        with open(repo_config) as fh:
            parser.read_file(fh)
        missing = [
            f"{section}.{key}"
            for section, keys in cli.DEFAULTS.items()
            for key in keys
            if not parser.has_option(section, key)
        ]
        assert missing == []
        cfg = cli.RunConfig.load(str(repo_config), [])
        drifted = [
            f"{section}.{key}: file={cfg.values[section][key]!r} builtin={value!r}"
            for section, keys in cli.DEFAULTS.items()
            for key, value in keys.items()
            if cfg.values[section][key] != value
        ]
        assert drifted == []
        assert cfg.values == cli.DEFAULTS

    def test_override_applies(self):
        cfg = cli.RunConfig.load(None, ["run.seed=99"])
        assert cfg.get_int("run", "seed") == 99

    def test_unknown_override_rejected(self):
        with pytest.raises(ConfigError):
            cli.RunConfig.load(None, ["run.nonsense=1"])

    def test_malformed_override_rejected(self):
        with pytest.raises(ConfigError):
            cli.RunConfig.load(None, ["run.seed"])

    def test_unknown_config_key_rejected(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[run]\nbogus = 1\n")
        with pytest.raises(ConfigError):
            cli.RunConfig.load(str(path), [])

    def test_hash_changes_with_values(self):
        a = cli.RunConfig.load(None, [])
        b = cli.RunConfig.load(None, ["run.seed=8"])
        assert a.config_hash() != b.config_hash()

    def test_hash_ignores_execution_only_keys(self):
        a = cli.RunConfig.load(None, [])
        b = cli.RunConfig.load(None, ["run.workers=4", "run.out=elsewhere"])
        assert a.config_hash() == b.config_hash()


class TestCommands:
    def test_unknown_command_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["juggle"])
        assert exc.value.code != 0
        assert "usage" in capsys.readouterr().err.lower()

    def test_unknown_flag_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["gen", "--frobnicate"])
        assert exc.value.code != 0
        assert "usage" in capsys.readouterr().err.lower()

    def test_eval_without_inputs_fails_cleanly(self, tmp_path, capsys):
        code = run_cli(["eval"] + set_args(SMALL_OVERRIDES), tmp_path)
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_gen_extract_outputs(self, tmp_path):
        code = run_cli(["gen"] + set_args(SMALL_OVERRIDES), tmp_path)
        assert code == 0
        run_dirs = list(tmp_path.iterdir())
        assert len(run_dirs) == 1
        assert (run_dirs[0] / "cohort" / "patients.csv").exists()
        code = run_cli(["extract"] + set_args(SMALL_OVERRIDES), tmp_path)
        assert code == 0
        assert (run_dirs[0] / "instances.csv").exists()
        assert (run_dirs[0] / "instances.schema.txt").exists()

    def test_header_comment_embeds_hash_and_seed(self, tmp_path):
        run_cli(["gen"] + set_args(SMALL_OVERRIDES), tmp_path)
        run_dir = next(tmp_path.iterdir())
        first = (run_dir / "cohort" / "patients.csv").read_text().splitlines()[0]
        cfg = cli.RunConfig.load(None, SMALL_OVERRIDES)
        assert first == f"# config_hash={cfg.config_hash()} seed=7"

    def test_all_produces_reports_and_is_rerun_identical(self, tmp_path):
        args = ["all"] + set_args(SMALL_OVERRIDES)
        assert run_cli(args, tmp_path) == 0
        run_dir = next(tmp_path.iterdir())
        for name in ("report.csv", "roc.txt", "theory_report.txt"):
            assert (run_dir / name).exists(), name
        snapshots = {
            name: (run_dir / name).read_bytes()
            for name in ("report.csv", "roc.txt", "theory_report.txt", "instances.csv")
        }
        assert run_cli(args, tmp_path) == 0
        for name, blob in snapshots.items():
            assert (run_dir / name).read_bytes() == blob, f"{name} changed between reruns"

    def test_eval_with_workers_reuses_serial_extract(self, tmp_path):
        args = set_args(SMALL_OVERRIDES)
        for command in ("gen", "extract", "eval"):
            assert run_cli([command] + args, tmp_path) == 0
        (run_dir,) = tmp_path.iterdir()
        serial = {name: (run_dir / name).read_bytes() for name in ("report.csv", "roc.txt")}
        assert run_cli(["eval", "--workers", "2"] + args, tmp_path) == 0
        assert [p.name for p in tmp_path.iterdir()] == [run_dir.name]
        for name, blob in serial.items():
            assert (run_dir / name).read_bytes() == blob, f"{name} differs under --workers 2"

    def test_env_output_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv("NPRL_OUT", str(tmp_path / "envroot"))
        assert cli.main(["gen"] + set_args(SMALL_OVERRIDES)) == 0
        assert (tmp_path / "envroot").exists()

    def test_console_entry_point(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "nprl", "gen", "--out", str(tmp_path)]
            + set_args(SMALL_OVERRIDES),
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
