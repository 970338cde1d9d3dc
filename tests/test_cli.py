import inspect
import subprocess
import sys
from dataclasses import MISSING, fields, is_dataclass
from pathlib import Path

import pytest

from nprl import cli
from nprl import evaluation as E
from nprl import pipeline as P
from nprl import theory as TH
from nprl import train as T
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


def snapshot(run_dir: Path, *names: str) -> dict[str, bytes]:
    """The bytes of each named file under ``run_dir`` and of every file under
    its ``logs/``, by path relative to ``run_dir``."""
    paths = [run_dir / name for name in names] + sorted(p for p in (run_dir / "logs").rglob("*") if p.is_file())
    return {p.relative_to(run_dir).as_posix(): p.read_bytes() for p in paths}


def run_cli(args, out_dir):
    return cli.main(args + ["--out", str(out_dir)])


def set_args(overrides):
    out = []
    for item in overrides:
        out.extend(["--set", item])
    return out


# stage-function parameters that take a config key's value or a seed
CALLER_SET_PARAMETERS = [
    (E.confusion, ("threshold",)),
    (E.score, ("threshold",)),
    (E.aggregate, ("threshold",)),
    (P.stratified_kfold, ("k", "seed")),
    (P.resample_training, ("target", "seed")),
    (P.undersample_negatives, ("target", "seed")),
    (T.class_balanced_weights, ("scheme",)),
    (TH.check_theorem1, ("n_pairs", "seed")),
    (TH.check_corollary1, ("tol",)),
    (E.cross_validate, ("n_workers",)),
]


class TestRunConfig:
    def test_defaults_cover_every_section(self):
        cfg = cli.RunConfig.load(None, [])
        assert set(cfg.values) == set(cli.DEFAULTS)

    def test_config_hash_is_stable(self):
        # The hash names the run directory and heads every artifact, so a
        # change to it, or to a built-in default, changes every run's bytes.
        theory_set = Path(__file__).resolve().parents[1] / "configs" / "theory_set.ini"
        assert cli.RunConfig.load(None, []).config_hash() == (
            "78013c200e382430b592f31bf427c0c49f76ea11ba90d0f17116f5c2d636359e"
        )
        assert cli.RunConfig.load(str(theory_set), []).config_hash() == (
            "7b47dbe4b0848e1c5d0ef18cbbce4e178283b01bea3ac7ba35889aeedd6f38d4"
        )

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

    def test_config_file_keys_are_case_sensitive(self, tmp_path):
        # as in --set: a key that differs from a known one only in case is unknown
        path = tmp_path / "run.ini"
        path.write_text("[run]\nSeed = 8\n")
        with pytest.raises(ConfigError, match=r"run\.ini: run\.Seed: unknown key$"):
            cli.RunConfig.load(str(path), [])

    def test_override_keys_are_case_sensitive(self):
        with pytest.raises(ConfigError, match=r"^unknown override target run\.Seed$"):
            cli.RunConfig.load(None, ["run.Seed=8"])

    @pytest.mark.parametrize(
        "override, message",
        [
            ("generator.ar_coeff=1.5", "generator.ar_coeff: must be in (-1, 1), got 1.5"),
            ("generator.noise_mult=-2", "generator.noise_mult: must be >= 0, got -2.0"),
        ],
    )
    def test_non_stationary_generator_rejected(self, override, message):
        with pytest.raises(ConfigError) as exc:
            cli.RunConfig.load(None, [override])
        assert str(exc.value) == message

    @pytest.mark.parametrize("value", ["runs%1", "r-%(seed)s"])
    def test_config_file_values_are_not_interpolated(self, tmp_path, value):
        path = tmp_path / "run.ini"
        path.write_text(f"[run]\nout = {value}\n")
        from_file = cli.RunConfig.load(str(path), [])
        from_set = cli.RunConfig.load(None, [f"run.out={value}"])
        assert from_file.get("run", "out") == from_set.get("run", "out") == value

    def test_default_section_rejected(self, tmp_path):  # its keys were silently dropped
        path = tmp_path / "bad.ini"
        path.write_text("[DEFAULT]\nseed = 8\n")
        with pytest.raises(ConfigError, match=r"bad\.ini: a \[DEFAULT\] section is not allowed"):
            cli.RunConfig.load(str(path), [])

    def test_bound_configs_declare_no_defaults(self):
        # cli.DEFAULTS is the one copy of the defaults: a field default of a
        # dataclass that RunConfig binds would be a second one
        cfg = cli.RunConfig.load(None, [])
        bound, todo = set(), [cfg.generator, cfg.arm_configs, cfg.theory]
        while todo:
            config = todo.pop()
            bound.add(type(config))
            todo += [getattr(config, f.name) for f in fields(config) if is_dataclass(getattr(config, f.name))]
        assert {cls.__name__ for cls in bound} == {
            "GeneratorConfig", "ModelConfig", "Schedule", "FinetuneConfig", "ArmConfigs", "TheoryConfig"
        }
        defaulted = [
            f"{cls.__name__}.{f.name}"
            for cls in bound
            for f in fields(cls)
            if f.init and (f.default is not MISSING or f.default_factory is not MISSING)
        ]
        assert defaulted == []

    @pytest.mark.parametrize(
        "function, names", CALLER_SET_PARAMETERS, ids=[f.__name__ for f, _ in CALLER_SET_PARAMETERS]
    )
    def test_stage_functions_take_config_values_and_seeds_without_defaults(self, function, names):
        # a default would repeat DEFAULTS or hide a seed
        parameters = inspect.signature(function).parameters
        assert [n for n in names if parameters[n].default is not inspect.Parameter.empty] == []

    def test_hash_changes_with_values(self):
        a = cli.RunConfig.load(None, [])
        b = cli.RunConfig.load(None, ["run.seed=8"])
        assert a.config_hash() != b.config_hash()

    def test_hash_ignores_execution_only_keys(self):
        a = cli.RunConfig.load(None, [])
        b = cli.RunConfig.load(None, ["run.workers=4", "run.out=elsewhere"])
        assert a.config_hash() == b.config_hash()

    def test_seed_and_workers_flags_are_overrides(self, monkeypatch):
        loaded = []

        class Recorder:
            def __init__(self, cfg, out_root):
                loaded.append(cfg)

            def cmd_gen(self):
                pass

        monkeypatch.setattr(cli, "Runner", Recorder)
        assert cli.main(["gen", "--seed", "8", "--workers", "2"]) == 0
        assert cli.main(["gen", "--set", "run.seed=8", "--set", "run.workers=2"]) == 0
        assert cli.main(["gen", "--set", "run.seed=9", "--seed", "8", "--workers", "2"]) == 0
        flags, sets, both = loaded
        assert flags.values == sets.values == both.values
        assert flags.config_hash() == sets.config_hash() == both.config_hash()
        assert (flags.seed, flags.workers) == (8, 2)


# Each bad value, as `--set` items or flags, and the key its error must name.
BAD_VALUES = [
    (["generator.ar_coeff=x"], "generator.ar_coeff"),
    (["generator.ar_coeff=1.5"], "generator.ar_coeff"),
    (["generator.noise_mult=-2"], "generator.noise_mult"),
    (["generator.onset_day_min=30"], "generator.onset_day_min"),
    (["generator.los_day_min=10", "generator.los_day_max=6"], "generator.los_day_min"),
    (["generator.los_day_max=4"], "generator.los_day_min"),
    (["generator.onset_day_max=2"], "generator.onset_day_min"),
    (["generator.n_patients=3_0"], "generator.n_patients"),
    (["eval.resample_target=0"], "eval.resample_target"),
    (["theory.n_pairs=0"], "theory.n_pairs"),
    (["eval.threshold=nan"], "eval.threshold"),
    (["eval.threshold=inf"], "eval.threshold"),
    (["finetune.lambda=-1"], "finetune.lambda"),
    (["eval.arms=baseline,baseline"], "eval.arms"),
    (["eval.arms=foo"], "eval.arms"),
    (["eval.weight_scheme=bogus"], "eval.weight_scheme"),
    (["eval.k_folds=1"], "eval.k_folds"),
    (["finetune.mode=projected", "finetune.gamma=0"], "finetune.gamma"),
    (["theory.safety=0.5"], "theory.safety"),
    (["theory.max_instances=1"], "theory.max_instances"),
    (["features.subsets=9"], "features.subsets"),
    (["model.normalize_representation=maybe"], "model.normalize_representation"),
    (["--workers", "0"], "run.workers"),
    (["features.subsets=1,2,3", "model.static_widths="], "model.static_widths"),
    (["features.subsets=1,2,3", "theory.static_widths="], "theory.static_widths"),
]


def assert_one_error_line_before_any_work(args, tmp_path, capsys, key):
    assert run_cli(["all"] + set_args(SMALL_OVERRIDES) + args, tmp_path) == 1
    out = capsys.readouterr()
    assert out.err.startswith(f"error: {key}: ") and out.err.count("\n") == 1, out.err
    assert "Traceback" not in out.err and out.out == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("bad, key", BAD_VALUES, ids=[" ".join(bad) for bad, _ in BAD_VALUES])
def test_bad_config_value_is_one_error_line_before_any_work(tmp_path, capsys, bad, key):
    extra = bad if bad[0].startswith("--") else set_args(bad)
    assert_one_error_line_before_any_work(extra, tmp_path, capsys, key)


# Every key but run.out, whose value is any path, must reject "x": a key that
# accepts it is read by nothing or checked by nothing.
CHECKED_KEYS = [
    f"{section}.{key}" for section, keys in cli.DEFAULTS.items() for key in keys if (section, key) != ("run", "out")
]


@pytest.mark.parametrize("key", CHECKED_KEYS)
def test_no_key_is_silently_unread(tmp_path, capsys, key):
    assert_one_error_line_before_any_work(["--set", f"{key}=x"], tmp_path, capsys, key)


@pytest.mark.parametrize("kind", ["not_utf8", "directory", "missing", "no_section_header"])
def test_unreadable_config_file_is_one_error_line(tmp_path, capsys, kind):
    path = tmp_path / "run.ini"
    if kind == "not_utf8":
        path.write_bytes(b"[run]\nout = \xff\n")
    elif kind == "directory":
        path.mkdir()
    elif kind == "no_section_header":  # configparser's message spans three lines
        path.write_text("seed = 8\n")
    assert cli.main(["gen", "--config", str(path), "--out", str(tmp_path / "runs")]) == 1
    out = capsys.readouterr()
    assert out.err.startswith(f"error: {path}: ") and out.err.count("\n") == 1, out.err
    assert "Traceback" not in out.err and out.out == ""
    assert not (tmp_path / "runs").exists()


class TestCommands:
    def test_unknown_command_usage_error(self, capsys):
        for command in ("juggle", "pretrain", "train"):  # the last two were commands once
            with pytest.raises(SystemExit) as exc:
                cli.main([command])
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

    @pytest.mark.parametrize("command", ["eval", "theory"])
    def test_missing_instances_hints_at_gen_and_extract(self, tmp_path, capsys, command):
        assert run_cli([command] + set_args(SMALL_OVERRIDES), tmp_path) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "instances.csv: cannot read: " in err
        assert err.rstrip().endswith("; run `nprl gen` and `nprl extract` first"), err
        assert "Traceback" not in err

    def test_missing_cohort_hints_at_gen(self, tmp_path, capsys):
        assert run_cli(["extract"] + set_args(SMALL_OVERRIDES), tmp_path) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "cohort/patients.csv: cannot read: " in err
        assert err.rstrip().endswith("; run `nprl gen` first"), err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["extract", "eval", "theory"])
    def test_failed_command_leaves_no_run_directory(self, tmp_path, command):
        # the run directory is made by a command's first write, so a command
        # that fails on its missing input leaves the output root empty
        assert run_cli([command] + set_args(SMALL_OVERRIDES), tmp_path) == 1
        assert list(tmp_path.iterdir()) == []

    def test_stages_on_in_memory_data_make_the_run_directory(self, tmp_path):
        cfg = cli.RunConfig.load(None, SMALL_OVERRIDES)
        records = cli.generate_cohort(cfg.generator, 3)
        data = P.select_features(P.extract_instances(records), P.full_schema(), cfg.subsets)
        written = {"cmd_extract": "instances.csv", "cmd_eval": "report.csv", "cmd_theory": "theory_report.txt"}
        for command, name in written.items():
            runner = cli.Runner(cfg, str(tmp_path / command))
            getattr(runner, command)(records if command == "cmd_extract" else data)
            assert (runner.run_dir / name).is_file(), command

    def test_unreadable_instances_keeps_its_own_error(self, tmp_path, capsys):
        args = set_args(SMALL_OVERRIDES)
        for command in ("gen", "extract"):
            assert run_cli([command] + args, tmp_path) == 0
        (run_dir,) = tmp_path.iterdir()
        (run_dir / "instances.schema.txt").unlink()
        assert run_cli(["eval"] + args, tmp_path) == 1
        err = capsys.readouterr().err
        assert "instances.schema.txt: cannot read: " in err and "nprl gen" not in err, err

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
        names = ("report.csv", "roc.txt", "theory_report.txt", "instances.csv")
        snapshots = snapshot(run_dir, *names)
        for name in snapshots:
            (run_dir / name).unlink()  # so the rerun writes every file compared below
        assert run_cli(args, tmp_path) == 0
        rerun = snapshot(run_dir, *names)
        assert rerun.keys() == snapshots.keys()
        for name, blob in snapshots.items():
            assert rerun[name] == blob, f"{name} changed between reruns"

    def test_eval_with_workers_reuses_serial_extract(self, tmp_path):
        args = set_args(SMALL_OVERRIDES)
        for command in ("gen", "extract", "eval"):
            assert run_cli([command] + args, tmp_path) == 0
        (run_dir,) = tmp_path.iterdir()
        serial = snapshot(run_dir, "report.csv", "roc.txt")
        for name in serial:
            (run_dir / name).unlink()  # so --workers 2 writes every file compared below
        assert run_cli(["eval", "--workers", "2"] + args, tmp_path) == 0
        assert [p.name for p in tmp_path.iterdir()] == [run_dir.name]
        pooled = snapshot(run_dir, "report.csv", "roc.txt")
        assert pooled.keys() == serial.keys()
        for name, blob in serial.items():
            assert pooled[name] == blob, f"{name} differs under --workers 2"

    def test_eval_writes_one_training_log_per_fold(self, tmp_path):
        # distinct epoch counts tell the three schedules apart
        epochs = {"pretrain": 3, "finetune": 1, "baseline": 2}
        overrides = SMALL_OVERRIDES + [f"{section}.epochs={n}" for section, n in epochs.items()]
        for command in ("gen", "extract", "eval"):
            assert run_cli([command] + set_args(overrides), tmp_path) == 0
        (run_dir,) = tmp_path.iterdir()
        logs = {name: blob.decode().splitlines() for name, blob in snapshot(run_dir).items()}
        schedules = {f"logs/{arm}/fold{k}.csv": "baseline" for arm in E.ARMS for k in range(3)}
        schedules |= {f"logs/nprl/fold{k}.csv": "finetune" for k in range(3)}
        schedules |= {f"logs/nprl/fold{k}_pretrain.csv": "pretrain" for k in range(3)}
        assert logs.keys() == schedules.keys()
        header = f"# config_hash={cli.RunConfig.load(None, overrides).config_hash()} seed=7"
        for name, schedule in schedules.items():
            assert logs[name][:2] == [header, "epoch,loss,acc,frob_dist"], name
            assert len(logs[name]) - 2 == epochs[schedule], name

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

    def test_import_leaves_the_process_pool_out(self):
        # only eval with more than one worker starts a process pool, so no
        # other command pays for importing its module when it starts
        code = "import sys, nprl.cli; print('concurrent.futures.process' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"
