"""Config-driven orchestration: generate a cohort, extract instances, train
the comparison arms under cross-validation, and run the geometry checks.

Configuration is flat INI (section.key = value). Every value has a built-in
default; a config file and repeatable ``--set section.key=value`` overrides
layer on top. Each run writes its artifacts under ``<out>/run-<seed>-<hash>``,
where the hash covers the fully resolved configuration, and every text output
starts with a comment line embedding that hash and the master seed, so rerun
outputs are byte-identical.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import os
import sys
from dataclasses import replace
from pathlib import Path

from . import evaluation as E
from . import pipeline as P
from . import theory as TH
from . import train as T
from .cohort import GeneratorConfig, VitalParams, default_vitals, generate_cohort, read_cohort, write_cohort
from .errors import ConfigError, NprlError
from .model import ModelConfig, replace_head, save_checkpoint
from .util import derive_rng, derive_seed

COMMANDS = ("gen", "extract", "pretrain", "train", "eval", "theory", "all")

DEFAULTS: dict[str, dict[str, str]] = {
    "run": {"seed": "7", "out": "", "workers": "1"},
    "generator": {
        "n_patients": "500",
        "sepsis_fraction": "0.17",
        "missing_rate": "0.05",
        "onset_day_min": "3",
        "onset_day_max": "14",
        "los_day_min": "5",
        "los_day_max": "20",
        "drift_heart_rate": "20.0",
        "drift_temperature": "1.2",
        "drift_resp_rate": "6.0",
        "ar_coeff": "",  # empty keeps the per-vital defaults
        "noise_mult": "1.0",
    },
    "features": {"subsets": "1,3"},
    "model": {
        "gru_hidden": "32",
        "static_widths": "16,8,1",
        "trunk_widths": "64",
        "normalize_representation": "false",
    },
    "pretrain": {"epochs": "30", "batch_size": "64", "learning_rate": "0.001"},
    "finetune": {
        "mode": "regularized",
        "lambda": "0.01",
        "gamma": "0.0",
        "learning_rate": "0.0001",
        "epochs": "15",
        "batch_size": "64",
        "loss": "plain",
        "resample": "true",
    },
    "baseline": {"epochs": "15", "batch_size": "64", "learning_rate": "0.001"},
    "eval": {
        "k_folds": "5",
        "threshold": "0.5",
        "resample_target": "2600",
        "arms": "baseline,nprl,class_balanced,class_balanced_undersampled",
        "weight_scheme": "inverse_frequency",
        "effective_beta": "0.999",
    },
    "theory": {
        "gru_hidden": "32",
        "static_widths": "16",
        "max_instances": "500",
        "pretrain_epochs": "800",
        "pretrain_batch_size": "32",
        "pretrain_learning_rate": "0.003",
        "finetune_epochs": "15",
        "finetune_learning_rate": "0.0001",
        "n_probes": "8",
        "probe_scale": "0.001",
        "safety": "2.0",
        "n_pairs": "10000",
        "corollary_tol": "0.02",
    },
}


# Keys that change how a run executes but not what it computes.
EXECUTION_ONLY = frozenset({("run", "workers"), ("run", "out")})


class RunConfig:
    """Resolved configuration: defaults, then file, then --set overrides."""

    def __init__(self, values: dict[str, dict[str, str]]):
        self.values = values

    @classmethod
    def load(cls, config_path: str | None, overrides: list[str]) -> "RunConfig":
        values = {section: dict(keys) for section, keys in DEFAULTS.items()}
        if config_path:
            parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
            try:
                with open(config_path) as fh:
                    parser.read_file(fh)
            except FileNotFoundError:
                raise ConfigError(f"config file not found: {config_path}")
            except configparser.Error as exc:
                raise ConfigError(f"cannot parse {config_path}: {exc}")
            for section in parser.sections():
                if section not in values:
                    raise ConfigError(f"{config_path}: unknown section [{section}]")
                for key, value in parser.items(section):
                    if key not in values[section]:
                        raise ConfigError(f"{config_path}: unknown key {section}.{key}")
                    values[section][key] = value.strip()
        for item in overrides:
            if "=" not in item or "." not in item.split("=", 1)[0]:
                raise ConfigError(f"override must look like section.key=value, got {item!r}")
            dotted, value = item.split("=", 1)
            section, key = dotted.split(".", 1)
            if section not in values or key not in values[section]:
                raise ConfigError(f"unknown override target {section}.{key}")
            values[section][key] = value.strip()
        return cls(values)

    def get(self, section: str, key: str) -> str:
        return self.values[section][key]

    def get_int(self, section: str, key: str) -> int:
        try:
            return int(self.get(section, key))
        except ValueError:
            raise ConfigError(f"{section}.{key} must be an integer, got {self.get(section, key)!r}")

    def get_float(self, section: str, key: str) -> float:
        try:
            return float(self.get(section, key))
        except ValueError:
            raise ConfigError(f"{section}.{key} must be a number, got {self.get(section, key)!r}")

    def get_bool(self, section: str, key: str) -> bool:
        raw = self.get(section, key).lower()
        if raw in ("true", "1", "yes", "on"):
            return True
        if raw in ("false", "0", "no", "off"):
            return False
        raise ConfigError(f"{section}.{key} must be a boolean, got {raw!r}")

    def get_ints(self, section: str, key: str) -> tuple[int, ...]:
        raw = self.get(section, key).strip()
        if not raw:
            return ()
        try:
            return tuple(int(v) for v in raw.split(","))
        except ValueError:
            raise ConfigError(f"{section}.{key} must be a comma list of integers, got {raw!r}")

    def config_hash(self) -> str:
        """Hash of every key that can change an artifact; execution-only keys
        (worker count, output root) stay out so they never move the run
        directory or the header line."""
        canon = "\n".join(
            f"{section}.{key}={self.values[section][key]}"
            for section in sorted(self.values)
            for key in sorted(self.values[section])
            if (section, key) not in EXECUTION_ONLY
        )
        return hashlib.sha256(canon.encode()).hexdigest()


def _generator_config(cfg: RunConfig) -> GeneratorConfig:
    vitals = default_vitals()
    vitals["heart_rate"] = replace(vitals["heart_rate"], onset_drift=cfg.get_float("generator", "drift_heart_rate"))
    vitals["temperature"] = replace(vitals["temperature"], onset_drift=cfg.get_float("generator", "drift_temperature"))
    vitals["resp_rate"] = replace(vitals["resp_rate"], onset_drift=cfg.get_float("generator", "drift_resp_rate"))
    noise_mult = cfg.get_float("generator", "noise_mult")
    ar_raw = cfg.get("generator", "ar_coeff").strip()
    if ar_raw or noise_mult != 1.0:
        for name, vp in vitals.items():
            vitals[name] = replace(
                vp,
                ar_coeff=float(ar_raw) if ar_raw else vp.ar_coeff,
                noise_scale=vp.noise_scale * noise_mult,
            )
    return GeneratorConfig(
        n_patients=cfg.get_int("generator", "n_patients"),
        sepsis_fraction=cfg.get_float("generator", "sepsis_fraction"),
        missing_rate=cfg.get_float("generator", "missing_rate"),
        onset_day_range=(cfg.get_int("generator", "onset_day_min"), cfg.get_int("generator", "onset_day_max")),
        los_day_range=(cfg.get_int("generator", "los_day_min"), cfg.get_int("generator", "los_day_max")),
        seed=derive_seed(cfg.get_int("run", "seed"), "generator"),
        vitals=vitals,
    )


def _model_config(cfg: RunConfig, head_classes: int = 2) -> ModelConfig:
    return ModelConfig(
        gru_hidden=cfg.get_int("model", "gru_hidden"),
        static_widths=cfg.get_ints("model", "static_widths"),
        trunk_widths=cfg.get_ints("model", "trunk_widths"),
        head_classes=head_classes,
        normalize_representation=cfg.get_bool("model", "normalize_representation"),
    )


def _pretrain_config(cfg: RunConfig, seed: int) -> T.PretrainConfig:
    return T.PretrainConfig(
        epochs=cfg.get_int("pretrain", "epochs"),
        batch_size=cfg.get_int("pretrain", "batch_size"),
        learning_rate=cfg.get_float("pretrain", "learning_rate"),
        seed=seed,
    )


def _finetune_config(cfg: RunConfig, seed: int) -> T.FinetuneConfig:
    return T.FinetuneConfig(
        mode=cfg.get("finetune", "mode"),
        lam=cfg.get_float("finetune", "lambda"),
        gamma=cfg.get_float("finetune", "gamma"),
        learning_rate=cfg.get_float("finetune", "learning_rate"),
        epochs=cfg.get_int("finetune", "epochs"),
        batch_size=cfg.get_int("finetune", "batch_size"),
        seed=seed,
        loss=cfg.get("finetune", "loss"),
        resample=cfg.get_bool("finetune", "resample"),
    )


def _baseline_config(cfg: RunConfig, seed: int) -> T.BaselineConfig:
    return T.BaselineConfig(
        epochs=cfg.get_int("baseline", "epochs"),
        batch_size=cfg.get_int("baseline", "batch_size"),
        learning_rate=cfg.get_float("baseline", "learning_rate"),
        seed=seed,
    )


def _arm_configs(cfg: RunConfig) -> E.ArmConfigs:
    return E.ArmConfigs(
        model=_model_config(cfg),
        pretrain=_pretrain_config(cfg, 0),
        finetune=_finetune_config(cfg, 0),
        baseline=_baseline_config(cfg, 0),
        resample_target=cfg.get_int("eval", "resample_target"),
        threshold=cfg.get_float("eval", "threshold"),
        weight_scheme=cfg.get("eval", "weight_scheme"),
        effective_beta=cfg.get_float("eval", "effective_beta"),
    )


def _theory_config(cfg: RunConfig) -> TH.TheoryConfig:
    model = ModelConfig(
        gru_hidden=cfg.get_int("theory", "gru_hidden"),
        static_widths=cfg.get_ints("theory", "static_widths"),
        trunk_widths=(),  # the head reads the representation directly here
        head_classes=2,
        normalize_representation=True,
    )
    return TH.TheoryConfig(
        model=model,
        pretrain=T.PretrainConfig(
            epochs=cfg.get_int("theory", "pretrain_epochs"),
            batch_size=cfg.get_int("theory", "pretrain_batch_size"),
            learning_rate=cfg.get_float("theory", "pretrain_learning_rate"),
        ),
        finetune=T.FinetuneConfig(
            mode="projected",
            gamma=1.0,  # placeholder, the protocol sets the real radius
            learning_rate=cfg.get_float("theory", "finetune_learning_rate"),
            epochs=cfg.get_int("theory", "finetune_epochs"),
            batch_size=cfg.get_int("finetune", "batch_size"),
        ),
        n_probes=cfg.get_int("theory", "n_probes"),
        probe_scale=cfg.get_float("theory", "probe_scale"),
        safety=cfg.get_float("theory", "safety"),
        n_pairs=cfg.get_int("theory", "n_pairs"),
        corollary_tol=cfg.get_float("theory", "corollary_tol"),
    )


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


class Runner:
    def __init__(self, cfg: RunConfig, out_root: str | None):
        self.cfg = cfg
        self.seed = cfg.get_int("run", "seed")
        root = out_root or cfg.get("run", "out") or os.environ.get("NPRL_OUT") or "runs"
        self.run_dir = Path(root) / f"run-{self.seed}-{cfg.config_hash()[:8]}"
        self.run_dir.mkdir(parents=True, exist_ok=True)
        self.header = f"config_hash={cfg.config_hash()} seed={self.seed}"

    def log(self, message: str) -> None:
        print(f"[nprl] {message}")

    def cmd_gen(self) -> list:
        records = generate_cohort(_generator_config(self.cfg))
        write_cohort(records, self.run_dir / "cohort", header_comment=self.header)
        self.log(f"wrote cohort of {len(records)} patients to {self.run_dir / 'cohort'}")
        return records

    def cmd_extract(self, records=None):
        records = records if records is not None else read_cohort(self.run_dir / "cohort")
        instances = P.extract_instances(records)
        subsets = set(self.cfg.get_ints("features", "subsets"))
        instances, schema = P.select_features(instances, P.full_schema(), subsets)
        P.write_instances(
            instances,
            schema,
            self.run_dir / "instances.csv",
            self.run_dir / "instances.schema.txt",
            header_comment=self.header,
        )
        n_pos = sum(i.label for i in instances)
        self.log(f"extracted {len(instances)} instances ({n_pos} positive) -> instances.csv")
        return instances, schema

    def _load_instances(self):
        return P.read_instances(self.run_dir / "instances.csv", self.run_dir / "instances.schema.txt")

    def cmd_pretrain(self, data=None):
        instances, schema = data if data is not None else self._load_instances()
        scaled = P.apply_minmax(instances, P.fit_minmax(instances))
        profiles = T.strip_labels(scaled)
        params, log = T.nprl_pretrain(
            profiles, _model_config(self.cfg), schema, _pretrain_config(self.cfg, derive_seed(self.seed, "pretrain"))
        )
        save_checkpoint(params, self.run_dir / "pretrain.ckpt")
        log.to_csv(self.run_dir / "pretrain_log.csv", header_comment=self.header)
        self.log(
            f"pretrained on {len(profiles)} profiles, final identification accuracy "
            f"{log.final_accuracy:.4f} -> pretrain.ckpt"
        )
        return params

    def cmd_train(self, data=None):
        instances, schema = data if data is not None else self._load_instances()
        scaled = P.apply_minmax(instances, P.fit_minmax(instances))
        data_set = P.resample_training(
            scaled, self.cfg.get_int("eval", "resample_target"), derive_seed(self.seed, "resample")
        )
        params, log = T.train_baseline(
            data_set,
            _model_config(self.cfg),
            schema,
            _baseline_config(self.cfg, derive_seed(self.seed, "train")),
        )
        save_checkpoint(params, self.run_dir / "model.ckpt")
        log.to_csv(self.run_dir / "train_log.csv", header_comment=self.header)
        self.log(f"trained baseline on {len(data_set)} instances -> model.ckpt")
        return params

    def cmd_eval(self, data=None, workers: int | None = None):
        instances, schema = data if data is not None else self._load_instances()
        split = P.stratified_kfold(
            instances, self.cfg.get_int("eval", "k_folds"), derive_seed(self.seed, "folds")
        )
        arms = [a.strip() for a in self.cfg.get("eval", "arms").split(",") if a.strip()]
        configs = _arm_configs(self.cfg)
        n_workers = workers if workers is not None else self.cfg.get_int("run", "workers")
        reports = {}
        for arm in arms:
            reports[arm] = E.cross_validate(
                instances, schema, split, arm, configs, self.seed, n_workers=n_workers
            )
            self.log(
                f"arm {arm}: pooled AUROC {reports[arm].pooled_auroc:.4f}, "
                f"sensitivity {reports[arm].pooled_sensitivity}, "
                f"specificity {reports[arm].pooled_specificity}"
            )
        E.emit_combined_report(
            reports, self.run_dir / "report.csv", self.run_dir / "roc.txt", header_comment=self.header
        )
        self.log(f"wrote report.csv and roc.txt under {self.run_dir}")
        return reports

    def cmd_theory(self, data=None):
        instances, schema = data if data is not None else self._load_instances()
        cap = self.cfg.get_int("theory", "max_instances")
        if len(instances) > cap:
            keep = derive_rng(self.seed, "theory_subset").choice(len(instances), size=cap, replace=False)
            instances = [instances[i] for i in sorted(keep)]
        scaled = P.apply_minmax(instances, P.fit_minmax(instances))
        report = TH.theory_protocol(scaled, schema, _theory_config(self.cfg), derive_seed(self.seed, "theory"))
        TH.write_theory_report(report, self.run_dir / "theory_report.txt", header_comment=self.header)
        self.log(
            f"theory: l_hat={report.l_hat:.4f} gamma={report.gamma:.6f} "
            f"violations={report.violations}/{report.pairs_checked} "
            f"m0={report.m0:.4f} m_star={report.m_star:.4f} bound_ok={report.bound_ok}"
        )
        return report

    def cmd_all(self, workers: int | None = None):
        records = self.cmd_gen()
        data = self.cmd_extract(records)
        self.cmd_eval(data, workers=workers)
        self.cmd_theory(data)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nprl",
        description="Nightly sepsis-onset prediction pipeline on synthetic cohorts.",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", default=None, help="INI config file path")
    parser.add_argument("--seed", type=int, default=None, help="master seed override")
    parser.add_argument("--out", default=None, help="output root (default $NPRL_OUT or ./runs)")
    parser.add_argument("--workers", type=int, default=None, help="fold worker processes")
    parser.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="SECTION.KEY=VALUE",
        help="config override, repeatable",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = RunConfig.load(args.config, args.overrides)
        if args.seed is not None:
            cfg.values["run"]["seed"] = str(args.seed)
        if args.workers is not None:
            cfg.values["run"]["workers"] = str(args.workers)
        runner = Runner(cfg, args.out)
        if args.command == "gen":
            runner.cmd_gen()
        elif args.command == "extract":
            runner.cmd_extract()
        elif args.command == "pretrain":
            runner.cmd_pretrain()
        elif args.command == "train":
            runner.cmd_train()
        elif args.command == "eval":
            runner.cmd_eval(workers=args.workers)
        elif args.command == "theory":
            runner.cmd_theory()
        elif args.command == "all":
            runner.cmd_all(workers=args.workers)
    except NprlError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
