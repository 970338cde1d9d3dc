"""Config-driven orchestration: generate a cohort, extract instances, train
the comparison arms under cross-validation, and run the geometry checks.

Configuration is flat INI (section.key = value). Every value has a built-in
default in ``DEFAULTS``, the only copy of the defaults, as the config
dataclasses declare none: a library caller gets the resolved defaults from
``RunConfig.load(None, [])``. A config file and repeatable ``--set
section.key=value`` overrides layer on top; loading checks every value before
any stage runs. Each run writes under ``<out>/run-<seed>-<hash>``, the hash
covering the fully resolved configuration, and every text output starts with
a comment line of that hash and the master seed, so reruns are byte-identical.
"""

from __future__ import annotations

import argparse
import configparser
import errno
import hashlib
import os
import sys
from dataclasses import fields
from pathlib import Path

from . import artifacts as A
from . import evaluation as E
from . import pipeline as P
from . import theory as TH
from . import train as T
from .cohort import GeneratorConfig, generate_cohort, read_cohort, write_cohort
from .errors import ConfigError, FieldError, FormatError, InputError, NprlError
from .model import ModelConfig
from .util import derive_rng, derive_seed

COMMANDS = ("gen", "extract", "eval", "theory", "all")

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
        # far above pretrain.epochs: accuracy saturates in ~30 epochs, but the representations
        # spread toward mutual orthogonality late in training, over thousands of steps
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


def _bool(raw: str) -> bool:
    if raw.lower() in ("true", "1", "yes", "on"):
        return True
    if raw.lower() in ("false", "0", "no", "off"):
        return False
    raise ValueError(raw)


# A config dataclass field's annotation -> the parser of its INI string, and
# what that string must be.
_PARSERS = {
    "int": (lambda raw: A.number(raw, int), "an integer"),
    "float": (A.number, "a finite number"),
    "float | None": (lambda raw: A.number(raw) if raw else None, "a finite number or empty"),
    "bool": (_bool, "a boolean"),
    "str": (str, "a string"),
    "tuple[int, ...]": (
        lambda raw: tuple(A.number(v, int) for v in raw.split(",")) if raw else (),
        "a comma list of integers",
    ),
    "tuple[str, ...]": (lambda raw: tuple(v.strip() for v in raw.split(",") if v.strip()), "a comma list"),
}

# The INI key of a field whose name differs from it: `lambda` is a Python keyword.
_KEYS = {"lam": "lambda"}


def _require(ok: bool, key: str, message: str) -> None:
    if not ok:
        raise ConfigError(f"{key}: {message}")


class RunConfig:
    """Resolved configuration: defaults, then file, then --set overrides.

    Building one parses and checks every value and builds every stage's
    config, so a bad value ends in ``ConfigError("<section>.<key>: ...")``
    before any stage runs or any run directory exists.
    """

    def __init__(self, values: dict[str, dict[str, str]]):
        self.values = values
        self.seed = self.get_int("run", "seed")
        self.workers = self.get_int("run", "workers")
        _require(self.workers >= 1, "run.workers", f"must be >= 1, got {self.workers}")
        self.generator = self.bind(GeneratorConfig, "generator")
        self.subsets = set(self.parse("features", "subsets", "tuple[int, ...]"))
        try:
            P.check_subsets(self.subsets)
        except InputError as exc:
            raise ConfigError(f"features.subsets: {exc}") from None
        self.arm_configs = self.bind(
            E.ArmConfigs,
            "eval",
            model=self.bind(ModelConfig, "model"),
            pretrain=self.bind(T.Schedule, "pretrain"),
            finetune=self.bind(T.FinetuneConfig, "finetune"),
            baseline=self.bind(T.Schedule, "baseline"),
        )
        self.theory = self.bind(
            TH.TheoryConfig,
            "theory",
            # the head reads the normalized representation directly here
            model=self.bind(ModelConfig, "theory", trunk_widths=(), normalize_representation=True),
            pretrain=self.bind(T.Schedule, "theory", prefix="pretrain_"),
            finetune=self.bind(
                T.Schedule, "theory", prefix="finetune_", batch_size=self.arm_configs.finetune.batch_size
            ),
        )
        for section, model in (("model", self.arm_configs.model), ("theory", self.theory.model)):
            missing = 2 in self.subsets and not model.static_widths
            _require(not missing, f"{section}.static_widths", "must not be empty when features.subsets includes 2")

    @classmethod
    def load(cls, config_path: str | None, overrides: list[str]) -> "RunConfig":
        values = {section: dict(keys) for section, keys in DEFAULTS.items()}
        if config_path:
            # no interpolation: a value reads the same from a file as from --set
            parser = configparser.ConfigParser(inline_comment_prefixes=("#",), interpolation=None)
            parser.optionxform = str  # keys are case-sensitive, as in --set and as section names are
            try:
                with open(config_path, encoding="utf-8") as fh:
                    parser.read_file(fh)
            except OSError as exc:
                raise ConfigError(f"{config_path}: cannot read: {exc.strerror}") from None
            except UnicodeDecodeError as exc:
                raise ConfigError(f"{config_path}: cannot read as UTF-8: {exc.reason} at byte {exc.start}") from None
            except configparser.Error as exc:  # its messages span lines
                raise ConfigError(f"{config_path}: cannot parse: {' '.join(str(exc).split())}") from None
            if parser.defaults():  # its keys would reach only the sections the file names
                raise ConfigError(f"{config_path}: a [DEFAULT] section is not allowed")
            for section in parser.sections():
                if section not in values:
                    raise ConfigError(f"{config_path}: unknown section [{section}]")
                for key, value in parser.items(section):
                    if key not in values[section]:
                        raise ConfigError(f"{config_path}: {section}.{key}: unknown key")
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

    def parse(self, section: str, key: str, kind: str):
        """``section.key`` parsed as the field annotation ``kind``."""
        parser, what = _PARSERS[kind]
        raw = self.get(section, key)
        try:
            return parser(raw)
        except ValueError:
            raise ConfigError(f"{section}.{key}: must be {what}, got {raw!r}") from None

    def get_int(self, section: str, key: str) -> int:
        return self.parse(section, key, "int")

    def get_bool(self, section: str, key: str) -> bool:
        return self.parse(section, key, "bool")

    def bind(self, cls, section: str, prefix: str = "", **fixed):
        """The frozen dataclass ``cls`` built from ``[section]``: an init field
        not in ``fixed`` takes the value of key ``prefix + <field name>``,
        parsed by the field's annotation. A value the dataclass rejects is
        reported under its key."""
        kwargs = dict(fixed)
        for f in fields(cls):
            if f.init and f.name not in fixed:
                kwargs[f.name] = self.parse(section, prefix + _KEYS.get(f.name, f.name), f.type)
        try:
            return cls(**kwargs)
        except FieldError as exc:
            raise ConfigError(f"{section}.{prefix}{_KEYS.get(exc.field, exc.field)}: {exc.message}") from None

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


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


class Runner:
    def __init__(self, cfg: RunConfig, out_root: str | None):
        self.cfg = cfg
        self.seed = cfg.seed
        root = out_root or cfg.get("run", "out") or os.environ.get("NPRL_OUT") or "runs"
        # made by the first write: a command that fails on its input leaves none behind
        self.run_dir = Path(root) / f"run-{self.seed}-{cfg.config_hash()[:8]}"
        self.header = f"config_hash={cfg.config_hash()} seed={self.seed}"

    def log(self, message: str) -> None:
        print(f"[nprl] {message}")

    def cmd_gen(self) -> list:
        records = generate_cohort(self.cfg.generator, derive_seed(self.seed, "generator"))
        write_cohort(records, self.run_dir / "cohort", header_comment=self.header)
        self.log(f"wrote cohort of {len(records)} patients to {self.run_dir / 'cohort'}")
        return records

    @staticmethod
    def _read_input(read, path: Path, first: str):
        """``read()``; if it fails with ``path`` missing, the error names it and the commands to run ``first``."""
        try:
            return read()
        except FormatError:
            if path.exists():
                raise
            raise FormatError(f"{path}: cannot read: {os.strerror(errno.ENOENT)}; run {first} first") from None

    def cmd_extract(self, records=None):
        if records is None:
            cohort = self.run_dir / "cohort"
            records = self._read_input(lambda: read_cohort(cohort), cohort / "patients.csv", "`nprl gen`")
        instances = P.extract_instances(records)
        instances, schema = P.select_features(instances, P.full_schema(), self.cfg.subsets)
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
        path = self.run_dir / "instances.csv"
        # the sidecar is read first, so the error names the file the user knows
        return self._read_input(
            lambda: P.read_instances(path, self.run_dir / "instances.schema.txt"), path, "`nprl gen` and `nprl extract`"
        )

    def cmd_eval(self, data=None):
        instances, schema = data if data is not None else self._load_instances()
        split = P.stratified_kfold(instances, self.cfg.arm_configs.k_folds, derive_seed(self.seed, "folds"))
        reports = {}
        for arm in self.cfg.arm_configs.arms:
            reports[arm] = E.cross_validate(
                instances, schema, split, arm, self.cfg.arm_configs, self.seed, n_workers=self.cfg.workers
            )
            logs = self.run_dir / "logs" / arm
            for fold in reports[arm].folds:
                fold.log.to_csv(logs / f"fold{fold.fold_id}.csv", header_comment=self.header)
                if fold.pretrain_log is not None:
                    fold.pretrain_log.to_csv(logs / f"fold{fold.fold_id}_pretrain.csv", header_comment=self.header)
            self.log(
                f"arm {arm}: pooled AUROC {reports[arm].pooled.auroc:.4f}, "
                f"sensitivity {reports[arm].pooled.sensitivity}, "
                f"specificity {reports[arm].pooled.specificity}"
            )
        E.emit_combined_report(
            reports, self.run_dir / "report.csv", self.run_dir / "roc.txt", header_comment=self.header
        )
        self.log(f"wrote report.csv, roc.txt and the fold training logs under {self.run_dir}")
        return reports

    def cmd_theory(self, data=None):
        instances, schema = data if data is not None else self._load_instances()
        cap = self.cfg.theory.max_instances
        if len(instances) > cap:
            keep = derive_rng(self.seed, "theory_subset").choice(len(instances), size=cap, replace=False)
            instances = [instances[i] for i in sorted(keep)]
        temporal, statics, labels = P.stack_instances(instances)
        temporal, statics = P.apply_minmax(temporal, statics, P.fit_minmax(temporal, statics))
        report = TH.theory_protocol(
            temporal, statics, labels, schema, self.cfg.theory, derive_seed(self.seed, "theory")
        )
        TH.write_theory_report(report, self.run_dir / "theory_report.txt", header_comment=self.header)
        self.log(
            f"theory: l_hat={report.l_hat:.4f} gamma={report.gamma:.6f} "
            f"violations={report.violations}/{report.pairs_checked} "
            f"m0={report.m0:.4f} m_star={report.m_star:.4f} bound_ok={report.bound_ok}"
        )
        return report

    def cmd_all(self):
        data = self.cmd_extract(self.cmd_gen())
        self.cmd_eval(data)
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
    args = build_parser().parse_args(argv)
    # --seed and --workers set run.seed and run.workers, over any --set of them
    flags = [f"run.{key}={getattr(args, key)}" for key in ("seed", "workers") if getattr(args, key) is not None]
    try:
        runner = Runner(RunConfig.load(args.config, args.overrides + flags), args.out)
        getattr(runner, f"cmd_{args.command}")()
    except NprlError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
