"""Stage configs for tests, from the one copy of the defaults: ``cli.DEFAULTS``
as ``cli.RunConfig.load(None, [])`` resolves it."""

from dataclasses import replace
from functools import reduce

from nprl import cli

RESOLVED = cli.RunConfig.load(None, [])


def default(path: str, **changes):
    """The built-in config at attribute ``path`` of the resolved run config
    (``"generator"``, ``"arm_configs.model"``, ``"theory.pretrain"``, ...),
    with ``changes`` made by ``dataclasses.replace``."""
    return replace(reduce(getattr, path.split("."), RESOLVED), **changes)
