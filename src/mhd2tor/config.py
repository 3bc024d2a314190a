"""Plain-text run configuration: ``key = value`` lines, ``#`` comments."""

from __future__ import annotations

import typing
from dataclasses import dataclass

from .diagnostics import EnergyParams
from .errors import InvalidValue, MissingRequired, UnknownKey, require, require_finite
from .spectral import GridSpec
from .stepping import StepperConfig, require_sample_every
from .symmetry import InitialDataSpec

_REQUIRED = ("n", "s", "epsilon", "t_end")


@dataclass
class RunConfig:
    """Fully validated simulation parameters (see README for the key list).

    The parameters of the solver's types are checked by those types:
    ``grid``, ``initial_data``, ``stepper`` and ``energy`` build them from
    the current fields.  ``validate`` builds them and checks the two keys
    of the run itself, ``sample_every`` and ``snapshot_every``.
    """

    n: int
    s: int
    epsilon: float
    t_end: float
    seed: int = 1
    spectrum_decay: float = InitialDataSpec.spectrum_decay
    max_wavenumber: int = InitialDataSpec.max_wavenumber
    cfl: float = StepperConfig.cfl
    dt_max: float = StepperConfig.dt_max
    dt_min: float = StepperConfig.dt_min
    sample_every: float = 0.1
    snapshot_every: float = 0.0
    outdir: str = "out"
    nonlinearity: bool = True
    coupling: bool = True

    def __post_init__(self):
        self.validate()

    @property
    def grid(self) -> GridSpec:
        return GridSpec(self.n)

    @property
    def initial_data(self) -> InitialDataSpec:
        return InitialDataSpec(
            self.epsilon, self.s, self.seed, self.spectrum_decay, self.max_wavenumber
        )

    @property
    def stepper(self) -> StepperConfig:
        return StepperConfig(self.t_end, self.cfl, self.dt_max, self.dt_min)

    @property
    def energy(self) -> EnergyParams:
        return EnergyParams(self.s)

    def validate(self):
        """Raise InvalidValue, ``key = value: constraint``, for the first
        field outside its rule."""
        grid = self.grid
        self.initial_data.require_resolved(grid)
        self.stepper  # checks t_end, cfl, dt_max and dt_min
        require_sample_every(self.sample_every, self.dt_min)
        every = self.snapshot_every
        require_finite(snapshot_every=every)
        require(every >= 0, "snapshot_every", every, "must be >= 0 (0 disables snapshots)")
        ratio, rule = every / self.sample_every, "must be an integer multiple of sample_every"
        require(abs(ratio - round(ratio)) <= 1e-9, "snapshot_every", every, rule)


_BOOL_WORDS = {
    "true": True, "on": True, "yes": True, "1": True,
    "false": False, "off": False, "no": False, "0": False,
}


def _convert(key: str, raw: str, target_type):
    raw = raw.strip()
    try:
        if target_type is bool:
            return _BOOL_WORDS[raw.lower()]
        if target_type is int:
            return int(raw)
        if target_type is float:
            return float(raw)
        return raw
    except (KeyError, ValueError):
        raise InvalidValue(
            f"{key} = {raw!r}: cannot parse as {target_type.__name__}"
        ) from None


def parse_config(text: str) -> RunConfig:
    """Parse and validate config text.

    Raises
    ------
    UnknownKey, InvalidValue, MissingRequired
        InvalidValue also for a key set on a second line.
    """
    types = typing.get_type_hints(RunConfig)
    values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise InvalidValue(f"line {lineno}: expected 'key = value', got {line!r}")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key not in types:
            raise UnknownKey(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise InvalidValue(f"line {lineno}: key {key!r} set twice")
        values[key] = _convert(key, raw, types[key])
    missing = [k for k in _REQUIRED if k not in values]
    if missing:
        raise MissingRequired(f"missing required keys: {', '.join(missing)}")
    return RunConfig(**values)
