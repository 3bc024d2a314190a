"""Plain-text run configuration: ``key = value`` lines, ``#`` comments."""

from __future__ import annotations

import math
import typing
from dataclasses import dataclass, fields

from .errors import InvalidValue, MissingRequired, UnknownKey
from .spectral import DEALIAS_FRACTION, MAX_S

_REQUIRED = ("n", "s", "epsilon", "t_end")


@dataclass
class RunConfig:
    """Fully validated simulation parameters (see README for the key list)."""

    n: int
    s: int
    epsilon: float
    t_end: float
    seed: int = 1
    spectrum_decay: float = 3.0
    max_wavenumber: int = 4
    cfl: float = 0.4
    dt_max: float = 1e-2
    dt_min: float = 1e-8
    sample_every: float = 0.1
    snapshot_every: float = 0.0
    outdir: str = "out"
    nonlinearity: bool = True
    coupling: bool = True

    def __post_init__(self):
        self.validate()

    def validate(self):
        def bad(key, constraint):
            raise InvalidValue(f"{key} = {getattr(self, key)!r}: {constraint}")

        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                bad(f.name, "must be finite")
        if self.n < 8 or self.n % 2 != 0:
            bad("n", "must be an even integer >= 8")
        if not 2 <= self.s <= MAX_S:
            bad("s", f"must be an integer in [2, {MAX_S}] (small-data theory needs s >= 2)")
        if self.seed < 0:
            bad("seed", "must be >= 0")
        if self.epsilon < 0:
            bad("epsilon", "must be >= 0")
        if self.t_end < 0:
            bad("t_end", "must be >= 0")
        if not 0 < self.cfl <= 1:
            bad("cfl", "must lie in (0, 1]")
        if self.dt_max <= 0 or self.dt_min <= 0 or self.dt_min >= self.dt_max:
            bad("dt_min", "requires 0 < dt_min < dt_max")
        if self.spectrum_decay <= 0:
            bad("spectrum_decay", "must be > 0")
        cutoff = DEALIAS_FRACTION * (self.n / 2)
        if not 1 <= self.max_wavenumber <= cutoff:
            bad("max_wavenumber", f"must lie in [1, dealias cutoff {cutoff:.2f}]")
        if self.sample_every <= 0:
            bad("sample_every", "must be > 0")
        if self.snapshot_every < 0:
            bad("snapshot_every", "must be >= 0 (0 disables snapshots)")
        if self.snapshot_every > 0:
            ratio = self.snapshot_every / self.sample_every
            if abs(ratio - round(ratio)) > 1e-9:
                bad("snapshot_every", "must be an integer multiple of sample_every")


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
        values[key] = _convert(key, raw, types[key])
    missing = [k for k in _REQUIRED if k not in values]
    if missing:
        raise MissingRequired(f"missing required keys: {', '.join(missing)}")
    return RunConfig(**values)
