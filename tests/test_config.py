import math

import pytest

from mhd2tor.config import RunConfig, parse_config
from mhd2tor.diagnostics import EnergyParams
from mhd2tor.errors import InvalidValue, MissingRequired, UnknownKey
from mhd2tor.spectral import MAX_N, MAX_S, GridSpec
from mhd2tor.stepping import StepperConfig, run
from mhd2tor.symmetry import InitialDataSpec, make_initial_data

MINIMAL = """
n = 32
s = 2
epsilon = 1e-2
t_end = 1.0
"""


def test_minimal_config_defaults():
    cfg = parse_config(MINIMAL)
    assert cfg.n == 32 and cfg.s == 2
    assert cfg.epsilon == 1e-2 and cfg.t_end == 1.0
    assert cfg.seed == 1
    assert cfg.cfl == 0.4
    assert cfg.sample_every == 0.1
    assert cfg.snapshot_every == 0.0
    assert cfg.nonlinearity and cfg.coupling


def test_largest_grid_accepted():
    """n = MAX_N parses; the rule is checked without building the grid's arrays."""
    assert parse_config(MINIMAL.replace("n = 32", f"n = {MAX_N}")).n == MAX_N


def test_duplicate_key_names_the_second_line():
    """A key set twice is refused (at the parent the last value won)."""
    with pytest.raises(InvalidValue, match="line 7: key 'n' set twice"):
        parse_config(MINIMAL + "\nn = 64\n")


def test_comments_and_blank_lines():
    cfg = parse_config(MINIMAL + "\n# a comment\n\nseed = 7  # trailing\n")
    assert cfg.seed == 7


def test_s_bounds():
    assert RunConfig(n=16, s=16, epsilon=0.0, t_end=0.0).s == 16
    for s in (1, 17):
        with pytest.raises(InvalidValue):
            RunConfig(n=16, s=s, epsilon=0.0, t_end=0.0)


def test_unknown_key():
    with pytest.raises(UnknownKey):
        parse_config(MINIMAL + "viscosity = 0.1\n")


def test_missing_required():
    with pytest.raises(MissingRequired) as exc:
        parse_config("n = 32\ns = 2\n")
    assert "epsilon" in str(exc.value)
    assert "t_end" in str(exc.value)


def test_invalid_values():
    with pytest.raises(InvalidValue):
        parse_config(MINIMAL + "cfl = 1.5\n")
    with pytest.raises(InvalidValue):
        parse_config(MINIMAL.replace("n = 32", "n = 33"))
    with pytest.raises(InvalidValue):
        parse_config(MINIMAL.replace("s = 2", "s = 1"))
    with pytest.raises(InvalidValue):
        parse_config(MINIMAL + "seed = not_an_int\n")
    with pytest.raises(InvalidValue):
        parse_config(MINIMAL + "just a line without equals\n")


@pytest.mark.parametrize(
    "line",
    [
        "t_end = inf", "t_end = nan", "sample_every = nan", "epsilon = nan",
        "epsilon = inf", "spectrum_decay = nan", "dt_max = inf", "seed = -1",
    ],
)
def test_non_finite_and_negative_seed_rejected(line):
    key = line.split(" =")[0]
    text = "\n".join(
        row for row in MINIMAL.splitlines() if not row.startswith(key + " ")
    )
    with pytest.raises(InvalidValue, match=key):
        parse_config(text + "\n" + line + "\n")


def test_snapshot_must_align_with_samples():
    cfg = parse_config(MINIMAL + "snapshot_every = 0.5\n")
    assert cfg.snapshot_every == 0.5
    with pytest.raises(InvalidValue):
        parse_config(MINIMAL + "snapshot_every = 0.25\n")


def test_max_wavenumber_within_dealias_cutoff():
    with pytest.raises(InvalidValue):
        parse_config(MINIMAL.replace("n = 32", "n = 16") + "max_wavenumber = 6\n")


def test_bool_words():
    cfg = parse_config(MINIMAL + "nonlinearity = off\ncoupling = FALSE\n")
    assert not cfg.nonlinearity and not cfg.coupling


def test_direct_construction_validates():
    with pytest.raises(InvalidValue):
        RunConfig(n=32, s=2, epsilon=-1.0, t_end=1.0)


# One bad value for each side of every parameter rule, on top of BASE.
# RunConfig rejects each; so does every type that owns the key, with the
# same message (OWNERS).
BASE = {"n": 16, "s": 2, "epsilon": 1e-2, "t_end": 1.0}
BAD_VALUES = [
    ("n", 7), ("n", 6), ("n", MAX_N + 2),
    ("s", 1), ("s", MAX_S + 1),
    ("epsilon", math.nan), ("epsilon", math.inf), ("epsilon", -1.0),
    ("seed", -1),
    ("spectrum_decay", math.nan), ("spectrum_decay", math.inf), ("spectrum_decay", 0.0),
    ("max_wavenumber", 0), ("max_wavenumber", 6),  # the cutoff at n = 16 is 5.33
    ("t_end", math.nan), ("t_end", -1.0),
    ("cfl", 0.0), ("cfl", 1.5),
    ("dt_max", math.inf), ("dt_max", 1e-9), ("dt_min", 0.0),
    ("sample_every", math.nan), ("sample_every", 0.0),
    ("sample_every", 5e-9), ("sample_every", 1e-320),  # below dt_min = 1e-8
]


def _spec(**changes):
    return InitialDataSpec(**{"epsilon": BASE["epsilon"], "s": BASE["s"], "seed": 1, **changes})


def _run_with_sample_every(value):
    grid = GridSpec(BASE["n"])
    run(make_initial_data(_spec(), grid), StepperConfig(t_end=0.0), value, lambda st: None)


OWNERS = {
    "n": [GridSpec],
    "s": [lambda v: _spec(s=v), EnergyParams],
    "epsilon": [lambda v: _spec(epsilon=v)],
    "seed": [lambda v: _spec(seed=v)],
    "spectrum_decay": [lambda v: _spec(spectrum_decay=v)],
    "max_wavenumber": [lambda v: make_initial_data(_spec(max_wavenumber=v), GridSpec(BASE["n"]))],
    **{
        key: [lambda v, key=key: StepperConfig(**{"t_end": BASE["t_end"], key: v})]
        for key in ("t_end", "cfl", "dt_max", "dt_min")
    },
    "sample_every": [_run_with_sample_every],
}


@pytest.mark.parametrize("key, value", BAD_VALUES)
def test_owner_rejects_what_run_config_rejects(key, value):
    with pytest.raises(InvalidValue, match=key) as want:
        RunConfig(**{**BASE, key: value})
    for owner in OWNERS[key]:
        with pytest.raises(InvalidValue) as got:
            owner(value)
        assert str(got.value) == str(want.value)


@pytest.mark.parametrize("key, value", BAD_VALUES)
def test_parse_config_rejects_bad_value(key, value):
    text = "".join(f"{k} = {v}\n" for k, v in {**BASE, key: value}.items())
    with pytest.raises(InvalidValue, match=key):
        parse_config(text)
