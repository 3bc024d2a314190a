import pytest

from mhd2tor.config import RunConfig, parse_config
from mhd2tor.errors import InvalidValue, MissingRequired, UnknownKey

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
    assert cfg.formulation == "perturbation"
    assert cfg.nonlinearity and cfg.coupling


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
        parse_config(MINIMAL + "formulation = vorticity\n")
    with pytest.raises(InvalidValue):
        parse_config(MINIMAL + "just a line without equals\n")


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
