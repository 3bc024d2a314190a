import os

import numpy as np
import pytest

from mhd2tor.checkpoint import checkpoint_header, read_checkpoint
from mhd2tor.cli import main
from mhd2tor.spectral import fft_workers

GOOD = """
n = 16
s = 2
epsilon = 1e-2
t_end = 0.3
seed = 4
sample_every = 0.1
"""


@pytest.fixture
def cfg_path(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(GOOD)
    return path


def test_simulate_ok(tmp_path, cfg_path):
    out = tmp_path / "out"
    assert main(["--quiet", "simulate", "--config", str(cfg_path), "--outdir", str(out)]) == 0
    assert (out / "diag.csv").exists()
    assert (out / "final.chk").exists()
    summary = (out / "summary.txt").read_text()
    assert "status = ok" in summary
    header = (out / "diag.csv").read_text().splitlines()[0]
    assert header.startswith("t,u_H2,u_H3,u_H4,u_H5,b_H2")


def test_config_error_exit_2(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text(GOOD + "viscosity = 1\n")
    assert main(["--quiet", "simulate", "--config", str(bad)]) == 2


@pytest.mark.parametrize("line", ["seed = -1", "sample_every = nan"])
def test_bad_value_exit_2_without_output(tmp_path, line):
    bad = tmp_path / "bad.cfg"
    bad.write_text(GOOD.replace("seed = 4", "").replace("sample_every = 0.1", "") + line + "\n")
    out = tmp_path / "out"
    assert main(["--quiet", "simulate", "--config", str(bad), "--outdir", str(out)]) == 2
    assert not out.exists()
    ic = tmp_path / "ic.chk"
    assert main(["--quiet", "make-ic", "--config", str(bad), "--out", str(ic)]) == 2
    assert not ic.exists()


def test_missing_config_exit_4(tmp_path):
    assert main(["--quiet", "simulate", "--config", str(tmp_path / "none.cfg")]) == 4


def test_blowup_exit_3(tmp_path, capsys):
    bad = tmp_path / "blowup.cfg"
    # far outside the small-data regime the CFL step collapses below dt_min:
    # the run must fail cleanly, exit 3, and name the failure and last good time
    bad.write_text(GOOD.replace("epsilon = 1e-2", "epsilon = 1e6") + "dt_min = 1e-4\n")
    out = tmp_path / "out"
    code = main(["--quiet", "simulate", "--config", str(bad), "--outdir", str(out)])
    assert code == 3
    err = capsys.readouterr().err
    assert "StepTooSmall" in err or "NonFiniteState" in err
    assert "last good t" in err
    assert "status = failed" in (out / "summary.txt").read_text()


def test_make_ic_and_diagnose(tmp_path, cfg_path, capsys):
    ic = tmp_path / "ic.chk"
    assert main(["--quiet", "make-ic", "--config", str(cfg_path), "--out", str(ic)]) == 0
    st = read_checkpoint(ic)
    assert st.t == 0.0
    assert main(["diagnose", "--checkpoint", str(ic)]) == 0
    text = capsys.readouterr().out
    assert "u_H5" in text and "PASS" in text and "FAIL" not in text


def test_resume_matches_uninterrupted(tmp_path, cfg_path):
    full = tmp_path / "full"
    assert main(["--quiet", "simulate", "--config", str(cfg_path), "--outdir", str(full)]) == 0

    split_cfg = tmp_path / "half.cfg"
    split_cfg.write_text(GOOD.replace("t_end = 0.3", "t_end = 0.1"))
    half = tmp_path / "half"
    assert main(["--quiet", "simulate", "--config", str(split_cfg), "--outdir", str(half)]) == 0
    rest = tmp_path / "rest"
    code = main([
        "--quiet", "resume", "--config", str(cfg_path),
        "--checkpoint", str(half / "final.chk"), "--outdir", str(rest),
    ])
    assert code == 0
    a = read_checkpoint(full / "final.chk")
    b = read_checkpoint(rest / "final.chk")
    assert a.t == b.t
    scale = max(np.max(np.abs(c)) for c in a.coeff_arrays())
    for x, y in zip(a.coeff_arrays(), b.coeff_arrays()):
        assert np.max(np.abs(x - y)) <= 1e-13 * max(scale, 1.0)


def test_resume_grid_mismatch_exit_4(tmp_path, cfg_path):
    out = tmp_path / "out"
    main(["--quiet", "simulate", "--config", str(cfg_path), "--outdir", str(out)])
    other = tmp_path / "other.cfg"
    other.write_text(GOOD.replace("n = 16", "n = 32"))
    code = main([
        "--quiet", "resume", "--config", str(other),
        "--checkpoint", str(out / "final.chk"),
    ])
    assert code == 4


def test_resume_s_mismatch_exit_4(tmp_path, cfg_path):
    s3 = tmp_path / "s3.cfg"
    s3.write_text(GOOD.replace("s = 2", "s = 3"))
    out = tmp_path / "out"
    assert main(["--quiet", "simulate", "--config", str(s3), "--outdir", str(out)]) == 0
    assert checkpoint_header(out / "final.chk")[1] == 3
    rest = tmp_path / "rest"
    code = main([
        "--quiet", "resume", "--config", str(cfg_path),
        "--checkpoint", str(out / "final.chk"), "--outdir", str(rest),
    ])
    assert code == 4
    assert not rest.exists()


@pytest.fixture
def fresh_fft_workers():
    fft_workers.cache_clear()
    yield
    fft_workers.cache_clear()


@pytest.mark.parametrize("value", ["abc", "-1", "1.5"])
def test_bad_thread_count_exit_2(tmp_path, cfg_path, monkeypatch, fresh_fft_workers, value):
    monkeypatch.setenv("MHD2_THREADS", value)
    out = tmp_path / "out"
    assert main(["--quiet", "simulate", "--config", str(cfg_path), "--outdir", str(out)]) == 2
    assert not out.exists()
    ic = tmp_path / "ic.chk"
    assert main(["--quiet", "make-ic", "--config", str(cfg_path), "--out", str(ic)]) == 2
    assert not ic.exists()


@pytest.mark.parametrize(
    "value, expected", [(None, 1), ("", 1), ("2", 2), ("0", os.cpu_count() or 1)]
)
def test_default_thread_count(monkeypatch, fresh_fft_workers, value, expected):
    """Unset or empty MHD2_THREADS means one FFT worker; 0 means one per core."""
    if value is None:
        monkeypatch.delenv("MHD2_THREADS", raising=False)
    else:
        monkeypatch.setenv("MHD2_THREADS", value)
    assert fft_workers() == expected


@pytest.mark.parametrize("s", [0, 1, 17])
def test_diagnose_rejects_header_s(tmp_path, cfg_path, s):
    """An s outside [2, MAX_S] in a checkpoint header is an I/O error (exit 4),
    not a silent s = 2 or a multiplier loop that does not end."""
    ic = tmp_path / "ic.chk"
    assert main(["--quiet", "make-ic", "--config", str(cfg_path), "--out", str(ic)]) == 0
    raw = bytearray(ic.read_bytes())
    raw[12:16] = s.to_bytes(4, "little")
    ic.write_bytes(bytes(raw))
    assert main(["--quiet", "diagnose", "--checkpoint", str(ic)]) == 4


def test_sample_times_land_exactly(tmp_path, cfg_path):
    cfg = tmp_path / "t1.cfg"
    cfg.write_text(GOOD.replace("t_end = 0.3", "t_end = 1") + "snapshot_every = 0.5\n")
    out = tmp_path / "out"
    assert main(["--quiet", "simulate", "--config", str(cfg), "--outdir", str(out)]) == 0
    assert "t_final = 1\n" in (out / "summary.txt").read_text()
    rows = (out / "diag.csv").read_text().splitlines()
    assert len(rows) == 1 + 11
    assert float(rows[-1].split(",")[0]) == 1.0
    assert sorted(p.name for p in out.glob("state_*.chk")) == [
        "state_00000.500000.chk", "state_00001.000000.chk",
    ]
    # a resume continues the same integer sample counter
    rest = tmp_path / "rest"
    code = main([
        "--quiet", "resume", "--config", str(cfg),
        "--checkpoint", str(out / "state_00000.500000.chk"), "--outdir", str(rest),
    ])
    assert code == 0
    resumed = (rest / "diag.csv").read_text().splitlines()[1:]
    assert [r.split(",")[0] for r in resumed] == [r.split(",")[0] for r in rows[6:]]


def test_verify_subcommand(capsys):
    assert main(["verify", "poincare", "--samples", "5", "--k", "2"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "poincare_ratio_max" in out


def test_verify_unknown_check():
    assert main(["--quiet", "verify", "nonsense"]) == 2
