import struct
import tracemalloc

import numpy as np
import pytest

from mhd2tor.checkpoint import MAGIC, checkpoint_header, read_checkpoint
from mhd2tor.cli import main

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


def _summary(path):
    return dict(line.split(" = ", 1) for line in path.read_text().splitlines())


def test_summary_counts_what_set_dt(tmp_path):
    """The config of the sim-n64 benchmark workload: dt_max = 1e-2 binds on
    every step (the CFL step is about 0.04), so 300 steps, none set by CFL."""
    cfg = tmp_path / "n64.cfg"
    cfg.write_text("n = 64\ns = 2\nepsilon = 1e-2\nseed = 1\nt_end = 3.0\nsample_every = 0.1\n")
    out = tmp_path / "out"
    assert main(["--quiet", "simulate", "--config", str(cfg), "--outdir", str(out)]) == 0
    summary = _summary(out / "summary.txt")
    counts = {key: int(summary[key]) for key in ("steps_cfl", "steps_dt_max", "steps_landing")}
    assert int(summary["steps"]) == 300
    assert counts["steps_cfl"] == 0
    assert sum(counts.values()) == 300
    assert "steps_speed_sampled" not in summary  # one dt rule: nothing to tell apart
    dts = [float(summary[f"step_dt_{key}"]) for key in ("min", "mean", "max")]
    # steps that land on a sample time take target - t, 1e-2 up to roundoff
    assert dts[0] <= dts[1] <= dts[2]
    assert dts == pytest.approx([1e-2] * 3, rel=1e-9)
    # a fresh nonlinear run works on the 2/3-band rows: 22 of 33 at n = 64
    assert summary["step_rows"] == "22"


@pytest.mark.parametrize("nonlinear, fresh_rows", [(True, "22"), (False, "5")])
def test_summary_step_rows_after_resume(tmp_path, nonlinear, fresh_rows):
    """A fresh run works on its content rows (the band rows when nonlinear,
    max_wavenumber + 1 = 5 when linear); a state read from a checkpoint has
    content on all 33 rows of n = 64."""
    cfg = tmp_path / "n64.cfg"
    text = "n = 64\ns = 2\nepsilon = 1e-2\nseed = 1\nt_end = 0.2\nsample_every = 0.1\n"
    cfg.write_text(text + f"nonlinearity = {str(nonlinear).lower()}\n")
    out, rest = tmp_path / "out", tmp_path / "rest"
    assert main(["--quiet", "simulate", "--config", str(cfg), "--outdir", str(out)]) == 0
    assert _summary(out / "summary.txt")["step_rows"] == fresh_rows
    cfg.write_text(cfg.read_text().replace("t_end = 0.2", "t_end = 0.3"))
    args = ["--checkpoint", str(out / "final.chk"), "--outdir", str(rest)]
    assert main(["--quiet", "resume", "--config", str(cfg), *args]) == 0
    summary = _summary(rest / "summary.txt")
    assert int(summary["steps"]) > 0 and summary["step_rows"] == "33"


def test_summary_step_sizes_nan_without_steps(tmp_path):
    cfg = tmp_path / "zero.cfg"
    cfg.write_text(GOOD.replace("t_end = 0.3", "t_end = 0"))
    out = tmp_path / "out"
    assert main(["--quiet", "simulate", "--config", str(cfg), "--outdir", str(out)]) == 0
    summary = _summary(out / "summary.txt")
    assert summary["steps"] == "0"
    assert [summary[f"step_dt_{key}"] for key in ("min", "mean", "max")] == ["nan"] * 3


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


def test_diagnose_refuses_short_file_before_allocating(tmp_path):
    """A 24-byte checkpoint whose header says n = 16384 is refused as
    truncated (exit 4) before its 8 GiB of samples are allocated: the
    traced peak stays under 1 MiB."""
    path = tmp_path / "short.chk"
    path.write_bytes(struct.pack("<8sIId", MAGIC, 16384, 2, 0.0))
    tracemalloc.start()
    try:
        code = main(["--quiet", "diagnose", "--checkpoint", str(path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 4
    assert peak < 2**20


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


@pytest.mark.parametrize(
    "args",
    [
        ["poincare", "--samples", "0"], ["skew", "--samples", "-3"],
        ["poincare", "--k", "-1"], ["poincare", "--k", "34"],
    ],
)
def test_verify_refuses_a_vacuous_or_unbounded_sweep(capsys, args):
    """A sweep over no draws (at the parent: PASS with value 0) and a
    Sobolev order outside [0, 2 MAX_S + 1] (at the parent, --k -1 ended in
    a traceback, exit 1) are config errors, refused before any check runs."""
    assert main(["verify", *args]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error: ") and "Traceback" not in captured.err


def test_verify_unknown_check():
    assert main(["--quiet", "verify", "nonsense"]) == 2
