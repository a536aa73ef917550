import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hilbmat

from hilbmat._util import fmt17
from hilbmat.cli import main
from hilbmat.gaps import build_witness
from hilbmat.reports import ResidualReport
from hilbmat.spectra import hankel_hilbert_norm, toeplitz_hilbert_norm


def run_cli(args):
    return main(args)


def test_help_lists_commands(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for command in ("gen", "norm", "det", "verify", "sweep-gap", "eigvec-profile",
                    "witness", "prolate-gap", "hankel-gap", "gs-rate"):
        assert command in out


def test_bad_flags_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["norm", "--no-such-flag"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_out_only_where_a_csv_is_written(tmp_path):
    # norm prints one number; --out is a gen flag, not a shared matrix flag
    target = tmp_path / "norm.csv"
    with pytest.raises(SystemExit) as exc:
        main(["norm", "--out", str(target)])
    assert exc.value.code == 2
    assert not target.exists()
    assert main(["gen", "--kind", "T", "--R", "3", "--out", str(target)]) == 0
    assert target.read_text().splitlines()[0] == "c0,c1,c2"


@pytest.mark.parametrize("argv", [
    ["norm", "--R", "0"],
    ["det", "--R", "24"],
    ["norm", "--kind", "prolate", "--w", "0.7"],
    ["witness", "--R", "5"],
    ["sweep-gap", "--R-max", "1"],
    ["verify", "--seeds", "-1"],
    ["verify", "--max-R", "3"],
    ["hankel-gap", "--R-max", "0"],
    ["prolate-gap", "--R-min", "5", "--R-max", "2"],
    ["prolate-gap", "--w", "0.7"],
    ["eigvec-profile", "--S", "0"],
    ["sweep-gap", "--R-max", "20", "--threads", "0"],
    ["sweep-gap", "--threads", "-3"],
    ["hankel-gap", "--R-max", "5", "--threads", "-1"],
    ["norm", "--kind", "T", "--R", "20001"],
    ["norm", "--kind", "H", "--R", "20001"],
])
def test_rejected_values_exit_2(argv):
    src = str(Path(hilbmat.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-m", "hilbmat.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 2
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("hilbmat: error: ")
    assert "Traceback" not in proc.stderr


def test_numerical_failure_exits_1(capsys, monkeypatch):
    # LinAlgError subclasses ValueError but is not a usage error
    def fail(M):
        raise np.linalg.LinAlgError("eigenvalues did not converge")

    monkeypatch.setattr("hilbmat.cli.spectral_norm", fail)
    assert run_cli(["norm", "--kind", "A", "--R", "3"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["hilbmat: numerical failure: eigenvalues did not converge"]


def test_verify_failure_exits_1(capsys, monkeypatch):
    # only the applicable, non-probe failure counts
    bad = ResidualReport("bad", 1.0, 1.0, 0.0, passed=False)
    probe = dataclasses.replace(bad, name="probe", probe=True)
    moot = dataclasses.replace(bad, name="moot", applicable=False)
    monkeypatch.setattr("hilbmat.identities.run_suite",
                        lambda seeds, max_R: [bad, probe, moot])
    assert run_cli(["verify"]) == 1
    captured = capsys.readouterr()
    assert len(captured.out.splitlines()) == 4  # header plus every report
    failed = [line for line in captured.err.splitlines() if line.startswith("FAILED")]
    assert len(failed) == 1 and failed[0].startswith("FAILED bad: ")


def test_witness_failure_exits_1(capsys, monkeypatch):
    cert = build_witness(100)
    broken = dataclasses.replace(cert, epsilon=cert.epsilon_bound * 2.0)
    monkeypatch.setattr("hilbmat.gaps.build_witness", lambda R: broken)
    assert run_cli(["witness", "--R", "100"]) == 1
    assert capsys.readouterr().err.splitlines() == ["FAILED witness certificate at R=100"]


def test_gen_matrix_stdout(capsys):
    assert run_cli(["gen", "--kind", "T", "--R", "3"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "c0,c1,c2"
    row2 = [float(v) for v in lines[2].split(",")]
    assert row2 == [1.0, 0.0, -1.0]


def test_norm_t3(capsys):
    assert run_cli(["norm", "--kind", "T", "--R", "3"]) == 0
    assert float(capsys.readouterr().out.strip()) == pytest.approx(1.5, abs=1e-12)


@pytest.mark.parametrize("R", [5, 256, 257, 1000])
@pytest.mark.parametrize("kind,norm", [("T", toeplitz_hilbert_norm),
                                       ("H", hankel_hilbert_norm)])
def test_norm_reads_the_solve_route(capsys, kind, norm, R):
    # the same value as sweep-gap and hankel-gap, on both sides of the cutoff
    assert run_cli(["norm", "--kind", kind, "--R", str(R)]) == 0
    assert capsys.readouterr().out == fmt17(norm(R)) + "\n"


@pytest.mark.parametrize("kind,upper", [
    ("H", np.pi),        # Hankel Hilbert norms stay below pi
    ("prolate", np.pi),  # band indicator height
    ("cosine", 2.0),     # symbol maximum
    ("A", None),
    ("B", None),
])
def test_norm_all_kinds(capsys, kind, upper):
    assert run_cli(["norm", "--kind", kind, "--R", "8", "--seed", "1"]) == 0
    value = float(capsys.readouterr().out.strip())
    assert value > 0
    if upper is not None:
        assert value <= upper


def test_det_t4(capsys):
    assert run_cli(["det", "--T", "4"]) == 0
    out = dict(line.split("=") for line in capsys.readouterr().out.strip().splitlines())
    assert float(out["matching"]) == pytest.approx(169.0 / 144.0, abs=1e-14)
    assert float(out["lu"]) == pytest.approx(169.0 / 144.0, abs=1e-12)
    assert float(out["pfaffian_sq"]) == pytest.approx(169.0 / 144.0, abs=1e-14)


def test_det_random_even(capsys):
    assert run_cli(["det", "--R", "6", "--seed", "4"]) == 0
    out = dict(line.split("=") for line in capsys.readouterr().out.strip().splitlines())
    assert float(out["matching"]) == pytest.approx(float(out["lu"]), rel=1e-9)


def test_det_odd_beyond_the_cap(capsys):
    assert run_cli(["det", "--R", "23"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "matching=0"


def test_verify_small_suite(tmp_path):
    out = tmp_path / "reports.csv"
    assert run_cli(["verify", "--seeds", "3", "--max-R", "10", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "name,seed,R,max_residual,scale,passed"
    assert len(lines) > 20


def test_verify_byte_identical(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    run_cli(["verify", "--seeds", "2", "--max-R", "8", "--out", str(a)])
    run_cli(["verify", "--seeds", "2", "--max-R", "8", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_sweep_gap(tmp_path):
    out = tmp_path / "figure1.csv"
    assert run_cli(["sweep-gap", "--R-max", "60", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "R,norm,gap,rescaled_gap"
    assert lines[1].startswith("2,")
    assert lines[-1].startswith("60,")


def test_sweep_gap_threads_byte_identical(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    run_cli(["sweep-gap", "--R-max", "50", "--out", str(a)])
    run_cli(["sweep-gap", "--R-max", "50", "--threads", "3", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_eigvec_profile(tmp_path, capsys):
    out = tmp_path / "figure2.csv"
    assert run_cli(["eigvec-profile", "--S", "4", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "n,abs_u_n"
    assert len(lines) == 10
    err = capsys.readouterr().err
    assert "monotone_decay_from_center" in err


def test_witness(tmp_path):
    out = tmp_path / "witness.csv"
    assert run_cli(["witness", "--R", "100", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "R,M,N,gamma,epsilon,epsilon_bound,rayleigh,gap_bound"
    assert len(lines) == 2


def test_prolate_gap(tmp_path, capsys):
    out = tmp_path / "prolate.csv"
    assert run_cli(["prolate-gap", "--w", "0.25", "--R-min", "2", "--R-max", "12",
                    "--out", str(out)]) == 0
    assert out.read_text().splitlines()[0] == "R,gap,log_gap"
    assert "fit_slope=" in capsys.readouterr().err


def test_hankel_gap(tmp_path):
    out = tmp_path / "hankel.csv"
    assert run_cli(["hankel-gap", "--R-max", "8", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "R,norm,gap,wilf_ratio"
    assert len(lines) == 9


def test_gs_rate(tmp_path):
    out = tmp_path / "gs.csv"
    assert run_cli(["gs-rate", "--R", "10", "20", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "R,gap,predicted,ratio"
    gap = float(lines[1].split(",")[1])
    assert gap == pytest.approx(2 - 2 * np.cos(np.pi / 11), abs=1e-12)
