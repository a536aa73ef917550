import contextlib
import dataclasses
import io

import numpy as np
import pytest

import hilbmat.spectra as spectra
from hilbmat._util import fmt17
from hilbmat.cli import build_parser, main
from hilbmat.gaps import build_witness
from hilbmat.matrices import hilbert_hankel, write_matrix_csv
from hilbmat.reports import ResidualReport
from hilbmat.spectra import hankel_hilbert_norm, toeplitz_hilbert_norm


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
    # neither sweep takes --threads
    for argv in (["sweep-gap", "--threads", "2"], ["hankel-gap", "--threads", "2"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
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


def test_parser_is_built_once_and_writes_to_each_calls_stdout():
    # the memoized parser holds no stream: each call's CSV goes to the
    # sys.stdout in force during that call
    assert build_parser() is build_parser()
    buffers = [io.StringIO(), io.StringIO()]
    for buf in buffers:
        with contextlib.redirect_stdout(buf):
            assert main(["gs-rate", "--R", "10"]) == 0
    for buf in buffers:
        assert buf.getvalue().splitlines()[0] == "R,gap,predicted,ratio"
        assert buf.getvalue().splitlines()[1].startswith("10,")


@pytest.mark.parametrize("where, reason", [("missing/gs.csv", "No such file or directory"),
                                           ("", "Is a directory")],
                         ids=["missing-parent", "directory"])
def test_unwritable_out_is_a_usage_error(tmp_path, capsys, where, reason):
    target = tmp_path / where
    assert main(["gs-rate", "--R", "10", "--out", str(target)]) == 2
    assert capsys.readouterr() == ("", f"hilbmat: error: cannot write {target}: {reason}\n")


DIMENSION = "dimension must be >= 1"
BANDWIDTH = "bandwidth w must lie in the open interval (0, 1/2)"
WITNESS_MIN = "witness construction needs R >= 8 (floor(log R / 2) >= 1)"
CAP = "dimension exceeds the size cap of 20000"
# every value outside a command's domain, with the one line that names its
# rule, grouped by the test that checks it
REJECTED = {
    "any": {
        ("norm", "--R", "0"): DIMENSION,
        ("det", "--R", "24"): "matching sums capped at R = 22",
        ("norm", "--kind", "prolate", "--w", "0.7"): BANDWIDTH,
        ("witness", "--R", "5"): WITNESS_MIN,
        ("sweep-gap", "--R-max", "1"): "R_max must be >= 2",
        ("verify", "--seeds", "-1"): "seeds must be >= 0",
        ("verify", "--max-R", "3"): "max_R must be >= 4",
        ("hankel-gap", "--R-max", "0"): DIMENSION,
        ("prolate-gap", "--R-min", "5", "--R-max", "2"): "R_list must not be empty",
        ("prolate-gap", "--w", "0.7"): BANDWIDTH,
        ("norm", "--kind", "T", "--R", "20001"): CAP,
        ("norm", "--kind", "H", "--R", "20001"): CAP,
        ("witness", "--R", "1"): WITNESS_MIN,
        ("witness", "--R", "2"): WITNESS_MIN,
        ("witness", "--R", "7"): WITNESS_MIN,
        ("gs-rate", "--R", "10", "0"): DIMENSION,
        ("gen", "--kind", "T", "--R", "20001"): CAP,
        ("norm", "--kind", "prolate", "--w", "0"): BANDWIDTH,
        ("prolate-gap", "--w", "0.5"): BANDWIDTH,
        # one size cap, dense or matrix-free: R = 20001 (S = 10000) on every route
        ("sweep-gap", "--R-max", "20001"): CAP,
        ("hankel-gap", "--R-max", "20001"): CAP,
        ("witness", "--R", "20001"): CAP,
        ("eigvec-profile", "--S", "10000"): CAP,
        ("verify", "--max-R", "20001"): "max_R must be <= 20000",
        ("gen", "--kind", "A", "--R", "20001"): CAP,
        ("det", "--R", "20001"): CAP,
    },
    # the seeded weighted-Cauchy instances check R and the seed before
    # drawing nodes
    "size": {("det", "--R", "-3"): DIMENSION, ("gen", "--kind", "A", "--R", "-3"): DIMENSION,
             ("norm", "--kind", "B", "--R", "-2"): DIMENSION},
    "seed": {argv: "seed must be >= 0" for argv in (
        ("det", "--R", "4", "--seed", "-1"), ("gen", "--kind", "B", "--R", "4", "--seed", "-1"),
        ("norm", "--kind", "A", "--R", "4", "--seed", "-1"))},
    # T_1 = 0 has no top eigenvector, so S = 0 fails on the same rule as S < 0
    "S": {("eigvec-profile", "--S", S): "S must be >= 1" for S in ("0", "-1")},
}


def assert_rejected(capsys, group, argv):
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"hilbmat: error: {REJECTED[group][argv]}\n")


@pytest.mark.parametrize("argv", list(REJECTED["any"]))
def test_rejected_values_exit_2(capsys, argv):
    assert_rejected(capsys, "any", argv)


@pytest.mark.parametrize("argv", list(REJECTED["size"]))
def test_negative_instance_size_names_the_dimension_rule(capsys, argv):
    assert_rejected(capsys, "size", argv)


@pytest.mark.parametrize("argv", list(REJECTED["seed"]))
def test_negative_seed_names_the_integer_rule(capsys, argv):
    assert_rejected(capsys, "seed", argv)


@pytest.mark.parametrize("S", ["0", "-1"])
def test_eigvec_profile_rejects_s_below_1(capsys, S):
    assert_rejected(capsys, "S", ("eigvec-profile", "--S", S))


def test_entrypoint_exits_with_mains_code(run_python):
    # the console script passes main's code to sys.exit
    proc = run_python(["-m", "hilbmat.cli", "norm", "--R", "0"], text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", f"hilbmat: error: {DIMENSION}\n")


def test_numerical_failure_exits_1(capsys, monkeypatch):
    # LinAlgError subclasses ValueError but is not a usage error
    def fail(M):
        raise np.linalg.LinAlgError("eigenvalues did not converge")

    monkeypatch.setattr("hilbmat.cli.spectral_norm", fail)
    assert main(["norm", "--kind", "A", "--R", "3"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["hilbmat: numerical failure: eigenvalues did not converge"]


def test_lanczos_non_convergence_exits_1(capsys, monkeypatch):
    # a Lanczos solve that does not converge raises LinAlgError, the one
    # numerical-failure type, which keeps exit code 1; a zero tolerance
    # cannot be met, so two restarts run out
    monkeypatch.setattr(spectra, "_LANCZOS_OPTS", dict(tol=0.0, maxiter=2))
    with pytest.raises(np.linalg.LinAlgError,
                       match="^Lanczos did not converge after 2 restarts$"):
        hankel_hilbert_norm(100)
    assert main(["norm", "--kind", "H", "--R", "100"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("hilbmat: numerical failure:")


def test_verify_failure_exits_1(capsys, monkeypatch):
    # only the applicable, non-probe failure counts
    bad = ResidualReport("bad", 1.0, 1.0, 0.0, passed=False)
    probe = dataclasses.replace(bad, name="probe", probe=True)
    moot = dataclasses.replace(bad, name="moot", applicable=False)
    monkeypatch.setattr("hilbmat.identities.run_suite",
                        lambda seeds, max_R: [bad, probe, moot])
    assert main(["verify"]) == 1
    captured = capsys.readouterr()
    assert len(captured.out.splitlines()) == 4  # header plus every report
    failed = [line for line in captured.err.splitlines() if line.startswith("FAILED")]
    assert len(failed) == 1 and failed[0].startswith("FAILED bad: ")


def test_witness_failure_exits_1(capsys, monkeypatch):
    cert = build_witness(100)
    broken = dataclasses.replace(cert, epsilon=cert.epsilon_bound * 2.0)
    monkeypatch.setattr("hilbmat.gaps.build_witness", lambda R: broken)
    assert main(["witness", "--R", "100"]) == 1
    # the line verify prints for a failed report; epsilon's excess is the residual
    assert capsys.readouterr().err.splitlines() == [
        f"FAILED witness_certificate: residual={fmt17(broken.epsilon - broken.epsilon_bound)} "
        f"tol*scale={fmt17(0.0)} {{'R': 100}}"]


def test_gen_matrix_stdout(capsys):
    assert main(["gen", "--kind", "T", "--R", "3"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "c0,c1,c2"
    row2 = [float(v) for v in lines[2].split(",")]
    assert row2 == [1.0, 0.0, -1.0]


def test_gen_hankel_matches_hilbert_hankel(capsys):
    assert main(["gen", "--kind", "H", "--R", "5"]) == 0
    buf = io.StringIO()
    write_matrix_csv(hilbert_hankel(5), buf)
    assert capsys.readouterr().out == buf.getvalue()


def test_norm_t3(capsys):
    assert main(["norm", "--kind", "T", "--R", "3"]) == 0
    assert float(capsys.readouterr().out.strip()) == pytest.approx(1.5, abs=1e-12)


@pytest.mark.parametrize("R", [5, 256, 257, 1000])
@pytest.mark.parametrize("kind,norm", [("T", toeplitz_hilbert_norm),
                                       ("H", hankel_hilbert_norm)])
def test_norm_reads_the_solve_route(capsys, kind, norm, R):
    # the same value as sweep-gap and hankel-gap, on both sides of the cutoff
    assert main(["norm", "--kind", kind, "--R", str(R)]) == 0
    assert capsys.readouterr().out == fmt17(norm(R)) + "\n"


@pytest.mark.parametrize("kind,upper", [
    ("H", np.pi),        # Hankel Hilbert norms stay below pi
    ("prolate", np.pi),  # band indicator height
    ("cosine", 2.0),     # symbol maximum
    ("A", None),
    ("B", None),
])
def test_norm_all_kinds(capsys, kind, upper):
    assert main(["norm", "--kind", kind, "--R", "8", "--seed", "1"]) == 0
    value = float(capsys.readouterr().out.strip())
    assert value > 0
    if upper is not None:
        assert value <= upper


def test_det_t4(capsys):
    assert main(["det", "--T", "4"]) == 0
    out = dict(line.split("=") for line in capsys.readouterr().out.strip().splitlines())
    assert float(out["matching"]) == pytest.approx(169.0 / 144.0, abs=1e-14)
    assert float(out["lu"]) == pytest.approx(169.0 / 144.0, abs=1e-12)
    assert float(out["pfaffian_sq"]) == pytest.approx(169.0 / 144.0, abs=1e-14)


def test_det_random_even(capsys):
    assert main(["det", "--R", "6", "--seed", "4"]) == 0
    out = dict(line.split("=") for line in capsys.readouterr().out.strip().splitlines())
    assert float(out["matching"]) == pytest.approx(float(out["lu"]), rel=1e-9)


def test_det_odd_beyond_the_cap(capsys):
    assert main(["det", "--R", "23"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "matching=0"


def test_verify_small_suite(tmp_path):
    out = tmp_path / "reports.csv"
    assert main(["verify", "--seeds", "3", "--max-R", "10", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "name,seed,R,max_residual,scale,passed"
    assert len(lines) > 20


def test_verify_byte_identical(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    main(["verify", "--seeds", "2", "--max-R", "8", "--out", str(a)])
    main(["verify", "--seeds", "2", "--max-R", "8", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_sweep_gap(tmp_path):
    out = tmp_path / "figure1.csv"
    assert main(["sweep-gap", "--R-max", "60", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "R,norm,gap,rescaled_gap"
    assert lines[1].startswith("2,")
    assert lines[-1].startswith("60,")


def test_hankel_sweep_bytes_do_not_depend_on_blas_threads(run_python):
    # each command runs in two fresh interpreters, which share no state, one
    # at 1 and one at 2 OpenBLAS threads: every spectra solve runs on one
    # thread whatever the caller set. Without that, the dense T_R rows of
    # sweep-gap (R = 195..600, when T_R was dense up to R = 600) moved in the
    # last bits between 1 and 2 threads, and so did H_R's eigvalsh at
    # R = 169..252 when H_R was dense up to R = 256; gs-rate's dense
    # spectral_norm solves are held to the same. Both sweeps pass their dense
    # cutoffs, so iterative solves on the cached FFT run too: T_R from
    # R = 341 (its parity block has dimension ceil(R/2)), H_R from 89
    for argv in (["sweep-gap", "--R-max", "700"], ["hankel-gap", "--R-max", "300"],
                 ["gs-rate"]):
        one, two = (run_python(["-m", "hilbmat.cli", *argv], env={"OPENBLAS_NUM_THREADS": n})
                    for n in ("1", "2"))
        assert one.returncode == two.returncode == 0, argv
        if argv[0] != "gs-rate":
            assert one.stdout.startswith(b"R,norm,gap,"), argv
        assert (one.stdout, one.stderr) == (two.stdout, two.stderr), argv


def test_eigvec_profile(tmp_path, capsys):
    out = tmp_path / "figure2.csv"
    assert main(["eigvec-profile", "--S", "4", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "n,abs_u_n"
    assert len(lines) == 10
    err = capsys.readouterr().err
    assert "monotone_decay_from_center" in err


def test_witness(tmp_path):
    out = tmp_path / "witness.csv"
    assert main(["witness", "--R", "100", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "R,M,N,gamma,epsilon,epsilon_bound,rayleigh,gap_bound"
    assert len(lines) == 2


def test_prolate_gap(tmp_path, capsys):
    out = tmp_path / "prolate.csv"
    assert main(["prolate-gap", "--w", "0.25", "--R-min", "2", "--R-max", "12",
                    "--out", str(out)]) == 0
    assert out.read_text().splitlines()[0] == "R,gap,log_gap"
    assert "fit_slope=" in capsys.readouterr().err


def test_hankel_gap(tmp_path):
    out = tmp_path / "hankel.csv"
    assert main(["hankel-gap", "--R-max", "8", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "R,norm,gap,wilf_ratio"
    assert len(lines) == 9


def test_gs_rate(tmp_path):
    out = tmp_path / "gs.csv"
    assert main(["gs-rate", "--R", "10", "20", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "R,gap,predicted,ratio"
    gap = float(lines[1].split(",")[1])
    assert gap == pytest.approx(2 - 2 * np.cos(np.pi / 11), abs=1e-12)
