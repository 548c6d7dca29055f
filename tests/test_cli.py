import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from kaccycles import melnikov
from kaccycles.cli import dispatch


def run(capsys, *argv):
    code = dispatch(list(argv))
    return code, capsys.readouterr().out


def test_coeffs_csv_rows(capsys):
    code, out = run(capsys, "coeffs", "--scheme", "lienard", "--degree", "5")
    assert code == 0
    data_lines = [l for l in out.splitlines() if l and not l.startswith("#")]
    assert data_lines[0] == "m,c_m,m_c_m_sq"
    assert len(data_lines) == 7   # header + 6 rows
    first = data_lines[1].split(",")
    assert int(first[0]) == 0
    assert abs(float(first[1]) - math.sqrt(math.pi) / 2.0) < 1e-12


def test_unknown_flag_exits_one(capsys):
    assert dispatch(["coeffs", "--scheme", "center", "--no-such-flag"]) == 1
    assert dispatch(["not-a-command"]) == 1


def test_workers_is_an_experiment_flag_only(capsys):
    argvs = {
        "coeffs": ["--scheme", "center", "--degree", "3"],
        "sample": ["--scheme", "center", "--dist", "gauss", "--degree", "3",
                   "--seed", "1"],
        "count": ["--coeffs", "c.csv"],
        "kac-rice": ["--scheme", "center", "--degree", "3"],
        "limit-cycles": ["--kind", "center", "--degree", "3", "--seed", "1"],
        "ode-verify": ["--kind", "center", "--degree", "3", "--seed", "1"],
    }
    for command, argv in argvs.items():
        assert dispatch([command, *argv, "--workers", "2"]) == 1, command
    assert dispatch(["coeffs", *argvs["coeffs"]]) == 0


def test_csv_json_numeric_equivalence(capsys):
    code, csv_out = run(capsys, "coeffs", "--scheme", "power:-0.5", "--degree", "4")
    assert code == 0
    code, json_out = run(capsys, "coeffs", "--scheme", "power:-0.5", "--degree", "4",
                         "--format", "json")
    assert code == 0
    doc = json.loads(json_out)
    csv_rows = [l.split(",") for l in csv_out.splitlines()
                if l and not l.startswith(("#", "m,"))]
    assert len(csv_rows) == len(doc["rows"])
    for cr, jr in zip(csv_rows, doc["rows"]):
        assert float(cr[1]) == jr["c_m"]
        assert float(cr[2]) == jr["m_c_m_sq"]


def test_sample_reproducible(capsys, tmp_path):
    f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
    for f in (f1, f2):
        code = dispatch(["sample", "--scheme", "center", "--dist", "gauss",
                         "--degree", "20", "--seed", "77", "--out", str(f)])
        assert code == 0
    assert f1.read_bytes() == f2.read_bytes()


def test_sample_bytes_are_pinned(capsys):
    # the one-trial batch draw of the sample command, byte for byte
    code, out = run(capsys, "sample", "--scheme", "center", "--dist", "gauss",
                    "--degree", "300", "--seed", "11")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "e58414988a182e5a80f13b39316c81f10d9ce5f17e184aefb0d323614a780ebf"


def test_sample_requires_seed(capsys):
    assert dispatch(["sample", "--scheme", "center", "--dist", "gauss",
                     "--degree", "5"]) == 1


def test_count_roundtrip(capsys, tmp_path):
    f = tmp_path / "poly.csv"
    # x^2 - 1 as a bare column
    f.write_text("-1.0\n0.0\n1.0\n")
    code, out = run(capsys, "count", "--coeffs", str(f), "--interval", "-2,2")
    assert code == 0
    row = [l for l in out.splitlines() if l and not l.startswith(("#", "count"))][0]
    assert row.split(",")[0] == "2"


def test_count_sturm_method(capsys, tmp_path):
    f = tmp_path / "poly.csv"
    f.write_text("0\n-1\n0\n1\n")   # x^3 - x
    code, out = run(capsys, "count", "--coeffs", str(f), "--interval", "-2,2",
                    "--method", "sturm")
    assert code == 0
    row = [l for l in out.splitlines() if l and not l.startswith(("#", "count"))][0]
    assert row.split(",")[0] == "3"


@pytest.mark.parametrize("method", ["companion", "sturm"])
@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_count_rejects_non_finite_coefficients(capsys, tmp_path, method, bad):
    # a bad coefficient file is a usage error under either method
    for name, text in (("poly.csv", f"1.0\n{bad}\n1.0\n"),
                       ("poly.json", '{"rows": [[0, 1.0], [1, "%s"]]}' % bad)):
        f = tmp_path / name
        f.write_text(text)
        code = dispatch(["count", "--coeffs", str(f), "--method", method])
        assert code == 1, (name, method, bad)
        assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize("method", ["companion", "sturm"])
def test_count_rejects_a_file_without_coefficients(capsys, tmp_path, method):
    # an empty file is a usage error under either method, not a numeric failure
    for name, text in (("empty.csv", ""), ("empty.json", '{"rows": []}')):
        f = tmp_path / name
        f.write_text(text)
        code = dispatch(["count", "--coeffs", str(f), "--method", method])
        assert code == 1, (name, method)
        assert "no coefficient" in capsys.readouterr().err


def test_count_consumes_sample_output(capsys, tmp_path):
    f = tmp_path / "sample.csv"
    assert dispatch(["sample", "--scheme", "power:0", "--dist", "rademacher",
                     "--degree", "12", "--seed", "5", "--out", str(f)]) == 0
    code, out = run(capsys, "count", "--coeffs", str(f))
    assert code == 0


def test_kacrice_row(capsys):
    code, out = run(capsys, "kac-rice", "--scheme", "power:0", "--degree", "1000",
                    "--region", "1inf", "--tol", "1e-7")
    assert code == 0
    row = [l for l in out.splitlines() if l and not l.startswith(("#", "region"))][0]
    fields = row.split(",")
    value, asym, ratio = float(fields[1]), float(fields[3]), float(fields[4])
    assert abs(asym - math.log(1000) / (2 * math.pi)) < 1e-9
    assert 0.5 < ratio < 2.0
    assert abs(ratio - value / asym) < 1e-12


@pytest.mark.parametrize("tol", ["0", "nan", "-1e-8", "inf"])
def test_kacrice_rejects_tolerance(capsys, tol):
    # refused before the first quadrature panel: a usage error, at once
    code, out = run(capsys, "kac-rice", "--scheme", "center", "--degree", "1000",
                    f"--tol={tol}")
    assert code == 1 and out == ""


@pytest.mark.parametrize("tol", ["0", "nan", "-1e-8"])
def test_kacrice_rejects_tolerance_where_the_region_is_empty(capsys, tol):
    # In is empty at degree 5: no panel runs, and the tolerance is refused
    code, out = run(capsys, "kac-rice", "--scheme", "center", "--degree", "5",
                    "--region", "In", f"--tol={tol}")
    assert code == 1 and out == ""


def test_kacrice_below_degree_three_has_no_asymptotic(capsys):
    code, out = run(capsys, "kac-rice", "--scheme", "center", "--degree", "2")
    assert code == 0
    row = [l for l in out.splitlines() if l and not l.startswith(("#", "region"))][0]
    assert row.split(",")[3:] == ["", ""]


def test_kacrice_takes_every_region(capsys):
    values = {}
    for region in ("neg1inf", "1inf"):
        code, out = run(capsys, "kac-rice", "--scheme", "center", "--degree", "100",
                        "--region", region)
        assert code == 0, region
        row = [l for l in out.splitlines() if l and not l.startswith(("#", "region"))]
        values[region] = float(row[0].split(",")[1])
    # only squared coefficients enter: (-inf, -1) mirrors (1, inf)
    assert values["neg1inf"] == values["1inf"]


def test_experiment_run_and_check(capsys, tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "scheme = center\ndist = gauss\ndegrees = 60, 120, 240\n"
        "regions = 1inf\ntrials = 400\nmaster_seed = 31\nband_lo = 0.5\n"
        "band_hi = 1.6\n")
    out_dir = tmp_path / "out"
    code = dispatch(["experiment", "--config", str(cfg), "--out", str(out_dir),
                     "--check"])
    assert code == 0
    assert (out_dir / "estimates.csv").exists()
    assert (out_dir / "report.json").exists()
    report = json.loads((out_dir / "report.json").read_text())
    assert report["theory"]["all_passed"]
    # absurdly narrow band must trip exit code 3
    cfg.write_text(
        "scheme = center\ndist = gauss\ndegrees = 60, 120, 240\n"
        "regions = 1inf\ntrials = 400\nmaster_seed = 31\nband_lo = 0.999\n"
        "band_hi = 1.001\n")
    code = dispatch(["experiment", "--config", str(cfg), "--out", str(out_dir),
                     "--check"])
    assert code == 3


def test_experiment_with_degree_zero_writes_every_file(capsys, tmp_path):
    # log n is undefined at n = 0: the fits and plot files use the rows with
    # n >= 1, of which there are three
    cfg = tmp_path / "zero.cfg"
    cfg.write_text("scheme = center\ndist = gauss\ndegrees = 0, 5, 10, 20\n"
                   "regions = 01, R\ntrials = 64\nmaster_seed = 3\n")
    out_dir = tmp_path / "out"
    assert dispatch(["experiment", "--config", str(cfg), "--out", str(out_dir)]) == 0
    for name in ("estimates.csv", "moments.csv", "report.json"):
        assert (out_dir / name).exists(), name
    report = json.loads((out_dir / "report.json").read_text())
    assert [r["n"] for r in report["rows"]] == [0, 0, 5, 5, 10, 10, 20, 20]
    assert len(report["theory"]["fits"]) == 2
    assert len(report["theory"]["row_checks"]) == 8
    for region in ("01", "R"):
        for tag in ("logn", "sqrtlogn"):
            lines = (out_dir / f"plot_{region}_{tag}.csv").read_text().splitlines()
            assert len(lines) == 4, (region, tag)


def test_experiment_rejects_negative_degree(capsys, tmp_path):
    cfg = tmp_path / "neg.cfg"
    cfg.write_text("scheme = center\ndist = gauss\ndegrees = -1\n"
                   "regions = 01\ntrials = 64\nmaster_seed = 3\n")
    assert dispatch(["experiment", "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 1
    assert "nonnegative" in capsys.readouterr().err


@pytest.mark.parametrize("line", ["moments = -1, 0", "band_lo = 1.5", "band_hi = inf"])
def test_experiment_rejects_moment_orders_and_bands(capsys, tmp_path, line):
    # a usage error found before any trial is drawn: exit 1, no output
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("scheme = center\ndist = gauss\ndegrees = 60\nregions = 01\n"
                   f"trials = 64\nmaster_seed = 3\n{line}\n")
    out_dir = tmp_path / "out"
    assert dispatch(["experiment", "--config", str(cfg), "--out", str(out_dir)]) == 1
    assert not out_dir.exists()


def test_experiment_requires_seed(capsys, tmp_path):
    cfg = tmp_path / "noseed.cfg"
    cfg.write_text("scheme = center\ndist = gauss\ndegrees = 60\n"
                   "regions = 01\ntrials = 64\n")
    out_dir = tmp_path / "out2"
    assert dispatch(["experiment", "--config", str(cfg), "--out", str(out_dir)]) == 1
    assert dispatch(["experiment", "--config", str(cfg), "--out", str(out_dir),
                     "--seed", "11"]) == 0


def test_limit_cycles_rows(capsys):
    code, out = run(capsys, "limit-cycles", "--kind", "lienard", "--degree", "7",
                    "--dist", "gauss", "--seed", "3", "--trials", "4")
    assert code == 0
    rows = [l for l in out.splitlines() if l and not l.startswith(("#", "trial"))]
    assert len(rows) == 4
    for i, row in enumerate(rows):
        fields = row.split(",")
        assert int(fields[0]) == i
        assert int(fields[1]) >= 0


def test_ode_verify_row(capsys):
    code, out = run(capsys, "ode-verify", "--kind", "center", "--degree", "3",
                    "--dist", "gauss", "--seed", "12", "--trials", "1",
                    "--epsilon-start", "1e-2")
    assert code == 0
    rows = [l for l in out.splitlines() if l and not l.startswith(("#", "trial"))]
    fields = rows[0].split(",")
    assert int(fields[1]) >= 0 and int(fields[2]) >= 0


@pytest.mark.parametrize("eps_start", ["0", "-1", "nan", "2", "1.99e-5"])
def test_ode_verify_rejects_eps_start(capsys, eps_start):
    code, _out = run(capsys, "ode-verify", "--kind", "center", "--degree", "3",
                     "--seed", "12", f"--epsilon-start={eps_start}")
    assert code == 1


def test_ode_verify_exits_two_when_no_two_levels_agree(capsys, monkeypatch):
    def alternating(field, eps0, r):
        # one sign change at every other eps level, none between them
        level = np.rint(np.log2(1e-3 / np.asarray(eps0)))
        cut = r.min() + (r.max() - r.min()) / math.pi
        return np.where(level % 2 == 1, r - cut, 1.0)

    monkeypatch.setattr(melnikov, "_displacement", alternating)
    code = dispatch(["ode-verify", "--kind", "center", "--degree", "3",
                     "--seed", "12", "--trials", "1"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "never stabilized" in captured.err


@pytest.mark.parametrize("command", ["limit-cycles", "ode-verify"])
@pytest.mark.parametrize("trials", ["0", "-2", "-5"])
def test_cycles_reject_trials_below_one(capsys, command, trials):
    # refused before any trial runs: a usage error with no header on stdout
    code = dispatch([command, "--kind", "center", "--degree", "3",
                     "--seed", "1", f"--trials={trials}"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert "--trials" in captured.err


def test_import_loads_no_scipy():
    # the package depends on numpy alone; scipy serves only the benchmark oracles
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    code = ("import sys, kaccycles, kaccycles.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True).stdout
    assert out.strip() == "[]"
