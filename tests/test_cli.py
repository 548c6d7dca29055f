import json
import math

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
