"""Command-line entry point.

Subcommands: coeffs, sample, count, kac-rice, experiment, limit-cycles,
ode-verify.  Every output file embeds the invocation and seed needed to
reproduce it; no timestamps, so reruns are byte-identical.

Exit codes: 0 success, 1 usage error, 2 numeric failure (quadrature,
eigenvalue, or ODE non-convergence), 3 acceptance-check failure in
`experiment --check` mode.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import __version__
from .coeffs import CoeffScheme, coeff_vector
from .errors import KaccyclesError, DomainError
from .kacrice import REGIONS, asymptotic_prediction, expected_roots_region
from .rootcount import Interval, count_in_interval, sturm_count
from .sampler import NoiseDistribution, PerturbationCoefficients, SeedSpec, noise_rows
from .melnikov import PerturbedSystem, count_bifurcating_cycles, verify_cycles_ode
from .experiment import parse_config_file, run_experiment, write_outputs

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERIC = 2
EXIT_CHECK = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def _strip_out_flag(args):
    """Invocation echo without the destination path, so identical inputs
    produce identical bytes wherever they are written."""
    kept, skip = [], False
    for a in args:
        if skip:
            skip = False
            continue
        if a == "--out":
            skip = True
            continue
        if a.startswith("--out="):
            continue
        kept.append(a)
    return kept


def _envelope(args, rows, columns, warnings=()):
    return {
        "version": __version__,
        "invocation": " ".join(_strip_out_flag(args)),
        "columns": columns,
        "rows": rows,
        "warnings": list(warnings),
    }


def _write(payload, out: str | None, fmt: str, argv):
    """CSV or JSON with an invocation echo; stdout when no --out."""
    lines = []
    if fmt == "csv":
        lines.append(f"# kaccycles {__version__}")
        lines.append(f"# invocation: {payload['invocation']}")
        for w in payload["warnings"]:
            lines.append(f"# warning: {w}")
        lines.append(",".join(payload["columns"]))
        for row in payload["rows"]:
            lines.append(",".join("" if v is None else
                                  (repr(float(v)) if isinstance(v, float) else str(v))
                                  for v in row))
        text = "\n".join(lines) + "\n"
    else:
        keyed = [dict(zip(payload["columns"], row)) for row in payload["rows"]]
        text = json.dumps({**payload, "rows": keyed}, indent=2, default=float) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _read_coeff_file(path: str) -> np.ndarray:
    """Realized coefficients from a sample CSV/JSON (or one bare column);
    a file with no coefficient, or a NaN or infinite one, is a
    ``DomainError``."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    vals = []
    if text.lstrip().startswith("{"):
        rows = json.loads(text)["rows"]
        col = -1
        if rows and isinstance(rows[0], dict):
            col = "realized" if "realized" in rows[0] else "c_m"
        vals = [float(r[col]) for r in rows]
    else:
        header = None
        for line in text.splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(",")
            try:
                float(parts[-1])
            except ValueError:
                header = parts
                continue
            col = header.index("realized") if header and "realized" in header else -1
            vals.append(float(parts[col]))
    coeffs = np.array(vals)
    if coeffs.size == 0:
        raise DomainError(f"{path}: holds no coefficient")
    if not np.isfinite(coeffs).all():
        raise DomainError(f"{path}: coefficients must be finite numbers")
    return coeffs


def build_parser() -> _Parser:
    p = _Parser(prog="kaccycles",
                description="Real zeros of random polynomials and limit cycles "
                            "of randomly perturbed centers")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, seed_required=False):
        sp.add_argument("--out", default=None)
        sp.add_argument("--format", choices=("csv", "json"), default="csv")
        sp.add_argument("--seed", type=int, required=seed_required, default=None)

    sp = sub.add_parser("coeffs", help="deterministic coefficients of a scheme")
    sp.add_argument("--scheme", required=True)
    sp.add_argument("--degree", type=int, required=True)
    common(sp)

    sp = sub.add_parser("sample", help="one realized random polynomial")
    sp.add_argument("--scheme", required=True)
    sp.add_argument("--dist", required=True)
    sp.add_argument("--degree", type=int, required=True)
    common(sp, seed_required=True)

    sp = sub.add_parser("count", help="count real roots in an interval")
    sp.add_argument("--coeffs", required=True, help="coefficient file (CSV/JSON)")
    sp.add_argument("--interval", default="-inf,inf")
    sp.add_argument("--method", choices=("companion", "sturm"), default="companion")
    common(sp)

    sp = sub.add_parser("kac-rice", help="expected zero count, Gaussian noise")
    sp.add_argument("--scheme", required=True)
    sp.add_argument("--degree", type=int, required=True)
    sp.add_argument("--region", choices=REGIONS, default="R")
    sp.add_argument("--tol", type=float, default=1e-8)
    common(sp)

    sp = sub.add_parser("experiment", help="Monte Carlo grid from a config file")
    sp.add_argument("--config", required=True)
    sp.add_argument("--out", required=True, help="output directory")
    sp.add_argument("--check", action="store_true",
                    help="exit 3 when a theory band fails")
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--workers", type=int, default=None,
                    help="accepted and ignored: trials run in one process")

    sp = sub.add_parser("limit-cycles", help="Melnikov cycle counts over trials")
    sp.add_argument("--kind", choices=("center", "lienard"), required=True)
    sp.add_argument("--degree", type=int, required=True)
    sp.add_argument("--dist", default="gauss")
    sp.add_argument("--trials", type=int, default=1)
    common(sp, seed_required=True)

    sp = sub.add_parser("ode-verify", help="cross-check cycles by return-map")
    sp.add_argument("--kind", choices=("center", "lienard"), required=True)
    sp.add_argument("--degree", type=int, required=True)
    sp.add_argument("--dist", default="gauss")
    sp.add_argument("--trials", type=int, default=1)
    sp.add_argument("--epsilon-start", type=float, default=1e-3,
                    help="first eps0 of the halving schedule, in (0, 1); radius r "
                         "integrates with eps0 max(r, 1)^(1-d)")
    common(sp, seed_required=True)
    return p


def _cmd_coeffs(ns, argv) -> int:
    scheme = CoeffScheme.parse(ns.scheme)
    cv = coeff_vector(scheme, ns.degree)
    m = np.arange(ns.degree + 1)
    rows = [[int(i), float(c), float(i * c * c)] for i, c in zip(m, cv.values)]
    _write(_envelope(argv, rows, ["m", "c_m", "m_c_m_sq"]), ns.out, ns.format, argv)
    return EXIT_OK


def _cmd_sample(ns, argv) -> int:
    scheme = CoeffScheme.parse(ns.scheme)
    dist = NoiseDistribution.parse(ns.dist)
    cv = coeff_vector(scheme, ns.degree)
    noise = noise_rows(dist, ns.degree, ns.seed, 0, 1)[0]
    rows = [[int(i), float(c), float(x), float(r)] for i, (c, x, r) in
            enumerate(zip(cv.values, noise, cv.values * noise))]
    _write(_envelope(argv, rows, ["m", "c_m", "noise", "realized"]),
           ns.out, ns.format, argv)
    return EXIT_OK


def _cmd_count(ns, argv) -> int:
    coeffs = _read_coeff_file(ns.coeffs)
    iv = Interval.parse(ns.interval)
    warnings = []
    if ns.method == "sturm":
        ints = [int(round(c)) for c in coeffs]
        if any(abs(i - c) > 0 for i, c in zip(ints, coeffs)):
            warnings.append("coefficients rounded to integers for the exact method")
        count = sturm_count(ints, iv)
        rows = [[count, "sturm", None]]
    else:
        rep = count_in_interval(coeffs, iv)
        if rep.zero_polynomial:
            warnings.append("zero polynomial: no roots by convention")
        rows = [[rep.count, rep.method, rep.max_residual]]
        rows += [[None, f"root:{r}", m] for r, m in
                 zip(rep.roots.tolist(), rep.multiplicities.tolist())]
    _write(_envelope(argv, rows, ["count", "method", "max_residual"], warnings),
           ns.out, ns.format, argv)
    return EXIT_OK


def _cmd_kacrice(ns, argv) -> int:
    scheme = CoeffScheme.parse(ns.scheme)
    cv = coeff_vector(scheme, ns.degree)
    value, err = (float(x) for x in expected_roots_region(cv, ns.region, ns.tol))
    asym = asymptotic_prediction(scheme.effective_rho, ns.region, ns.degree)
    ratio = value / asym if asym else None
    rows = [[ns.region, value, err, asym, ratio]]
    _write(_envelope(argv, rows,
                     ["region", "value", "error_estimate", "asymptotic", "ratio"]),
           ns.out, ns.format, argv)
    return EXIT_OK


def _cmd_experiment(ns, argv) -> int:
    cfg = parse_config_file(ns.config)
    if ns.seed is not None:
        cfg.master_seed = ns.seed
    if cfg.master_seed is None:
        raise DomainError("experiment mode requires a seed "
                          "(config master_seed or --seed)")
    if ns.workers is not None:
        cfg.workers = ns.workers
    result = run_experiment(cfg)
    theory = write_outputs(result, ns.out)
    if ns.check:
        if theory is None:
            raise DomainError("--check needs at least 3 degrees n >= 1 for the fits")
        if not theory.all_passed:
            failed = [c for c in theory.row_checks if not c["passed"]]
            for c in failed:
                sys.stderr.write(f"check failed: n={c['n']} region={c['region']}: "
                                 f"{c['detail']}\n")
            return EXIT_CHECK
    return EXIT_OK


def _cmd_cycles(ns, argv) -> int:
    """limit-cycles, and ode-verify, which adds the ODE cross-check's count."""
    if ns.trials < 1:
        raise DomainError("--trials must be at least 1")
    with_ode = ns.command == "ode-verify"
    dist = NoiseDistribution.parse(ns.dist)
    rows = []
    for trial in range(ns.trials):
        seed = SeedSpec(ns.seed, trial=trial)
        if ns.kind == "center":
            pc = PerturbationCoefficients.sample_full(ns.degree, dist, seed)
        else:
            pc = PerturbationCoefficients.sample_lienard(ns.degree, dist, seed)
        sysm = PerturbedSystem(ns.kind, pc)
        rep = count_bifurcating_cycles(sysm)
        ode_count = None
        if with_ode:
            ode_count = verify_cycles_ode(sysm, eps_start=ns.epsilon_start).count
        rows.append([trial, rep.count, ode_count,
                     ";".join(repr(float(r)) for r in rep.radii)])
    _write(_envelope(argv, rows, ["trial", "melnikov_count", "ode_count", "radii"]),
           ns.out, ns.format, argv)
    return EXIT_OK


_COMMANDS = {
    "coeffs": _cmd_coeffs,
    "sample": _cmd_sample,
    "count": _cmd_count,
    "kac-rice": _cmd_kacrice,
    "experiment": _cmd_experiment,
    "limit-cycles": _cmd_cycles,
    "ode-verify": _cmd_cycles,
}


def dispatch(argv: list[str]) -> int:
    # argparse mistakes interval values like "-2,2" for flags; fold them in
    folded = []
    i = 0
    while i < len(argv):
        if argv[i] == "--interval" and i + 1 < len(argv):
            folded.append(f"--interval={argv[i + 1]}")
            i += 2
            continue
        folded.append(argv[i])
        i += 1
    argv = folded
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code) if e.code is not None else EXIT_USAGE
    try:
        return _COMMANDS[ns.command](ns, argv)
    except DomainError as e:
        sys.stderr.write(f"error: {e}\n")
        return EXIT_USAGE
    except KaccyclesError as e:
        sys.stderr.write(f"numeric failure in {ns.command}: {e}\n")
        return EXIT_NUMERIC
    except np.linalg.LinAlgError as e:
        sys.stderr.write(f"numeric failure in {ns.command}: eigensolver: {e}\n")
        return EXIT_NUMERIC


def main() -> None:
    raise SystemExit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
