"""Command line driver.

    orlicz-dynamics check       --config cfg.json [--out report.json]
    orlicz-dynamics simulate    --config cfg.json [--out report.json]
    orlicz-dynamics norm        --config cfg.json --vector vec.json
    orlicz-dynamics probe-young --config cfg.json [--out report.json]

Exit codes: 0 witness found (or computation succeeded), 2 obstruction
found, 3 inconclusive within budget (or flagged), 1 error.  Reports are
deterministic given the config, and the evaluator is sequential.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import fields
from functools import cache
from operator import itemgetter
from pathlib import Path

from . import __version__
from .config import RunConfig, emit_config, load_config, vector_from_file
from .criteria import Outcome, Property, SeriesPoint, run_check
from .errors import OrliczDynamicsError, TailUnboundedError
from .lab import SeedOrbit, chaos_periodic_vector, choose_truncation, empirical_return, orbit_norm_series
from .orlicz import OrliczVector, luxemburg_norm, modular
from .report import make_envelope, render_envelope, write_envelope, write_series_csv
from .young import complementary, delta2_probe

EXIT_WITNESS = 0
EXIT_ERROR = 1
EXIT_OBSTRUCTION = 2
EXIT_INCONCLUSIVE = 3

_OUTCOME_EXIT = {
    Outcome.WITNESS_FOUND: EXIT_WITNESS,
    Outcome.OBSTRUCTION_FOUND: EXIT_OBSTRUCTION,
    Outcome.INCONCLUSIVE: EXIT_INCONCLUSIVE,
}


def cmd_check(cfg: RunConfig) -> tuple[dict, int]:
    verdict = run_check(cfg.request)
    code = _OUTCOME_EXIT[verdict.outcome]
    return {"command": "check", "verdict": verdict.to_json(), "exit_code": code}, code


def cmd_simulate(cfg: RunConfig) -> tuple[dict, int]:
    req = cfg.request
    verdict = run_check(req)
    results: dict = {"command": "simulate", "verdict": verdict.to_json(), "lab": [], "flag": None}
    if verdict.outcome is not Outcome.WITNESS_FOUND:
        if req.property is Property.CHAOTIC and verdict.tail_bounded is False:
            results["flag"] = "tail_unbounded"
        return results, _OUTCOME_EXIT[verdict.outcome]

    orbit = SeedOrbit(req.system, OrliczVector.indicator(req.K))
    norm_f = orbit.norm(0)
    depth = req.L if req.property is Property.MULTIPLY_RECURRENT else 1
    ok = True
    try:
        for entry in verdict.witness:
            if req.property is Property.CHAOTIC:
                L_trunc = choose_truncation(orbit, entry.n, cap=min(req.L_max, 32))
                _, rep = chaos_periodic_vector(orbit, entry.n, L_trunc)
                ok &= rep.within_bound and rep.approx_residual <= entry.epsilon * norm_f * (1 + 1e-9)
                results["lab"].append({"epsilon": entry.epsilon, "periodicity": vars(rep).copy()})
            else:
                # Residuals of the witness vector are bounded by
                # depth * epsilon * N(chi_K); that bound is the target.
                target = entry.epsilon * depth * norm_f * (1 + 1e-9)
                rep = empirical_return(orbit, entry.n, depth, target)
                ok &= rep.success
                results["lab"].append({"epsilon": entry.epsilon, "return": vars(rep).copy()})
    except TailUnboundedError as exc:
        results["flag"] = "tail_unbounded"
        results["lab"].append({"error": str(exc)})
        code = EXIT_INCONCLUSIVE
    else:
        code = EXIT_WITNESS if ok else EXIT_ERROR
    results["orbit_norms"] = orbit_norm_series(orbit, min(req.N_max, 32))
    return results, code


def cmd_norm(cfg: RunConfig, vector_path: str) -> tuple[dict, int]:
    group, young = cfg.request.system.group, cfg.request.system.young
    vec = vector_from_file(vector_path, group)
    value = luxemburg_norm(vec, young)
    mod = modular(vec, young, value) if value > 0.0 else 0.0
    return {"command": "norm", "norm": value, "modular_at_norm": mod, "support_size": len(vec)}, EXIT_WITNESS


def cmd_probe_young(cfg: RunConfig) -> tuple[dict, int]:
    young = cfg.request.system.young
    probe = delta2_probe(young, 1e-3, 1e3, 200)
    table = []
    for i in range(128):
        y = 8.0 * i / 127.0
        table.append([y, complementary(young, y)])
    return {"command": "probe-young", "delta2": vars(probe).copy(), "conjugate_table": table}, EXIT_WITNESS


# The lambdas look each cmd_* up when called, so wrappers set on the
# module attributes (as bench/tracing.py does) take effect.
_COMMANDS = {
    "check": lambda cfg, args: cmd_check(cfg),
    "simulate": lambda cfg, args: cmd_simulate(cfg),
    "norm": lambda cfg, args: cmd_norm(cfg, args.vector),
    "probe-young": lambda cfg, args: cmd_probe_young(cfg),
}


# parse_args leaves the parser as it was, so one serves every main call.
@cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="orlicz-dynamics", description=__doc__)
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="run config JSON")
        p.add_argument("--out", default=None, help="write the report JSON here")
        if name == "norm":
            p.add_argument("--vector", required=True, help="vector JSON ([[coords, value], ...])")
    return parser


def _emit(envelope: dict, out: str | None, command: str) -> None:
    if not out:
        print(render_envelope(envelope))
        return
    write_envelope(out, envelope)
    stem = Path(out)
    try:
        if command in ("check", "simulate"):
            header = [f.name for f in fields(SeriesPoint)]
            rows = map(itemgetter(*header), envelope["results"]["verdict"]["series"])
            write_series_csv(stem.with_suffix(".series.csv"), header, rows)
        if command == "simulate" and "orbit_norms" in envelope["results"]:
            rows = list(enumerate(envelope["results"]["orbit_norms"]))
            write_series_csv(stem.with_suffix(".orbit.csv"), ("n", "value"), rows)
        if command == "probe-young":
            rows = envelope["results"]["conjugate_table"]
            write_series_csv(stem.with_suffix(".conjugate.csv"), ("y", "psi"), rows)
    except OSError:
        stem.unlink()  # a report without its sidecars would read as a complete run
        raise


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        t0 = time.perf_counter()
        results, code = _COMMANDS[args.command](cfg, args)
    except OrliczDynamicsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    envelope = make_envelope(
        emit_config(cfg), results, timings={"total_s": time.perf_counter() - t0}, version=__version__
    )
    try:
        _emit(envelope, args.out, args.command)
    except OSError as exc:
        print(f"error: --out: cannot write {exc.filename or args.out}: {exc.strerror or exc}", file=sys.stderr)
        return EXIT_ERROR
    summary = results.get("verdict", {}).get("outcome", args.command)
    print(f"{args.command}: {summary} (exit {code})", file=sys.stderr)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
