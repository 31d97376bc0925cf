"""Command line driver.

    orlicz-dynamics check       --config cfg.json [--out report.json]
    orlicz-dynamics simulate    --config cfg.json [--out report.json]
    orlicz-dynamics norm        --config cfg.json --vector vec.json
    orlicz-dynamics probe-young --config cfg.json [--out report.json]

Exit codes: 0 witness found (or computation succeeded), 2 obstruction
found, 3 inconclusive within budget (or flagged), 1 error.  Reports are
deterministic given config and seed; the evaluator is sequential.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from . import __version__
from .config import RunConfig, emit_config, load_config, vector_from_file
from .criteria import Outcome, Property, Verdict, run_check
from .errors import OrliczDynamicsError, TailUnboundedError
from .lab import chaos_periodic_vector, choose_truncation, empirical_return, orbit_norm_series
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


def _series_rows(verdict: Verdict):
    for p in verdict.series:
        yield (p.n, p.sup_phi, p.sup_phi_tilde, p.chaos_sum)


def cmd_check(cfg: RunConfig) -> tuple[dict, int]:
    t0 = time.perf_counter()
    verdict = run_check(cfg.request())
    code = _OUTCOME_EXIT[verdict.outcome]
    results = {"command": "check", "verdict": verdict.to_json(), "exit_code": code}
    envelope = make_envelope(
        emit_config(cfg),
        results,
        timings={"total_s": time.perf_counter() - t0},
        version=__version__,
    )
    return envelope, code


def cmd_simulate(cfg: RunConfig) -> tuple[dict, int]:
    t0 = time.perf_counter()
    verdict = run_check(cfg.request())
    results: dict = {"command": "simulate", "verdict": verdict.to_json(), "lab": [], "flag": None}
    if verdict.outcome is not Outcome.WITNESS_FOUND:
        if verdict.property is Property.CHAOTIC and verdict.tail_bounded is False:
            results["flag"] = "tail_unbounded"
        code = _OUTCOME_EXIT[verdict.outcome]
        envelope = make_envelope(
            emit_config(cfg), results,
            timings={"total_s": time.perf_counter() - t0}, version=__version__,
        )
        return envelope, code

    sys_ = cfg.system()
    f = OrliczVector.indicator(cfg.K)
    norm_f = luxemburg_norm(f, cfg.young)
    depth = cfg.L if cfg.property is Property.MULTIPLY_RECURRENT else 1
    ok = True
    code = EXIT_WITNESS
    try:
        for entry in verdict.witness:
            if cfg.property is Property.CHAOTIC:
                L_trunc = choose_truncation(sys_, f, entry.n, cap=min(cfg.L_max, 32))
                _, rep = chaos_periodic_vector(sys_, f, entry.n, L_trunc)
                ok &= rep.within_bound and rep.approx_residual <= entry.epsilon * norm_f * (1 + 1e-9)
                results["lab"].append({"epsilon": entry.epsilon, "periodicity": rep.to_json()})
            else:
                # Residuals of the witness vector are bounded by
                # depth * epsilon * N(chi_K); that bound is the target.
                target = entry.epsilon * max(depth, 1) * norm_f * (1 + 1e-9)
                rep = empirical_return(sys_, f, entry.n, depth, target)
                ok &= rep.success
                results["lab"].append({"epsilon": entry.epsilon, "return": rep.to_json()})
    except TailUnboundedError as exc:
        results["flag"] = "tail_unbounded"
        results["lab"].append({"error": str(exc)})
        code = EXIT_INCONCLUSIVE
    else:
        code = EXIT_WITNESS if ok else EXIT_ERROR
    results["orbit_norms"] = orbit_norm_series(sys_, f, min(cfg.N_max, 32))
    envelope = make_envelope(
        emit_config(cfg), results,
        timings={"total_s": time.perf_counter() - t0}, version=__version__,
    )
    return envelope, code


def cmd_norm(cfg: RunConfig, vector_path: str) -> tuple[dict, int]:
    t0 = time.perf_counter()
    vec = vector_from_file(vector_path, cfg.group)
    value = luxemburg_norm(vec, cfg.young)
    mod = modular(vec, cfg.young, value) if value > 0.0 else 0.0
    results = {
        "command": "norm",
        "norm": value,
        "modular_at_norm": mod,
        "support_size": len(vec),
        "vector": vec.to_pairs(cfg.group),
    }
    envelope = make_envelope(
        emit_config(cfg), results,
        timings={"total_s": time.perf_counter() - t0}, version=__version__,
    )
    return envelope, EXIT_WITNESS


def cmd_probe_young(cfg: RunConfig) -> tuple[dict, int]:
    t0 = time.perf_counter()
    probe = delta2_probe(cfg.young, 1e-3, 1e3, 200)
    table = []
    for i in range(128):
        y = 8.0 * i / 127.0
        table.append([y, complementary(cfg.young, y)])
    results = {"command": "probe-young", "delta2": probe.to_json(), "conjugate_table": table}
    envelope = make_envelope(
        emit_config(cfg), results,
        timings={"total_s": time.perf_counter() - t0}, version=__version__,
    )
    return envelope, EXIT_WITNESS


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="orlicz-dynamics", description=__doc__)
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("check", "simulate", "norm", "probe-young"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="run config JSON")
        p.add_argument("--out", default=None, help="write the report JSON here")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        if name == "norm":
            p.add_argument("--vector", required=True, help="vector JSON ([[coords, value], ...])")
    return parser


def _emit(envelope: dict, out: str | None, command: str) -> None:
    if out:
        write_envelope(out, envelope)
        stem = Path(out)
        if command in ("check", "simulate"):
            verdict = envelope["results"]["verdict"]
            rows = [(p["n"], p["sup_phi"], p["sup_phi_tilde"], p["chaos_sum"]) for p in verdict["series"]]
            write_series_csv(stem.with_suffix(".series.csv"), ("n", "sup_phi", "sup_phi_tilde", "chaos_sum"), rows)
        if command == "simulate" and "orbit_norms" in envelope["results"]:
            rows = list(enumerate(envelope["results"]["orbit_norms"]))
            write_series_csv(stem.with_suffix(".orbit.csv"), ("n", "value"), rows)
        if command == "probe-young":
            rows = envelope["results"]["conjugate_table"]
            write_series_csv(stem.with_suffix(".conjugate.csv"), ("y", "psi"), rows)
    else:
        print(render_envelope(envelope))


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg = RunConfig(**{**cfg.__dict__, "seed": args.seed})
        if args.out is not None:
            cfg = RunConfig(**{**cfg.__dict__, "out": args.out})
        out = cfg.out
        if args.command == "check":
            envelope, code = cmd_check(cfg)
        elif args.command == "simulate":
            envelope, code = cmd_simulate(cfg)
        elif args.command == "norm":
            envelope, code = cmd_norm(cfg, args.vector)
        else:
            envelope, code = cmd_probe_young(cfg)
    except OrliczDynamicsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    _emit(envelope, out, args.command)
    summary = envelope["results"].get("verdict", {}).get("outcome", args.command)
    print(f"{args.command}: {summary} (exit {code})", file=sys.stderr)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
