"""Seeded inputs, command lists and output checks for the two workloads.

``build(name, seed, scale)`` returns the files a workload writes into its
work directory (configs and vectors, as bytes) and the CLI commands that
run on them.  The same seed gives byte-identical files.  The seed drives
vector values, and K offsets only where the verdict cannot depend on them.
``scale`` shrinks every size for the self-test; 1.0 is the benchmark.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

# The shipped configs, with the exit code of ``check`` and ``simulate`` on each.
SHIPPED_EXIT = {"constant_contraction": 2, "cyclic_torsion": 2, "heisenberg_paper": 0, "z_shift_chaotic": 0}

# ``probe-young`` runs delta2_probe out to 2 * 1e3, beyond the domain of
# any table shorter than that, so it exits 1 with OutOfRangeError.  The
# command stays in the workload and counts as failed until the program
# is fixed.
TABLE_PROBE_DEFECT = "beyond table range"

WHY = {
    "criteria-lab": (
        "check and simulate: orbit-product scans in groups, translations and criteria, then lab "
        "constructions with thousands of norms on 1 to 100 entries; norm-large's big norms stay out."
    ),
    "norm-large": (
        "few Luxemburg norms on large supports, the per-element regime of orlicz, young, numerics, "
        "config and report; groups, translations, criteria and lab stay idle."
    ),
}
WORKLOADS = tuple(WHY)


@dataclass(frozen=True)
class Command:
    """One CLI invocation and what its report must show."""

    label: str
    kind: str  # check | simulate | norm | probe-young
    config: str  # file name in the work directory
    expected_exit: int
    oracle: Optional[tuple] = None  # ("name", *parameters) for check_output
    vector: Optional[str] = None
    known_defect: Optional[str] = None  # stderr text of a known failure

    def argv(self) -> list[str]:
        out = ["--config", self.config, "--out", self.label + ".out.json"]
        if self.vector:
            out += ["--vector", self.vector]
        return [self.kind, *out]


@dataclass
class Workload:
    name: str
    seed: int
    why: str
    files: dict[str, bytes] = field(default_factory=dict)
    commands: list[Command] = field(default_factory=list)
    sizes: dict[str, dict] = field(default_factory=dict)

    def add_file(self, name: str, obj) -> str:
        self.files[name] = (json.dumps(obj, separators=(",", ":")) + "\n").encode()
        return name

    def write(self, directory: Path) -> None:
        for name, data in self.files.items():
            (directory / name).write_bytes(data)

    def config_files(self) -> list[str]:
        return [name for name in self.files if name.endswith(".cfg.json")]


def _config(seed: int, group, a, weight, young, K, prop, **budgets) -> dict:
    return {
        "schema_version": 1,
        "group": group,
        "a": a,
        "weight": weight,
        "young": young,
        "K": {"box": K},
        "property": prop,
        "seed": seed,
        **budgets,
    }


STEP = {"family": "two_sided_step", "c_neg": 2.0, "c_pos": 0.5}
POWER2 = {"family": "power", "p": 2.0}


def _scaled(value: int, scale: float, floor: int) -> int:
    return max(floor, round(value * scale))


def _add_shipped(w: Workload, kind: str, configs_dir: Path) -> None:
    for name in SHIPPED_EXIT:
        raw = json.loads((configs_dir / f"{name}.json").read_text())
        cfg = w.add_file(f"{name}.cfg.json", raw)
        oracle = ("lab_ok",) if kind == "simulate" and SHIPPED_EXIT[name] == 0 else None
        w.commands.append(Command(f"{kind}-{name}", kind, cfg, SHIPPED_EXIT[name], oracle))
        w.sizes[name] = {"K": _box_size(raw["K"]["box"]), "N_max": raw["N_max"], "L_max": raw["L_max"]}


def _box_size(bounds) -> int:
    return math.prod(hi - lo + 1 for lo, hi in bounds)


def _criteria_scan(w: Workload, rng: random.Random, scale: float, configs_dir: Path) -> None:
    # With a = (3, 0, 2) the orbit z coordinate is 2j whatever (x, y) is,
    # so the seeded (x, y) offset leaves the chaos sums at 3 / (2^n - 1).
    h = _scaled(5, scale, 1)
    ox, oy = rng.randint(-50, 50), rng.randint(-50, 50)
    heis = _config(
        w.seed, {"kind": "heisenberg"}, [3, 0, 2], {"family": "heisenberg_paper"}, POWER2,
        [[ox - h, ox + h], [oy - h, oy + h], [0, 0]], "chaotic",
        L=2, N_max=_scaled(256, scale, 16), L_max=_scaled(64, scale, 4),
    )
    # The step sits at 0, so K stays centred there; the last violation of
    # the mixing tail is at n = 2R + 10, well inside the budget.
    R = _scaled(200, scale, 2)
    zmix = _config(w.seed, {"kind": "Z"}, [1], STEP, POWER2, [[-R, R]], "mixing", N_max=2 * R + 112)
    # Weight 1 keeps every product at 1 wherever K sits: the scan runs to
    # the end of the budget and ends inconclusive.
    b = _scaled(5, scale, 1)
    px, py = rng.randint(-50, 50), rng.randint(-50, 50)
    z2 = _config(
        w.seed, {"kind": "Zd", "d": 2}, [1, 0], {"family": "constant", "c": 1.0}, POWER2,
        [[px - b, px + b], [py - b, py + b]], "multiply_recurrent", L=4, N_max=_scaled(128, scale, 8),
    )
    for label, cfg, code, oracle in (
        ("check-heisenberg-chaos", heis, 0, ("chaos_sum_closed_form",)),
        ("check-z-mixing", zmix, 0, None),
        ("check-z2-multiply-recurrent", z2, 3, None),
    ):
        w.commands.append(Command(label, "check", w.add_file(f"{label}.cfg.json", cfg), code, oracle))
        w.sizes[label] = {"K": _box_size(cfg["K"]["box"]), "N_max": cfg["N_max"], "L_max": cfg.get("L_max")}
    _add_shipped(w, "check", configs_dir)


def _values(rng: random.Random, n: int) -> list[float]:
    """Entries with magnitude in [0.1, 10) and random sign, rounded so the
    files stay small; rounding to 6 decimals never yields 0."""
    return [round(rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-1.0, 1.0), 6) for _ in range(n)]


def _table_young(knots: int, t_max: float) -> dict:
    """Samples of t^2 / 2 on [0, t_max]; the domain ends far below 2e3."""
    ts = [t_max * i / (knots - 1) for i in range(knots)]
    return {"family": "custom", "table": [[t, t * t / 2.0] for t in ts]}


def _norm_large(w: Workload, rng: random.Random, scale: float) -> None:
    # Only the vector matters to ``norm`` and only the Young function to
    # ``probe-young``; the rest of each config is a minimal valid system.
    unit = {"family": "constant", "c": 1.0}
    side = _scaled(25, scale, 2)
    specs = (
        ("power", {"kind": "Z"}, POWER2, _scaled(50_000, scale, 10)),
        ("alphalog", {"kind": "heisenberg"}, {"family": "alphalog", "alpha": 1.5}, side**3),
        ("table", {"kind": "Z"}, _table_young(401, 40.0), _scaled(1_000, scale, 10)),
    )
    for family, group, young, n in specs:
        rank = 3 if group["kind"] == "heisenberg" else 1
        a = [1] + [0] * (rank - 1)
        cfg = w.add_file(f"{family}.cfg.json", _config(w.seed, group, a, unit, young, [[0, 0]] * rank, "recurrent"))
        vals = _values(rng, n)
        o = rng.randint(-1000, 1000)
        if rank == 1:
            keys = [[o + i] for i in range(n)]
        else:
            keys = [[o + x, o + y, o + z] for x in range(side) for y in range(side) for z in range(side)]
        vec = w.add_file(f"{family}.vec.json", [[k, v] for k, v in zip(keys, vals)])
        if family == "power":
            p = young["p"]
            ref = p ** (-1.0 / p) * math.fsum(abs(v) ** p for v in vals) ** (1.0 / p)
            oracle = ("power_norm", ref, n)
        else:
            oracle = ("modular_at_norm", n)
        w.commands.append(Command(f"norm-{family}", "norm", cfg, 0, oracle, vector=vec))
        probe_oracle = ("conjugate_half_square",) if family == "power" else None
        defect = TABLE_PROBE_DEFECT if family == "table" else None
        w.commands.append(Command(f"probe-{family}", "probe-young", cfg, 0, probe_oracle, known_defect=defect))
        w.sizes[family] = {"entries": n, **({"knots": len(young["table"])} if family == "table" else {})}


def _lab_simulate(w: Workload, scale: float, configs_dir: Path) -> None:
    # Every verdict here depends on where K sits relative to the step at
    # 0, so the seed reaches these configs only through the echoed seed.
    _add_shipped(w, "simulate", configs_dir)
    for label, R, prop, extra in (
        ("simulate-z-chaos", _scaled(20, scale, 2), "chaotic", {"L": 3}),
        ("simulate-z-multiply-recurrent", _scaled(25, scale, 2), "multiply_recurrent", {"L": 4}),
        ("simulate-z-mixing", _scaled(50, scale, 2), "mixing", {}),
    ):
        slack = {"chaotic": 88, "multiply_recurrent": 14, "mixing": 28}[prop]
        cfg = _config(w.seed, {"kind": "Z"}, [1], STEP, POWER2, [[-R, R]], prop, N_max=2 * R + slack, **extra)
        w.commands.append(Command(label, "simulate", w.add_file(f"{label}.cfg.json", cfg), 0, ("lab_ok",)))
        w.sizes[label] = {"K": 2 * R + 1, "N_max": cfg["N_max"]}


def build(name: str, seed: int, configs_dir: Path, scale: float = 1.0) -> Workload:
    if name not in WHY:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    w = Workload(name, seed, WHY[name])
    rng = random.Random(f"{name}:{seed}")
    if name == "criteria-lab":
        _criteria_scan(w, rng, scale, configs_dir)
        _lab_simulate(w, scale, configs_dir)
    else:
        _norm_large(w, rng, scale)
    return w


def _close(x: float, ref: float, rel: float) -> bool:
    return abs(x - ref) <= rel * abs(ref)


def check_output(cmd: Command, report: dict) -> list[str]:
    """Problems found in a finished command's report (empty when it passes)."""
    if cmd.oracle is None:
        return []
    res = report["results"]
    name, *params = cmd.oracle
    if name == "chaos_sum_closed_form":
        return [
            f"n={p['n']}: chaos_sum {p['chaos_sum']!r} != 3/(2^n-1)"
            for p in res["verdict"]["series"]
            if not _close(p["chaos_sum"], 3.0 / (2.0 ** p["n"] - 1.0), 1e-12)
        ]
    if name == "power_norm":
        ref, size = params
        out = [] if _close(res["norm"], ref, 1e-10) else [f"norm {res['norm']!r} != {ref!r}"]
        return out + ([] if res["support_size"] == size else [f"support {res['support_size']} != {size}"])
    if name == "modular_at_norm":
        (size,) = params
        out = [] if abs(res["modular_at_norm"] - 1.0) <= 1e-9 else [f"modular_at_norm {res['modular_at_norm']!r}"]
        return out + ([] if res["support_size"] == size else [f"support {res['support_size']} != {size}"])
    if name == "conjugate_half_square":
        return [
            f"psi({y!r}) = {psi!r} != y^2/2"
            for y, psi in res["conjugate_table"]
            if abs(psi - y * y / 2.0) > 1e-9 * max(1.0, y * y)
        ]
    if name == "lab_ok":
        return [
            f"lab entry {e} failed"
            for e in res["lab"]
            if not (e.get("periodicity", {}).get("within_bound") or e.get("return", {}).get("success"))
        ]
    raise ValueError(f"unknown oracle {name!r}")
