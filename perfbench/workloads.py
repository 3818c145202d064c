"""Workload argv generation and output checks for the gatebound benchmark.

A workload is a fixed list of ``gatebound`` CLI commands.  Seed 0 gives the
reference grids; any other seed shifts every coherent amplitude alpha by a
seeded uniform offset in [-0.25, 0.25] and passes the seed on as ``--seed``,
so a claim can be re-checked on inputs that were not used to make it.

Each command is checked from its artifacts.  An operation is one sweep
point, one single command, or one verify-all criterion; ``check`` returns
how many were attempted and how many failed.
"""

from __future__ import annotations

import csv
import io
import random
from pathlib import Path

ALPHA_JITTER = 0.25
ORACLE_TOL = 1e-8          # the exact-vs-oracle agreement gate of the package
SWEEP_ALPHAS = (2, 3, 4, 5, 6)
SWEEP_ENVELOPES = ("raised-cosine", "triangle", "gaussian")
CRITERIA = (1, 4, 5, 6, 7, 8, 9, 10)
ARTIFACTS = ("result.csv", "report.json", "verification.csv")

WORKLOADS = ("gate-large", "sweep-small", "closed-forms")
# Workloads whose pass time is scaled by the interpreter-loop probe (see
# run.py).  Their time goes to Python callbacks (quad, dblquad, solve_ivp),
# which slow down with the host as the probe does.  gate-large's time goes
# to array work on N=495 operators, which the host slows differently: over
# one pair of ten-run sets the probe sped up while gate-large slowed.  So
# gate-large reports its wall time.
PROBE_SCALED = ("sweep-small", "closed-forms")


def _alpha(base: int, rng: random.Random | None) -> str:
    if rng is None:
        return str(base)
    return f"{base + rng.uniform(-ALPHA_JITTER, ALPHA_JITTER):.6f}"


def commands(workload: str, seed: int) -> list[list[str]]:
    """The CLI argv list of one pass of ``workload`` (without ``--output``)."""
    rng = random.Random(seed) if seed != 0 else None
    if workload == "gate-large":
        cmds = [["gate-sim", "--alpha", _alpha(16, rng)]]
    elif workload == "sweep-small":
        cmds = [["sweep", "--command", "gate-sim", "--axis", "alpha",
                 "--values", ",".join(_alpha(a, rng) for a in SWEEP_ALPHAS),
                 "--param", f"envelope={env}", "--parallelism", "2"]
                for env in SWEEP_ENVELOPES]
    elif workload == "closed-forms":
        cmds = [["verify-all", "--criteria", ",".join(map(str, CRITERIA))],
                ["pulse-bound", "--epsilon", "0.01", "--budget", "2000"]]
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    if seed != 0:
        cmds = [cmd + ["--seed", str(seed)] for cmd in cmds]
    return cmds


def operations(argv: list[str]) -> int:
    """Number of operations one command performs."""
    if argv[0] == "sweep":
        return len(argv[argv.index("--values") + 1].split(","))
    if argv[0] == "verify-all":
        return len(argv[argv.index("--criteria") + 1].split(","))
    return 1


def read_artifacts(out_dir: Path) -> dict[str, bytes]:
    return {name: (out_dir / name).read_bytes()
            for name in ARTIFACTS if (out_dir / name).is_file()}


def _rows(artifacts: dict[str, bytes], name: str) -> list[dict[str, str]]:
    if name not in artifacts:
        return []
    return list(csv.DictReader(io.StringIO(artifacts[name].decode("utf-8"))))


def _gate_row_ok(row: dict[str, str]) -> bool:
    if float(row["oracle_abs_diff"]) > ORACLE_TOL:
        return False
    return all(0.0 <= float(row[key]) <= 1.0
               for key in ("p_exact", "p_oracle", "p_perturbative"))


def check(argv: list[str], exit_code: int, artifacts: dict[str, bytes]) -> int:
    """Failed operations of one command, judged from its exit code and artifacts."""
    ops = operations(argv)
    kind = argv[0]
    if kind == "verify-all":
        rows = _rows(artifacts, "verification.csv")
        failed = sum(row["passed"] != "true" for row in rows) + max(0, ops - len(rows))
    else:
        rows = _rows(artifacts, "result.csv")
        if kind == "sweep":
            failed = sum(row["status"] != "ok" or not _gate_row_ok(row) for row in rows)
            failed += max(0, ops - len(rows))
        elif kind == "gate-sim":
            failed = int(len(rows) != 1 or not _gate_row_ok(rows[0]))
        elif kind == "pulse-bound":
            best = [row for row in rows if row["construction"] == "adversarial-best"]
            failed = int(len(best) != 1 or float(best[0]["energy_over_bound"]) < 1.0)
        else:
            raise ValueError(f"no output check for command {kind!r}")
    if exit_code != 0:
        failed = max(failed, 1)
    return min(failed, ops)


def oracle_abs_diff_max(argv: list[str], artifacts: dict[str, bytes]) -> float:
    """Largest |p_exact - p_oracle| in a gate-sim or sweep result (0 for others)."""
    if argv[0] == "sweep" or argv[0] == "gate-sim":
        return max((float(row["oracle_abs_diff"]) for row in _rows(artifacts, "result.csv")
                    if row.get("status", "ok") == "ok"), default=0.0)
    return 0.0
