"""Benchmark of the gatebound lab on fixed CLI workloads, run in-process.

Run from the repository root:

    python3 perfbench/run.py --workload gate-large --seed 0 --seconds 25 --trace 0

or, for every workload in turn:

    for w in gate-large sweep-small closed-forms; do python3 perfbench/run.py --workload $w; done

``meta.json`` records each workload's argv, which metric each layer should
move on which workload, the baseline and the machine it was measured on.
The workloads (argv in ``workloads.py``, reasons in ``BENCHMARK.json``):

- ``gate-large``: one ``gate-sim --alpha 16`` (basis size N=495), dominated
  by the dense generator path in ``fock``/``gate``;
- ``sweep-small``: three 5-point ``gate-sim`` alpha sweeps (raised-cosine,
  triangle, gaussian; N=71..147) on the 2-thread sweep pool;
- ``closed-forms``: ``verify-all`` criteria 1,4-10 and a ``pulse-bound``
  adversarial search, i.e. quadrature, ODEs and closed forms without
  large propagation.

Every command goes through ``gatebound.cli.main`` in this one process.  One
warm-up pass comes first; its artifacts are the reference that every later
pass must reproduce byte for byte.  Then at least two timed passes run, and
more while the next one still fits in ``--seconds``.  With ``--trace 0``
(tracing off) the run reports:

- ``setup_s``: median, over fresh interpreters, of the time from launch
  until ``import gatebound.cli`` returns;
- ``pass_s``: median time of one pass, with the pass count and the highest
  percentile that has ten samples beyond it.  On a shared host the speed of
  a core drifts by up to 2x over minutes, which no run length averages out.
  So while the timed passes run, a SIGALRM handler times a fixed
  pure-Python loop (the probe) every ``PROBE_INTERVAL_S``; it runs in the
  main thread inside the workload's own calls.  A pass's time is its wall
  time minus the probes in it.  On the interpreter-bound workloads
  (``workloads.PROBE_SCALED``) it is then scaled by ``PROBE_REF_S`` over the
  median probe in it, i.e. given at the reference host speed.  The probe is
  the benchmark's own code, so a change to the program moves ``pass_s`` as
  much as it moves the wall time.  The median wall time is printed too
  (``pass.wall_s`` in the traced run);
- ``peak_rss_mb``: peak RSS of this process, which ran the workload;
- ``fail_frac``: failed over attempted operations (the ``failed`` and
  ``attempted`` fields of the result).

With ``--trace 1`` the same untraced passes run first, then two traced
passes (see ``tracing.py``, no probe); the run reports the per-layer
metrics, the tracing overhead (traced minus untraced median wall time of a
pass), checks that every count repeats exactly across the two traced
passes, and writes the spans to
``.perfbench/trace-<workload>-seed<seed>.jsonl.gz``.

The last line on stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from time import perf_counter

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

SETUP_LAUNCHES = 5
TRACED_PASSES = 2
PROBE_LOOPS = 10_000
PROBE_INTERVAL_S = 0.1
# The probe's time at the reference host speed: about its time on the
# 2.0 GHz Xeon (Sapphire Rapids) KVM guest the baseline was measured on.
PROBE_REF_S = 1.0e-3
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
            "GOTO_NUM_THREADS")

# The child reads CLOCK_MONOTONIC, the clock the parent stamps the launch
# with, so one clock spans both processes.
SETUP_CODE = """\
import time
clock = lambda: time.clock_gettime(time.CLOCK_MONOTONIC)
t0 = clock()
import numpy
t1 = clock()
import scipy.integrate, scipy.linalg, scipy.sparse.linalg, scipy.special
t2 = clock()
import gatebound.cli
print(t0, t1, t2, clock())
"""


def launch_setup() -> dict[str, float]:
    """Time one fresh interpreter from launch until ``import gatebound.cli`` returns."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    launched = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    t0, t1, t2, t3 = map(float, proc.stdout.split())
    return {"setup_s": t3 - launched, "setup.interpreter_s": t0 - launched,
            "setup.import.numpy_s": t1 - t0, "setup.import.scipy_s": t2 - t1,
            "setup.import.gatebound_s": t3 - t2}


def probe_loop() -> float:
    """Time a fixed pure-Python loop: the host's speed, not the program's."""
    start = perf_counter()
    acc = 0
    for i in range(PROBE_LOOPS):
        acc += i * i % 7
    return perf_counter() - start


class HostProbe:
    """Runs ``probe_loop`` every ``PROBE_INTERVAL_S`` from a SIGALRM handler.

    Python runs the handler in the main thread between bytecodes, so the
    probes fall inside the workload's calls and see the speed they see.
    """

    def __init__(self):
        self.samples: list[float] = []

    def __enter__(self) -> "HostProbe":
        self.previous = signal.signal(signal.SIGALRM, self._fire)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self.previous)

    def _fire(self, signum, frame) -> None:
        self.samples.append(probe_loop())


def machine() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_env": {k: os.environ[k] for k in BLAS_ENV if k in os.environ},
    }


class Workload:
    """Runs passes of one workload's commands and checks their artifacts."""

    def __init__(self, cli, argvs: list[list[str]], work: Path):
        self.main = cli.main
        self.argvs = argvs
        self.work = work
        self.reference: list[dict[str, bytes]] | None = None
        self.attempted = 0
        self.failed = 0
        self.oracle_abs_diff_max = 0.0   # of the last pass
        self.probe: HostProbe | None = None
        self.pass_probes: list[float] = []   # probes inside the last pass's calls

    def run_pass(self) -> float:
        """Run every command once; return the summed wall time of the calls."""
        gc.collect()
        elapsed = 0.0
        artifacts = []
        self.oracle_abs_diff_max = 0.0
        self.pass_probes = []
        samples = self.probe.samples if self.probe else []
        for i, argv in enumerate(self.argvs):
            out = self.work / f"cmd{i}"
            captured = io.StringIO()
            with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
                start = perf_counter()
                first = len(samples)
                try:
                    code = self.main(argv + ["--output", str(out)])
                except SystemExit as exc:
                    code = exc.code if isinstance(exc.code, int) else 1
                except Exception as exc:  # a crash fails this command, not the benchmark
                    print(f"{type(exc).__name__}: {exc}")
                    code = 1
                self.pass_probes += samples[first:]
                elapsed += perf_counter() - start
            got = workloads.read_artifacts(out)
            ops = workloads.operations(argv)
            try:
                failed = workloads.check(argv, code, got)
            except (KeyError, ValueError) as exc:   # malformed artifact
                print(f"unreadable artifacts of {argv[0]}: {exc!r}", file=sys.stderr)
                failed = ops
            if self.reference is not None and got != self.reference[i]:
                print(f"artifacts of {argv[0]} differ from the first pass", file=sys.stderr)
                failed = ops
            if failed:
                print(f"{failed}/{ops} operations of {' '.join(argv)} failed "
                      f"(exit {code}): {captured.getvalue().strip()[-500:]}", file=sys.stderr)
            self.attempted += ops
            self.failed += failed
            self.oracle_abs_diff_max = max(self.oracle_abs_diff_max,
                                           workloads.oracle_abs_diff_max(argv, got))
            artifacts.append(got)
        if self.reference is None:
            self.reference = artifacts
        return elapsed


def timed_passes(workload: Workload, seconds: float,
                 scaled: bool) -> tuple[list[float], list[float], list[float]]:
    """Two passes, then more while the next one fits in ``seconds``.

    Returns each pass's wall time without its probes, its time (at the
    reference host speed if ``scaled``), and its median probe.
    """
    walls, times, probes = [], [], []
    with HostProbe() as probe:
        workload.probe = probe
        start = perf_counter()
        try:
            while len(walls) < 2 or perf_counter() - start + walls[-1] <= seconds:
                wall = workload.run_pass() - sum(workload.pass_probes)
                # a pass too short to hold a probe takes the latest one
                probe_s = statistics.median(workload.pass_probes or probe.samples[-1:]
                                            or [probe_loop()])
                walls.append(wall)
                times.append(wall * PROBE_REF_S / probe_s if scaled else wall)
                probes.append(probe_s)
        finally:
            workload.probe = None
    return walls, times, probes


def tail(samples: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(samples)
    if n < 11:
        return f"no percentile has ten samples beyond it (n={n})"
    return f"p{100.0 * (n - 10) / n:.0f}={sorted(samples)[n - 11]:.6f} s"


def layer_metrics(spans: tracing.PassSpans, wall: float, oracle_max: float) -> dict:
    """Per-layer metrics of one traced pass: name -> (value, unit)."""
    m = {
        "fock.evolve.calls": (spans.calls("fock.evolve"), "count"),
        "fock.evolve.self_s": (spans.self_s("fock.evolve"), "s"),
        "fock.expm_multiply.calls": (spans.calls("fock.expm_multiply"), "count"),
        "fock.expm_multiply.s": (spans.busy_s("fock.expm_multiply"), "s"),
        "fock.expm.calls": (spans.calls("fock.expm"), "count"),
        "fock.expm.s": (spans.busy_s("fock.expm"), "s"),
        "fock.operator_bytes": (spans.attr_sum("fock.expm_multiply", "bytes")
                                + spans.attr_sum("fock.expm", "bytes"), "bytes"),
        "fock.state.s": (spans.busy_s("fock.state"), "s"),
        "fock.pass_share": (spans.covered_s("fock.") / wall, "fraction"),
        "envelopes.drive_evals": (spans.calls("envelopes.drive"), "count"),
        "gate.scenario.s": (spans.busy_s("gate.scenario"), "s"),
        "gate.exact.s": (spans.busy_s("gate.exact"), "s"),
        "gate.oracle.s": (spans.busy_s("gate.oracle"), "s"),
        "gate.drive_integrals.calls": (spans.calls("gate.drive_integrals"), "count"),
        "gate.drive_integrals.s": (spans.busy_s("gate.drive_integrals"), "s"),
        "gate.solve_ivp.nfev": (spans.attr_sum("gate.solve_ivp", "nfev"), "count"),
        "gate.perturbative.s": (spans.busy_s("gate.perturbative"), "s"),
        "gate.dblquad.integrand_evals": (spans.attr_sum("gate.dblquad", "evals"), "count"),
        "gate.oracle_abs_diff.max": (oracle_max, "prob"),
        "pulses.energy_bound_check.calls": (spans.calls("pulses.energy_bound_check"), "count"),
        "pulses.s": (spans.busy_s("pulses."), "s"),
        "collision.quad.calls": (spans.calls("collision.quad"), "count"),
        "collision.quad.integrand_evals": (spans.attr_sum("collision.quad", "evals"), "count"),
        "collision.quad.s": (spans.busy_s("collision.quad"), "s"),
        "collision.solve_ivp.nfev": (spans.attr_sum("collision.solve_ivp", "nfev"), "count"),
        "collision.solve_ivp.s": (spans.busy_s("collision.solve_ivp"), "s"),
        "heuristic.s": (spans.busy_s("heuristic."), "s"),
    }
    for k in workloads.CRITERIA:
        m[f"verify.criterion_{k}.s"] = (spans.busy_s(f"verify.criterion_{k}"), "s")
    sweeps = {s.sid: s for s in spans.named("cli.sweep")}
    points = [s for s in spans.named("cli.command.") if s.parent in sweeps]
    m["cli.sweep.point_s"] = (sum(p.end - p.start for p in points), "s")
    m["cli.sweep.wait_s"] = (sum(p.start - sweeps[p.parent].start for p in points), "s")
    m["cli.write.calls"] = (spans.calls("cli.write."), "count")
    m["cli.write.bytes"] = (spans.attr_sum("cli.write.atomic_write", "bytes"), "bytes")
    m["cli.write.s"] = (spans.busy_s("cli.write."), "s")
    return m


def traced_run(cli, workload: Workload, path: Path):
    """Two traced passes: their walls and per-pass layer metrics."""
    tracer = tracing.Tracer()
    tracer.install()
    workload.main = tracer.wrap("bench.command", cli.main, new_op=True)
    walls, per_pass = [], []
    try:
        for _ in range(TRACED_PASSES):
            first = len(tracer.spans)
            wall = workload.run_pass()
            walls.append(wall)
            per_pass.append(layer_metrics(tracing.PassSpans(tracer.spans[first:]), wall,
                                          workload.oracle_abs_diff_max))
    finally:
        tracer.uninstall()
        workload.main = cli.main
    tracer.write(path)
    return walls, per_pass


def metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0,
                        help="workload seed (>= 0); 0 gives the reference grids")
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "gatebound" / "cli.py").is_file():
        print(f"error: no gatebound sources at {SRC}", file=sys.stderr)
        return 2

    argvs = workloads.commands(args.workload, args.seed)
    setups = [launch_setup() for _ in range(SETUP_LAUNCHES)]
    sys.path.insert(0, str(SRC))
    from gatebound import cli

    work = OUT / f"run-{os.getpid()}"
    try:
        workload = Workload(cli, argvs, work)
        workload.run_pass()   # warm-up and byte reference
        walls, times, probes = timed_passes(
            workload, args.seconds, args.workload in workloads.PROBE_SCALED)
        pass_s = statistics.median(times)
        wall_s = statistics.median(walls)
        probe_s = statistics.median(probes)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if args.trace:
            traced_walls, per_pass = traced_run(
                cli, workload, OUT / f"trace-{args.workload}-seed{args.seed}.jsonl.gz")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    setup_s = statistics.median(s["setup_s"] for s in setups)
    print(f"workload {args.workload} seed {args.seed}: "
          + " ; ".join("gatebound " + " ".join(a) for a in argvs))
    print(f"machine {json.dumps(machine(), sort_keys=True)}")
    print(f"setup_s = {setup_s:.6f} s (median of {len(setups)} launches)")
    print(f"pass_s = {pass_s:.6f} s (median of {len(times)} passes; {tail(times)})")
    print(f"pass wall time = {wall_s:.6f} s (median of {len(walls)} passes; {tail(walls)}); "
          f"host probe = {probe_s * 1e3:.4f} ms (median over passes; reference "
          f"{PROBE_REF_S * 1e3:g} ms)")
    print(f"peak_rss_mb = {peak_rss_mb:.3f} MB (1 process)")
    print(f"fail_frac = {workload.failed / workload.attempted:.6g} "
          f"({workload.failed} failed of {workload.attempted} attempted operations)")
    correct = workload.failed == 0

    if not args.trace:
        metrics = {"setup_s": metric(setup_s, "s"), "pass_s": metric(pass_s, "s"),
                   "peak_rss_mb": metric(peak_rss_mb, "MB")}
    else:
        first, second = per_pass
        repeats = True
        for name, (value, unit) in first.items():
            if unit in ("count", "bytes") and second[name][0] != value:
                print(f"count {name} did not repeat: {value} then {second[name][0]}")
                repeats = False
        correct = correct and repeats
        metrics = {name: metric(value if unit in ("count", "bytes")
                                else statistics.median(p[name][0] for p in per_pass), unit)
                   for name, (value, unit) in first.items()}
        for key in ("setup.interpreter_s", "setup.import.numpy_s", "setup.import.scipy_s",
                    "setup.import.gatebound_s"):
            metrics[key] = metric(statistics.median(s[key] for s in setups), "s")
        metrics["pass.wall_s"] = metric(wall_s, "s")
        metrics["host.probe_s"] = metric(probe_s, "s")
        traced_pass_s = statistics.median(traced_walls)
        metrics["trace.pass_s"] = metric(traced_pass_s, "s")
        metrics["trace.overhead_s"] = metric(traced_pass_s - wall_s, "s")
        for name, m in metrics.items():
            print(f"{name} = {m['value']:.6g} {m['unit']}")
        print(f"counts repeat across {TRACED_PASSES} traced passes: {'yes' if repeats else 'NO'}")

    print(json.dumps({"correct": correct, "attempted": workload.attempted,
                      "failed": workload.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
