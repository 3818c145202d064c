"""Spans around the calls into gatebound's layers, installed from outside.

``Tracer.install`` replaces module-level public names (and a few scipy
entry points as the package modules see them) with wrappers that record a
span per call: name, start, end, parent span, operation id, thread id and a
few counts.  Nothing under ``src/`` changes; ``uninstall`` restores every
original.  Spans stay in memory until ``write`` is called at the end.

Operations follow the benchmark's accounting: every top-level command the
benchmark runs opens one, and so does every sweep point and every
verify-all criterion.
"""

from __future__ import annotations

import dataclasses
import functools
import gzip
import inspect
import itertools
import json
import sys
import threading
from collections import defaultdict
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

class Span(NamedTuple):
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    op: int
    tid: int
    attrs: dict | None


def _operator_bytes(args, attrs):
    # computed, not measured: dense N*N*16, sparse data + index arrays
    op = args[0]
    if hasattr(op, "indices"):
        attrs["bytes"] = op.data.nbytes + op.indices.nbytes + op.indptr.nbytes
    else:
        attrs["bytes"] = op.nbytes
    return args


def _count_integrand(args, attrs):
    fn = args[0]
    attrs["evals"] = 0

    def counted(*a):
        attrs["evals"] += 1
        return fn(*a)

    return (counted,) + tuple(args[1:])


def _written_bytes(args, attrs):
    attrs["bytes"] = len(args[1])
    return args


def _nfev(result, attrs):
    attrs["nfev"] = int(result.nfev)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._sids = itertools.count(1)
        self._ops = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []
        self._sweeps: list[tuple[int, int]] = []   # (sid, op) of running sweeps

    # -- span recording -------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, *, new_op=False, sweep=False, prepare=None, finish=None):
        """Wrapper of ``fn`` that records a span named ``name`` per call.

        ``prepare(args, attrs)`` may fill span attributes and returns
        the (possibly wrapped) positional arguments; ``finish(result, attrs)``
        reads counts off the result.  ``new_op`` opens a new operation;
        ``sweep`` makes the span the parent of spans that start on pool
        threads while it runs.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent, op = stack[-1]
            elif tracer._sweeps:
                # a sweep point on a pool thread: its cause is the sweep
                parent, op = tracer._sweeps[-1]
            else:
                parent, op = None, 0
            if new_op:
                op = next(tracer._ops)
            sid = next(tracer._sids)
            attrs = {} if (prepare or finish) else None
            if prepare:
                args = prepare(args, attrs)
            stack.append((sid, op))
            if sweep:
                tracer._sweeps.append((sid, op))
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                if sweep:
                    tracer._sweeps.remove((sid, op))
                tracer.spans.append(Span(sid, name, start, end, parent, op,
                                         threading.get_ident(), attrs))
            if finish:
                finish(result, attrs)
            return result

        return traced

    # -- installation ---------------------------------------------------

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _replace_everywhere(self, original, wrapper):
        """Point every loaded gatebound module's reference to ``original`` at ``wrapper``."""
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "gatebound" or mod_name.startswith("gatebound.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, wrapper)

    def install(self):
        from gatebound import cli, collision, envelopes, fock, gate, heuristic, pulses, verify

        def package_fn(name, fn, **kw):
            self._replace_everywhere(fn, self.wrap(name, fn, **kw))

        package_fn("fock.evolve", fock.evolve)
        for ctor in (fock.coherent_state, fock.squeezed_coherent_state, fock.number_state):
            package_fn("fock.state", ctor)
        self._set(fock, "expm_multiply",
                  self.wrap("fock.expm_multiply", fock.expm_multiply, prepare=_operator_bytes))
        self._set(fock, "expm", self.wrap("fock.expm", fock.expm, prepare=_operator_bytes))
        self._set(envelopes.LinearDrive, "__call__",
                  self.wrap("envelopes.drive", envelopes.LinearDrive.__call__))

        package_fn("gate.scenario", gate.coherent_drive_scenario)
        package_fn("gate.exact", gate.failure_probability_exact)
        package_fn("gate.oracle", gate.displacement_oracle)
        package_fn("gate.perturbative", gate.failure_probability_perturbative)
        package_fn("gate.drive_integrals", gate.drive_integrals)
        self._set(gate, "solve_ivp", self.wrap("gate.solve_ivp", gate.solve_ivp, finish=_nfev))
        self._set(gate, "dblquad",
                  self.wrap("gate.dblquad", gate.dblquad, prepare=_count_integrand))

        for module in (pulses, heuristic):
            layer = module.__name__.rsplit(".", 1)[1]
            for attr, fn in list(vars(module).items()):
                if (inspect.isfunction(fn) and fn.__module__ == module.__name__
                        and not attr.startswith("_")):
                    package_fn(f"{layer}.{attr}", fn)
        self._set(collision, "quad",
                  self.wrap("collision.quad", collision.quad, prepare=_count_integrand))
        self._set(collision, "solve_ivp",
                  self.wrap("collision.solve_ivp", collision.solve_ivp, finish=_nfev))

        for k, criterion in list(verify.CRITERIA.items()):
            self._set_item(verify.CRITERIA, k,
                           self.wrap(f"verify.criterion_{k}", criterion, new_op=True))

        for name, command in list(cli.COMMANDS.items()):
            self._set_item(cli.COMMANDS, name, self._wrap_command(name, command))
        self._set(cli, "run_sweep", self.wrap("cli.sweep", cli.run_sweep, sweep=True))
        package_fn("cli.write.rows_to_csv_bytes", cli.rows_to_csv_bytes)
        package_fn("cli.write.report_json_bytes", cli.report_json_bytes)
        package_fn("cli.write.atomic_write", cli.atomic_write, prepare=_written_bytes)

    def _wrap_command(self, name, command):
        # a command run inside a sweep is one sweep point: its own operation
        plain = self.wrap(f"cli.command.{name}", command.run)
        point = self.wrap(f"cli.command.{name}", command.run, new_op=True)

        def run(*args, **kwargs):
            return (point if self._sweeps else plain)(*args, **kwargs)

        return dataclasses.replace(command, run=run)

    def _set_item(self, mapping, key, value):
        self._patches.append((mapping, key, mapping[key]))
        mapping[key] = value

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    def write(self, path: Path):
        """Write every span as one JSON line (gzip-compressed)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            for span in self.spans:
                fh.write(json.dumps(span._asdict()) + "\n")


# ---------------------------------------------------------------------------
# aggregation over the spans of one pass
# ---------------------------------------------------------------------------

def _union_length(intervals) -> float:
    total, covered_to = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > covered_to:
            total += end - max(start, covered_to)
            covered_to = end
    return total


class PassSpans:
    """Queries over the spans recorded during one pass."""

    def __init__(self, spans: list[Span]):
        self.by_name = defaultdict(list)
        self.children = defaultdict(list)
        for span in spans:
            self.by_name[span.name].append(span)
            if span.parent is not None:
                self.children[span.parent].append(span)

    def named(self, prefix: str) -> list[Span]:
        if not prefix.endswith("."):
            return self.by_name.get(prefix, [])
        return [s for name, group in self.by_name.items()
                if name.startswith(prefix) for s in group]

    def calls(self, name: str) -> int:
        return len(self.named(name))

    def attr_sum(self, name: str, key: str) -> int:
        return sum(s.attrs[key] for s in self.named(name))

    def busy_s(self, name: str) -> float:
        """Wall time covered by the named spans, per thread, summed over threads."""
        per_thread = defaultdict(list)
        for s in self.named(name):
            per_thread[s.tid].append((s.start, s.end))
        return sum(_union_length(iv) for iv in per_thread.values())

    def covered_s(self, name: str) -> float:
        """Wall time during which at least one of the named spans runs, on any thread."""
        return _union_length((s.start, s.end) for s in self.named(name))

    def self_s(self, name: str) -> float:
        """Span time minus the time of its direct children on the same thread."""
        total = 0.0
        for s in self.named(name):
            child = sum(c.end - c.start for c in self.children[s.sid] if c.tid == s.tid)
            total += (s.end - s.start) - child
        return total
