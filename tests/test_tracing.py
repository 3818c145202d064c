import sys
from pathlib import Path

from gatebound import fock, gate

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import tracing  # noqa: E402


def test_tracer_installs_and_uninstalls():
    # the benchmark's tracer patches names in gatebound's modules by hand
    # (gate.dblquad, fock.expm, ...): deleting one breaks its --trace 1 run
    originals = (gate.dblquad, fock.expm, gate.failure_probability_exact)
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert gate.dblquad is not originals[0]
    finally:
        tracer.uninstall()
    assert (gate.dblquad, fock.expm, gate.failure_probability_exact) == originals
