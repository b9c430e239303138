"""The seed event engine, frozen: a same-process speed reference.

``core.py`` and ``process.py`` are verbatim copies of ``repro.sim``'s
event loop and generator processes at the seed commit (e4362ec),
before any engine optimisation.  Timing this engine and the current
one back to back in the same process gives a host-independent speed
ratio (``tests/bench/test_perf_smoke.py``): both run on the same
machine, under the same load, with the same Python.

Nothing in the model imports this package.
"""

from .core import Simulator
from .process import Process

__all__ = ["Simulator", "Process"]
