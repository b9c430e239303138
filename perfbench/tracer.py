"""Outside-in host-time tracing of the simulator's layers.

The tracer changes no program file.  It replaces public entry points
of the ``repro`` layers, and the generator of every simulation process,
with timing wrappers for the length of one traced run:

* A generator call is timed per resume, so simulated time spent parked
  on an event is never charged as host time.
* Wrapped calls nest.  A frame's *self* time is its inclusive time
  minus the inclusive time of the wrapped frames that ran inside it.
* Frames are attributed by their self time inside ``Simulator.run``.
  The part of the run outside every frame is the event loop itself:
  the ``sim`` layer.  Host time of the traced iteration outside every
  ``Simulator.run`` (boot, preload, report building, and any frame
  called there) is its own share, ``outside``.  Frame self times, the
  event loop and ``outside`` add up to the traced iteration's wall
  time (:meth:`Tracer.attribution_gap_ns` checks it).

Entry points are grouped by layer (the ``repro`` package they live
in); processes by the module of their generator function.
"""

from __future__ import annotations

import collections
import inspect
import re
import time
from typing import Dict, List, Optional, Tuple

from patching import Patches
from repro.apps.kv import KVClient
from repro.apps.kv.server import _ShardImpl
from repro.hardware.nic.dma import DeliberateUpdateEngine
from repro.hardware.nic.packetizer import Packetizer
from repro.hardware.router.mesh import MeshBackplane
from repro.libs.nx.api import NXProcess
from repro.libs.rpc.vrpc import VrpcClient
from repro.libs.shrimp_rpc.runtime import SrpcClientBase, SrpcServerBase
from repro.libs.sockets.api import ShrimpSocket
from repro.sim.core import Simulator
from repro.sim.process import Process
from repro.sim.resources import Store
from repro.vmmc.api import VmmcEndpoint

_clock = time.perf_counter_ns

#: (owner, attribute, key, layer): the wrapped public entry points.
ENTRY_POINTS: List[Tuple[type, str, str, str]] = [
    (KVClient, "get", "kv.client.get", "kv"),
    (KVClient, "put", "kv.client.put", "kv"),
    (KVClient, "scan", "kv.client.scan", "kv"),
    (VmmcEndpoint, "send", "vmmc.send", "vmmc"),
    (VmmcEndpoint, "read_remote", "vmmc.read_remote", "vmmc"),
    (VmmcEndpoint, "export", "vmmc.setup", "vmmc"),
    (VmmcEndpoint, "import_buffer", "vmmc.setup", "vmmc"),
    (VmmcEndpoint, "bind", "vmmc.setup", "vmmc"),
    (MeshBackplane, "inject", "mesh.inject", "mesh"),
    (Packetizer, "au_write", "nic.au_write", "nic"),
    (Packetizer, "du_emit", "nic.du_emit", "nic"),
    (DeliberateUpdateEngine, "submit", "nic.du_submit", "nic"),
    (NXProcess, "csend", "nx.csend", "nx"),
    (NXProcess, "crecv", "nx.crecv", "nx"),
    (ShrimpSocket, "send", "sockets.send", "sockets"),
    (ShrimpSocket, "recv", "sockets.recv", "sockets"),
    (VrpcClient, "call", "vrpc.call", "vrpc"),
    (SrpcClientBase, "_invoke", "srpc.call", "srpc"),
    (SrpcServerBase, "run", "srpc.server", "srpc"),
] + [(_ShardImpl, op, "kv.server." + op, "kv")
     for op in ("get", "put", "delete", "multi_get", "vget", "vput",
                "vdelete")]

#: Longest-prefix map from a process generator's module to its layer.
MODULE_LAYERS = [
    ("repro.hardware.router", "mesh"),
    ("repro.hardware.nic", "nic"),
    ("repro.hardware", "hardware"),
    ("repro.kernel", "kernel"),
    ("repro.vmmc", "vmmc"),
    ("repro.libs.shrimp_rpc", "srpc"),
    ("repro.libs.sockets", "sockets"),
    ("repro.libs.nx", "nx"),
    ("repro.libs.rpc", "vrpc"),
    ("repro.libs", "libs"),
    ("repro.apps.kv", "kv"),
    ("repro.workload", "workload"),
]
LAYERS = sorted({layer for _, layer in MODULE_LAYERS} | {"other"})

#: Server-side KV code: the shard handlers and every process whose
#: generator lives in these modules.
KV_SERVER_MODULES = ("repro.apps.kv.server", "repro.apps.kv.service",
                     "repro.apps.kv.admission", "repro.apps.kv.replication")

_DIGITS = re.compile(r"\d+")
_DISPATCH_QUEUE = "wl-dispatch-q"


def layer_of_module(module: str) -> str:
    """The layer a module belongs to ("other" outside the map)."""
    for prefix, layer in MODULE_LAYERS:
        if module == prefix or module.startswith(prefix + "."):
            return layer
    return "other"


class FrameStats:
    """Counters of one wrapped entry point or process kind."""

    __slots__ = ("layer", "server", "calls", "incl_ns", "run_self_ns",
                 "sim_us")

    def __init__(self, layer: str, server: bool = False):
        self.layer = layer
        self.server = server
        self.calls = 0
        self.incl_ns = 0        # host time in the frame's resumes
        self.run_self_ns = 0    # ... minus nested wrapped frames, counted
                                # while inside Simulator.run
        self.sim_us = 0.0       # simulated call-to-return time


class Tracer:
    """Install with :meth:`install`, run the workload under
    :meth:`measure`, :meth:`uninstall`.

    ``full=False`` wraps only ``Simulator.run``: the event-loop timer
    an untraced run uses for host time per scheduler entry.
    """

    def __init__(self):
        self.stats: Dict[str, FrameStats] = {}
        self.wall_ns = 0           # host time of the traced iteration
        self.run_ns = 0            # ... inside Simulator.run
        self.run_frames_ns = 0     # ... inside some wrapped frame
        self.sim: Optional[Simulator] = None
        self.dispatch_waits: List[float] = []
        self._arrivals: collections.deque = collections.deque()
        self._stack: List[List[int]] = [[0]]
        self._run_depth = 0
        self._patches = Patches()

    # -- accounting --------------------------------------------------------
    def stat(self, key: str, layer: str, server: bool = False) -> FrameStats:
        """The counters of ``key``, created on first use."""
        st = self.stats.get(key)
        if st is None:
            st = self.stats[key] = FrameStats(layer, server)
        return st

    def _leave(self, st: FrameStats, cell: List[int], t0: int) -> None:
        elapsed = _clock() - t0
        stack = self._stack
        stack.pop()
        st.incl_ns += elapsed
        if self._run_depth:
            st.run_self_ns += elapsed - cell[0]
        stack[-1][0] += elapsed

    def timed_generator(self, st: FrameStats, gen, track_sim: bool):
        """Drive ``gen`` one resume at a time, timing each resume."""
        st.calls += 1
        sim = self.sim if track_sim else None
        started = sim.now if sim is not None else 0.0
        stack = self._stack
        value = None
        error: Optional[BaseException] = None
        while True:
            cell = [0]
            stack.append(cell)
            t0 = _clock()
            try:
                if error is None:
                    target = gen.send(value)
                else:
                    target = gen.throw(error)
            except StopIteration as stop:
                self._leave(st, cell, t0)
                if sim is not None:
                    st.sim_us += sim.now - started
                return stop.value
            except BaseException:
                self._leave(st, cell, t0)
                raise
            self._leave(st, cell, t0)
            try:
                value = yield target
                error = None
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as exc:  # delivered into the callee
                value = None
                error = exc

    # -- wrappers ----------------------------------------------------------
    def _wrap_entry(self, owner: type, attr: str, key: str,
                    layer: str) -> None:
        original = owner.__dict__[attr]
        st = self.stat(key, layer, server=key.startswith("kv.server"))
        tracer = self
        if inspect.isgeneratorfunction(original):
            waits = key.startswith("kv.client.")

            def entry(*args, **kwargs):
                if waits and tracer._arrivals:
                    tracer.dispatch_waits.append(
                        tracer.sim.now - tracer._arrivals.popleft())
                return tracer.timed_generator(
                    st, original(*args, **kwargs), True)
        else:
            def entry(*args, **kwargs):
                st.calls += 1
                cell = [0]
                tracer._stack.append(cell)
                t0 = _clock()
                try:
                    return original(*args, **kwargs)
                finally:
                    tracer._leave(st, cell, t0)
        self._patches.replace(owner, attr, entry)

    def install(self, full: bool = True) -> "Tracer":
        """Wrap the entry points (only the event loop if not ``full``)."""
        tracer = self
        sim_init = Simulator.__dict__["__init__"]
        sim_run = Simulator.__dict__["run"]

        def init(sim, *args, **kwargs):
            sim_init(sim, *args, **kwargs)
            tracer.sim = sim

        def run(sim, *args, **kwargs):
            tracer._run_depth += 1
            cell = [0]
            tracer._stack.append(cell)
            t0 = _clock()
            try:
                return sim_run(sim, *args, **kwargs)
            finally:
                elapsed = _clock() - t0
                tracer._stack.pop()
                tracer._run_depth -= 1
                tracer.run_ns += elapsed
                tracer.run_frames_ns += cell[0]
                tracer._stack[-1][0] += elapsed

        self._patches.replace(Simulator, "__init__", init)
        self._patches.replace(Simulator, "run", run)
        if not full:
            return self

        for owner, attr, key, layer in ENTRY_POINTS:
            self._wrap_entry(owner, attr, key, layer)

        process_init = Process.__dict__["__init__"]

        def process(proc, sim, generator, name=""):
            name = name or getattr(generator, "__name__", "process")
            frame = getattr(generator, "gi_frame", None)
            module = frame.f_globals.get("__name__", "") if frame else ""
            st = tracer.stat("proc:" + _DIGITS.sub("#", name),
                             layer_of_module(module),
                             server=module.startswith(KV_SERVER_MODULES))
            process_init(proc, sim,
                         tracer.timed_generator(st, generator, False), name)

        self._patches.replace(Process, "__init__", process)

        store_put = Store.__dict__["try_put"]

        def try_put(store, item):
            if store.name == _DISPATCH_QUEUE and item is not None:
                tracer._arrivals.append(item[-1])
            return store_put(store, item)

        self._patches.replace(Store, "try_put", try_put)
        return self

    def uninstall(self) -> None:
        """Restore every wrapped attribute."""
        self._patches.restore()

    def measure(self, call):
        """Return ``call()``, timed as the traced iteration: its host
        time is what the shares are shares of."""
        t0 = _clock()
        try:
            return call()
        finally:
            self.wall_ns += _clock() - t0

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- results -----------------------------------------------------------
    def host_ns(self) -> Dict[str, int]:
        """Host ns of the traced iteration per layer (frame self time
        inside Simulator.run), plus ``"dispatch"`` (inside a run,
        outside every frame) and ``"outside"`` (outside every run)."""
        parts = {layer: 0 for layer in LAYERS}
        for st in self.stats.values():
            parts[st.layer] += st.run_self_ns
        parts["dispatch"] = self.run_ns - self.run_frames_ns
        parts["outside"] = self.wall_ns - self.run_ns
        return parts

    def attribution_gap_ns(self) -> int:
        """The parts of :meth:`host_ns` minus the measured wall time:
        0 when every nested frame was subtracted from its parent once."""
        return sum(self.host_ns().values()) - self.wall_ns

    def host_shares(self) -> Dict[str, float]:
        """:meth:`host_ns` as shares of the traced wall time."""
        wall = self.wall_ns
        return {part: ns / wall if wall else 0.0
                for part, ns in self.host_ns().items()}

    def share(self, pick) -> float:
        """Share of the traced wall time in the frames ``pick(key,
        stats)`` selects."""
        if not self.wall_ns:
            return 0.0
        return sum(st.run_self_ns for key, st in self.stats.items()
                   if pick(key, st)) / self.wall_ns

    def per_call(self, key: str) -> Tuple[float, float]:
        """(host µs, simulated µs) per call of ``key``; zeros if never
        called."""
        st = self.stats.get(key)
        if st is None or not st.calls:
            return 0.0, 0.0
        return st.incl_ns / 1e3 / st.calls, st.sim_us / st.calls
