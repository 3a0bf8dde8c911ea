"""Reference dispatcher: one generator process per actor and per vCPU.

The simulated runtime used to give every actor a dispatcher *process*
blocked on a ``Queue`` mailbox, and every server one ``_core_loop``
process per vCPU blocked on a run queue.  It now keeps the same state as
two fields on the actor's cell and a free-core count on the server, moved
by callbacks (``repro.actors.system``, ``repro.cluster.server``).  The
process design lives on here, whole, purely as the oracle: the queue with
its in-flight reclaim, the dispatch loop and the core loop, as they were.
``test_dispatch_differential.py`` runs the same programs through both and
diffs what they do and every ``schedule`` call they make.

:func:`install` patches the oracle's methods onto ``ActorSystem`` and
``Server`` for one test (through pytest's ``monkeypatch``), so any
scenario — a fuzz run, a regression test — can run on either design.
"""

from collections import deque

from repro.actors import ActorSystem
from repro.actors.directory import ActorCell
from repro.cluster import Server
from repro.cluster.server import CpuJob, ServerGauges
from repro.sim import Timeout, Waitable, spawn

_STOP = object()


def _ignore(value):
    """Callback of a getter nobody has subscribed to yet."""


class OracleQueueGet(Waitable):
    """Waitable returned by :meth:`OracleQueue.get`."""

    def __init__(self, queue):
        self._queue = queue
        self._callback = _ignore

    def _subscribe(self, callback):
        self._callback = callback
        self._queue._register_getter(self)

    def _unsubscribe(self, callback):
        self._queue._drop_getter(self)

    def _deliver(self, item):
        # The item is in flight for the rest of the timestamp; each
        # delivery is tracked so clear() can reclaim it.  The cancel flag
        # lives on the per-delivery entry: a reclaimed getter can be
        # re-delivered in the same timestamp, while the cancelled fire is
        # still pending.
        entry = [self, item, False]  # [getter, item, cancelled]
        queue = self._queue
        if queue._inflight is None:
            queue._inflight = deque()
        queue._inflight.append(entry)
        queue._sim.schedule(0.0, self._fire, entry)

    def _fire(self, entry):
        if entry[2]:
            return  # reclaimed by clear()
        self._queue._inflight.popleft()
        self._callback(entry[1])


class OracleQueue:
    """Unbounded FIFO with blocking ``get`` and in-flight reclaim."""

    def __init__(self, sim):
        self._sim = sim
        self._items = None
        self._getters = []
        self._inflight = None

    def __len__(self):
        return len(self._items) if self._items is not None else 0

    def put(self, item):
        if self._getters:
            self._getters.pop(0)._deliver(item)
            return
        if self._items is None:
            self._items = deque()
        self._items.append(item)

    def get(self):
        return OracleQueueGet(self)

    def clear(self):
        """Drop and return all in-flight, then all queued, items.

        A reclaimed delivery's fire becomes a no-op and its getter goes
        back to waiting, ahead of any younger waiters.
        """
        items = []
        if self._inflight:
            getters = []
            while self._inflight:
                entry = self._inflight.popleft()
                entry[2] = True
                getters.append(entry[0])
                items.append(entry[1])
            self._getters[:0] = getters
        if self._items is not None:
            items.extend(self._items)
            self._items.clear()
        return items

    def _register_getter(self, getter):
        if self._items:
            getter._deliver(self._items.popleft())
        else:
            self._getters.append(getter)

    def _drop_getter(self, getter):
        try:
            self._getters.remove(getter)
        except ValueError:
            pass


class OracleActorSystem(ActorSystem):
    """The dispatcher as a generator process on a queue mailbox."""

    def _start_dispatch(self, record):
        cell = record.cell = ActorCell(OracleQueue(self.sim))
        spawn(self.sim, self._dispatch_loop(record, cell),
              name=f"dispatch/{record.ref}")

    def _put(self, record, cell, item):
        cell.mailbox.put(item)

    def _stop_dispatch(self, record, cell):
        for message in cell.mailbox.clear():
            if self.overload is not None:
                self.overload.dispose(message, "crashed" if self._crashing
                                      else "dead-target")
            if message.reply is not None:
                message.reply.trigger(None)
        cell.mailbox.put(_STOP)
        inflight = cell.current
        if inflight is not None and inflight.reply is not None:
            inflight.reply.trigger(None)
        if cell.idle is not None:
            cell.idle.trigger()

    def _dispatch_loop(self, record, cell):
        mailbox = cell.mailbox
        while True:
            message = yield mailbox.get()
            if message is _STOP:
                return
            if self.overload is not None:
                self.overload.dispose(message, "consumed")
            if cell.gate is not None:
                yield cell.gate  # migration in progress: wait it out
            cell.busy = True
            cell.current = message
            collected = False
            try:
                handler = getattr(record.instance, message.function, None)
                if handler is None:
                    raise AttributeError(
                        f"{record.ref} has no function {message.function!r}")
                result = handler(*message.args)
                if hasattr(result, "send"):  # generator handler
                    result = yield from result
            except GeneratorExit:
                # Closed by the garbage collector: nothing can resume
                # this loop any more.  The original cleaned up here
                # anyway, at a moment only the collector chose (possibly
                # scheduling into a finished run); the oracle does not.
                collected = True
                raise
            finally:
                if not collected:
                    cell.busy = False
                    cell.current = None
                    idle, cell.idle = cell.idle, None
                    if idle is not None:
                        idle.trigger()
            if message.reply is not None:
                self._send_reply(record, message, result)


class OracleServer(Server):
    """Cores as one generator process per vCPU on a run queue."""

    def __init__(self, sim, itype, server_id, name=None):
        ServerGauges.__init__(self, sim, itype, server_id,
                              name or f"{itype.name}-{server_id}")
        self.sim = sim
        self.speed_factor = 1.0
        self._run_queue = OracleQueue(sim)
        self._cores = [
            spawn(sim, self._core_loop(), name=f"{self.name}/core{i}")
            for i in range(itype.vcpus)
        ]

    def execute(self, demand_ms, owner=None):
        if demand_ms < 0:
            raise ValueError(f"negative CPU demand: {demand_ms!r}")
        job = CpuJob(self.sim, demand_ms, owner)
        self._run_queue.put(job)
        return job

    def _core_loop(self):
        while True:
            job = yield self._run_queue.get()
            if job is None:  # shutdown sentinel
                return
            scaled = job.demand_ms / (self.itype.cpu_speed
                                      * self.speed_factor)
            if scaled > 0:
                yield Timeout(self.sim, scaled)
            if self.running:
                self.cpu_meter.add(scaled)
            job.trigger(scaled)

    def run_queue_length(self):
        return len(self._run_queue)

    def shutdown(self):
        if not self.running:
            return
        self.running = False
        for _ in self._cores:
            self._run_queue.put(None)


_PATCHES = (
    (ActorSystem, OracleActorSystem,
     ("_start_dispatch", "_put", "_stop_dispatch", "_dispatch_loop")),
    (Server, OracleServer,
     ("__init__", "execute", "_core_loop", "run_queue_length", "shutdown")),
)


def install(monkeypatch):
    """Run every ``ActorSystem`` and ``Server`` on the oracle until the
    test using ``monkeypatch`` ends."""
    for target, oracle, names in _PATCHES:
        for name in names:
            monkeypatch.setattr(target, name, oracle.__dict__[name],
                                raising=False)
