"""One base for the layers of a scheduler stack: the surface declared once.

The paper's timer module is one interface, and a deployed stack wraps it
in layers — :class:`~repro.core.threadsafe.ThreadSafeScheduler`,
:class:`~repro.core.supervision.SupervisedScheduler`,
:class:`~repro.durability.service.DurableScheduler` — each around exactly
one scheduler and each changing only a few of its calls.
:class:`SchedulerLayer` states the rest once: :data:`SURFACE` lists every
call and property a layer passes through unchanged, and the base compiles
one flat forwarder per entry, a single frame that calls straight into the
wrapped layer (no ``__getattr__``, which would slow every attribute read
on the instance).

The client mutations (:data:`MUTATIONS`) are not forwarded. Every layer
defines its own START, STOP and UPDATE, so a journaling or supervising
layer cannot inherit a mutation that skips it; class creation fails if
one is missing. A layer created with ``locked=True`` instead gets every
surface entry and every mutation compiled to run under ``self._lock`` —
the Appendix A.2 "global semaphore" around the whole module.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

#: ``name: (parameters, summary)``; ``None`` parameters mark a property.
Declaration = Dict[str, Tuple[Optional[str], str]]

#: Reads a layer passes through: properties and side-effect-free calls.
READS: Declaration = {
    "now": (None, "Current tick."),
    "pending_count": (None, "Outstanding timers."),
    "free_record_count": (None, "Free rows pooled by an SoA store; 0 otherwise."),
    "is_shut_down": (None, "True after :meth:`shutdown`."),
    "ERROR_POLICIES": (None, "The accepted error-policy names."),
    "scheme_name": (None, "The wrapped scheme's registry name."),
    "counter": (None, "The wrapped scheme's :class:`~repro.cost.OpCounter`."),
    "observer": (None, "The attached observer."),
    "callback_errors": (None, "The ring of collected Expiry_Action failures."),
    "dropped_errors": (None, "Collected failures evicted by the ring's bound."),
    "is_pending": ("request_id", "True when ``request_id`` names a live timer."),
    "get_timer": ("request_id", "The pending record ``request_id`` names."),
    "pending_timers": ("", "The outstanding records."),
    "max_start_interval": ("", "START_TIMER's interval bound, ``None`` if unbounded."),
    "next_expiry": ("", "Lower bound on the next firing tick, ``None`` when idle."),
    "_next_event": ("", "Next tick that needs bookkeeping (a sparse-advance hop)."),
    "introspect": ("", "Structure snapshot."),
}

#: Calls a layer passes through that change the stack: observers, the
#: error ring and the clock.
COMMANDS: Declaration = {
    "attach_observer": ("observer", "Attach ``observer``; returns the previous one."),
    "detach_observer": ("", "Detach the observer; returns it."),
    "set_error_policy": ("policy", "Choose how failing Expiry_Actions are handled."),
    "set_error_capacity": ("capacity", "Resize the collected-failure ring."),
    "clear_callback_errors": ("", "Drain the collected-failure ring."),
    "tick": ("", "PER_TICK_BOOKKEEPING for one tick."),
    "advance": ("ticks", "Advance the clock ``ticks`` ticks."),
    "advance_to": ("deadline", "Advance the clock to absolute tick ``deadline``."),
    "run_until_idle": ("max_ticks=1_000_000", "Run until no timer is pending."),
    "shutdown": ("", "Cancel every timer and close the module."),
}

#: Everything the base forwards.
SURFACE: Declaration = {**READS, **COMMANDS}

#: The client mutations, which each layer defines for itself. A
#: ``locked`` layer forwards all four; others need only the first three.
MUTATIONS: Declaration = {
    "start_timer": (
        "interval, request_id=None, callback=None, user_data=None",
        "START_TIMER.",
    ),
    "stop_timer": ("timer_or_id", "STOP_TIMER."),
    "update_timer": ("timer_or_id, new_interval", "UPDATE_TIMER."),
    "restart_timer": (
        "timer, interval=None, request_id=None",
        "Restart a fired or stopped record.",
    ),
}
REQUIRED_MUTATIONS = ("start_timer", "stop_timer", "update_timer")

_PLAIN = "return {call}"
#: Reads under the lock: one frame, one ``with``.
_READ_LOCKED = "with self._lock:\n    return {call}"
#: Changes under the lock, counting the acquisitions that had to wait.
_COMMAND_LOCKED = """\
lock = self._lock
if not lock.acquire(False):
    self.contended_acquisitions += 1
    lock.acquire()
try:
    return {call}
finally:
    lock.release()"""


def _argument(parameter: str) -> str:
    name, _, default = parameter.partition("=")
    return f"{name}={name}" if default else name


def install_forwarders(
    cls: type, declaration: Declaration, body: str, suffix: str = ""
) -> None:
    """Give ``cls`` a flat forwarder for each ``declaration`` entry it lacks.

    ``body`` is the function body around ``{call}``, the forwarded
    expression (``self._inner.<name>(<arguments>)``, or
    ``self._inner.<name>`` for a property). The code is compiled in the
    namespace of ``cls``'s module, so profilers and tracebacks attribute
    its frames to the layer that owns them. ``suffix`` is appended to each
    docstring.
    """
    declaration = {n: e for n, e in declaration.items() if n not in cls.__dict__}
    source = []
    for name, (parameters, _) in declaration.items():
        if parameters is None:
            call, signature = f"self._inner.{name}", "self"
        else:
            arguments = ", ".join(_argument(p) for p in parameters.split(", ") if p)
            call = f"self._inner.{name}({arguments})"
            signature = f"self, {parameters}" if parameters else "self"
        lines = body.format(call=call).splitlines()
        source.append(f"def {name}({signature}):\n    " + "\n    ".join(lines))
    namespace: Dict[str, object] = {"__name__": cls.__module__}
    code = compile("\n".join(source), f"<{cls.__qualname__} forwarders>", "exec")
    exec(code, namespace)
    for name, (parameters, summary) in declaration.items():
        function = namespace[name]
        function.__doc__ = summary + suffix
        function.__qualname__ = f"{cls.__qualname__}.{name}"
        setattr(cls, name, function if parameters is not None else property(function))


class SchedulerLayer:
    """A scheduler that wraps exactly one other and forwards its surface.

    Subclasses override the surface calls they intercept and must define
    ``start_timer``, ``stop_timer`` and ``update_timer``. With
    ``locked=True`` (``class L(SchedulerLayer, locked=True)``) the class
    instead gets every :data:`SURFACE` entry and every :data:`MUTATIONS`
    entry it does not define compiled to hold ``self._lock``; its
    instances must also carry a ``contended_acquisitions`` count.
    """

    def __init_subclass__(cls, locked: bool = False, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        if locked:
            suffix = " Forwarded under the layer lock."
            install_forwarders(cls, READS, _READ_LOCKED, suffix)
            install_forwarders(cls, {**COMMANDS, **MUTATIONS}, _COMMAND_LOCKED, suffix)
        missing = [name for name in REQUIRED_MUTATIONS if not hasattr(cls, name)]
        if missing:
            raise TypeError(f"{cls.__name__} must define {', '.join(missing)}")

    def __init__(self, inner) -> None:
        self._inner = inner


install_forwarders(SchedulerLayer, SURFACE, _PLAIN)
