"""The paper's primary contribution: seven timer schemes behind one interface.

Quick use::

    from repro.core import HierarchicalWheelScheduler

    sched = HierarchicalWheelScheduler(slot_counts=(60, 60, 24, 100))
    t = sched.start_timer(3645, callback=lambda timer: print("expired", timer))
    sched.advance(3645)   # fires the callback on the final tick
"""

from repro.core.errors import (
    SchedulerShutdownError,
    TimerConfigurationError,
    TimerError,
    TimerIntervalError,
    TimerLivelockError,
    TimerStateError,
    UnknownTimerError,
)
from repro.core.interface import (
    BoundedErrorLog,
    ExpiryAction,
    Timer,
    TimerScheduler,
    TimerState,
)
from repro.core.observer import (
    NULL_OBSERVER,
    CompositeObserver,
    NullObserver,
    TimerObserver,
)
from repro.core.registry import (
    make_scheduler,
    register_scheme,
    scheme_names,
    scheme_summary,
)
from repro.core.scheme1_unordered import StraightforwardScheduler
from repro.core.scheme2_ordered_list import OrderedListScheduler
from repro.core.scheme3_trees import (
    HeapScheduler,
    LeftistTreeScheduler,
    PriorityQueueScheduler,
    RedBlackTreeScheduler,
    UnbalancedBSTScheduler,
)
from repro.core.clock import VirtualClock, WallClock
from repro.core.layer import SchedulerLayer
from repro.core.periodic import PeriodicTimer, every
from repro.core.supervision import (
    OVERLOAD_POLICIES,
    QuarantineRecord,
    RearmId,
    RetryPolicy,
    SupervisedScheduler,
    origin_of,
)
from repro.core.threadsafe import ThreadSafeScheduler
from repro.core.scheme4_hybrid import HybridWheelScheduler
from repro.core.scheme4_wheel import TimingWheelScheduler
from repro.core.scheme5_hashed_sorted import HashedWheelSortedScheduler
from repro.core.scheme6_hashed_unsorted import HashedWheelUnsortedScheduler
from repro.core.scheme7_hierarchical import (
    BINARY_LEVELS,
    PAPER_LEVELS,
    HierarchicalWheelScheduler,
)
from repro.core.scheme7_variants import (
    LossyHierarchicalScheduler,
    SingleMigrationHierarchicalScheduler,
)
from repro.core.scheme8_lawn import LawnScheduler
from repro.core.scheme_gsq import GroupedSortingQueueScheduler

__all__ = [
    "Timer",
    "TimerScheduler",
    "TimerState",
    "ExpiryAction",
    "TimerError",
    "TimerConfigurationError",
    "TimerIntervalError",
    "TimerLivelockError",
    "TimerStateError",
    "UnknownTimerError",
    "SchedulerShutdownError",
    "TimerObserver",
    "NullObserver",
    "CompositeObserver",
    "NULL_OBSERVER",
    "StraightforwardScheduler",
    "OrderedListScheduler",
    "PriorityQueueScheduler",
    "HeapScheduler",
    "UnbalancedBSTScheduler",
    "RedBlackTreeScheduler",
    "LeftistTreeScheduler",
    "TimingWheelScheduler",
    "HybridWheelScheduler",
    "PeriodicTimer",
    "every",
    "VirtualClock",
    "WallClock",
    "SchedulerLayer",
    "ThreadSafeScheduler",
    "SupervisedScheduler",
    "RetryPolicy",
    "RearmId",
    "QuarantineRecord",
    "OVERLOAD_POLICIES",
    "origin_of",
    "BoundedErrorLog",
    "HashedWheelSortedScheduler",
    "HashedWheelUnsortedScheduler",
    "HierarchicalWheelScheduler",
    "LossyHierarchicalScheduler",
    "SingleMigrationHierarchicalScheduler",
    "LawnScheduler",
    "GroupedSortingQueueScheduler",
    "PAPER_LEVELS",
    "BINARY_LEVELS",
    "make_scheduler",
    "register_scheme",
    "scheme_names",
    "scheme_summary",
]
