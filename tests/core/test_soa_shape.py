"""One class per wheel scheme: the SoA store replaces only chain storage.

Each struct-of-arrays class subclasses its object scheme, with the row
client API (:class:`~repro.core.soa_base.SoATimerScheduler`) ahead of
the scheme in the MRO. The scheme's constructor checks, geometry,
``introspect`` and fast-path planning therefore exist once; the SoA
class itself may define only its occupancy accessor and the row hooks
that walk the store's columns.
"""

from __future__ import annotations

import pytest

from repro.core.scheme4_wheel import TimingWheelScheduler
from repro.core.scheme6_hashed_unsorted import HashedWheelUnsortedScheduler
from repro.core.scheme7_hierarchical import HierarchicalWheelScheduler
from repro.core.soa_base import SoATimerScheduler
from repro.core.soa_schemes import (
    SoAHashedWheelUnsortedScheduler,
    SoAHierarchicalWheelScheduler,
    SoATimingWheelScheduler,
)

ROW_HOOKS = {"_insert_row", "_remove_row", "_update_row", "_collect_expired"}

#: (SoA class, object scheme, a store-switch constructor, extra members).
SHAPES = [
    (
        SoATimingWheelScheduler,
        TimingWheelScheduler,
        lambda: TimingWheelScheduler(64, store="soa"),
        {"slot_sizes"},
    ),
    (
        SoAHashedWheelUnsortedScheduler,
        HashedWheelUnsortedScheduler,
        lambda: HashedWheelUnsortedScheduler(64, store="soa"),
        {"bucket_sizes"},
    ),
    (
        SoAHierarchicalWheelScheduler,
        HierarchicalWheelScheduler,
        lambda: HierarchicalWheelScheduler((8, 8), store="soa"),
        {"slot_sizes", "_place", "_handle_cascaded"},
    ),
]


@pytest.mark.parametrize(
    "soa_cls,scheme,build,extra",
    SHAPES,
    ids=["scheme4", "scheme6", "scheme7"],
)
def test_soa_class_subclasses_its_scheme_and_defines_only_chain_storage(
    soa_cls, scheme, build, extra
):
    assert issubclass(soa_cls, scheme)
    mro = soa_cls.__mro__
    assert mro.index(SoATimerScheduler) < mro.index(scheme)
    assert type(build()) is soa_cls
    own = {
        name
        for name in vars(soa_cls)
        if not (name.startswith("__") and name.endswith("__"))
        and name != "_abc_impl"
    }
    assert own == ROW_HOOKS | extra
