"""Device power and performance models.

Each device's fault-free model is one step function that the live
device and the cost model both run.

* :mod:`repro.devices.specs` — parameter records for the Hitachi DK23DA
  disk (paper Table 1) and Cisco Aironet 350 WNIC (paper Table 2).
* :mod:`repro.devices.power` — a generic timed power-state machine
  whose operating point and energy meter live in one slots record.
* :mod:`repro.devices.disk` — the hard-disk model (seek + rotation +
  transfer, timeout spin-down dynamic power management).
* :mod:`repro.devices.wnic` — the 802.11b wireless NIC model (CAM/PSM,
  adaptive mode switching, latency + bandwidth service).
* :mod:`repro.devices.layout` — mapping of traced files onto disk blocks
  ("sequential with a small random distance between files", §3.2).
"""

from repro.devices.disk import DiskState, HardDisk
from repro.devices.dpm import AdaptiveTimeout, FixedTimeout, SpindownPolicy
from repro.devices.layout import DiskLayout, FileExtentMap
from repro.devices.power import PowerStateMachine, StateSpec, TransitionSpec
from repro.devices.specs import (
    AIRONET_350,
    HITACHI_DK23DA,
    WNIC_RATES_BPS,
    DiskSpec,
    WnicSpec,
)
from repro.devices.wnic import WnicMode, WirelessNic

__all__ = [
    "DiskState",
    "HardDisk",
    "AdaptiveTimeout",
    "FixedTimeout",
    "SpindownPolicy",
    "DiskLayout",
    "FileExtentMap",
    "PowerStateMachine",
    "StateSpec",
    "TransitionSpec",
    "AIRONET_350",
    "HITACHI_DK23DA",
    "WNIC_RATES_BPS",
    "DiskSpec",
    "WnicSpec",
    "WnicMode",
    "WirelessNic",
]
