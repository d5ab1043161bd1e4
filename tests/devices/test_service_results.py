"""The device service records and the positional service chain.

The router calls :meth:`DeviceService.transfer` by position, and each
service calls its device's ``service`` by position, so the parameter
lists are part of the contract: a reordered or renamed parameter would
move a value into the wrong slot without an error.  The records are
NamedTuples built by position, so their field order is pinned too.
"""

from __future__ import annotations

import inspect

import pytest

from repro.devices.disk import DiskServiceResult, HardDisk
from repro.devices.service import DeviceService, DiskService, WnicService
from repro.devices.wnic import Direction, WirelessNic, WnicServiceResult

DISK_FIELDS = ("arrival", "start", "first_byte", "completion", "energy",
               "spun_up", "waited_for_spindown", "failed")
WNIC_FIELDS = ("arrival", "start", "first_byte", "completion", "energy",
               "woke_up", "failed")


@pytest.mark.parametrize("record,fields", [
    (DiskServiceResult, DISK_FIELDS),
    (WnicServiceResult, WNIC_FIELDS),
], ids=["disk", "wnic"])
class TestRecords:
    def test_field_names_order_and_defaults(self, record, fields):
        assert record._fields == fields
        assert record._field_defaults == {"failed": False}

    def test_records_are_immutable(self, record, fields):
        result = record(*range(len(fields)))
        for name in fields:
            with pytest.raises(AttributeError):
                setattr(result, name, 1.0)
        with pytest.raises(AttributeError):
            result.extra = 1.0


def _parameters(fn):
    return [(p.name, p.kind) for p in
            inspect.signature(fn).parameters.values()]


@pytest.mark.parametrize("service", [DiskService, WnicService],
                         ids=["disk", "wnic"])
def test_transfer_matches_the_protocol_parameter_list(service):
    protocol = _parameters(DeviceService.transfer)
    assert _parameters(service.transfer) == protocol
    # The router passes every argument by position.
    assert all(kind is inspect.Parameter.POSITIONAL_OR_KEYWORD
               for _, kind in protocol)


class TestPositionalAndKeywordService:
    """``service`` accepts its arguments either way, with one result."""

    def test_disk(self):
        requests = [(0.0, 65536, 100, 16), (0.5, 4096, 116, 1),
                    (30.0, 8192, 9000, 2)]
        positional, keyword = HardDisk(), HardDisk()
        for time, size, block, count in requests:
            assert positional.service(time, size, block, count) == \
                keyword.service(time, size, block=block, block_count=count)
        assert positional.meter.total() == keyword.meter.total()

    def test_wnic(self):
        requests = [(0.0, 65536, Direction.RECV), (0.2, 4096, Direction.SEND),
                    (5.0, 1 << 20, Direction.RECV)]
        positional, keyword = WirelessNic(), WirelessNic()
        for time, size, direction in requests:
            assert positional.service(time, size, direction) == \
                keyword.service(time, size, direction=direction)
        assert positional.meter.total() == keyword.meter.total()
