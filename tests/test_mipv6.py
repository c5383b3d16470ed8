import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vhosim.engine import Simulator
from vhosim.ipv6 import IPV6_HEADER_BITS, Address, Packet
from vhosim.mipv6 import (
    BindingAck,
    BindingCache,
    BindingUpdate,
    MnBindingManager,
    TunnelError,
    decapsulate,
    encapsulate,
)

HOME = 0x20010DB800010000
FOREIGN = 0x20010DB800020000
CORE = 0x20010DB800030000

HOA = Address(HOME, 0xAA)
COA_A = Address(FOREIGN, 0xAA)
COA_B = Address(FOREIGN, 0xBB)
COA_C = Address(FOREIGN, 0xCC)
HA = Address(HOME, 0x1)
CN = Address(CORE, 0x2)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 2),  # HoA
                          st.integers(0, 2),  # CoA
                          st.integers(0, 12),  # seq
                          st.sampled_from([0.0, 10.0, 420.0])),  # 0 = deregister
                min_size=1, max_size=40))
def test_binding_cache_sequence_numbers_under_random_bu_streams(stream):
    cache = BindingCache()
    accepted: dict[Address, list[int]] = {}
    binding: dict[Address, Address] = {}  # what the cache must hold
    for h, c, seq, lifetime in stream:
        hoa, coa = Address(HOME, 0xA0 + h), Address(FOREIGN, 0xC0 + c)
        seen = accepted.setdefault(hoa, [])
        ack = cache.process(BindingUpdate(hoa, coa, seq, lifetime), now=0.0)
        assert (ack.hoa, ack.seq) == (hoa, seq)
        # a seq at or below the last accepted one is stale, any higher one
        # is accepted: so the accepted seqs of each HoA strictly increase
        stale = bool(seen) and seq <= seen[-1]
        assert ack.status == ("rejected-stale" if stale else "accepted")
        if not stale:
            seen.append(seq)
            if lifetime > 0:
                binding[hoa] = coa
            else:
                binding.pop(hoa, None)
        for other in accepted:
            assert cache.lookup(other, now=0.0) == binding.get(other)


def test_binding_cache_scripted_trace():
    """Hand-enumerated register / update / replay / deregister sequence.

    Expected cache state after each event was worked out by hand from the
    strictly-increasing-sequence rule.
    """
    cache = BindingCache()
    script = [
        # (bu, expected status, expected coa for HOA afterwards)
        (BindingUpdate(HOA, COA_A, 1, 420.0), "accepted", COA_A),
        (BindingUpdate(HOA, COA_B, 2, 420.0), "accepted", COA_B),
        (BindingUpdate(HOA, COA_A, 2, 420.0), "rejected-stale", COA_B),
        (BindingUpdate(HOA, COA_B, 3, 0.0), "accepted", None),    # deregister
        (BindingUpdate(HOA, COA_A, 3, 420.0), "rejected-stale", None),
        (BindingUpdate(HOA, COA_C, 4, 420.0), "accepted", COA_C),
    ]
    for step, (bu, status, coa) in enumerate(script):
        ba = cache.process(bu, now=float(step))
        assert ba.status == status, f"step {step}"
        assert ba.seq == bu.seq and ba.hoa == HOA
        assert cache.lookup(HOA, now=float(step)) == coa, f"step {step}"


def test_binding_expires_after_lifetime():
    cache = BindingCache()
    cache.process(BindingUpdate(HOA, COA_A, 1, 10.0), now=0.0)
    assert cache.lookup(HOA, now=10.0) == COA_A
    assert cache.lookup(HOA, now=10.1) is None
    assert cache.lookup(HOA, now=10.1) is None  # purge is sticky


def test_sequence_monotonicity_survives_deregistration():
    cache = BindingCache()
    cache.process(BindingUpdate(HOA, COA_A, 5, 420.0), now=0.0)
    cache.process(BindingUpdate(HOA, COA_A, 6, 0.0), now=1.0)
    ba = cache.process(BindingUpdate(HOA, COA_B, 6, 420.0), now=2.0)
    assert ba.status == "rejected-stale"
    assert cache.lookup(HOA, now=2.0) is None


def test_encapsulate_decapsulate_round_trip():
    inner = Packet(HOA, CN, 10000, payload="x")
    outer = encapsulate(inner, COA_A, HA)
    assert outer.inner is inner
    assert outer.size_bits == 10000 + IPV6_HEADER_BITS
    assert outer.src == COA_A and outer.dst == HA
    assert decapsulate(outer) is inner
    with pytest.raises(TunnelError):
        decapsulate(inner)


class MnRig:
    """Binding manager wired to scripted host/llc state; AP and HA are offline."""

    def __init__(self):
        self.sim = Simulator()
        self.sent = []
        self.llc = _StubLlc()
        host = _StubHost()
        self.host = host
        self.mip = MnBindingManager(self.sim, "mn", host, self.llc, self.sent.append)

    def move_to(self, iface, addr):
        self.llc.serving = iface
        self.host.addrs[iface] = addr


class _StubLlc:
    """The one thing the binding manager reads of the controller."""

    serving = None


class _StubHost:
    def __init__(self):
        self.home_address = HOA
        self.ha_address = HA
        self.addrs = {}

    def global_address(self, iface_id):
        return self.addrs.get(iface_id)


def test_registration_retransmits_then_stops_on_ack():
    rig = MnRig()
    rig.move_to("wlan1", COA_A)
    rig.mip.on_serving_changed()
    assert [seq for _, seq, _, _ in rig.mip.bu_log] == [1]
    rig.sim.run_until(1.0)  # first BA never arrives: retransmit, same sequence
    assert [seq for _, seq, _, _ in rig.mip.bu_log] == [1, 1]
    rig.mip.on_binding_ack(BindingAck(HOA, 1, "accepted"))
    assert rig.mip.binding_active
    rig.sim.run_until(3.0)
    assert len(rig.mip.bu_log) == 2  # ack cancelled further retransmissions


def test_registration_gives_up_after_three_attempts():
    rig = MnRig()
    rig.move_to("wlan1", COA_A)
    rig.mip.on_serving_changed()
    rig.sim.run_until(10.0)
    assert [seq for _, seq, _, _ in rig.mip.bu_log] == [1, 1, 1]
    assert not rig.mip.binding_active


def test_returning_home_deregisters_with_zero_lifetime():
    rig = MnRig()
    rig.move_to("wlan1", COA_A)
    rig.mip.on_serving_changed()
    rig.mip.on_binding_ack(BindingAck(HOA, 1, "accepted"))
    rig.move_to("wlan0", HOA)
    rig.mip.on_serving_changed()
    t, seq, coa, lifetime = rig.mip.bu_log[-1]
    assert (seq, lifetime) == (2, 0.0)
    rig.mip.on_binding_ack(BindingAck(HOA, 2, "accepted"))
    assert not rig.mip.binding_active


def test_no_registration_while_at_home_initially():
    rig = MnRig()
    rig.move_to("wlan0", HOA)
    rig.mip.on_serving_changed()
    assert rig.mip.bu_log == []  # nothing to deregister


def test_binding_refresh_at_half_lifetime():
    rig = MnRig()
    rig.move_to("wlan1", COA_A)
    rig.mip.on_serving_changed()
    rig.mip.on_binding_ack(BindingAck(HOA, 1, "accepted"))
    rig.sim.run_until(211.0)  # just past lifetime/2 = 210 s
    assert rig.mip.bu_log[-1][1] == 2  # refresh uses the next sequence number
    assert rig.mip.bu_log[-1][3] == 420.0


def test_stale_ack_is_ignored():
    rig = MnRig()
    rig.move_to("wlan1", COA_A)
    rig.mip.on_serving_changed()
    rig.mip.on_binding_ack(BindingAck(HOA, 99, "accepted"))
    assert not rig.mip.binding_active
    rig.mip.on_binding_ack(BindingAck(HOA, 1, "rejected-stale"))
    assert not rig.mip.binding_active


def test_reverse_tunnel_keeps_home_address_as_inner_source():
    rig = MnRig()
    rig.move_to("wlan1", COA_A)
    inner = Packet(HOA, CN, 10000)
    outer = rig.mip.wrap_outgoing(inner)
    assert outer.inner is inner
    assert outer.src == COA_A and outer.dst == HA
    assert outer.inner.src == HOA
    # at home the packet goes out natively, untouched
    rig.move_to("wlan0", HOA)
    assert rig.mip.wrap_outgoing(inner) is inner

