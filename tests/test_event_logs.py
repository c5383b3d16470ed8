"""Golden of whole event logs: the SHA-256 and line count of each config's log.

The CSV rows and the sink order cannot show where control events fall
relative to each other. The full event log can: a candidate, permit or
beacon_loss line that moves past an RA, DAD or drop line at the same instant
changes the digest. One tie that the beacon path must keep remains (found
with a probe of on_beacon_loss): a beacon loss at a beacon send time
(radio.bitrate = 12800, so a beacon takes half an interval to arrive), which
must come before that beacon is sent: bitrate12800-hard, five losses. The
acting beacons that arrived at the same instant as an RA frame (two in
churn-soft-8, six in miss1-bi0.5-soft) met periodic RAs, which are gone; a
probe of every executed event now finds no two control events of different
kinds at one instant in any config here.

The two VoIP runs with a 50 ms foreign link hold downlink packets still on
their way over several source ticks, so their drop and intercept lines of
different packets interleave. The two VoIP runs with 0.2 s talk spurts and
0.3 s silences start a spurt in one flow every 0.25 s on average, so the two
flows' spurt starts and ticks interleave densely.

foreignx150-soft (VoIP at 1 m/s, 231 packets lost) and foreignx185-soft
(0.5 Mb/s video at 10 m/s, 67 lost) pin soft runs whose cells overlap, where
the foreign AP is heard from the start of the path or long before the home
AP is lost; churn-hard-10-520s retraces the path 2.6 times, so beacons are
heard on the way back and on the second sweep as well as the first.

homex-150-hard-40 (0.5 Mb/s video at 40 m/s, the home AP at (-150, 0))
loses its link 0.85 s into the home address's first DAD. The next home
visit runs DAD on the home address again and validates it, and no later
visit runs DAD on it; the uplink flows from then on (1,624 of 2,250 packets
received, 9 handovers). When a cut DAD left the home address tentative for
good, this run received none.

random-1024 (config 1024 of check_goldens.py --random, hard VoIP at
7.95 m/s) pins a handover that never completes. The foreign AP hears the
association request at 164.03 s, but its response is lost, so the candidate
is never confirmed. The beacon-loss watchdog is armed only at confirmation,
so nothing clears the candidate, and no later beacon can act: the run ends
with a 161.14 s gap and a loss rate of 0.80. A fix that times such a
candidate out changes this digest on purpose; its timeout event must use a
callback listed in bench/tracer.py HANDLERS.

miss1-bi0.5-soft makes 10 handovers: a network is fresh when heard over one
whole beacon interval after the last heard beacon (it made 14 while arrival
times were compared as floats). foreignx150-hard makes one handover and
churn-hard-10-520s 26, so none of the three asserts the count (nor does
homex-150-hard-40). The configs
live in tests/check_goldens.py, which also checks this golden without pytest
and, with --write, refreshes it after an intended change of the log (say in
CHANGES.md which lines changed and why).
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from check_goldens import EVENT_LOG_CONFIGS as CONFIGS, log_digest

GOLDEN = Path(__file__).parent / "golden" / "event_logs.json"


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_event_log_matches_golden(name):
    want = json.loads(GOLDEN.read_text())[name]
    got = log_digest(CONFIGS[name])
    assert got == want, f"{name}: event log differs from {GOLDEN.name}: {got}"
