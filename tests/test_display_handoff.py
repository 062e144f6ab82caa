"""The receiver hands each displayed frame to its flow at the display
instant, on both engines.

A frame is displayed either by the arrival that completes it or by the
receiver's skip timer, which abandons a hole and displays the complete
frames stuck behind it. Either way the sender's ``FrameMetrics`` must
be stamped, and the frame's RTX entry forgotten, right then — not at
whatever packet arrives next. The run is the PLI scenario: blind
bursting into a 15 KB queue loses whole frame tails, so the skip timer
fires often.
"""

from __future__ import annotations

import weakref

import pytest

from repro.net.trace import BandwidthTrace
from repro.rtc.baselines import build_session
from repro.rtc.session import SessionConfig

ENGINES = ("reference", "batch")


def burst_session(engine: str):
    config = SessionConfig(duration=10.0, seed=6, queue_capacity_bytes=15_000,
                           initial_bwe_bps=8e6)
    return build_session("always-burst", BandwidthTrace.constant(15e6),
                         config, engine=engine)


@pytest.mark.parametrize("engine", ENGINES)
def test_frames_the_skip_timer_displays_are_stamped_at_once(engine):
    session = burst_session(engine)
    sender, receiver = session.sender, session.receiver
    tick = receiver._skip_tick
    shown, lapses = [], []

    def checked_tick():
        first = receiver._next_display_id
        tick()
        rtx_ids = {entry[0] for entry in sender._rtx_frames}
        for fid in range(first, receiver._next_display_id):
            record = receiver.frames.get(fid)
            if record is None or record.displayed_at is None:
                continue                        # the abandoned hole
            shown.append(fid)
            if sender.frame_metrics[fid].displayed_at is None or fid in rtx_ids:
                lapses.append(fid)

    receiver._skip_tick = checked_tick
    session.run()
    assert len(shown) > 20, "the run is meant to display through skips"
    assert lapses == [], (
        f"{len(lapses)} of {len(shown)} frames the skip timer displayed were "
        "not stamped, or kept their RTX entry, right after it fired")


@pytest.mark.parametrize("engine", ENGINES)
def test_no_encoded_frame_outlives_its_encoded_event(engine):
    session = burst_session(engine)
    sender = session.sender
    handle = sender._frame_encoded
    refs, alive = [], []

    def watched(encoded):
        # every frame whose event fired earlier is gone by now
        alive.extend(ref for ref in refs if ref() is not None)
        refs.append(weakref.ref(encoded))
        handle(encoded)

    sender._frame_encoded = watched
    session.run()
    assert len(refs) > 200
    assert alive == [] and all(ref() is None for ref in refs)
