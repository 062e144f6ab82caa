"""Tests for the VMAF-like quality model."""

import pytest

from repro.video.quality import QualityModel


@pytest.fixture
def qm():
    return QualityModel()


def test_score_monotonic_in_bits(qm):
    scores = [qm.score(bits, satd=1.0) for bits in (1e4, 1e5, 1e6, 1e7)]
    assert scores == sorted(scores)
    assert all(0 <= s <= qm.VMAX for s in scores)


def test_score_decreases_with_difficulty(qm):
    bits = 1e6
    assert qm.score(bits, satd=0.5) > qm.score(bits, satd=1.0) > qm.score(bits, satd=2.0)


def test_zero_bits_is_zero_quality(qm):
    assert qm.score(0, satd=1.0) == 0.0


def test_saturation_at_high_rate(qm):
    """Doubling bits near the top of the curve buys almost nothing."""
    high = qm.score(5e7, satd=1.0)
    higher = qm.score(1e8, satd=1.0)
    assert higher - high < 1.0
    assert higher < qm.VMAX


def test_bits_for_score_inverts_score(qm):
    for target in (30.0, 60.0, 90.0):
        bits = qm.bits_for_score(target, satd=1.3)
        assert qm.score(bits, satd=1.3) == pytest.approx(target, abs=1e-6)


def test_bits_for_score_validates_range(qm):
    with pytest.raises(ValueError):
        qm.bits_for_score(0.0, satd=1.0)
    with pytest.raises(ValueError):
        qm.bits_for_score(100.0, satd=1.0)


def test_efficiency_shifts_demand(qm):
    """A more efficient codec (efficiency < 1) needs fewer bits."""
    base = qm.bits_for_score(85.0, satd=1.0, efficiency=1.0)
    av1 = qm.bits_for_score(85.0, satd=1.0, efficiency=0.62)
    assert av1 == pytest.approx(base * 0.62)


def test_same_quality_fewer_bits_at_higher_complexity(qm):
    """The complexity-size tradeoff: eff*(1-phi) lowers the bits needed."""
    c0_bits = qm.bits_for_score(85.0, satd=2.0, efficiency=1.0)
    c2_bits = qm.bits_for_score(85.0, satd=2.0, efficiency=1.0 * (1 - 0.40))
    assert c2_bits < c0_bits
    assert qm.score(c2_bits, satd=2.0, efficiency=0.60) == pytest.approx(
        qm.score(c0_bits, satd=2.0, efficiency=1.0))


def test_difficulty_superlinear(qm):
    """Twice the SATD needs more than twice the bits at equal quality."""
    easy = qm.bits_for_score(85.0, satd=1.0)
    hard = qm.bits_for_score(85.0, satd=2.0)
    assert hard > 2.0 * easy


def test_starving_hard_frame_catastrophic_overspend_marginal(qm):
    """The CBR asymmetry: halving a hard frame's bits costs much more
    than doubling an easy frame's bits gains."""
    operating = qm.bits_for_score(85.0, satd=1.0)
    loss = qm.score(operating, satd=2.0) - qm.score(operating / 2, satd=2.0)
    gain = qm.score(operating * 2, satd=0.5) - qm.score(operating, satd=0.5)
    assert loss > 3 * gain
