"""Tests for the ACE-C complexity controller (gain function, Eq. 2-5)."""

import pytest

from repro.core.ace_c import AceCConfig, AceCController


def make_controller(**overrides):
    cfg = AceCConfig(**overrides)
    return AceCController(num_levels=3, fps=30.0, config=cfg)


class TestPrediction:
    def test_rho_linear_in_satd_ratio(self):
        ctrl = make_controller(initial_w=1.0, initial_offset=0.0)
        assert ctrl.predict_rho(satd=2.0, satd_mean=1.0) == pytest.approx(2.0)
        assert ctrl.predict_rho(satd=0.5, satd_mean=1.0) == pytest.approx(0.5)

    def test_rho_floor(self):
        ctrl = make_controller()
        assert ctrl.predict_rho(satd=0.0, satd_mean=1.0) >= 0.05

    def test_w_learns_slope_from_observations(self):
        """Feeding (ratio, rho) pairs with slope 1.5 drives w toward 1.5."""
        ctrl = make_controller()
        ratios = [0.5, 0.8, 1.0, 1.2, 1.5] * 20
        for i, ratio in enumerate(ratios):
            level = ctrl.select_complexity(i, satd=ratio, satd_mean=1.0,
                                           now=0.0)
            if level != 0:
                continue
            actual = int(1.5 * ratio * 100_000)
            ctrl.on_encoded(i, actual_bytes=actual,
                            target_frame_bytes=100_000, encode_time=0.006)
        assert ctrl.w == pytest.approx(1.5, abs=0.3)
        assert abs(ctrl.offset) < 0.5


class TestGain:
    def test_gain_formula(self):
        """Gain(c) = rho * phi(c) / f - delta_Te(c) (Eq. 2)."""
        ctrl = make_controller(initial_phi=(0.0, 0.25, 0.38),
                               initial_delta_te=(0.0, 0.003, 0.006))
        assert ctrl.gain(0, rho_hat=2.0) == pytest.approx(0.0)
        assert ctrl.gain(1, rho_hat=2.0) == pytest.approx(2.0 * 0.25 / 30 - 0.003)
        assert ctrl.gain(2, rho_hat=3.0) == pytest.approx(3.0 * 0.38 / 30 - 0.006)

    def test_c0_for_normal_frames(self):
        """~97% of frames stay at the base complexity (paper §6.7)."""
        ctrl = make_controller(oversize_gate_rho=1.3)
        assert ctrl.select_complexity(0, satd=1.0, satd_mean=1.0, now=0.0) == 0

    def test_elevation_for_oversized_frames(self):
        ctrl = make_controller(oversize_gate_rho=1.3)
        assert ctrl.select_complexity(0, satd=3.0, satd_mean=1.0, now=0.0) > 0

    def test_backlog_waives_gate(self):
        ctrl = make_controller(oversize_gate_rho=1.3)
        level = ctrl.select_complexity(0, satd=1.0, satd_mean=1.0, now=0.0,
                                       backlogged=True)
        assert level > 0  # positive gain, gate waived

    def test_negative_gain_falls_back_to_c0(self):
        """When extra encode time outweighs the size saving, stay at c0."""
        ctrl = make_controller(initial_delta_te=(0.0, 0.5, 1.0))
        assert ctrl.select_complexity(0, satd=3.0, satd_mean=1.0, now=0.0) == 0

    def test_encode_time_bound_excludes_levels(self):
        ctrl = make_controller(initial_delta_te=(0.0, 0.003, 0.050),
                               max_extra_encode_time=0.030)
        level = ctrl.select_complexity(0, satd=5.0, satd_mean=1.0, now=0.0)
        assert level == 1  # level 2 excluded by the practicality bound

    def test_higher_fps_discourages_elevation(self):
        """At 60 fps the transmission saving halves (Eq. 2 divides by f)."""
        slow = AceCController(num_levels=3, fps=30.0)
        fast = AceCController(num_levels=3, fps=120.0)
        rho = 1.5
        assert slow.gain(2, rho) > fast.gain(2, rho)


class TestUpdates:
    def test_phi_learned_from_outcomes_when_enabled(self):
        """With update_phi on, achieved reductions against the c0 plan
        drive phi toward the observed value."""
        ctrl = make_controller(initial_phi=(0.0, 0.10, 0.20),
                               update_phi=True)
        for i in range(30):
            level = ctrl.select_complexity(i, satd=3.0, satd_mean=1.0,
                                           now=0.0, backlogged=True)
            assert level > 0
            c0_equiv = 300_000
            actual = int(c0_equiv * 0.6)  # a genuine 40% reduction
            ctrl.on_encoded(i, actual_bytes=actual,
                            target_frame_bytes=100_000, encode_time=0.009,
                            c0_plan_bytes=c0_equiv)
        assert ctrl.phi[level] > 0.30

    def test_phi_static_by_default(self):
        """Default configuration keeps the empirical (offline) phi: the
        online size signal is circular when the encoder follows plans."""
        ctrl = make_controller(initial_phi=(0.0, 0.10, 0.20))
        for i in range(10):
            ctrl.select_complexity(i, satd=3.0, satd_mean=1.0, now=0.0,
                                   backlogged=True)
            ctrl.on_encoded(i, actual_bytes=180_000,
                            target_frame_bytes=100_000, encode_time=0.009,
                            c0_plan_bytes=300_000)
        assert ctrl.phi == [0.0, 0.10, 0.20]

    def test_delta_te_learned_from_c0_baseline(self):
        ctrl = make_controller(initial_delta_te=(0.0, 0.001, 0.002))
        # establish the c0 time baseline
        for i in range(10):
            assert ctrl.select_complexity(i, satd=0.5, satd_mean=1.0,
                                          now=0.0) == 0
            ctrl.on_encoded(i, 40_000, 100_000, encode_time=0.006)
        # elevated frames take 12 ms -> delta ~6 ms learned
        for i in range(10, 30):
            if ctrl.select_complexity(i, satd=4.0, satd_mean=1.0,
                                      now=0.0) == 2:
                ctrl.on_encoded(i, 250_000, 100_000, encode_time=0.012)
        assert ctrl.delta_te[2] > 0.004

    def test_ewma_alpha_half(self):
        """Eq. 5 with alpha=0.5: new value weighs half."""
        ctrl = make_controller(ewma_alpha=0.5)
        assert ctrl._ewma(10.0, 20.0) == pytest.approx(15.0)

    def test_prediction_log_for_fig19(self):
        ctrl = make_controller()
        for i in range(5):
            ctrl.select_complexity(i, satd=1.0, satd_mean=1.0, now=0.0)
            ctrl.on_encoded(i, 100_000, 100_000, encode_time=0.006)
        assert len(ctrl.prediction_log) == 5
        rho_hat, rho = ctrl.prediction_log[0]
        assert rho_hat > 0 and rho > 0

    def test_fraction_elevated(self):
        ctrl = make_controller(oversize_gate_rho=1.3)
        for i in range(9):
            ctrl.select_complexity(i, satd=1.0, satd_mean=1.0, now=0.0)
        ctrl.select_complexity(9, satd=4.0, satd_mean=1.0, now=0.0)
        levels = ctrl.log.after
        assert sum(level > 0 for level in levels) / len(levels) == \
            pytest.approx(0.1)

    def test_unknown_frame_update_ignored(self):
        ctrl = make_controller()
        ctrl.on_encoded(999, 100_000, 100_000, encode_time=0.006)  # no crash
        assert ctrl.prediction_log == []


def test_invalid_level_count():
    with pytest.raises(ValueError):
        AceCController(num_levels=0)
