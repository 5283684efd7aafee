from pathlib import Path

import numpy as np
import pytest

from skygrab import perception
from skygrab.camera import DetectionClass, ImageDetection
from skygrab.config import load_config
from skygrab.engine import run_scenario
from skygrab.perception import (
    FilterParams,
    TrackEstimate,
    TrackStatus,
    initialize_track,
    kf_predict,
    kf_update,
    process_noise,
    select_target,
    track_lifecycle,
    transition_matrix,
)

DT = 1.0 / 30.0
CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def det(x, y, t, w=30.0):
    return ImageDetection(x=x, y=y, w=w, h=w, cls=DetectionClass.BALL, t=t)


def fresh_track(x=320.0, y=240.0, r=5.0, t=0.0, params=None):
    params = params or FilterParams()
    return initialize_track(DetectionClass.BALL, det(x, y, t), r, params, t)


class TestPredict:
    def test_zero_velocity_positions_unchanged(self):
        tr = fresh_track()
        out = kf_predict(tr, DT, FilterParams())
        assert out.state[0] == tr.state[0]
        assert out.state[1] == tr.state[1]
        assert out.state[4] == tr.state[4]

    def test_linear_advance(self):
        tr = fresh_track()
        x, y, _, y_rate, r, r_rate = tr.state
        tr.state = (x, y, 10.0, y_rate, r, r_rate)  # 10 px/s
        out = kf_predict(tr, 0.1, FilterParams())
        assert out.state[0] == pytest.approx(tr.state[0] + 1.0)

    def test_covariance_trace_grows(self):
        tr = fresh_track()
        out = kf_predict(tr, DT, FilterParams())
        assert np.trace(out.covariance) > np.trace(tr.covariance)

    def test_ego_rate_shifts_pixel_prediction(self):
        tr = fresh_track()
        out = kf_predict(tr, DT, FilterParams(), ego_px_rate=600.0)
        assert out.state[0] == pytest.approx(tr.state[0] + 600.0 * DT)

    def test_uninitialized_rejected(self):
        with pytest.raises(ValueError):
            kf_predict(TrackEstimate(cls=DetectionClass.BALL), DT, FilterParams())


class TestUpdate:
    def test_small_noise_limit_posterior_follows_measurement(self):
        params = FilterParams(sigma_px=2.0, sigma_range=0.3)
        tr = fresh_track(params=params)
        # crank the prior uncertainty so the gain approaches identity
        tr.blocks = ((1e9, 0.0, 1e9),) * 3
        out = kf_update(tr, det(330.0, 250.0, DT), 5.5, params)
        assert out.state[0] == pytest.approx(330.0, abs=1e-3)
        assert out.state[1] == pytest.approx(250.0, abs=1e-3)
        assert out.state[4] == pytest.approx(5.5, abs=1e-3)

    def test_posterior_not_larger_on_measured_subspace(self):
        params = FilterParams()
        tr = kf_predict(fresh_track(params=params), DT, params)
        out = kf_update(tr, det(321.0, 241.0, DT), 5.1, params)
        H = np.zeros((3, 6))
        H[0, 0] = H[1, 1] = 1.0
        H[2, 4] = 1.0
        diff = H @ (tr.covariance - out.covariance) @ H.T
        assert np.min(np.linalg.eigvalsh(diff)) > -1e-10

    def test_symmetry_maintained(self):
        params = FilterParams()
        tr = fresh_track(params=params)
        rng = np.random.default_rng(0)
        t = 0.0
        for _ in range(200):
            t += DT
            tr = kf_predict(tr, DT, params)
            tr = kf_update(tr, det(320 + rng.normal(0, 2), 240 + rng.normal(0, 2), t), 5.0, params)
            asym = np.max(np.abs(tr.covariance - tr.covariance.T))
            assert asym < 1e-10

    def test_gate_rejects_outlier_and_keeps_state(self):
        params = FilterParams()
        tr = kf_predict(fresh_track(params=params), DT, params)
        before = tr.state
        out = kf_update(tr, det(520.0, 440.0, DT), 5.0, params)
        assert out.status is TrackStatus.COASTING
        assert np.allclose(out.state, before)
        assert out.last_update == 0.0  # not advanced

    def test_noise_free_cv_stream_converges(self):
        # agile (ball-class) process noise; convergence within 20 updates
        params = FilterParams(sigma_px=0.0, sigma_range=0.0, q_pixel=3000.0)
        x0, vx = 100.0, 30.0
        tr = initialize_track(DetectionClass.BALL, det(x0, 240.0, 0.0), 5.0, params, 0.0)
        t = 0.0
        for k in range(1, 60):
            t = k * DT
            tr = kf_predict(tr, DT, params)
            tr = kf_update(tr, det(x0 + vx * t, 240.0, t), 5.0, params)
            if k >= 20:
                assert abs(tr.state[0] - (x0 + vx * t)) < 1e-6

    def test_steady_state_gain_matches_riccati_iteration(self):
        # brute-force fixed point of the predicted covariance, fully
        # independent of the filter implementation
        params = FilterParams()
        F = transition_matrix(DT)
        Q = process_noise(DT, params)
        R = params.measurement_cov()
        H = np.zeros((3, 6))
        H[0, 0] = H[1, 1] = 1.0
        H[2, 4] = 1.0
        P = np.eye(6) * 100.0
        for _ in range(5000):
            S = H @ P @ H.T + R
            K = P @ H.T @ np.linalg.inv(S)
            Ppost = (np.eye(6) - K @ H) @ P
            P = F @ Ppost @ F.T + Q
        K_oracle = P @ H.T @ np.linalg.inv(H @ P @ H.T + R)

        tr = fresh_track(params=params)
        t = 0.0
        for _ in range(2000):
            t += DT
            tr = kf_predict(tr, DT, params)
            S = H @ tr.covariance @ H.T + R
            K_filter = tr.covariance @ H.T @ np.linalg.inv(S)
            tr = kf_update(tr, det(320.0, 240.0, t), 5.0, params)
        assert np.max(np.abs(K_filter - K_oracle)) < 1e-9


# The 6x6 matrix filter the closed form replaced, kept as the reference.
_H = np.zeros((3, 6))
_H[0, 0] = _H[1, 1] = _H[2, 4] = 1.0


def matrix_predict(track, dt, params, ego_px_rate):
    F = transition_matrix(dt)
    x = F @ track.state
    x[0] += ego_px_rate * dt
    return x, F @ track.covariance @ F.T + process_noise(dt, params)


def matrix_update(track, z, params):
    """Posterior (state, covariance), or None when the gate rejects z."""
    R = params.measurement_cov()
    P = track.covariance
    nu = np.asarray(z) - _H @ track.state
    S = _H @ P @ _H.T + R
    if nu[:2] @ np.linalg.solve(S[:2, :2], nu[:2]) > params.gate_chi2:
        return None
    K = np.linalg.solve(S.T, _H @ P.T).T
    ikh = np.eye(6) - K @ _H
    return track.state + K @ nu, ikh @ P @ ikh.T + K @ R @ K.T


def random_track(rng):
    """A live track with a random block-diagonal covariance."""
    tr = fresh_track()
    tr.state = tuple(
        rng.normal([320.0, 240.0, 0.0, 0.0, 5.0, 0.0], [100.0, 80.0, 300.0, 300.0, 2.0, 2.0]).tolist()
    )
    blocks = []
    for var_p, var_v in ((1e3, 4e5), (1e3, 4e5), (4.0, 10.0)):
        a, c = var_p * rng.uniform(1e-3, 1.0), var_v * rng.uniform(1e-3, 1.0)
        blocks.append((a, rng.uniform(-0.9, 0.9) * np.sqrt(a * c), c))
    tr.blocks = tuple(blocks)
    return tr


class TestClosedFormAgainstMatrixFilter:
    def test_predict_and_update_match_the_6x6_equations(self):
        params = FilterParams()
        rng = np.random.default_rng(11)
        block = np.zeros((6, 6), dtype=bool)
        for i, j in ((0, 2), (1, 3), (4, 5)):
            block[np.ix_([i, j], [i, j])] = True
        decisions = []
        for _ in range(200):
            tr = random_track(rng)
            dt = rng.uniform(1e-3, 0.2)
            ego = rng.uniform(-900.0, 900.0)
            x_ref, P_ref = matrix_predict(tr, dt, params, ego)
            tr = kf_predict(tr, dt, params, ego_px_rate=ego)
            cov = tr.covariance
            assert np.array_equal(cov, cov.T) and not cov[~block].any()
            np.testing.assert_allclose(tr.state, x_ref, rtol=1e-12, atol=0.0)
            np.testing.assert_allclose(cov[block], P_ref[block], rtol=1e-12, atol=0.0)

            spread = np.sqrt(np.diag(tr.covariance)[[0, 1, 4]] + np.diag(params.measurement_cov()))
            z = np.asarray(tr.state)[[0, 1, 4]] + 2.0 * spread * rng.standard_normal(3)
            ref = matrix_update(tr, z, params)
            out = kf_update(tr, det(z[0], z[1], 0.0), z[2], params)
            decisions.append(ref is not None)
            assert (out.status is TrackStatus.TRACKING) == (ref is not None)
            if ref is None:
                assert np.array_equal(out.state, tr.state)
                continue
            cov = out.covariance
            assert np.array_equal(cov, cov.T) and not cov[~block].any()
            np.testing.assert_allclose(out.state, ref[0], rtol=1e-12, atol=0.0)
            np.testing.assert_allclose(cov[block], ref[1][block], rtol=1e-12, atol=0.0)
        assert 0 < sum(decisions) < len(decisions)  # both gate outcomes exercised


class TestLifecycle:
    def test_initializes_only_within_init_range(self):
        params = FilterParams(init_range=6.0)
        tr = TrackEstimate(cls=DetectionClass.BALL)
        tr, ev = track_lifecycle(tr, det(320, 240, 0.0), 7.0, 0.0, params)
        assert tr.status is TrackStatus.UNINITIALIZED and ev == []
        tr, ev = track_lifecycle(tr, det(320, 240, DT), 4.0, DT, params)
        assert tr.status is TrackStatus.TRACKING
        assert ev == ["track_init"]

    def test_no_init_range_limit_for_none(self):
        params = FilterParams(init_range=None)
        tr = TrackEstimate(cls=DetectionClass.DRONE)
        tr, _ = track_lifecycle(tr, det(320, 240, 0.0), 25.0, 0.0, params)
        assert tr.status is TrackStatus.TRACKING

    def test_timeout_drops_track(self):
        params = FilterParams(init_range=None, loss_timeout=0.8)
        tr = TrackEstimate(cls=DetectionClass.BALL)
        tr, _ = track_lifecycle(tr, det(320, 240, 0.0), 5.0, 0.0, params)
        events = []
        for k in range(1, 31):
            tr, ev = track_lifecycle(tr, None, None, k * DT, params)
            events.extend(ev)
        assert tr.status is TrackStatus.UNINITIALIZED
        assert "track_lost" in events

    def test_short_miss_then_reacquire_keeps_velocity(self):
        params = FilterParams(init_range=None)
        x0, vx = 200.0, 60.0
        tr = TrackEstimate(cls=DetectionClass.BALL)
        t = 0.0
        tr, _ = track_lifecycle(tr, det(x0, 240, t), 5.0, t, params)
        for k in range(1, 15):
            t = k * DT
            tr, _ = track_lifecycle(tr, det(x0 + vx * t, 240, t), 5.0, t, params)
        vel_before = tr.state[2]
        assert vel_before > 30.0
        for k in range(15, 20):  # five missed frames: 0.167 s < timeout
            t = k * DT
            tr, _ = track_lifecycle(tr, None, None, t, params)
            assert tr.status is TrackStatus.COASTING
        t = 20 * DT
        tr, ev = track_lifecycle(tr, det(x0 + vx * t, 240, t), 5.0, t, params)
        assert tr.status is TrackStatus.TRACKING
        assert "track_reacquired" in ev
        assert tr.state[2] > 30.0  # velocity survived, no re-init

    def test_deterministic_replay(self):
        params = FilterParams(init_range=6.0)
        seq = []
        rng = np.random.default_rng(8)
        for k in range(60):
            t = k * DT
            if rng.random() < 0.8:
                seq.append((det(320 + rng.normal(0, 2), 240, t), 5.0, t))
            else:
                seq.append((None, None, t))

        def run():
            tr = TrackEstimate(cls=DetectionClass.BALL)
            statuses = []
            for d, r, t in seq:
                tr, _ = track_lifecycle(tr, d, r, t, params)
                statuses.append(tr.status)
            return statuses

        assert run() == run()


class _NoNumpy:
    def __getattr__(self, name):
        raise AssertionError(f"the tracker called numpy.{name}")


class TestRunPathWithoutNumpy:
    def test_lifecycle_and_lean_run_call_no_numpy(self, monkeypatch):
        monkeypatch.setattr(perception, "np", _NoNumpy())
        params = FilterParams(init_range=6.0, loss_timeout=0.2)
        tr = TrackEstimate(cls=DetectionClass.BALL)

        tr, ev = track_lifecycle(tr, det(320.0, 240.0, 0.0), 5.0, 0.0, params)
        assert ev == ["track_init"]
        tr, ev = track_lifecycle(tr, det(321.0, 241.0, DT), 5.1, DT, params, ego_px_rate=90.0)
        assert tr.status is TrackStatus.TRACKING and ev == []
        tr, ev = track_lifecycle(tr, det(600.0, 20.0, 2 * DT), 5.0, 2 * DT, params)
        assert tr.status is TrackStatus.COASTING and ev == ["measurement_rejected"]
        tr, ev = track_lifecycle(tr, None, None, 3 * DT, params)
        assert tr.status is TrackStatus.COASTING and ev == []
        tr, ev = track_lifecycle(tr, det(324.0, 242.0, 4 * DT), 5.0, 4 * DT, params)
        assert tr.status is TrackStatus.TRACKING and ev == ["track_reacquired"]
        events = []
        for k in range(5, 15):
            tr, ev = track_lifecycle(tr, None, None, k * DT, params)
            events += ev
        assert tr.status is TrackStatus.UNINITIALIZED and events == ["track_lost"]

        log = run_scenario(load_config(CONFIGS / "nominal_static.yaml"), detail=False)
        assert "track_init" in {r["event"] for r in log.iter_kind("event")}
        assert log.verdict_record["verdict"] == "captured"


class TestSelectTarget:
    def drone_track(self, r, status=TrackStatus.TRACKING):
        tr = fresh_track(r=r)
        tr.cls = DetectionClass.DRONE
        tr.status = status
        return tr

    def ball_track(self, status):
        tr = fresh_track(r=4.0)
        tr.status = status
        return tr

    def test_far_drone_keeps_drone_active(self):
        active = select_target(
            self.drone_track(20.0), self.ball_track(TrackStatus.TRACKING),
            DetectionClass.DRONE, 8.0,
        )
        assert active is DetectionClass.DRONE

    def test_switches_to_ball_within_range(self):
        active = select_target(
            self.drone_track(7.0), self.ball_track(TrackStatus.TRACKING),
            DetectionClass.DRONE, 8.0,
        )
        assert active is DetectionClass.BALL

    def test_requires_ball_tracking_to_switch(self):
        active = select_target(
            self.drone_track(7.0), self.ball_track(TrackStatus.COASTING),
            DetectionClass.DRONE, 8.0,
        )
        assert active is DetectionClass.DRONE

    def test_latched_through_coasting(self):
        active = select_target(
            self.drone_track(20.0), self.ball_track(TrackStatus.COASTING),
            DetectionClass.BALL, 8.0,
        )
        assert active is DetectionClass.BALL

    def test_reverts_when_ball_dropped(self):
        active = select_target(
            self.drone_track(7.0), TrackEstimate(cls=DetectionClass.BALL),
            DetectionClass.BALL, 8.0,
        )
        assert active is DetectionClass.DRONE
