import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amptrack import (
    NumericalError,
    PulseSpec,
    TimeSeries,
    grid,
)
from amptrack.feedback import (
    FeedbackConfig,
    RunRecord,
    check_reference,
    control_field,
    run_open_loop,
    run_tracking,
)
from amptrack.grid import AtomNumerics, AtomSystem
from amptrack.lattice import HubbardSystem
from amptrack.pulses import evaluate_tl_field

finite = st.floats(-50.0, 50.0, allow_nan=False, allow_infinity=False)


def small_atom_numerics():
    return AtomNumerics(box_half_width=60.0, n_points=512, dt=0.05,
                        absorber_fraction=0.0)


def small_pulse():
    return PulseSpec(e0=0.08, omega0=0.8, cycles=2)


def atom_reference(alpha, pulse, numerics):
    return run_open_loop(AtomSystem(alpha, pulse, numerics))


def assert_reproduces(result, reference):
    """Every channel of the open-loop ``reference`` holds the same floats in
    ``result``.

    Equality is exact; the only freedom is the sign of a zero (a lattice
    controller with a negative denominator returns -0.0 for zero control).
    """
    for name in reference.channels:
        assert np.array_equal(result.channels[name], reference.channels[name]), name


class TestFeedbackConfig:
    def test_defaults(self):
        # the gain is the controller's only setting
        assert [f.name for f in dataclasses.fields(FeedbackConfig)] == ["k_p"]
        assert FeedbackConfig(k_p=100.0).k_p == 100.0

    def test_validation(self):
        with pytest.raises(ValueError):
            FeedbackConfig(k_p=-1.0)
        with pytest.raises(ValueError):
            FeedbackConfig(k_p=math.nan)


class TestControlLaw:
    """control_field solves u = k_p (response + coupling u - y).

    The atom's coupling is -1; the ring's is -<H_kin>.
    """

    def law(self, response, coupling, y, k_p):
        return control_field(response, coupling, y, FeedbackConfig(k_p=k_p))

    @pytest.mark.parametrize("coupling", [-1.0, 4.0], ids=["atom", "ring"])
    def test_zero_gain_means_zero_drive(self, coupling):
        assert self.law(1.1, coupling, -0.4, 0.0) == 0.0

    def test_explicit_value(self):
        u = self.law(0.5 - 0.1, -1.0, 0.3, 3.0)
        assert u == pytest.approx(0.75 * (0.5 - 0.1 - 0.3), abs=1e-15)

    def test_high_gain_limit(self):
        mismatch = 0.5 - 0.1 - 0.3
        u = self.law(0.5 - 0.1, -1.0, 0.3, 1e12)
        assert u == pytest.approx(mismatch, rel=1e-11)

    @pytest.mark.parametrize("platform", ["atom", "ring"])
    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), rest=finite, e_tl=finite, y=finite)
    def test_self_consistency(self, platform, data, rest, e_tl, y):
        # the rate under the pulse is coupling e_tl + rest, where rest is
        # <F> on the atom and i<[H, J]> on the ring
        if platform == "atom":
            coupling, k_max, tol = -1.0, 1e6, 1e-6
        else:
            kin = data.draw(st.floats(-15.0, -0.5))
            a = data.draw(st.floats(0.3, 3.0))
            coupling, k_max, tol = -a * a * kin, 1e4, 2e-5
        k_p = data.draw(st.floats(0.0, k_max))
        # away from the singular denominator
        if abs(1.0 - k_p * coupling) < 1e-3:
            return
        u = self.law(coupling * e_tl + rest, coupling, y, k_p)
        assert u == pytest.approx(k_p * (coupling * (e_tl + u) + rest - y), abs=tol)

    def test_zero_denominator_raises(self):
        # 1 - 4 * 0.25 is exactly zero: no field moves the rate
        with pytest.raises(NumericalError, match="control law is singular"):
            self.law(0.3, 0.25, 0.1, 4.0)

    def test_near_singular_denominator_solves_exactly(self):
        k_p = 10.0
        coupling = (1.0 - 5e-7) / k_p
        u = self.law(0.3, coupling, 0.1, k_p)
        assert u == k_p * (0.3 - 0.1) / (1.0 - k_p * coupling)

    def test_zero_coupling_needs_no_guard(self):
        # a ring with <H_kin> = 0 has a unit denominator: u = k_p (response - y)
        u = self.law(0.4, 0.0, 0.15, 120.0)
        assert u == pytest.approx(120.0 * (0.4 - 0.15), rel=1e-14)


class TestPulseTable:
    def test_atom_evaluates_the_pulse_once_per_table(self, monkeypatch):
        # the node and midpoint tables are built at construction, so the
        # call count does not grow with the number of steps
        calls = []

        def counting(t, spec):
            calls.append(t)
            return evaluate_tl_field(t, spec)

        monkeypatch.setattr(grid, "evaluate_tl_field", counting)
        alpha = math.sqrt(2)
        counts = {}
        for cycles in (1, 2):
            calls.clear()
            system = AtomSystem(alpha, PulseSpec(e0=0.08, omega0=0.8, cycles=cycles),
                                small_atom_numerics())
            zero = TimeSeries(0.0, system.dt, np.zeros(system.n_steps + 1))
            run_tracking(system, zero, FeedbackConfig(k_p=10.0))
            counts[system.n_steps] = len(calls)
        assert len(counts) == 2
        assert set(counts.values()) == {2}

    @pytest.mark.parametrize("platform", ["atom", "ring"])
    def test_steps_past_the_table_hold_the_pulse(self, platform):
        # the pulse has compact support, so every step past the table sees
        # the pulse it ends with: no field, and on the ring the smooth
        # phase of the table's last node
        if platform == "atom":
            system = AtomSystem(math.sqrt(2), small_pulse(), small_atom_numerics())
        else:
            system = HubbardSystem(4, 5.0, PulseSpec(e0=1.0, omega0=4.43, cycles=1))
        state = system.initial_state()
        n = system.n_steps
        last = system.advance(state, n - 1, 0.0)
        past = [system.advance(state, step, 0.0) for step in (n, n + 1, n + 7)]
        for later in past[1:]:
            if platform == "atom":
                np.testing.assert_array_equal(later, past[0])
            else:
                np.testing.assert_array_equal(later.psi, past[0].psi)
                assert later.phi == past[0].phi == last.phi


class TestTrackingResidual:
    """RunRecord.rms_relative reads the residual channel against y."""

    def record(self, response, y):
        response, y = np.array(response), np.array(y)
        return RunRecord(dt=1.0, channels={"response": response, "y": y,
                                           "residual": response - y})

    def test_perfect_match_is_zero(self):
        assert self.record([1.0, 2.0], [1.0, 2.0]).rms_relative == 0.0

    def test_relative_normalization(self):
        r = self.record([2.0, 0.0], [1.0, 0.0])
        assert r.rms_relative == pytest.approx(1.0)
        assert not r.absolute_rms

    def test_zero_target_falls_back_to_absolute(self):
        r = self.record([0.3, -0.3], [0.0, 0.0])
        assert r.rms_relative == pytest.approx(0.3)
        assert r.absolute_rms

    def test_open_loop_record_has_no_loop_channels(self):
        # an open-loop record holds the reference layout, so the loop's own
        # channels fail as an unknown series does, naming what it holds
        pulse = PulseSpec(e0=2.61, omega0=4.43, cycles=1)
        record = run_open_loop(HubbardSystem(2, 8.0, pulse))
        assert list(record.channels) == ["current", "kinetic", "phase", "e_total", "y"]
        with pytest.raises(ValueError, match="^no column 'u'; record has current"):
            record.u
        with pytest.raises(ValueError, match="^no column 'residual'; record has"):
            record.rms_relative


class TestGridValidation:
    def test_reference_length_must_match(self):
        alpha = math.sqrt(2)
        system = AtomSystem(alpha, small_pulse(), small_atom_numerics())
        ref = atom_reference(alpha, small_pulse(), small_atom_numerics())
        y = ref.series("y")
        bad = type(y)(y.t0, y.dt, y.values[:-5])
        with pytest.raises(ValueError, match="reference has .* samples, propagation needs"):
            run_tracking(system, bad, FeedbackConfig(k_p=10.0))

    def test_reference_spacing_must_match(self):
        alpha = math.sqrt(2)
        system = AtomSystem(alpha, small_pulse(), small_atom_numerics())
        ref = atom_reference(alpha, small_pulse(), small_atom_numerics())
        y = ref.series("y")
        bad = type(y)(y.t0, y.dt * 1.001, y.values)
        with pytest.raises(ValueError, match="reference grid does not match"):
            run_tracking(system, bad, FeedbackConfig(k_p=10.0))

    @pytest.mark.parametrize("t0,dt,accepted", [
        (5e-13, 0.05, True),
        (2e-12, 0.05, False),
        (0.0, 0.05 * (1 + 2e-12), False),
    ], ids=["t0-within", "t0-off", "dt-off"])
    def test_reference_grid_tolerance(self, t0, dt, accepted):
        # the rule of TimeSeries.same_grid: t0 to 1e-12, dt to 1e-12 dt
        reference = TimeSeries(t0, dt, np.zeros(11))
        if accepted:
            check_reference(reference, 10, 0.05)
        else:
            with pytest.raises(ValueError, match="reference grid does not match"):
                check_reference(reference, 10, 0.05)

    def test_forced_control_length_must_match(self):
        alpha = math.sqrt(2)
        system = AtomSystem(alpha, small_pulse(), small_atom_numerics())
        with pytest.raises(ValueError, match="forced control sequence"):
            run_open_loop(system, u_forced=np.zeros(7))

    @pytest.mark.parametrize("platform, value, step", [
        ("atom", math.nan, 5), ("ring", math.inf, 5), ("ring", math.nan, -1),
    ])
    def test_forced_control_must_be_finite(self, platform, value, step,
                                           monkeypatch):
        # a replayed field with a NaN or inf is bad input, rejected before
        # the ground state is formed, not a NaN record or a solver failure
        if platform == "atom":
            system = AtomSystem(math.sqrt(2), PulseSpec(e0=0.08, omega0=0.8, cycles=1),
                                small_atom_numerics())
        else:
            system = HubbardSystem(4, 8.0, PulseSpec(e0=2.61, omega0=4.43, cycles=1))

        def propagate():
            raise AssertionError("propagated a non-finite control")

        monkeypatch.setattr(system, "initial_state", propagate)
        u = np.zeros(system.n_steps + 1)
        u[step] = value
        first = step % u.size
        with pytest.raises(ValueError, match=f"^forced control has 1 non-finite "
                                             f"samples, the first at step {first}$"):
            run_open_loop(system, u_forced=u)


class TestRunRecord:
    @pytest.mark.parametrize("channels, message", [
        ({}, "a record needs at least one channel"),
        ({"a": np.zeros(3), "b": np.zeros(4)},
         r"channel 'b' has shape \(4,\), not \(3,\)"),
        ({"b": np.zeros(4), "a": np.zeros(3)},
         r"channel 'a' has shape \(3,\), not \(4,\)"),
        ({"a": np.zeros((3, 2))},
         r"channel 'a' has shape \(3, 2\), not \(3,\)"),
        ({"a": np.zeros(3), "b": np.zeros((3, 1))},
         r"channel 'b' has shape \(3, 1\), not \(3,\)"),
    ], ids=["none", "short-first", "long-first", "2-d", "2-d-second"])
    def test_rejects_channels_of_bad_shape(self, channels, message):
        # unequal lengths wrote a CSV cut to the first channel, or raised
        # IndexError, and no channel raised StopIteration in len(); the rule
        # for dt is in tests/test_api.py
        with pytest.raises(ValueError, match=f"^{message}$"):
            RunRecord(dt=0.1, channels=channels)


class TestTimeSeries:
    @pytest.mark.parametrize("values", [[1.0], np.zeros((2, 2))],
                             ids=["one-sample", "2-d"])
    def test_rejects_values_of_bad_shape(self, values):
        with pytest.raises(ValueError,
                           match="^need a 1-D series with at least two samples$"):
            TimeSeries(0.0, 0.1, values)


class TestSelfTracking:
    def test_atom_tracks_itself_exactly(self):
        alpha = math.sqrt(2)
        ref = atom_reference(alpha, small_pulse(), small_atom_numerics())
        system = AtomSystem(alpha, small_pulse(), small_atom_numerics())
        result = run_tracking(system, ref.series("y"), FeedbackConfig(k_p=50.0))
        assert np.all(result.u == 0.0)
        assert np.array_equal(result.response, ref.channels["y"])
        assert result.rms_relative == 0.0
        assert_reproduces(result, ref)

    def test_hubbard_tracks_itself_exactly(self):
        pulse = PulseSpec(e0=2.61, omega0=4.43, cycles=2)
        ref = run_open_loop(HubbardSystem(4, 8.0, pulse))
        system = HubbardSystem(4, 8.0, pulse)
        result = run_tracking(system, ref.series("y"), FeedbackConfig(k_p=50.0))
        assert np.all(result.u == 0.0)
        assert np.array_equal(result.response, ref.channels["y"])
        assert result.rms_relative == 0.0
        assert_reproduces(result, ref)


class TestCrossTracking:
    def test_zero_gain_reduces_to_open_loop(self):
        # with k_p = 0 the loop records the driven system's own response
        target, driven = math.sqrt(2), 1.0  # the two atoms' softenings
        ref = atom_reference(target, small_pulse(), small_atom_numerics())
        open_loop = atom_reference(driven, small_pulse(), small_atom_numerics())
        system = AtomSystem(driven, small_pulse(), small_atom_numerics())
        result = run_tracking(system, ref.series("y"), FeedbackConfig(k_p=0.0))
        assert np.all(result.u == 0.0)
        assert np.array_equal(result.response, open_loop.channels["y"])

    def test_atom_gain_scaling(self):
        target, driven = math.sqrt(2), 1.0  # the two atoms' softenings
        ref = atom_reference(target, small_pulse(), small_atom_numerics())
        y = ref.series("y")
        residuals = {}
        for k_p in (10.0, 100.0):
            system = AtomSystem(driven, small_pulse(), small_atom_numerics())
            result = run_tracking(system, y, FeedbackConfig(k_p=k_p))
            residuals[k_p] = result.rms_relative
        assert residuals[100.0] < residuals[10.0] / 2.0

    def test_replaying_recorded_control_reproduces_the_run(self):
        target, driven = math.sqrt(2), 1.0  # the two atoms' softenings
        ref = atom_reference(target, small_pulse(), small_atom_numerics())
        system = AtomSystem(driven, small_pulse(), small_atom_numerics())
        result = run_tracking(system, ref.series("y"), FeedbackConfig(k_p=40.0))
        replay = run_open_loop(
            AtomSystem(driven, small_pulse(), small_atom_numerics()),
            u_forced=result.u,
        )
        assert np.array_equal(replay.channels["y"], result.response)
        assert np.array_equal(replay.channels["p"], result.channels["p"])

    def test_tracked_momentum_slope_follows_target(self):
        # the driven atom's response is d<p>/dt; with high gain its
        # recorded momentum derivative should approach the target curve
        target, driven = math.sqrt(2), 1.0  # the two atoms' softenings
        numerics = small_atom_numerics()
        ref = atom_reference(target, small_pulse(), numerics)
        system = AtomSystem(driven, small_pulse(), numerics)
        result = run_tracking(system, ref.series("y"), FeedbackConfig(k_p=300.0))
        p = result.channels["p"]
        dp = (p[2:] - p[:-2]) / (2 * numerics.dt)
        y = ref.channels["y"][1:-1]
        scale = np.sqrt(np.mean(y**2))
        assert np.sqrt(np.mean((dp - y) ** 2)) / scale < 0.05
