import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from amptrack import (
    HubbardSystem,
    LatticeNumerics,
    PulseSpec,
    ati_matched_field,
    evaluate_tl_field,
    hhg_cutoff,
    hhg_matched_field,
    ponderomotive_energy,
    run_open_loop,
)


def tl_field_antiderivative(t, spec):
    # closed-form integral of E0 cos(w t) sin^2(pi t / T), valid for cycles >= 2
    w = spec.omega0
    d = 2.0 * math.pi / spec.duration
    return spec.e0 * (
        np.sin(w * t) / (2 * w)
        - np.sin((w + d) * t) / (4 * (w + d))
        - np.sin((w - d) * t) / (4 * (w - d))
    )


def ring_phase(spec, dt, u_forced=None):
    """Peierls phase channel of a two-site ring holding one fermion.

    The phase is accumulated on the propagation grid by ``HubbardSystem``;
    the one-particle ring makes each step cheap.
    """
    system = HubbardSystem(2, 0.0, spec, LatticeNumerics(dt=dt), n_up=1, n_down=0)
    if u_forced is not None:
        u_forced = np.full(system.n_steps + 1, u_forced)
    return run_open_loop(system, u_forced=u_forced).channels["phase"]


class TestPulseSpec:
    def test_duration_is_derived(self):
        spec = PulseSpec(e0=0.05, omega0=0.0569, cycles=10)
        assert spec.duration == pytest.approx(2 * math.pi * 10 / 0.0569, rel=1e-15)

    def test_validation(self):
        with pytest.raises(ValueError):
            PulseSpec(e0=-0.1, omega0=1.0, cycles=2)
        with pytest.raises(ValueError):
            PulseSpec(e0=0.1, omega0=0.0, cycles=2)
        with pytest.raises(ValueError):
            PulseSpec(e0=0.1, omega0=1.0, cycles=0)


class TestField:
    def test_zero_at_endpoints(self):
        spec = PulseSpec(e0=0.3, omega0=1.7, cycles=3)
        assert evaluate_tl_field(0.0, spec) == 0.0
        assert evaluate_tl_field(spec.duration, spec) == pytest.approx(0.0, abs=1e-15)

    def test_peak_at_midpoint_for_even_cycle_count(self):
        spec = PulseSpec(e0=0.42, omega0=2.0, cycles=4)
        # cos(pi N) = +1 for even N and the envelope is exactly 1 there
        assert evaluate_tl_field(spec.duration / 2, spec) == pytest.approx(0.42, rel=1e-12)

    def test_compact_support(self):
        spec = PulseSpec(e0=1.0, omega0=1.0, cycles=2)
        assert evaluate_tl_field(-0.5, spec) == 0.0
        assert evaluate_tl_field(spec.duration + 0.5, spec) == 0.0

    @given(
        t=st.floats(-50, 50),
        e0=st.floats(0.01, 10),
        omega0=st.floats(0.05, 5),
        cycles=st.integers(1, 12),
    )
    def test_bounded_by_amplitude(self, t, e0, omega0, cycles):
        spec = PulseSpec(e0=e0, omega0=omega0, cycles=cycles)
        assert abs(evaluate_tl_field(t, spec)) <= e0 * (1 + 1e-12)

    def test_vectorized_matches_scalar(self):
        spec = PulseSpec(e0=0.1, omega0=0.5, cycles=3)
        t = np.linspace(-1, spec.duration + 1, 57)
        vec = evaluate_tl_field(t, spec)
        scal = np.array([evaluate_tl_field(ti, spec) for ti in t])
        np.testing.assert_allclose(vec, scal, rtol=0, atol=0)


class TestPeierlsPhase:
    def test_zero_field_gives_zero_phase(self):
        spec = PulseSpec(e0=0.0, omega0=1.0, cycles=2)
        np.testing.assert_array_equal(ring_phase(spec, 0.01), 0.0)

    def test_constant_field_integrates_exactly(self):
        # a constant field is representable through the held control channel
        spec = PulseSpec(e0=0.0, omega0=1.0, cycles=2)
        c, dt = 0.37, 0.05
        phases = ring_phase(spec, dt, u_forced=c)
        t = 101 * dt
        assert phases[101] == pytest.approx(-c * t, rel=1e-13)

    @pytest.mark.parametrize(
        "e0,omega0,cycles,dt_target",
        [
            (2.61, 4.43, 10, 0.005),     # lattice-platform defaults
        ],
    )
    def test_full_pulse_phase_matches_antiderivative(self, e0, omega0, cycles, dt_target):
        spec = PulseSpec(e0=e0, omega0=omega0, cycles=cycles)
        n = int(round(spec.duration / dt_target))
        phases = ring_phase(spec, spec.duration / n)
        assert phases.size == n + 1
        want = -tl_field_antiderivative(spec.duration, spec)
        assert phases[-1] == pytest.approx(want, abs=1e-8)

    def test_interior_phase_converges_at_second_order(self):
        spec = PulseSpec(e0=1.3, omega0=2.0, cycles=4)

        def max_err(n):
            dt = spec.duration / n
            phases = ring_phase(spec, dt)
            exact = -tl_field_antiderivative(dt * np.arange(n + 1), spec)
            return np.max(np.abs(phases - exact))

        e1, e2 = max_err(512), max_err(1024)
        assert e1 / e2 > 3.5


class TestScalingLaws:
    def test_ponderomotive_zero_field(self):
        assert ponderomotive_energy(0.0, 0.5) == 0.0

    def test_ponderomotive_unit_case(self):
        assert ponderomotive_energy(2 * 0.7, 0.7) == pytest.approx(1.0, rel=1e-14)

    def test_ponderomotive_default_pulse(self):
        assert ponderomotive_energy(0.0534, 0.0569) == pytest.approx(0.2202, abs=5e-5)

    def test_ponderomotive_rejects_bad_omega(self):
        with pytest.raises(ValueError):
            ponderomotive_energy(0.1, 0.0)

    def test_cutoff_zero_field_is_ip(self):
        assert hhg_cutoff(0.0, 1.0, 0.5) == 0.5

    def test_cutoff_unit_up(self):
        assert hhg_cutoff(2 * 1.0, 1.0, 0.5) == pytest.approx(3.67, rel=1e-12)

    def test_cutoff_default_pulse_hydrogenlike(self):
        cutoff = hhg_cutoff(0.0534, 0.0569, 0.5)
        assert cutoff == pytest.approx(1.198, abs=5e-4)
        assert cutoff / 0.0569 == pytest.approx(21.0, abs=0.2)

    def test_hhg_match_at_threshold_is_zero(self):
        assert hhg_matched_field(0.7, 1.3, 1.3) == 0.0

    def test_hhg_match_default_numbers(self):
        assert hhg_matched_field(0.0569, 1.198, 0.5) == pytest.approx(0.0532, abs=1e-4)

    def test_hhg_match_infeasible(self):
        with pytest.raises(ValueError, match="^target cutoff 0.4 below the new"):
            hhg_matched_field(0.5, 0.4, 0.5)

    @pytest.mark.parametrize("ip_new", [0.0, -1.0])
    def test_hhg_match_rejects_nonpositive_ip(self, ip_new):
        with pytest.raises(ValueError, match="^ip_new must be positive"):
            hhg_matched_field(0.9, 1.8, ip_new)

    @given(
        omega=st.floats(0.02, 2.0),
        cutoff=st.floats(0.1, 10.0),
        ip_new=st.floats(0.05, 5.0),
    )
    def test_hhg_round_trip_within_one_percent(self, omega, cutoff, ip_new):
        # 3.17 * 1.12^2 / 4 = 0.99382..., so the recomputed cutoff recovers
        # the target excess to 0.62%
        if cutoff <= ip_new * (1 + 1e-9) + 1e-9:
            return
        f_new = hhg_matched_field(omega, cutoff, ip_new)
        again = hhg_cutoff(f_new, omega, ip_new)
        assert abs(again - cutoff) <= 0.01 * cutoff

    def test_ati_identity_case(self):
        assert ati_matched_field(0.4, 0.12, 0.5, 0.5) == pytest.approx(0.12, rel=1e-13)

    def test_ati_zero_field_identity_ip(self):
        assert ati_matched_field(0.4, 0.0, 0.5, 0.5) == 0.0

    def test_ati_infeasible(self):
        with pytest.raises(ValueError, match="is below the new ionization potential 5.0"):
            ati_matched_field(0.5, 0.01, 0.3, 5.0)

    @pytest.mark.parametrize("ip,ip_new,name", [
        (0.9, 0.0, "ip_new"), (0.9, -1.3, "ip_new"), (0.0, 0.5, "ip"),
        (-1.3, 0.5, "ip")])
    def test_ati_match_rejects_nonpositive_ip(self, ip, ip_new, name):
        with pytest.raises(ValueError, match=f"^{name} must be positive"):
            ati_matched_field(0.05, 0.05, ip, ip_new)

    @pytest.mark.parametrize("law, args, name", [
        (ponderomotive_energy, (math.inf, 0.057), "field"),
        (ponderomotive_energy, (0.05, math.nan), "omega"),
        (hhg_cutoff, (math.nan, 0.057, 0.5), "field"),
        (hhg_cutoff, (0.05, 0.057, math.inf), "ip"),
        (hhg_matched_field, (0.057, math.inf, 0.5), "cutoff"),
        (hhg_matched_field, (math.inf, 1.2, 0.5), "omega"),
        (ati_matched_field, (0.057, math.inf, 0.579, 0.5), "field"),
        (ati_matched_field, (0.057, 0.05, 0.579, -math.inf), "ip_new"),
    ], ids=["up-field", "up-omega", "cutoff-field", "cutoff-ip", "hhg-cutoff",
            "hhg-omega", "ati-field", "ati-ip-new"])
    def test_scaling_laws_reject_non_finite_input(self, law, args, name):
        with pytest.raises(ValueError, match=f"^{name} must be finite, got "):
            law(*args)

    @given(
        omega=st.floats(0.02, 2.0),
        field=st.floats(0.0, 2.0),
        ip=st.floats(0.05, 3.0),
        ip_new=st.floats(0.05, 3.0),
    )
    def test_ati_budget_invariant(self, omega, field, ip, ip_new):
        up = ponderomotive_energy(field, omega)
        if up + ip < ip_new:
            return
        f_new = ati_matched_field(omega, field, ip, ip_new)
        assert ponderomotive_energy(f_new, omega) + ip_new == pytest.approx(
            up + ip, abs=1e-12, rel=1e-12
        )
