import json

import numpy as np
import pytest
from scipy.linalg import expm

from thermosim import gates
from thermosim import (ContractViolationError, GateProgram, GateSegment,
                       Generator, SDEModel, Schedule,
                       constant_schedule, discrete_gate_sequence,
                       evaluate_schedule, program_from_json, program_to_json,
                       single_smode_gate)


def base_model():
    return SDEModel(A0=[[-1.0, 0.5], [0.0, -2.0]], b0=[3.0, 5.0],
                    C0=[[1.0, 0.2], [0.0, 0.7]])


class TestScheduleEvaluation:
    def test_zero_generator_is_identity(self):
        sched = Schedule([GateSegment(Generator.dense("drift_vec", np.zeros((2, 2))), 0.0, 1.0)])
        np.testing.assert_allclose(evaluate_schedule(sched, 0.7), np.eye(2))

    def test_scalar_generator_exponential(self):
        kappa = 0.8
        sched = Schedule([GateSegment(Generator.scalar("drift_vec", kappa), 0.0, 2.0)])
        np.testing.assert_allclose(evaluate_schedule(sched, 1.3, size=2),
                                   np.exp(kappa * 1.3) * np.eye(2))

    def test_two_segment_composition(self):
        k1, k2 = 0.5, -0.3
        sched = Schedule([
            GateSegment(Generator.scalar("drift_vec", k1), 0.0, 1.0),
            GateSegment(Generator.scalar("drift_vec", k2), 1.0, 2.0),
        ])
        np.testing.assert_allclose(evaluate_schedule(sched, 2.0, size=1),
                                   np.exp(k2) * np.exp(k1) * np.eye(1))

    def test_boundary_continuity(self):
        K1 = np.array([[0.0, 1.0], [-1.0, 0.0]])
        K2 = np.array([[0.3, 0.0], [0.0, -0.2]])
        sched = Schedule([
            GateSegment(Generator.dense("drift_vec", K1), 0.0, 1.0),
            GateSegment(Generator.dense("drift_vec", K2), 1.0, 2.0),
        ])
        left = evaluate_schedule(sched, 1.0 - 1e-12)
        right = evaluate_schedule(sched, 1.0 + 1e-12)
        assert np.max(np.abs(left - right)) < 1e-9

    def test_compose_false_resets_each_segment(self):
        k1, k2 = 0.5, -0.3
        sched = Schedule([
            GateSegment(Generator.scalar("drift_vec", k1), 0.0, 1.0),
            GateSegment(Generator.scalar("drift_vec", k2), 1.0, 2.0),
        ], compose=False)
        # second segment acts on the base operator directly
        np.testing.assert_allclose(evaluate_schedule(sched, 1.5, size=1),
                                   np.exp(k2 * 0.5) * np.eye(1))

    def test_dense_generator_matches_expm(self):
        rng = np.random.default_rng(0)
        K = 0.5 * rng.standard_normal((4, 4))
        sched = Schedule([GateSegment(Generator.dense("drift_super", K), 0.0, 1.0)])
        np.testing.assert_allclose(evaluate_schedule(sched, 0.6), expm(0.6 * K),
                                   rtol=1e-10)

    def test_out_of_domain_rejected(self):
        sched = Schedule([GateSegment(Generator.scalar("drift_vec", 0.0), 0.0, 1.0)])
        with pytest.raises(ContractViolationError):
            sched.operator_at(1.5)

    def test_noncontiguous_segments_rejected(self):
        with pytest.raises(ContractViolationError):
            Schedule([
                GateSegment(Generator.scalar("drift_vec", 0.0), 0.0, 1.0),
                GateSegment(Generator.scalar("drift_vec", 0.0), 1.5, 2.0),
            ])


class TestApplyProgram:
    def test_empty_program_is_identity(self):
        m = base_model()
        A, b, C, D = m.coefficients(0.5)
        np.testing.assert_array_equal(A, m.A0)
        np.testing.assert_array_equal(b, m.b0)
        np.testing.assert_array_equal(C, m.C0)
        np.testing.assert_array_equal(D, m.D0)

    def test_all_identity_schedules_exact(self):
        m = base_model()
        prog = GateProgram(
            schedule_A=Schedule([GateSegment(Generator.scalar("drift_super", 0.0), 0.0, 1.0)]),
            schedule_b=Schedule([GateSegment(Generator.scalar("drift_vec", 0.0), 0.0, 1.0)]),
        )
        A, b, C, D = prog.coefficients(m, 0.4)
        np.testing.assert_array_equal(A, m.A0)
        np.testing.assert_array_equal(b, m.b0)

    def test_scalar_diffusion_scaling(self):
        # C_t = gamma(t) * identity superoperator => C(t) = gamma(t) C0
        m = base_model()
        gamma = lambda t: 1.0 + t
        prog = GateProgram(schedule_C=constant_schedule("diffusion_super", gamma, 0.0, 1.0))
        _, _, C, _ = prog.coefficients(m, 0.5)
        np.testing.assert_allclose(C, 1.5 * m.C0)

    def test_mismatched_domains_rejected(self):
        with pytest.raises(ContractViolationError):
            GateProgram(
                schedule_A=Schedule([GateSegment(Generator.scalar("drift_super", 0.0), 0.0, 1.0)]),
                schedule_b=Schedule([GateSegment(Generator.scalar("drift_vec", 0.0), 0.0, 2.0)]),
            )

    def test_wrong_target_rejected(self):
        sched = Schedule([GateSegment(Generator.scalar("drift_vec", 0.0), 0.0, 1.0)])
        with pytest.raises(ContractViolationError):
            GateProgram(schedule_A=sched)


class TestSingleSModeGate:
    def test_identity_when_g_is_one(self):
        m = base_model()
        sched = single_smode_gate(1, lambda t: 1.0, "drift_vec", 0.0, 1.0, 2)
        prog = GateProgram(schedule_b=sched)
        _, b, _, _ = prog.coefficients(m, 0.5)
        np.testing.assert_array_equal(b, m.b0)

    def test_drift_vec_multiplies_one_component(self):
        m = base_model()  # b0 = (3, 5)
        sched = single_smode_gate(1, lambda t: 2.0, "drift_vec", 0.0, 1.0, 2)
        prog = GateProgram(schedule_b=sched)
        _, b, _, _ = prog.coefficients(m, 0.5)
        np.testing.assert_allclose(b, [6.0, 5.0])

    def test_diagonal_diffusion_zeroes_one_entry(self):
        m = base_model()
        sched = single_smode_gate(2, lambda t: 0.0, "diagonal_diffusion_super",
                                  0.0, 1.0, 2)
        prog = GateProgram(schedule_C=sched)
        _, _, C, _ = prog.coefficients(m, 0.5)
        expected = m.C0.copy()
        expected[1, 1] = 0.0
        np.testing.assert_allclose(C, expected)

    def test_diagonal_drift_leaves_untouched_entries_bitwise(self):
        m = SDEModel(A0=np.diag([-1.0, -2.0, -3.0]), b0=np.zeros(3), C0=np.eye(3))
        sched = single_smode_gate(2, lambda t: 0.5, "diagonal_drift_super",
                                  0.0, 1.0, 3)
        prog = GateProgram(schedule_A=sched)
        A, _, _, _ = prog.coefficients(m, 0.3)
        assert A[0, 0] == m.A0[0, 0]
        assert A[2, 2] == m.A0[2, 2]
        assert A[1, 1] == pytest.approx(-1.0)

    def test_index_out_of_range(self):
        with pytest.raises(ContractViolationError):
            single_smode_gate(3, lambda t: 1.0, "drift_vec", 0.0, 1.0, 2)


class TestSerialization:
    def test_round_trip(self):
        prog = GateProgram(
            schedule_A=Schedule([GateSegment(Generator.scalar("drift_super", 0.2), 0.0, 1.0)]),
            schedule_b=discrete_gate_sequence(
                "drift_vec",
                [Generator.dense("drift_vec", [[0.0, 0.1], [-0.1, 0.0]]),
                 Generator.scalar("drift_vec", -0.5)], 0.0, 0.5),
        )
        doc = program_to_json(prog)
        back = program_from_json(doc)
        m = base_model()
        for t in (0.1, 0.45, 0.9):
            A1, b1, _, _ = prog.coefficients(m, t)
            A2, b2, _, _ = back.coefficients(m, t)
            np.testing.assert_array_equal(A1, A2)
            np.testing.assert_array_equal(b1, b2)

    def test_round_trip_keeps_per_schedule_compose(self):
        def two_segments(target, compose):
            return Schedule([GateSegment(Generator.scalar(target, 0.4), 0.0, 0.5),
                             GateSegment(Generator.scalar(target, -0.7), 0.5, 1.0)],
                            compose=compose)

        prog = GateProgram(schedule_A=two_segments("drift_super", False),
                           schedule_b=two_segments("drift_vec", True))
        doc = program_to_json(prog)
        assert doc["compose"] == {"drift_super": False, "drift_vec": True}
        back = program_from_json(json.dumps(doc))
        assert (back.schedule_A.compose, back.schedule_b.compose) == (False, True)
        m = base_model()
        for t in (0.2, 0.6, 0.9):
            for c1, c2 in zip(prog.coefficients(m, t), back.coefficients(m, t)):
                np.testing.assert_array_equal(c1, c2)

    def test_top_level_compose_flag_still_read(self):
        doc = {"segments": [{"target": t, "t_start": 0.0, "t_end": 1.0, "form": "scalar",
                             "payload": 0.3} for t in ("drift_super", "drift_vec")],
               "compose": False}
        back = program_from_json(doc)
        assert (back.schedule_A.compose, back.schedule_b.compose) == (False, False)
        del doc["compose"]
        assert program_from_json(doc).schedule_A.compose is True

    def test_function_segments_rejected(self):
        prog = GateProgram(schedule_b=single_smode_gate(
            1, lambda t: 2.0, "drift_vec", 0.0, 1.0, 2))
        with pytest.raises(ContractViolationError):
            program_to_json(prog)


class TestProgramChecks:
    """Generators, schedules and programs that do not fit are contract
    violations naming the target, not numpy errors or silent broadcasts."""

    @pytest.mark.parametrize("form, payload", [
        ("scalar", float("nan")), ("scalar", float("inf")), ("diagonal", [0.1, float("nan")]),
        ("dense", [[0.0, float("inf")], [0.0, 0.0]]), ("dense", [[0.0, 1.0]]),
        ("dense", [0.0, 1.0]), ("diagonal", [[0.0, 1.0]]), ("scalar", [0.5]),
    ])
    def test_generator_must_be_finite_and_of_its_rank(self, form, payload):
        with pytest.raises(ContractViolationError, match="drift_super"):
            Generator("drift_super", form, payload)

    @pytest.mark.parametrize("k, target, size", [
        (0, "drift_super", 4), (1, "drift_vec", 2), (2, "diffusion_super", 4),
        (3, "demon_coupling_super", 6)])
    @pytest.mark.parametrize("form", ["diagonal", "dense"])
    def test_operator_sized_off_its_base_rejected(self, k, target, size, form):
        m = SDEModel(A0=-np.eye(2), b0=np.ones(2), C0=np.eye(2), D0=np.ones((2, 3)))
        for n in (size - 1, size + 1, size):
            K = np.zeros(n) if form == "diagonal" else np.zeros((n, n))
            schedules = [None] * 4
            schedules[k] = Schedule([GateSegment(Generator(target, form, K), 0.0, 1.0)])
            prog = GateProgram(*schedules)
            if n == size:
                np.testing.assert_array_equal(prog.coefficients(m, 0.5)[k],
                                              m.coefficients(0.5)[k])
            else:
                with pytest.raises(ContractViolationError,
                                   match=f"{target} operator has size {n}"):
                    prog.coefficients(m, 0.5)

    def test_function_segment_sized_off_the_model_rejected(self):
        prog = GateProgram(schedule_b=single_smode_gate(1, lambda t: 2.0, "drift_vec",
                                                        0.0, 1.0, 3))
        with pytest.raises(ContractViolationError, match="drift_vec operator has size 3"):
            prog.coefficients(base_model(), 0.5)

    def test_schedule_with_mixed_sizes_rejected(self):
        with pytest.raises(ContractViolationError, match="drift_super segments"):
            Schedule([GateSegment(Generator.dense("drift_super", np.zeros((4, 4))), 0.0, 0.5),
                      GateSegment(Generator.diagonal("drift_super", np.zeros(3)), 0.5, 1.0)])
        # a multiple of the identity fits every size
        Schedule([GateSegment(Generator.dense("drift_super", np.zeros((4, 4))), 0.0, 0.5),
                  GateSegment(Generator.scalar("drift_super", 0.1), 0.5, 1.0)])

    @pytest.mark.parametrize("compose", ["false", 0, None, {"drift_super": "false"},
                                         {"drift_super": 1}, {"drift_supr": False}])
    def test_compose_must_be_bools(self, compose):
        doc = {"segments": [{"target": "drift_super", "t_start": 0.0, "t_end": 1.0,
                             "form": "scalar", "payload": 0.3}], "compose": compose}
        with pytest.raises(ContractViolationError, match="compose"):
            program_from_json(doc)


class TestExponentialCount:
    """Dense exponentials go through the module's `gates.expm`, and only
    dense generators need one."""

    @pytest.fixture
    def expm_calls(self, monkeypatch):
        calls = []
        original = gates.expm
        monkeypatch.setattr(gates, "expm", lambda A: calls.append(A) or original(A))
        return calls

    def test_scalar_and_diagonal_programs_make_none(self, expm_calls):
        prog = GateProgram(
            schedule_A=discrete_gate_sequence(
                "drift_super", [Generator.scalar("drift_super", 0.3),
                                Generator.diagonal("drift_super", [0.1, -0.2, 0.3, 0.0])],
                0.0, 0.5),
            schedule_b=single_smode_gate(2, lambda t: 1.0 + t, "drift_vec", 0.0, 1.0, 2),
            schedule_C=constant_schedule("diffusion_super", lambda t: 2.0 - t, 0.0, 1.0),
            schedule_D=discrete_gate_sequence(
                "demon_coupling_super", [Generator.diagonal("demon_coupling_super",
                                                            [0.1, 0.2, 0.3, 0.4]),
                                         Generator.scalar("demon_coupling_super", -0.1)],
                0.0, 0.5, compose=False))
        m = base_model()
        for t in np.linspace(0.0, 1.0, 11):
            prog.coefficients(m, t)
        assert expm_calls == []

    def test_dense_schedule_makes_one_per_call(self, expm_calls):
        K = 0.1 * np.arange(16.0).reshape(4, 4)
        prog = GateProgram(
            schedule_A=discrete_gate_sequence(
                "drift_super", [Generator.dense("drift_super", c * K) for c in (1, -1, 0.5)],
                0.0, 1 / 3),
            schedule_b=Schedule([GateSegment(Generator.scalar("drift_vec", 0.5), 0.0, 1.0)]))
        m = base_model()
        # also builds the prefixes: one end operator per segment before the last
        prog.coefficients(m, 0.1)
        assert len(expm_calls) == 1 + 2
        for k, t in enumerate((0.2, 0.5, 0.9), start=1):
            prog.coefficients(m, t)
            assert len(expm_calls) == 3 + k


def test_programmed_simulation_tracks_moment_oracle():
    """A drift-vector gate ramp changes b(t); sampler and RK4 oracle agree."""
    from thermosim import propagate_moments, simulate_ensemble

    m = SDEModel(A0=[[-1.0]], b0=[1.0], C0=[[0.3]])
    prog = GateProgram(schedule_b=Schedule(
        [GateSegment(Generator.scalar("drift_vec", 1.0), 0.0, 1.0)]))
    oracle = propagate_moments(m, prog, tf=1.0, dt=0.001)
    summary = simulate_ensemble(m, prog, tf=1.0, dt=0.001, n_traj=2000, base_seed=8)
    assert abs(summary.means[-1][0] - oracle[-1].mean[0]) < 0.05
