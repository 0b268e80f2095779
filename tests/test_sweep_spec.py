"""Unit tests for sweep points, grids, and result serialization."""

from __future__ import annotations

import json
import re

import pytest

from repro.core.problem import BroadcastProblem
from repro.core.runner import BroadcastResult, run_broadcast
from repro.errors import ConfigurationError
from repro.machines import Machine, machine_from_spec, paragon, t3d
from repro.machines.paragon import PARAGON_PARAMS
from repro.machines.t3d import T3D_PARAMS
from repro.network.linear import LinearArray
from repro.sweep import ResultCache, SweepExecutor, SweepPoint, SweepSpec


class TestMachineSpec:
    def test_factory_machines_carry_spec(self):
        assert paragon(4, 5).spec == "paragon:4x5"
        assert t3d(32).spec == "t3d:32"

    @pytest.mark.parametrize("spec", [
        "t3d:64+mapping=identity",
        "t3d:128+t_mem_byte=0.0",
        "paragon:10x10+switching=store_and_forward",
    ])
    def test_committed_variants_round_trip(self, spec):
        machine = machine_from_spec(spec)
        assert machine.spec == spec
        assert machine_from_spec(machine.spec).params == machine.params

    def test_variant_specs_name_their_overrides(self):
        assert (
            t3d(128, params=T3D_PARAMS.with_overrides(t_mem_byte=0.0)).spec
            == "t3d:128+t_mem_byte=0.0"
        )
        assert machine_from_spec("t3d:64+mapping=identity").topology_stable_ranks
        assert not machine_from_spec("t3d:64").topology_stable_ranks

    def test_overridden_params_round_trip(self):
        custom = PARAGON_PARAMS.with_overrides(
            t_byte=1.0, collective_segment_bytes=4096, switching="store_and_forward"
        )
        machine = paragon(4, 4, params=custom)
        assert machine.spec == (
            "paragon:4x4+t_byte=1.0+collective_segment_bytes=4096"
            "+switching=store_and_forward"
        )
        rebuilt = machine_from_spec(machine.spec)
        assert rebuilt.spec == machine.spec
        assert rebuilt.params == machine.params

    @pytest.mark.parametrize("spelling, canonical", [
        ("paragon:04x4", "paragon:4x4"),
        ("paragon: 4x4", "paragon:4x4"),
        ("paragon:4x4 ", "paragon:4x4"),
        ("t3d:+16", "t3d:16"),
        ("hypercube:016", "hypercube:16"),
        ("t3d:16+t_mem_byte=0", "t3d:16+t_mem_byte=0.0"),
        ("t3d:16+t_mem_byte=0.05", "t3d:16"),
        ("t3d:16+t_hop=1.0+t_byte=1.0", "t3d:16+t_byte=1.0+t_hop=1.0"),
        ("paragon:4x4+mapping=identity", "paragon:4x4"),
    ])
    def test_non_canonical_spellings_rejected(self, spelling, canonical):
        with pytest.raises(ConfigurationError, match=re.escape(repr(canonical))):
            machine_from_spec(spelling)
        spec = SweepSpec(
            machines=(spelling,), distributions=("E",), s_values=(2,),
            message_sizes=(64,), algorithms=("Br_Lin",),
        )
        with pytest.raises(ConfigurationError):
            spec.points()

    def test_variant_result_round_trips_through_the_cache(self, tmp_path):
        machine = machine_from_spec("t3d:16+t_mem_byte=0.0")
        problem = BroadcastProblem(machine, (0, 5, 9), message_size=512)
        point = SweepPoint.from_problem(problem, "Br_Lin", seed=2)
        executor = SweepExecutor(cache=ResultCache(tmp_path))
        [computed] = executor.run([point])
        [loaded] = executor.run([point])
        assert executor.last_report.cached == 1
        assert loaded.problem.machine.spec == "t3d:16+t_mem_byte=0.0"
        assert loaded.problem.machine.params == machine.params
        assert loaded.to_dict() == computed.to_dict()

    def test_machine_from_spec_round_trip(self):
        machine = machine_from_spec("paragon:4x5")
        assert machine.mesh_shape == (4, 5)
        assert machine.spec == "paragon:4x5"
        assert machine_from_spec("t3d:64").p == 64
        assert machine_from_spec("hypercube:16").p == 16

    def test_machine_from_spec_rejects_garbage(self):
        for bad in ("cm5:64", "paragon:4", "paragon:axb", "t3d:", "",
                    "t3d:16+name=x", "t3d:16+t_hop", "t3d:16+t_hop=nan"):
            with pytest.raises(ConfigurationError):
                machine_from_spec(bad)


class TestSweepPoint:
    def test_from_problem_round_trips_through_payload(self):
        machine = paragon(4, 4)
        problem = BroadcastProblem(machine, (0, 5, 9), message_size=512)
        point = SweepPoint.from_problem(
            problem, "Br_Lin", seed=3, contention=False, distribution="E"
        )
        clone = SweepPoint.from_payload(
            json.loads(json.dumps(point.payload()))
        )
        assert clone == point
        assert clone.key() == point.key()

    def test_build_problem_reconstructs_equivalent_problem(self):
        machine = paragon(4, 4)
        problem = BroadcastProblem(
            machine, (0, 5, 9), message_size=512, sizes={5: 128}
        )
        point = SweepPoint.from_problem(problem, "Br_Lin")
        rebuilt = point.build_problem()
        assert rebuilt.sources == problem.sources
        assert rebuilt.size_of(5) == 128
        assert rebuilt.size_of(0) == 512
        assert rebuilt.machine.spec == "paragon:4x4"

    def test_rejects_machines_without_spec(self):
        from tests.conftest import TEST_PARAMS

        machine = Machine(LinearArray(8), TEST_PARAMS)
        problem = BroadcastProblem(machine, (0, 3), message_size=64)
        with pytest.raises(ConfigurationError):
            SweepPoint.from_problem(problem, "Br_Lin")

    def test_evaluation_matches_direct_run(self):
        machine = paragon(4, 4)
        problem = BroadcastProblem(machine, (0, 5, 9), message_size=512)
        point = SweepPoint.from_problem(problem, "Br_Lin", seed=0)
        direct = run_broadcast(problem, "Br_Lin", seed=0)
        via_point = run_broadcast(point.build_problem(), "Br_Lin", seed=0)
        assert via_point.elapsed_us == direct.elapsed_us
        assert via_point.metrics == direct.metrics


class TestSweepPointFaults:
    def test_faults_are_canonicalised_on_construction(self):
        point = SweepPoint(
            machine="paragon:4x4",
            sources=(0, 5),
            message_size=256,
            algorithm="Br_Lin",
            faults="node:3@0.5ms ; link:1-2",
        )
        assert point.faults == "link:1-2@0us;node:3@500us"

    def test_spelling_variants_share_a_cache_key(self):
        base = dict(
            machine="paragon:4x4",
            sources=(0, 5),
            message_size=256,
            algorithm="Br_Lin",
        )
        a = SweepPoint(**base, faults="node:3@0.5ms;link:1-2")
        b = SweepPoint(**base, faults="link:1-2@0us ; node:3@500us")
        assert a.key() == b.key()

    def test_faults_change_the_cache_key(self):
        base = dict(
            machine="paragon:4x4",
            sources=(0, 5),
            message_size=256,
            algorithm="Br_Lin",
        )
        keys = {
            SweepPoint(**base).key(),
            SweepPoint(**base, faults="link:1-2").key(),
            SweepPoint(**base, faults="node:3").key(),
        }
        assert len(keys) == 3

    def test_faultfree_payload_has_no_faults_key(self):
        # Back-compat: the pre-faults payload format (and cache keys)
        # must be untouched for fault-free points.
        point = SweepPoint(
            machine="paragon:4x4",
            sources=(0, 5),
            message_size=256,
            algorithm="Br_Lin",
        )
        assert "faults" not in point.payload()

    def test_faults_round_trip_through_payload(self):
        point = SweepPoint(
            machine="paragon:4x4",
            sources=(0, 5),
            message_size=256,
            algorithm="Br_Lin",
            faults="link:1-2",
        )
        clone = SweepPoint.from_payload(json.loads(json.dumps(point.payload())))
        assert clone == point


class TestSweepPointRecover:
    BASE = dict(
        machine="paragon:4x4",
        sources=(0, 5),
        message_size=256,
        algorithm="Br_Lin",
    )

    def test_default_payload_has_no_recover_key(self):
        # Back-compat: non-recovering points keep the pre-recovery
        # payload format, so existing cache entries stay addressable.
        assert "recover" not in SweepPoint(**self.BASE).payload()
        assert "recover" not in SweepPoint(
            **self.BASE, faults="link:1-2"
        ).payload()

    def test_recover_changes_the_cache_key(self):
        plain = SweepPoint(**self.BASE, faults="link:1-2")
        recovering = SweepPoint(**self.BASE, faults="link:1-2", recover=True)
        assert recovering.payload()["recover"] is True
        assert plain.key() != recovering.key()

    def test_recover_round_trips_through_payload(self):
        point = SweepPoint(**self.BASE, faults="link:1-2", recover=True)
        clone = SweepPoint.from_payload(json.loads(json.dumps(point.payload())))
        assert clone == point
        assert clone.recover is True


class TestSweepSpec:
    def test_expansion_size_and_order(self):
        spec = SweepSpec(
            machines=("paragon:4x4",),
            distributions=("E", "R"),
            s_values=(2, 4),
            message_sizes=(128,),
            algorithms=("Br_Lin", "2-Step"),
            seeds=(0, 1),
        )
        points = spec.points()
        assert len(points) == 16  # 2 dists x 2 s x 2 algorithms x 2 seeds
        # deterministic: expanding twice gives the same sequence
        assert points == spec.points()
        assert {pt.machine for pt in points} == {"paragon:4x4"}
        assert {pt.distribution for pt in points} == {"E", "R"}
        assert {pt.seed for pt in points} == {0, 1}

    def test_empty_axis_rejected(self):
        with pytest.raises(ConfigurationError):
            SweepSpec(
                machines=(),
                distributions=("E",),
                s_values=(2,),
                message_sizes=(128,),
                algorithms=("Br_Lin",),
            )

    def test_faults_axis_expands(self):
        spec = SweepSpec(
            machines=("paragon:4x4",),
            distributions=("E",),
            s_values=(2,),
            message_sizes=(128,),
            algorithms=("Br_Lin",),
            faults=(None, "link:1-2"),
        )
        points = spec.points()
        assert len(points) == 2
        assert {pt.faults for pt in points} == {None, "link:1-2@0us"}

    def test_faults_axis_defaults_to_faultfree(self):
        spec = SweepSpec(
            machines=("paragon:4x4",),
            distributions=("E",),
            s_values=(2,),
            message_sizes=(128,),
            algorithms=("Br_Lin",),
        )
        assert all(pt.faults is None for pt in spec.points())

    def test_recover_applies_only_to_fault_injected_points(self):
        spec = SweepSpec(
            machines=("paragon:4x4",),
            distributions=("E",),
            s_values=(2,),
            message_sizes=(128,),
            algorithms=("Br_Lin",),
            faults=(None, "link:1-2"),
            recover=True,
        )
        by_faults = {pt.faults: pt.recover for pt in spec.points()}
        assert by_faults == {None: False, "link:1-2@0us": True}

    def test_recover_without_faults_axis_rejected(self):
        with pytest.raises(ConfigurationError):
            SweepSpec(
                machines=("paragon:4x4",),
                distributions=("E",),
                s_values=(2,),
                message_sizes=(128,),
                algorithms=("Br_Lin",),
                recover=True,
            )


class TestBroadcastResultSerialization:
    def test_round_trip_is_bit_exact(self):
        machine = paragon(4, 4)
        problem = BroadcastProblem(machine, (0, 5, 9), message_size=768)
        result = run_broadcast(problem, "Br_Lin", seed=0)
        data = json.loads(json.dumps(result.to_dict()))
        clone = BroadcastResult.from_dict(data)
        assert clone.algorithm == result.algorithm
        assert clone.elapsed_us == result.elapsed_us
        assert clone.num_rounds == result.num_rounds
        assert clone.num_transfers == result.num_transfers
        assert clone.link_utilization == result.link_utilization
        assert clone.metrics == result.metrics
        assert clone.problem.sources == problem.sources
        assert clone.problem.machine.spec == "paragon:4x4"

    def test_non_uniform_sizes_survive(self):
        machine = paragon(4, 4)
        problem = BroadcastProblem(
            machine, (0, 5, 9), message_size=768, sizes={9: 32}
        )
        result = run_broadcast(problem, "Br_Lin", seed=0)
        clone = BroadcastResult.from_dict(
            json.loads(json.dumps(result.to_dict()))
        )
        assert clone.problem.size_of(9) == 32
        assert clone.problem.size_of(0) == 768

    def test_explicit_problem_overrides_descriptor(self):
        machine = paragon(4, 4)
        problem = BroadcastProblem(machine, (0, 5), message_size=256)
        result = run_broadcast(problem, "Br_Lin", seed=0)
        clone = BroadcastResult.from_dict(result.to_dict(), problem=problem)
        assert clone.problem is problem
