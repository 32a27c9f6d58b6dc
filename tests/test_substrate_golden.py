"""Golden fixtures for the per-epoch substrate: BIST, Remap-D and health.

Each case builds a seeded experiment and replays the per-epoch chip
transition (wear, faults, BIST scan, Remap-D pass, health sample) without
training: the substrate's decisions depend only on the seeded RNG streams
and the batch count, never on the learned weights.  Every remap plan is
serialised the moment it is planned (before ``execute`` moves any task),
so the fixture pins, per epoch, the sender and receiver pairs, hops,
responding tiles, cross-chip evictions and stranded senders, plus the
BIST estimates, the BIST stream's final state and every ``health_sample``
payload.

``tests/data/golden_remap_plans.json`` was recorded from the per-crossbar
and per-candidate loop implementations; the chip-wide array passes must
reproduce it exactly.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.core.controller import apply_epoch_end, build_experiment
from repro.core.remap_protocol import IdleSlot, RemapPlan, RemapProtocol
from repro.fleet.remap import FleetRemapPlan, FleetRemapProtocol
from repro.telemetry import Telemetry
from repro.telemetry.health import sample_health
from repro.utils.config import (
    ChipConfig,
    CrossbarConfig,
    ExperimentConfig,
    FaultConfig,
    TrainConfig,
)

GOLDEN = Path(__file__).parent / "data" / "golden_remap_plans.json"

EPOCHS = 6

#: case name -> (chips, seed, policy kwargs, wave epoch, stored in full).
#: Cases not stored in full keep one digest per plan and one for the
#: health payloads, which keeps the fixture small.
CASES = {
    "single_chip": (1, 5, {}, None, True),
    "fleet_wave": (2, 7, {}, 2, True),
    "single_chip_random": (1, 9, {"receiver_rule": "random"}, None, False),
    "single_chip_lowest_density_no_phase": (
        1, 13,
        {"receiver_rule": "lowest-density", "phase_priority": False},
        None, False,
    ),
    "fleet_wave_random": (2, 17, {"receiver_rule": "random"}, 1, False),
}


def case_config(name: str) -> ExperimentConfig:
    chips, seed, kwargs, wave, _ = CASES[name]
    return ExperimentConfig(
        train=TrainConfig(
            model="vgg11", epochs=EPOCHS, batch_size=16, n_train=48,
            n_test=32, width_mult=0.125,
        ),
        chip=ChipConfig(crossbar=CrossbarConfig(rows=32, cols=32)),
        faults=FaultConfig(post_m=0.01, post_n=0.02, wave_epoch=wave,
                           wave_chip=0, wave_density=0.05),
        policy="remap-d",
        remap_threshold=0.001,
        policy_kwargs=kwargs,
        chips=chips,
        seed=seed,
    )


def _local_plan(plan: RemapPlan) -> dict:
    return {
        "epoch": plan.epoch,
        "decisions": [
            [
                d.sender.pair_id,
                d.receiver.pair_id,
                isinstance(d.receiver, IdleSlot),
                d.sender_tile,
                d.receiver_tile,
                d.hops,
                repr(d.sender_density),
                repr(d.receiver_density),
            ]
            for d in plan.decisions
        ],
        "sender_tiles": list(plan.sender_tiles),
        "responders": [[t, list(r)] for t, r in plan.responders.items()],
        "matches": [[s, r] for s, r in plan.matches.items()],
    }


def _serialise(plan) -> dict:
    if isinstance(plan, FleetRemapPlan):
        return {
            "epoch": plan.epoch,
            "sub_plans": [[c, _local_plan(p)] for c, p in plan.sub_plans],
            "evictions": [
                [
                    e.task.pair_id, e.source_chip, e.target_chip,
                    e.source_pair, e.target_pair, e.chip_hops,
                    repr(e.sender_density), repr(e.receiver_density),
                ]
                for e in plan.evictions
            ],
            "stranded": list(plan.stranded),
        }
    return _local_plan(plan)


def capture(name: str, monkeypatch) -> dict:
    """Replay one case's substrate and serialise everything it decided."""
    plans: list[dict] = []
    depth = [0]

    def recording(original):
        # The fleet planner calls the per-chip planner; only the
        # outermost plan of a pass is recorded.
        def plan(self, *args, **kwargs):
            depth[0] += 1
            try:
                result = original(self, *args, **kwargs)
            finally:
                depth[0] -= 1
            if depth[0] == 0:
                plans.append(_serialise(result))
            return result
        return plan

    monkeypatch.setattr(RemapProtocol, "plan", recording(RemapProtocol.plan))
    monkeypatch.setattr(
        FleetRemapProtocol, "plan", recording(FleetRemapProtocol.plan)
    )
    tel = Telemetry(echo=False)
    ctx = build_experiment(case_config(name), telemetry=tel)
    bist_rng = ctx.rng_hub.stream("bist")
    sample_health(ctx.chip, tel, epoch=-1)
    densities = []
    for epoch in range(EPOCHS):
        apply_epoch_end(ctx, bist_rng, epoch, ctx.trainer)
        densities.append(
            hashlib.sha256(ctx.pair_density_est.tobytes()).hexdigest()
        )
    health = [e["payload"] for e in tel.filter("health_sample")]
    out = {
        "pair_density_est_sha256": densities,
        "bist_scan_detail": [
            e["payload"] for e in tel.filter("bist_scan_detail")
        ],
        "bist_rng_state": repr(bist_rng.bit_generator.state),
    }
    if CASES[name][4]:
        out["plans"] = plans
        out["health_sample"] = health
    else:
        out["plans_sha256"] = [_digest(p) for p in plans]
        out["health_sample_sha256"] = _digest(health)
    return out


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj).encode()).hexdigest()


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name", sorted(CASES))
def test_substrate_matches_golden(name, golden, monkeypatch):
    got = capture(name, monkeypatch)
    expected = golden[name]
    assert got["bist_rng_state"] == expected["bist_rng_state"]
    assert got["bist_scan_detail"] == expected["bist_scan_detail"]
    assert got["pair_density_est_sha256"] == expected["pair_density_est_sha256"]
    key = "plans" if "plans" in expected else "plans_sha256"
    assert len(got[key]) == len(expected[key]) == EPOCHS + 1
    for epoch, (got_plan, expected_plan) in enumerate(
        zip(got[key], expected[key]), start=-1
    ):
        assert got_plan == expected_plan, f"epoch {epoch}"
    if "health_sample" in expected:
        for got_sample, expected_sample in zip(
            got["health_sample"], expected["health_sample"], strict=True
        ):
            assert got_sample == expected_sample
    # The serialised text also pins key order and int-versus-float types,
    # which ``==`` on the decoded values does not.
    assert json.dumps(got) == json.dumps(expected)


def test_golden_cases_exercise_the_planner(golden):
    """The fixture is only a guard if it pins non-trivial decisions."""
    single = golden["single_chip"]["plans"]
    assert sum(len(p["decisions"]) for p in single) > 0
    assert any(p["responders"] for p in single)
    fleet = golden["fleet_wave"]["plans"]
    assert sum(len(p["evictions"]) for p in fleet) > 0
    assert sum(len(p["stranded"]) for p in fleet) > 0
    assert sum(
        len(sub["decisions"]) for p in fleet for _, sub in p["sub_plans"]
    ) > 0
