"""The dynamic remapping protocol of Fig. 3.

At the end of each epoch, with BIST density estimates in hand:

1. every task whose crossbar-pair density exceeds the trigger threshold
   *and* whose task is fault-critical (backward phase, unless phase
   priority is disabled) becomes a **sender** and broadcasts a remap
   request to all tiles (XY-tree multicast);
2. every non-sender task satisfying the receive conditions — lower fault
   density than the sender and a more fault-tolerant task — **responds**;
3. each sender picks the **nearest** responder (NoC hop count) and the
   two tasks exchange their physical crossbar pairs.

Senders are served most-faulty-first; each receiver task is consumed at
most once per epoch.  The planner is pure (no hardware mutation);
``execute`` applies the swaps to the chip, and the returned plan carries
everything the NoC overhead study needs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.tasks import Task
from repro.reram.chip import Chip
from repro.utils.arrays import lexicographic_argmin

__all__ = ["IdleSlot", "RemapDecision", "RemapPlan", "RemapProtocol"]

RECEIVER_RULES = ("nearest", "lowest-density", "random")


@dataclass(frozen=True)
class IdleSlot:
    """A receiver-side crossbar pair that currently hosts no task.

    Idle pairs are ordinary on-chip crossbars (the paper's "already
    available crossbars"); moving a critical task onto one harms nothing,
    so an idle pair is maximally fault-tolerant (rank 2, above forward
    tasks' rank 1).
    """

    pair_id: int

    #: rank above every real task phase.
    tolerance_rank: int = 2

    @property
    def name(self) -> str:
        return f"idle[{self.pair_id}]"


@dataclass(frozen=True)
class RemapDecision:
    """One sender-receiver match."""

    sender: Task
    receiver: "Task | IdleSlot"
    sender_tile: int
    receiver_tile: int
    hops: int
    sender_density: float
    receiver_density: float


@dataclass
class RemapPlan:
    """Everything one epoch's remap phase decided and would transmit."""

    #: the epoch this plan was computed for (-1 = the deployment pass).
    epoch: int = -1
    decisions: list[RemapDecision] = field(default_factory=list)
    #: tiles that broadcast a request (senders with >= 1 triggering task).
    sender_tiles: list[int] = field(default_factory=list)
    #: sender tile -> responding tiles (for the NoC response phase).
    responders: dict[int, list[int]] = field(default_factory=dict)
    #: sender tile -> matched receiver tile (weight-exchange phase).
    matches: dict[int, int] = field(default_factory=dict)

    @property
    def num_remaps(self) -> int:
        return len(self.decisions)

    def total_hops(self) -> int:
        return sum(d.hops for d in self.decisions)


class RemapProtocol:
    """Plans and executes Remap-D's per-epoch task exchanges."""

    def __init__(
        self,
        chip: Chip,
        threshold: float = 0.002,
        phase_priority: bool = True,
        require_lower_density: bool = True,
        receiver_rule: str = "nearest",
        rng: np.random.Generator | None = None,
    ):
        if not (0.0 <= threshold <= 1.0):
            raise ValueError("threshold must lie in [0, 1]")
        if receiver_rule not in RECEIVER_RULES:
            raise ValueError(f"receiver_rule must be one of {RECEIVER_RULES}")
        self.chip = chip
        self.threshold = threshold
        self.phase_priority = phase_priority
        self.require_lower_density = require_lower_density
        self.receiver_rule = receiver_rule
        self.rng = rng or np.random.default_rng(0)
        #: static geometry, by local index: pair -> tile, tile x tile hops.
        self._pair_tile = (
            np.array([p.tile_id for p in chip.pairs], dtype=np.int64)
            - chip.tile_base
        )
        self._hops = chip.hop_table()

    # ------------------------------------------------------------------ #
    def plan(
        self,
        tasks: list[Task],
        pair_density: np.ndarray,
        idle_pairs: list[int] | None = None,
        epoch: int = -1,
    ) -> RemapPlan:
        """Compute this epoch's sender/receiver matches.

        ``pair_density`` holds the BIST *estimates* per pair id — the
        protocol never sees ground truth.  ``idle_pairs`` are on-chip
        pairs hosting no task; they participate as (preferred) receivers.

        Receivers are held as arrays (pair id, density, tolerance rank,
        tile, task-or-idle) in list order — non-sender tasks in ``tasks``
        order, then ``idle_pairs`` — and each sender scores all of them
        with masks, so a plan costs one array pass per sender.
        """
        plan = RemapPlan(epoch=epoch)
        chip = self.chip
        task_pair = np.fromiter(
            (t.pair_id for t in tasks), dtype=np.int64, count=len(tasks)
        )
        task_rank = np.fromiter(
            (t.tolerance_rank for t in tasks), dtype=np.int64, count=len(tasks)
        )
        task_density = pair_density[task_pair]
        is_sender = task_density > self.threshold
        if self.phase_priority:
            is_sender &= task_rank == 0
        senders = np.flatnonzero(is_sender)
        if not senders.size:
            return plan
        # Most-faulty senders are served first (they have the most to gain
        # and the fewest viable receivers).
        senders = senders[np.lexsort((task_pair[senders], -task_density[senders]))]
        idle = np.asarray(idle_pairs or [], dtype=np.int64)
        recv_task = np.flatnonzero(~is_sender)
        recv_pair = np.concatenate([task_pair[recv_task], idle])
        recv_density = pair_density[recv_pair]
        recv_rank = np.concatenate(
            [task_rank[recv_task], np.full(idle.size, IdleSlot.tolerance_rank)]
        )
        recv_is_task = np.arange(recv_pair.size) < recv_task.size
        recv_tile = self._pair_tile[recv_pair - chip.pair_base]
        used = np.zeros(recv_pair.size, dtype=bool)

        for index in senders.tolist():
            sender = tasks[index]
            s_density = float(task_density[index])
            s_local = int(self._pair_tile[task_pair[index] - chip.pair_base])
            s_tile = s_local + chip.tile_base
            viable = ~used
            if self.require_lower_density:
                viable &= recv_density < s_density
            if self.phase_priority:
                viable &= recv_rank > task_rank[index]
            candidates = np.flatnonzero(viable)
            # Hysteresis: prefer receivers *below the trigger threshold* so
            # a remapped task settles there and never re-triggers ("to
            # prevent frequent remapping" — Section III.B.4).  Hopping to
            # a merely-lower-density pair every epoch would smear fault
            # damage over fresh weight positions at each hop.
            settled = candidates[recv_density[candidates] <= self.threshold]
            if settled.size:
                candidates = settled
            if not candidates.size:
                continue
            chosen = int(candidates[self._choose(s_local, candidates,
                                                 recv_is_task, recv_tile,
                                                 recv_density, recv_pair)])
            used[chosen] = True
            r_pair = int(recv_pair[chosen])
            r_tile = int(recv_tile[chosen]) + chip.tile_base
            plan.decisions.append(
                RemapDecision(
                    sender=sender,
                    receiver=(
                        tasks[recv_task[chosen]]
                        if recv_is_task[chosen]
                        else IdleSlot(r_pair)
                    ),
                    sender_tile=s_tile,
                    receiver_tile=r_tile,
                    hops=int(self._hops[s_local, recv_tile[chosen]]),
                    sender_density=s_density,
                    receiver_density=float(recv_density[chosen]),
                )
            )
            if s_tile not in plan.responders:
                plan.sender_tiles.append(s_tile)
                plan.responders[s_tile] = (
                    np.unique(recv_tile[candidates]) + chip.tile_base
                ).tolist()
            plan.matches[s_tile] = r_tile
        return plan

    def _choose(
        self,
        sender_tile: int,
        candidates: np.ndarray,
        is_task: np.ndarray,
        tile: np.ndarray,
        density: np.ndarray,
        pair: np.ndarray,
    ) -> int:
        """Position in ``candidates`` of the receiver the rule picks.

        ``sender_tile`` and ``tile`` are local tile indices.  Idle crossbar
        pairs always outrank task-hosting receivers: an exchange with a
        working forward task pushes the sender's faults onto that task,
        while a move to an idle pair harms nothing.  Among receivers of the
        same kind, proximity (NoC hop count) decides, as in Fig. 3; the
        remaining ties go to the lower density, then the lower pair id.
        """
        if self.receiver_rule == "random":
            return int(self.rng.integers(0, candidates.size))
        keys = [is_task[candidates]]
        if self.receiver_rule == "nearest":
            keys.append(self._hops[sender_tile, tile[candidates]])
        keys += [density[candidates], pair[candidates]]
        return lexicographic_argmin(keys)

    # ------------------------------------------------------------------ #
    def execute(self, plan: RemapPlan) -> int:
        """Apply all planned remaps to the chip; returns the remap count.

        A task receiver means a weight *exchange* between the two pairs;
        an idle receiver means a one-way move (the sender pair becomes
        idle and available for later epochs).
        """
        for d in plan.decisions:
            if isinstance(d.receiver, IdleSlot):
                self.chip.move_task(
                    d.sender.mapping, d.sender.block, d.receiver.pair_id
                )
            else:
                self.chip.swap_tasks(
                    d.sender.mapping,
                    d.sender.block,
                    d.receiver.mapping,
                    d.receiver.block,
                )
        return plan.num_remaps
