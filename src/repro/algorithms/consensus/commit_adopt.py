"""Obstruction-free consensus from read/write registers.

The ``(1,1)``-freedom witness of Theorem 5.2: the paper cites [20, 17]
for the possibility of obstruction-free consensus from registers; this
module implements the classic construction from repeated *commit-adopt*
rounds (Gafni).

Each round ``r`` uses fresh register banks ``A[(r, 1, i)]`` and
``A[(r, 2, i)]`` in a register file:

* phase 1 — write your preference, read everyone's; if yours is the
  only preference visible, mark it a commit candidate;
* phase 2 — write ``(candidate?, preference)``, read everyone's; if all
  visible entries are commit candidates for the same value, **commit**
  it; if any entry is a candidate for ``w``, **adopt** ``w``; otherwise
  keep your own preference.

A committed value is written to a decision register ``D`` which every
process checks at the top of each round.  Commit-adopt's agreement
property (any committer forces all concurrent phase-2 readers onto its
value) plus the monotone decision register give agreement & validity;
a solo runner commits in its first round, giving obstruction freedom.

Under a two-process lockstep schedule with distinct proposals, both
processes see each other's preference in every phase, never produce a
candidate, keep their own values, and loop forever — the concrete
``(1,2)``-freedom exclusion witness of Theorem 5.2.

Lasso support: all operation-local state lives in ``memory`` (keys
``pc``, ``round``, ``pref``, ``j``, ``vals``, ``cand``) and
:meth:`liveness_abstraction` quotients away the round number.  The
quotient is a bisimulation because rounds interact only through
same-round registers and ``D``: shifting every round index (and
dropping register banks below everyone's current round, which no
process can ever read again) commutes with every transition.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, Optional, Tuple

from repro.base_objects.base import ObjectPool
from repro.base_objects.regfile import RegisterFile, RegisterFileState
from repro.base_objects.register import AtomicRegister
from repro.core.object_type import ObjectType
from repro.objects.consensus import consensus_object_type
from repro.sim.kernel import Algorithm, Implementation, Op
from repro.util.errors import SimulationError
from repro.util.freeze import freeze

#: Sentinel stored in untouched cells.
EMPTY = None


class CommitAdoptConsensus(Implementation):
    """Round-based obstruction-free consensus from registers only."""

    name = "commit-adopt-consensus"

    def __init__(self, n_processes: int, object_type: Optional[ObjectType] = None):
        super().__init__(object_type or consensus_object_type(), n_processes)

    def create_pool(self) -> ObjectPool:
        return ObjectPool(
            [
                RegisterFile("A", initial=EMPTY),
                AtomicRegister("D", initial=EMPTY),
            ]
        )

    def initial_memory(self, pid: int) -> Dict[str, Any]:
        return {"round": 0}

    def algorithm(
        self,
        pid: int,
        operation: str,
        args: Tuple[Any, ...],
        memory: Dict[str, Any],
    ) -> Algorithm:
        if operation != "propose" or len(args) != 1:
            raise SimulationError(
                f"consensus implementation supports propose(v); got "
                f"{operation}{args!r}"
            )
        return self._propose(pid, args[0], memory)

    def _propose(self, pid: int, proposal: Any, memory: Dict[str, Any]) -> Algorithm:
        memory["pref"] = proposal
        while True:
            memory["round"] += 1
            round_number = memory["round"]
            # Fast path: adopt a published decision.
            memory["pc"] = "check-D"
            decided = yield Op("D", "read")
            if decided is not EMPTY:
                return decided
            # Phase 1: publish preference, collect everyone's.  All
            # loop-carried state lives in ``memory`` (lasso contract).
            memory["pc"] = "phase1-write"
            yield Op("A", "write", ((round_number, 1, pid), memory["pref"]))
            memory["seen"] = ()
            for j in range(self.n_processes):
                memory["pc"] = ("phase1-read", j)
                value = yield Op("A", "read", ((round_number, 1, j),))
                if value is not EMPTY:
                    memory["seen"] = memory["seen"] + (value,)
            distinct = {freeze(v): v for v in memory["seen"]}
            candidate = len(distinct) == 1
            # Phase 2: publish (candidate?, pref); decide or adopt.
            memory["cand"] = candidate
            memory["pc"] = "phase2-write"
            yield Op(
                "A", "write", ((round_number, 2, pid), (candidate, memory["pref"]))
            )
            memory["entries"] = ()
            for j in range(self.n_processes):
                memory["pc"] = ("phase2-read", j)
                entry = yield Op("A", "read", ((round_number, 2, j),))
                if entry is not EMPTY:
                    memory["entries"] = memory["entries"] + (entry,)
            entries = memory["entries"]
            committed_value = None
            adopted_value = None
            if entries and all(flag for flag, _ in entries):
                values = {freeze(v): v for _, v in entries}
                if len(values) == 1:
                    committed_value = next(iter(values.values()))
            if committed_value is None:
                for flag, value in entries:
                    if flag:
                        adopted_value = value
                        break
            if committed_value is not None:
                memory["pc"] = "decide-write"
                yield Op("D", "write", (committed_value,))
                return committed_value
            if adopted_value is not None:
                memory["pref"] = adopted_value
            # else: keep own preference and retry.

    def liveness_abstraction(
        self, pool: ObjectPool, memories: Tuple[Dict[str, Any], ...]
    ) -> Optional[Hashable]:
        """Round-shift quotient (see module docstring for soundness).

        The shift base is the minimum round among *participants*
        (processes that have entered ``propose``); register banks below
        every participant's round are dropped.  Consensus is one-shot,
        so in any run whose driver has fixed its input set (all shipped
        batteries and adversaries), a process that has not proposed by
        now never will, and the dropped banks can never be read again —
        under that usage the quotient is a bisimulation.  The
        participant set itself is part of the abstraction, so runs in
        which it still grows cannot alias runs in which it is settled.
        """
        rounds = [m.get("round", 0) for m in memories]
        participant_rounds = [r for r in rounds if r >= 1]
        base = min(participant_rounds) if participant_rounds else 0
        registers = pool.state_of("A")
        assert isinstance(registers, RegisterFileState)
        live_cells = registers.cells_matching(lambda key: key[0] >= base)
        normalized_cells = tuple(
            sorted(
                (
                    ((key[0] - base, key[1], key[2]), freeze(value))
                    for key, value in live_cells.items()
                ),
                key=repr,
            )
        )
        decision = pool.state_of("D")
        normalized_memories = tuple(
            freeze(
                {
                    key: (
                        value - base
                        if key == "round" and value >= 1
                        else value
                    )
                    for key, value in memory.items()
                }
            )
            for memory in memories
        )
        return (normalized_cells, decision, normalized_memories)
