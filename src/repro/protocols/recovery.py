"""Recovery-line computation for uncoordinated checkpoints (paper §III-B).

Paper Algorithm 1 (rollback propagation over the checkpoint graph of
[47]) computed as a fixpoint over the checkpointed channel counters.

A line assigns each instance a checkpoint index; index 0 is the initial
checkpoint every instance stores at t=0 with all counters 0. The line is
consistent when no message is an orphan, i.e. on every channel i->j the
receiver's ``last_recv`` at its line checkpoint is at most the sender's
``last_sent`` at its line checkpoint.

Why one rule per channel is exact:

- Every checkpoint-graph edge follows happens-before (a message sent after
  ``c_{i,x}`` is processed before ``c_{j,y}``), so the graph is acyclic
  and no checkpoint is marked through itself.
- The consecutive edges ``c_{j,y} -> c_{j,y+1}`` make the marked
  checkpoints of each instance a suffix, and the target of an orphan edge
  is monotone in the sender's index, because both counters are monotone
  in the checkpoint index.
- Algorithm 1 therefore moves j's root to the latest y with
  ``last_recv[y] <= last_sent`` of i's root, for every channel i->j, until
  no root moves. Consistent lines are closed under componentwise max, so
  this greatest fixpoint is the unique maximal consistent line.

When a root moves back only its out-channels need rechecking, so the work
is O(channels + moves x out-degree). Initial checkpoints have
``last_recv`` 0 on every channel, so no root moves below index 0.
"""
from __future__ import annotations

from typing import Dict, List

from repro.dataflow.messages import Channel, InstanceId
from repro.dataflow.state import CheckpointStore


def find_recovery_line(
    store: CheckpointStore,
    instances: List[InstanceId],
    out_channels: Dict[InstanceId, List[Channel]],
) -> Dict[InstanceId, int]:
    """The most recent consistent recovery line, as instance -> index.

    Channels to instances outside ``instances`` (external sinks, which
    never checkpoint) are ignored.
    """
    metas = {inst: [cp.meta for cp in store.checkpoints(inst)] for inst in instances}
    line = {inst: len(ms) - 1 for inst, ms in metas.items()}
    work = list(instances)  #: instances whose out-channels need checking
    while work:
        src = work.pop()
        sent = metas[src][line[src]].last_sent
        for ch in out_channels[src]:
            dst = (ch[2], ch[3])
            if dst not in line:
                continue
            upto = sent.get(ch, 0)
            ms = metas[dst]
            y = line[dst]
            while ms[y].last_recv.get(ch, 0) > upto:
                y -= 1
            if y < line[dst]:
                line[dst] = y
                work.append(dst)
    return line
