"""Per-actor on-device object store (§4.1: "custom on-device object store
on each actor for storing sharded device buffers").

Tracks logical byte occupancy and its peak — the statistic behind the
paper's activation-memory claims (1F1B ∝ #stages vs GPipe ∝ #microbatches,
§5.3) — and implements the deferred-deletion protocol of §4.3.
"""

from __future__ import annotations

import dataclasses
from typing import Any

from repro.runtime.instructions import BufferRef

__all__ = ["Buffer", "ObjectStore", "fold_contributions"]


@dataclasses.dataclass
class Buffer:
    """One stored value.

    Attributes:
        value: the payload (NumPy array / list of per-device shards);
            ``None`` in simulation mode.
        nbytes: logical size used for memory accounting.
        pinned: inputs/weights that deletes must never reclaim.
        constant: a compile-time constant of the program about to run —
            the same value on every run, so a warm pool ships it once
            with the program instead of with every step.
    """

    value: Any
    nbytes: int
    pinned: bool = False
    constant: bool = False


class ObjectStore:
    """Buffer storage for one actor, with peak-memory tracking."""

    def __init__(self, actor_id: int):
        self.actor_id = actor_id
        self._buffers: dict[str, Buffer] = {}
        self.bytes_in_use = 0
        self.peak_bytes = 0
        # refs whose Delete arrived while a send was still outstanding (§4.3)
        self.pending_deletions: list[BufferRef] = []

    def __contains__(self, ref: BufferRef) -> bool:
        return ref.uid in self._buffers

    def put(
        self, ref: BufferRef, value: Any, nbytes: int, pinned: bool = False,
        constant: bool = False,
    ) -> None:
        """Store a buffer; replacing an existing uid is a compiler bug."""
        if ref.uid in self._buffers:
            raise KeyError(f"actor {self.actor_id}: buffer {ref} already exists")
        self._buffers[ref.uid] = Buffer(value, int(nbytes), pinned, constant)
        self.bytes_in_use += int(nbytes)
        self.peak_bytes = max(self.peak_bytes, self.bytes_in_use)

    def get(self, ref: BufferRef) -> Buffer:
        """Look up a live buffer; missing uid means a use-after-free or a
        scheduling bug, so fail loudly."""
        try:
            return self._buffers[ref.uid]
        except KeyError:
            raise KeyError(
                f"actor {self.actor_id}: buffer {ref} is not live "
                "(deleted too early or never produced)"
            ) from None

    def update(self, ref: BufferRef, value: Any, nbytes: int | None = None) -> None:
        """Replace the payload of a live buffer (accumulators, collectives)."""
        buf = self.get(ref)
        buf.value = value
        if nbytes is not None:
            self.bytes_in_use += int(nbytes) - buf.nbytes
            buf.nbytes = int(nbytes)
            self.peak_bytes = max(self.peak_bytes, self.bytes_in_use)

    def accumulate(self, acc: BufferRef, value: BufferRef, delete_value: bool) -> bool:
        """The ``Accumulate`` instruction's effect: ``acc += value``, or
        ``acc = value`` when ``acc`` is not live yet (returns True — a
        buffer was created); ``value`` is freed on request."""
        vbuf = self.get(value)
        created = acc.uid not in self._buffers
        if created:
            self.put(acc, vbuf.value, vbuf.nbytes)
        else:
            abuf = self._buffers[acc.uid]
            if abuf.value is not None and vbuf.value is not None:
                abuf.value = abuf.value + vbuf.value
        if delete_value:
            self.delete(value)
        return created

    def delete(self, ref: BufferRef) -> None:
        """Free a buffer immediately."""
        buf = self.get(ref)
        if buf.pinned:
            raise ValueError(f"actor {self.actor_id}: attempted to delete pinned {ref}")
        del self._buffers[ref.uid]
        self.bytes_in_use -= buf.nbytes

    def live_refs(self) -> list[str]:
        """Uids of all live buffers (diagnostics)."""
        return sorted(self._buffers)


def fold_contributions(values: list) -> Any:
    """The ``AllReduce`` instruction's reduction: ``values`` (one per
    participant, in sorted-rank order) summed left to right, or ``None``
    when any participant holds no payload (simulation mode).  Every
    engine folds through here, which is what keeps them bit-identical."""
    if any(v is None for v in values):
        return None
    total = values[0]
    for v in values[1:]:
        total = total + v
    return total
