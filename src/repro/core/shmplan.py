"""Zero-copy SolvePlan transport for relaxation worker pools.

``relax_compiled`` used to hand each pool worker the entire
:class:`~repro.core.compiled.SolvePlan` through pickle — graph, model,
resolution metadata and all — which made parallel relaxation a net loss:
serializing a 3x10^4-node plan costs more than the solves it distributes.
This module ships only what the per-FUB kernels actually read, and ships
it without copying where the platform allows:

* **Shared memory** (numpy available): every integer array a worker
  kernel touches — the fan-in/fan-out CSR, fixed/through/sink vectors,
  the FUB partition and the per-FUB topological schedules — plus a flat
  encoding of the interner's atom/set tables is packed into **one**
  ``multiprocessing.shared_memory`` segment. Workers receive a small
  :class:`PlanHandle` (a name and a layout table), attach, and index the
  arrays in place; nothing is unpickled per worker and the OS shares one
  physical copy across any worker count.
* **Slim pickle** (no numpy / no shm): a stripped plan carrying only the
  kernel fields still avoids shipping the graph, the model and the
  resolution metadata, which dominate the full plan's pickle cost.

Both transports record the **shared prefix**: the interner length at
export time. Master and workers agree bit-for-bit on every set id below
the prefix, so relaxation boundary values and solved FUB sets travel as
plain integers whenever possible and as raw frozensets only for sets
minted after the snapshot (cold first iterations; warm re-solves ship
almost no sets at all).

Segment lifetime: the exporting process owns the segment and unlinks it
in ``export.close()`` (``relax_compiled`` calls this in its ``finally``,
after pool teardown); a ``weakref.finalize`` guard unlinks leaked
segments at garbage collection or interpreter exit even if the owner
errors before ``close``. Workers attach read-only-by-convention;
*spawned* workers additionally deregister their attachment from their
own ``resource_tracker`` (Python < 3.13 tracks every attach, and a
spawn child's private tracker would unlink the owner's segment when the
child exits). Forked workers share the owner's tracker, where the
duplicate registration is a harmless set re-add.
"""

from __future__ import annotations

import multiprocessing as _mp
import weakref
from dataclasses import dataclass

from repro.core.pavf import (
    Atom,
    BOUNDARY,
    CONST,
    CTRL,
    LOOP,
    READ,
    SetInterner,
    TOP_KIND,
    WRITE,
)
from repro.errors import SartError

try:  # pragma: no cover - numpy presence is environment-dependent
    import numpy as _np
except ImportError:  # pragma: no cover - exercised by the no-numpy CI job
    _np = None

try:
    from multiprocessing import resource_tracker as _resource_tracker
    from multiprocessing import shared_memory as _shared_memory
except ImportError:  # pragma: no cover - minimal platforms
    _resource_tracker = None
    _shared_memory = None

HAVE_SHM = _np is not None and _shared_memory is not None

# Stable atom-kind codes for the flat interner encoding.
_ATOM_KINDS = (READ, WRITE, CTRL, LOOP, BOUNDARY, CONST, TOP_KIND)
_KIND_CODE = {kind: code for code, kind in enumerate(_ATOM_KINDS)}

# Plan fields shipped verbatim as flat int64 arrays.
_FLAT_FIELDS = (
    "fanin_ptr",
    "fanin_ix",
    "fanout_ptr",
    "fanout_ix",
    "fwd_fixed",
    "through",
    "sink",
    "fub_of",
)


@dataclass(frozen=True)
class PlanHandle:
    """Everything a worker needs to attach to an exported plan.

    ``layout`` maps each field name to ``(offset, count)`` in int64 units
    within the segment's leading numeric region; the atom-name blob
    follows at ``blob_offset`` bytes.
    """

    shm_name: str
    n: int
    layout: tuple[tuple[str, int, int], ...]
    blob_offset: int
    blob_length: int
    shared_prefix: int


class _CsrRows:
    """List-of-lists view over a CSR (ptr, ix) pair, materialized lazily.

    The per-FUB schedules are the kernels' hot iteration orders; a worker
    converts only the rows of the FUBs it actually solves to plain lists
    (fast Python-int iteration) and caches them for the pool's lifetime.
    """

    __slots__ = ("_ptr", "_ix", "_rows")

    def __init__(self, ptr, ix) -> None:
        self._ptr = ptr
        self._ix = ix
        self._rows: dict[int, list[int]] = {}

    def __len__(self) -> int:
        return len(self._ptr) - 1

    def __getitem__(self, row: int) -> list[int]:
        cached = self._rows.get(row)
        if cached is None:
            lo, hi = int(self._ptr[row]), int(self._ptr[row + 1])
            seg = self._ix[lo:hi]
            cached = self._rows[row] = (
                seg.tolist() if hasattr(seg, "tolist") else list(seg)
            )
        return cached


def _flatten(rows) -> tuple[list[int], list[int]]:
    ptr = [0]
    ix: list[int] = []
    for row in rows:
        ix.extend(row)
        ptr.append(len(ix))
    return ptr, ix


def _encode_interner(interner: SetInterner):
    """Flatten the interner into (set CSR, atom columns, name blob).

    Set members are shipped as the interner's own atom ids; the atom
    columns are its atom table, in id order.
    """
    set_ptr, set_aix = _flatten(interner.members)
    atom_kind: list[int] = []
    atom_bit: list[int] = []
    atom_name_ptr = [0]
    blob = bytearray()
    for atom in interner.atoms:
        atom_kind.append(_KIND_CODE[atom.kind])
        atom_bit.append(atom.bit)
        blob += atom.name.encode("utf-8")
        atom_name_ptr.append(len(blob))
    return set_ptr, set_aix, atom_kind, atom_bit, atom_name_ptr, bytes(blob)


def _decode_interner(
    set_ptr, set_aix, atom_kind, atom_bit, atom_name_ptr, blob: bytes
) -> SetInterner:
    atoms = []
    for i in range(len(atom_kind)):
        lo, hi = atom_name_ptr[i], atom_name_ptr[i + 1]
        atoms.append(
            Atom(_ATOM_KINDS[atom_kind[i]], blob[lo:hi].decode("utf-8"), atom_bit[i])
        )
    interner = SetInterner()
    interner.register(atoms)  # one ranking pass, not one per new atom
    for sid in range(2, len(set_ptr) - 1):  # 0/1 are always EMPTY/TOP
        members = frozenset(atoms[a] for a in set_aix[set_ptr[sid] : set_ptr[sid + 1]])
        assigned = interner.id_of(members)
        if assigned != sid:
            raise SartError(
                f"corrupt shared plan: set {sid} decoded to id {assigned}"
            )
    return interner


def _plan_fields(plan) -> tuple[dict, bytes]:
    """All numeric arrays to pack, in a fixed field order, plus the blob."""
    fub_forder_ptr, fub_forder_ix = _flatten(plan.fub_forder)
    fub_border_ptr, fub_border_ix = _flatten(plan.fub_border)
    set_ptr, set_aix, atom_kind, atom_bit, atom_name_ptr, blob = _encode_interner(
        plan.interner
    )
    fields = {key: getattr(plan, key) for key in _FLAT_FIELDS}
    fields.update(
        fub_forder_ptr=fub_forder_ptr,
        fub_forder_ix=fub_forder_ix,
        fub_border_ptr=fub_border_ptr,
        fub_border_ix=fub_border_ix,
        set_ptr=set_ptr,
        set_aix=set_aix,
        atom_kind=atom_kind,
        atom_bit=atom_bit,
        atom_name_ptr=atom_name_ptr,
    )
    return fields, blob


def _destroy_segment(shm) -> None:
    try:
        shm.close()
    except BufferError:  # pragma: no cover - a live view pins the mapping
        pass
    try:
        shm.unlink()
    except FileNotFoundError:  # pragma: no cover - already unlinked
        pass


class _ShmExport:
    """Owner side of a plan exported into one shared-memory segment."""

    mode = "shm"

    def __init__(self, plan) -> None:
        fields, blob = _plan_fields(plan)
        layout = []
        offset = 0
        for key, values in fields.items():
            layout.append((key, offset, len(values)))
            offset += len(values)
        blob_offset = offset * 8
        shm = _shared_memory.SharedMemory(
            create=True, size=max(1, blob_offset + len(blob))
        )
        try:
            ints = _np.ndarray((offset,), dtype=_np.int64, buffer=shm.buf)
            for key, off, count in layout:
                if count:
                    ints[off : off + count] = _np.asarray(fields[key], dtype=_np.int64)
            del ints  # release the view so close() can unmap
            if blob:
                shm.buf[blob_offset : blob_offset + len(blob)] = blob
        except BaseException:
            _destroy_segment(shm)
            raise
        self.shared_prefix = len(plan.interner)
        self.segment_name = shm.name
        self.payload = (
            "shm",
            PlanHandle(
                shm_name=shm.name,
                n=plan.n,
                layout=tuple(layout),
                blob_offset=blob_offset,
                blob_length=len(blob),
                shared_prefix=self.shared_prefix,
            ),
        )
        self._shm = shm
        # Safety net: unlink at GC / interpreter exit if close() never ran.
        self._finalizer = weakref.finalize(self, _destroy_segment, shm)

    def close(self) -> None:
        self._finalizer()  # idempotent: runs _destroy_segment at most once


class _PickleExport:
    """Fallback transport: a slim plan carrying only the kernel fields."""

    mode = "pickle"

    def __init__(self, plan) -> None:
        from repro.core.compiled import SolvePlan

        slim = SolvePlan.__new__(SolvePlan)
        slim.n = plan.n
        slim.interner = plan.interner
        slim.fub_forder = plan.fub_forder
        slim.fub_border = plan.fub_border
        for key in _FLAT_FIELDS:
            setattr(slim, key, getattr(plan, key))
        slim._union_memo = {}
        slim._mono_cache = {}
        slim._partition = None
        self.shared_prefix = len(plan.interner)
        self.segment_name = None
        self.payload = ("pickle", slim, self.shared_prefix)

    def close(self) -> None:
        pass


def export_plan(plan):
    """Package *plan* for pool workers; shared memory when available."""
    if HAVE_SHM:
        return _ShmExport(plan)
    return _PickleExport(plan)


def _attach(handle: PlanHandle):
    """Worker side: build a kernel-capable plan over the shared segment."""
    from repro.core.compiled import SolvePlan

    if not HAVE_SHM:  # pragma: no cover - master had shm, worker must too
        raise SartError("cannot attach shared plan without numpy/shared_memory")
    shm = _shared_memory.SharedMemory(name=handle.shm_name)
    if (
        _resource_tracker is not None
        and _mp.get_start_method(allow_none=True) == "spawn"
    ):
        try:
            # Python < 3.13 registers every attach for cleanup. A spawn
            # child runs its own tracker, which would unlink the owner's
            # segment when the child exits; fork children (and in-process
            # attaches) share the owner's tracker, where the duplicate
            # registration is an idempotent set re-add and unregistering
            # would strip the owner's entry instead.
            _resource_tracker.unregister(shm._name, "shared_memory")
        except Exception:  # pragma: no cover - tracker internals vary
            pass
    total = handle.blob_offset // 8
    ints = _np.ndarray((total,), dtype=_np.int64, buffer=shm.buf)
    arrays = {key: ints[off : off + count] for key, off, count in handle.layout}
    blob = bytes(
        shm.buf[handle.blob_offset : handle.blob_offset + handle.blob_length]
    )
    interner = _decode_interner(
        arrays["set_ptr"].tolist(),
        arrays["set_aix"].tolist(),
        arrays["atom_kind"].tolist(),
        arrays["atom_bit"].tolist(),
        arrays["atom_name_ptr"].tolist(),
        blob,
    )
    plan = SolvePlan.__new__(SolvePlan)
    plan.n = handle.n
    plan.interner = interner
    for key in _FLAT_FIELDS:
        setattr(plan, key, arrays[key])
    plan.fub_forder = _CsrRows(arrays["fub_forder_ptr"], arrays["fub_forder_ix"])
    plan.fub_border = _CsrRows(arrays["fub_border_ptr"], arrays["fub_border_ix"])
    plan._union_memo = {}
    plan._mono_cache = {}
    plan._partition = None
    plan._shared_prefix = handle.shared_prefix
    plan._shm_segment = shm  # keep the mapping alive for the worker's life
    return plan


def adopt_payload(payload):
    """Materialize whatever :func:`export_plan` produced (worker side).

    Also accepts a bare :class:`~repro.core.compiled.SolvePlan` for
    backward compatibility with callers that still pickle whole plans.
    """
    if isinstance(payload, tuple) and payload:
        if payload[0] == "shm":
            return _attach(payload[1])
        if payload[0] == "pickle":
            plan = payload[1]
            plan._shared_prefix = payload[2]
            return plan
    plan = payload
    plan._shared_prefix = len(plan.interner)
    return plan
