"""Shared pieces of the workloads: the op record, the base class and encoding."""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass, field
from typing import Callable

import numpy as np


@dataclass
class Op:
    """One top-level operation: the timed call, its check and its digest bytes.

    ``run`` performs the library calls and returns their outputs; ``check``
    raises ``oracles.CheckFailed`` on a wrong output and ``encode`` turns the
    output into the bytes hashed into the run digest. Neither is timed.
    """

    kind: str
    run: Callable[[], object]
    check: Callable[[object], None]
    encode: Callable[[object], bytes]
    info: dict = field(default_factory=dict)


class Workload:
    """Base class: seeded generation, warm-up and per-layer observations.

    Subclasses build their set-up inputs in ``__init__`` and return the ops of
    block ``index`` from ``block``; the same seed and index give the same ops.
    """

    name = ""

    def __init__(self, ro, seed: int, workdir, smoke: bool) -> None:
        self.ro = ro
        self.seed = seed
        self.workdir = workdir
        self.smoke = smoke
        #: Set by the traced pass: callbacks count their calls into ``counters``.
        self.counting = False
        self.counters: dict[str, int] = {}

    def rng(self, *stream) -> np.random.Generator:
        words = [self.seed] + [
            int.from_bytes(hashlib.sha256(str(s).encode()).digest()[:4], "little") for s in stream
        ]
        return np.random.default_rng(words)

    def warm_up(self) -> None:
        raise NotImplementedError

    def block(self, index: int) -> list[Op]:
        raise NotImplementedError

    def observe(self, op: Op, output, seconds: float) -> None:
        """Record per-layer facts about a traced op's output and time (not timed)."""

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics this workload measures from its own outputs."""
        return {}


def pack(parts) -> bytes:
    """Deterministic bytes for a list of numbers, strings, arrays and None."""
    out = bytearray()
    for part in parts:
        if part is None:
            out += b"N"
        elif isinstance(part, (bytes, bytearray)):
            out += b"B" + struct.pack("<q", len(part)) + part
        elif isinstance(part, str):
            data = part.encode()
            out += b"S" + struct.pack("<q", len(data)) + data
        elif isinstance(part, (bool, int, np.integer)):
            out += b"I" + struct.pack("<q", int(part))
        elif isinstance(part, (float, np.floating)):
            out += b"F" + struct.pack("<d", float(part))
        else:
            arr = np.ascontiguousarray(part, dtype=float)
            out += b"A" + struct.pack("<q", arr.size) + arr.tobytes()
    return bytes(out)
