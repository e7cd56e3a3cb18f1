"""Bounded-batch persistence of emitted assignment records.

The dispatcher emits assignments one at a time; writing each record
individually would put a filesystem syscall inside the hot loop, while
buffering everything until the end would make a long-running service's
output invisible (and lose it all on a crash).  ``BatchWriter`` is the
standard middle ground: records buffer in memory and flush as one
append-mode JSONL write whenever the batch fills (and once at close).

Append-only JSONL is the deliberate format: each flush is a pure
suffix, so a reader never observes a half-rewritten file, and a crash
loses at most the unflushed tail — the same reasoning the obs
registry's index log uses.

Each line is one ``%`` template, byte-identical to
``json.dumps(record.to_dict())``: floats are spelled by ``float.__repr__``
as json spells them, then ``nan``/``inf`` become json's ``NaN``/``Infinity``
(no key contains either word, so a batch-wide replace touches only values).
"""

from __future__ import annotations

from pathlib import Path

from repro import obs
from repro.errors import ValidationError
from repro.stream.metrics import AssignmentRecord

#: One JSONL line; the keys and their order are ``to_dict``'s.
_LINE = '{"time": %s, "worker": %d, "task": %d, "benefit": %s, "wait": %s}\n'


class BatchWriter:
    """Flushes assignment records to a JSONL file in bounded batches."""

    def __init__(self, path: str | Path, batch_size: int = 256) -> None:
        if batch_size < 1:
            raise ValidationError(
                f"batch_size must be >= 1, got {batch_size}"
            )
        self.path = Path(path)
        self.batch_size = batch_size
        self._buffer: list[AssignmentRecord] = []
        self.records_written = 0
        self.flushes = 0
        self._closed = False

    # -- context manager ---------------------------------------------------

    def __enter__(self) -> "BatchWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- writing -----------------------------------------------------------

    def write(self, record: AssignmentRecord) -> None:
        """Buffer one record; flush when the batch is full."""
        if self._closed:
            raise ValidationError("writer is closed")
        self._buffer.append(record)
        if len(self._buffer) >= self.batch_size:
            self.flush()

    def flush(self) -> int:
        """Append all buffered records; returns how many were written."""
        if not self._buffer:
            return 0
        number = float.__repr__
        lines = "".join(
            [
                _LINE % (number(time), worker, task, number(benefit), number(wait))
                for time, worker, task, benefit, wait in self._buffer
            ]
        )
        if "nan" in lines or "inf" in lines:
            lines = lines.replace("nan", "NaN").replace("inf", "Infinity")
        with open(self.path, "a") as handle:
            handle.write(lines)
        written = len(self._buffer)
        self._buffer.clear()
        self.records_written += written
        self.flushes += 1
        obs.count("stream.writer.flushes")
        obs.count("stream.writer.records", written)
        return written

    def close(self) -> None:
        """Flush the tail and refuse further writes."""
        if not self._closed:
            self.flush()
            self._closed = True

    @property
    def pending(self) -> int:
        """Records buffered but not yet on disk."""
        return len(self._buffer)
