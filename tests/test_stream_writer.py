"""Tests for the batched assignment-record writer."""

import json
import math

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.stream import AssignmentRecord, BatchWriter


def _record(task=0):
    return AssignmentRecord(
        time=1.5, worker_index=2, task_index=task, benefit=0.7, wait=0.5
    )


def _read_lines(path):
    with open(path) as handle:
        return [json.loads(line) for line in handle]


class TestBatching:
    def test_buffers_until_batch_fills(self, tmp_path):
        path = tmp_path / "records.jsonl"
        writer = BatchWriter(path, batch_size=3)
        writer.write(_record(0))
        writer.write(_record(1))
        assert writer.pending == 2
        assert not path.exists()
        writer.write(_record(2))
        assert writer.pending == 0
        assert writer.flushes == 1
        assert [r["task"] for r in _read_lines(path)] == [0, 1, 2]
        writer.close()

    def test_close_flushes_tail(self, tmp_path):
        path = tmp_path / "records.jsonl"
        writer = BatchWriter(path, batch_size=100)
        writer.write(_record(0))
        writer.close()
        assert writer.records_written == 1
        assert len(_read_lines(path)) == 1

    def test_context_manager_closes(self, tmp_path):
        path = tmp_path / "records.jsonl"
        with BatchWriter(path, batch_size=100) as writer:
            writer.write(_record(0))
        assert len(_read_lines(path)) == 1

    def test_flushes_are_appends(self, tmp_path):
        path = tmp_path / "records.jsonl"
        with BatchWriter(path, batch_size=2) as writer:
            for task in range(5):
                writer.write(_record(task))
        assert [r["task"] for r in _read_lines(path)] == [0, 1, 2, 3, 4]

    def test_record_round_trips_as_json(self, tmp_path):
        path = tmp_path / "records.jsonl"
        with BatchWriter(path, batch_size=1) as writer:
            writer.write(_record(4))
        (row,) = _read_lines(path)
        assert row == {
            "time": 1.5,
            "worker": 2,
            "task": 4,
            "benefit": 0.7,
            "wait": 0.5,
        }

    def test_empty_flush_writes_nothing(self, tmp_path):
        path = tmp_path / "records.jsonl"
        writer = BatchWriter(path)
        assert writer.flush() == 0
        writer.close()
        assert writer.flushes == 0
        assert not path.exists()


class TestValidation:
    def test_write_after_close_raises(self, tmp_path):
        writer = BatchWriter(tmp_path / "records.jsonl")
        writer.close()
        with pytest.raises(ValidationError):
            writer.write(_record())

    def test_bad_batch_size_raises(self, tmp_path):
        with pytest.raises(ValidationError):
            BatchWriter(tmp_path / "records.jsonl", batch_size=0)


#: Floats whose spelling is easy to get wrong: signed zero, the
#: smallest subnormal, the largest finite, and the non-finite values
#: json spells ``NaN``/``Infinity``/``-Infinity``.
_EDGE_FLOATS = (
    -0.0,
    5e-324,
    1.7976931348623157e308,
    math.nan,
    math.inf,
    -math.inf,
)


class TestEncoding:
    """Each line is byte-identical to ``json.dumps(record.to_dict())``."""

    @staticmethod
    def _written(tmp_path, records, batch_size=64):
        path = tmp_path / "records.jsonl"
        with BatchWriter(path, batch_size=batch_size) as writer:
            for record in records:
                writer.write(record)
        return path.read_text()

    @staticmethod
    def _expected(records):
        return "".join(json.dumps(r.to_dict()) + "\n" for r in records)

    def test_random_records(self, tmp_path):
        rng = np.random.default_rng(0)
        scales = 10.0 ** rng.integers(-12, 18, size=(500, 3))
        values = rng.standard_normal((500, 3)) * scales
        records = [
            AssignmentRecord(
                float(time), int(worker), int(task), float(benefit),
                float(wait),
            )
            for (time, benefit, wait), worker, task in zip(
                values.tolist(),
                rng.integers(0, 10**6, 500),
                rng.integers(0, 10**6, 500),
            )
        ]
        assert self._written(tmp_path, records) == self._expected(records)

    def test_edge_floats_in_every_field(self, tmp_path):
        records = [
            AssignmentRecord(value, 1, 2, 0.5, 0.25)
            for value in _EDGE_FLOATS
        ]
        records += [
            AssignmentRecord(1.0, 1, 2, value, 0.25)
            for value in _EDGE_FLOATS
        ]
        records += [
            AssignmentRecord(1.0, 1, 2, 0.5, value)
            for value in _EDGE_FLOATS
        ]
        records.append(AssignmentRecord(math.nan, 0, 0, math.inf, -math.inf))
        assert self._written(tmp_path, records, 4) == self._expected(
            records
        )

    def test_numpy_float64_fields(self, tmp_path):
        values = np.array([0.1, 1e-7, 1e16, 123456.789, -0.0, np.nan, np.inf])
        records = [
            AssignmentRecord(value, 3, 4, value * 3, value / 7)
            for value in values  # iterating yields np.float64 scalars
        ]
        assert all(type(r.time) is np.float64 for r in records)
        assert self._written(tmp_path, records) == self._expected(records)
