"""Unit tests for the event records, schemas, and validators."""

import json
import re
from pathlib import Path

import numpy as np
import pytest

from repro.errors import ObservabilityError
from repro.obs import (
    EVENT_SCHEMAS,
    Event,
    snapshot_event,
    validate_event,
    validate_event_dict,
    validate_jsonl,
)
from repro.obs.events import default_level, jsonable


class TestEvent:
    def test_to_dict_shape(self):
        e = Event(name="heartbeat", t=12.5, level="info", fields={"seq": 1, "clock": 3})
        d = e.to_dict()
        assert d == {
            "name": "heartbeat",
            "t": 12.5,
            "level": "info",
            "fields": {"seq": 1, "clock": 3},
        }

    def test_to_dict_coerces_fields(self):
        e = Event(
            name="crash_batch",
            t=0.0,
            level="info",
            fields={"time": np.int64(4), "nodes": [(1, 2), (3, 4)]},
        )
        d = e.to_dict()
        assert d["fields"] == {"time": 4, "nodes": [[1, 2], [3, 4]]}
        json.dumps(d)  # must be serializable as-is

    def test_default_levels(self):
        assert default_level("node_flip") == "debug"
        assert default_level("message_dropped") == "debug"
        assert default_level("round_start") == "info"
        assert default_level("run_end") == "info"


class TestJsonable:
    def test_scalars_pass_through(self):
        assert jsonable(3) == 3
        assert jsonable("x") == "x"
        assert jsonable(None) is None
        assert jsonable(True) is True

    def test_containers(self):
        assert jsonable((1, 2)) == [1, 2]
        assert jsonable(frozenset({(1, 0), (0, 1)})) == [[0, 1], [1, 0]]
        assert jsonable({"k": (1, 2)}) == {"k": [1, 2]}

    def test_numpy_scalars(self):
        out = jsonable(np.float64(1.5))
        assert out == 1.5 and isinstance(out, float)

    def test_fallback_is_str(self):
        class Weird:
            def __repr__(self):
                return "weird"

        assert jsonable(Weird()) == "weird"


class TestValidation:
    def test_every_schema_name_validates(self):
        for name, required in EVENT_SCHEMAS.items():
            fields = {k: 0 for k in required}
            validate_event(Event(name=name, t=0.0, level="info", fields=fields))

    def test_unknown_name_rejected(self):
        with pytest.raises(ObservabilityError, match="unknown event name"):
            validate_event(Event(name="nope", t=0.0, level="info", fields={}))

    def test_missing_field_rejected(self):
        with pytest.raises(ObservabilityError, match="missing required fields"):
            validate_event(
                Event(name="heartbeat", t=0.0, level="info", fields={"seq": 1})
            )

    def test_extra_fields_allowed(self):
        validate_event(
            Event(
                name="heartbeat",
                t=0.0,
                level="info",
                fields={"seq": 1, "clock": 2, "engine": "sync"},
            )
        )

    def test_bad_level_rejected(self):
        with pytest.raises(ObservabilityError, match="invalid event level"):
            validate_event(
                Event(name="heartbeat", t=0.0, level="loud", fields={"seq": 1, "clock": 2})
            )

    def test_dict_missing_top_key(self):
        with pytest.raises(ObservabilityError, match="missing 'level'"):
            validate_event_dict({"name": "heartbeat", "t": 0.0, "fields": {}})

    def test_dict_non_numeric_timestamp(self):
        with pytest.raises(ObservabilityError, match="non-numeric"):
            validate_event_dict(
                {
                    "name": "heartbeat",
                    "t": "yesterday",
                    "level": "info",
                    "fields": {"seq": 1, "clock": 2},
                }
            )


class TestValidateJsonl:
    def _write(self, tmp_path, lines):
        p = tmp_path / "trace.jsonl"
        p.write_text("\n".join(lines) + "\n")
        return str(p)

    def _record(self, **over):
        rec = {
            "name": "heartbeat",
            "t": 1.0,
            "level": "info",
            "fields": {"seq": 1, "clock": 2},
        }
        rec.update(over)
        return json.dumps(rec)

    def test_counts_events(self, tmp_path):
        path = self._write(tmp_path, [self._record(), "", self._record()])
        assert validate_jsonl(path) == 2

    def test_reports_line_number(self, tmp_path):
        path = self._write(
            tmp_path, [self._record(), self._record(name="bogus")]
        )
        with pytest.raises(ObservabilityError, match=":2:"):
            validate_jsonl(path)

    def test_rejects_non_json(self, tmp_path):
        path = self._write(tmp_path, [self._record(), "{not json"])
        with pytest.raises(ObservabilityError, match="not JSON"):
            validate_jsonl(path)


class TestSnapshotEvent:
    def test_carries_raw_mapping(self):
        snap = {(0, 0): "unsafe", (1, 0): "safe"}
        e = snapshot_event(3, snap)
        assert e.name == "snapshot"
        assert e.level == "debug"
        assert e.fields["key"] == 3
        assert e.fields["snapshot"] == snap
        assert e.fields["snapshot"] is not snap  # defensive copy


#: The documentation page whose event table must match the schemas.
OBSERVABILITY_DOC = Path(__file__).resolve().parents[2] / "docs" / "observability.md"


def _documented_events():
    """Rows of the event table: {name: (level, required fields)}."""
    text = OBSERVABILITY_DOC.read_text(encoding="utf-8")
    header = "| event | level | required fields | emitted by |"
    lines = text[text.index(header) :].splitlines()[2:]
    rows = {}
    for line in lines:
        if not line.startswith("|"):
            break
        name, level, fields = (cell.strip() for cell in line.split("|")[1:4])
        rows[name.strip("`")] = (level, frozenset(re.findall(r"`(\w+)`", fields)))
    return rows


class TestDocumentedEvents:
    def test_table_lists_every_schema(self):
        assert set(_documented_events()) == set(EVENT_SCHEMAS)

    def test_required_fields_match_the_schema(self):
        for name, (_, fields) in _documented_events().items():
            assert fields == EVENT_SCHEMAS[name], name

    def test_levels_match_the_emitters(self):
        for name, (level, _) in _documented_events().items():
            want = (
                snapshot_event(0, {}).level
                if name == "snapshot"
                else default_level(name)
            )
            assert level == want, name
