"""Exporters: JSONL round-trip, Chrome trace validity."""

import json

import pytest

from repro.observe import (
    EventKind,
    Observer,
    check_chrome_trace,
    chrome_trace,
    jsonl_records,
    read_jsonl,
    write_chrome_trace,
    write_jsonl,
)


@pytest.fixture
def populated():
    obs = Observer()
    obs.emit(EventKind.RUN_BEGIN, path="fast")
    with obs.span("core.run", "cpu", cycle=0):
        obs.emit(
            EventKind.LOOP_DETECTED, cycle=10, loop_id="0x40", end_pc="0x60"
        )
    obs.emit(EventKind.RUN_END, cycles=500, instructions=400, path="fast")
    return obs


class TestJsonl:
    def test_records_interleaved_by_seq(self, populated):
        records = jsonl_records(populated)
        assert [r["type"] for r in records] == ["event", "span", "event", "event"]
        assert [r["seq"] for r in records] == sorted(r["seq"] for r in records)

    def test_file_round_trip(self, populated, tmp_path):
        path = write_jsonl(populated, tmp_path / "events.jsonl")
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 4
        for line in lines:
            json.loads(line)  # every line is standalone JSON
        assert read_jsonl(path) == jsonl_records(populated)


class TestChromeTrace:
    def test_emits_valid_trace(self, populated):
        payload = chrome_trace(populated)
        assert check_chrome_trace(payload) == []
        phases = {e["ph"] for e in payload["traceEvents"]}
        assert phases == {"M", "X", "i"}

    def test_span_slice_carries_cycles(self, populated):
        payload = chrome_trace(populated)
        (slice_,) = [e for e in payload["traceEvents"] if e["ph"] == "X"]
        assert slice_["name"] == "core.run"
        assert slice_["args"]["cycle_start"] == 0
        assert slice_["dur"] >= 0

    def test_instants_carry_event_payload(self, populated):
        payload = chrome_trace(populated)
        instants = {e["name"]: e for e in payload["traceEvents"] if e["ph"] == "i"}
        assert instants["loop_detected"]["args"]["loop_id"] == "0x40"
        assert instants["loop_detected"]["args"]["cycle"] == 10

    def test_written_file_is_loadable_json(self, populated, tmp_path):
        path = write_chrome_trace(populated, tmp_path / "run.trace.json")
        payload = json.loads(path.read_text())
        assert check_chrome_trace(payload) == []

    def test_checker_flags_malformed_traces(self):
        assert check_chrome_trace({"nope": 1})
        assert check_chrome_trace({"traceEvents": "not a list"})
        assert check_chrome_trace({"traceEvents": [{"ph": "Z", "name": "x"}]})
        # a complete event without dur is invalid
        bad = {"traceEvents": [{"ph": "X", "name": "x", "pid": 1, "ts": 0.0}]}
        assert any("dur" in p for p in check_chrome_trace(bad))

