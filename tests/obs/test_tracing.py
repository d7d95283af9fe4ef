"""Causal frame-lifecycle tracing: span taxonomy, JSONL and Chrome export."""

import json

import pytest

from repro.attacks.dos import DosAttacker
from repro.bus.simulator import CanBusSimulator
from repro.can.frame import CanFrame
from repro.core.defense import MichiCanNode
from repro.errors import ConfigurationError
from repro.node.controller import CanNode
from repro.obs.tracing import (
    TRACE_KIND,
    TRACE_SCHEMA_VERSION,
    Span,
    TraceCollector,
    chrome_trace,
    read_trace,
    render_spans,
    write_chrome_trace,
    write_trace,
)


def quiet_sim():
    sim = CanBusSimulator()
    sim.add_nodes(CanNode("a"), CanNode("b"))
    return sim


def fight_sim():
    sim = CanBusSimulator()
    sim.add_node(MichiCanNode("defender", range(0x100)))
    sim.add_node(DosAttacker("attacker", 0x064))
    return sim


def spans_by_name(spans, name):
    return [span for span in spans if span.name == name]


class TestSpanTaxonomy:
    def test_transmitted_frame_with_queue_wait_and_arbitration(self):
        sim = quiet_sim()
        collector = TraceCollector(sim)
        sim.node("a").send(CanFrame(0x100, b"\x01"))
        sim.advance(200)
        spans = collector.finalize()

        (frame,) = spans_by_name(spans, "frame")
        assert frame.node == "a"
        assert frame.attrs["outcome"] == "transmitted"
        assert frame.attrs["can_id"] == 0x100
        assert frame.attrs["attempt"] == 1
        assert frame.parent_id is None
        assert frame.end > frame.begin

        (wait,) = spans_by_name(spans, "queue_wait")
        assert wait.parent_id == frame.span_id
        assert wait.begin == frame.attrs["enqueued_at"]
        assert wait.end == frame.begin

        (arb,) = spans_by_name(spans, "arbitration")
        assert arb.parent_id == frame.span_id
        assert arb.begin == frame.begin
        assert arb.end == arb.begin + 13  # SOF + 11 ID bits + RTR

    def test_arbitration_loss_closes_loser_with_bit_position(self):
        sim = quiet_sim()
        collector = TraceCollector(sim)
        sim.node("a").send(CanFrame(0x0FF, b"\x01"))
        sim.node("b").send(CanFrame(0x700, b"\x02"))  # loses arbitration
        sim.advance(400)
        spans = collector.finalize()

        frames = {span.node: span for span in spans_by_name(spans, "frame")
                  if span.attrs["attempt"] == 1}
        assert frames["b"].attrs["outcome"] == "arb-lost"
        assert frames["a"].attrs["outcome"] == "transmitted"
        lost = [span for span in spans_by_name(spans, "arbitration")
                if span.node == "b"][0]
        assert "lost_at_bit" in lost.attrs
        # The loser retries and eventually transmits.
        retries = [span for span in spans_by_name(spans, "frame")
                   if span.node == "b" and span.attrs["attempt"] > 1]
        assert retries and retries[-1].attrs["outcome"] == "transmitted"

    def test_detection_and_counterattack_attach_to_attacked_frame(self):
        sim = fight_sim()
        collector = TraceCollector(sim)
        sim.advance(300)
        spans = collector.finalize()

        detection = spans_by_name(spans, "detection")[0]
        counter = spans_by_name(spans, "counterattack")[0]
        attacked = [span for span in spans_by_name(spans, "frame")
                    if span.span_id == detection.parent_id][0]
        assert attacked.node == "attacker"
        assert detection.node == "defender"
        assert detection.begin == detection.end  # point span
        assert detection.attrs["target_id"] == 0x064
        assert counter.parent_id == attacked.span_id
        assert counter.end > counter.begin
        assert attacked.attrs["outcome"] == "error"

    def test_error_spans_and_busoff_episode(self):
        sim = fight_sim()
        attacker = sim.node("attacker")
        sim.advance_until(lambda s: attacker.is_bus_off, 20_000)
        # Collector attached late sees nothing; rebuild from scratch.
        sim = fight_sim()
        collector = TraceCollector(sim)
        attacker = sim.node("attacker")
        sim.advance_until(lambda s: attacker.is_bus_off, 20_000)
        spans = collector.finalize()

        errors = spans_by_name(spans, "error")
        assert errors
        tx_errors = [e for e in errors if e.attrs["as_transmitter"]]
        assert tx_errors and all(e.node == "attacker" for e in tx_errors)
        (busoff,) = spans_by_name(spans, "busoff")
        assert busoff.node == "attacker"
        assert busoff.attrs["tec"] >= 256
        # The fatal error closes the final attempt before bus-off entry.
        last_attempt = [span for span in spans_by_name(spans, "frame")
                        if span.node == "attacker"][-1]
        assert last_attempt.attrs["outcome"] == "error"
        assert busoff.begin >= last_attempt.end

    def test_finalize_marks_open_spans_and_is_idempotent(self):
        sim = quiet_sim()
        collector = TraceCollector(sim)
        sim.node("a").send(CanFrame(0x100, b"\x01" * 8))
        sim.advance(20)  # cut off mid-frame
        spans = collector.finalize()
        frame = spans_by_name(spans, "frame")[0]
        assert frame.attrs["outcome"] == "open"
        assert frame.attrs["open"] is True
        assert frame.end == sim.time
        assert collector.closed
        assert collector.finalize() == spans

    def test_collector_detaches_on_close(self):
        sim = quiet_sim()
        collector = TraceCollector(sim)
        collector.close()
        sim.node("a").send(CanFrame(0x100, b"\x01"))
        sim.advance(200)
        assert collector.spans == []


class TestEngineSpans:
    def test_engine_spans_recorded_separately(self):
        sim = quiet_sim()
        collector = TraceCollector(sim, include_engine_spans=True)
        sim.node("a").send(CanFrame(0x100, b"\x01"))
        sim.advance(2_000)
        spans = collector.finalize()
        assert sim.ff_stats.fast_bits > 0
        assert collector.engine_spans
        assert {span.name for span in collector.engine_spans} <= {
            "ff.body", "ff.idle"}
        # Lifecycle span ids are unaffected by the separate engine track.
        assert [span.span_id for span in spans] == list(
            range(1, len(spans) + 1))

    def test_replayed_rounds_recorded(self):
        sim = CanBusSimulator()
        sim.add_node(MichiCanNode("defender", range(0x100)))
        sim.add_node(DosAttacker("attacker", 0x064))
        collector = TraceCollector(sim, include_engine_spans=True)
        sim.advance(6_000)
        collector.finalize()
        rounds = [span for span in collector.engine_spans
                  if span.name == "ff.round"]
        assert rounds and len(rounds) == sim.ff_stats.round_spans

    def test_engine_spans_off_by_default(self):
        sim = quiet_sim()
        collector = TraceCollector(sim)
        sim.node("a").send(CanFrame(0x100, b"\x01"))
        sim.advance(2_000)
        collector.finalize()
        assert collector.engine_spans == []


class TestTraceIO:
    def run_spans(self):
        sim = fight_sim()
        collector = TraceCollector(sim)
        sim.advance(500)
        return collector.finalize(), sim

    def test_jsonl_round_trip(self, tmp_path):
        spans, _ = self.run_spans()
        path = tmp_path / "run.trace.jsonl"
        write_trace(spans, path, meta={"scenario": "fight"})
        header, loaded = read_trace(path)
        assert header["kind"] == TRACE_KIND
        assert header["schema_version"] == TRACE_SCHEMA_VERSION
        assert header["scenario"] == "fight"
        assert [span.to_dict() for span in loaded] == [
            span.to_dict() for span in spans]

    def test_read_rejects_wrong_kind_and_version(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps({"kind": "other"}) + "\n")
        with pytest.raises(ConfigurationError, match="not a trace"):
            read_trace(path)
        path.write_text(json.dumps(
            {"kind": TRACE_KIND, "schema_version": 999}) + "\n")
        with pytest.raises(ConfigurationError, match="schema version"):
            read_trace(path)
        path.write_text("")
        with pytest.raises(ConfigurationError, match="empty"):
            read_trace(path)

    def test_chrome_trace_structure(self):
        spans, sim = self.run_spans()
        payload = chrome_trace(spans, bus_speed=sim.bus_speed)
        events = payload["traceEvents"]
        names = {e["args"]["name"] for e in events
                 if e["ph"] == "M" and e["name"] == "thread_name"}
        assert {"attacker", "defender"} <= names
        complete = [e for e in events if e["ph"] == "X"]
        instants = [e for e in events if e["ph"] == "i"]
        assert complete and instants
        # Bit times scale to microseconds at the bus speed.
        frame = spans_by_name(spans, "frame")[0]
        matching = [e for e in complete
                    if e["args"]["span_id"] == frame.span_id][0]
        assert matching["ts"] == pytest.approx(
            frame.begin * 1e6 / sim.bus_speed)
        assert matching["args"]["parent_id"] is None
        assert payload["otherData"]["bus_speed"] == sim.bus_speed

    def test_write_chrome_trace_is_valid_json(self, tmp_path):
        spans, sim = self.run_spans()
        path = tmp_path / "run.chrome.json"
        write_chrome_trace(spans, path, bus_speed=sim.bus_speed)
        loaded = json.loads(path.read_text())
        assert loaded["traceEvents"]

    def test_render_spans(self):
        spans, _ = self.run_spans()
        text = render_spans(spans, limit=5)
        assert "frame" in text
        assert "more span(s)" in text
        assert render_spans([]) == "(no spans)"


def test_span_duration_and_from_dict():
    span = Span(span_id=1, name="frame", node="a", begin=10, end=25,
                attrs={"outcome": "transmitted"})
    assert span.duration == 15
    assert Span.from_dict(span.to_dict()) == span
    open_span = Span(span_id=2, name="busoff", node="b", begin=5)
    assert open_span.duration == 0
