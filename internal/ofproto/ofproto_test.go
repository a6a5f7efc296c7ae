package ofproto

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"ofmtl/internal/core"
	"ofmtl/internal/openflow"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payload := []byte("hello world")
	if err := WriteMessage(&buf, MsgStatsReply, payload); err != nil {
		t.Fatal(err)
	}
	msg, err := ReadMessage(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if msg.Type != MsgStatsReply || !bytes.Equal(msg.Payload, payload) {
		t.Errorf("round trip = %v %q", msg.Type, msg.Payload)
	}
}

func TestFrameEmptyPayload(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteMessage(&buf, MsgBarrier, nil); err != nil {
		t.Fatal(err)
	}
	msg, err := ReadMessage(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if msg.Type != MsgBarrier || len(msg.Payload) != 0 {
		t.Errorf("empty payload round trip = %v %q", msg.Type, msg.Payload)
	}
}

func TestReadMessageTruncated(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteMessage(&buf, MsgHello, EncodeHello()); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	for cut := 0; cut < len(raw); cut++ {
		if _, err := ReadMessage(bytes.NewReader(raw[:cut])); err == nil {
			t.Fatalf("truncated read at %d should fail", cut)
		}
	}
}

func TestReadMessageBoundsLength(t *testing.T) {
	// A frame claiming 100 MB must be rejected before allocation.
	raw := []byte{0x06, 0x40, 0x00, 0x00}
	if _, err := ReadMessage(bytes.NewReader(raw)); err == nil {
		t.Error("oversized frame should be rejected")
	}
	raw = []byte{0, 0, 0, 0}
	if _, err := ReadMessage(bytes.NewReader(raw)); err == nil {
		t.Error("zero-length frame should be rejected")
	}
}

func TestHello(t *testing.T) {
	if err := DecodeHello(EncodeHello()); err != nil {
		t.Errorf("hello round trip: %v", err)
	}
	if err := DecodeHello([]byte{99}); err == nil {
		t.Error("wrong version should fail")
	}
	if err := DecodeHello(nil); err == nil {
		t.Error("empty hello should fail")
	}
}

func TestFlowModRoundTrip(t *testing.T) {
	fm := &FlowMod{
		Op:    FlowAdd,
		Table: 3,
		Entry: openflow.FlowEntry{
			Priority: 17,
			Matches:  []openflow.Match{openflow.Exact(openflow.FieldVLANID, 5)},
			Instructions: []openflow.Instruction{
				openflow.GotoTable(4),
				openflow.WriteActions(openflow.Output(2)),
			},
		},
	}
	got, err := DecodeFlowMod(EncodeFlowMod(fm))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fm, got) {
		t.Errorf("flow-mod round trip:\n in: %+v\nout: %+v", fm, got)
	}
	if _, err := DecodeFlowMod([]byte{9, 0}); err == nil {
		t.Error("unknown op should fail")
	}
	if _, err := DecodeFlowMod(nil); err == nil {
		t.Error("empty flow-mod should fail")
	}
	// Trailing garbage must be rejected.
	raw := append(EncodeFlowMod(fm), 0xFF)
	if _, err := DecodeFlowMod(raw); err == nil {
		t.Error("trailing bytes should fail")
	}
}

func TestPacketReplyRoundTrip(t *testing.T) {
	r := &PacketReply{Flags: ReplyMatched, Outputs: []uint32{1, 2, 77}}
	got, err := DecodePacketReply(EncodePacketReply(r))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r, got) {
		t.Errorf("packet-reply round trip: %+v != %+v", r, got)
	}
	if _, err := DecodePacketReply([]byte{1}); err == nil {
		t.Error("short reply should fail")
	}
}

func TestStatsRoundTrip(t *testing.T) {
	s := &Stats{
		Tables:     []core.TableInfo{{ID: 0, Fields: []openflow.FieldID{openflow.FieldVLANID}, Rules: 10}},
		TotalRules: 10,
		MemoryBits: 12345,
		M20KBlocks: 3,
		Memory: core.MemoryStats{TotalBits: 12345, BudgetBits: 1 << 20, Tables: []core.TableMemory{{
			Table: 0, Backend: core.BackendTSS, Rules: 10,
			BackendStats: core.BackendStats{SearchBits: 12000, IndexBits: 300, ActionBits: 45},
		}}},
		Megaflow: core.MegaflowStats{Hits: 7, Entries: 256, Masks: 2},
		Advisor: core.AdvisorStats{Migrations: 1, Tables: []core.TableAdvisorStats{{
			Table: 0, Auto: true, Incumbent: core.BackendTSS, Rules: 10, EwmaNs: 0, LastReason: "score",
			Candidates: []core.AdvisorCandidate{{Backend: core.BackendMBT, Eligible: true, Score: 83.25}},
		}}},
	}
	payload, err := EncodeStats(s)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeStats(payload)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s, got) {
		t.Errorf("stats round trip: %+v != %+v", s, got)
	}
	if _, err := DecodeStats([]byte("{")); err == nil {
		t.Error("malformed stats should fail")
	}
}

func TestErrorsAreErrors(t *testing.T) {
	if !errors.Is(openflow.ErrTruncated, openflow.ErrTruncated) {
		t.Error("sanity")
	}
	if len(EncodeError(errors.New("boom"))) == 0 {
		t.Error("empty error encoding")
	}
}
