package ofproto

import (
	"bytes"
	"reflect"
	"testing"

	"ofmtl/internal/core"
	"ofmtl/internal/openflow"
)

// FuzzDecodeFlowMod feeds arbitrary bytes to the flow-mod decoder: it
// must never panic, and whatever decodes must re-encode/decode to a fixed
// point (both through the heap path and the arena path).
func FuzzDecodeFlowMod(f *testing.F) {
	for _, fm := range sampleFlowMods() {
		fm := fm
		f.Add(EncodeFlowMod(&fm))
	}
	f.Add([]byte{})
	f.Add([]byte{1, 0})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, data []byte) {
		fm, err := DecodeFlowMod(data)
		if err != nil {
			return
		}
		buf := EncodeFlowMod(fm)
		fm2, err := DecodeFlowMod(buf)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if !reflect.DeepEqual(fm, fm2) {
			t.Fatal("flow-mod round trip not a fixed point")
		}
		// The arena decoder must agree with the heap decoder.
		var ar openflow.EntryArena
		batch, err := DecodeFlowModBatchArena(EncodeFlowModBatch([]FlowMod{*fm}), nil, &ar)
		if err != nil {
			t.Fatalf("arena decode of valid flow-mod failed: %v", err)
		}
		if len(batch) != 1 || !flowModsEquivalent(&batch[0], fm) {
			t.Fatal("arena decode disagrees with heap decode")
		}
	})
}

// flowModsEquivalent compares flow-mods, treating nil and empty slices as
// equal (the arena decoder materialises empty regions differently).
func flowModsEquivalent(a, b *FlowMod) bool {
	if a.Op != b.Op || a.Table != b.Table || a.CookieMask != b.CookieMask ||
		a.Entry.Priority != b.Entry.Priority || a.Entry.Cookie != b.Entry.Cookie ||
		len(a.Entry.Matches) != len(b.Entry.Matches) ||
		len(a.Entry.Instructions) != len(b.Entry.Instructions) {
		return false
	}
	for i := range a.Entry.Matches {
		if a.Entry.Matches[i] != b.Entry.Matches[i] {
			return false
		}
	}
	for i := range a.Entry.Instructions {
		x, y := a.Entry.Instructions[i], b.Entry.Instructions[i]
		if x.Type != y.Type || x.Table != y.Table || x.Metadata != y.Metadata ||
			x.MetadataMask != y.MetadataMask || len(x.Actions) != len(y.Actions) {
			return false
		}
		for j := range x.Actions {
			if x.Actions[j] != y.Actions[j] {
				return false
			}
		}
	}
	return true
}

// FuzzDecodeFlowModBatch fuzzes the batch decoder with a persistent arena
// to shake out cross-message state corruption.
func FuzzDecodeFlowModBatch(f *testing.F) {
	f.Add(EncodeFlowModBatch(sampleFlowMods()))
	f.Add(EncodeFlowModBatch(nil))
	f.Add([]byte{0, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		var ar openflow.EntryArena
		fms, err := DecodeFlowModBatchArena(data, nil, &ar)
		if err != nil {
			return
		}
		// Round trip through the encoder must be a fixed point.
		buf := EncodeFlowModBatch(fms)
		fms2, err := DecodeFlowModBatch(buf)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if len(fms) != len(fms2) {
			t.Fatal("batch round trip length mismatch")
		}
		for i := range fms {
			if !flowModsEquivalent(&fms[i], &fms2[i]) {
				t.Fatalf("batch round trip record %d mismatch", i)
			}
		}
	})
}

// FuzzDecodePacketBatch fuzzes the packet-batch arena decoder.
func FuzzDecodePacketBatch(f *testing.F) {
	f.Add(EncodePacketBatch([]*openflow.Header{
		{InPort: 1, VLANID: 10, EthDst: 0xAABBCCDDEEFF},
		{IPv4Src: 0x0A000001, IPv4Dst: 0x0A000002, SrcPort: 80, DstPort: 443},
	}))
	f.Add(EncodePacketBatch(nil))
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, data []byte) {
		var hs []*openflow.Header
		var arena []openflow.Header
		hs, arena, err := DecodePacketBatchArena(data, hs, arena)
		if err != nil {
			return
		}
		buf := EncodePacketBatch(hs)
		hs2, err := DecodePacketBatch(buf)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if len(hs) != len(hs2) {
			t.Fatal("packet batch length mismatch")
		}
		for i := range hs {
			if *hs[i] != *hs2[i] {
				t.Fatalf("packet %d round trip mismatch", i)
			}
		}
	})
}

// FuzzDecodeGroupMod feeds arbitrary bytes to the group-mod decoder, a
// server-side parser of controller-supplied bytes: it must never panic,
// and whatever decodes must re-encode/decode to a fixed point.
func FuzzDecodeGroupMod(f *testing.F) {
	f.Add(EncodeGroupMod(&GroupMod{
		Op: GroupModAdd, ID: 7, Type: core.GroupAll,
		Buckets: [][]openflow.Action{
			{openflow.Output(1), openflow.SetField(openflow.FieldVLANID, 9)},
			{openflow.Drop()},
			{},
		},
	}))
	f.Add(EncodeGroupMod(&GroupMod{Op: GroupModDelete, ID: 1}))
	f.Add([]byte{})
	f.Add([]byte{1, 0, 0, 0, 1, 1, 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, data []byte) {
		gm, err := DecodeGroupMod(data)
		if err != nil {
			return
		}
		buf := EncodeGroupMod(gm)
		gm2, err := DecodeGroupMod(buf)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if !reflect.DeepEqual(gm, gm2) {
			t.Fatalf("group-mod round trip not a fixed point: %+v vs %+v", gm, gm2)
		}
	})
}

// FuzzDecodeFlowStatsRequest feeds arbitrary bytes to the flow-stats
// request decoder (server side, controller-supplied bytes). The request
// is fixed-width, so whatever decodes must re-encode to the input.
func FuzzDecodeFlowStatsRequest(f *testing.F) {
	f.Add(EncodeFlowStatsRequest(&FlowStatsRequest{Table: 3, Cursor: 777, Max: 128, Cookie: 0xDEAD, CookieMask: 0xFFFF}))
	f.Add(EncodeFlowStatsRequest(&FlowStatsRequest{Table: AllTables}))
	f.Add([]byte{})
	f.Add(make([]byte, flowStatsRequestLen+1))
	f.Fuzz(func(t *testing.T, data []byte) {
		var r FlowStatsRequest
		if err := DecodeFlowStatsRequestInto(&r, data); err != nil {
			return
		}
		if buf := EncodeFlowStatsRequest(&r); !bytes.Equal(buf, data) {
			t.Fatalf("flow-stats request re-encodes to %x, input %x", buf, data)
		}
	})
}

// FuzzDecodePacket feeds arbitrary bytes to the single-packet decoder
// (server side, controller-supplied bytes): it must never panic, must
// reject trailing bytes, and whatever decodes must re-encode/decode to a
// fixed point.
func FuzzDecodePacket(f *testing.F) {
	f.Add(EncodePacket(&openflow.Header{InPort: 1, VLANID: 10, EthDst: 0xAABBCCDDEEFF}))
	f.Add(EncodePacket(&openflow.Header{IPv4Src: 0x0A000001, IPv4Dst: 0x0A000002, SrcPort: 80, DstPort: 443, IPProto: 6}))
	f.Add(append(EncodePacket(&openflow.Header{}), 0))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		h, err := DecodePacket(data)
		if err != nil {
			return
		}
		buf := EncodePacket(h)
		if len(buf) != len(data) {
			t.Fatalf("packet of %d bytes re-encodes to %d", len(data), len(buf))
		}
		h2, err := DecodePacket(buf)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if *h != *h2 {
			t.Fatalf("packet round trip not a fixed point: %+v vs %+v", h, h2)
		}
	})
}

// FuzzDecodeHello feeds arbitrary bytes to the hello decoder, the first
// parser a connecting peer reaches: exactly the encoder's bytes are
// accepted.
func FuzzDecodeHello(f *testing.F) {
	f.Add(EncodeHello())
	f.Add([]byte{})
	f.Add([]byte{ProtocolVersion - 1})
	f.Add(append(EncodeHello(), 0))
	f.Fuzz(func(t *testing.T, data []byte) {
		err := DecodeHello(data)
		if want := bytes.Equal(data, EncodeHello()); (err == nil) != want {
			t.Fatalf("DecodeHello(%x) = %v, want accepted=%v", data, err, want)
		}
	})
}

// FuzzDecodeAggregateStatsRequest feeds arbitrary bytes to the
// aggregate-stats request decoder (server side, controller-supplied
// bytes). The request is fixed-width, so whatever decodes must re-encode
// to the input.
func FuzzDecodeAggregateStatsRequest(f *testing.F) {
	f.Add(EncodeAggregateStatsRequest(&AggregateStatsRequest{Table: 3, Cookie: 0xDEAD, CookieMask: 0xFFFF}))
	f.Add(EncodeAggregateStatsRequest(&AggregateStatsRequest{Table: AllTables}))
	f.Add([]byte{})
	f.Add(make([]byte, aggregateStatsRequestLen+1))
	f.Fuzz(func(t *testing.T, data []byte) {
		var r AggregateStatsRequest
		if err := DecodeAggregateStatsRequestInto(&r, data); err != nil {
			return
		}
		if buf := EncodeAggregateStatsRequest(&r); !bytes.Equal(buf, data) {
			t.Fatalf("aggregate-stats request re-encodes to %x, input %x", buf, data)
		}
	})
}
