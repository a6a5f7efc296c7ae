package ofproto

import (
	"reflect"
	"testing"

	"ofmtl/internal/core"
	"ofmtl/internal/core/autotune"
	"ofmtl/internal/openflow"
)

// TestEndToEndStats runs a mixed-backend pipeline (mbt, tss, lineartcam
// and one auto table) behind a live server, with both cache tiers on,
// and checks that the one stats reply equals every core accessor it is
// built from — before and after a live migration between two polls.
func TestEndToEndStats(t *testing.T) {
	p := core.NewPipeline()
	cfgs := []core.TableConfig{
		{ID: 0, Fields: []openflow.FieldID{openflow.FieldVLANID}, Backend: core.BackendMBT},
		{ID: 1, Fields: []openflow.FieldID{openflow.FieldMetadata, openflow.FieldEthDst}, Backend: core.BackendTSS},
		{ID: 2, Fields: []openflow.FieldID{openflow.FieldInPort}, Backend: core.BackendLinearTCAM},
		{ID: 3, Fields: []openflow.FieldID{openflow.FieldIPv4Dst}, Backend: core.BackendAuto},
	}
	for _, cfg := range cfgs {
		if _, err := p.AddTable(cfg); err != nil {
			t.Fatal(err)
		}
	}
	p.SetCacheSize(256)
	p.SetMegaflowSize(256)
	addr, stop := startTestServer(t, p)
	defer stop()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()

	fms := []FlowMod{
		{Op: FlowAdd, Table: 0, Entry: openflow.FlowEntry{
			Priority: 1,
			Matches:  []openflow.Match{openflow.Exact(openflow.FieldVLANID, 7)},
			Instructions: []openflow.Instruction{
				openflow.WriteMetadata(7, ^uint64(0)), openflow.GotoTable(1),
			},
		}},
		{Op: FlowAdd, Table: 1, Entry: openflow.FlowEntry{
			Priority: 1,
			Matches: []openflow.Match{
				openflow.Exact(openflow.FieldMetadata, 7),
				openflow.Exact(openflow.FieldEthDst, 0xAABBCCDDEEFF),
			},
			Instructions: []openflow.Instruction{openflow.WriteActions(openflow.Output(3))},
		}},
		{Op: FlowAdd, Table: 2, Entry: openflow.FlowEntry{
			Priority:     2,
			Matches:      []openflow.Match{openflow.Exact(openflow.FieldInPort, 4)},
			Instructions: []openflow.Instruction{openflow.WriteActions(openflow.Drop())},
		}},
	}
	for i := 0; i < 64; i++ {
		fms = append(fms, FlowMod{Op: FlowAdd, Table: 3, Entry: openflow.FlowEntry{
			Priority:     24,
			Matches:      []openflow.Match{openflow.Prefix(openflow.FieldIPv4Dst, uint64(i)<<8, 24)},
			Instructions: []openflow.Instruction{openflow.WriteActions(openflow.Output(uint32(i) + 1))},
		}})
	}
	if _, err := c.SendFlowMods(fms); err != nil {
		t.Fatal(err)
	}
	if err := c.SendGroupMod(&GroupMod{Op: GroupModAdd, ID: 1, Type: core.GroupAll,
		Buckets: [][]openflow.Action{{openflow.Output(5)}}}); err != nil {
		t.Fatal(err)
	}
	// The same flow twice (microflow hit), then a new flow on the same
	// VLAN and MAC (microflow miss, megaflow hit). Three walks are far
	// below the 1-in-64 latency sampling period, so no table has a
	// latency sample and every EwmaNs is 0.
	for _, h := range []openflow.Header{
		{VLANID: 7, EthDst: 0xAABBCCDDEEFF, InPort: 1},
		{VLANID: 7, EthDst: 0xAABBCCDDEEFF, InPort: 1},
		{VLANID: 7, EthDst: 0xAABBCCDDEEFF, InPort: 2},
	} {
		if _, err := c.SendPacket(&h); err != nil {
			t.Fatal(err)
		}
	}

	checkMirrors := func() *Stats {
		t.Helper()
		st, err := c.Stats()
		if err != nil {
			t.Fatal(err)
		}
		report := p.MemoryReport()
		want := &Stats{
			Tables:     p.TableInfos(),
			MemoryBits: report.TotalBits,
			M20KBlocks: report.Blocks,
			Memory:     p.MemoryStats(),
			Cache:      p.CacheStats(),
			Megaflow:   p.MegaflowStats(),
			Pressure:   p.PressureStats(),
			Tx:         p.TxCounters(),
			Lifecycle:  p.LifecycleStats(),
			Advisor:    p.AdvisorStats(),
		}
		for _, info := range want.Tables {
			want.TotalRules += info.Rules
		}
		if !reflect.DeepEqual(st, want) {
			t.Fatalf("wire stats differ from the core accessors:\nwire: %+v\ncore: %+v", st, want)
		}
		if st.Memory.TotalBits != uint64(st.MemoryBits) {
			t.Errorf("per-backend total %d bits != MemoryReport total %d bits", st.Memory.TotalBits, st.MemoryBits)
		}
		return st
	}

	st := checkMirrors()
	if st.TotalRules != 67 || st.Lifecycle.Groups != 1 || st.Tx.Txs != 1 {
		t.Errorf("rules %d, groups %d, txs %d; want 67, 1, 1", st.TotalRules, st.Lifecycle.Groups, st.Tx.Txs)
	}
	var backends []string
	for _, tm := range st.Memory.Tables {
		backends = append(backends, tm.Backend)
	}
	if want := []string{"mbt", "tss", "lineartcam", "mbt"}; !reflect.DeepEqual(backends, want) {
		t.Errorf("backends over the wire = %v, want %v", backends, want)
	}
	if !reflect.DeepEqual(st.Tables[1].Fields, cfgs[1].Fields) {
		t.Errorf("table 1 fields over the wire = %v, want %v", st.Tables[1].Fields, cfgs[1].Fields)
	}
	if st.Cache.Hits != 1 || st.Megaflow.Hits != 1 || st.Megaflow.Masks != 1 {
		t.Errorf("cache counters did not move as scripted: micro %+v, mega %+v", st.Cache, st.Megaflow)
	}
	adv := st.Advisor.Tables
	if !adv[3].Auto || adv[0].Auto || len(adv[3].Candidates) != len(autotune.Schemes) {
		t.Errorf("advisor rows: %+v", adv)
	}
	for _, row := range adv {
		if row.EwmaNs != 0 {
			t.Errorf("table %d reports EwmaNs %v with no latency samples, want 0", row.Table, row.EwmaNs)
		}
	}

	// Force a live migration between polls; the next reply reflects it.
	p.SetAutotunePolicy(autotune.Policy{})
	if events := p.AutotuneOnce(); len(events) != 1 {
		t.Fatalf("advisor pass: %v, want one migration", events)
	}
	st = checkMirrors()
	row := st.Advisor.Tables[3]
	if st.Advisor.Migrations != 1 || row.Incumbent != core.BackendDIR24 || row.LastReason != "score" {
		t.Fatalf("post-migration advisor report %+v, want 1 migration of table 3 to dir24 (score)", st.Advisor)
	}
	if st.Memory.Tables[3].Backend != core.BackendDIR24 {
		t.Errorf("memory accounting still names %s after the migration", st.Memory.Tables[3].Backend)
	}
}

// roundTripStats encodes s as the stats reply and decodes it back.
func roundTripStats(t *testing.T, s *Stats) *Stats {
	t.Helper()
	payload, err := EncodeStats(s)
	if err != nil {
		t.Fatal(err)
	}
	out, err := DecodeStats(payload)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// rejectsMalformedStats checks that DecodeStats fails on every strict
// prefix of a good payload, on trailing garbage, and on each of the
// ill-typed payloads given.
func rejectsMalformedStats(t *testing.T, good *Stats, illTyped ...string) {
	t.Helper()
	payload, err := EncodeStats(good)
	if err != nil {
		t.Fatal(err)
	}
	bad := [][]byte{nil, append(append([]byte(nil), payload...), '}')}
	for _, n := range []int{1, len(payload) / 2, len(payload) - 1} {
		bad = append(bad, payload[:n])
	}
	for _, s := range illTyped {
		bad = append(bad, []byte(s))
	}
	for _, b := range bad {
		if _, err := DecodeStats(b); err == nil {
			t.Errorf("decode of malformed payload %q succeeded", b)
		}
	}
}

// TestMemoryStatsCodecRoundTrip pins the memory leg of the stats reply:
// encode → decode is lossless for every backend name and bit column,
// including values past 2^53.
func TestMemoryStatsCodecRoundTrip(t *testing.T) {
	in := &Stats{
		MemoryBits: 123456789,
		M20KBlocks: 7,
		Memory: core.MemoryStats{TotalBits: 123456789, BudgetBits: 1 << 33, Tables: []core.TableMemory{
			{Table: 0, Backend: core.BackendMBT, Rules: 507, BudgetBits: 1 << 41,
				BackendStats: core.BackendStats{SearchBits: 1<<60 + 1, IndexBits: 77, ActionBits: 24}},
			{Table: 3, Backend: core.BackendTSS, Rules: 1,
				BackendStats: core.BackendStats{IndexBits: 72, ActionBits: 32}},
			{Table: 9, Backend: core.BackendLinearTCAM},
			{Table: 11, Backend: core.BackendDIR24, Rules: 1 << 20,
				BackendStats: core.BackendStats{SearchBits: 1 << 29, IndexBits: 3 << 13, ActionBits: 1 << 25}},
		}},
	}
	if out := roundTripStats(t, in); !reflect.DeepEqual(in, out) {
		t.Errorf("round trip mismatch:\n in  %+v\n out %+v", in, out)
	}
}

// TestMemoryStatsCodecRejectsMalformed covers truncated payloads and
// ill-typed memory columns.
func TestMemoryStatsCodecRejectsMalformed(t *testing.T) {
	rejectsMalformedStats(t, &Stats{Memory: core.MemoryStats{
		TotalBits: 96, Tables: []core.TableMemory{{Table: 1, Backend: core.BackendMBT}},
	}},
		`{"memory":{"TotalBits":-1}}`,
		`{"memory":{"Tables":{}}}`,
		`{"memory":{"Tables":[{"Table":256}]}}`,
	)
}

// TestCacheStatsCodecRoundTrip pins the cache legs of the stats reply:
// encode → decode is lossless for every microflow, megaflow and
// pressure counter.
func TestCacheStatsCodecRoundTrip(t *testing.T) {
	in := &Stats{
		Cache:    core.CacheStats{Hits: 1 << 50, Misses: 12345, Entries: 1024},
		Megaflow: core.MegaflowStats{Hits: 99999999, Misses: 7, Entries: 1 << 14, Masks: 5},
		Pressure: core.PressureStats{Shrinks: 3, Regrows: 2, Level: 1},
	}
	if out := roundTripStats(t, in); !reflect.DeepEqual(in, out) {
		t.Errorf("round trip mismatch:\n in  %+v\n out %+v", in, out)
	}
}

// TestCacheStatsCodecRejectsMalformed covers truncated payloads and
// ill-typed cache counters.
func TestCacheStatsCodecRejectsMalformed(t *testing.T) {
	rejectsMalformedStats(t, &Stats{Cache: core.CacheStats{Hits: 1}},
		`{"cache":{"Hits":-1}}`,
		`{"cache":{"Hits":"1"}}`,
		`{"megaflow":{"Masks":1.5}}`,
		`{"pressure":[]}`,
	)
}

// TestAdvisorStatsCodecRoundTrip pins the advisor leg of the stats
// reply: encode → decode is lossless across flags, reasons, every
// candidate's eligibility and float64 score, and a zero EwmaNs.
func TestAdvisorStatsCodecRoundTrip(t *testing.T) {
	cands := func(scores ...float64) []core.AdvisorCandidate {
		var out []core.AdvisorCandidate
		for i, s := range scores {
			out = append(out, core.AdvisorCandidate{Backend: autotune.Schemes[i], Eligible: s != 0, Score: s})
		}
		return out
	}
	in := &Stats{Advisor: core.AdvisorStats{Migrations: 42, Failed: 7, Tables: []core.TableAdvisorStats{
		{Table: 0, Auto: true, Incumbent: core.BackendDIR24, LastReason: "score",
			Rules: 1 << 20, Masks: 3, EwmaNs: 83.25, MemBits: 537 << 20, Migrations: 2,
			Candidates: cands(2301.5, 940, 8441.25, 92.125)},
		{Table: 5, Incumbent: core.BackendTSS, LastReason: "none",
			Rules: 507, Masks: 65535, Ranges: 12, Wide: 507, MemBits: 123456,
			Candidates: cands(1, 2, 3, 0)},
		{Table: 9, Auto: true, Incumbent: core.BackendMBT, LastReason: "shape",
			Candidates: cands(1e300, 0.5, 0, 0)},
	}}}
	if len(autotune.Schemes) != 4 {
		t.Fatalf("test table assumes 4 schemes, autotune has %d", len(autotune.Schemes))
	}
	if out := roundTripStats(t, in); !reflect.DeepEqual(in, out) {
		t.Errorf("round trip mismatch:\n in  %+v\n out %+v", in, out)
	}
}

// TestAdvisorStatsCodecRejectsMalformed covers truncated payloads and
// ill-typed advisor rows.
func TestAdvisorStatsCodecRejectsMalformed(t *testing.T) {
	rejectsMalformedStats(t, &Stats{Advisor: core.AdvisorStats{
		Migrations: 1,
		Tables: []core.TableAdvisorStats{{Table: 1, Incumbent: core.BackendMBT, LastReason: "none",
			Candidates: []core.AdvisorCandidate{{Backend: core.BackendMBT, Eligible: true, Score: 1}}}},
	}},
		`{"advisor":{"Migrations":-1}}`,
		`{"advisor":{"Tables":[{"Auto":1}]}}`,
		`{"advisor":{"Tables":[{"EwmaNs":"NaN"}]}}`,
		`{"advisor":{"Tables":[{"Candidates":[{"Score":true}]}]}}`,
	)
}

// dialStats serves p on a test server and returns a connected client.
func dialStats(t *testing.T, p *core.Pipeline) *Client {
	t.Helper()
	addr, stop := startTestServer(t, p)
	t.Cleanup(stop)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c
}

// TestEndToEndMemoryStats checks that the memory leg of the stats reply
// equals the pipeline's own per-table accounting on a three-backend
// pipeline, and that its total agrees with MemoryReport.
func TestEndToEndMemoryStats(t *testing.T) {
	p := core.NewPipeline()
	for _, cfg := range []core.TableConfig{
		{ID: 0, Fields: []openflow.FieldID{openflow.FieldVLANID}, Backend: core.BackendMBT},
		{ID: 1, Fields: []openflow.FieldID{openflow.FieldMetadata, openflow.FieldEthDst}, Backend: core.BackendTSS},
		{ID: 2, Fields: []openflow.FieldID{openflow.FieldInPort}, Backend: core.BackendLinearTCAM},
	} {
		if _, err := p.AddTable(cfg); err != nil {
			t.Fatal(err)
		}
	}
	c := dialStats(t, p)
	if _, err := c.SendFlowMods([]FlowMod{
		{Op: FlowAdd, Table: 0, Entry: openflow.FlowEntry{
			Priority: 1,
			Matches:  []openflow.Match{openflow.Exact(openflow.FieldVLANID, 7)},
			Instructions: []openflow.Instruction{
				openflow.WriteMetadata(7, ^uint64(0)), openflow.GotoTable(1),
			},
		}},
		{Op: FlowAdd, Table: 1, Entry: openflow.FlowEntry{
			Priority: 1,
			Matches: []openflow.Match{
				openflow.Exact(openflow.FieldMetadata, 7),
				openflow.Exact(openflow.FieldEthDst, 0xAABBCCDDEEFF),
			},
			Instructions: []openflow.Instruction{openflow.WriteActions(openflow.Output(3))},
		}},
		{Op: FlowAdd, Table: 2, Entry: openflow.FlowEntry{
			Priority:     2,
			Matches:      []openflow.Match{openflow.Exact(openflow.FieldInPort, 4)},
			Instructions: []openflow.Instruction{openflow.WriteActions(openflow.Drop())},
		}},
	}); err != nil {
		t.Fatal(err)
	}

	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if want := p.MemoryStats(); !reflect.DeepEqual(st.Memory, want) {
		t.Fatalf("wire memory %+v, pipeline memory %+v", st.Memory, want)
	}
	report := p.MemoryReport()
	if st.MemoryBits != report.TotalBits || st.M20KBlocks != report.Blocks || st.Memory.TotalBits != uint64(report.TotalBits) {
		t.Errorf("wire totals %d bits / %d blocks / %d bits, MemoryReport %d bits / %d blocks",
			st.MemoryBits, st.M20KBlocks, st.Memory.TotalBits, report.TotalBits, report.Blocks)
	}
	var backends []string
	for _, tm := range st.Memory.Tables {
		backends = append(backends, tm.Backend)
	}
	if want := []string{"mbt", "tss", "lineartcam"}; !reflect.DeepEqual(backends, want) {
		t.Errorf("backends over the wire = %v, want %v", backends, want)
	}
}

// TestEndToEndCacheStats runs both cache tiers behind a live server and
// checks the cache legs of the stats reply track the pipeline's own
// counters.
func TestEndToEndCacheStats(t *testing.T) {
	p := core.NewPipeline()
	if _, err := p.AddTable(core.TableConfig{
		ID:     0,
		Fields: []openflow.FieldID{openflow.FieldIPv4Dst},
	}); err != nil {
		t.Fatal(err)
	}
	p.SetCacheSize(256)
	p.SetMegaflowSize(256)
	if _, err := p.Begin().Add(0, &openflow.FlowEntry{
		Priority:     1,
		Matches:      []openflow.Match{openflow.Prefix(openflow.FieldIPv4Dst, 0x0A000000, 8)},
		Instructions: []openflow.Instruction{openflow.WriteActions(openflow.Output(1))},
	}).Commit(); err != nil {
		t.Fatal(err)
	}
	// Same flow twice (microflow hit), then a new flow in the same /8
	// (microflow miss, megaflow hit).
	for _, h := range []openflow.Header{
		{IPv4Dst: 0x0A000001}, {IPv4Dst: 0x0A000001}, {IPv4Dst: 0x0A0000FE},
	} {
		h := h
		p.Execute(&h)
	}

	st, err := dialStats(t, p).Stats()
	if err != nil {
		t.Fatal(err)
	}
	if want := p.CacheStats(); st.Cache != want {
		t.Errorf("wire microflow %+v, pipeline %+v", st.Cache, want)
	}
	if want := p.MegaflowStats(); st.Megaflow != want {
		t.Errorf("wire megaflow %+v, pipeline %+v", st.Megaflow, want)
	}
	if want := p.PressureStats(); st.Pressure != want {
		t.Errorf("wire pressure %+v, pipeline %+v", st.Pressure, want)
	}
	if st.Cache.Hits != 1 || st.Megaflow.Hits != 1 || st.Megaflow.Masks != 1 {
		t.Errorf("counters did not move as scripted: micro %+v, mega %+v", st.Cache, st.Megaflow)
	}
}

// TestEndToEndAdvisorStats checks the advisor leg of the stats reply
// mirrors AdvisorStats for an auto and a pinned table, before and after
// a live migration between two polls.
func TestEndToEndAdvisorStats(t *testing.T) {
	p := core.NewPipeline()
	if _, err := p.AddTable(core.TableConfig{
		ID: 0, Fields: []openflow.FieldID{openflow.FieldIPv4Dst}, Backend: core.BackendAuto,
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := p.AddTable(core.TableConfig{
		ID: 1, Fields: []openflow.FieldID{openflow.FieldInPort}, Backend: core.BackendTSS,
	}); err != nil {
		t.Fatal(err)
	}
	c := dialStats(t, p)
	var fms []FlowMod
	for i := 0; i < 64; i++ {
		fms = append(fms, FlowMod{Op: FlowAdd, Table: 0, Entry: openflow.FlowEntry{
			Priority:     24,
			Matches:      []openflow.Match{openflow.Prefix(openflow.FieldIPv4Dst, uint64(i)<<8, 24)},
			Instructions: []openflow.Instruction{openflow.WriteActions(openflow.Output(uint32(i) + 1))},
		}})
	}
	if _, err := c.SendFlowMods(fms); err != nil {
		t.Fatal(err)
	}

	checkMirrors := func() core.AdvisorStats {
		t.Helper()
		st, err := c.Stats()
		if err != nil {
			t.Fatal(err)
		}
		if want := p.AdvisorStats(); !reflect.DeepEqual(st.Advisor, want) {
			t.Fatalf("wire report %+v, pipeline report %+v", st.Advisor, want)
		}
		return st.Advisor
	}

	rep := checkMirrors()
	if !rep.Tables[0].Auto || rep.Tables[0].Incumbent != core.BackendMBT {
		t.Fatalf("table 0 row %+v, want auto on mbt", rep.Tables[0])
	}
	if rep.Tables[1].Auto {
		t.Fatalf("table 1 row %+v, want pinned", rep.Tables[1])
	}

	// Force a live migration between polls; the next report reflects it.
	p.SetAutotunePolicy(autotune.Policy{})
	if events := p.AutotuneOnce(); len(events) != 1 {
		t.Fatalf("advisor pass: %v, want one migration", events)
	}
	rep = checkMirrors()
	if rep.Migrations != 1 || rep.Failed != 0 || rep.Tables[0].Incumbent != core.BackendDIR24 || rep.Tables[0].LastReason != "score" {
		t.Fatalf("post-migration report %+v, want 1 migration to dir24 (score)", rep)
	}
}
