package baseline

import (
	"testing"

	"ofmtl/internal/filterset"
	"ofmtl/internal/openflow"
	"ofmtl/internal/xrand"
)

// referenceClassify is the ground truth: first (highest-priority) matching
// rule index.
func referenceClassify(rules []filterset.ACLRule, h *openflow.Header) (int, bool) {
	for i := range rules {
		if ruleMatches(&rules[i], h) {
			return i, true
		}
	}
	return 0, false
}

// probeHeaders draws a mix of rule-derived and random headers.
func probeHeaders(rng *xrand.Source, rules []filterset.ACLRule, n int) []openflow.Header {
	out := make([]openflow.Header, 0, n)
	for i := 0; i < n; i++ {
		var h openflow.Header
		if rng.Float64() < 0.7 && len(rules) > 0 {
			r := rules[rng.Intn(len(rules))]
			keepS := uint32(0)
			if r.SrcLen > 0 {
				keepS = ^uint32(0) << (32 - r.SrcLen)
			}
			keepD := uint32(0)
			if r.DstLen > 0 {
				keepD = ^uint32(0) << (32 - r.DstLen)
			}
			h = openflow.Header{
				IPv4Src: (r.SrcIP & keepS) | (rng.Uint32() &^ keepS),
				IPv4Dst: (r.DstIP & keepD) | (rng.Uint32() &^ keepD),
				SrcPort: r.SrcPortLo + uint16(rng.Intn(int(r.SrcPortHi-r.SrcPortLo)+1)),
				DstPort: r.DstPortLo + uint16(rng.Intn(int(r.DstPortHi-r.DstPortLo)+1)),
				IPProto: r.Proto,
			}
			if r.ProtoAny {
				h.IPProto = uint8([]int{1, 6, 17}[rng.Intn(3)])
			}
		} else {
			h = openflow.Header{
				IPv4Src: rng.Uint32(), IPv4Dst: rng.Uint32(),
				SrcPort: uint16(rng.Intn(65536)), DstPort: uint16(rng.Intn(65536)),
				IPProto: uint8([]int{1, 6, 17, 47}[rng.Intn(4)]),
			}
		}
		out = append(out, h)
	}
	return out
}

// TestAllBaselinesMatchReference verifies every algorithm classifies
// identically to the brute-force reference.
func TestAllBaselinesMatchReference(t *testing.T) {
	f := filterset.GenerateACL("bl", 400, filterset.DefaultSeed)
	rng := xrand.New(11)
	probes := probeHeaders(rng, f.Rules, 1500)
	for _, c := range All() {
		c := c
		t.Run(c.Name(), func(t *testing.T) {
			if err := c.Build(f.Rules); err != nil {
				t.Fatalf("build: %v", err)
			}
			hits := 0
			for i := range probes {
				h := probes[i]
				got, gotOK := c.Classify(&h)
				want, wantOK := referenceClassify(f.Rules, &h)
				if gotOK != wantOK {
					t.Fatalf("probe %d: match %v, reference %v", i, gotOK, wantOK)
				}
				if gotOK {
					hits++
					if got != want {
						t.Fatalf("probe %d: rule %d, reference %d", i, got, want)
					}
				}
			}
			if hits == 0 {
				t.Error("no probe hit any rule")
			}
		})
	}
}

func TestMetricsSanity(t *testing.T) {
	f := filterset.GenerateACL("metrics", 400, filterset.DefaultSeed)
	h := openflow.Header{IPv4Src: 1, IPv4Dst: 2, SrcPort: 3, DstPort: 4, IPProto: 6}
	for _, c := range All() {
		if err := c.Build(f.Rules); err != nil {
			t.Fatalf("%s: %v", c.Name(), err)
		}
		if c.MemoryBits() <= 0 {
			t.Errorf("%s: non-positive memory", c.Name())
		}
		c.Classify(&h)
		if c.LookupCost() <= 0 {
			t.Errorf("%s: non-positive lookup cost", c.Name())
		}
		if c.UpdateCost() <= 0 {
			t.Errorf("%s: non-positive update cost", c.Name())
		}
	}
}

// TestTableIShape asserts the qualitative trade-offs of Table I hold in
// the measurements.
func TestTableIShape(t *testing.T) {
	f := filterset.GenerateACL("shape", 350, filterset.DefaultSeed)
	byName := map[string]Classifier{}
	for _, c := range All() {
		if err := c.Build(f.Rules); err != nil {
			t.Fatalf("%s: %v", c.Name(), err)
		}
		byName[c.Name()] = c
	}
	rng := xrand.New(42)
	probes := probeHeaders(rng, f.Rules, 500)
	avgLookup := func(c Classifier) float64 {
		total := 0
		for i := range probes {
			h := probes[i]
			c.Classify(&h)
			total += c.LookupCost()
		}
		return float64(total) / float64(len(probes))
	}

	// Hardware-based: very fast lookup (single access), but update pays
	// for priority reordering.
	if got := avgLookup(byName["tcam"]); got != 1 {
		t.Errorf("TCAM lookup cost = %v accesses, want 1", got)
	}
	if byName["tcam"].UpdateCost() <= byName["tss"].UpdateCost() {
		t.Error("TCAM update should cost more than hashing update")
	}
	// TCAM range expansion inflates entries beyond the rule count.
	if tc := byName["tcam"].(*Live); tc.Entries() <= 600 {
		t.Errorf("TCAM entries = %d, expansion should exceed rule count", tc.Entries())
	}
	// Decomposition: fast fixed-pipeline lookup, huge memory and rebuild
	// update.
	rfcLookup := avgLookup(byName["rfc"])
	linLookup := avgLookup(byName["linear"])
	if rfcLookup >= linLookup {
		t.Errorf("RFC lookup (%v) should beat linear scan (%v)", rfcLookup, linLookup)
	}
	if byName["rfc"].MemoryBits() <= byName["linear"].MemoryBits() {
		t.Error("RFC memory explosion should exceed linear storage")
	}
	if byName["rfc"].UpdateCost() <= byName["linear"].UpdateCost() {
		t.Error("RFC update should be complex (rebuild)")
	}
	// Trees: lookup far better than linear, memory pays replication.
	for _, name := range []string{"hypercuts", "hypersplit"} {
		if got := avgLookup(byName[name]); got >= linLookup/2 {
			t.Errorf("%s lookup (%v) should clearly beat linear (%v)", name, got, linLookup)
		}
	}
	// Hashing: cheap update.
	if byName["tss"].UpdateCost() != 1 {
		t.Errorf("TSS update cost = %d, want 1", byName["tss"].UpdateCost())
	}
}

func TestEmptyBuilds(t *testing.T) {
	for _, c := range All() {
		if err := c.Build(nil); err != nil {
			t.Errorf("%s: empty build should succeed: %v", c.Name(), err)
		}
		h := openflow.Header{}
		if _, ok := c.Classify(&h); ok {
			t.Errorf("%s: empty classifier matched something", c.Name())
		}
	}
}

func TestTreeReplicationBounded(t *testing.T) {
	f := filterset.GenerateACL("repl", 1000, filterset.DefaultSeed)
	hc := NewHyperCuts()
	if err := hc.Build(f.Rules); err != nil {
		t.Fatal(err)
	}
	if hc.StoredRefs() > 20*len(f.Rules) {
		t.Errorf("HyperCuts replication factor %d is runaway", hc.StoredRefs()/len(f.Rules))
	}
	hs := NewHyperSplit()
	if err := hs.Build(f.Rules); err != nil {
		t.Fatal(err)
	}
	if hs.StoredRefs() > 20*len(f.Rules) {
		t.Errorf("HyperSplit replication factor %d is runaway", hs.StoredRefs()/len(f.Rules))
	}
}
