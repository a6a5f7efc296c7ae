// Command perfbench is the repository's end-to-end benchmark. It brings
// the switch up as `switchd -mac gozb -route coza` does, drives it from
// the same process over loopback TCP through ofproto.Client, checks every
// reply against a cache-less reference walk, and prints each metric by
// name and unit. The timed end-to-end metrics are scaled to a reference
// host speed by a memory-latency probe that runs between the measured
// windows (host.go); the raw figures are printed beside them. The last
// line of standard output is one JSON object: the end-to-end metrics
// with --trace 0, the per-layer ledger metrics with --trace 1.
//
// Run it from the repository root (run.sh builds it first):
//
//	bash perfbench/run.sh --workload hot_mac_zipf --seed 1 --seconds 30 --trace 0
//
// --trace 1 repeats the untraced run, then runs a traced one, half as
// long, whose SendPackets/SendFlowMods calls are spans, replays the
// batches that follow in the trace through each layer's public function
// and writes the spans and the ledger to --out.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"slices"
	"time"

	"ofmtl/internal/core"
	"ofmtl/internal/ofproto"
	"ofmtl/internal/openflow"
)

// config is one benchmark run. plant exists for the self-check's planted
// fault.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	out      string
	plant    bool // make one expected reply wrong
}

const (
	setups        = 3   // switch bring-ups; setup_s is their median
	idleCommits   = 200 // flow-mod batches timed after the packets; with 100, commit_p50_ms spread 0.3 between runs on a 2-vCPU VM
	warmTime      = time.Second
	replayBatches = 256 // batches replayed through each layer
	layerReps     = 64  // repetitions of the isolated flow-mod codec and commit timings
)

type metric struct {
	Name  string  `json:"-"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Note  string  `json:"-"`
}

type result struct {
	env                runEnv
	attempted, failed  int
	endToEnd, perLayer []metric
	tails              []metric // unbounded end-to-end tails, part of perLayer when traced
	ledger             *ledger
}

func main() {
	var cfg config
	flag.StringVar(&cfg.workload, "workload", "", "hot_mac_zipf | cold_route_walk | churn_mac_zipf")
	flag.Uint64Var(&cfg.seed, "seed", 1, "workload seed: drives the trace and the churn rule choice")
	flag.Float64Var(&cfg.seconds, "seconds", 30, "measured seconds of packet traffic")
	trace := flag.Int("trace", 0, "1 adds the traced run and prints the per-layer metrics")
	flag.StringVar(&cfg.out, "out", ".bench_build/out", "directory for the traced run's spans and ledger")
	flag.Parse()
	cfg.trace = *trace == 1
	if *trace != 0 && *trace != 1 || cfg.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1 and --seconds positive")
		os.Exit(2)
	}
	res, err := bench(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	env, _ := json.Marshal(res.env)
	fmt.Printf("env %s\n", env)
	printed := slices.Concat(res.endToEnd, res.perLayer)
	if !cfg.trace {
		printed = append(printed, res.tails...)
	}
	for _, m := range printed {
		fmt.Printf("%-34s %14.6g %-6s %s\n", m.Name, m.Value, m.Unit, m.Note)
	}
	if res.ledger != nil {
		res.ledger.print(os.Stdout)
	}
	shown := res.endToEnd
	if cfg.trace {
		shown = res.perLayer
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.failed == 0, res.attempted, res.failed, map[string]metric{}}
	for _, m := range shown {
		out.Metrics[m.Name] = m
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// bench runs one workload: set-ups, reference replies, warm-up, the
// untraced end-to-end run and, with cfg.trace, the traced run and the
// per-layer timings.
func bench(cfg config) (*result, error) {
	w, ok := workloads[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	res := &result{env: captureEnv(cfg.workload, cfg.seed)}
	probe, err := newHostProbe(probeSlots)
	if err != nil {
		return nil, err
	}
	defer func() { _ = probe.close() }()

	// Bring the switch up setups times and keep the last. The first
	// also serves, cache-less, as the reference for expected replies;
	// that work is outside every set-up time.
	var (
		setupS, setupNS []float64
		g               *gen
		rg              *rig
		heap0           uint64
	)
	for i := 0; i < setups; i++ {
		runtime.GC()
		if i == setups-1 {
			heap0 = liveHeap()
		}
		setupNS = append(setupNS, probe.loadNS())
		r, mac, route, d, err := bringUp()
		if err != nil {
			return nil, err
		}
		setupS = append(setupS, d.Seconds())
		setupNS = append(setupNS, probe.loadNS())
		if i == 0 {
			if g, err = newGen(w, r.p, mac, route, cfg.seed); err != nil {
				_ = r.close()
				return nil, err
			}
			if cfg.plant {
				g.plantFault()
			}
		}
		if i < setups-1 {
			if err := r.close(); err != nil {
				return nil, err
			}
			continue
		}
		rg = r
	}
	defer func() { _ = rg.close() }()
	p := rg.p
	rejected0 := p.TxCounters().Rejected

	// Releasing the set-ups' garbage before the warm-up puts the
	// collector at the same phase in every run; otherwise how many
	// cycles land in the measured windows varies.
	debug.FreeOSMemory()
	warm := packetLoop(rg.pkt, g, 0, time.Now().Add(warmTime), nil, nil)
	res.attempted += warm.pkts
	res.failed += warm.bad

	// The untraced end-to-end run.
	before := sample(p)
	ps, cs := drive(rg, g, warm.next, secs(cfg.seconds), w.churn, nil, probe)
	after := sample(p)
	commitNS := ps.probeNS // under traffic on churn
	if !w.churn {
		// As before the warm-up: the idle phase starts at the same
		// collector phase in every run. Its schedule restarts after each
		// block's probe, so the probe makes no batch late.
		runtime.GC()
		commitNS = nil
		for range idleBlocks {
			b := commitLoop(rg.ctl, g, time.Now(), func(k int, _ time.Time) bool { return k < idleCommits/idleBlocks }, nil)
			cs.batches += b.batches
			cs.bad += b.bad
			cs.lat = append(cs.lat, b.lat...)
			cs.late = append(cs.late, b.late...)
			commitNS = append(commitNS, probe.loadNS())
		}
	}
	res.attempted += ps.pkts + cs.batches
	res.failed += ps.bad + cs.bad
	if len(ps.rtt) == 0 || len(cs.lat) == 0 {
		return nil, fmt.Errorf("the run completed no batch (packets %d, flow-mods %d)", len(ps.rtt), len(cs.lat))
	}
	// Timed figures at the reference host speed; see host.go.
	f, fc, fs := hostFactor(ps.probeNS), hostFactor(commitNS), hostFactor(setupNS)
	res.env.HostLoadNS, res.env.CommitHostLoadNS, res.env.SetupHostLoadNS = quantile(ps.probeNS, 0.5), quantile(commitNS, 0.5), quantile(setupNS, 0.5)
	rawRTTP50, rawPPS := quantile(ps.p50, 0.5), quantile(ps.pps, 0.5)
	rttP50, rttP99, pps := rawRTTP50/f, quantile(ps.p99, 0.5)/f, rawPPS*f
	nRTT := len(ps.rtt)
	winNote := fmt.Sprintf("median of %d %v windows", len(ps.pps), window)
	raw := func(v, factor float64) string { return fmt.Sprintf("; %.6g as measured, host factor %.3f", v, factor) }
	ps.rtt = nil // the generator's samples are not switch heap
	mem := p.MemoryStats()
	runtime.GC()
	heapLive := float64(liveHeap()) - float64(heap0)

	res.endToEnd = []metric{
		{Name: "setup_s", Value: quantile(setupS, 0.5) / fs, Unit: "s", Note: fmt.Sprintf("median of %d set-ups", len(setupS)) + raw(quantile(setupS, 0.5), fs)},
		{Name: "pkts_per_s", Value: pps, Unit: "pkt/s", Note: winNote + raw(rawPPS, f)},
		{Name: "batch_rtt_p50_us", Value: rttP50, Unit: "us", Note: winNote + fmt.Sprintf(", n=%d batches of %d", nRTT, batchSize) + raw(rawRTTP50, f)},
		{Name: "cpu_ns_per_pkt", Value: quantile(ps.cpuNS, 0.5) / f, Unit: "ns", Note: "process user+sys, " + winNote + raw(quantile(ps.cpuNS, 0.5), f)},
		{Name: "commit_p50_ms", Value: quantile(cs.lat, 0.5) / fc, Unit: "ms", Note: commitNote(w, len(cs.lat)) + raw(quantile(cs.lat, 0.5), fc)},
		{Name: "model_mbit", Value: float64(mem.TotalBits) / 1e6, Unit: "Mbit", Note: "MemoryStats().TotalBits"},
		{Name: "heap_live_mib", Value: heapLive / (1 << 20), Unit: "MiB", Note: "switch heap after GC, generator excluded"},
	}
	// The tails are printed with every run but reported unbounded, among
	// the per-layer metrics: on a shared 2-vCPU machine they spread
	// further between runs than any bound the benchmark may set.
	res.tails = []metric{
		{Name: "batch_rtt_p99_us", Value: rttP99, Unit: "us", Note: winNote + fmt.Sprintf(", n=%d batches of %d", nRTT, batchSize) + raw(quantile(ps.p99, 0.5), f)},
		{Name: "commit_p90_ms", Value: quantile(cs.lat, 0.9) / fc, Unit: "ms", Note: commitNote(w, len(cs.lat)) + raw(quantile(cs.lat, 0.9), fc)},
	}
	if !cfg.trace {
		return res, nil
	}

	// The traced run, half as long as the untraced one to bound the run
	// time, then each layer timed from outside.
	tr := newTracer()
	tps, tcs := drive(rg, g, ps.next, secs(cfg.seconds/2), w.churn, tr, probe)
	res.attempted += tps.pkts + tcs.batches
	res.failed += tps.bad + tcs.bad
	// A fresh GC cycle keeps collections out of the isolated timings;
	// the GC's share of the round trip stays in the wire residual.
	runtime.GC()
	lt := replay(p, rg.pkt, g, tr, tps.next, replayBatches)
	res.attempted += lt.pkts
	res.failed += lt.bad
	next := tps.next + 2*replayBatches
	cachedNS, bad := executeNS(p, g, next, replayBatches)
	res.attempted += replayBatches * batchSize
	res.failed += bad
	next += replayBatches
	fmEnc, fmDec, err := flowModCodec(g)
	if err != nil {
		return nil, err
	}
	v0 := p.SnapshotVersion()
	commitMS, bad := txCommits(p, g)
	res.attempted += layerReps
	res.failed += bad
	publishes := float64(p.SnapshotVersion()-v0) / layerReps
	p.SetCacheSize(0)
	p.SetMegaflowSize(0)
	walkNS, bad := executeNS(p, g, next, replayBatches)
	res.attempted += replayBatches * batchSize
	res.failed += bad
	p.SetCacheSize(cacheEntries)
	p.SetMegaflowSize(megaflowEntries)

	led := newLedger(res.env, lt, rawRTTP50, pps, quantile(tps.pps, 0.5)*hostFactor(tps.probeNS))
	res.ledger = led
	if err := writeTrace(cfg.out, fmt.Sprintf("%s-seed%d", cfg.workload, cfg.seed), tr, led); err != nil {
		return nil, fmt.Errorf("writing the trace: %w", err)
	}

	d := after.minus(before)
	failRatio := float64(res.failed) / float64(res.attempted)
	med := func(xs []float64) float64 { return quantile(xs, 0.5) }
	res.perLayer = slices.Concat(res.tails, []metric{
		{Name: "ofproto.pkt_batch_encode_us", Value: led.median("client.encode"), Unit: "us", Note: "AppendPacketBatch"},
		{Name: "ofproto.pkt_batch_decode_us", Value: led.median("server.decode"), Unit: "us", Note: "DecodePacketBatchArena"},
		{Name: "ofproto.pkt_reply_encode_us", Value: led.median("server.reply_encode"), Unit: "us", Note: "result conversion + AppendPacketBatchReply"},
		{Name: "ofproto.pkt_reply_decode_us", Value: led.median("client.decode"), Unit: "us", Note: "DecodePacketBatchReply"},
		{Name: "ofproto.flowmod_batch_encode_us", Value: fmEnc, Unit: "us", Note: "AppendFlowModBatch, 64 commands"},
		{Name: "ofproto.flowmod_batch_decode_us", Value: fmDec, Unit: "us", Note: "DecodeFlowModBatchArena, 64 commands"},
		{Name: "ofproto.wire_residual_us", Value: led.Residual, Unit: "us", Note: "interleaved RTT p50 minus the stage medians"},
		{Name: "core.execute_batch_us", Value: led.median("core.execute_batch"), Unit: "us", Note: "ExecuteBatchInto per batch"},
		{Name: "core.execute_ns.cached", Value: cachedNS, Unit: "ns", Note: "Execute per packet, tiers as configured"},
		{Name: "core.execute_ns.walk", Value: walkNS, Unit: "ns", Note: "Execute per packet, both tiers off"},
		{Name: "core.classify_ns.t0", Value: med(lt.classifyNS[0]), Unit: "ns", Note: classifyNote(lt, 0)},
		{Name: "core.classify_ns.t1", Value: med(lt.classifyNS[1]), Unit: "ns", Note: classifyNote(lt, 1)},
		{Name: "core.classify_ns.t2", Value: med(lt.classifyNS[2]), Unit: "ns", Note: classifyNote(lt, 2)},
		{Name: "core.classify_ns.t3", Value: med(lt.classifyNS[3]), Unit: "ns", Note: classifyNote(lt, 3)},
		{Name: "core.microflow_hit_ratio", Value: ratio(d.microHits, d.microHits+d.microMisses), Unit: "ratio", Note: "of packets"},
		{Name: "core.megaflow_hit_ratio", Value: ratio(d.megaHits, d.megaHits+d.megaMisses), Unit: "ratio", Note: "of megaflow probes"},
		{Name: "core.walk_ratio", Value: ratio(d.megaMisses, d.microHits+d.microMisses), Unit: "ratio", Note: "packets leaving the fast path"},
		{Name: "core.tx_commit_ms", Value: commitMS, Unit: "ms", Note: "Begin/FlowMod/Commit, 64 commands, in-process"},
		{Name: "core.publishes_per_commit", Value: publishes, Unit: "count", Note: "SnapshotVersion delta per commit"},
		{Name: "core.tx_rejected", Value: float64(p.TxCounters().Rejected - rejected0), Unit: "count", Note: "TxCounters delta"},
		{Name: "runtime.allocs_per_pkt", Value: d.mallocs / float64(ps.pkts), Unit: "1/pkt", Note: "process-wide, generator included"},
		{Name: "runtime.alloc_bytes_per_pkt", Value: d.allocBytes / float64(ps.pkts), Unit: "B/pkt", Note: "process-wide, generator included"},
		{Name: "runtime.gc_cpu_fraction", Value: ratio(d.gcCPU, d.usedCPU), Unit: "ratio", Note: "process-wide, generator included"},
		{Name: "runtime.heap_bytes_per_model_bit", Value: heapLive / float64(mem.TotalBits), Unit: "B/bit", Note: "heap_live_mib over model_mbit"},
		{Name: "loadgen.commit_late_ms", Value: mean(cs.late), Unit: "ms", Note: "mean lateness of the flow-mod schedule"},
		{Name: "fail_ratio", Value: failRatio, Unit: "ratio", Note: fmt.Sprintf("%d of %d operations", res.failed, res.attempted)},
	})
	for _, ms := range mem.Tables {
		res.perLayer = append(res.perLayer, metric{Name: fmt.Sprintf("core.model_bits.t%d", ms.Table), Value: float64(ms.TotalBits()), Unit: "bit", Note: ms.Backend})
	}
	var search, index, action uint64
	for _, ms := range mem.Tables {
		search += ms.SearchBits
		index += ms.IndexBits
		action += ms.ActionBits
	}
	res.perLayer = append(res.perLayer,
		metric{Name: "core.model_bits.search", Value: float64(search), Unit: "bit"},
		metric{Name: "core.model_bits.index", Value: float64(index), Unit: "bit"},
		metric{Name: "core.model_bits.action", Value: float64(action), Unit: "bit"},
	)
	return res, nil
}

func commitNote(w workload, n int) string {
	if w.churn {
		return fmt.Sprintf("n=%d, under traffic, from due time", n)
	}
	return fmt.Sprintf("n=%d, idle phase after the packets, from due time", n)
}

func classifyNote(lt layerTimes, t int) string {
	if lt.walkedTo[t] == 0 {
		return "per call, on the headers as sent: no walk reaches the table"
	}
	return fmt.Sprintf("per call, walks reach the table in %d of %d batches", lt.walkedTo[t], len(lt.classifyNS[t]))
}

// executeNS times Execute per packet over n batches from batch k and
// counts wrong results. Each header is a copy: the walk writes metadata
// into the header it is given.
func executeNS(p *core.Pipeline, g *gen, k, n int) (float64, int) {
	hs := make([]openflow.Header, batchSize)
	var perPkt []float64
	bad := 0
	for i := 0; i < n; i++ {
		base := (k + i) % g.batches() * batchSize
		copy(hs, g.trace[base:base+batchSize])
		got := make([]ofproto.PacketReply, batchSize)
		t0 := time.Now()
		for j := range hs {
			r := p.Execute(&hs[j])
			got[j] = reply(&r)
		}
		perPkt = append(perPkt, float64(time.Since(t0))/batchSize)
		bad += g.check(k+i, got)
	}
	return quantile(perPkt, 0.5), bad
}

// flowModCodec times the churn batches' wire encode and decode, µs.
func flowModCodec(g *gen) (enc, dec float64, err error) {
	var (
		buf        []byte
		fms        []ofproto.FlowMod
		ar         openflow.EntryArena
		encs, decs []float64
	)
	for i := 0; i < layerReps; i++ {
		t0 := time.Now()
		buf = ofproto.AppendFlowModBatch(ofproto.BeginFrame(buf), g.churn[i%2])
		t1 := time.Now()
		ar.Reset()
		fms, err = ofproto.DecodeFlowModBatchArena(buf[5:], fms, &ar)
		t2 := time.Now()
		if err != nil {
			return 0, 0, fmt.Errorf("decoding a flow-mod batch: %w", err)
		}
		if len(fms) != churnCmds {
			return 0, 0, fmt.Errorf("flow-mod batch decoded to %d commands, want %d", len(fms), churnCmds)
		}
		encs = append(encs, float64(t1.Sub(t0))/1e3)
		decs = append(decs, float64(t2.Sub(t1))/1e3)
	}
	return quantile(encs, 0.5), quantile(decs, 0.5), nil
}

// txCommits times layerReps in-process commits of the churn batches (an
// even number, so the rules end installed) and counts failed ones.
func txCommits(p *core.Pipeline, g *gen) (float64, int) {
	var ms []float64
	bad := 0
	for i := 0; i < layerReps; i++ {
		t0 := time.Now()
		r, err := commitInProcess(p, g.churn[i%2])
		ms = append(ms, float64(time.Since(t0))/1e6)
		if !checkCommit(i%2, &ofproto.FlowModBatchReply{Commands: uint32(r.Commands), Added: uint32(r.Added), Deleted: uint32(r.Deleted)}, err) {
			bad++
		}
	}
	return quantile(ms, 0.5), bad
}

// counters is a point-in-time reading of the tier and runtime counters
// the per-layer ratios are deltas of.
type counters struct {
	microHits, microMisses, megaHits, megaMisses float64
	mallocs, allocBytes, gcCPU, usedCPU          float64
}

func sample(p *core.Pipeline) counters {
	cs, ms := p.CacheStats(), p.MegaflowStats()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	rm := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(rm)
	return counters{
		microHits: float64(cs.Hits), microMisses: float64(cs.Misses),
		megaHits: float64(ms.Hits), megaMisses: float64(ms.Misses),
		mallocs: float64(m.Mallocs), allocBytes: float64(m.TotalAlloc),
		gcCPU:   rm[0].Value.Float64(),
		usedCPU: rm[1].Value.Float64() - rm[2].Value.Float64(),
	}
}

func (a counters) minus(b counters) counters {
	return counters{
		a.microHits - b.microHits, a.microMisses - b.microMisses, a.megaHits - b.megaHits, a.megaMisses - b.megaMisses,
		a.mallocs - b.mallocs, a.allocBytes - b.allocBytes, a.gcCPU - b.gcCPU, a.usedCPU - b.usedCPU,
	}
}

func liveHeap() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

func secs(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// quantile interpolates linearly between the order statistics of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
