package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"ofmtl/internal/core"
	"ofmtl/internal/ofproto"
	"ofmtl/internal/openflow"
)

// span is one timed call at a layer boundary. Spans of one request share
// Req; Parent links a span to the span that caused it. A modelled span's
// duration is derived from other timings rather than measured as one
// interval.
type span struct {
	ID       uint64 `json:"id"`
	Parent   uint64 `json:"parent,omitempty"`
	Req      uint64 `json:"req"`
	Name     string `json:"name"`
	Batch    int    `json:"batch"`    // trace batch index, -1 for flow-mod batches
	Start    int64  `json:"start_ns"` // since the tracer's epoch
	Dur      int64  `json:"dur_ns"`
	Modelled bool   `json:"modelled,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how the untraced runs call the same loops.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<17)} }

// record adds a wire call as a request of its own.
func (t *tracer) record(name string, batch int, start, end time.Time) {
	if t != nil {
		t.add(span{Name: name, Batch: batch, Start: int64(start.Sub(t.epoch)), Dur: int64(end.Sub(start))})
	}
}

// add appends s with a fresh ID and returns the ID. A span without a
// request id starts a request of its own.
func (t *tracer) add(s span) uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	s.ID = uint64(len(t.spans) + 1)
	if s.Req == 0 {
		s.Req = s.ID
	}
	t.spans = append(t.spans, s)
	return s.ID
}

// replayStages are the layers one packet batch crosses, in pipeline
// order; their isolated medians make up the ledger.
var replayStages = []string{"client.encode", "server.decode", "core.execute_batch", "server.reply_encode", "client.decode"}

// layerTimes collects the per-batch figures of the replay.
type layerTimes struct {
	stage      map[string][]float64 // µs per batch, by stage name
	self       map[string][]float64 // µs per batch of stage self time
	pairedRTT  []float64            // µs per interleaved wire batch
	classifyNS [4][]float64         // ns per Classify call, per batch
	walkedTo   [4]int               // batches in which some header walked to the table
	bad, pkts  int
}

// replayed is what the stage pass keeps of one batch for the classify
// pass.
type replayed struct {
	k         int
	t0        time.Time
	dur       [5]time.Duration // replayStages
	walkShare float64
	paths     [][]openflow.TableID
}

// replay pushes n batches of the trace, from batch k on, through each
// layer's public function in turn — client encode, server decode,
// ExecuteBatchInto, reply encode, client decode — and records the calls
// as spans under one synthetic server.batch span per batch. Each
// server.batch is a request of its own: no wire call carried it.
// Starting where the traced run stopped keeps the cache tiers at the
// reuse distance the wire run saw; replaying batches the run had just
// sent would find their flows cached. Each replayed batch is preceded
// by one untraced wire batch on c, the next in the trace, so the ledger
// can set the stages against round trips taken over the same seconds:
// on a shared machine the speed drifts between phases of a run.
//
// Per-table Classify calls become modelled children of the execute
// span. They are timed in a second pass, so their memory traffic does
// not slow the stages. Which packets walked is not visible from outside,
// so each child is the table's Classify time over the batch's headers
// that visit it, scaled by the batch's measured walk share (megaflow
// misses over packets). A table no header of the batch walks to is
// timed on the headers as sent, so every table has a figure; it adds no
// child span.
func replay(p *core.Pipeline, c *ofproto.Client, g *gen, tr *tracer, k, n int) layerTimes {
	lt := layerTimes{stage: map[string][]float64{}, self: map[string][]float64{}}
	var (
		out, rout []byte
		dhs       []*openflow.Header
		arena     []openflow.Header
		res       []core.Result
		replies   []ofproto.PacketReply
		done      []replayed
	)
	for i := 0; i < n; i++ {
		kw := k + 2*i
		hs := g.batch(kw)
		sent := time.Now()
		got, err := c.SendPackets(hs)
		lt.pairedRTT = append(lt.pairedRTT, float64(time.Since(sent))/1e3)
		lt.pkts += len(hs)
		if err != nil {
			lt.bad += len(hs)
		} else {
			lt.bad += g.check(kw, got)
		}

		rb := replayed{k: kw + 1}
		hs = g.batch(rb.k)
		m0 := p.MegaflowStats().Misses
		t0 := time.Now()
		out = ofproto.AppendPacketBatch(ofproto.BeginFrame(out), hs)
		t1 := time.Now()
		dhs, arena, err = ofproto.DecodePacketBatchArena(out[5:], dhs, arena)
		t2 := time.Now()
		lt.pkts += len(hs)
		if err != nil {
			lt.bad += len(hs)
			continue
		}
		res = p.ExecuteBatchInto(dhs, res)
		t3 := time.Now()
		replies = replies[:0]
		for j := range res {
			replies = append(replies, reply(&res[j]))
		}
		rout = ofproto.AppendPacketBatchReply(ofproto.BeginFrame(rout), replies)
		t4 := time.Now()
		got, err = ofproto.DecodePacketBatchReply(rout[5:])
		t5 := time.Now()
		if err != nil {
			lt.bad += len(hs)
			continue
		}
		lt.bad += g.check(rb.k, got)
		rb.t0 = t0
		rb.dur = [5]time.Duration{t1.Sub(t0), t2.Sub(t1), t3.Sub(t2), t4.Sub(t3), t5.Sub(t4)}
		rb.walkShare = float64(p.MegaflowStats().Misses-m0) / float64(len(hs))
		rb.paths = make([][]openflow.TableID, len(res))
		for j := range res {
			rb.paths[j] = res[j].TablesVisited // interned, immutable
		}
		done = append(done, rb)
	}

	var tables [4]*core.LookupTable
	for t := range tables {
		tables[t], _ = p.Table(openflow.TableID(t))
	}
	var in [4][]openflow.Header
	for _, rb := range done {
		// The header each visited table saw: the walk's write-metadata
		// instructions apply between tables.
		base := rb.k % g.batches() * batchSize
		for t := range in {
			in[t] = in[t][:0]
		}
		for j, path := range rb.paths {
			h := g.trace[base+j]
			for _, id := range path {
				if int(id) >= len(tables) || tables[id] == nil {
					continue
				}
				in[id] = append(in[id], h)
				if m, ok := tables[id].Classify(&h); ok {
					for _, ins := range m.Instructions {
						if ins.Type == openflow.InstrWriteMetadata {
							h.Metadata = h.Metadata&^ins.MetadataMask | ins.Metadata&ins.MetadataMask
						}
					}
				}
			}
		}
		var childNS [4]float64
		for t, tbl := range tables {
			walked := len(in[t]) > 0
			if !walked {
				in[t] = append(in[t], g.trace[base:base+batchSize]...)
			}
			c0 := time.Now()
			for j := range in[t] {
				classifySink, _ = tbl.Classify(&in[t][j])
			}
			d := float64(time.Since(c0))
			lt.classifyNS[t] = append(lt.classifyNS[t], d/float64(len(in[t])))
			if walked {
				lt.walkedTo[t]++
				childNS[t] = d * rb.walkShare
			}
		}

		// Spans on a synthetic timeline: the stages back to back from the
		// batch's encode, the classify children inside the execute span.
		batch := rb.k % g.batches()
		start := int64(rb.t0.Sub(tr.epoch))
		var total time.Duration
		for _, d := range rb.dur {
			total += d
		}
		root := tr.add(span{Name: "server.batch", Batch: batch, Start: start, Dur: int64(total)})
		at := start
		for s, name := range replayStages {
			id := tr.add(span{Parent: root, Req: root, Name: name, Batch: batch, Start: at, Dur: int64(rb.dur[s])})
			us := float64(rb.dur[s]) / 1e3
			lt.stage[name] = append(lt.stage[name], us)
			self := us
			if name == "core.execute_batch" {
				cat := at
				for t, d := range childNS {
					if d == 0 {
						continue
					}
					tr.add(span{Parent: id, Req: root, Name: fmt.Sprintf("core.classify.t%d", t), Batch: batch, Start: cat, Dur: int64(d), Modelled: true})
					cat += int64(d)
					self -= d / 1e3
				}
			}
			lt.self[name] = append(lt.self[name], self)
			at += int64(rb.dur[s])
		}
	}
	return lt
}

// classifySink keeps the timed Classify calls from being optimised away.
var classifySink core.MatchResult

// writeTrace writes the spans as JSON lines and the ledger as JSON.
func writeTrace(dir, stem string, tr *tracer, ledger any) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, stem+".spans.jsonl"))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range tr.spans {
		if err := enc.Encode(&tr.spans[i]); err != nil {
			_ = f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	b, err := json.MarshalIndent(ledger, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, stem+".ledger.json"), append(b, '\n'), 0o644)
}
