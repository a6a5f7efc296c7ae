package main

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"time"

	"ofmtl/internal/core"
	"ofmtl/internal/filterset"
	"ofmtl/internal/ofproto"
	"ofmtl/internal/openflow"
	"ofmtl/internal/traffic"
)

const (
	batchSize   = 256 // packets per SendPackets call
	churnCmds   = 64  // flow-mod commands per SendFlowMods call
	churnPeriod = 50 * time.Millisecond
	// hotTraceLen covers the 1024-flow population many times over.
	hotTraceLen = 1 << 16
	// coldTraceLen is four microflow caches long, so a replayed header
	// has almost always been evicted before it comes round again.
	coldTraceLen = 1 << 18
)

// workload is one traffic mix over the shared gozb+coza preload.
type workload struct {
	churn bool // a second connection toggles table-1 rules every churnPeriod
	trace func(mac *filterset.MACFilter, route *filterset.RouteFilter, seed uint64) []openflow.Header
}

func hotTrace(mac *filterset.MACFilter, _ *filterset.RouteFilter, seed uint64) []openflow.Header {
	return traffic.MACTraceZipf(mac, 1024, hotTraceLen, 0.9, 1.1, seed)
}

func coldTrace(_ *filterset.MACFilter, route *filterset.RouteFilter, seed uint64) []openflow.Header {
	return traffic.RouteTrace(route, coldTraceLen, 1.0, seed)
}

var workloads = map[string]workload{
	// Almost every packet hits the microflow cache: wire codecs, the
	// probe and the per-flow counter charge dominate.
	"hot_mac_zipf": {trace: hotTrace},
	// Every packet is a fresh flow: the per-table walk on the 185k-route
	// table and cache installs dominate.
	"cold_route_walk": {trace: coldTrace},
	// hot_mac_zipf plus open-loop flow-mod commits beside the reads. It is
	// run by hand and by the self-check, not listed in BENCHMARK.json: on
	// a shared 2-vCPU machine its figures drift between runs minutes
	// apart by more than the largest bound a listed metric may carry.
	"churn_mac_zipf": {churn: true, trace: hotTrace},
}

// gen is the load generator's data: the cyclic trace cut into batches,
// the expected reply of every trace position and the churn batches.
type gen struct {
	trace []openflow.Header
	ptrs  []*openflow.Header
	// want indexes replies per trace position; alt is the reply allowed
	// instead while the position's table-1 rule is toggled out (-1 when
	// the position hits no toggled rule).
	want, alt []int32
	replies   []ofproto.PacketReply
	// churn[0] strict-deletes the toggled rules, churn[1] re-adds them.
	churn [2][]ofproto.FlowMod
}

// newGen builds the workload's trace and computes every expected reply
// with a cache-less walk of ref, a switch built like the one under test.
// ref's cache tiers are switched off and, for churn, its table-1 rules
// are left toggled out: ref must not serve traffic afterwards.
func newGen(w workload, ref *core.Pipeline, mac *filterset.MACFilter, route *filterset.RouteFilter, seed uint64) (*gen, error) {
	ref.SetCacheSize(0)
	ref.SetMegaflowSize(0)
	g := &gen{trace: w.trace(mac, route, seed)}
	if len(g.trace) == 0 || len(g.trace)%batchSize != 0 {
		return nil, fmt.Errorf("trace of %d headers is not whole batches", len(g.trace))
	}
	g.ptrs = make([]*openflow.Header, len(g.trace))
	g.want = make([]int32, len(g.trace))
	g.alt = make([]int32, len(g.trace))
	first := make(map[openflow.Header]int32) // header -> first trace position
	var distinct []int32
	replyIndex := make(map[string]int32)
	for i := range g.trace {
		g.ptrs[i] = &g.trace[i]
		g.alt[i] = -1
		if j, ok := first[g.trace[i]]; ok {
			g.want[i] = g.want[j]
			continue
		}
		first[g.trace[i]] = int32(i)
		distinct = append(distinct, int32(i))
		h := g.trace[i]
		res := ref.Execute(&h)
		g.want[i] = g.intern(replyIndex, reply(&res))
	}
	churn, err := pickChurn(ref, mac, seed)
	if err != nil {
		return nil, err
	}
	g.churn = churn
	if !w.churn {
		return g, nil
	}
	if _, err := commitInProcess(ref, g.churn[0]); err != nil {
		return nil, fmt.Errorf("toggling churn rules on the reference switch: %w", err)
	}
	altOf := make(map[int32]int32)
	for _, j := range distinct {
		h := g.trace[j]
		res := ref.Execute(&h)
		if r := g.intern(replyIndex, reply(&res)); r != g.want[j] {
			altOf[j] = r
		}
	}
	for i := range g.trace {
		if a, ok := altOf[first[g.trace[i]]]; ok {
			g.alt[i] = a
		}
	}
	return g, nil
}

func (g *gen) intern(index map[string]int32, r ofproto.PacketReply) int32 {
	key := fmt.Sprint(r.Flags, r.Outputs)
	if i, ok := index[key]; ok {
		return i
	}
	index[key] = int32(len(g.replies))
	g.replies = append(g.replies, ofproto.PacketReply{Flags: r.Flags, Outputs: slices.Clone(r.Outputs)})
	return index[key]
}

// pickChurn chooses churnCmds table-1 rules that hot_mac_zipf's trace
// (at this seed) hits and returns the batches that strict-delete and
// re-add them. Every workload times these commits; only churn_mac_zipf
// sends them beside its traffic.
func pickChurn(ref *core.Pipeline, mac *filterset.MACFilter, seed uint64) ([2][]ofproto.FlowMod, error) {
	type key struct {
		vlan uint16
		dst  uint64
	}
	var churn [2][]ofproto.FlowMod
	count := make(map[key]int)
	rule := make(map[key]filterset.MACRule)
	for _, r := range mac.Rules {
		k := key{r.VLAN, r.EthDst}
		count[k]++
		rule[k] = r
	}
	var hit []key
	for _, h := range hotTrace(mac, nil, seed) {
		k := key{h.VLANID, h.EthDst}
		r, ok := rule[k]
		if !ok || count[k] != 1 {
			continue // a miss, a rule installed twice, or one already taken
		}
		count[k]++
		// Only rules whose output the header really gets.
		if res := ref.Execute(&h); slices.Equal(res.Outputs, []uint32{r.OutPort}) {
			hit = append(hit, k)
		}
	}
	if len(hit) < churnCmds {
		return churn, fmt.Errorf("the trace hits %d distinct table-1 rules, churn needs %d", len(hit), churnCmds)
	}
	rng := rand.New(rand.NewPCG(seed, 0x636875726e))
	rng.Shuffle(len(hit), func(i, j int) { hit[i], hit[j] = hit[j], hit[i] })
	for _, k := range hit[:churnCmds] {
		matches := []openflow.Match{
			openflow.Exact(openflow.FieldMetadata, uint64(k.vlan)),
			openflow.Exact(openflow.FieldEthDst, k.dst),
		}
		churn[0] = append(churn[0], ofproto.FlowMod{Op: ofproto.FlowDeleteStrict, Table: 1,
			Entry: openflow.FlowEntry{Priority: 1, Matches: matches}})
		churn[1] = append(churn[1], ofproto.FlowMod{Op: ofproto.FlowAdd, Table: 1,
			Entry: openflow.FlowEntry{Priority: 1, Matches: matches, Instructions: []openflow.Instruction{
				openflow.WriteActions(openflow.Output(rule[k].OutPort)),
			}}})
	}
	return churn, nil
}

// batches is the number of batches in one cycle of the trace.
func (g *gen) batches() int { return len(g.ptrs) / batchSize }

// batch returns the k-th batch of the cyclic trace.
func (g *gen) batch(k int) []*openflow.Header {
	b := k % g.batches() * batchSize
	return g.ptrs[b : b+batchSize]
}

// check counts the wrong replies to batch k.
func (g *gen) check(k int, got []ofproto.PacketReply) int {
	if len(got) != batchSize {
		return batchSize
	}
	base := k % g.batches() * batchSize
	bad := 0
	for i := range got {
		p := base + i
		if sameReply(got[i], g.replies[g.want[p]]) {
			continue
		}
		if a := g.alt[p]; a >= 0 && sameReply(got[i], g.replies[a]) {
			continue
		}
		bad++
	}
	return bad
}

// checkCommit reports whether churn batch op (0 delete, 1 add) committed
// in full.
func checkCommit(op int, rep *ofproto.FlowModBatchReply, err error) bool {
	if err != nil || rep == nil || rep.Commands != churnCmds {
		return false
	}
	if op == 0 {
		return rep.Deleted == churnCmds
	}
	return rep.Added == churnCmds
}

// plantFault makes one expected reply wrong, for the verifier self-check.
func (g *gen) plantFault() {
	r := g.replies[g.want[0]]
	g.replies = append(g.replies, ofproto.PacketReply{Flags: r.Flags ^ ofproto.ReplyDropped, Outputs: r.Outputs})
	g.want[0] = int32(len(g.replies) - 1)
	g.alt[0] = -1
}

func sameReply(a, b ofproto.PacketReply) bool {
	return a.Flags == b.Flags && slices.Equal(a.Outputs, b.Outputs)
}

// reply converts a pipeline result to its wire reply, as the server does.
func reply(res *core.Result) ofproto.PacketReply {
	r := ofproto.PacketReply{Outputs: res.Outputs}
	if res.Matched {
		r.Flags |= ofproto.ReplyMatched
	}
	if res.SentToController {
		r.Flags |= ofproto.ReplyToController
	}
	if res.Dropped {
		r.Flags |= ofproto.ReplyDropped
	}
	return r
}

// commitInProcess applies one churn batch as a single transaction.
func commitInProcess(p *core.Pipeline, fms []ofproto.FlowMod) (core.TxResult, error) {
	tx := p.Begin()
	for i := range fms {
		op := core.CmdAdd
		if fms[i].Op == ofproto.FlowDeleteStrict {
			op = core.CmdDeleteStrict
		}
		tx.FlowMod(core.FlowCmd{Op: op, Table: fms[i].Table, Entry: fms[i].Entry})
	}
	return tx.Commit()
}
