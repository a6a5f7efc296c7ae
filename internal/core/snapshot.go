package core

import (
	"runtime"
	"sync"
	"sync/atomic"

	"ofmtl/internal/openflow"
)

// This file implements the pipeline's RCU-style concurrency engine and
// the one tiered packet path every lookup takes.
//
// The lookup state is published as an immutable snapshot: a set of deep
// table clones behind an atomic pointer. Readers (Execute,
// ExecuteBatchInto) load the pointer and classify lock-free against
// whatever snapshot they loaded — a reader that raced a concurrent update
// simply observes the state from just before or just after it, never a
// half-applied one. Writers mutate the live tables under the pipeline
// write lock and bump per-table generation counters; the snapshot is
// re-cloned lazily on the first lookup that observes a stale generation,
// so a burst of updates costs one clone, not one per update.
//
// Every snapshot additionally carries a version from a monotonic
// counter. Both cache tiers key their entries on that version, so a rule
// update — which forces a new snapshot — invalidates every microflow
// entry without any flush traffic; the megaflow tier's commit sweep
// carries its unaffected entries forward (megaflow.go).
//
// Execute and the batch workers share one packet path, tiers.exec:
// microflow probe, megaflow probe, snapshot walk on a double miss,
// install into both tiers, and the per-flow counter charge.

// snapshot is one published immutable view of the pipeline.
type snapshot struct {
	// structGen is the pipeline's table-set generation this snapshot was
	// built at.
	structGen uint64
	// version identifies this snapshot; it increases with every rebuild
	// and scopes the validity of microflow cache entries.
	version uint64
	order   []openflow.TableID
	tables  map[openflow.TableID]*snapTable
	// byID indexes the clones densely by table identifier, so the walk's
	// goto-table hops cost an array load instead of a map probe.
	byID [256]*LookupTable
	// srcs/gens mirror tables in pipeline order for the freshness check:
	// iterating two flat slices per lookup is markedly cheaper than
	// ranging over the map.
	srcs []*LookupTable
	gens []uint64
	// intern points at the owning pipeline's canonical-slice store, which
	// keeps Result construction allocation-free (see intern.go).
	intern *resultIntern
	// groups is the immutable group-table view this snapshot executes
	// against; groupGen is the generation it was captured at. A group
	// mutation bumps the pipeline's generation, so the next lookup finds
	// the snapshot stale and republishes — which is what invalidates every
	// cached result that baked in the old buckets.
	groups   *groupView
	groupGen uint64
	// dir is the owning pipeline's lifecycle directory (counter
	// attribution for walks executed against this snapshot).
	dir *flowDir
	// lat is the owning pipeline's lookup-latency sampler; sampled walks
	// against this snapshot feed it (autotune signal).
	lat *latSampler
}

// snapTable binds a live table to the frozen clone taken from it.
type snapTable struct {
	src   *LookupTable // the mutable table the clone was taken from
	gen   uint64       // src's generation at clone time
	clone *LookupTable // immutable; serves concurrent Classify calls
}

// fresh reports whether the snapshot still reflects the live tables.
func (s *snapshot) fresh(p *Pipeline) bool {
	if s.structGen != p.structGen.Load() {
		return false
	}
	if s.groupGen != p.groupGen.Load() {
		return false
	}
	for i, src := range s.srcs {
		if src.gen.Load() != s.gens[i] {
			return false
		}
	}
	return true
}

// walk classifies one header against the snapshot's immutable clones
// using caller-owned scratch. The scratch is reset before anything else,
// so its counter attribution never carries over from an earlier walk.
// With traced set the walk also records the union of header bits any
// lookup layer consulted (sc.tr) and the fields mutated mid-walk
// (sc.rewritten) — together the megaflow entry the outcome may be
// installed under. An empty pipeline legitimately leaves the mask
// all-zero: the outcome (controller miss) is the same for every packet.
func (s *snapshot) walk(h *openflow.Header, sc *execScratch, traced bool) Result {
	sc.reset()
	if traced {
		sc.traced = true
		sc.tr.reset()
	}
	var res Result
	if len(s.order) == 0 {
		res.SentToController = true
		return res
	}
	sc.armLatSample(s)
	executeWalk(s.order, &s.byID, s.groups, h, sc, &res)
	res.TablesVisited = s.intern.internPath(sc.visited)
	res.Outputs = s.intern.internOutputs(sc.outs)
	return res
}

// loadSnapshot returns a snapshot reflecting every completed mutation.
// The fast path is a single atomic load plus one generation comparison
// per table; the slow path (first lookup after an update) re-clones the
// stale tables under the write lock, reusing the clones of unchanged
// ones.
func (p *Pipeline) loadSnapshot() *snapshot {
	if s := p.snap.Load(); s != nil && s.fresh(p) {
		return s
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	s := p.snap.Load()
	if s != nil && s.fresh(p) {
		// Another reader refreshed while we waited for the lock.
		return s
	}
	return p.rebuildSnapshotLocked()
}

// rebuildSnapshotLocked clones the stale tables and publishes a new
// snapshot under the already-held write lock, bumping the version
// counter exactly once. Callers: loadSnapshot's slow path, and
// Tx.Commit's eager rebuild when the megaflow tier is enabled (the
// precise-invalidation sweep needs the new version before the commit
// returns; lookups then find the snapshot fresh, so the version still
// advances once per commit).
func (p *Pipeline) rebuildSnapshotLocked() *snapshot {
	s := p.snap.Load()
	ns := &snapshot{
		structGen: p.structGen.Load(),
		version:   p.snapVersion.Add(1),
		order:     append([]openflow.TableID(nil), p.order...),
		tables:    make(map[openflow.TableID]*snapTable, len(p.tables)),
		intern:    &p.intern,
		groups:    p.groupsView.Load(),
		groupGen:  p.groupGen.Load(),
		dir:       p.dir,
		lat:       p.lat,
	}
	for id, t := range p.tables {
		gen := t.gen.Load()
		if s != nil {
			if st, ok := s.tables[id]; ok && st.src == t && st.gen == gen {
				ns.tables[id] = st
				continue
			}
		}
		ns.tables[id] = &snapTable{src: t, gen: gen, clone: t.clone()}
	}
	for _, id := range ns.order {
		st := ns.tables[id]
		ns.byID[id] = st.clone
		ns.srcs = append(ns.srcs, st.src)
		ns.gens = append(ns.gens, st.gen)
	}
	p.snap.Store(ns)
	return ns
}

// SetWorkers bounds the goroutines one ExecuteBatchInto call fans out
// to. Zero (the default) selects GOMAXPROCS; one forces the sequential
// path.
func (p *Pipeline) SetWorkers(n int) {
	if n < 0 {
		n = 0
	}
	p.workers.Store(int64(n))
}

// batchChunk is the number of headers a batch worker claims per cursor
// advance: large enough to amortise the atomic increment, small enough
// to balance skewed per-packet costs across workers.
const batchChunk = 32

// tiers is the lookup state one packet (or one whole batch) executes
// against: the snapshot it walks, the cache tiers in front of the walk
// (nil when disabled) and the flow directory the matched flows are
// charged to.
type tiers struct {
	s *snapshot
	c *flowCache
	m *megaflowCache
	d *flowDir
}

// loadTiers captures the current snapshot and cache tiers.
func (p *Pipeline) loadTiers() tiers {
	return tiers{s: p.loadSnapshot(), c: p.cache.Load(), m: p.mega.Load(), d: p.dir}
}

// execCtx is one executor's private context: its walk scratch, its
// counter shard and the tier hit/miss counts it has not yet published.
// Batch workers own one each for the length of a batch, so the batch
// hot path performs no pool traffic; Execute borrows one from
// execCtxPool per packet. Shared hit/miss counters are written only by
// flush: once per batch worker, once per Execute.
type execCtx struct {
	sc      execScratch
	hits    uint64
	misses  uint64
	mhits   uint64 // megaflow-tier hits
	mmisses uint64 // megaflow-tier misses
	// shard is the lifecycle counter shard (and cache-stats shard) this
	// context charges; batch workers take their worker slot, pooled
	// contexts a round-robin shard fixed at creation.
	shard uint32
	_     [64]byte // keep neighbouring workers' contexts off one line
}

// ctxSeq hands out the round-robin shards of pooled contexts.
var ctxSeq atomic.Uint32

var execCtxPool = sync.Pool{New: func() any {
	ctx := &execCtx{shard: ctxSeq.Add(1) & (ctrShards - 1)}
	ctx.sc.latShard = ctx.shard
	return ctx
}}

// exec classifies one header through the tiered path — microflow probe,
// megaflow probe, then the multi-table walk on a double miss, whose
// outcome is installed into both tiers — and charges the matched flows'
// counters on ctx's shard. Tier hits and misses accumulate in ctx until
// flush. This is the only copy of the sequence: Execute and the batch
// workers both call it.
//
// A cached Result replays the recorded outcome without re-mutating the
// header, matching data-plane behaviour (mutations apply to the
// forwarded copy, not to subsequent packets of the flow).
func (t *tiers) exec(h *openflow.Header, ctx *execCtx) Result {
	if h == nil {
		// A nil header carries nothing to classify; model it as the
		// miss path (packet to controller), as an empty pipeline does.
		return Result{SentToController: true}
	}
	// The key is packed before the walk: mid-walk mutations apply to the
	// forwarded copy, and both cache tiers key on the original header.
	var k flowKey
	var fp uint64
	if t.c != nil || t.m != nil {
		packFlowKey(&k, h)
		fp = k.fingerprint()
	}
	if t.c != nil {
		if e, ok := t.c.lookup(fp, &k, t.s.version); ok {
			ctx.hits++
			t.charge(ctx, &e.refs, int(e.nrefs), h)
			return e.res
		}
		ctx.misses++
	}
	if t.m != nil {
		var mrefs [ctrRefMax]uint32
		if res, nrefs, ok := t.m.lookup(&k, t.s.version, &mrefs); ok {
			// A megaflow hit does NOT back-fill the microflow tier:
			// all-new-flow traffic (the regime this tier exists for)
			// would churn the exact-match slots without ever re-hitting
			// them, and the microflow fill path allocates.
			ctx.mhits++
			t.charge(ctx, &mrefs, nrefs, h)
			return res
		}
		ctx.mmisses++
	}
	sc := &ctx.sc
	res := t.s.walk(h, sc, t.m != nil)
	t.charge(ctx, &sc.refs, sc.nrefs, h)
	// A walk that matched more rules than a cached attribution can carry
	// skips both installs: serving it from a cache would silently stop
	// counting the overflowed rules.
	if !sc.refOverflow {
		if t.m != nil {
			rp := t.s.intern.internResult(res)
			t.m.install(&k, &sc.tr, sc.rewritten, t.s.version, rp, &sc.refs, sc.nrefs)
		}
		if t.c != nil {
			t.c.store(fp, &k, t.s.version, res, &sc.refs, sc.nrefs)
		}
	}
	return res
}

// charge counts one packet against the n attributed flows in refs.
func (t *tiers) charge(ctx *execCtx, refs *[ctrRefMax]uint32, n int, h *openflow.Header) {
	if n > 0 {
		t.d.touch(ctx.shard, refs, n, h.PktLen)
	}
}

// flush publishes ctx's accumulated tier hit/miss counts on its shard.
func (t *tiers) flush(ctx *execCtx) {
	if t.c != nil && (ctx.hits != 0 || ctx.misses != 0) {
		t.c.addStats(uint64(ctx.shard), ctx.hits, ctx.misses)
	}
	if t.m != nil && (ctx.mhits != 0 || ctx.mmisses != 0) {
		t.m.addStats(uint64(ctx.shard), ctx.mhits, ctx.mmisses)
	}
	ctx.hits, ctx.misses, ctx.mhits, ctx.mmisses = 0, 0, 0, 0
}

// padCursor is a cache-line-isolated work cursor; one per worker region,
// so claims on one region never bounce another worker's line.
type padCursor struct {
	n atomic.Int64
	_ [56]byte
}

// batchState carries one ExecuteBatchInto invocation: the inputs, the
// reply slice, the loaded tiers, and the per-worker cursors and
// contexts. States are pooled; the slices grow to the largest worker
// count seen and are reused, so steady-state batches allocate nothing.
type batchState struct {
	t       tiers
	hs      []*openflow.Header
	res     []Result
	workers int
	region  int // headers per worker region (multiple of batchChunk)
	cursors []padCursor
	ctxs    []execCtx
	wg      sync.WaitGroup
}

var batchStatePool = sync.Pool{New: func() any { return new(batchState) }}

// size ensures the per-worker slices cover n workers.
func (bs *batchState) size(n int) {
	if cap(bs.cursors) < n {
		bs.cursors = make([]padCursor, n)
		bs.ctxs = make([]execCtx, n)
	}
	bs.cursors = bs.cursors[:n]
	bs.ctxs = bs.ctxs[:n]
}

// batchJob hands one worker slot of one batch to a parked worker.
type batchJob struct {
	bs *batchState
	w  int
}

// batchEngine parks persistent worker goroutines on a job channel. A
// `go f(args)` statement heap-allocates its argument closure, so
// spawning workers per batch costs one allocation each; parked workers
// receive (batchState, slot) pairs by value instead, which is what
// makes the steady-state batch path 0 allocs/op. Workers are started
// lazily up to the largest fan-out seen; a cleanup closes the channel
// when the owning pipeline becomes unreachable, so parked goroutines do
// not outlive it.
type batchEngine struct {
	mu     sync.Mutex
	jobs   chan batchJob
	parked int
}

// dispatch hands out worker slots 1..workers-1 (the caller runs slot 0).
func (p *Pipeline) dispatchBatch(bs *batchState, workers int) {
	e := &p.batch
	e.mu.Lock()
	if e.jobs == nil {
		e.jobs = make(chan batchJob, 64)
		// Tied to the pipeline, not the engine: the workers only
		// reference the channel, so an abandoned pipeline becomes
		// unreachable, the cleanup closes the channel and the parked
		// goroutines exit.
		runtime.AddCleanup(p, func(jobs chan batchJob) { close(jobs) }, e.jobs)
	}
	for e.parked < workers-1 {
		go batchWorker(e.jobs)
		e.parked++
	}
	e.mu.Unlock()
	for w := 1; w < workers; w++ {
		e.jobs <- batchJob{bs: bs, w: w}
	}
}

// batchWorker is one parked worker: it serves batch jobs until the
// owning pipeline's cleanup closes the channel.
func batchWorker(jobs chan batchJob) {
	for j := range jobs {
		j.bs.work(j.w)
		j.bs.wg.Done()
	}
}

// work drains the worker's own contiguous region, then steals from the
// other regions in cyclic order so stragglers (skewed per-packet costs,
// descheduled workers) never leave a core idle. Workers map to distinct
// counter shards, so per-flow counting in a batch is single-writer per
// (shard, flow) cell.
func (bs *batchState) work(w int) {
	ctx := &bs.ctxs[w]
	ctx.shard = uint32(w)
	ctx.sc.latShard = uint32(w)
	for v := 0; v < bs.workers; v++ {
		bs.drain((w+v)%bs.workers, ctx)
	}
	bs.t.flush(ctx)
}

// drain claims chunks from region v until it is exhausted. Both the
// owner and thieves claim through the same cursor, so every header is
// executed exactly once.
func (bs *batchState) drain(v int, ctx *execCtx) {
	lo := v * bs.region
	n := len(bs.hs)
	if lo >= n {
		return
	}
	hi := lo + bs.region
	if hi > n {
		hi = n
	}
	cur := &bs.cursors[v].n
	for {
		start := int(cur.Add(batchChunk)) - batchChunk
		if start >= hi {
			return
		}
		end := start + batchChunk
		if end > hi {
			end = hi
		}
		for i := start; i < end; i++ {
			bs.res[i] = bs.t.exec(bs.hs[i], ctx)
		}
	}
}

// ExecuteBatchInto classifies every header through the pipeline, writing
// one Result per header, in order, into res (grown if its capacity is
// short, so passing the previous call's return value makes the batch
// path allocation-free in steady state; a nil res allocates a fresh
// reply slice).
//
// The snapshot is loaded once for the whole batch and the work split
// into per-worker contiguous regions claimed in cache-friendly chunks;
// workers that finish their region steal chunks from the others. Each
// worker owns a private execution context (walk scratch, cache
// counters), so workers share no mutable state besides the region
// cursors and their disjoint slices of res. Every header takes the same
// tiered path as Execute. Headers must be distinct (they are mutated
// during execution, as in Execute); nil headers yield a
// send-to-controller Result. Like Execute it is safe to call
// concurrently with mutations; the whole batch observes one consistent
// snapshot.
func (p *Pipeline) ExecuteBatchInto(hs []*openflow.Header, res []Result) []Result {
	if cap(res) >= len(hs) {
		res = res[:len(hs)]
	} else {
		res = make([]Result, len(hs))
	}
	if len(hs) == 0 {
		return res
	}
	workers := int(p.workers.Load())
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if max := (len(hs) + batchChunk - 1) / batchChunk; workers > max {
		workers = max
	}
	if workers < 1 {
		workers = 1
	}

	bs := batchStatePool.Get().(*batchState)
	bs.size(workers)
	bs.t = p.loadTiers()
	bs.hs = hs
	bs.res = res
	bs.workers = workers
	region := (len(hs) + workers - 1) / workers
	bs.region = (region + batchChunk - 1) / batchChunk * batchChunk
	for w := 0; w < workers; w++ {
		bs.cursors[w].n.Store(int64(w * bs.region))
	}

	bs.wg.Add(workers - 1)
	if workers > 1 {
		p.dispatchBatch(bs, workers)
	}
	bs.work(0) // the caller is worker 0
	bs.wg.Wait()

	bs.t, bs.hs, bs.res = tiers{}, nil, nil
	batchStatePool.Put(bs)
	return res
}

// Refresh forces the snapshot to be rebuilt on the next lookup. It is
// never required for correctness — staleness is detected through the
// generation counters — but lets callers that mutated tables directly
// move the clone cost off the lookup path.
func (p *Pipeline) Refresh() {
	p.loadSnapshot()
}
