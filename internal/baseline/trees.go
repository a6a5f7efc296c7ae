package baseline

import (
	"sort"

	"ofmtl/internal/filterset"
	"ofmtl/internal/openflow"
)

// Decision-tree baselines: HyperCuts (multi-dimensional equal-width cuts,
// reference [8] of the paper) and HyperSplit (binary endpoint splits,
// reference [9]). Both replicate rules that span a cut — the rule
// replication problem Section III.B discusses — which the implementations
// mitigate, as the published algorithms do, by keeping rules that span
// every cut dimension in the interior node instead of copying them into
// all children.

// dims: 0 srcIP(32) 1 dstIP(32) 2 sport(16) 3 dport(16) 4 proto(8).
const nDims = 5

var dimSpace = [nDims]uint64{1 << 32, 1 << 32, 1 << 16, 1 << 16, 1 << 8}

// ruleInterval returns rule ri's admissible interval on a dimension.
func ruleInterval(r *filterset.ACLRule, d int) (uint64, uint64) {
	switch d {
	case 0:
		return prefixInterval(uint64(r.SrcIP), r.SrcLen, 32)
	case 1:
		return prefixInterval(uint64(r.DstIP), r.DstLen, 32)
	case 2:
		return uint64(r.SrcPortLo), uint64(r.SrcPortHi)
	case 3:
		return uint64(r.DstPortLo), uint64(r.DstPortHi)
	default:
		if r.ProtoAny {
			return 0, 255
		}
		return uint64(r.Proto), uint64(r.Proto)
	}
}

func prefixInterval(v uint64, plen, width int) (uint64, uint64) {
	span := uint64(1)<<uint(width-plen) - 1
	base := v &^ span
	return base, base + span
}

func headerValue(h *openflow.Header, d int) uint64 {
	switch d {
	case 0:
		return uint64(h.IPv4Src)
	case 1:
		return uint64(h.IPv4Dst)
	case 2:
		return uint64(h.SrcPort)
	case 3:
		return uint64(h.DstPort)
	default:
		return uint64(h.IPProto)
	}
}

// box is a hyper-rectangle of the search space.
type box struct {
	lo, hi [nDims]uint64
}

func fullBox() box {
	var b box
	for d := 0; d < nDims; d++ {
		b.hi[d] = dimSpace[d] - 1
	}
	return b
}

func intervalsOverlap(alo, ahi, blo, bhi uint64) bool { return alo <= bhi && blo <= ahi }

// ruleIntersectsBox reports whether the rule's hyper-rectangle overlaps b.
func ruleIntersectsBox(r *filterset.ACLRule, b *box) bool {
	for d := 0; d < nDims; d++ {
		lo, hi := ruleInterval(r, d)
		if !intervalsOverlap(lo, hi, b.lo[d], b.hi[d]) {
			return false
		}
	}
	return true
}

// ruleSpansBoxDim reports whether the rule covers b's full extent on dim d.
func ruleSpansBoxDim(r *filterset.ACLRule, b *box, d int) bool {
	lo, hi := ruleInterval(r, d)
	return lo <= b.lo[d] && hi >= b.hi[d]
}

const (
	treeBinth    = 8  // leaf capacity
	treeMaxDepth = 24 // safety cap
)

// scanRules tests the listed rules against h and returns the lowest
// (highest-priority) matching index, or best if none is lower.
func scanRules(rules []filterset.ACLRule, idx []int, h *openflow.Header, best int) int {
	for _, ri := range idx {
		if (best < 0 || ri < best) && ruleMatches(&rules[ri], h) {
			best = ri
		}
	}
	return best
}

// tree is the state and accounting both decision trees share.
type tree struct {
	rules      []filterset.ACLRule
	nodes      int
	storedRefs int
	lastLookup int
}

// reset loads the rule list and returns the index of every rule, the
// root's rule set.
func (t *tree) reset(rules []filterset.ACLRule) []int {
	t.rules = append([]filterset.ACLRule(nil), rules...)
	t.nodes, t.storedRefs = 0, 0
	all := make([]int, len(rules))
	for i := range all {
		all[i] = i
	}
	return all
}

// Category implements Classifier.
func (t *tree) Category() Category { return CategoryTrieGeometric }

// LookupCost implements Classifier.
func (t *tree) LookupCost() int { return t.lastLookup }

// UpdateCost implements Classifier: the replication factor times the leaf
// capacity approximates the entries rewritten when a rule is inserted —
// the "very complex update" of Table I.
func (t *tree) UpdateCost() int {
	if len(t.rules) == 0 {
		return 0
	}
	return (t.storedRefs+len(t.rules)-1)/len(t.rules)*treeBinth + treeMaxDepth
}

// StoredRefs returns the stored rule references (replication included).
func (t *tree) StoredRefs() int { return t.storedRefs }

// --- HyperCuts ---------------------------------------------------------

// HyperCuts is the multi-dimensional cutting tree of Table I's
// Trie-Geometric category.
type HyperCuts struct {
	tree
	root *hcNode
}

type hcNode struct {
	// leaf
	leafRules []int
	// interior
	cutDims  []int
	cuts     []int // cuts per dim (power of two)
	children []*hcNode
	local    []int // rules spanning the node in every cut dim
	b        box
}

// NewHyperCuts returns an empty HyperCuts classifier.
func NewHyperCuts() *HyperCuts { return &HyperCuts{} }

// Name implements Classifier.
func (hc *HyperCuts) Name() string { return "hypercuts" }

// Build implements Classifier.
func (hc *HyperCuts) Build(rules []filterset.ACLRule) error {
	hc.root = hc.build(hc.reset(rules), fullBox(), 0)
	return nil
}

func (hc *HyperCuts) build(ruleIdx []int, b box, depth int) *hcNode {
	hc.nodes++
	if len(ruleIdx) <= treeBinth || depth >= treeMaxDepth {
		hc.storedRefs += len(ruleIdx)
		return &hcNode{leafRules: ruleIdx, b: b}
	}

	// Pick the two dimensions with the most distinct endpoint values.
	type dimScore struct{ d, score int }
	scores := make([]dimScore, 0, nDims)
	for d := 0; d < nDims; d++ {
		seen := map[uint64]struct{}{}
		for _, ri := range ruleIdx {
			lo, hi := ruleInterval(&hc.rules[ri], d)
			seen[lo] = struct{}{}
			seen[hi] = struct{}{}
		}
		scores = append(scores, dimScore{d, len(seen)})
	}
	sort.Slice(scores, func(i, j int) bool { return scores[i].score > scores[j].score })
	var cutDims []int
	for _, s := range scores[:2] {
		if s.score > 2 && b.hi[s.d] > b.lo[s.d] {
			cutDims = append(cutDims, s.d)
		}
	}
	if len(cutDims) == 0 {
		hc.storedRefs += len(ruleIdx)
		return &hcNode{leafRules: ruleIdx, b: b}
	}

	// Rules that span the whole box in every cut dimension stay local:
	// copying them into each child is pure replication.
	var local, movable []int
	for _, ri := range ruleIdx {
		spansAll := true
		for _, d := range cutDims {
			if !ruleSpansBoxDim(&hc.rules[ri], &b, d) {
				spansAll = false
				break
			}
		}
		if spansAll {
			local = append(local, ri)
		} else {
			movable = append(movable, ri)
		}
	}
	if len(movable) <= treeBinth {
		hc.storedRefs += len(ruleIdx)
		return &hcNode{leafRules: ruleIdx, b: b}
	}

	cuts := make([]int, len(cutDims))
	for i := range cuts {
		cuts[i] = 4 // 4 cuts per chosen dim: up to 16 children
	}
	n := &hcNode{cutDims: cutDims, cuts: cuts, local: local, b: b}
	hc.storedRefs += len(local)

	total := 1
	for _, c := range cuts {
		total *= c
	}
	n.children = make([]*hcNode, total)
	for ci := 0; ci < total; ci++ {
		child := b
		rem := ci
		degenerate := false
		for k, d := range cutDims {
			c := cuts[k]
			idx := rem % c
			rem /= c
			span := (b.hi[d] - b.lo[d] + 1) / uint64(c)
			if span == 0 {
				degenerate = true
				break
			}
			child.lo[d] = b.lo[d] + uint64(idx)*span
			if idx == c-1 {
				child.hi[d] = b.hi[d]
			} else {
				child.hi[d] = child.lo[d] + span - 1
			}
		}
		if degenerate {
			n.children[ci] = nil
			continue
		}
		var childRules []int
		for _, ri := range movable {
			if ruleIntersectsBox(&hc.rules[ri], &child) {
				childRules = append(childRules, ri)
			}
		}
		if len(childRules) == 0 {
			n.children[ci] = nil
			continue
		}
		n.children[ci] = hc.build(childRules, child, depth+1)
	}
	return n
}

// Classify implements Classifier.
func (hc *HyperCuts) Classify(h *openflow.Header) (int, bool) {
	best := -1
	cost := 0
	n := hc.root
	for n != nil {
		cost += 1 + len(n.local)
		best = scanRules(hc.rules, n.local, h, best)
		if n.children == nil {
			cost += len(n.leafRules)
			best = scanRules(hc.rules, n.leafRules, h, best)
			break
		}
		ci := 0
		mult := 1
		for k, d := range n.cutDims {
			c := n.cuts[k]
			span := (n.b.hi[d] - n.b.lo[d] + 1) / uint64(c)
			idx := 0
			if span > 0 {
				idx = int((headerValue(h, d) - n.b.lo[d]) / span)
				if idx >= c {
					idx = c - 1
				}
			}
			ci += idx * mult
			mult *= c
		}
		n = n.children[ci]
	}
	hc.lastLookup = cost
	if best < 0 {
		return 0, false
	}
	return best, true
}

// MemoryBits implements Classifier: interior nodes store cut headers and
// child pointers; every stored rule reference costs a pointer.
func (hc *HyperCuts) MemoryBits() int {
	const nodeHeader = 64
	const ptr = 24
	return hc.nodes*nodeHeader + hc.storedRefs*ptr + len(hc.rules)*ruleTupleBits
}

// --- HyperSplit --------------------------------------------------------

// HyperSplit is the binary endpoint-splitting tree of Table I's
// Trie-Geometric category.
type HyperSplit struct {
	tree
	root *hsNode
}

type hsNode struct {
	leafRules   []int
	dim         int
	threshold   uint64 // left: value <= threshold
	left, right *hsNode
	local       []int
}

// NewHyperSplit returns an empty HyperSplit classifier.
func NewHyperSplit() *HyperSplit { return &HyperSplit{} }

// Name implements Classifier.
func (hs *HyperSplit) Name() string { return "hypersplit" }

// Build implements Classifier.
func (hs *HyperSplit) Build(rules []filterset.ACLRule) error {
	hs.root = hs.build(hs.reset(rules), fullBox(), 0)
	return nil
}

func (hs *HyperSplit) build(ruleIdx []int, b box, depth int) *hsNode {
	hs.nodes++
	if len(ruleIdx) <= treeBinth || depth >= treeMaxDepth {
		hs.storedRefs += len(ruleIdx)
		return &hsNode{leafRules: ruleIdx, dim: -1}
	}

	// Choose the dimension with the most distinct endpoints within the box
	// and split at the median endpoint.
	bestDim, bestScore := -1, 2
	var bestPoints []uint64
	for d := 0; d < nDims; d++ {
		set := map[uint64]struct{}{}
		for _, ri := range ruleIdx {
			lo, hi := ruleInterval(&hs.rules[ri], d)
			if lo > b.lo[d] && lo <= b.hi[d] {
				set[lo] = struct{}{}
			}
			if hi >= b.lo[d] && hi < b.hi[d] {
				set[hi] = struct{}{}
			}
		}
		if len(set) > bestScore {
			bestScore = len(set)
			bestDim = d
			bestPoints = bestPoints[:0]
			for v := range set {
				bestPoints = append(bestPoints, v)
			}
		}
	}
	if bestDim < 0 {
		hs.storedRefs += len(ruleIdx)
		return &hsNode{leafRules: ruleIdx, dim: -1}
	}
	sort.Slice(bestPoints, func(i, j int) bool { return bestPoints[i] < bestPoints[j] })
	threshold := bestPoints[len(bestPoints)/2]
	if threshold == b.lo[bestDim] {
		// Degenerate split; fall back to a leaf.
		hs.storedRefs += len(ruleIdx)
		return &hsNode{leafRules: ruleIdx, dim: -1}
	}
	threshold-- // left covers [lo, threshold], right [threshold+1, hi]

	var local, movable []int
	for _, ri := range ruleIdx {
		if ruleSpansBoxDim(&hs.rules[ri], &b, bestDim) {
			local = append(local, ri)
		} else {
			movable = append(movable, ri)
		}
	}
	if len(movable) <= treeBinth {
		hs.storedRefs += len(ruleIdx)
		return &hsNode{leafRules: ruleIdx, dim: -1}
	}

	n := &hsNode{dim: bestDim, threshold: threshold, local: local}
	hs.storedRefs += len(local)

	leftBox, rightBox := b, b
	leftBox.hi[bestDim] = threshold
	rightBox.lo[bestDim] = threshold + 1
	var leftRules, rightRules []int
	for _, ri := range movable {
		if ruleIntersectsBox(&hs.rules[ri], &leftBox) {
			leftRules = append(leftRules, ri)
		}
		if ruleIntersectsBox(&hs.rules[ri], &rightBox) {
			rightRules = append(rightRules, ri)
		}
	}
	n.left = hs.build(leftRules, leftBox, depth+1)
	n.right = hs.build(rightRules, rightBox, depth+1)
	return n
}

// Classify implements Classifier.
func (hs *HyperSplit) Classify(h *openflow.Header) (int, bool) {
	best := -1
	cost := 0
	n := hs.root
	for n != nil {
		cost += 1 + len(n.local)
		best = scanRules(hs.rules, n.local, h, best)
		if n.dim < 0 {
			cost += len(n.leafRules)
			best = scanRules(hs.rules, n.leafRules, h, best)
			break
		}
		if headerValue(h, n.dim) <= n.threshold {
			n = n.left
		} else {
			n = n.right
		}
	}
	hs.lastLookup = cost
	if best < 0 {
		return 0, false
	}
	return best, true
}

// MemoryBits implements Classifier.
func (hs *HyperSplit) MemoryBits() int {
	const nodeHeader = 3 + 32 + 2*24
	const ptr = 24
	return hs.nodes*nodeHeader + hs.storedRefs*ptr + len(hs.rules)*ruleTupleBits
}
