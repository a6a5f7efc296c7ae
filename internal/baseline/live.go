package baseline

import (
	"fmt"

	"ofmtl/internal/core"
	"ofmtl/internal/filterset"
	"ofmtl/internal/openflow"
)

// aclFields is the 5-tuple field set of every Live table, the table
// core.BuildACL configures.
var aclFields = []openflow.FieldID{
	openflow.FieldIPv4Src, openflow.FieldIPv4Dst,
	openflow.FieldSrcPort, openflow.FieldDstPort, openflow.FieldIPProto,
}

// Live is a Table I row served by one of the switch's own lookup
// backends: Build installs the rules into a core.LookupTable on that
// backend, so the row measures the structure the switch runs.
//
//   - tcam prices the lineartcam backend as hardware: its ternary array
//     (expanded rows × value+mask bits), one parallel search, and a
//     priority-ordered insert that shifts half the rows.
//   - linear prices the same backend as the software scan it performs:
//     each rule stored once as a plain tuple, read up to the winning row.
//   - tss reports the tss backend: its hashed entries, spill rows and
//     tuple directory, one probe per non-empty tuple and spill row, and a
//     one-record hash insert.
//
// Memory leaves out the action rows the backends also account, which
// none of the Table I estimators model.
type Live struct {
	name     string
	category Category
	backend  string

	table  *core.LookupTable
	rules  int
	probes int // tss: non-empty tuples + spill rows
	last   int
}

// Name implements Classifier.
func (l *Live) Name() string { return l.name }

// Category implements Classifier.
func (l *Live) Category() Category { return l.category }

// Build implements Classifier: the rules become ACL flow entries (rule i
// at priority n−i) in a fresh table on the row's backend.
func (l *Live) Build(rules []filterset.ACLRule) error {
	t, err := core.NewLookupTable(core.TableConfig{Fields: aclFields, Backend: l.backend})
	if err != nil {
		return err
	}
	entries := (&filterset.ACLFilter{Rules: rules}).FlowEntries()
	for i := range entries {
		if err := t.Insert(&entries[i]); err != nil {
			return fmt.Errorf("baseline: %s rule %d: %w", l.name, i, err)
		}
	}
	tuples, spill := t.Tuples()
	l.table, l.rules, l.probes = t, len(rules), tuples+spill
	return nil
}

// Classify implements Classifier. The rule index is n − Priority.
func (l *Live) Classify(h *openflow.Header) (int, bool) {
	m, ok := l.table.Classify(h)
	idx := l.rules - m.Priority
	switch {
	case l.name == "tcam":
		l.last = 1
	case l.name == "tss":
		l.last = l.probes
	case ok:
		// Priorities are distinct, so the lineartcam scan finds rule idx
		// at row idx+1; a miss reads every row.
		l.last = idx + 1
	default:
		l.last = l.rules
	}
	if !ok {
		return 0, false
	}
	return idx, true
}

// Entries returns the rows the structure stores: the expanded ternary
// rows for tcam (the range-expansion blow-up over the rule count), one
// per rule otherwise.
func (l *Live) Entries() int {
	if l.name == "tcam" {
		return int(l.table.Memory().SearchBits) / (2 * ruleTupleBits)
	}
	return l.rules
}

// MemoryBits implements Classifier: the backend's live search and index
// bits; the linear scan's rule list holds one plain tuple per rule.
func (l *Live) MemoryBits() int {
	if l.name == "linear" {
		return l.rules * ruleTupleBits
	}
	m := l.table.Memory()
	return int(m.SearchBits + m.IndexBits)
}

// LookupCost implements Classifier.
func (l *Live) LookupCost() int { return l.last }

// UpdateCost implements Classifier: a priority-ordered TCAM insert shifts
// on average half the rows; a list append or hash insert writes one.
func (l *Live) UpdateCost() int {
	if l.name == "tcam" {
		return l.Entries()/2 + 1
	}
	return 1
}
