package main

import (
	"fmt"
	"io"
)

// ledger sets the isolated stage medians of one batch against the
// end-to-end round trip, and the traced run against the untraced one.
type ledger struct {
	Env    runEnv        `json:"env"`
	Stages []ledgerStage `json:"stages"`
	// StageSumUS adds the medians of the stages a batch crosses in turn.
	StageSumUS float64 `json:"stage_sum_us"`
	// PairedRTTP50US is the RTT p50 of the wire batches interleaved with
	// the replay; RTTP50US is the untraced run's.
	PairedRTTP50US float64 `json:"paired_rtt_p50_us"`
	RTTP50US       float64 `json:"rtt_p50_us"`
	// Residual is PairedRTTP50US minus StageSumUS: loopback TCP,
	// dispatch and the batch fan-out.
	Residual        float64 `json:"wire_residual_us"`
	PktsPerS        float64 `json:"pkts_per_s"`
	TracedPktsPerS  float64 `json:"traced_pkts_per_s"`
	TracingOverhead float64 `json:"tracing_overhead"` // 1 - traced/untraced pkts_per_s
	// Consistent reports Residual >= 0: the isolated stages fit in the
	// end-to-end round trip.
	Consistent bool `json:"consistent"`
}

type ledgerStage struct {
	Name     string  `json:"name"`
	MedianUS float64 `json:"median_us"`
	SelfUS   float64 `json:"self_median_us"`
	Batches  int     `json:"batches"`
}

func newLedger(env runEnv, lt layerTimes, rttP50, pps, tracedPPS float64) *ledger {
	l := &ledger{Env: env, PairedRTTP50US: quantile(lt.pairedRTT, 0.5), RTTP50US: rttP50, PktsPerS: pps, TracedPktsPerS: tracedPPS,
		TracingOverhead: 1 - ratio(tracedPPS, pps)}
	for _, name := range replayStages {
		st := ledgerStage{Name: name, MedianUS: quantile(lt.stage[name], 0.5), SelfUS: quantile(lt.self[name], 0.5), Batches: len(lt.stage[name])}
		l.Stages = append(l.Stages, st)
		l.StageSumUS += st.MedianUS
	}
	l.Residual = l.PairedRTTP50US - l.StageSumUS
	l.Consistent = l.Residual >= 0
	return l
}

func (l *ledger) median(stage string) float64 {
	for _, st := range l.Stages {
		if st.Name == stage {
			return st.MedianUS
		}
	}
	return 0
}

func (l *ledger) print(w io.Writer) {
	fmt.Fprintf(w, "ledger: one %d-packet batch, isolated stage medians against the RTT p50 of interleaved wire batches\n", batchSize)
	for _, st := range l.Stages {
		fmt.Fprintf(w, "  %-22s %10.2f us  self %10.2f us  %5.1f%% of RTT  (%d batches)\n",
			st.Name, st.MedianUS, st.SelfUS, 100*st.MedianUS/l.PairedRTTP50US, st.Batches)
	}
	fmt.Fprintf(w, "  %-22s %10.2f us\n", "stage sum", l.StageSumUS)
	fmt.Fprintf(w, "  %-22s %10.2f us  %5.1f%% of RTT\n", "wire residual", l.Residual, 100*l.Residual/l.PairedRTTP50US)
	fmt.Fprintf(w, "  %-22s %10.2f us  (untraced run %.2f us)\n", "RTT p50", l.PairedRTTP50US, l.RTTP50US)
	fmt.Fprintf(w, "  tracing overhead: %.1f%% of pkts_per_s (untraced %.0f, traced %.0f)\n",
		100*l.TracingOverhead, l.PktsPerS, l.TracedPktsPerS)
	if !l.Consistent {
		fmt.Fprintln(w, "  INCONSISTENT: the isolated stages exceed the end-to-end RTT p50")
	}
}
