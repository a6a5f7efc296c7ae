package main

import (
	"sync"
	"syscall"
	"time"

	"ofmtl/internal/ofproto"
)

// window is the span every packet-loop figure is taken over; the run
// reports the median window, so a few disturbed seconds on a shared
// machine do not move the result. Two seconds hold enough batches for
// ten beyond the p99 even on cold_route_walk. The host probe runs
// between windows, outside them.
const window = 2 * time.Second

// pktStats is what the closed packet loop measured.
type pktStats struct {
	pkts, bad int       // packets sent, wrong or lost replies
	rtt       []float64 // µs per batch round trip
	// Per window: packets/s, CPU ns/packet, RTT p50 and p99 in µs.
	pps, cpuNS, p50, p99 []float64
	probeNS              []float64 // host probe after each window
	next                 int       // batch index the loop stopped at
}

// commitStats is what the open-loop flow-mod schedule measured.
type commitStats struct {
	batches, bad int
	lat, late    []float64 // ms from the due time to the reply / the send
}

// packetLoop keeps one SendPackets batch outstanding on c, starting at
// batch k, until end, checking every reply. A non-nil probe runs after
// each window.
func packetLoop(c *ofproto.Client, g *gen, k int, end time.Time, tr *tracer, probe *hostProbe) pktStats {
	st := pktStats{rtt: make([]float64, 0, 1<<17)}
	winStart, winPkts, winCPU, winRTT := time.Now(), 0, cpuNow(), 0
	for ; ; k++ {
		sent := time.Now()
		if !sent.Before(end) {
			break
		}
		hs := g.batch(k)
		got, err := c.SendPackets(hs)
		done := time.Now()
		tr.record("client.send_packets", k%g.batches(), sent, done)
		st.pkts += len(hs)
		winPkts += len(hs)
		if err != nil {
			st.bad += len(hs)
			break
		}
		st.bad += g.check(k, got)
		st.rtt = append(st.rtt, float64(done.Sub(sent))/1e3)
		if done.Sub(winStart) >= window || !done.Before(end) {
			cpu := cpuNow()
			st.pps = append(st.pps, float64(winPkts)/done.Sub(winStart).Seconds())
			st.cpuNS = append(st.cpuNS, float64(cpu-winCPU)/float64(winPkts))
			st.p50 = append(st.p50, quantile(st.rtt[winRTT:], 0.5))
			st.p99 = append(st.p99, quantile(st.rtt[winRTT:], 0.99))
			if probe != nil {
				st.probeNS = append(st.probeNS, probe.loadNS())
				done, cpu = time.Now(), cpuNow()
			}
			winStart, winPkts, winCPU, winRTT = done, 0, cpu, len(st.rtt)
		}
	}
	st.next = k
	return st
}

// commitLoop sends the churn batches on c on a fixed schedule, one every
// churnPeriod from start, while more(k, due) holds, and times each from
// its due time. It leaves the toggled rules installed.
func commitLoop(c *ofproto.Client, g *gen, start time.Time, more func(k int, due time.Time) bool, tr *tracer) commitStats {
	var st commitStats
	k := 0
	for ; ; k++ {
		due := start.Add(time.Duration(k) * churnPeriod)
		if !more(k, due) {
			break
		}
		time.Sleep(time.Until(due))
		sent := time.Now()
		rep, err := c.SendFlowMods(g.churn[k%2])
		done := time.Now()
		tr.record("client.send_flowmods", -1, sent, done)
		st.batches++
		if !checkCommit(k%2, rep, err) {
			st.bad++
		}
		st.lat = append(st.lat, float64(done.Sub(due))/1e6)
		st.late = append(st.late, float64(sent.Sub(due))/1e6)
	}
	if k%2 == 1 {
		rep, err := c.SendFlowMods(g.churn[1])
		st.batches++
		if !checkCommit(1, rep, err) {
			st.bad++
		}
	}
	return st
}

// drive runs the closed packet loop for d from batch k, probing the host
// between its windows, and, for churn workloads, the flow-mod schedule
// beside it on the second connection.
func drive(rg *rig, g *gen, k int, d time.Duration, churn bool, tr *tracer, probe *hostProbe) (pktStats, commitStats) {
	start := time.Now()
	end := start.Add(d)
	var cs commitStats
	var wg sync.WaitGroup
	if churn {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cs = commitLoop(rg.ctl, g, start, func(_ int, due time.Time) bool { return due.Before(end) }, tr)
		}()
	}
	ps := packetLoop(rg.pkt, g, k, end, tr, probe)
	wg.Wait()
	return ps, cs
}

// cpuNow returns the process's user+system CPU time in nanoseconds.
func cpuNow() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}
