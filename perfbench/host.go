package main

import (
	"fmt"
	"runtime"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The timed end-to-end metrics are reported at a reference host speed.
// On a shared VM the host's memory latency moves by half within minutes,
// and every timed figure moves with it, whatever the code. A probe that
// runs none of the repository's code measures that latency between the
// measured windows; the timed metrics are scaled by reference/measured.
//
// The probe is a chain of dependent loads through a ring far larger than
// the last-level cache, one chain per P, all at once: each load misses
// the caches and the TLB, as the switch's walks and cache probes do over
// its 270 MiB heap. The ring is mapped outside the Go heap, so it changes
// neither the collector's pacing nor heap_live_mib.
const (
	probeSlots = 1 << 25 // uint32 slots: 128 MiB
	probeLoads = 450_000 // dependent loads per chain per probe, about 130 ms
	// refLoadNS is the reference host: one probe load takes 250 ns.
	refLoadNS = 250
	// idleBlocks is the number of blocks the idle commit phase is run
	// in, with a probe after each.
	idleBlocks = 10
)

// hostProbe is the probe's ring. slot i holds the next slot to load,
// (a*i + c) mod len: with len a power of two, c odd and a-1 a multiple
// of 4 that is one cycle through every slot (Hull-Dobell).
type hostProbe struct {
	mem  []byte
	ring []uint32
	sink uint32 // keeps the chains' results live
}

func newHostProbe(slots int) (*hostProbe, error) {
	if slots < 2 || slots&(slots-1) != 0 {
		return nil, fmt.Errorf("probe ring of %d slots is not a power of two", slots)
	}
	mem, err := syscall.Mmap(-1, 0, slots*4, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("mapping the probe ring: %w", err)
	}
	const a, c = 1664525, 1013904223
	ring := unsafe.Slice((*uint32)(unsafe.Pointer(&mem[0])), slots)
	for i := range ring {
		ring[i] = uint32((a*uint64(i) + c) & uint64(slots-1))
	}
	return &hostProbe{mem: mem, ring: ring}, nil
}

func (h *hostProbe) close() error {
	h.ring = nil
	return syscall.Munmap(h.mem)
}

// loadNS runs one probe and returns its wall time per load of one chain.
func (h *hostProbe) loadNS() float64 {
	chains := runtime.GOMAXPROCS(0)
	ends := make([]uint32, chains)
	var wg sync.WaitGroup
	start := time.Now()
	for g := range chains {
		wg.Add(1)
		go func() {
			defer wg.Done()
			x := uint32(g * len(h.ring) / chains)
			for range probeLoads {
				x = h.ring[x]
			}
			ends[g] = x
		}()
	}
	wg.Wait()
	d := time.Since(start)
	for _, x := range ends {
		h.sink ^= x
	}
	return float64(d) / probeLoads
}

// hostFactor is how much slower than the reference host the probes in
// ns found it: the median probe over refLoadNS. A timed figure divided by
// it, or a rate multiplied by it, is the figure at the reference speed.
func hostFactor(ns []float64) float64 {
	return quantile(ns, 0.5) / refLoadNS
}
