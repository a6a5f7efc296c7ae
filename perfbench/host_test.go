package main

import "testing"

// TestProbeRing checks that the probe's chain visits every slot of its
// ring before it returns to the start, so no probe loops in a cached
// corner of the ring.
func TestProbeRing(t *testing.T) {
	const slots = 1 << 12
	h, err := newHostProbe(slots)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := h.close(); err != nil {
			t.Error(err)
		}
	}()
	x, n := h.ring[0], 1
	for ; x != 0 && n <= slots; n++ {
		x = h.ring[x]
	}
	if n != slots {
		t.Errorf("the chain from slot 0 returns after %d loads, want %d", n, slots)
	}
	if ns := h.loadNS(); ns <= 0 {
		t.Errorf("probe measured %v ns per load", ns)
	}
	if _, err := newHostProbe(3 << 10); err == nil {
		t.Error("a ring of 3072 slots was accepted")
	}
}
