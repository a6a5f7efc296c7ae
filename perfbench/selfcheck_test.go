package main

import (
	"encoding/json"
	"maps"
	"os"
	"slices"
	"testing"
)

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

func readSpec(t *testing.T) spec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatalf("parsing BENCHMARK.json: %v", err)
	}
	return s
}

func checkEmitted(t *testing.T, want []specMetric, got []metric) {
	t.Helper()
	for _, w := range want {
		i := slices.IndexFunc(got, func(m metric) bool { return m.Name == w.Name })
		switch {
		case i < 0:
			t.Errorf("metric %s not emitted", w.Name)
		case got[i].Unit != w.Unit:
			t.Errorf("metric %s emitted in %q, BENCHMARK.json says %q", w.Name, got[i].Unit, w.Unit)
		}
	}
}

func failRatio(t *testing.T, res *result) float64 {
	t.Helper()
	i := slices.IndexFunc(res.perLayer, func(m metric) bool { return m.Name == "fail_ratio" })
	if i < 0 {
		t.Fatal("fail_ratio not emitted")
	}
	return res.perLayer[i].Value
}

// TestSelfCheck runs every workload briefly, traced, and checks that each
// metric BENCHMARK.json names is emitted with its unit, that no reply or
// commit failed and that the ledger adds up. churn_mac_zipf is run too,
// though BENCHMARK.json does not list it.
func TestSelfCheck(t *testing.T) {
	if testing.Short() {
		t.Skip("brings the 192k-rule switch up several times")
	}
	s := readSpec(t)
	for _, w := range s.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %s is not defined", w.Name)
		}
	}
	names := slices.Sorted(maps.Keys(workloads))
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			res, err := bench(config{workload: name, seed: 7, seconds: 4, trace: true, out: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			checkEmitted(t, s.EndToEnd, res.endToEnd)
			checkEmitted(t, s.PerLayer, res.perLayer)
			if res.failed != 0 || failRatio(t, res) != 0 {
				t.Errorf("%d of %d operations failed", res.failed, res.attempted)
			}
			t.Logf("ledger: stages %.1f us of the %.1f us RTT p50", res.ledger.StageSumUS, res.ledger.PairedRTTP50US)
			if !res.ledger.Consistent {
				t.Errorf("ledger stages sum to %.1f us, over the %.1f us RTT p50", res.ledger.StageSumUS, res.ledger.PairedRTTP50US)
			}
		})
	}
}

// TestPlantedFault checks that the verifier catches one wrong expected
// reply.
func TestPlantedFault(t *testing.T) {
	if testing.Short() {
		t.Skip("brings the 192k-rule switch up twice")
	}
	res, err := bench(config{workload: "hot_mac_zipf", seed: 7, seconds: 1, trace: true, out: t.TempDir(), plant: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.failed == 0 || failRatio(t, res) <= 0 {
		t.Errorf("planted fault not caught: %d of %d operations failed", res.failed, res.attempted)
	}
}
