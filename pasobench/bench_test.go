package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"paso/internal/semantics"
)

// contract is the part of BENCHMARK.json the self-test checks against.
type contract struct {
	EndToEnd []struct{ Name string } `json:"end_to_end"`
	PerLayer []struct{ Name string } `json:"per_layer"`
}

func loadContract(t *testing.T) contract {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatalf("read BENCHMARK.json: %v", err)
	}
	var c contract
	if err := json.Unmarshal(b, &c); err != nil {
		t.Fatalf("parse BENCHMARK.json: %v", err)
	}
	return c
}

// TestWorkloads runs every workload briefly, traced, and checks that the
// gate passes and that both result lines carry exactly the metrics
// BENCHMARK.json names.
func TestWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a loopback-TCP cluster for several seconds per workload")
	}
	c := loadContract(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			// Failover rounds must outlast the 500 ms failure detector.
			seconds := 2
			if w.crash {
				seconds = 5
			}
			rep, err := bench(options{workload: w, seed: 7, seconds: seconds, trace: true})
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range rep.violations() {
				t.Errorf("violation: %s", v)
			}
			for _, trace := range []bool{false, true} {
				res := rep.result(trace)
				if !res.Correct || res.Attempted == 0 {
					t.Errorf("trace=%v: correct=%v attempted=%d", trace, res.Correct, res.Attempted)
				}
				want := c.EndToEnd
				if trace {
					want = c.PerLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("trace=%v: %d metrics, BENCHMARK.json names %d", trace, len(res.Metrics), len(want))
				}
				for _, m := range want {
					if _, ok := res.Metrics[m.Name]; !ok {
						t.Errorf("trace=%v: metric %s missing", trace, m.Name)
					}
				}
			}
			if res := rep.result(false); res.Failed != 0 && !w.crash {
				t.Errorf("%d of %d ops failed", res.Failed, res.Attempted)
			}
		})
	}
}

// TestGateCatchesDuplicatedTake doctors a passing tasks history with a
// second successful take of an already-taken task, which the gate must
// report both as a semantics violation and as a bag that no longer adds up.
func TestGateCatchesDuplicatedTake(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a loopback-TCP cluster")
	}
	w, _ := findWorkload("tasks")
	r, _, err := execute(w, 3, 0, 300*time.Millisecond, false)
	if err != nil {
		t.Fatal(err)
	}
	r.c.stop()
	if v := r.verdict(); len(v) != 0 {
		t.Fatalf("undoctored run fails the gate: %v", v)
	}
	log := r.logs[0]
	for _, rec := range log.recs {
		if rec.Type == semantics.OpReadDel && rec.OK {
			dup := rec
			dup.Start, dup.End = r.tick(), r.tick()
			log.recs = append(log.recs, dup)
			break
		}
	}
	v := strings.Join(r.verdict(), "\n")
	for _, want := range []string{"A2b", "bag holds"} {
		if !strings.Contains(v, want) {
			t.Errorf("doctored history: no %q violation in\n%s", want, v)
		}
	}
}
