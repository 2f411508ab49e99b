package core

import (
	"testing"

	"paso/internal/obs"
	"paso/internal/transport"
)

// TestStageReadingsNest checks that the delivery-side stage histograms read
// real time: after a burst of ordered inserts into a cluster sharing one
// Obs, stage.deliver has observations with a positive sum, and that sum
// covers stage.store.apply's — the store mutation runs inside the delivery
// handler, so every apply interval nests inside a deliver interval.
func TestStageReadingsNest(t *testing.T) {
	o := obs.New(obs.Options{})
	cfg := testConfig()
	cfg.Obs = o
	const n = 4
	c := newTestCluster(t, cfg, n)
	for i := 0; i < 200; i++ {
		if _, err := c.Machine(transport.NodeID(i%n + 1)).Insert(taskTuple(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	st := obs.StageSnapshots(o.Reg())
	deliver, apply := st[obs.StageDeliver], st[obs.StageStoreApply]
	if deliver.Count == 0 || deliver.Sum <= 0 {
		t.Fatalf("stage.deliver reads count=%d sum=%g, want both > 0", deliver.Count, deliver.Sum)
	}
	if apply.Count == 0 || apply.Sum <= 0 {
		t.Fatalf("stage.store.apply reads count=%d sum=%g, want both > 0", apply.Count, apply.Sum)
	}
	if deliver.Sum < apply.Sum {
		t.Fatalf("stage.deliver sum %gs < nested stage.store.apply sum %gs", deliver.Sum, apply.Sum)
	}
}
