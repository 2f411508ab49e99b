package core

import (
	"testing"
	"time"

	"paso/internal/placement"
	"paso/internal/transport"
	"paso/internal/tuple"
)

// Engine-level sharded-placement tests: Config.Placement spreads per-class
// sequencing across machines while every PASO primitive keeps its
// semantics.

func placedConfig() Config {
	cfg := testConfig()
	cfg.Placement = true
	return cfg
}

func namedTuple(name string, n int64) tuple.Tuple {
	return tuple.Make(tuple.String(name), tuple.Int(n))
}

func namedTpl(name string, n int64) tuple.Template {
	return tuple.NewTemplate(tuple.Eq(tuple.String(name)), tuple.Eq(tuple.Int(n)))
}

// TestPlacedClusterOpsAndSpread runs the primitive suite under placement
// and checks the construction-time invariants: supports co-locate with the
// placed coordinator and no machine exceeds the spread cap.
func TestPlacedClusterOpsAndSpread(t *testing.T) {
	cfg := placedConfig()
	c := newTestCluster(t, cfg, 4)

	pol := placement.New(cfg.Classifier.Classes(), cfg.Lambda)
	asn := pol.Assign([]transport.NodeID{1, 2, 3, 4})
	for _, cls := range c.Classes() {
		sup := c.Support(cls)
		if len(sup) == 0 || sup[0] != asn.Coord[cls] {
			t.Fatalf("class %s: support %v does not lead with placed coordinator %d", cls, sup, asn.Coord[cls])
		}
	}
	for id, count := range placement.CoordCounts(asn) {
		if count > asn.Cap {
			t.Fatalf("machine %d coordinates %d classes, cap %d", id, count, asn.Cap)
		}
	}

	names := []string{"task", "result", "item"}
	for i := int64(0); i < 9; i++ {
		if _, err := c.Machine(transport.NodeID(i%4 + 1)).Insert(namedTuple(names[i%3], i)); err != nil {
			t.Fatalf("insert %s %d: %v", names[i%3], i, err)
		}
	}
	for i := int64(0); i < 9; i++ {
		got, ok, err := c.Machine(transport.NodeID((i+1)%4 + 1)).Read(namedTpl(names[i%3], i))
		if err != nil || !ok {
			t.Fatalf("read %s %d: %v ok=%v", names[i%3], i, err, ok)
		}
		if got.Field(1).MustInt() != i {
			t.Fatalf("read %s %d returned %v", names[i%3], i, got)
		}
	}
	if _, ok, err := c.Machine(2).ReadDel(namedTpl("task", 0)); err != nil || !ok {
		t.Fatalf("read&del: %v ok=%v", err, ok)
	}
	if _, ok, _ := c.Machine(3).Read(namedTpl("task", 0)); ok {
		t.Fatal("object readable after read&del")
	}
}

// TestPlacedClusterCrashIsolation crashes one class's placed coordinator:
// a class owned elsewhere keeps serving without interruption, and the
// orphaned class's operations succeed again once its groups recover on the
// new owner.
func TestPlacedClusterCrashIsolation(t *testing.T) {
	cfg := placedConfig()
	c := newTestCluster(t, cfg, 4)

	pol := placement.New(cfg.Classifier.Classes(), cfg.Lambda)
	asn := pol.Assign([]transport.NodeID{1, 2, 3, 4})
	// Pick two driveable (name, arity-2) classes with distinct owners.
	names := []string{"task", "result", "item"}
	victimName, liveName := "", ""
	for _, a := range names {
		for _, b := range names {
			ca := asn.Coord[cfg.Classifier.ClassOf(namedTuple(a, 0))]
			cb := asn.Coord[cfg.Classifier.ClassOf(namedTuple(b, 0))]
			if ca != cb {
				victimName, liveName = a, b
			}
		}
	}
	if victimName == "" {
		t.Fatal("all sample classes placed on one machine; spread cap broken")
	}
	victim := asn.Coord[cfg.Classifier.ClassOf(namedTuple(victimName, 0))]
	survivor := transport.NodeID(1)
	if victim == survivor {
		survivor = 2
	}

	for i := int64(0); i < 4; i++ {
		if _, err := c.Machine(survivor).Insert(namedTuple(victimName, i)); err != nil {
			t.Fatalf("pre-crash insert %s: %v", victimName, err)
		}
		if _, err := c.Machine(survivor).Insert(namedTuple(liveName, i)); err != nil {
			t.Fatalf("pre-crash insert %s: %v", liveName, err)
		}
	}
	c.Crash(victim)

	// The class owned by a live machine answers immediately.
	if _, ok, err := c.Machine(survivor).Read(namedTpl(liveName, 1)); err != nil || !ok {
		t.Fatalf("read of unaffected class after crash: %v ok=%v", err, ok)
	}
	// The orphaned class recovers on its new owner and serves again,
	// including writes, without losing the pre-crash objects.
	deadline := time.Now().Add(10 * time.Second)
	for {
		_, ok, err := c.Machine(survivor).Read(namedTpl(victimName, 1))
		if err == nil && ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("orphaned class %s never recovered: %v ok=%v", victimName, err, ok)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, err := c.Machine(survivor).Insert(namedTuple(victimName, 100)); err != nil {
		t.Fatalf("post-crash insert into orphaned class: %v", err)
	}
	if _, ok, err := c.Machine(survivor).Read(namedTpl(victimName, 100)); err != nil || !ok {
		t.Fatalf("read back post-crash insert: %v ok=%v", err, ok)
	}
	if err := c.CheckFaultTolerance(); err != nil {
		t.Fatalf("fault-tolerance condition after one crash: %v", err)
	}
}
