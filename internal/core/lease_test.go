package core

import (
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"paso/internal/class"
	"paso/internal/obs"
	"paso/internal/semantics"
	"paso/internal/transport"
)

// leaseTestConfig pins an explicit round-robin support map (the same shape
// NewCluster would derive) so every machine can see wg(C) membership in its
// own cfg — the lease target source in non-placed clusters — and turns the
// leased-read fast path on.
func leaseTestConfig(n int) Config {
	cfg := testConfig()
	cfg.LeasedReads = true
	classes := cfg.Classifier.Classes()
	sort.Slice(classes, func(i, j int) bool { return classes[i] < classes[j] })
	sup := make(map[class.ID][]transport.NodeID, len(classes))
	for i, cls := range classes {
		ids := make([]transport.NodeID, 0, cfg.Lambda+1)
		for k := 0; k <= cfg.Lambda; k++ {
			ids = append(ids, transport.NodeID((i+k)%n+1))
		}
		sup[cls] = ids
	}
	cfg.Support = sup
	return cfg
}

// leaseOutsider returns a machine ID outside the class's support set.
func leaseOutsider(t *testing.T, sup []transport.NodeID, n int) transport.NodeID {
	t.Helper()
	in := make(map[transport.NodeID]bool, len(sup))
	for _, id := range sup {
		in[id] = true
	}
	for id := transport.NodeID(1); id <= transport.NodeID(n); id++ {
		if !in[id] {
			return id
		}
	}
	t.Fatal("no machine outside the support set")
	return 0
}

// TestLeasedReadFastPath drives reads from a non-member with leases on and
// asserts the steady-view criterion: the fast path serves (well over) 90%
// of them, the OpReadLeased stats row carries them, the §3.3 audit prices
// the ordering cost they saved, and the serve-side stage reads real time.
func TestLeasedReadFastPath(t *testing.T) {
	const n = 4
	cfg := leaseTestConfig(n)
	o := obs.New(obs.Options{})
	cfg.Obs = o
	c := newTestCluster(t, cfg, n)

	cls := cfg.Classifier.ClassOf(taskTuple(7))
	sup := cfg.Support[cls]
	m := c.Machine(leaseOutsider(t, sup, n))

	if _, err := c.Machine(sup[0]).Insert(taskTuple(7)); err != nil {
		t.Fatal(err)
	}

	const reads = 50
	for i := 0; i < reads; i++ {
		obj, ok, err := m.Read(taskTplExact(7))
		if err != nil || !ok {
			t.Fatalf("read %d: %v ok=%v", i, err, ok)
		}
		if obj.Arity() != 2 {
			t.Fatalf("read %d returned wrong tuple %v", i, obj)
		}
	}

	leased, fallback, saved := m.LeaseStats()
	if leased+fallback != reads {
		t.Fatalf("leased=%d fallback=%d, want %d attempts total", leased, fallback, reads)
	}
	if frac := float64(leased) / float64(reads); frac < 0.9 {
		t.Errorf("leased fraction %.2f < 0.90 in a steady view (leased=%d fallback=%d)",
			frac, leased, fallback)
	}
	if saved <= 0 {
		t.Error("no §3.3 saving accounted for leased reads")
	}
	st := m.Stats()
	if got := int64(st[OpReadLeased].Count); got != leased {
		t.Errorf("OpReadLeased stats count = %d, want %d", got, leased)
	}
	if got := int64(st[OpReadRemote].Count); got != fallback {
		t.Errorf("OpReadRemote stats count = %d, want the %d fallbacks", got, fallback)
	}

	rep := m.RenderLeaseReport()
	for _, want := range []string{string(cls), "saved msg-cost"} {
		if !strings.Contains(rep, want) {
			t.Errorf("lease report missing %q:\n%s", want, rep)
		}
	}
	serve := obs.StageSnapshots(o.Reg())[obs.StageLeaseServe]
	if serve.Count == 0 || serve.Sum <= 0 {
		t.Errorf("stage.lease.serve reads count=%d sum=%g, want both > 0", serve.Count, serve.Sum)
	}
}

// TestStatsCommandRendersLeaseTable checks the wire-protocol `stats` verb
// (pasoctl stats) appends the per-class leased/fallback table when the fast
// path is on.
func TestStatsCommandRendersLeaseTable(t *testing.T) {
	const n = 4
	cfg := leaseTestConfig(n)
	c := newTestCluster(t, cfg, n)

	cls := cfg.Classifier.ClassOf(taskTuple(3))
	m := c.Machine(leaseOutsider(t, cfg.Support[cls], n))
	if _, err := c.Machine(cfg.Support[cls][0]).Insert(taskTuple(3)); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := m.Read(taskTplExact(3)); err != nil || !ok {
		t.Fatalf("read: %v ok=%v", err, ok)
	}

	resp := ExecuteCommand(m, "stats")
	for _, want := range []string{"read-leased", "leases", string(cls)} {
		if !strings.Contains(resp, want) {
			t.Errorf("stats response missing %q:\n%s", want, resp)
		}
	}
}

// TestLeasedReadMissFallsThrough checks a leased miss is a real answer, not
// a fallback: the member answers "no match" under the lease and the read
// completes without touching the ordered path.
func TestLeasedReadMissFallsThrough(t *testing.T) {
	const n = 4
	cfg := leaseTestConfig(n)
	c := newTestCluster(t, cfg, n)

	cls := cfg.Classifier.ClassOf(taskTuple(1))
	m := c.Machine(leaseOutsider(t, cfg.Support[cls], n))

	_, ok, err := m.Read(taskTplExact(99))
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("read of absent tuple reported a match")
	}
	leased, fallback, _ := m.LeaseStats()
	if leased != 1 || fallback != 0 {
		t.Errorf("leased=%d fallback=%d, want the miss served on the fast path", leased, fallback)
	}
}

// TestLeasedReadStormMemberCrash crashes a wg(C) member in the middle of a
// leased read storm and asserts zero stale reads: every read either leased
// from a live member under a matching epoch or fell back to the ordered
// path, so the merged history must satisfy the A1–A3 semantics exactly as
// with leases off.
func TestLeasedReadStormMemberCrash(t *testing.T) {
	const (
		n          = 5
		inserts    = 20
		perReader  = 120
		crashAfter = 60 // total reads before the member dies
	)
	cfg := leaseTestConfig(n)
	c := newTestCluster(t, cfg, n)

	cls := cfg.Classifier.ClassOf(taskTuple(0))
	sup := cfg.Support[cls]
	rec := semantics.NewRecorder()

	writer := c.Machine(sup[0])
	for i := int64(0); i < inserts; i++ {
		start := rec.Begin()
		obj, err := writer.Insert(taskTuple(i))
		rec.EndInsert(int(sup[0]), start, obj, err)
		if err != nil {
			t.Fatal(err)
		}
	}

	// Readers are all the machines outside wg(C); every read goes through
	// the leased path until the crash fences it mid-flight.
	var readers []*Machine
	in := make(map[transport.NodeID]bool, len(sup))
	for _, id := range sup {
		in[id] = true
	}
	for id := transport.NodeID(1); id <= transport.NodeID(n); id++ {
		if !in[id] {
			readers = append(readers, c.Machine(id))
		}
	}

	var done int64
	crashed := make(chan struct{})
	var wg sync.WaitGroup
	for _, m := range readers {
		wg.Add(1)
		go func(m *Machine) {
			defer wg.Done()
			for i := int64(0); i < perReader; i++ {
				start := rec.Begin()
				obj, ok, err := m.Read(taskTplExact(i % inserts))
				rec.EndRead(int(m.ID()), start, obj, ok && err == nil)
				atomic.AddInt64(&done, 1)
			}
		}(m)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(crashed)
		for atomic.LoadInt64(&done) < crashAfter {
		}
		c.Crash(sup[1])
	}()
	wg.Wait()
	<-crashed

	if viol := semantics.Check(rec.History()); len(viol) != 0 {
		for _, v := range viol {
			t.Errorf("semantics violation: %v", v)
		}
		t.Fatalf("%d stale/inconsistent reads under the crashed lease", len(viol))
	}
	if err := c.CheckFaultTolerance(); err != nil {
		t.Fatalf("fault tolerance after crash: %v", err)
	}

	var leased int64
	for _, m := range readers {
		l, _, _ := m.LeaseStats()
		leased += l
	}
	if leased == 0 {
		t.Error("storm never exercised the fast path")
	}
}
