package vsync

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"paso/internal/cost"
	"paso/internal/obs"
	"paso/internal/simnet"
	"paso/internal/transport"
)

// TestPipelinedGcastCoordinatorCrash drives many pipelined gcasts (several
// concurrent issuers per node, so the coordinator's loop sees bursts and
// coalesces tOrdered/tAck traffic into tBatch frames) while the
// coordinator crashes mid-burst. Every gcast that reported success must
// appear in every surviving member's log exactly once, and the logs must
// agree — the §3.2 guarantees with batched delivery on the wire.
func TestPipelinedGcastCoordinatorCrash(t *testing.T) {
	if testing.Short() {
		t.Skip("churn test skipped in -short mode")
	}
	const (
		nodes     = 5
		issuers   = 4  // concurrent gcast goroutines per node
		perIssuer = 20 // gcasts per goroutine
	)
	net := simnet.New(cost.DefaultModel())
	nds := make(map[transport.NodeID]*Node, nodes)
	hs := make(map[transport.NodeID]*testHandler, nodes)
	os := make(map[transport.NodeID]*obs.Obs, nodes)
	for id := transport.NodeID(1); id <= nodes; id++ {
		ep, err := net.Join(id)
		if err != nil {
			t.Fatal(err)
		}
		th := newTestHandler()
		o := obs.New(obs.Options{})
		nds[id] = NewNodeWith(ep, th, o)
		hs[id] = th
		os[id] = o
	}
	t.Cleanup(func() {
		for _, nd := range nds {
			nd.Close()
		}
	})
	for id := transport.NodeID(1); id <= nodes; id++ {
		if err := nds[id].Join("g"); err != nil {
			t.Fatal(err)
		}
	}

	// Pipelined burst from every node; successes recorded per payload.
	var succeeded sync.Map // payload string → true
	var wg sync.WaitGroup
	for id := transport.NodeID(1); id <= nodes; id++ {
		for w := 0; w < issuers; w++ {
			wg.Add(1)
			go func(id transport.NodeID, nd *Node, w int) {
				defer wg.Done()
				for m := 0; m < perIssuer; m++ {
					payload := fmt.Sprintf("n%d-w%d-m%d", id, w, m)
					res, err := nd.Gcast("g", []byte(payload))
					// Errors and fails are tolerated only around the
					// crash window; successes must be delivered.
					if err == nil && !res.Fail {
						succeeded.Store(payload, true)
					}
				}
			}(id, nds[id], w)
		}
	}
	// Crash the coordinator (lowest live ID) mid-burst. The survivors'
	// recovery protocol must rebuild sequencing state and the retransmitted
	// requests must dedup, batched frames included.
	time.Sleep(2 * time.Millisecond)
	net.Crash(1)
	nds[1].Close()
	delete(nds, 1)
	delete(hs, 1)
	wg.Wait()

	// Quiesce and converge.
	var survivor *Node
	for _, nd := range nds {
		survivor = nd
		break
	}
	if _, err := survivor.Gcast("g", []byte("final")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "logs converge", func() bool {
		length := -1
		for id, nd := range nds {
			if !nd.Member("g") {
				continue
			}
			got := len(hs[id].log("g"))
			if length == -1 {
				length = got
				continue
			}
			if got != length {
				return false
			}
		}
		return true
	})

	// All member logs identical and duplicate-free.
	var ref []string
	var refID transport.NodeID
	for id, nd := range nds {
		if !nd.Member("g") {
			continue
		}
		got := hs[id].log("g")
		if ref == nil {
			ref, refID = got, id
			continue
		}
		if len(got) != len(ref) {
			t.Fatalf("log length mismatch: node %d has %d, node %d has %d",
				id, len(got), refID, len(ref))
		}
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("order divergence at %d: node %d %q vs node %d %q",
					i, id, got[i], refID, ref[i])
			}
		}
	}
	seen := make(map[string]int, len(ref))
	for _, m := range ref {
		seen[m]++
		if seen[m] > 1 {
			t.Fatalf("duplicate delivery %q", m)
		}
	}
	// Exactly-once for every acknowledged gcast: a success means every
	// member acked the ordered event before the reply, so survivors must
	// hold it.
	succeeded.Range(func(k, _ any) bool {
		if seen[k.(string)] != 1 {
			t.Errorf("successful gcast %q delivered %d times", k, seen[k.(string)])
		}
		return true
	})

	// The pipelined load must actually have exercised the batch path; a
	// regression that stops coalescing would pass the ordering checks
	// silently without this.
	var batches int64
	for _, o := range os {
		batches += o.Counter("vsync.batch.sends").Value()
	}
	if batches == 0 {
		t.Fatal("no tBatch frames sent under pipelined load")
	}
}

// TestSeqRangeCrashPartialDelivery targets the batched-ordering recovery
// case: the coordinator allocates a contiguous sequence range (tOrderedRun)
// that reaches only part of the group — one member's link is cut — and then
// crashes. The survivors' recovery must rebuild sequencing state from the
// highest delivered sequence, resync the laggard by state transfer, and
// dedup the clients' retransmissions, so the final logs have no gap and no
// duplicate even though the range was torn mid-flight.
func TestSeqRangeCrashPartialDelivery(t *testing.T) {
	if testing.Short() {
		t.Skip("churn test skipped in -short mode")
	}
	const (
		nodes     = 5
		issuers   = 3
		perIssuer = 10
	)
	net := simnet.New(cost.DefaultModel())
	nds := make(map[transport.NodeID]*Node, nodes)
	hs := make(map[transport.NodeID]*testHandler, nodes)
	os := make(map[transport.NodeID]*obs.Obs, nodes)
	for id := transport.NodeID(1); id <= nodes; id++ {
		ep, err := net.Join(id)
		if err != nil {
			t.Fatal(err)
		}
		th := newTestHandler()
		o := obs.New(obs.Options{})
		nds[id] = NewNodeWith(ep, th, o)
		hs[id] = th
		os[id] = o
	}
	t.Cleanup(func() {
		for _, nd := range nds {
			nd.Close()
		}
	})
	for id := transport.NodeID(1); id <= nodes; id++ {
		if err := nds[id].Join("g"); err != nil {
			t.Fatal(err)
		}
	}

	// Tear the coordinator→member-3 link: every run the coordinator emits
	// from here on is partially delivered (members 2, 4, 5 apply; 3 never
	// sees it), and no gather can complete — the in-flight window at the
	// crash is maximal.
	net.Cut(1, 3)

	var succeeded sync.Map
	var wg sync.WaitGroup
	for id := transport.NodeID(2); id <= nodes; id++ {
		for w := 0; w < issuers; w++ {
			wg.Add(1)
			go func(id transport.NodeID, nd *Node, w int) {
				defer wg.Done()
				for m := 0; m < perIssuer; m++ {
					payload := fmt.Sprintf("r%d-w%d-m%d", id, w, m)
					res, err := nd.Gcast("g", []byte(payload))
					if err == nil && !res.Fail {
						succeeded.Store(payload, true)
					}
				}
			}(id, nds[id], w)
		}
	}
	// Let ranges be allocated and partially delivered, then kill the
	// sequencer. Successor recovery (node 2) must resync node 3 from the
	// survivor with the highest delivered sequence.
	time.Sleep(3 * time.Millisecond)
	net.Crash(1)
	nds[1].Close()
	delete(nds, 1)
	delete(hs, 1)
	wg.Wait()

	var survivor *Node
	for _, nd := range nds {
		survivor = nd
		break
	}
	if _, err := survivor.Gcast("g", []byte("final")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "logs converge", func() bool {
		length := -1
		for id, nd := range nds {
			if !nd.Member("g") {
				continue
			}
			got := len(hs[id].log("g"))
			if length == -1 {
				length = got
				continue
			}
			if got != length {
				return false
			}
		}
		return true
	})

	// Identical, gap-free, duplicate-free logs across survivors.
	var ref []string
	var refID transport.NodeID
	for id, nd := range nds {
		if !nd.Member("g") {
			continue
		}
		got := hs[id].log("g")
		if ref == nil {
			ref, refID = got, id
			continue
		}
		if len(got) != len(ref) {
			t.Fatalf("log length mismatch: node %d has %d, node %d has %d",
				id, len(got), refID, len(ref))
		}
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("order divergence at %d: node %d %q vs node %d %q",
					i, id, got[i], refID, ref[i])
			}
		}
	}
	seen := make(map[string]int, len(ref))
	for _, m := range ref {
		seen[m]++
		if seen[m] > 1 {
			t.Fatalf("duplicate delivery %q", m)
		}
	}
	succeeded.Range(func(k, _ any) bool {
		if seen[k.(string)] != 1 {
			t.Errorf("successful gcast %q delivered %d times", k, seen[k.(string)])
		}
		return true
	})

	// The load must have exercised the run path: without emitted runs the
	// partial-delivery scenario this test exists for never happened.
	var runs, casts int64
	for _, o := range os {
		runs += o.Counter("vsync.order.runs").Value()
		casts += o.Counter("vsync.order.run.casts").Value()
	}
	if runs == 0 || casts == 0 {
		t.Fatalf("no tOrderedRun traffic under pipelined load (runs=%d casts=%d)", runs, casts)
	}
}
