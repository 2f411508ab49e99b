package vsync

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"paso/internal/cost"
	"paso/internal/simnet"
	"paso/internal/transport"
)

// leaseHandler extends testHandler with the LeaseReader fast path: LeaseRead
// echoes the payload prefixed with "leased:" plus the group's delivered
// count, so tests can tell a leased answer from an ordered one and see the
// state the server answered from. With unserved set it answers nil, as a
// handler with no local state for the group does.
type leaseHandler struct {
	*testHandler
	unserved bool // guarded by testHandler.mu
}

var _ LeaseReader = (*leaseHandler)(nil)

func (h *leaseHandler) LeaseRead(group string, payload []byte) ([]byte, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.unserved {
		return nil, true
	}
	return []byte(fmt.Sprintf("leased:%s:%d", payload, len(h.state[group]))), false
}

// leaseHarness is the lease-test counterpart of harness: same simnet, but
// every node's handler implements LeaseReader.
type leaseHarness struct {
	t   *testing.T
	net *simnet.Net
	nds map[transport.NodeID]*Node
	hs  map[transport.NodeID]*leaseHandler
	mu  sync.Mutex
}

func newLeaseHarness(t *testing.T, ids ...transport.NodeID) *leaseHarness {
	t.Helper()
	h := &leaseHarness{
		t:   t,
		net: simnet.New(cost.DefaultModel()),
		nds: make(map[transport.NodeID]*Node),
		hs:  make(map[transport.NodeID]*leaseHandler),
	}
	for _, id := range ids {
		ep, err := h.net.Join(id)
		if err != nil {
			t.Fatal(err)
		}
		lh := &leaseHandler{testHandler: newTestHandler()}
		h.nds[id] = NewNode(ep, lh)
		h.hs[id] = lh
	}
	t.Cleanup(func() {
		h.mu.Lock()
		defer h.mu.Unlock()
		for _, nd := range h.nds {
			nd.Close()
		}
	})
	return h
}

func (h *leaseHarness) crash(id transport.NodeID) {
	h.t.Helper()
	h.net.Crash(id)
	h.mu.Lock()
	h.nds[id].Close()
	delete(h.nds, id)
	delete(h.hs, id)
	h.mu.Unlock()
}

// waitEpochAgreement polls until every node's view epoch is equal and its
// live view spans n nodes, then returns the agreed epoch.
func (h *leaseHarness) waitEpochAgreement(n int) uint64 {
	h.t.Helper()
	var epoch uint64
	waitFor(h.t, fmt.Sprintf("view epoch agreement across %d nodes", n), func() bool {
		first := true
		for _, nd := range h.nds {
			ids, e := nd.LiveView()
			if len(ids) != n {
				return false
			}
			if first {
				epoch, first = e, false
			} else if e != epoch {
				return false
			}
		}
		return true
	})
	return epoch
}

func TestLeaseReadServed(t *testing.T) {
	h := newLeaseHarness(t, 1, 2)
	if err := h.nds[1].Join("wg/a"); err != nil {
		t.Fatal(err)
	}
	if _, err := h.nds[1].Gcast("wg/a", []byte("seed")); err != nil {
		t.Fatal(err)
	}
	epoch := h.waitEpochAgreement(2)

	res, err := h.nds[2].LeaseRead("wg/a", 1, []byte("q"), time.Second)
	if err != nil {
		t.Fatalf("LeaseRead: %v", err)
	}
	if got, want := string(res.Payload), "leased:q:1"; got != want {
		t.Errorf("payload = %q, want %q", got, want)
	}
	if res.Epoch != epoch {
		t.Errorf("epoch = %016x, want %016x", res.Epoch, epoch)
	}
	if res.GroupSize != 1 {
		t.Errorf("group size = %d, want 1", res.GroupSize)
	}
	if res.Seq == 0 {
		t.Error("served reply did not stamp the delivered sequence")
	}
}

// TestLeaseReadRefusedWithoutLeaseReader drives a lease request at a node
// whose handler does not implement LeaseReader: the server must fence
// rather than answer, keeping the fast path invisible to such handlers.
func TestLeaseReadRefusedWithoutLeaseReader(t *testing.T) {
	h := newHarness(t, 1, 2)
	if err := h.nds[1].Join("g"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "node 2 sees node 1 live", func() bool {
		ids, _ := h.nds[2].LiveView()
		return len(ids) == 2
	})
	_, err := h.nds[2].LeaseRead("g", 1, []byte("q"), time.Second)
	if !errors.Is(err, ErrLeaseFenced) {
		t.Fatalf("err = %v, want ErrLeaseFenced", err)
	}
}

func TestLeaseReadRefusedNonMember(t *testing.T) {
	h := newLeaseHarness(t, 1, 2)
	h.waitEpochAgreement(2)
	// Node 1 never joined wg/a: it must fence, not answer from empty state.
	_, err := h.nds[2].LeaseRead("wg/a", 1, []byte("q"), time.Second)
	if !errors.Is(err, ErrLeaseFenced) {
		t.Fatalf("err = %v, want ErrLeaseFenced", err)
	}
}

// TestLeaseReadRefusedWhenUnserved: an active member whose handler has no
// state to answer from (nil resp) must refuse the read like a fence, so the
// client falls back to the ordered path instead of trusting an empty answer.
func TestLeaseReadRefusedWhenUnserved(t *testing.T) {
	h := newLeaseHarness(t, 1, 2)
	if err := h.nds[1].Join("wg/a"); err != nil {
		t.Fatal(err)
	}
	h.waitEpochAgreement(2)
	h.hs[1].mu.Lock()
	h.hs[1].unserved = true
	h.hs[1].mu.Unlock()
	_, err := h.nds[2].LeaseRead("wg/a", 1, []byte("q"), time.Second)
	if !errors.Is(err, ErrLeaseFenced) {
		t.Fatalf("err = %v, want ErrLeaseFenced", err)
	}
}

// TestLeaseReadEpochMismatchFenced gives client and server permanently
// different views (node 2's detector has declared node 3 dead, node 1's has
// not) and asserts the server refuses the mismatched epoch.
func TestLeaseReadEpochMismatchFenced(t *testing.T) {
	h := newLeaseHarness(t, 1, 2, 3)
	if err := h.nds[1].Join("wg/a"); err != nil {
		t.Fatal(err)
	}
	h.waitEpochAgreement(3)
	// Cut 3→2: node 2 observes Down(3) and moves to a two-node view while
	// node 1 still sees all three.
	h.net.Cut(3, 2)
	waitFor(t, "node 2 drops node 3 from its view", func() bool {
		ids, _ := h.nds[2].LiveView()
		return len(ids) == 2
	})
	_, err := h.nds[2].LeaseRead("wg/a", 1, []byte("q"), time.Second)
	if !errors.Is(err, ErrLeaseFenced) {
		t.Fatalf("err = %v, want ErrLeaseFenced", err)
	}
}

// TestLeaseReadFencedByViewChange is the fallback-retry unit test from the
// lease's fencing contract: the epoch advances between issuing the request
// and resolving it (the request is stuck on a cut link when an unrelated
// member crashes), and the pending lease must fail with ErrLeaseFenced — not
// hang and not return data under the stale epoch.
func TestLeaseReadFencedByViewChange(t *testing.T) {
	h := newLeaseHarness(t, 1, 2, 3)
	if err := h.nds[1].Join("wg/a"); err != nil {
		t.Fatal(err)
	}
	h.waitEpochAgreement(3)
	before := h.nds[2].ViewEpoch()

	// The request from 2 can never reach 1, so the lease stays pending
	// until something resolves it. (Node 1 observing Down(2) is harmless —
	// the client side owns the pending entry.)
	h.net.Cut(2, 1)
	errc := make(chan error, 1)
	go func() {
		_, err := h.nds[2].LeaseRead("wg/a", 1, []byte("q"), 30*time.Second)
		errc <- err
	}()
	// Let the loop register the pending lease before the fence arrives.
	time.Sleep(50 * time.Millisecond)
	h.crash(3)

	select {
	case err := <-errc:
		if !errors.Is(err, ErrLeaseFenced) {
			t.Fatalf("err = %v, want ErrLeaseFenced", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("pending leased read not fenced by the view change")
	}
	waitFor(t, "node 2 publishes a new epoch", func() bool {
		return h.nds[2].ViewEpoch() != before
	})
}

func TestLeaseReadTimeout(t *testing.T) {
	h := newLeaseHarness(t, 1, 2)
	if err := h.nds[1].Join("wg/a"); err != nil {
		t.Fatal(err)
	}
	h.waitEpochAgreement(2)
	// Drop requests 2→1 without touching node 2's view: its epoch stays
	// stable, so the only way out is the timer.
	h.net.Cut(2, 1)
	start := time.Now()
	_, err := h.nds[2].LeaseRead("wg/a", 1, []byte("q"), 250*time.Millisecond)
	if !errors.Is(err, ErrLeaseTimeout) {
		t.Fatalf("err = %v, want ErrLeaseTimeout", err)
	}
	if elapsed := time.Since(start); elapsed < 200*time.Millisecond {
		t.Errorf("timed out after %v, want ≥ the 250ms deadline", elapsed)
	}
}

// TestViewEpochAgreesAcrossNodes pins the epoch's defining property: it is
// a pure function of the observed live set, so nodes with equal views carry
// equal epochs, and a membership edge moves every survivor to the same new
// epoch.
func TestViewEpochAgreesAcrossNodes(t *testing.T) {
	h := newLeaseHarness(t, 1, 2, 3)
	before := h.waitEpochAgreement(3)
	if before == 0 {
		t.Fatal("published epoch is zero")
	}
	h.crash(3)
	after := h.waitEpochAgreement(2)
	if after == before {
		t.Fatal("epoch did not change on a membership edge")
	}
}
