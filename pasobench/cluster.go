package main

import (
	"fmt"
	"sync"
	"time"

	"paso/internal/class"
	"paso/internal/core"
	"paso/internal/obs"
	"paso/internal/storage"
	"paso/internal/transport"
	"paso/internal/transport/tcp"
)

// Cluster shape. These mirror cmd/pasod's defaults: λ = 1, Basic(K = 8),
// hash stores, the legacy lowest-ID sequencer, leases off, and a 50 ms
// heartbeat with a 500 ms fail timeout. Machines 1 and 2 are the basic
// support of every class (pasod -support); 3 and 4 are outsiders that
// replicate a class only when the adaptive policy joins them to it.
const (
	nMachines   = 4
	lambda      = 1
	policyK     = 8
	maxArity    = 3
	heartbeat   = 50 * time.Millisecond
	failTimeout = 500 * time.Millisecond
)

// classNames are the tuple names with dedicated classes: the task bag and
// the four dictionary classes of the lookup workload.
var classNames = []string{"task", "p0", "p1", "p2", "p3"}

// cluster is a 4-machine PASO system over loopback TCP inside this
// process: one tcp.Endpoint and one core.Machine per machine.
type cluster struct {
	eps      map[transport.NodeID]*tcp.Endpoint
	machines map[transport.NodeID]*core.Machine
	obs      map[transport.NodeID]*obs.Obs // per machine; all equal when traced
	shared   *obs.Obs                      // the one Obs of a traced cluster, else nil
	cfg      core.Config
	dead     map[transport.NodeID]bool
}

// spanCap bounds the traced cluster's span ring. Spans are analysed from
// the ring's tail at the end of the run, so it only needs to hold a few
// seconds of operations (roughly five spans each).
const spanCap = 1 << 17

// startCluster brings up the four machines and waits for the init phase.
// A traced cluster wires one shared Obs into every machine and endpoint
// and turns on Config.TraceOps; an untraced one gives each machine its own
// Obs, as separate pasod processes would have.
func startCluster(traced bool) (*cluster, error) {
	c := &cluster{
		eps:      make(map[transport.NodeID]*tcp.Endpoint, nMachines),
		machines: make(map[transport.NodeID]*core.Machine, nMachines),
		obs:      make(map[transport.NodeID]*obs.Obs, nMachines),
		dead:     make(map[transport.NodeID]bool),
	}
	if traced {
		c.shared = obs.New(obs.Options{SpanCap: spanCap})
	}
	for i := transport.NodeID(1); i <= nMachines; i++ {
		o := c.shared
		if o == nil {
			o = obs.New(obs.Options{})
		}
		c.obs[i] = o
		ep, err := tcp.Listen(i, "127.0.0.1:0", tcp.Options{
			HeartbeatInterval: heartbeat,
			FailTimeout:       failTimeout,
			Obs:               o.With(obs.KV("machine", i)),
		})
		if err != nil {
			c.stop()
			return nil, fmt.Errorf("listen machine %d: %w", i, err)
		}
		c.eps[i] = ep
	}
	for id, ep := range c.eps {
		for pid, pep := range c.eps {
			if pid != id {
				ep.AddPeer(pid, pep.Addr())
			}
		}
	}
	if err := c.waitAlive(nMachines, 5*time.Second); err != nil {
		c.stop()
		return nil, err
	}
	c.cfg = core.Config{
		Classifier: class.NewNameArity(classNames, maxArity),
		Lambda:     lambda,
		StoreKind:  storage.KindHash,
		NewPolicy:  core.BasicPolicyFactory(policyK),
		TraceOps:   traced,
	}
	// Machines start concurrently, as separate processes would: the init
	// phase blocks until the coordinator has heard from every live node.
	var (
		mu   sync.Mutex
		wg   sync.WaitGroup
		errs []error
	)
	for i := transport.NodeID(1); i <= nMachines; i++ {
		cfg := c.cfg
		cfg.Obs = c.obs[i]
		var basics []class.ID
		if i <= lambda+1 {
			basics = cfg.Classifier.Classes()
		}
		wg.Add(1)
		go func(id transport.NodeID) {
			defer wg.Done()
			m, err := core.StartMachine(c.eps[id], cfg, basics, 1)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				errs = append(errs, fmt.Errorf("start machine %d: %w", id, err))
				return
			}
			c.machines[id] = m
		}(i)
	}
	wg.Wait()
	if len(errs) > 0 {
		c.stop()
		return nil, errs[0]
	}
	return c, nil
}

// waitAlive polls until every endpoint sees n live nodes.
func (c *cluster) waitAlive(n int, limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for time.Now().Before(deadline) {
		ok := true
		for _, ep := range c.eps {
			if len(ep.Alive()) != n {
				ok = false
				break
			}
		}
		if ok {
			return nil
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("failure detectors did not converge on %d nodes within %v", n, limit)
}

// crash fails a machine the way a process crash would: the machine stops
// and its endpoint closes, so peers learn of it only by heartbeat timeout.
func (c *cluster) crash(id transport.NodeID) {
	c.machines[id].Stop()
	_ = c.eps[id].Close() // a crash needs no orderly close
	c.dead[id] = true
}

// live returns the surviving machines in ID order.
func (c *cluster) live() []*core.Machine {
	var out []*core.Machine
	for i := transport.NodeID(1); i <= nMachines; i++ {
		if m := c.machines[i]; m != nil && !c.dead[i] {
			out = append(out, m)
		}
	}
	return out
}

// stop shuts every machine down, then closes the endpoints.
func (c *cluster) stop() {
	for id, m := range c.machines {
		if !c.dead[id] {
			m.Stop()
		}
	}
	for id, ep := range c.eps {
		if !c.dead[id] {
			_ = ep.Close() // teardown; nothing is left to flush
		}
	}
}

// counter sums a registry counter over the machines' Obs (once for a
// shared Obs). Crashed machines keep their last values.
func (c *cluster) counter(name string) int64 {
	if c.shared != nil {
		return c.shared.Counter(name).Value()
	}
	var sum int64
	for _, o := range c.obs {
		sum += o.Counter(name).Value()
	}
	return sum
}

// transportCounters is the wire traffic at one instant.
type transportCounters struct {
	bytes, frames, flushes int64
}

func (c *cluster) transport() transportCounters {
	return transportCounters{
		bytes:   c.counter("transport.bytes.sent"),
		frames:  c.counter("transport.flush.frames"),
		flushes: c.counter("transport.flushes"),
	}
}

func (a transportCounters) sub(b transportCounters) transportCounters {
	return transportCounters{a.bytes - b.bytes, a.frames - b.frames, a.flushes - b.flushes}
}
