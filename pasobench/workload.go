package main

import (
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"paso/internal/core"
	"paso/internal/obs"
	"paso/internal/semantics"
	"paso/internal/transport"
	"paso/internal/tuple"
)

// workload is one traffic mix. Why each exists is in README.md.
type workload struct {
	name    string
	clients []transport.NodeID // machine hosting each closed-loop client
	lookup  bool               // dictionary mix instead of the task bag
	crash   bool               // crash machine 1 a third into each round
}

var workloads = []workload{
	{name: "tasks", clients: []transport.NodeID{1, 3}},
	{name: "lookup", clients: []transport.NodeID{3, 4}, lookup: true},
	{name: "failover", clients: []transport.NodeID{3, 4}, crash: true},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// Workload sizes.
const (
	bagSize      = 1000 // tasks preloaded into the bag
	lookupKeys   = 2000 // keyed points per dictionary class
	lookupPay    = 64   // payload bytes per point
	hotRotate    = 3000 // ops between a lookup client's hot-class changes
	swapPermille = 100  // share of lookup ops that are swaps
)

// lookupClasses are the dictionary classes' tuple names.
var lookupClasses = classNames[1:]

// opKind labels the benchmark's operations. Writes are insert, take and
// swap; read is the only read.
type opKind uint8

const (
	opInsert opKind = iota
	opTake
	opRead
	opSwap
	nKinds
)

var kindNames = [nKinds]string{"insert", "take", "read", "swap"}

func (k opKind) write() bool { return k != opRead }

// sample is the benchmark's own span around one core.Machine call: its
// interval in nanoseconds since the run began, and whether it failed. An
// op fails when it returns an error or when, being a must-hit read, take
// or swap, it finds nothing; only the latter breaks correctness.
type sample struct {
	start, end int64
	kind       opKind
	fail, err  bool
}

var taskTpl = tuple.NewTemplate(tuple.Eq(tuple.String("task")), tuple.Any(tuple.KindInt))

func keyTpl(cls, key int) tuple.Template {
	return tuple.NewTemplate(
		tuple.Eq(tuple.String(lookupClasses[cls])),
		tuple.Eq(tuple.Int(int64(key))),
		tuple.Any(tuple.KindBytes))
}

// point builds a dictionary tuple. Its payload starts with a serial unique
// to this write plus the class and key it was written for, so the gate
// can tie every object a read or swap returns back to the write that made
// it; the rest is seeded filler.
func point(cls, key int, serial uint64, rng *rand.Rand) tuple.Tuple {
	pay := make([]byte, lookupPay)
	binary.LittleEndian.PutUint64(pay[0:], serial)
	pay[8] = byte(cls)
	binary.LittleEndian.PutUint32(pay[9:], uint32(key))
	for i := 13; i < lookupPay; i++ {
		pay[i] = byte(rng.Uint32())
	}
	return tuple.Make(tuple.String(lookupClasses[cls]), tuple.Int(int64(key)), tuple.Bytes(pay))
}

// pointSerial decodes a dictionary tuple's write serial and checks the
// tuple carries the class and key that write was made for.
func pointSerial(t tuple.Tuple) (serial uint64, ok bool) {
	if t.Arity() != 3 {
		return 0, false
	}
	pay, err := t.Field(2).AsBytes()
	if err != nil || len(pay) != lookupPay {
		return 0, false
	}
	cls := int(pay[8])
	if cls >= len(lookupClasses) || t.Field(0).MustString() != lookupClasses[cls] ||
		t.Field(1).MustInt() != int64(binary.LittleEndian.Uint32(pay[9:])) {
		return 0, false
	}
	return binary.LittleEndian.Uint64(pay), true
}

// clientLog is what one client (or the preload, or the final drain)
// records: its samples and its part of the operation history. A swap is
// recorded as a read&del of the object it returned plus an insert of its
// replacement, whose identity the program assigns and only reveals when a
// later read or swap returns it; until then the insert waits in swapIns.
type clientLog struct {
	machine  transport.NodeID
	samples  []sample
	recs     []semantics.Record
	swapIns  []swapInsert
	seen     []observed // every dictionary object returned, by serial
	errTakes int        // takes that errored: they may have removed an object
	bad      []string   // returned tuples whose content is wrong
}

type swapInsert struct {
	rec    semantics.Record
	serial uint64
}

type observed struct {
	serial uint64
	id     tuple.ID
}

// run is one measured execution of a workload on one cluster.
type run struct {
	w       workload
	c       *cluster
	seed    uint64
	round   uint64
	clock   atomic.Uint64 // logical clock for semantics.Record intervals
	base    time.Time     // samples are offsets from here
	preload []*clientLog  // one per preloading machine
	logs    []*clientLog
	drain   *clientLog
	final   settled

	elapsed  time.Duration
	wire     transportCounters // wire traffic of the measured phase
	crashAt  time.Duration     // failover: when machine 1 crashed
	detectAt time.Duration     // failover: when a survivor first dropped it

	// A traced run keeps the span ring as it stood when the clients
	// stopped and the layer snapshots from either side of the drive.
	spans         []obs.Span
	before, after layerSnap
}

func (r *run) tick() uint64 { return r.clock.Add(1) }

// rng returns the seeded generator for one stream of the round: the same
// seed gives the same inputs.
func (r *run) rng(stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(r.seed, r.round<<32|stream))
}

// preloadData fills the task bag or the dictionary classes from the
// basic-support machines, two writers in parallel. Each dictionary class
// is written by one writer in a seeded key order, so every run of a seed
// lays the hash stores out the same way.
func (r *run) preloadData() error {
	writers := []transport.NodeID{1, 2}
	r.preload = make([]*clientLog, len(writers))
	errs := make([]error, len(writers))
	var wg sync.WaitGroup
	for wi, id := range writers {
		log := &clientLog{machine: id}
		r.preload[wi] = log
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			m := r.c.machines[log.machine]
			rng := r.rng(uint64(100 + wi))
			var objs []tuple.Tuple
			if r.w.lookup {
				for cls := wi; cls < len(lookupClasses); cls += len(writers) {
					for _, key := range rng.Perm(lookupKeys) {
						objs = append(objs, point(cls, key, uint64(cls*lookupKeys+key), rng))
					}
				}
			} else {
				for i := wi; i < bagSize; i += len(writers) {
					objs = append(objs, tuple.Make(tuple.String("task"), tuple.Int(int64(i))))
				}
			}
			for _, o := range objs {
				s := r.tick()
				got, err := m.Insert(o)
				log.recs = append(log.recs, semantics.Record{
					Type: semantics.OpInsert, Machine: int(log.machine),
					Start: s, End: r.tick(), Obj: got.ID(), OK: err == nil,
				})
				if err != nil {
					errs[wi] = fmt.Errorf("preload insert on machine %d: %w", log.machine, err)
					return
				}
				if serial, ok := pointSerial(got); ok {
					log.seen = append(log.seen, observed{serial, got.ID()})
				}
			}
		}(wi)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// clientMachines caps the workload's clients at one per CPU: a client is
// a compute process that waits for its reply, so more clients than CPUs
// would only measure the scheduler.
func (w workload) clientMachines() []transport.NodeID {
	return w.clients[:min(len(w.clients), runtime.NumCPU())]
}

// drive runs the closed-loop clients for d and, on failover, crashes
// machine 1 a third of the way in.
func (r *run) drive(d time.Duration) {
	ids := r.w.clientMachines()
	r.logs = make([]*clientLog, len(ids))
	before := r.c.transport()
	r.base = time.Now()
	deadline := r.base.Add(d)
	var wg sync.WaitGroup
	for i, id := range ids {
		r.logs[i] = &clientLog{machine: id}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r.client(i, deadline)
		}(i)
	}
	if r.w.crash {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.crashSequencer(d / 3)
		}()
	}
	wg.Wait()
	r.elapsed = time.Since(r.base)
	r.wire = r.c.transport().sub(before)
}

// crashSequencer crashes machine 1 — the legacy sequencer and a basic
// support of every class — after delay, then polls the survivors'
// failure detectors from outside until the first one drops it.
func (r *run) crashSequencer(delay time.Duration) {
	time.Sleep(time.Until(r.base.Add(delay)))
	r.crashAt = time.Since(r.base)
	r.c.crash(1)
	for limit := time.Now().Add(10 * failTimeout); time.Now().Before(limit); time.Sleep(time.Millisecond) {
		for id, ep := range r.c.eps {
			if !r.c.dead[id] && !slices.Contains(ep.Alive(), 1) {
				r.detectAt = time.Since(r.base)
				return
			}
		}
	}
}

// client is one closed-loop compute process: it issues its next operation
// only once the previous one has returned.
func (r *run) client(idx int, deadline time.Time) {
	log := r.logs[idx]
	m := r.c.machines[log.machine]
	rng := r.rng(uint64(idx))
	writer := uint64(idx+1) << 48
	// The hot classes drift in step, two apart, so the two clients never
	// share one and every seed sees the same membership pattern; only the
	// keys and the swaps' classes are drawn from the seed.
	hot := 2 * idx
	for n := uint64(0); time.Now().Before(deadline); n++ {
		if r.w.lookup && n > 0 && n%hotRotate == 0 {
			hot = (hot + 1) % len(lookupClasses)
		}
		switch {
		case !r.w.lookup && n%2 == 0:
			r.insert(m, log, tuple.Make(tuple.String("task"), tuple.Int(int64(writer|n))))
		case !r.w.lookup:
			r.take(m, log, taskTpl)
		case rng.IntN(1000) < swapPermille:
			cls, key := rng.IntN(len(lookupClasses)), rng.IntN(lookupKeys)
			r.swap(m, log, cls, key, point(cls, key, writer|n, rng))
		default:
			r.read(m, log, keyTpl(hot, rng.IntN(lookupKeys)))
		}
	}
}

func (r *run) since() int64 { return int64(time.Since(r.base)) }

func (r *run) insert(m *core.Machine, log *clientLog, t tuple.Tuple) {
	s, t0 := r.tick(), r.since()
	got, err := m.Insert(t)
	t1 := r.since()
	log.recs = append(log.recs, semantics.Record{Type: semantics.OpInsert,
		Machine: int(log.machine), Start: s, End: r.tick(), Obj: got.ID(), OK: err == nil})
	log.samples = append(log.samples, sample{t0, t1, opInsert, err != nil, err != nil})
}

// take is a must-hit read&del: the bag never runs dry, so a miss fails.
func (r *run) take(m *core.Machine, log *clientLog, tp tuple.Template) bool {
	s, t0 := r.tick(), r.since()
	got, ok, err := m.ReadDel(tp)
	t1 := r.since()
	if err != nil {
		log.errTakes++
	}
	ok = ok && err == nil
	log.recs = append(log.recs, semantics.Record{Type: semantics.OpReadDel,
		Machine: int(log.machine), Start: s, End: r.tick(), Obj: got.ID(), OK: ok})
	log.samples = append(log.samples, sample{t0, t1, opTake, !ok, err != nil})
	return ok
}

// read is a must-hit keyed read: swaps keep every key present.
func (r *run) read(m *core.Machine, log *clientLog, tp tuple.Template) {
	s, t0 := r.tick(), r.since()
	got, ok, err := m.Read(tp)
	t1 := r.since()
	failed := err != nil
	ok = ok && !failed
	log.recs = append(log.recs, semantics.Record{Type: semantics.OpRead,
		Machine: int(log.machine), Start: s, End: r.tick(), Obj: got.ID(), OK: ok})
	if ok {
		log.observe(got)
	}
	log.samples = append(log.samples, sample{t0, t1, opRead, !ok, failed})
}

// swap replaces the key's current point with repl in one ordered command.
func (r *run) swap(m *core.Machine, log *clientLog, cls, key int, repl tuple.Tuple) {
	s, t0 := r.tick(), r.since()
	old, ok, err := m.Swap(keyTpl(cls, key), repl)
	t1 := r.since()
	e := r.tick()
	ok = ok && err == nil
	log.recs = append(log.recs, semantics.Record{Type: semantics.OpReadDel,
		Machine: int(log.machine), Start: s, End: e, Obj: old.ID(), OK: ok})
	if ok {
		log.observe(old)
	}
	// A swap that errored may still have been applied: its replacement is
	// recorded as a failed insert, which the checker treats as maybe-live.
	if ok || err != nil {
		serial, _ := pointSerial(repl)
		log.swapIns = append(log.swapIns, swapInsert{semantics.Record{Type: semantics.OpInsert,
			Machine: int(log.machine), Start: s, End: e, OK: ok}, serial})
	}
	log.samples = append(log.samples, sample{t0, t1, opSwap, !ok, err != nil})
}

func (log *clientLog) observe(t tuple.Tuple) {
	serial, ok := pointSerial(t)
	if !ok {
		log.bad = append(log.bad, fmt.Sprintf("machine %d returned %v, whose payload does not match its class and key", log.machine, t))
		return
	}
	log.seen = append(log.seen, observed{serial, t.ID()})
}
