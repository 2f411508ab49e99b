package main

import (
	"fmt"
	"math/rand/v2"
	"sort"
	"time"

	"paso/internal/core"
	"paso/internal/obs"
	"paso/internal/storage"
	"paso/internal/transport"
	"paso/internal/transport/tcp"
	"paso/internal/tuple"
)

// layerSnap is what the per-layer metrics diff across the measured phase
// of a traced run: the machines' Figure-1 meters and the shared registry's
// histograms. Everything here is read from outside through public calls.
type layerSnap struct {
	stats map[transport.NodeID]map[core.OpKind]core.OpStats
	hists map[string]obs.HistSnapshot
}

// joinHist is the core histogram of policy-join latency (shared by every
// machine of a traced cluster, which all record into one registry).
const joinHist = "core.op.g-join.latency.seconds"

func snapLayers(c *cluster) layerSnap {
	s := layerSnap{stats: make(map[transport.NodeID]map[core.OpKind]core.OpStats)}
	for id, m := range c.machines {
		s.stats[id] = m.Stats()
	}
	snap := c.shared.Reg().Snapshot()
	s.hists = make(map[string]obs.HistSnapshot)
	for _, name := range append([]string{joinHist}, obs.StageOrderNames...) {
		s.hists[name] = snap.Histograms[name]
	}
	return s
}

// opDelta sums one op kind's Figure-1 meter over all machines.
func opDelta(before, after layerSnap, kinds ...core.OpKind) core.OpStats {
	var out core.OpStats
	for id, st := range after.stats {
		for _, k := range kinds {
			a, b := st[k], before.stats[id][k]
			out.Count += a.Count - b.Count
			out.MsgCost += a.MsgCost - b.MsgCost
		}
	}
	return out
}

var allCoreKinds = []core.OpKind{core.OpInsert, core.OpReadLocal, core.OpReadRemote,
	core.OpReadLeased, core.OpReadDel, core.OpJoin, core.OpLeave, core.OpSwap}

// spanMetric maps the program's span names (Config.TraceOps) to the layer
// metric fed by their self time.
var spanMetric = map[string]string{
	"op.insert":   "core.insert_self_us",
	"op.read&del": "core.take_self_us",
	"op.read":     "core.read_self_us",
	"op.swap":     "core.swap_self_us",
	"gcast":       "vsync.gcast_self_us",
	"order":       "vsync.order_us",
	"local-read":  "storage.local_read_us",
}

// spanSelfTimes returns, per layer metric, the median self time in µs of
// the spans recorded under it: a span's duration minus the part of it its
// children cover. Only operations whose root began after since (the start
// of the measured phase) and after the oldest span still in the ring are
// used, so preload ops are left out and no operation is missing a child.
func spanSelfTimes(spans []obs.Span, since time.Time) map[string]float64 {
	out := make(map[string]float64, len(spanMetric))
	for _, name := range spanMetric {
		out[name] = 0
	}
	if len(spans) == 0 {
		return out
	}
	horizon := spans[0].End
	if since.After(horizon) {
		horizon = since
	}
	children := make(map[uint64][]obs.Span)
	byTrace := make(map[uint64][]obs.Span)
	complete := make(map[uint64]bool)
	for _, s := range spans {
		byTrace[s.Trace] = append(byTrace[s.Trace], s)
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
		if s.ID == s.Trace && s.Start.After(horizon) {
			complete[s.Trace] = true
		}
	}
	selfs := make(map[string][]float64)
	for trace := range complete {
		for _, s := range byTrace[trace] {
			name, ok := spanMetric[s.Name]
			if !ok {
				continue
			}
			self := s.Dur() - covered(s, children[s.ID])
			selfs[name] = append(selfs[name], float64(self)/float64(time.Microsecond))
		}
	}
	for name, v := range selfs {
		out[name] = median(v)
	}
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(parent obs.Span, kids []obs.Span) time.Duration {
	type iv struct{ a, b time.Time }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := k.Start, k.End
		if a.Before(parent.Start) {
			a = parent.Start
		}
		if b.After(parent.End) {
			b = parent.End
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var total time.Duration
	var end time.Time
	for _, v := range ivs {
		if v.a.Before(end) {
			if v.b.After(end) {
				total += v.b.Sub(end)
				end = v.b
			}
			continue
		}
		total += v.b.Sub(v.a)
		end = v.b
	}
	return total
}

// layerMetrics computes the per-layer metrics of a traced round from the
// spans captured at the end of its measured phase and the snapshots taken
// on either side of it.
func layerMetrics(r *run) metrics {
	out := metrics{}
	before, after := r.before, r.after
	for name, v := range spanSelfTimes(r.spans, r.base) {
		out.set(name, v, "us")
	}
	ops := float64(len(allSamples(r)))
	local := opDelta(before, after, core.OpReadLocal).Count
	reads := opDelta(before, after, core.OpReadLocal, core.OpReadRemote, core.OpReadLeased).Count
	out.set("core.read_local_frac", ratio(float64(local), float64(reads)), "ratio")
	out.set("core.model_cost_per_op", ratio(opDelta(before, after, allCoreKinds...).MsgCost, ops), "cost")
	kops := ops / 1000
	out.set("adaptive.joins_per_kop", ratio(float64(opDelta(before, after, core.OpJoin).Count), kops), "1/kop")
	out.set("adaptive.leaves_per_kop", ratio(float64(opDelta(before, after, core.OpLeave).Count), kops), "1/kop")
	join := obs.Delta(after.hists[joinHist], before.hists[joinHist])
	out.set("adaptive.join_ms", join.Mean*1e3, "ms")
	for _, name := range obs.StageOrderNames {
		d := obs.Delta(after.hists[name], before.hists[name])
		short := "stage." + obs.StageShort(name)
		out.set(short+".mean_us", d.Mean*1e6, "us")
		out.set(short+".count", float64(d.Count), "count")
	}
	out.set("tcp.frames_per_flush", ratio(float64(r.wire.frames), float64(r.wire.flushes)), "count")
	var detect, recover float64
	if r.w.crash && r.detectAt > 0 {
		detect = float64(r.detectAt-r.crashAt) / float64(time.Millisecond)
		if first, ok := firstCompletionAfter(r, r.detectAt); ok {
			recover = float64(first-r.detectAt) / float64(time.Millisecond)
		}
	}
	out.set("tcp.detect_ms", detect, "ms")
	out.set("vsync.recover_ms", recover, "ms")
	return out
}

func firstCompletionAfter(r *run, t time.Duration) (time.Duration, bool) {
	best, ok := time.Duration(0), false
	for _, s := range allSamples(r) {
		if !s.fail && time.Duration(s.end) > t && (!ok || time.Duration(s.end) < best) {
			best, ok = time.Duration(s.end), true
		}
	}
	return best, ok
}

// shape is the workload's tuple, for the codec and gcast probes.
func (r *run) shape() tuple.Tuple {
	if r.w.lookup {
		return point(0, lookupKeys-1, 1, r.rng(7))
	}
	return tuple.Make(tuple.String("task"), tuple.Int(1<<48))
}

// probeGcast times vsync.Node.Gcast from outsider machine 3 to a group
// the live basic supports join but no handler knows: the ordered
// multicast with the workload's payload size and no core or storage work.
func probeGcast(r *run) (float64, error) {
	const group = "bench/noop"
	var members []*core.Machine
	for _, m := range r.c.live() {
		if m.IsBasic(r.classes()[0]) {
			members = append(members, m)
		}
	}
	for _, m := range members {
		if err := m.Node().Join(group); err != nil {
			return 0, fmt.Errorf("gcast probe: join: %w", err)
		}
	}
	payload := tuple.EncodeTuple(r.shape())
	node := r.c.machines[3].Node()
	lat := make([]float64, 0, 2000)
	for i := 0; i < cap(lat); i++ {
		t0 := time.Now()
		if _, err := node.Gcast(group, payload); err != nil {
			return 0, fmt.Errorf("gcast probe: %w", err)
		}
		lat = append(lat, float64(time.Since(t0))/float64(time.Microsecond))
	}
	for _, m := range members {
		if err := m.Node().Leave(group); err != nil {
			return 0, fmt.Errorf("gcast probe: leave: %w", err)
		}
	}
	return median(lat), nil
}

// probeRTT times a Send/Recv ping-pong between two fresh loopback TCP
// endpoints: the transport alone, with the workload's payload size.
func probeRTT(payload []byte) (float64, error) {
	var eps [2]*tcp.Endpoint
	for i := range eps {
		ep, err := tcp.Listen(transport.NodeID(i+1), "127.0.0.1:0",
			tcp.Options{HeartbeatInterval: heartbeat, FailTimeout: failTimeout})
		if err != nil {
			return 0, fmt.Errorf("rtt probe: %w", err)
		}
		defer ep.Close()
		eps[i] = ep
	}
	eps[0].AddPeer(2, eps[1].Addr())
	eps[1].AddPeer(1, eps[0].Addr())
	done := make(chan struct{})
	echoed := make(chan struct{})
	go func() {
		defer close(echoed)
		for {
			select {
			case <-done:
				return
			case it := <-eps[1].Recv():
				if it.Kind == transport.KindMsg {
					_ = eps[1].Send(1, it.Payload) // a lost echo shows as a timeout below
				}
			}
		}
	}()
	defer func() { close(done); <-echoed }()
	ping := func() (time.Duration, error) {
		t0 := time.Now()
		if err := eps[0].Send(2, payload); err != nil {
			return 0, err
		}
		timeout := time.After(time.Second)
		for {
			select {
			case it := <-eps[0].Recv():
				if it.Kind == transport.KindMsg {
					return time.Since(t0), nil
				}
			case <-timeout:
				return 0, fmt.Errorf("no echo within 1s")
			}
		}
	}
	// The first frames dial the connections; time only the warm link.
	for i := 0; i < 50; i++ {
		if _, err := ping(); err != nil {
			return 0, fmt.Errorf("rtt probe warm-up: %w", err)
		}
	}
	lat := make([]float64, 0, 2000)
	for i := 0; i < cap(lat); i++ {
		d, err := ping()
		if err != nil {
			return 0, fmt.Errorf("rtt probe: %w", err)
		}
		lat = append(lat, float64(d)/float64(time.Microsecond))
	}
	return median(lat), nil
}

// probeStorage times the hash store on the workloads' access paths: a
// lookup read (partial template, so an oldest-first scan) over a class of
// lookupKeys points, and a tasks take (head match) from a full bag.
func probeStorage(seed uint64) (scanUs, probesPerRead, takeUs float64) {
	rng := rand.New(rand.NewPCG(seed, 9))
	h := storage.NewHash()
	ids := tuple.NewIDGen(1)
	for i, key := range rng.Perm(lookupKeys) {
		h.Insert(uint64(i), point(0, key, uint64(key), rng).WithID(ids.Next()))
	}
	const batch = 200
	var per []float64
	for b := 0; b < 25; b++ {
		tps := make([]tuple.Template, batch)
		for i := range tps {
			tps[i] = keyTpl(0, rng.IntN(lookupKeys))
		}
		t0 := time.Now()
		for _, tp := range tps {
			h.Read(tp)
		}
		per = append(per, float64(time.Since(t0))/float64(time.Microsecond)/batch)
	}
	st := h.Stats()
	probesPerRead = ratio(float64(st.ReadProbes), float64(st.Reads))

	bag := storage.NewHash()
	seq := uint64(0)
	fill := func() {
		for bag.Len() < bagSize {
			seq++
			bag.Insert(seq, tuple.Make(tuple.String("task"), tuple.Int(int64(seq))).WithID(ids.Next()))
		}
	}
	var takes []float64
	for b := 0; b < 25; b++ {
		fill()
		t0 := time.Now()
		for i := 0; i < batch; i++ {
			bag.Remove(taskTpl)
		}
		takes = append(takes, float64(time.Since(t0))/float64(time.Microsecond)/batch)
	}
	return median(per), probesPerRead, median(takes)
}

// probeCodec times tuple.EncodeTuple and DecodeTuple on the workload's
// tuple shape.
func probeCodec(t tuple.Tuple) (encNs, decNs float64, err error) {
	const batch = 2000
	var enc, dec []float64
	b := tuple.EncodeTuple(t)
	for i := 0; i < 25; i++ {
		t0 := time.Now()
		for j := 0; j < batch; j++ {
			b = tuple.EncodeTuple(t)
		}
		enc = append(enc, float64(time.Since(t0))/batch)
		t0 = time.Now()
		for j := 0; j < batch; j++ {
			if _, err := tuple.DecodeTuple(b); err != nil {
				return 0, 0, fmt.Errorf("codec probe: %w", err)
			}
		}
		dec = append(dec, float64(time.Since(t0))/batch)
	}
	return median(enc), median(dec), nil
}

// runProbes adds the probe metrics to out: measurements taken from
// outside one layer at a time, by calling its public functions directly.
// The gcast probe needs the live traced cluster; the rest stand alone.
func runProbes(r *run, seed uint64, out metrics) error {
	gcastUs, err := probeGcast(r)
	if err != nil {
		return err
	}
	rttUs, err := probeRTT(tuple.EncodeTuple(r.shape()))
	if err != nil {
		return err
	}
	encNs, decNs, err := probeCodec(r.shape())
	if err != nil {
		return err
	}
	scanUs, probesPerRead, takeUs := probeStorage(seed)
	out.set("vsync.gcast_us", gcastUs, "us")
	out.set("tcp.rtt_us", rttUs, "us")
	out.set("storage.scan_read_us", scanUs, "us")
	out.set("storage.read_probes", probesPerRead, "count")
	out.set("storage.take_head_us", takeUs, "us")
	out.set("tuple.encode_ns", encNs, "ns")
	out.set("tuple.decode_ns", decNs, "ns")
	return nil
}
