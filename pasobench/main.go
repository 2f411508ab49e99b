// Command pasobench is the repository benchmark. It stands up a 4-machine,
// λ = 1 PASO cluster over loopback TCP inside its own process, drives one
// workload with closed-loop clients calling core.Machine primitives,
// checks every output, and prints its metrics. README.md describes the
// workloads, the metrics and the layer each one measures.
//
//	go run . -workload tasks -seed 1 -seconds 10 -trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With -trace 0 the metrics are
// the end-to-end ones; with -trace 1 the workload runs twice, untraced
// and then traced, and the metrics are the per-layer ones. A run whose
// correctness gate finds a violation exits 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"time"
)

func main() {
	os.Exit(benchMain(os.Args[1:], os.Stdout, os.Stderr))
}

// rounds is how many times a pass sets up a fresh cluster and measures
// it for its share of -seconds. Each metric is the median over the
// rounds: a cluster's throughput and tail settle at a level that differs
// from one set-up to the next by more than they vary within a run, so
// several short rounds give a steadier figure than one long one. setup_s
// is the median of the rounds' set-up times.
const rounds = 5

type options struct {
	workload workload
	seed     uint64
	seconds  int
	trace    bool
	commit   string
}

func parseFlags(args []string, stderr io.Writer) (options, error) {
	fs := flag.NewFlagSet("pasobench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "workload: tasks, lookup or failover")
		seed    = fs.Uint64("seed", 1, "input seed")
		seconds = fs.Int("seconds", 10, "measured seconds per run")
		trace   = fs.Int("trace", 0, "1 runs the traced pass and prints per-layer metrics")
		commit  = fs.String("commit", "unknown", "source revision, for the fingerprint")
	)
	if err := fs.Parse(args); err != nil {
		return options{}, err
	}
	w, ok := findWorkload(*name)
	if !ok {
		return options{}, fmt.Errorf("unknown workload %q (want tasks, lookup or failover)", *name)
	}
	if *seconds < 1 {
		return options{}, fmt.Errorf("-seconds must be at least 1")
	}
	if *trace != 0 && *trace != 1 {
		return options{}, fmt.Errorf("-trace must be 0 or 1")
	}
	return options{workload: w, seed: *seed, seconds: *seconds, trace: *trace == 1, commit: *commit}, nil
}

// result is the last line of standard output.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

func benchMain(args []string, stdout, stderr io.Writer) int {
	opt, err := parseFlags(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "pasobench:", err)
		return 2
	}
	fp, _ := json.Marshal(fingerprint(opt)) // a map of plain values always marshals
	fmt.Fprintf(stdout, "fingerprint %s\n", fp)
	rep, err := bench(opt)
	if err != nil {
		fmt.Fprintln(stderr, "pasobench:", err)
		return 1
	}
	res := rep.result(opt.trace)
	printMetrics(stdout, "end-to-end (untraced)", rep.plain.e2e)
	printMetrics(stdout, "other (untraced)", rep.plain.extra)
	if opt.trace {
		printMetrics(stdout, "per-layer (traced)", res.Metrics)
	}
	for _, v := range rep.violations() {
		fmt.Fprintln(stdout, "violation:", v)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "pasobench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// fingerprint records where a result came from, so results from
// different machines or settings are never compared by accident.
func fingerprint(opt options) map[string]any {
	return map[string]any{
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "commit": opt.commit,
		"workload": opt.workload.name, "seed": opt.seed, "seconds": opt.seconds,
		"trace":    opt.trace,
		"machines": nMachines, "lambda": lambda, "k": policyK,
		"transport": "tcp-loopback", "clients": len(opt.workload.clientMachines()),
	}
}

// report is what a run measured: the untraced pass, the traced pass
// when -trace 1 asked for it, and the ops both attempted.
type report struct {
	plain, traced     passResult
	attempted, failed int
}

// bench runs the untraced pass and, with -trace 1, the traced pass.
func bench(opt options) (report, error) {
	var rep report
	var err error
	if rep.plain, err = runPass(opt, false, &rep); err != nil {
		return rep, err
	}
	if opt.trace {
		if rep.traced, err = runPass(opt, true, &rep); err != nil {
			return rep, err
		}
	}
	return rep, nil
}

func (rep report) violations() []string {
	return append(append([]string(nil), rep.plain.violations...), rep.traced.violations...)
}

// result assembles the last output line: the end-to-end metrics, or with
// trace the per-layer ones, which include the untraced pass's other
// metrics and the tracing overhead.
func (rep report) result(trace bool) result {
	res := result{Attempted: rep.attempted, Failed: rep.failed, Metrics: rep.plain.e2e}
	if trace {
		res.Metrics = metrics{}
		for name, m := range rep.traced.layers {
			res.Metrics[name] = m
		}
		for name, m := range rep.plain.extra {
			res.Metrics[name] = m
		}
		res.Metrics.set("trace.overhead_frac",
			1-ratio(rep.traced.e2e["ops_per_s"].Value, rep.plain.e2e["ops_per_s"].Value), "ratio")
	}
	res.Correct = len(rep.violations()) == 0
	if !res.Correct {
		res.Failed = res.Attempted // a run that fails the gate fails all its ops
	}
	return res
}

// passResult is the per-metric median over a pass's rounds.
type passResult struct {
	e2e, extra, layers metrics
	violations         []string
}

// runPass runs the workload for rounds rounds, each on a freshly set-up
// cluster, gates each round, and counts its ops into rep. A traced pass
// also yields the per-layer metrics, with the probes run on the last
// round's cluster.
func runPass(opt options, traced bool, rep *report) (passResult, error) {
	var out passResult
	var e2e, extra, layers []metrics
	d := time.Duration(opt.seconds) * time.Second / rounds
	for i := 0; i < rounds; i++ {
		r, setupS, err := execute(opt.workload, opt.seed, uint64(i), d, traced)
		if err != nil {
			return out, err
		}
		if traced {
			m := layerMetrics(r)
			if i == rounds-1 {
				err = runProbes(r, opt.seed, m)
			}
			layers = append(layers, m)
		}
		r.c.stop()
		if err != nil {
			return out, err
		}
		e, x := endToEnd(r)
		e.set("setup_s", setupS, "s")
		e2e, extra = append(e2e, e), append(extra, x)
		for _, v := range r.verdict() {
			out.violations = append(out.violations, fmt.Sprintf("round %d: %s", i, v))
		}
		for _, s := range allSamples(r) {
			rep.attempted++
			if s.fail {
				rep.failed++
			}
		}
	}
	out.e2e, out.extra = medians(e2e), medians(extra)
	if traced {
		out.layers = medians(layers)
	}
	return out, nil
}

// execute runs one round: it sets a cluster up (start plus preload, timed
// as the set-up), runs the workload on it for d and settles it for the
// gate. The caller stops the returned run's cluster.
func execute(w workload, seed, round uint64, d time.Duration, traced bool) (*run, float64, error) {
	t0 := time.Now()
	c, err := startCluster(traced)
	if err != nil {
		return nil, 0, err
	}
	r := &run{w: w, c: c, seed: seed, round: round}
	if err := r.preloadData(); err != nil {
		c.stop()
		return nil, 0, err
	}
	setupS := time.Since(t0).Seconds()
	if traced {
		r.before = snapLayers(r.c)
	}
	r.drive(d)
	if traced {
		r.spans = r.c.shared.Spans().Spans()
		r.after = snapLayers(r.c)
	}
	if err := r.settle(); err != nil {
		r.c.stop()
		return nil, 0, err
	}
	return r, setupS, nil
}

// metric is one named measurement with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{v, unit} }

// medians takes each metric's median over the rounds.
func medians(rs []metrics) metrics {
	vals := make(map[string][]float64)
	out := metrics{}
	for _, m := range rs {
		for name, v := range m {
			vals[name] = append(vals[name], v.Value)
			out[name] = v
		}
	}
	for name, v := range vals {
		out.set(name, median(v), out[name].Unit)
	}
	return out
}

func printMetrics(w io.Writer, title string, m metrics) {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "# %s\n", title)
	for _, name := range names {
		fmt.Fprintf(w, "%-32s %14.6g %s\n", name, m[name].Value, m[name].Unit)
	}
}

func allSamples(r *run) []sample {
	var out []sample
	for _, l := range r.logs {
		out = append(out, l.samples...)
	}
	return out
}

// endToEnd computes the metrics a PASO user sees: throughput, latency
// quantiles, wire cost per op (§3.3's α and β terms) and failures. Every
// workload yields every metric in e2e, and each is steady enough from run
// to run to carry a bound. extra holds the rest: the tail quantiles, whose
// run-to-run spread on a shared 2-CPU box exceeds any bound the harness
// allows (README.md), and the metrics only some workloads yield (reads on
// lookup, an outage on failover).
func endToEnd(r *run) (e2e, extra metrics) {
	e2e, extra = metrics{}, metrics{}
	samples := allSamples(r)
	var all, reads, writes, ends []float64
	failed := 0
	for _, s := range samples {
		ms := float64(s.end-s.start) / 1e6
		all = append(all, ms)
		if s.kind.write() {
			writes = append(writes, ms)
		} else {
			reads = append(reads, ms)
		}
		if s.fail {
			failed++
		} else {
			ends = append(ends, float64(s.end)/1e9)
		}
	}
	ops := float64(len(samples))
	e2e.set("ops_per_s", float64(len(samples)-failed)/r.elapsed.Seconds(), "1/s")
	e2e.set("p50_ms", quantile(all, 0.50), "ms")
	e2e.set("write_p50_ms", quantile(writes, 0.50), "ms")
	e2e.set("wire_bytes_per_op", ratio(float64(r.wire.bytes), ops), "B")
	e2e.set("frames_per_op", ratio(float64(r.wire.frames), ops), "count")
	extra.set("samples", ops, "count")
	extra.set("p95_ms", quantile(all, 0.95), "ms")
	extra.set("p99_ms", quantile(all, 0.99), "ms")
	extra.set("write_p95_ms", quantile(writes, 0.95), "ms")
	extra.set("write_p99_ms", quantile(writes, 0.99), "ms")
	extra.set("read_p50_ms", quantile(reads, 0.50), "ms")
	extra.set("read_p99_ms", quantile(reads, 0.99), "ms")
	extra.set("fail_frac", ratio(float64(failed), ops), "ratio")
	sort.Float64s(ends)
	gap, prev := 0.0, 0.0
	for _, e := range ends {
		gap = math.Max(gap, e-prev)
		prev = e
	}
	extra.set("unavail_s", gap, "s")
	return e2e, extra
}

// quantile is the nearest-rank q-quantile; 0 for no values.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(i, 0)]
}

func median(v []float64) float64 { return quantile(v, 0.5) }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
