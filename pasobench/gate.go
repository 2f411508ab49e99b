package main

import (
	"fmt"
	"sort"
	"time"

	"paso/internal/class"
	"paso/internal/semantics"
	"paso/internal/tuple"
)

// settled is the cluster state the gate compares the history against,
// captured once the clients have stopped.
type settled struct {
	lens       map[class.ID][]int // ClassLen of every live wg(C) member
	afterDrain []int              // tasks: every member's bag size after the drain
}

// classes returns the classes the workload writes.
func (r *run) classes() []class.ID {
	cl := r.c.cfg.Classifier
	if !r.w.lookup {
		return []class.ID{cl.ClassOf(tuple.Make(tuple.String("task"), tuple.Int(0)))}
	}
	out := make([]class.ID, len(lookupClasses))
	for i, name := range lookupClasses {
		out[i] = cl.ClassOf(tuple.Make(tuple.String(name), tuple.Int(0), tuple.Bytes(nil)))
	}
	return out
}

// memberLens returns the ClassLen every live member of wg(cls) reports.
func (r *run) memberLens(cls class.ID) []int {
	var lens []int
	for _, m := range r.c.live() {
		if m.MemberOf(cls) {
			lens = append(lens, m.ClassLen(cls))
		}
	}
	return lens
}

// settle waits for the members of each written class to agree on its size
// (a policy join or leave may still be in flight), records the sizes, and
// for the task bag drains it from an outsider so the gate can compare the
// surviving objects one by one with the acknowledged inserts.
func (r *run) settle() error {
	r.final.lens = make(map[class.ID][]int)
	for _, cls := range r.classes() {
		deadline := time.Now().Add(5 * time.Second)
		lens := r.memberLens(cls)
		for !agree(lens) && time.Now().Before(deadline) {
			time.Sleep(5 * time.Millisecond)
			lens = r.memberLens(cls)
		}
		r.final.lens[cls] = lens
	}
	if r.w.lookup {
		return nil
	}
	r.drain = &clientLog{machine: 3}
	m := r.c.machines[r.drain.machine]
	for r.take(m, r.drain, taskTpl) {
	}
	if r.drain.errTakes > 0 {
		return fmt.Errorf("drain on machine %d failed", r.drain.machine)
	}
	r.final.afterDrain = r.memberLens(r.classes()[0])
	return nil
}

func agree(lens []int) bool {
	for _, l := range lens {
		if l != lens[0] {
			return false
		}
	}
	return len(lens) > 0
}

// history assembles the full recorded history, preload and drain
// included. Swap replacements enter it under the identity a later read or
// swap revealed; one never returned to anyone cannot be checked against
// and is left out. A serial seen under two identities is a violation.
func (r *run) history() ([]semantics.Record, []string) {
	var bad []string
	ids := make(map[uint64]tuple.ID)
	var recs []semantics.Record
	logs := append(append([]*clientLog(nil), r.preload...), r.logs...)
	if r.drain != nil {
		logs = append(logs, r.drain)
	}
	for _, l := range logs {
		recs = append(recs, l.recs...)
		bad = append(bad, l.bad...)
		for _, o := range l.seen {
			if prev, ok := ids[o.serial]; ok && prev != o.id {
				bad = append(bad, fmt.Sprintf("write serial %#x returned as both %v and %v", o.serial, prev, o.id))
			}
			ids[o.serial] = o.id
		}
	}
	for _, l := range logs {
		for _, si := range l.swapIns {
			if id, ok := ids[si.serial]; ok {
				si.rec.Obj = id
				recs = append(recs, si.rec)
			}
		}
	}
	return recs, bad
}

// verdict is the correctness gate: it returns every violation found in
// the history and the settled state, and is empty when the run is correct.
//   - semantics.Check finds nothing on the full history;
//   - every wg(C) member reports the same ClassLen;
//   - every read, take and swap hits, and every dictionary class keeps
//     all its keys;
//   - tasks/failover: preload + inserts − takes = final size, and the
//     drain returns exactly the acknowledged inserts not taken, give or
//     take the ops that errored (a crash can leave their outcome open).
func (r *run) verdict() []string {
	recs, out := r.history()
	for _, v := range semantics.Check(recs) {
		out = append(out, "semantics "+v.Error())
	}
	classes := make([]class.ID, 0, len(r.final.lens))
	for cls := range r.final.lens {
		classes = append(classes, cls)
	}
	sort.Slice(classes, func(i, j int) bool { return classes[i] < classes[j] })
	for _, cls := range classes {
		if lens := r.final.lens[cls]; !agree(lens) {
			out = append(out, fmt.Sprintf("wg(%s) members disagree on its size: %v", cls, lens))
		}
	}
	for _, l := range r.logs {
		for _, s := range l.samples {
			if s.fail && !s.err && s.kind != opInsert {
				out = append(out, fmt.Sprintf("machine %d: a must-hit %s found nothing", l.machine, kindNames[s.kind]))
				break
			}
		}
	}
	if r.w.lookup {
		for _, cls := range classes {
			for _, n := range r.final.lens[cls] {
				if n != lookupKeys {
					out = append(out, fmt.Sprintf("wg(%s) holds %d points, want %d", cls, n, lookupKeys))
					break
				}
			}
		}
		return out
	}
	return append(out, r.bagVerdict(recs)...)
}

// bagVerdict checks conservation of the task bag against the history.
func (r *run) bagVerdict(recs []semantics.Record) []string {
	var out []string
	live := make(map[tuple.ID]bool) // acknowledged inserts not yet taken
	maybe := 0                      // inserts that errored
	for _, rec := range recs {
		if rec.Type != semantics.OpInsert {
			continue
		}
		if rec.OK {
			live[rec.Obj] = true
		} else {
			maybe++
		}
	}
	inserted, taken, errTakes := len(live), 0, 0
	for _, l := range r.logs {
		errTakes += l.errTakes
		for _, rec := range l.recs {
			if rec.Type == semantics.OpReadDel && rec.OK {
				taken++
			}
		}
	}
	for _, rec := range recs {
		if rec.Type == semantics.OpReadDel && rec.OK {
			delete(live, rec.Obj)
		}
	}
	expect := inserted - taken // the bag's size before the drain
	for _, n := range r.final.lens[r.classes()[0]] {
		if n < expect-errTakes || n > expect+maybe {
			out = append(out, fmt.Sprintf("bag holds %d tasks, want %d (preload + inserts − takes)", n, expect))
			break
		}
	}
	lost := make([]string, 0, len(live))
	for id := range live {
		lost = append(lost, id.String())
	}
	sort.Strings(lost)
	if len(lost) > 0 {
		out = append(out, fmt.Sprintf("%d acknowledged inserts neither taken nor drained, e.g. %s", len(lost), lost[0]))
	}
	for _, n := range r.final.afterDrain {
		if n != 0 {
			out = append(out, fmt.Sprintf("bag holds %d tasks after the drain", n))
			break
		}
	}
	return out
}
