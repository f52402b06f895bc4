package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"parsim"
	"parsim/internal/analyze"
	"parsim/internal/barrier"
	"parsim/internal/circuit"
	"parsim/internal/cluster"
	"parsim/internal/engine"
	"parsim/internal/netlist"
)

// parsimdLimits are the netlist caps parsimd applies by default.
var parsimdLimits = netlist.Limits{MaxBytes: 8 << 20, MaxNodes: 200000, MaxElems: 200000}

// span is one timed call. Spans of one job share its index; a replayed
// call's parent is the job's replay span, a client call's the job's
// client span.
type span struct {
	ID     int                `json:"id"`
	Parent int                `json:"parent,omitempty"`
	Job    int                `json:"job"`
	Name   string             `json:"name"`
	Class  string             `json:"class,omitempty"` // on a job's client span
	Start  int64              `json:"start_ns"`        // since the traced pass began
	End    int64              `json:"end_ns"`
	Counts map[string]float64 `json:"counts,omitempty"`
}

// tracer keeps the traced pass's spans in memory until the run ends.
type tracer struct {
	t0     time.Time
	spans  []span
	job    int                // index of the job in flight
	root   int                // its client span
	dedup0 map[string]float64 // daemon counters before and after the pass
	dedup1 map[string]float64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) add(parent int, name string, start, end time.Time, counts map[string]float64) int {
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Job: t.job, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds(), Counts: counts,
	})
	return len(t.spans)
}

// begin opens the client span of job j; its end is set by end.
func (t *tracer) begin(j *job) {
	t.job = j.index
	now := time.Now()
	t.root = t.add(0, "client.job", now, now, nil)
	t.spans[t.root-1].Class = j.class
}

func (t *tracer) clientSpan(name string, start, end time.Time) {
	t.add(t.root, name, start, end, nil)
}

// end closes the job's client span and records what the job view said.
func (t *tracer) end(oc *outcome) {
	s := &t.spans[t.root-1]
	s.End = s.Start + oc.latency.Nanoseconds()
	if oc.latency == 0 {
		s.End = time.Since(t.t0).Nanoseconds()
	}
	rejected := 0.0
	if oc.rejected {
		rejected = 1
	}
	s.Counts = map[string]float64{
		"polls":     float64(oc.polls),
		"rejected":  rejected,
		"queued_ms": float64(oc.view.QueuedMS),
		"run_ms":    float64(oc.view.RunMS),
	}
	// The last GET is the fetch that returned the result.
	for k := len(t.spans) - 1; k >= t.root; k-- {
		if t.spans[k].Parent == t.root && t.spans[k].Name == "server.poll" {
			t.spans[k].Name = "server.fetch"
			break
		}
	}
}

func (t *tracer) scrape(c *client, before bool) error {
	m, err := c.counters("parsimd_dedup_hits_total", "parsimd_jobs_submitted_total")
	if before {
		t.dedup0 = m
	} else {
		t.dedup1 = m
	}
	return err
}

// replay re-runs job j's daemon path in-process through the same public
// calls, in the daemon's order: ReadLimited, KeyForSubmission, then — unless
// the daemon served the job from its dedup cache — Clone, Analyze (lint
// jobs), FaultList (fault jobs) and engine.Run, and last the encoding of the
// served result. engine.Run gets lint off: its lint pass is the Analyze span.
func (t *tracer) replay(j *job, served *parsim.Result) error {
	now := time.Now()
	parent := t.add(0, "replay", now, now, nil)
	call := func(name string, f func() map[string]float64) {
		a0 := allocated()
		start := time.Now()
		counts := f()
		end := time.Now()
		if counts == nil {
			counts = map[string]float64{}
		}
		counts["alloc_kb"] = float64(allocated()-a0) / 1024
		t.add(parent, name, start, end, counts)
	}

	var c *circuit.Circuit
	var err error
	call("netlist.read", func() map[string]float64 {
		c, err = netlist.ReadLimited(strings.NewReader(j.sub.Netlist), parsimdLimits)
		return nil
	})
	if err != nil {
		return err
	}
	sub := j.sub
	call("cluster.key", func() map[string]float64 {
		cluster.KeyForSubmission(c, &sub)
		return nil
	})
	if j.repeatOf < 0 {
		var cl *circuit.Circuit
		call("circuit.clone", func() map[string]float64 { cl = c.Clone(); return nil })
		if j.lint() {
			call("analyze.lint", func() map[string]float64 { analyze.Analyze(cl, analyze.Options{}); return nil })
		}
		if j.sub.FaultSim {
			call("analyze.fault_list", func() map[string]float64 { analyze.FaultList(cl, true); return nil })
		}
		eng, gerr := engine.Get(j.sub.Engine)
		if gerr != nil {
			return gerr
		}
		var runErr error
		call("engine."+eng.Name(), func() map[string]float64 {
			cpu0, _ := usage()
			start := time.Now()
			rep, err := engine.Run(context.Background(), eng.Name(), cl, engine.Config{
				Workers:        j.sub.Workers,
				Horizon:        circuit.Time(j.sub.Horizon),
				Lanes:          j.sub.Lanes,
				LaneStride:     j.sub.LaneStride,
				FaultSim:       j.sub.FaultSim,
				FaultMaxPasses: j.sub.FaultMaxPasses,
				FaultStatuses:  j.sub.FaultStatuses,
			})
			wall := time.Since(start)
			cpu1, _ := usage()
			if err != nil {
				runErr = err
				return nil
			}
			tot := rep.Run.Totals()
			counts := map[string]float64{
				"evals":         float64(rep.Run.Evals),
				"model_calls":   float64(rep.Run.ModelCalls),
				"barrier_waits": float64(tot.BarrierWaits),
				"util":          rep.Run.Utilization(),
				"cpu_ms":        ms(cpu1 - cpu0),
			}
			if fc := rep.FaultCoverage; fc != nil {
				graded := fc.Passes * (fc.Lanes - 1)
				if graded > fc.Total {
					graded = fc.Total
				}
				counts["faults"] = float64(graded)
				counts["passes"] = float64(fc.Passes)
				counts["coverage"] = float64(fc.Detected) / float64(fc.Total)
				counts["faults_per_s"] = float64(graded) / wall.Seconds()
			}
			return counts
		})
		if runErr != nil {
			return runErr
		}
	}
	call("encode.result", func() map[string]float64 {
		b, merr := json.Marshal(served)
		if merr != nil {
			err = merr
		}
		return map[string]float64{"bytes": float64(len(b))}
	})
	t.spans[parent-1].End = time.Since(t.t0).Nanoseconds()
	return err
}

// coldSchedules times analyze.LevelSchedule on digests the memo has not
// seen: each workload circuit plus one constant driving an unread node,
// which changes the structural digest but barely the levelization work.
func (t *tracer) coldSchedules(l *jobList) error {
	seen := map[string]bool{}
	for _, j := range l.warm {
		if seen[j.variant.kind] {
			continue
		}
		seen[j.variant.kind] = true
		for k := 0; k < 3; k++ {
			text := fmt.Sprintf("%snode perfbench_cold_%d 1\nelem const perfbench_cold_%d delay=1 out=perfbench_cold_%d init=1'b0\n",
				j.sub.Netlist, k, k, k)
			c, err := netlist.Read(strings.NewReader(text))
			if err != nil {
				return err
			}
			t.job = -1
			start := time.Now()
			analyze.LevelSchedule(c)
			t.add(0, "analyze.schedule_cold", start, time.Now(), nil)
		}
	}
	return nil
}

// barrierRoundTrip times a barrier.New(2) Wait loop on two goroutines.
func barrierRoundTrip() float64 {
	const rounds = 20000
	b := barrier.New(2)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var s barrier.Sense
			for i := 0; i < rounds; i++ {
				b.Wait(&s)
			}
		}()
	}
	wg.Wait()
	return float64(time.Since(start).Nanoseconds()) / rounds
}

// selfTimes returns each span's duration minus the part its children cover.
func (t *tracer) selfTimes() []float64 {
	self := make([]float64, len(t.spans))
	for i, s := range t.spans {
		self[i] += float64(s.End - s.Start)
		if s.Parent > 0 {
			self[s.Parent-1] -= float64(s.End - s.Start)
		}
	}
	return self
}

// layers reduces the spans to the per-layer metrics: the mean self time of
// a layer's calls, and count ratios taken over the same calls.
func (t *tracer) layers(l *jobList, traced, untraced *passResult) (map[string]float64, error) {
	if err := t.coldSchedules(l); err != nil {
		return nil, err
	}
	self := t.selfTimes()
	// Block medians of both passes, so a burst of host load in one pass
	// does not read as tracing cost.
	untracedRate, _ := untraced.blockMedians(l.blockLen)
	tracedRate, _ := traced.blockMedians(l.blockLen)
	type agg struct {
		n      int
		selfNS float64
		counts map[string]float64
	}
	by := map[string]*agg{}
	faultRuns := 0.0
	for i, s := range t.spans {
		if _, ok := s.Counts["passes"]; ok {
			faultRuns++
		}
		a := by[s.Name]
		if a == nil {
			a = &agg{counts: map[string]float64{}}
			by[s.Name] = a
		}
		a.n++
		a.selfNS += self[i]
		for k, v := range s.Counts {
			a.counts[k] += v
		}
	}
	mean := func(name string) float64 {
		if a := by[name]; a != nil && a.n > 0 {
			return a.selfNS / float64(a.n) / 1e6
		}
		return 0
	}
	perCall := func(name, count string) float64 {
		if a := by[name]; a != nil && a.n > 0 {
			return a.counts[count] / float64(a.n)
		}
		return 0
	}
	m := map[string]float64{
		"server.submit_ms":         mean("server.submit"),
		"server.fetch_ms":          mean("server.fetch"),
		"server.polls_per_job":     perCall("client.job", "polls"),
		"server.rejected_frac":     perCall("client.job", "rejected"),
		"server.queued_ms":         perCall("client.job", "queued_ms"),
		"server.run_ms":            perCall("client.job", "run_ms"),
		"netlist.read_ms":          mean("netlist.read"),
		"netlist.read_alloc_kb":    perCall("netlist.read", "alloc_kb"),
		"cluster.key_ms":           mean("cluster.key"),
		"cluster.key_alloc_kb":     perCall("cluster.key", "alloc_kb"),
		"circuit.clone_ms":         mean("circuit.clone"),
		"analyze.lint_ms":          mean("analyze.lint"),
		"analyze.schedule_cold_ms": mean("analyze.schedule_cold"),
		"analyze.fault_list_ms":    mean("analyze.fault_list"),
		"barrier.round_trip_ns":    barrierRoundTrip(),
		"encode.result_ms":         mean("encode.result"),
		"encode.result_kb":         perCall("encode.result", "bytes") / 1024,
		"trace.overhead_frac":      untracedRate/tracedRate - 1,
	}
	if t.dedup0 != nil && t.dedup1 != nil {
		if sub := t.dedup1["parsimd_jobs_submitted_total"] - t.dedup0["parsimd_jobs_submitted_total"]; sub > 0 {
			m["cluster.dedup_hit_frac"] = (t.dedup1["parsimd_dedup_hits_total"] - t.dedup0["parsimd_dedup_hits_total"]) / sub
		}
	}
	for _, e := range engineNames {
		name := "engine." + e
		a := by[name]
		if a == nil {
			continue
		}
		p := name + "."
		m[p+"wall_ms"] = mean(name)
		if a.counts["evals"] > 0 {
			m[p+"ns_per_eval"] = a.selfNS / a.counts["evals"]
		}
		m[p+"cpu_ms"] = perCall(name, "cpu_ms")
		m[p+"util"] = perCall(name, "util")
		m[p+"barrier_waits"] = perCall(name, "barrier_waits")
		m[p+"alloc_mb"] = perCall(name, "alloc_kb") / 1024
	}
	if a := by["engine.asynchronous"]; a != nil && a.counts["evals"] > 0 {
		m["engine.asynchronous.model_call_frac"] = a.counts["model_calls"] / a.counts["evals"]
	}
	if a := by["engine.vector"]; a != nil && faultRuns > 0 {
		m["vector.passes"] = a.counts["passes"] / faultRuns
		m["vector.coverage"] = a.counts["coverage"] / faultRuns
		m["vector.faults_per_s"] = a.counts["faults_per_s"] / faultRuns
	}
	return m, nil
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			_ = f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}
