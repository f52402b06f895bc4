package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"

	"parsim/internal/cluster"
	"parsim/internal/netlist"
)

func bodies(l *jobList) [][]byte {
	var out [][]byte
	for _, j := range append(append([]*job(nil), l.warm...), l.timed...) {
		out = append(out, j.body)
	}
	return out
}

func TestSameSeedSameList(t *testing.T) {
	for _, w := range workloads {
		a, b := bodies(w.build(3, 1)), bodies(w.build(3, 1))
		if len(a) != len(b) {
			t.Fatalf("%s: %d vs %d jobs", w.name, len(a), len(b))
		}
		for i := range a {
			if !bytes.Equal(a[i], b[i]) {
				t.Fatalf("%s: job %d differs between two builds of seed 3", w.name, i)
			}
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	for _, w := range workloads {
		a, b := bodies(w.build(3, 1)), bodies(w.build(4, 1))
		same := 0
		for i := range a {
			if i < len(b) && bytes.Equal(a[i], b[i]) {
				same++
			}
		}
		if same > 0 {
			t.Errorf("%s: seeds 3 and 4 share %d of %d submissions", w.name, same, len(a))
		}
	}
}

func TestListSize(t *testing.T) {
	for _, w := range workloads {
		l := w.build(1, 1)
		if len(l.timed) < minJobs {
			t.Errorf("%s: %d timed jobs, want at least %d", w.name, len(l.timed), minJobs)
		}
		if more := w.build(1, 60); len(more.timed) <= len(l.timed) {
			t.Errorf("%s: --seconds 60 gives %d jobs, no more than --seconds 1", w.name, len(more.timed))
		}
		classes := map[string]bool{}
		for _, j := range l.warm {
			if classes[j.class] {
				t.Errorf("%s: warm-up repeats class %s", w.name, j.class)
			}
			classes[j.class] = true
		}
		for _, j := range l.timed {
			if !classes[j.class] {
				t.Errorf("%s: timed class %s has no warm-up job", w.name, j.class)
			}
		}
	}
}

// TestDesignedRepeats keys every submission as the daemon does: only
// front-door's designed repeats may share a key with an earlier one, and
// they are exactly one submission in four.
func TestDesignedRepeats(t *testing.T) {
	for _, w := range workloads {
		l := w.build(5, 1)
		seen := map[string]int{}
		repeats, lints := 0, 0
		for _, j := range append(append([]*job(nil), l.warm...), l.timed...) {
			c, err := netlist.ReadLimited(strings.NewReader(j.sub.Netlist), parsimdLimits)
			if err != nil {
				t.Fatal(err)
			}
			sub := j.sub
			key := cluster.KeyForSubmission(c, &sub)
			if _, dup := seen[key]; dup {
				if j.repeatOf < 0 {
					t.Errorf("%s: job %d (%s) shares a key with an earlier job without being a designed repeat", w.name, j.index, j.class)
				}
				repeats++
			} else if j.repeatOf >= 0 {
				t.Errorf("%s: designed repeat %d has a fresh key", w.name, j.index)
			}
			seen[key] = j.index
		}
		for _, j := range l.timed {
			if j.lint() {
				lints++
			}
		}
		if w.name != "front-door" {
			if repeats != 0 {
				t.Errorf("%s: %d repeated keys, want none", w.name, repeats)
			}
			continue
		}
		if 4*repeats != len(l.timed) {
			t.Errorf("front-door: %d of %d timed submissions repeat a key, want 1 in 4", repeats, len(l.timed))
		}
		if 4*lints != len(l.timed) {
			t.Errorf("front-door: %d of %d timed submissions ask lint, want 1 in 4", lints, len(l.timed))
		}
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v, err := percentile(xs, 0.9); err != nil || v != 90 {
		t.Errorf("p90 of 1..100 = %v, %v; want 90", v, err)
	}
	if _, err := percentile(xs[:99], 0.9); err == nil {
		t.Error("p90 of 99 samples has 9 beyond it and must be refused")
	}
	if v, err := percentile(xs[:20], 0.5); err != nil || v != 10 {
		t.Errorf("p50 of 1..20 = %v, %v; want 10", v, err)
	}
	if _, err := percentile(xs[:19], 0.5); err == nil {
		t.Error("p50 of 19 samples has 9 beyond it and must be refused")
	}
}

// TestBenchmarkJSON checks that the metric catalogs are well named and that
// BENCHMARK.json lists exactly the workloads and metrics the command prints.
func TestBenchmarkJSON(t *testing.T) {
	metricName := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer()...) {
		if !metricName.MatchString(d.name) {
			t.Errorf("metric name %q", d.name)
		}
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the command %d", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		if findWorkload(w.Name) == nil {
			t.Errorf("BENCHMARK.json workload %q is unknown to the command", w.Name)
		}
	}
	check := func(what string, got []struct{ Name, Unit, Better string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the command prints %d", what, len(got), len(want))
			return
		}
		for i, d := range want {
			if g := got[i]; g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, command %+v", what, i, g, d)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer())
}
