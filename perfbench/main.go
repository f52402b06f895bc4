// Command perfbench is parsim's end-to-end benchmark: it boots the parsimd
// service in-process behind a loopback listener, drives it with one
// closed-loop client over a seeded job list, checks every result against
// in-process oracles, and prints the metrics.
//
//	perfbench --workload paper-sim --seed 1 --seconds 15 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the same list
// again with client spans and an in-process replay of the daemon's path,
// and prints the per-layer metrics. The last line of standard output is
// one JSON object: {"correct", "attempted", "failed", "metrics"}. The exit
// code is 1 when any result is wrong.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// defaultSeed is the seed the benchmark is tuned on; heldOutSeed is kept
// for re-checking a claim on inputs it was not tuned on.
const (
	defaultSeed = 1
	heldOutSeed = 7919
)

// A run boots a daemon and warms it at least minSetups times and until
// the set-ups add up to setupBudget; setup_s is their median.
const (
	minSetups   = 3
	setupBudget = time.Second
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: front-door, paper-sim, gang or fault-lanes")
	seed := fs.Int64("seed", defaultSeed, fmt.Sprintf("workload seed (held-out seed: %d)", heldOutSeed))
	seconds := fs.Int("seconds", 15, "nominal length of the timed window; sizes the job list")
	traced := fs.Int("trace", 0, "1 runs the traced replay and prints per-layer metrics")
	out := fs.String("out", ".bench_build", "directory the traced run writes its spans to")
	commit := fs.String("commit", "unknown", "commit of the source tree, recorded in the host block")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w := findWorkload(*name)
	if w == nil || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (one of %s), --seconds >= 1 and --trace 0|1\n", workloadNames())
		return 2
	}
	res, err := measure(w, *seed, *seconds, *traced == 1, *out, *commit, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// measure runs one workload end to end and returns the result line.
func measure(w *workload, seed int64, seconds int, traced bool, outDir, commit string, stdout io.Writer) (*result, error) {
	h := host(commit)
	hb, _ := json.Marshal(map[string]any{"host": h, "workload": w.name, "seed": seed, "seconds": seconds, "trace": traced}) // strings and numbers always encode
	fmt.Fprintln(stdout, string(hb))

	// Inputs and references first; neither is part of set-up.
	list := w.build(seed, seconds)
	o := newOracle(seed)
	warmExp, err := expectations(o, list.warm)
	if err != nil {
		return nil, err
	}
	timedExp, err := expectations(o, list.timed)
	if err != nil {
		return nil, err
	}

	var setupTimes []float64
	var d *daemon
	for total := time.Duration(0); len(setupTimes) < minSetups || total < setupBudget; {
		if d != nil {
			if err := d.stop(); err != nil {
				return nil, err
			}
		}
		var took time.Duration
		if d, took, err = setup(list.warm, warmExp); err != nil {
			return nil, err
		}
		setupTimes = append(setupTimes, took.Seconds())
		total += took
	}
	steal0, total0, stealOK := cpuTicks()
	plain := timedPass(d, list.timed, timedExp, nil)
	steal1, total1, _ := cpuTicks()
	if err := d.stop(); err != nil {
		return nil, err
	}
	_, peakKB := usage()
	fmt.Fprintf(stdout, "%s: %d jobs in %.2fs, %d ok\n", w.name, len(list.timed), plain.totalWall().Seconds(), plain.ok)
	if stealOK && total1 > total0 {
		// Not a metric: it explains a slow run on a shared host.
		fmt.Fprintf(stdout, "host steal during the timed list: %.1f%% of CPU time\n", 100*float64(steal1-steal0)/float64(total1-total0))
	}
	for _, f := range plain.failures {
		fmt.Fprintln(stdout, "  FAIL", f)
	}

	res := &result{Attempted: len(list.timed)}
	var pass *passResult
	if !traced {
		pass = plain
		// A failed or refused job misses every latency limit.
		lat := make([]float64, len(plain.outcomes))
		for i, oc := range plain.outcomes {
			lat[i] = math.Inf(1)
			if oc.err == "" {
				lat[i] = ms(oc.latency)
			}
		}
		p50, err := percentile(lat, 0.5)
		if err != nil {
			return nil, err
		}
		p90, err := percentile(lat, 0.9)
		if err != nil {
			return nil, err
		}
		jobsPerS, cpuPerJob := plain.blockMedians(list.blockLen)
		res.Metrics = fill(endToEnd, map[string]float64{
			"setup_s":        median(setupTimes),
			"jobs_per_s":     jobsPerS,
			"latency_p50_ms": p50,
			"latency_p90_ms": p90,
			"cpu_ms_per_job": cpuPerJob,
			"peak_rss_mb":    float64(peakKB) / 1024,
			"ok_frac":        float64(plain.ok) / float64(len(list.timed)),
		})
		fmt.Fprintf(stdout, "latency samples: %d (p90 has %d beyond it)\n", len(lat), len(lat)-int(math.Ceil(0.9*float64(len(lat))-1e-9)))
		printClasses(stdout, list.timed, lat)
	} else {
		tr := newTracer()
		dt, _, err := setup(list.warm, warmExp)
		if err != nil {
			return nil, err
		}
		pass = timedPass(dt, list.timed, timedExp, tr)
		if err := dt.stop(); err != nil {
			return nil, err
		}
		for _, f := range pass.failures {
			fmt.Fprintln(stdout, "  FAIL (traced)", f)
		}
		got, err := tr.layers(list, pass, plain)
		if err != nil {
			return nil, err
		}
		res.Metrics = fill(perLayer(), got)
		if err := tr.write(filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, seed))); err != nil {
			return nil, err
		}
	}
	res.Failed = len(list.timed) - plain.ok
	res.Correct = len(plain.failures) == 0 && len(pass.failures) == 0
	printTable(stdout, res.Metrics)
	return res, nil
}

// printClasses prints each job class's median latency, slowest last.
func printClasses(wr io.Writer, jobs []*job, lat []float64) {
	by := map[string][]float64{}
	for i, j := range jobs {
		name := j.class
		if j.repeatOf >= 0 {
			name += "/repeat"
		}
		by[name] = append(by[name], lat[i])
	}
	type row struct {
		name string
		med  float64
		n    int
	}
	var rows []row
	for name, xs := range by {
		rows = append(rows, row{name, median(xs), len(xs)})
	}
	sort.Slice(rows, func(a, b int) bool { return rows[a].med < rows[b].med })
	for _, r := range rows {
		fmt.Fprintf(wr, "  class %-28s %4d jobs  median %10.3f ms\n", r.name, r.n, r.med)
	}
}

func printTable(wr io.Writer, m map[string]value) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(wr, "  %-40s %14.4f %s\n", n, m[n].Value, m[n].Unit)
	}
}

func expectations(o *oracle, jobs []*job) ([]*expectation, error) {
	out := make([]*expectation, len(jobs))
	for i, j := range jobs {
		if j.repeatOf >= 0 {
			out[i] = out[j.repeatOf]
			continue
		}
		e, err := o.expect(j)
		if err != nil {
			return nil, err
		}
		out[i] = e
	}
	return out, nil
}

// setup boots a daemon and runs the warm-up, one job per class, checking
// each result. The warm-up fills the schedule memo and grows the heap.
func setup(warm []*job, exp []*expectation) (*daemon, time.Duration, error) {
	start := time.Now()
	d, err := startDaemon()
	if err != nil {
		return nil, 0, err
	}
	c := newClient(d.base)
	defer c.close()
	for i, j := range warm {
		oc := c.run(j.body)
		if oc.err == "" {
			oc.err = exp[i].verify(oc.view.Result)
		}
		if oc.err != "" {
			_ = d.stop() // the warm-up failure is the error to report
			return nil, 0, fmt.Errorf("warm-up job %s: %s", j.class, oc.err)
		}
	}
	return d, time.Since(start), nil
}

// passResult is one pass over the timed list.
type passResult struct {
	outcomes []outcome
	wall     []time.Duration // per job: POST to verified result
	cpu      []time.Duration // per job: process CPU time over the same span
	ok       int
	failures []string
}

func (p *passResult) totalWall() time.Duration {
	var t time.Duration
	for _, w := range p.wall {
		t += w
	}
	return t
}

// blockMedians returns the median over the list's blocks of verified jobs
// per second and of CPU milliseconds per job. Each block holds every job
// class once, so each is a complete sample of the mix, and the median
// keeps a burst of load from other tenants of the host out of the result.
func (p *passResult) blockMedians(blockLen int) (jobsPerS, cpuMSPerJob float64) {
	var rates, cpus []float64
	for b := 0; b+blockLen <= len(p.wall); b += blockLen {
		var wall, cpu time.Duration
		ok := 0
		for i := b; i < b+blockLen; i++ {
			wall += p.wall[i]
			cpu += p.cpu[i]
			if p.outcomes[i].err == "" {
				ok++
			}
		}
		rates = append(rates, float64(ok)/wall.Seconds())
		cpus = append(cpus, ms(cpu)/float64(blockLen))
	}
	return median(rates), median(cpus)
}

// timedPass runs the list in a closed loop. With a tracer it records client
// spans and replays each job in-process after its result is in hand; the
// replay falls between two jobs' spans, so it is in neither's wall or CPU.
func timedPass(d *daemon, jobs []*job, exp []*expectation, tr *tracer) *passResult {
	c := newClient(d.base)
	defer c.close()
	n := len(jobs)
	p := &passResult{outcomes: make([]outcome, n), wall: make([]time.Duration, n), cpu: make([]time.Duration, n)}
	if tr != nil {
		c.span = tr.clientSpan
		if err := tr.scrape(c, true); err != nil {
			p.failures = append(p.failures, err.Error())
		}
	}
	runtime.GC()
	for i, j := range jobs {
		if tr != nil {
			tr.begin(j)
		}
		cpu0 := cpuNow()
		start := time.Now()
		oc := c.run(j.body)
		if oc.err == "" {
			oc.err = exp[i].verify(oc.view.Result)
		}
		p.wall[i] = time.Since(start)
		p.cpu[i] = cpuNow() - cpu0
		if oc.err != "" {
			p.failures = append(p.failures, fmt.Sprintf("job %d (%s): %s", j.index, j.class, oc.err))
		} else {
			p.ok++
		}
		if tr != nil {
			tr.end(&oc)
			if err := tr.replay(j, oc.view.Result); err != nil {
				p.failures = append(p.failures, fmt.Sprintf("replay job %d: %v", j.index, err))
			}
		}
		oc.view.Result = nil // the daemon keeps its own copy
		p.outcomes[i] = oc
	}
	if tr != nil {
		if err := tr.scrape(c, false); err != nil {
			p.failures = append(p.failures, err.Error())
		}
	}
	return p
}

func cpuNow() time.Duration {
	c, _ := usage()
	return c
}
