package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metricDef names one reported metric; the catalogs below are the single
// list BENCHMARK.json mirrors.
type metricDef struct {
	name, unit, better string
}

var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"jobs_per_s", "1/s", "higher"},
	{"latency_p50_ms", "ms", "lower"},
	{"latency_p90_ms", "ms", "lower"},
	{"cpu_ms_per_job", "ms", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"ok_frac", "frac", "higher"},
}

// engineNames are the canonical names of every engine a workload submits.
var engineNames = []string{"sequential", "event-driven", "compiled", "asynchronous", "jit", "auto", "vector"}

func perLayer() []metricDef {
	defs := []metricDef{
		{"server.submit_ms", "ms", "lower"},
		{"server.fetch_ms", "ms", "lower"},
		{"server.polls_per_job", "count", "lower"},
		{"server.rejected_frac", "frac", "lower"},
		{"server.queued_ms", "ms", "lower"},
		{"server.run_ms", "ms", "lower"},
		{"netlist.read_ms", "ms", "lower"},
		{"netlist.read_alloc_kb", "KB", "lower"},
		{"cluster.key_ms", "ms", "lower"},
		{"cluster.key_alloc_kb", "KB", "lower"},
		{"cluster.dedup_hit_frac", "frac", "higher"},
		{"circuit.clone_ms", "ms", "lower"},
		{"analyze.lint_ms", "ms", "lower"},
		{"analyze.schedule_cold_ms", "ms", "lower"},
		{"analyze.fault_list_ms", "ms", "lower"},
	}
	for _, e := range engineNames {
		p := "engine." + e + "."
		defs = append(defs,
			metricDef{p + "wall_ms", "ms", "lower"},
			metricDef{p + "ns_per_eval", "ns", "lower"},
			metricDef{p + "cpu_ms", "ms", "lower"},
			metricDef{p + "util", "frac", "higher"},
			metricDef{p + "barrier_waits", "count", "lower"},
			metricDef{p + "alloc_mb", "MB", "lower"},
		)
	}
	return append(defs,
		metricDef{"engine.asynchronous.model_call_frac", "frac", "lower"},
		metricDef{"barrier.round_trip_ns", "ns", "lower"},
		metricDef{"vector.faults_per_s", "1/s", "higher"},
		metricDef{"vector.passes", "count", "lower"},
		metricDef{"vector.coverage", "frac", "higher"},
		metricDef{"encode.result_ms", "ms", "lower"},
		metricDef{"encode.result_kb", "KB", "lower"},
		metricDef{"trace.overhead_frac", "frac", "lower"},
	)
}

// value is one reported metric in the result line.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// fill returns every metric of a catalog, taking measured values from got
// and 0 for a metric the workload does not exercise.
func fill(defs []metricDef, got map[string]float64) map[string]value {
	out := make(map[string]value, len(defs))
	for _, d := range defs {
		out[d.name] = value{Value: got[d.name], Unit: d.unit}
	}
	return out
}

// minBeyond is the fewest samples a reported percentile must have above it.
const minBeyond = 10

// percentile returns the nearest-rank p-quantile of xs. It refuses a
// percentile with fewer than minBeyond samples beyond it: such a tail is
// set by a handful of jobs and does not repeat from run to run.
func percentile(xs []float64, p float64) (float64, error) {
	n := len(xs)
	rank := int(math.Ceil(p*float64(n) - 1e-9))
	if rank < 1 {
		rank = 1
	}
	if beyond := n - rank; beyond < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, need %d", p*100, n, beyond, minBeyond)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank-1], nil
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// usage is the process's CPU time and peak resident set so far.
func usage() (cpu time.Duration, peakRSSKB int64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), ru.Maxrss
}

// allocated is the process's cumulative heap allocation in bytes.
func allocated() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

// cpuTicks returns the machine's cumulative steal and total CPU ticks from
// /proc/stat; ok is false where it cannot be read. Steal is time the
// hypervisor ran other guests on this VM's CPUs.
func cpuTicks() (steal, total uint64, ok bool) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, false
	}
	for i := 1; i <= 8; i++ { // user nice system idle iowait irq softirq steal
		v, err := strconv.ParseUint(f[i], 10, 64)
		if err != nil {
			return 0, 0, false
		}
		total += v
		if i == 8 {
			steal = v
		}
	}
	return steal, total, true
}

// hostInfo identifies the machine a result was measured on.
type hostInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPU        string `json:"cpu"`
	Kernel     string `json:"kernel"`
	Commit     string `json:"commit"`
	Note       string `json:"note"`
}

func host(commit string) hostInfo {
	h := hostInfo{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPU:        "unknown",
		Kernel:     "unknown",
		Commit:     commit,
		Note:       "measured wall and CPU times of this host, not the S15 machine model behind BENCH_baseline.json",
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	var u syscall.Utsname
	if syscall.Uname(&u) == nil {
		var sb strings.Builder
		for _, c := range u.Release {
			if c == 0 {
				break
			}
			sb.WriteByte(byte(c))
		}
		h.Kernel = sb.String()
	}
	return h
}
