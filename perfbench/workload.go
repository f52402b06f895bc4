package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"

	"parsim/internal/circuit"
	"parsim/internal/cluster"
	"parsim/internal/gen"
	"parsim/internal/netlist"
)

// Circuit kinds: the paper's four benchmark circuits.
const (
	kindArray = "array" // 32x16 inverter array
	kindGate  = "gate"  // 16-bit multiplier, gate level
	kindFunc  = "func"  // 16-bit multiplier, functional level
	kindCPU   = "cpu"   // pipelined microprocessor
)

// Paper horizons. The multipliers stop on a multiple of InPeriod and the
// CPU on a clock edge: the compiled family applies unit delays, so its
// finals match the sequential oracle only once the circuit has settled.
var (
	mulCfg    = gen.DefaultMultiplier()
	cpuCfg    = gen.DefaultCPU()
	hArray    = circuit.Time(192)
	hGate     = 4 * mulCfg.InPeriod
	hFunc     = 8 * mulCfg.InPeriod
	hCPU      = gen.CPUHorizon(cpuCfg, 40)
	hGangGate = 2 * mulCfg.InPeriod
	hGangCPU  = gen.CPUHorizon(cpuCfg, 20)
	hFaultCPU = gen.CPUHorizon(cpuCfg, 5)
)

// faultLanes is the plane width of every fault-lanes job: one machine word.
const faultLanes = 64

// variant is one generated circuit: a paper circuit with its generator
// inputs drawn from the workload seed, serialized once as netlist text.
type variant struct {
	kind    string
	netlist string
	program []uint16 // CPU instruction ROM; nil for the other kinds
}

// job is one submission of a workload's job list.
type job struct {
	index    int
	class    string // circuit kind / engine [/ faults|lanes] — one warm-up job per class
	variant  *variant
	sub      cluster.Submission
	body     []byte // the POST body, encoded once before anything is timed
	repeatOf int    // index of the earlier job this one repeats byte for byte; -1 if fresh
}

func (j *job) lint() bool { return j.sub.Lint != "" }

// generator draws circuit variants and jobs from one seeded stream, so the
// same seed gives byte-identical job lists. Every variant is distinct: the
// dedup cache must only see the repeats a workload designs.
type generator struct {
	rng    *rand.Rand
	seen   map[string]bool
	blocks int // blocks generated so far
}

func newGenerator(workload string, seed int64) *generator {
	h := int64(0)
	for _, c := range workload {
		h = h*131 + int64(c)
	}
	return &generator{rng: rand.New(rand.NewSource(seed ^ h<<20)), seen: map[string]bool{}}
}

// fresh reports whether a variant key is new, recording it.
func (g *generator) fresh(key string) bool {
	if g.seen[key] {
		return false
	}
	g.seen[key] = true
	return true
}

func (g *generator) variant(kind string) *variant {
	var c *circuit.Circuit
	var prog []uint16
	switch kind {
	case kindArray:
		// The paper's Fig. 2 activity knob: active rows and toggle period.
		cfg := gen.DefaultInverterArray()
		for {
			cfg.ActiveRows = 1 + g.rng.Intn(cfg.Rows)
			cfg.TogglePeriod = circuit.Time(1 + g.rng.Intn(64))
			if g.fresh(fmt.Sprintf("array %d %d", cfg.ActiveRows, cfg.TogglePeriod)) {
				break
			}
		}
		c = gen.InverterArray(cfg)
	case kindGate, kindFunc:
		cfg := mulCfg
		for {
			cfg.Seed = g.rng.Int63n(1 << 40)
			if g.fresh(fmt.Sprintf("mul %d", cfg.Seed)) {
				break
			}
		}
		if kind == kindGate {
			c = gen.GateMultiplier(cfg)
		} else {
			c = gen.FuncMultiplier(cfg)
		}
	case kindCPU:
		for {
			prog = cpuProgram(uint8(1+g.rng.Intn(63)), uint8(1+g.rng.Intn(31)), uint8(16+g.rng.Intn(240)))
			if g.fresh(fmt.Sprintf("cpu %v", prog)) {
				break
			}
		}
		cfg := cpuCfg
		cfg.Program = prog
		c = gen.CPU(cfg)
	default:
		panic("perfbench: unknown circuit kind " + kind)
	}
	var buf bytes.Buffer
	if err := netlist.Write(&buf, c); err != nil {
		panic(err) // writes to a bytes.Buffer cannot fail
	}
	return &variant{kind: kind, netlist: buf.String(), program: prog}
}

// cpuProgram is the demo program with its loop counts and memory address
// drawn from the seed: sum 1..sumN into r1, fibN Fibonacci steps into r2,
// a store/load round trip through addr into r5.
func cpuProgram(sumN, fibN, addr uint8) []uint16 {
	return []uint16{
		gen.LI(1, 0),
		gen.LI(3, sumN),
		gen.ADD(1, 1, 3),
		gen.ADDI(4, 0, 1),
		gen.SUB(3, 3, 4),
		gen.BNEZ(3, -5),
		gen.NOP(),
		gen.LI(2, 0),
		gen.LI(6, 1),
		gen.LI(7, fibN),
		gen.ADD(8, 2, 6),
		gen.OR(2, 6, 0),
		gen.OR(6, 8, 0),
		gen.SUB(7, 7, 4),
		gen.BNEZ(7, -6),
		gen.NOP(),
		gen.LI(9, addr),
		gen.SW(9, 1),
		gen.LW(5, 9),
		gen.XOR(10, 1, 2),
		gen.AND(11, 1, 2),
		gen.JMP(21),
		gen.NOP(),
	}
}

// spec is one job of a block before it is numbered and encoded.
type spec struct {
	v      *variant
	sub    cluster.Submission
	repeat int // position in the block of the spec this one repeats; -1 if fresh
}

func plain(v *variant, engine string, workers int, horizon circuit.Time) spec {
	return spec{v: v, sub: cluster.Submission{Engine: engine, Workers: workers, Horizon: int64(horizon)}, repeat: -1}
}

// workload is one traffic mix. Its job list is a sequence of blocks; each
// block holds every job class of the workload once (plus any designed
// repeats), so every run of a seed has the same mix.
type workload struct {
	name string
	why  string
	// blocksPerSecond sizes the list from --seconds: the nominal block
	// rate on a 2-core x86 host, so the timed window lasts about
	// --seconds there. The list is fixed by seed and seconds alone; a
	// faster program finishes it sooner.
	blocksPerSecond float64
	block           func(g *generator) []spec
}

// minJobs keeps at least ten samples beyond the 90th percentile.
const minJobs = 100

var workloads = []*workload{
	{
		name: "front-door",
		why:  "short jobs where parse, content key, dedup, clone, lint and result encoding dominate and the engine does little",
		// 6 fresh jobs (3 circuits x jit/sequential, 2 of them linted)
		// plus 2 byte-identical repeats: 1 in 4 submissions is a dedup hit,
		// 1 in 4 asks lint "warn". Which circuits are linted and repeated
		// rotates from block to block, so every 3 blocks hold the same mix
		// whatever the seed.
		blocksPerSecond: 2,
		block: func(g *generator) []spec {
			r := g.blocks % 3
			g.blocks++
			var fresh []spec
			var repeat []bool
			for k, kind := range []string{kindArray, kindGate, kindCPU} {
				v := g.variant(kind)
				for _, eng := range []string{"jit", "sequential"} {
					s := plain(v, eng, 1, circuit.Time(16+g.rng.Intn(17)))
					picked := k == r || k == (r+1)%3
					// Of the two picked circuits, lint one's jit job and the
					// other's sequential job; repeat their un-linted twins.
					lint := picked && (k == r) == (eng == "jit")
					if lint {
						s.sub.Lint = "warn"
					}
					fresh = append(fresh, s)
					repeat = append(repeat, picked && !lint)
				}
			}
			out := make([]spec, len(fresh))
			var repeats []spec
			for i, p := range g.rng.Perm(len(fresh)) {
				out[i] = fresh[p]
				if repeat[p] {
					repeats = append(repeats, spec{repeat: i})
				}
			}
			return append(out, repeats...)
		},
	},
	{
		name:            "paper-sim",
		why:             "the four paper circuits at paper horizons on six engines at 1 worker: engine kernels do most of the work",
		blocksPerSecond: 0.68,
		block: func(g *generator) []spec {
			var out []spec
			for _, c := range []struct {
				kind string
				h    circuit.Time
			}{{kindArray, hArray}, {kindGate, hGate}, {kindFunc, hFunc}, {kindCPU, hCPU}} {
				v := g.variant(c.kind)
				for _, eng := range []string{"sequential", "event-driven", "compiled", "asynchronous", "jit", "auto"} {
					out = append(out, plain(v, eng, 1, c.h))
				}
			}
			g.rng.Shuffle(len(out), func(a, b int) { out[a], out[b] = out[b], out[a] })
			return out
		},
	},
	{
		name:            "gang",
		why:             "the same engines at 2 workers, one job at a time: barrier and partitioning carry the cost",
		blocksPerSecond: 1.05,
		// mult16-gate and CPU on all four engines plus the array on
		// asynchronous: an odd class count puts the median inside a class
		// rather than on the boundary between two.
		block: func(g *generator) []spec {
			gate, cpu, array := g.variant(kindGate), g.variant(kindCPU), g.variant(kindArray)
			var out []spec
			for _, eng := range []string{"jit", "compiled", "event-driven", "asynchronous"} {
				out = append(out, plain(gate, eng, 2, hGangGate), plain(cpu, eng, 2, hGangCPU))
			}
			out = append(out, plain(array, "asynchronous", 2, hArray))
			g.rng.Shuffle(len(out), func(a, b int) { out[a], out[b] = out[b], out[a] })
			return out
		},
	},
	{
		name:            "fault-lanes",
		why:             "64-lane stimulus batches and stuck-at fault simulation: wide planes, fault lists and large results",
		blocksPerSecond: 1.33,
		block: func(g *generator) []spec {
			lanes := func(kind string, h circuit.Time) spec {
				s := plain(g.variant(kind), "vector", 1, h)
				s.sub.Lanes = faultLanes
				s.sub.LaneStride = int64(1 + g.rng.Intn(7))
				return s
			}
			faults := func(kind string, h circuit.Time, passes int) spec {
				s := plain(g.variant(kind), "vector", 1, h)
				s.sub.Lanes = faultLanes
				s.sub.FaultSim = true
				s.sub.FaultMaxPasses = passes
				s.sub.FaultStatuses = true
				return s
			}
			out := []spec{
				lanes(kindArray, hArray),
				lanes(kindGate, hGate),
				faults(kindArray, hArray, 0), // the full collapsed list
				faults(kindGate, hGate, 1),
				faults(kindCPU, hFaultCPU, 1),
			}
			g.rng.Shuffle(len(out), func(a, b int) { out[a], out[b] = out[b], out[a] })
			return out
		},
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// jobList is a workload's generated input: the warm-up (one job per class,
// run during set-up) and the timed list.
type jobList struct {
	warm, timed []*job
	blockLen    int // jobs per block of the timed list
}

// blocksFor sizes the timed list from --seconds.
func (w *workload) blocksFor(seconds, blockLen int) int {
	n := int(float64(seconds)*w.blocksPerSecond + 0.5)
	if min := (minJobs + blockLen - 1) / blockLen; n < min {
		n = min
	}
	return n
}

// build generates the warm-up (the fresh jobs of one block) and the timed
// list for a seed.
func (w *workload) build(seed int64, seconds int) *jobList {
	g := newGenerator(w.name, seed)
	l := &jobList{}
	warm := w.block(g)
	for _, s := range warm {
		if s.repeat < 0 {
			l.warm = append(l.warm, newJob(len(l.warm), s))
		}
	}
	l.blockLen = len(warm)
	for b := w.blocksFor(seconds, len(warm)); b > 0; b-- {
		base := len(l.timed)
		for _, s := range w.block(g) {
			if s.repeat >= 0 {
				orig := *l.timed[base+s.repeat]
				orig.index, orig.repeatOf = len(l.timed), orig.index
				l.timed = append(l.timed, &orig)
				continue
			}
			l.timed = append(l.timed, newJob(len(l.timed), s))
		}
	}
	return l
}

// newJob numbers a fresh spec and encodes its POST body.
func newJob(index int, s spec) *job {
	j := &job{index: index, variant: s.v, sub: s.sub, repeatOf: -1}
	j.sub.Netlist = s.v.netlist
	j.class = s.v.kind + "/" + s.sub.Engine
	switch {
	case s.sub.FaultSim:
		j.class += "/faults"
	case s.sub.Lanes > 1:
		j.class += "/lanes"
	}
	b, err := json.Marshal(&j.sub)
	if err != nil {
		panic(err) // a Submission always encodes
	}
	j.body = b
	return j
}
