package codegen

import (
	"context"
	"fmt"
	"math/bits"

	"parsim/internal/analyze"
	"parsim/internal/checkpoint"
	"parsim/internal/circuit"
	"parsim/internal/logic"
	"parsim/internal/stats"
	"parsim/internal/vector"
)

// Concurrent stuck-at fault simulation, the classic concurrent/parallel
// fault simulation scheme restated over wide planes: lane 0 simulates the
// good machine, every other lane carries the same stimulus plus exactly one
// injected stuck-at fault. A fault is detected when its lane's value at an
// observation node differs from lane 0 with both lanes known — one plane
// XOR compares 64 fault machines against the reference at once. Fault
// lists larger than Lanes-1 chunk into multiple passes, each one run of
// the ordinary step loop with two hooks: observe at the top of every step
// and injectWorker after the worker's levels.

// FaultOptions configures fault simulation (Options.FaultSim).
type FaultOptions struct {
	// Faults is the stuck-at list to inject. Nil generates the collapsed
	// single stuck-at list for the whole circuit (analyze.FaultList).
	Faults []analyze.Fault
	// MaxPasses caps the number of chunked passes (each pass simulates
	// Lanes-1 faults). 0 runs as many passes as the list needs; faults
	// beyond the cap are reported undetected.
	MaxPasses int
	// KeepStatuses includes the per-fault status rows in the coverage
	// report; they can dominate the report size for large circuits.
	KeepStatuses bool
}

// observationNodes returns the fault observation points: the circuit's
// sink nodes (driven or undriven nodes nothing reads — the "primary
// outputs"), or every node when the circuit has none.
func observationNodes(c *circuit.Circuit) []circuit.NodeID {
	var sinks []circuit.NodeID
	for n := range c.Nodes {
		if len(c.Nodes[n].Fanout) == 0 {
			sinks = append(sinks, circuit.NodeID(n))
		}
	}
	if len(sinks) > 0 {
		return sinks
	}
	all := make([]circuit.NodeID, len(c.Nodes))
	for n := range all {
		all[n] = circuit.NodeID(n)
	}
	return all
}

// runFaultSim chunks the fault list into passes of Lanes-1 faults and runs
// each pass with lane 0 as the good machine.
func runFaultSim(ctx context.Context, c *circuit.Circuit, opts Options) (*Result, error) {
	fo := *opts.FaultSim
	if opts.Lanes < 2 {
		return nil, fmt.Errorf("codegen: fault simulation needs >= 2 lanes, have %d", opts.Lanes)
	}
	// Every lane carries the same stimulus, so divergence from lane 0 is a
	// fault effect and nothing else; the probe observes the good machine.
	opts.LaneStride = 0
	opts.ProbeLane = 0

	faults := fo.Faults
	if faults == nil {
		faults = analyze.FaultList(c, true)
	}
	observe := observationNodes(c)

	perPass := opts.Lanes - 1
	passes := (len(faults) + perPass - 1) / perPass
	if fo.MaxPasses > 0 && passes > fo.MaxPasses {
		passes = fo.MaxPasses
	}

	statuses := make([]stats.FaultStatus, len(faults))
	for i := range statuses {
		statuses[i] = stats.FaultStatus{Site: faults[i].Site(c), Step: -1}
	}

	// Resuming a fault simulation restarts at the snapshotted pass with the
	// completed passes' statuses and counters already in hand; the in-flight
	// pass's plane and detection state is restored inside runPass.
	startPass, ran := 0, 0
	var resumeAcc *checkpoint.RunCounters
	if snap := opts.Resume; snap != nil {
		fs := snap.Fault
		if fs == nil {
			return nil, fmt.Errorf("parsim: resume (jit): snapshot carries no fault-simulation state")
		}
		if len(fs.Statuses) != len(statuses) {
			return nil, fmt.Errorf("parsim: resume (jit): snapshot has %d fault statuses, want %d",
				len(fs.Statuses), len(statuses))
		}
		if fs.Pass < 0 || fs.Pass >= passes {
			return nil, fmt.Errorf("parsim: resume (jit): snapshot pass %d outside [0,%d)", fs.Pass, passes)
		}
		copy(statuses, fs.Statuses)
		startPass, ran = fs.Pass, fs.Ran
		acc := fs.Acc
		resumeAcc = &acc
	}

	var total *Result
	var runErr error
	for p := startPass; p < passes; p++ {
		lo := p * perPass
		hi := min(lo+perPass, len(faults))
		fp := &faultPass{c: c, faults: faults[lo:hi], obsNodes: observe,
			pass: p, ran: ran, statuses: statuses}
		if total != nil {
			fp.acc = packRun(&total.Run)
		} else if resumeAcc != nil {
			fp.acc = *resumeAcc
		}
		passOpts := opts
		if p != startPass {
			passOpts.Resume = nil
		}
		res, err := runPass(ctx, c, passOpts, fp)
		if res != nil {
			fp.record(statuses[lo:hi])
			ran++
			if total == nil {
				total = res
				if resumeAcc != nil {
					// Fold the completed passes' counters back in so the
					// stitched totals match an uninterrupted run's.
					addRunCounters(&total.Run, *resumeAcc)
					resumeAcc = nil
				}
			} else {
				total.Final = res.Final
				addRunCounters(&total.Run, packRun(&res.Run))
			}
		}
		if err != nil {
			runErr = err
			break
		}
	}
	if total == nil {
		return nil, runErr
	}

	detected := 0
	for i := range statuses {
		if statuses[i].Detected {
			detected++
		}
	}
	cov := &stats.FaultCoverage{
		Total:     len(faults),
		Detected:  detected,
		Collapsed: analyze.TotalFaultSites(c) - len(faults),
		Passes:    ran,
		Lanes:     opts.Lanes,
	}
	if fo.KeepStatuses {
		cov.Faults = statuses
	}
	// LaneFinal would expose per-fault machine state — large and not the
	// product of this mode; Final remains the good machine's view.
	total.LaneFinal = nil
	total.FaultCoverage = cov
	total.Run.Algorithm += "+faults"
	return total, runErr
}

// packRun extracts the counters that accumulate across passes into the
// snapshot wire form; addRunCounters folds them into a running total, both
// between passes and on resume.
func packRun(r *stats.Run) checkpoint.RunCounters {
	return checkpoint.RunCounters{
		TimeSteps:   r.TimeSteps,
		NodeUpdates: r.NodeUpdates,
		Evals:       r.Evals,
		ModelCalls:  r.ModelCalls,
		EventsUsed:  r.EventsUsed,
		Wall:        r.Wall,
		PerWorker:   append([]stats.WorkerCounters(nil), r.PerWorker...),
	}
}

func addRunCounters(dst *stats.Run, acc checkpoint.RunCounters) {
	dst.TimeSteps += acc.TimeSteps
	dst.NodeUpdates += acc.NodeUpdates
	dst.Evals += acc.Evals
	dst.ModelCalls += acc.ModelCalls
	dst.EventsUsed += acc.EventsUsed
	dst.Wall += acc.Wall
	for i := range dst.PerWorker {
		if i < len(acc.PerWorker) {
			dst.PerWorker[i].Accumulate(acc.PerWorker[i])
		}
	}
}

// faultInj is one fault's injection site in plane coordinates: set or
// clear one lane bit of one plane word, forcing the lane known.
type faultInj struct {
	plane     int
	wd        int
	mask      uint64
	stuckHigh bool
}

func (in faultInj) apply(dst []logic.WidePlane) {
	p := dst[in.plane]
	if in.stuckHigh {
		p.V[in.wd] |= in.mask
	} else {
		p.V[in.wd] &^= in.mask
	}
	p.U[in.wd] &^= in.mask
}

// faultPass carries one pass's injection and detection state. Injection
// ownership follows element ownership as the stripe cut assigns it — the
// worker whose stripe drives the faulted node re-asserts the fault after
// its levels, so no two workers touch the same plane word; undriven nodes
// belong to worker 0. Observation nodes are split round-robin; each worker
// records detections in its own masks, merged when the pass finishes.
type faultPass struct {
	c        *circuit.Circuit
	faults   []analyze.Fault
	obsNodes []circuit.NodeID

	words    int
	all      []faultInj         // every injection, for init-time application
	byWorker [][]faultInj       // injections owned per worker
	obs      [][]vector.OutSpan // observation spans per worker
	det      [][]uint64         // per-worker detected lane masks [worker][word]
	first    [][]int64          // per-worker first-detection step per fault, -1 = none

	// Snapshot context, set by runFaultSim before the pass starts: the
	// pass index, how many passes completed before it, the full status
	// table (rows for completed passes filled in) and the counters merged
	// from completed passes. Mid-pass checkpoints carry these along so a
	// restart re-enters the chunk loop where it left off.
	pass     int
	ran      int
	statuses []stats.FaultStatus
	acc      checkpoint.RunCounters
}

// bind resolves the pass state against a compiled sim: plane offsets,
// element ownership and per-worker detection buffers.
func (fp *faultPass) bind(s *sim) {
	fp.words = s.words
	p := s.p
	off := s.prog.off
	fp.byWorker = make([][]faultInj, p)
	for i, f := range fp.faults {
		lane := i + 1
		inj := faultInj{
			plane:     int(off[f.Node]) + f.Bit,
			wd:        lane >> 6,
			mask:      1 << uint(lane&63),
			stuckHigh: f.StuckHigh,
		}
		fp.all = append(fp.all, inj)
		w := 0
		if d := fp.c.Nodes[f.Node].Driver; d != circuit.NoElem {
			w = s.prog.owner[d]
		}
		fp.byWorker[w] = append(fp.byWorker[w], inj)
	}
	fp.obs = make([][]vector.OutSpan, p)
	for i, n := range fp.obsNodes {
		fp.obs[i%p] = append(fp.obs[i%p], vector.OutSpan{Node: n, Off: off[n], W: int32(fp.c.Nodes[n].Width)})
	}
	fp.det = make([][]uint64, p)
	fp.first = make([][]int64, p)
	for w := 0; w < p; w++ {
		fp.det[w] = make([]uint64, s.words)
		fp.first[w] = make([]int64, len(fp.faults))
		for i := range fp.first[w] {
			fp.first[w][i] = -1
		}
	}
}

// inject applies every fault to one buffer side (init time, before the
// workers start).
func (fp *faultPass) inject(dst []logic.WidePlane) {
	for _, in := range fp.all {
		in.apply(dst)
	}
}

// injectWorker re-asserts worker id's faults on the freshly written side:
// a stuck node stays stuck no matter what its driver computed.
func (fp *faultPass) injectWorker(id int, dst []logic.WidePlane) {
	for _, in := range fp.byWorker[id] {
		in.apply(dst)
	}
}

// observe scans worker id's observation nodes at step t: a fault lane is
// detected when its value is known and differs from a known good-machine
// (lane 0) value on any observed bit. Lanes already in the worker's
// detected mask are dropped from further comparison.
func (fp *faultPass) observe(id int, t circuit.Time, cur []logic.WidePlane) {
	det := fp.det[id]
	first := fp.first[id]
	nf := len(fp.faults)
	for _, sp := range fp.obs[id] {
		o, w := int(sp.Off), int(sp.W)
		for b := 0; b < w; b++ {
			wp := cur[o+b]
			if wp.U[0]&1 != 0 {
				continue // good machine unknown on this bit: no verdict
			}
			var gv uint64
			if wp.V[0]&1 != 0 {
				gv = ^uint64(0)
			}
			for wd := 0; wd < fp.words; wd++ {
				diffs := (wp.V[wd] ^ gv) &^ wp.U[wd] &^ det[wd]
				if wd == 0 {
					diffs &^= 1 // lane 0 is the reference itself
				}
				if diffs == 0 {
					continue
				}
				det[wd] |= diffs
				for diffs != 0 {
					bit := bits.TrailingZeros64(diffs)
					diffs &^= 1 << uint(bit)
					idx := wd*64 + bit - 1
					if idx < nf && first[idx] < 0 {
						first[idx] = int64(t)
					}
				}
			}
		}
	}
}

// record merges the per-worker detections into the pass's status rows:
// detected if any worker saw the lane diverge, at the earliest such step.
func (fp *faultPass) record(st []stats.FaultStatus) {
	for i := range st {
		best := int64(-1)
		for w := range fp.first {
			if s := fp.first[w][i]; s >= 0 && (best < 0 || s < best) {
				best = s
			}
		}
		if best >= 0 {
			st[i].Detected = true
			st[i].Step = best
		}
	}
}
