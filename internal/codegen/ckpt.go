package codegen

import (
	"fmt"

	"parsim/internal/checkpoint"
	"parsim/internal/circuit"
	"parsim/internal/logic"
	"parsim/internal/stats"
	"parsim/internal/trace"
)

// Checkpoint/resume for the compiled engine, taken at the per-step barrier
// where the gang is quiescent. A snapshot captures one buffer side's node
// planes (all lanes), every stateful kernel's private planes and per-lane
// scalar state (the fused gate batches are stateless by construction), the
// per-worker counters, the recorded probe history and — in
// fault-simulation mode — the cross-pass detection state. Kernel states
// walk in (worker, level slot, position) order — the
// compiled program is deterministic, so the restore side walks the same
// sequence.

// checkpointDue reports whether the gang snapshots at the top of step t.
func (s *sim) checkpointDue(t circuit.Time) bool {
	plan := s.opts.Checkpoint
	return plan.Enabled() && t > s.startT && int64(t)%plan.Every == 0
}

func packPlane(p logic.WidePlane) checkpoint.PlaneState {
	return checkpoint.PlaneState{
		V: append([]uint64(nil), p.V...),
		U: append([]uint64(nil), p.U...),
	}
}

// saveCheckpoint writes a snapshot of the quiesced state at the top of the
// given step. Only worker 0 (or the post-run single thread) calls it.
func (s *sim) saveCheckpoint(step circuit.Time) error {
	plan := s.opts.Checkpoint
	snap := &checkpoint.Snapshot{
		Engine:  plan.Engine,
		Digest:  plan.Digest,
		Step:    int64(step),
		Workers: append([]stats.WorkerCounters(nil), s.wc...),
	}
	side := s.buf[int(step)&1].planes
	snap.Planes = make([]checkpoint.PlaneState, len(side))
	for i, p := range side {
		snap.Planes[i] = packPlane(p)
	}
	for w := range s.prog.work {
		for sl := range s.prog.work[w] {
			for i := range s.prog.work[w][sl].kerns {
				k := &s.prog.work[w][sl].kerns[i]
				var ks checkpoint.KernelState
				for _, st := range k.State {
					ks.Planes = append(ks.Planes, packPlane(st))
				}
				for _, lane := range k.LaneState {
					ks.Lanes = append(ks.Lanes, checkpoint.PackValues(lane))
				}
				snap.Kernels = append(snap.Kernels, ks)
			}
		}
	}
	if rec, ok := s.opts.Probe.(*trace.Recorder); ok {
		snap.HasTrace = true
		for _, ch := range rec.DumpChanges() {
			snap.Trace = append(snap.Trace, checkpoint.TraceChange{
				Node:  int32(ch.Node),
				T:     int64(ch.Time),
				Value: checkpoint.PackValue(ch.Value),
			})
		}
	}
	if fp := s.fault; fp != nil {
		fs := &checkpoint.FaultState{
			Pass:     fp.pass,
			Ran:      fp.ran,
			Statuses: append([]stats.FaultStatus(nil), fp.statuses...),
			Acc:      fp.acc,
		}
		for _, d := range fp.det {
			fs.Det = append(fs.Det, append([]uint64(nil), d...))
		}
		for _, f := range fp.first {
			fs.First = append(fs.First, append([]int64(nil), f...))
		}
		snap.Fault = fs
	}
	// The snapshot is a deep copy; the background writer makes it durable
	// (and fires the plan's OnSave) off the gang's critical path.
	return s.ckptW.Save(snap)
}

// restore rebuilds the simulator from a digest-verified snapshot,
// validating every structural property so failures are errors, never
// panics.
func (s *sim) restore(snap *checkpoint.Snapshot) error {
	bad := func(format string, args ...any) error {
		return fmt.Errorf("parsim: resume (jit): %s", fmt.Sprintf(format, args...))
	}
	if len(snap.Planes) != s.prog.total {
		return bad("snapshot has %d node planes for a %d-plane circuit", len(snap.Planes), s.prog.total)
	}
	for i, p := range snap.Planes {
		if len(p.V) != s.words || len(p.U) != s.words {
			return bad("plane %d has %d/%d words, want %d", i, len(p.V), len(p.U), s.words)
		}
	}
	nk := 0
	for w := range s.prog.work {
		for sl := range s.prog.work[w] {
			nk += len(s.prog.work[w][sl].kerns)
		}
	}
	if len(snap.Kernels) != nk {
		return bad("snapshot has %d kernel states for %d kernels", len(snap.Kernels), nk)
	}
	// Validate every kernel state before committing anything.
	laneVals := make([][][]logic.Value, nk)
	idx := 0
	for w := range s.prog.work {
		for sl := range s.prog.work[w] {
			for i := range s.prog.work[w][sl].kerns {
				k := &s.prog.work[w][sl].kerns[i]
				ks := &snap.Kernels[idx]
				if len(ks.Planes) != len(k.State) {
					return bad("kernel %d has %d state planes, want %d", idx, len(ks.Planes), len(k.State))
				}
				for j, p := range ks.Planes {
					if len(p.V) != s.words || len(p.U) != s.words {
						return bad("kernel %d state plane %d has %d/%d words, want %d", idx, j, len(p.V), len(p.U), s.words)
					}
				}
				if len(ks.Lanes) != len(k.LaneState) {
					return bad("kernel %d has %d lane states, want %d", idx, len(ks.Lanes), len(k.LaneState))
				}
				if len(ks.Lanes) > 0 {
					laneVals[idx] = make([][]logic.Value, len(ks.Lanes))
					for l := range ks.Lanes {
						if len(ks.Lanes[l]) != len(k.LaneState[l]) {
							return bad("kernel %d lane %d has %d state values, want %d", idx, l, len(ks.Lanes[l]), len(k.LaneState[l]))
						}
						vals, err := checkpoint.UnpackValues(ks.Lanes[l])
						if err != nil {
							return bad("kernel %d lane %d: %v", idx, l, err)
						}
						for j := range vals {
							if vals[j].Width() != k.LaneState[l][j].Width() {
								return bad("kernel %d lane %d state %d width mismatch", idx, l, j)
							}
						}
						laneVals[idx][l] = vals
					}
				}
				idx++
			}
		}
	}
	if len(snap.Workers) != s.p {
		return bad("snapshot has %d worker counter rows, want %d", len(snap.Workers), s.p)
	}
	if (snap.Fault != nil) != (s.fault != nil) {
		return bad("fault-simulation state presence mismatch")
	}
	if fp := s.fault; fp != nil {
		fs := snap.Fault
		if len(fs.Det) != s.p || len(fs.First) != s.p {
			return bad("fault state has %d/%d worker rows, want %d", len(fs.Det), len(fs.First), s.p)
		}
		for w := 0; w < s.p; w++ {
			if len(fs.Det[w]) != s.words {
				return bad("fault detection mask %d has %d words, want %d", w, len(fs.Det[w]), s.words)
			}
			if len(fs.First[w]) != len(fp.faults) {
				return bad("fault first-step row %d has %d entries, want %d", w, len(fs.First[w]), len(fp.faults))
			}
		}
	}
	// All validated; commit. Both buffer sides take the snapshot planes:
	// every driven node is fully rewritten each step and every undriven
	// node stays constant, so the resumed double-buffer sequence matches
	// the uninterrupted one exactly.
	for side := range s.buf {
		for i := range s.buf[side].planes {
			copy(s.buf[side].planes[i].V, snap.Planes[i].V)
			copy(s.buf[side].planes[i].U, snap.Planes[i].U)
		}
	}
	idx = 0
	for w := range s.prog.work {
		for sl := range s.prog.work[w] {
			for i := range s.prog.work[w][sl].kerns {
				k := &s.prog.work[w][sl].kerns[i]
				for j := range k.State {
					copy(k.State[j].V, snap.Kernels[idx].Planes[j].V)
					copy(k.State[j].U, snap.Kernels[idx].Planes[j].U)
				}
				for l := range k.LaneState {
					copy(k.LaneState[l], laneVals[idx][l])
				}
				idx++
			}
		}
	}
	copy(s.wc, snap.Workers)
	s.startT = circuit.Time(snap.Step)
	if fp := s.fault; fp != nil {
		for w := 0; w < s.p; w++ {
			copy(fp.det[w], snap.Fault.Det[w])
			copy(fp.first[w], snap.Fault.First[w])
		}
	}
	if rec, ok := s.opts.Probe.(*trace.Recorder); ok && snap.HasTrace {
		chs := make([]trace.ChangeRecord, len(snap.Trace))
		for i, tc := range snap.Trace {
			v, err := tc.Value.Unpack()
			if err != nil {
				return bad("trace change %d: %v", i, err)
			}
			chs[i] = trace.ChangeRecord{Node: circuit.NodeID(tc.Node), Time: circuit.Time(tc.T), Value: v}
		}
		rec.Preload(chs)
	}
	return nil
}
