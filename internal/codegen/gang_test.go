package codegen

import (
	"fmt"
	"reflect"
	"testing"

	"parsim/internal/circuit"
	"parsim/internal/gen"
)

// paperCircuit is one of the four paper benchmark circuits at a short
// horizon, enough steps for every level to settle several times.
type paperCircuit struct {
	name    string
	build   func() *circuit.Circuit
	horizon circuit.Time
}

func paperCircuits() []paperCircuit {
	mult, cpu := gen.DefaultMultiplier(), gen.DefaultCPU()
	return []paperCircuit{
		{"mult16-gate", func() *circuit.Circuit { return gen.GateMultiplier(mult) }, mult.InPeriod * 2},
		{"mult16-func", func() *circuit.Circuit { return gen.FuncMultiplier(mult) }, mult.InPeriod * 2},
		{"inverter-array", func() *circuit.Circuit { return gen.InverterArray(gen.DefaultInverterArray()) }, 96},
		{"microprocessor", func() *circuit.Circuit { return gen.CPU(cpu) }, gen.CPUHorizon(cpu, 12)},
	}
}

// TestGangMatchesOneWorker runs every paper circuit probe-free — so the
// noteLevel fast path runs at one lane — at 2, 3 and 4 workers and holds
// the gang to the one-worker run: identical final values on every lane,
// identical total evaluations and node updates, and exactly one barrier
// per step on every worker.
func TestGangMatchesOneWorker(t *testing.T) {
	for _, pc := range paperCircuits() {
		c := pc.build()
		for _, lanes := range []int{1, 64} {
			ref, err := Run(c, Options{Workers: 1, Horizon: pc.horizon, Lanes: lanes})
			if err != nil {
				t.Fatalf("%s lanes %d at 1 worker: %v", pc.name, lanes, err)
			}
			for _, w := range []int{2, 3, 4} {
				t.Run(fmt.Sprintf("%s/lanes%d/w%d", pc.name, lanes, w), func(t *testing.T) {
					got, err := Run(c, Options{Workers: w, Horizon: pc.horizon, Lanes: lanes})
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got.Final, ref.Final) {
						t.Error("Final differs from the one-worker run")
					}
					if !reflect.DeepEqual(got.LaneFinal, ref.LaneFinal) {
						t.Error("LaneFinal differs from the one-worker run")
					}
					if got.Run.Evals != ref.Run.Evals || got.Run.NodeUpdates != ref.Run.NodeUpdates {
						t.Errorf("evals/updates %d/%d, want %d/%d", got.Run.Evals, got.Run.NodeUpdates,
							ref.Run.Evals, ref.Run.NodeUpdates)
					}
					// The step loop runs Horizon-1 transitions (t -> t+1).
					steps := int64(pc.horizon) - 1
					for id, wc := range got.Run.PerWorker {
						if wc.BarrierWaits != steps {
							t.Errorf("worker %d: %d barrier waits, want one per step (%d)", id, wc.BarrierWaits, steps)
						}
					}
				})
			}
		}
	}
}

// TestStripeOwnership checks the stripe cut on the paper circuits: at one
// lane a plane is one slab word, and every 8-plane (64-byte) group of the
// slabs is written by at most one worker, bar at most p-1 groups at the
// cuts between neighbouring stripes. Generator outputs count as writes.
func TestStripeOwnership(t *testing.T) {
	for _, pc := range paperCircuits() {
		c := pc.build()
		for _, p := range []int{2, 3, 4} {
			prog := compileProgram(c, p, 1, 1)
			writers := make(map[int]map[int]bool) // 8-plane group -> workers
			mark := func(w int, off, width int32) {
				for pl := off; pl < off+width; pl++ {
					g := int(pl) / 8
					if writers[g] == nil {
						writers[g] = make(map[int]bool)
					}
					writers[g][w] = true
				}
			}
			for w := range prog.work {
				for sl := range prog.work[w] {
					for _, sp := range prog.work[w][sl].spans {
						mark(w, sp.Off, sp.W)
					}
				}
				for _, g := range prog.gens[w] {
					mark(w, g.Out.Off, g.Out.W)
				}
			}
			shared := 0
			for _, ws := range writers {
				if len(ws) > 1 {
					shared++
				}
			}
			if shared > p-1 {
				t.Errorf("%s at %d workers: %d cache-line groups written by more than one worker, want <= %d",
					pc.name, p, shared, p-1)
			}
		}
	}
}

// BenchmarkRun is the jit step loop end to end on the gate-level
// multiplier at 1, 2 and 4 workers, one lane, no probe: the per-step
// barrier plus each worker's stripe of fused batches.
func BenchmarkRun(b *testing.B) {
	mult := gen.DefaultMultiplier()
	c := gen.GateMultiplier(mult)
	for _, w := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("mult16-gate/w%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Run(c, Options{Workers: w, Horizon: mult.InPeriod * 4}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
