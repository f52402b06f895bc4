package main

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"strings"

	"parsim"
	"parsim/internal/circuit"
	"parsim/internal/engine"
	"parsim/internal/gen"
	"parsim/internal/logic"
	"parsim/internal/netlist"
	"parsim/internal/stats"
)

// sampledLanes is how many lanes besides lane 0 each batched job checks
// against the sequential oracle with its lane's seed offset applied.
const sampledLanes = 2

// expectation is what a job's result must hold, computed in-process before
// the warm-up: the sequential oracle's finals, the ISS registers for CPU
// jobs, sampled lane finals for batched jobs and a reference fault grading
// for fault jobs.
type expectation struct {
	circ   *circuit.Circuit // CPU: the parsed netlist, for register lookups; nil otherwise
	final  []logic.Value
	regs   []uint16 // CPU: architectural registers from the ISS; nil otherwise
	nLanes int      // batched jobs: lane_final rows expected
	lanes  map[int][]logic.Value
	fault  *stats.FaultCoverage
}

// oracle computes expectations, sharing one parse per variant and one
// sequential run between the jobs that simulate the same variant to the
// same horizon.
type oracle struct {
	circs   map[*variant]*circuit.Circuit
	seqRuns map[string][]logic.Value
	rng     *rand.Rand
}

func newOracle(seed int64) *oracle {
	return &oracle{
		circs:   map[*variant]*circuit.Circuit{},
		seqRuns: map[string][]logic.Value{},
		rng:     rand.New(rand.NewSource(seed)),
	}
}

func (o *oracle) parse(v *variant) (*circuit.Circuit, error) {
	if c, ok := o.circs[v]; ok {
		return c, nil
	}
	// A variant's jobs sit in one block, so a small cache shares each parse
	// without holding every circuit of the list at once.
	if len(o.circs) >= 16 {
		clear(o.circs)
	}
	c, err := netlist.Read(strings.NewReader(v.netlist))
	if err != nil {
		return nil, err
	}
	o.circs[v] = c
	return c, nil
}

func (o *oracle) seq(c *circuit.Circuit, h int64, key string) ([]logic.Value, error) {
	if f, ok := o.seqRuns[key]; ok {
		return f, nil
	}
	rep, err := engine.Run(context.Background(), "sequential", c.Clone(), engine.Config{Horizon: circuit.Time(h)})
	if err != nil {
		return nil, fmt.Errorf("sequential oracle: %w", err)
	}
	o.seqRuns[key] = rep.Final
	return rep.Final, nil
}

// expect builds the expectation for one job. Repeats share their
// original's expectation.
func (o *oracle) expect(j *job) (*expectation, error) {
	c, err := o.parse(j.variant)
	if err != nil {
		return nil, fmt.Errorf("job %d: %w", j.index, err)
	}
	e := &expectation{}
	key := fmt.Sprintf("%p@%d", j.variant, j.sub.Horizon)
	if e.final, err = o.seq(c, j.sub.Horizon, key); err != nil {
		return nil, err
	}
	if j.variant.program != nil {
		iss := gen.NewISS(j.variant.program)
		iss.Run(cpuCycles(j.sub.Horizon))
		e.circ, e.regs = c, iss.Reg[:]
		// The oracle itself must agree with the ISS, or the check is void.
		if bad := checkRegs(c, e.final, e.regs); bad != "" {
			return nil, fmt.Errorf("job %d: sequential oracle disagrees with the ISS: %s", j.index, bad)
		}
	}
	switch {
	case j.sub.FaultSim:
		rep, err := engine.Run(context.Background(), "vector", c.Clone(), engine.Config{
			Horizon:        circuit.Time(j.sub.Horizon),
			Lanes:          j.sub.Lanes,
			FaultSim:       true,
			FaultMaxPasses: j.sub.FaultMaxPasses,
			FaultStatuses:  j.sub.FaultStatuses,
		})
		if err != nil {
			return nil, fmt.Errorf("job %d: reference fault run: %w", j.index, err)
		}
		e.fault = rep.FaultCoverage
	case j.sub.Lanes > 1:
		e.nLanes = j.sub.Lanes
		e.lanes = map[int][]logic.Value{}
		for len(e.lanes) < sampledLanes {
			k := 1 + o.rng.Intn(j.sub.Lanes-1)
			shifted := c.Clone()
			for i := range shifted.Elems {
				if el := &shifted.Elems[i]; el.Kind == circuit.KindRand || el.Kind == circuit.KindGray {
					el.Params.Seed += int64(k) * j.sub.LaneStride
				}
			}
			if e.lanes[k], err = o.seq(shifted, j.sub.Horizon, fmt.Sprintf("%s/lane%d*%d", key, k, j.sub.LaneStride)); err != nil {
				return nil, err
			}
		}
	}
	return e, nil
}

// cpuCycles is the number of pipeline cycles the CPU completes by horizon h
// (the inverse of gen.CPUHorizon); before the first edge it is 0.
func cpuCycles(h int64) int {
	n := int(h/int64(cpuCfg.ClockPeriod)) - 1
	if n < 0 {
		return 0
	}
	return n
}

func checkRegs(c *circuit.Circuit, final []logic.Value, want []uint16) string {
	for r, w := range want {
		got, ok := gen.CPURegValue(c, final, r)
		if !ok || got != w {
			return fmt.Sprintf("r%d = %d (known %v), ISS has %d", r, got, ok, w)
		}
	}
	return ""
}

func diffFinal(what string, got, want []logic.Value) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%s has %d nodes, want %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Sprintf("%s node %d = %v, oracle %v", what, i, got[i], want[i])
		}
	}
	return ""
}

// verify checks a served result against the expectation; "" means it
// passed.
func (e *expectation) verify(res *parsim.Result) string {
	if res == nil {
		return "no result"
	}
	if res.Degraded {
		return fmt.Sprintf("degraded run (fault: %v)", res.Fault)
	}
	if bad := diffFinal("final", res.Final, e.final); bad != "" {
		return bad
	}
	if e.regs != nil {
		if bad := checkRegs(e.circ, res.Final, e.regs); bad != "" {
			return bad
		}
	}
	if e.fault != nil {
		if !reflect.DeepEqual(res.FaultCoverage, e.fault) {
			return fmt.Sprintf("fault coverage %v, reference %v", res.FaultCoverage, e.fault)
		}
		return ""
	}
	if e.lanes != nil {
		if len(res.LaneFinal) != e.nLanes {
			return fmt.Sprintf("%d lane_final rows, want %d", len(res.LaneFinal), e.nLanes)
		}
		if bad := diffFinal("lane 0", res.LaneFinal[0], e.final); bad != "" {
			return bad
		}
		for k, want := range e.lanes {
			if bad := diffFinal(fmt.Sprintf("lane %d", k), res.LaneFinal[k], want); bad != "" {
				return bad
			}
		}
	}
	return ""
}
