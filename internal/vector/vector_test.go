// The batched ("vector") run-loop tests. The package itself holds only the
// plane kernels; the one step loop that runs them is internal/codegen's,
// registered under both "jit" and "vector". These tests drive that loop
// the way a vector run does — many live lanes, or the registry name with
// its 64-lane default — and pin it against the scalar compiled engine.
package vector_test

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"parsim/internal/circuit"
	"parsim/internal/codegen"
	"parsim/internal/compiled"
	"parsim/internal/engine"
	"parsim/internal/gen"
	"parsim/internal/logic"
	"parsim/internal/trace"
)

// shiftSeeds clones c with every rand/gray generator's seed offset by
// delta — the stimulus lane k of a batched run with LaneStride s sees.
func shiftSeeds(c *circuit.Circuit, delta int64) *circuit.Circuit {
	cp := c.Clone()
	for _, g := range cp.Generators() {
		el := &cp.Elems[g]
		if el.Kind == circuit.KindRand || el.Kind == circuit.KindGray {
			el.Params.Seed += delta
		}
	}
	return cp
}

// TestLanesMatchScalarCompiled runs a batched simulation and checks every
// lane's final values against a scalar compiled run fed that lane's
// seed-shifted stimulus.
func TestLanesMatchScalarCompiled(t *testing.T) {
	c := gen.RandomUnitCircuit(11, 80)
	const lanes, stride, horizon = 8, 3, 150

	res, err := codegen.Run(c, codegen.Options{
		Workers: 2, Horizon: horizon,
		Lanes: lanes, LaneStride: stride,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.LaneFinal) != lanes {
		t.Fatalf("LaneFinal rows = %d, want %d", len(res.LaneFinal), lanes)
	}
	for lane := 0; lane < lanes; lane++ {
		sc := compiled.Run(shiftSeeds(c, stride*int64(lane)), compiled.Options{
			Workers: 1, Horizon: horizon,
		})
		for n := range c.Nodes {
			if got, want := res.LaneFinal[lane][n], sc.Final[n]; got != want {
				t.Errorf("lane %d node %q: %v, want %v", lane, c.Nodes[n].Name, got, want)
			}
		}
	}
	// Final is the probe lane's view (default lane 0).
	for n := range c.Nodes {
		if res.Final[n] != res.LaneFinal[0][n] {
			t.Fatalf("Final differs from LaneFinal[0] at node %d", n)
		}
	}
}

// TestGoldenVCDByteMatch is the golden waveform check: the batched run's
// probe, pointed at lane k, must reproduce the scalar compiled engine's
// VCD byte for byte when the scalar engine is fed lane k's stimulus.
func TestGoldenVCDByteMatch(t *testing.T) {
	c := gen.RandomUnitCircuit(23, 60)
	const lanes, stride, horizon = 4, 5, 120

	for lane := 0; lane < lanes; lane++ {
		vrec := trace.NewRecorder()
		if _, err := codegen.Run(c, codegen.Options{
			Workers: 2, Horizon: horizon, Probe: vrec,
			Lanes: lanes, LaneStride: stride, ProbeLane: lane,
		}); err != nil {
			t.Fatal(err)
		}

		srec := trace.NewRecorder()
		sc := shiftSeeds(c, stride*int64(lane))
		compiled.Run(sc, compiled.Options{Workers: 1, Horizon: horizon, Probe: srec})

		var vvcd, svcd bytes.Buffer
		if err := trace.WriteVCD(&vvcd, c, vrec, horizon); err != nil {
			t.Fatal(err)
		}
		if err := trace.WriteVCD(&svcd, sc, srec, horizon); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(vvcd.Bytes(), svcd.Bytes()) {
			if d := trace.Diff(c, srec, vrec); d != "" {
				t.Fatalf("lane %d waveform diverges from scalar compiled: %s", lane, d)
			}
			t.Fatalf("lane %d VCD bytes differ", lane)
		}
	}
}

// TestLaneZeroMatchesScalarHistory pins the core contract at full width:
// with all 64 lanes live, lane 0 still replays the scalar run exactly,
// event for event.
func TestLaneZeroMatchesScalarHistory(t *testing.T) {
	c := gen.RandomUnitCircuit(5, 100)
	const horizon = 200

	vrec := trace.NewRecorder()
	if _, err := codegen.Run(c, codegen.Options{Workers: 3, Horizon: horizon, Probe: vrec, Lanes: logic.MaxLanes}); err != nil {
		t.Fatal(err)
	}
	srec := trace.NewRecorder()
	compiled.Run(c, compiled.Options{Workers: 1, Horizon: horizon, Probe: srec})
	if d := trace.Diff(c, srec, vrec); d != "" {
		t.Fatalf("lane 0 history diverges from scalar compiled: %s", d)
	}
}

func TestOptionValidation(t *testing.T) {
	c := gen.RandomUnitCircuit(1, 20)
	cases := []codegen.Options{
		{Workers: 1, Horizon: 10, Lanes: -1},
		{Workers: 1, Horizon: 10, Lanes: logic.MaxWideLanes + 1},
		{Workers: 1, Horizon: 10, Lanes: 4, ProbeLane: 4},
		{Workers: 1, Horizon: 10, ProbeLane: -1},
		{Workers: 0, Horizon: 10},
	}
	for i, opts := range cases {
		if _, err := codegen.Run(c, opts); err == nil {
			t.Errorf("case %d: invalid options accepted", i)
		}
	}
}

func TestSingleLane(t *testing.T) {
	c := gen.RandomUnitCircuit(9, 40)
	res, err := codegen.Run(c, codegen.Options{Workers: 1, Horizon: 100, Lanes: 1})
	if err != nil {
		t.Fatal(err)
	}
	sc := compiled.Run(c, compiled.Options{Workers: 1, Horizon: 100})
	for n := range c.Nodes {
		if res.Final[n] != sc.Final[n] {
			t.Fatalf("node %d: %v != %v", n, res.Final[n], sc.Final[n])
		}
	}
	if len(res.LaneFinal) != 1 {
		t.Fatalf("LaneFinal rows = %d", len(res.LaneFinal))
	}
}

// TestCancellation checks the gang leaves together and reports ctx.Err
// with a partial result.
func TestCancellation(t *testing.T) {
	c := gen.RandomUnitCircuit(2, 60)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := codegen.RunContext(ctx, c, codegen.Options{Workers: 2, Horizon: 1 << 20, Lanes: logic.MaxLanes})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil || res.Run.TimeSteps >= 1<<20 {
		t.Fatalf("expected a partial result, got %+v", res)
	}
}

// TestRegistryDispatch runs the engine through the unified registry,
// proving registration, alias resolution and LaneFinal plumbing: the
// vector names with Lanes 0 run one full 64-lane word, jit runs one lane,
// and every name reproduces the same lanes when given the same width.
func TestRegistryDispatch(t *testing.T) {
	c := gen.RandomUnitCircuit(4, 40)
	run := func(name string, lanes int) *engine.Report {
		t.Helper()
		rep, err := engine.Run(context.Background(), name, c, engine.Config{
			Workers: 1, Horizon: 50, Lanes: lanes,
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if rep.Run.Algorithm == "" || rep.Run.NodeUpdates == 0 {
			t.Fatalf("%s: empty stats: %+v", name, rep.Run)
		}
		return rep
	}
	ref := run("jit", logic.MaxLanes)
	for _, name := range []string{"vector", "batched", "bit-parallel"} {
		if e, _ := engine.Get(name); e == nil || e.Name() != "vector" {
			t.Fatalf("%s does not resolve to the vector engine", name)
		}
		if rep := run(name, 4); len(rep.LaneFinal) != 4 {
			t.Fatalf("%s: LaneFinal rows = %d, want 4", name, len(rep.LaneFinal))
		}
		rep := run(name, 0)
		if len(rep.LaneFinal) != logic.MaxLanes {
			t.Fatalf("%s with Lanes 0: LaneFinal rows = %d, want %d", name, len(rep.LaneFinal), logic.MaxLanes)
		}
		for l := range rep.LaneFinal {
			for n := range c.Nodes {
				if rep.LaneFinal[l][n] != ref.LaneFinal[l][n] {
					t.Fatalf("%s lane %d node %d: %v, jit says %v", name, l, n, rep.LaneFinal[l][n], ref.LaneFinal[l][n])
				}
			}
		}
	}
	for _, name := range []string{"jit", "codegen"} {
		if rep := run(name, 0); len(rep.LaneFinal) != 1 {
			t.Fatalf("%s with Lanes 0: LaneFinal rows = %d, want 1", name, len(rep.LaneFinal))
		}
	}
}

// TestInverterArraySanity runs the benchmark circuit the BENCH_vector
// figure uses, as a correctness gate: lane 0 vs scalar compiled.
func TestInverterArraySanity(t *testing.T) {
	cfg := gen.DefaultInverterArray()
	cfg.Rows, cfg.Cols, cfg.ActiveRows = 8, 8, 8
	c := gen.InverterArray(cfg)
	vrec := trace.NewRecorder()
	if _, err := codegen.Run(c, codegen.Options{Workers: 1, Horizon: 96, Probe: vrec, Lanes: logic.MaxLanes}); err != nil {
		t.Fatal(err)
	}
	srec := trace.NewRecorder()
	compiled.Run(c, compiled.Options{Workers: 1, Horizon: 96, Probe: srec})
	if d := trace.Diff(c, srec, vrec); d != "" {
		t.Fatalf("inverter array diverges: %s", d)
	}
}

func TestZeroHorizon(t *testing.T) {
	c := gen.RandomUnitCircuit(6, 20)
	res, err := codegen.Run(c, codegen.Options{Workers: 1, Horizon: 0, Lanes: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Final) != len(c.Nodes) {
		t.Fatalf("Final len = %d", len(res.Final))
	}
	if res.Run.TimeSteps != 0 || res.Run.Evals != 0 {
		t.Fatalf("zero horizon ran: %+v", res.Run)
	}
}

func TestLaneStrideZeroDefaultsToOne(t *testing.T) {
	c := gen.RandomUnitCircuit(8, 40)
	a, err := codegen.Run(c, codegen.Options{Workers: 1, Horizon: 80, Lanes: 4})
	if err != nil {
		t.Fatal(err)
	}
	b, err := codegen.Run(c, codegen.Options{Workers: 1, Horizon: 80, Lanes: 4, LaneStride: 1})
	if err != nil {
		t.Fatal(err)
	}
	for lane := range a.LaneFinal {
		for n := range c.Nodes {
			if a.LaneFinal[lane][n] != b.LaneFinal[lane][n] {
				t.Fatalf("lane %d node %d differ under default stride", lane, n)
			}
		}
	}
}
