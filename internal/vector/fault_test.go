package vector_test

import (
	"context"
	"reflect"
	"testing"

	"parsim/internal/analyze"
	"parsim/internal/codegen"
	"parsim/internal/engine"
	"parsim/internal/gen"
)

// Concurrent stuck-at fault simulation over the plane kernels, run by the
// lane engine's step loop (internal/codegen, fault.go).

// TestWideFaultInverterArrayFullCoverage runs concurrent fault simulation on
// the paper's control circuit. The collapsed fault list is exactly the chain
// heads (both polarities of every toggling input), every one of which
// reaches its chain's sink, so coverage must be total — and no detection can
// happen before the fault effect has propagated through the chain.
func TestWideFaultInverterArrayFullCoverage(t *testing.T) {
	cfg := gen.DefaultInverterArray()
	cfg.Rows, cfg.Cols, cfg.ActiveRows = 8, 8, 8
	c := gen.InverterArray(cfg)

	res, err := codegen.Run(c, codegen.Options{
		Workers: 2, Horizon: 64, Lanes: 64,
		FaultSim: &codegen.FaultOptions{KeepStatuses: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	cov := res.FaultCoverage
	if cov == nil {
		t.Fatal("no FaultCoverage on fault-sim result")
	}
	if cov.Total != 2*cfg.Rows {
		t.Fatalf("collapsed list has %d faults, want %d (chain heads only)", cov.Total, 2*cfg.Rows)
	}
	if cov.Detected != cov.Total {
		t.Fatalf("coverage %.3f (%d/%d), want 1.0; statuses: %+v",
			cov.Coverage(), cov.Detected, cov.Total, cov.Faults)
	}
	if cov.Passes != 1 {
		t.Fatalf("Passes = %d, want 1", cov.Passes)
	}
	if want := analyze.TotalFaultSites(c) - cov.Total; cov.Collapsed != want {
		t.Fatalf("Collapsed = %d, want %d", cov.Collapsed, want)
	}
	for _, st := range cov.Faults {
		if st.Step < int64(cfg.Cols) {
			t.Errorf("fault %s detected at step %d, before the %d-deep chain can propagate",
				st.Site, st.Step, cfg.Cols)
		}
	}
	if res.LaneFinal != nil {
		t.Fatal("fault-sim result carries LaneFinal; expected nil")
	}
}

// TestWideFaultGateMultiplierCoverage is the acceptance-level run: the
// paper's gate-level array multiplier (scaled to 4x4) under random operand
// vectors must reach at least 90% stuck-at coverage, with the fault list
// spanning multiple words of a wide plane.
func TestWideFaultGateMultiplierCoverage(t *testing.T) {
	mcfg := gen.DefaultMultiplier()
	mcfg.N, mcfg.InPeriod, mcfg.Seed = 4, 64, 11
	c := gen.GateMultiplier(mcfg)

	faults := analyze.FaultList(c, true)
	if len(faults) <= 64 {
		t.Fatalf("multiplier fault list has %d faults; want >64 so a 256-lane pass crosses words", len(faults))
	}
	res, err := codegen.Run(c, codegen.Options{
		Workers: 2, Horizon: 1024, Lanes: 256,
		FaultSim: &codegen.FaultOptions{},
	})
	if err != nil {
		t.Fatal(err)
	}
	cov := res.FaultCoverage
	if cov == nil {
		t.Fatal("no FaultCoverage on fault-sim result")
	}
	if cov.Total != len(faults) {
		t.Fatalf("Total = %d, want %d", cov.Total, len(faults))
	}
	if cov.Coverage() < 0.90 {
		t.Fatalf("coverage %.3f (%d/%d) below 0.90", cov.Coverage(), cov.Detected, cov.Total)
	}
	if cov.Faults != nil {
		t.Fatal("statuses kept without KeepStatuses")
	}
}

// TestWideFaultMultiPassMatchesSinglePass chunks the same fault list into
// many narrow passes and checks every fault resolves identically (detected
// flag and first-detection step) to one wide pass — the pass boundary must
// be invisible.
func TestWideFaultMultiPassMatchesSinglePass(t *testing.T) {
	cfg := gen.DefaultInverterArray()
	cfg.Rows, cfg.Cols, cfg.ActiveRows = 6, 5, 4
	c := gen.InverterArray(cfg)
	faults := analyze.FaultList(c, false) // full universe: force several passes

	run := func(lanes int) *codegen.Result {
		res, err := codegen.Run(c, codegen.Options{
			Workers: 1, Horizon: 48, Lanes: lanes,
			FaultSim: &codegen.FaultOptions{Faults: faults, KeepStatuses: true},
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	narrow := run(8) // 7 faults per pass
	wide := run(128) // all faults in one pass
	if narrow.FaultCoverage.Passes <= wide.FaultCoverage.Passes {
		t.Fatalf("narrow run took %d passes, wide %d; expected chunking",
			narrow.FaultCoverage.Passes, wide.FaultCoverage.Passes)
	}
	if narrow.FaultCoverage.Detected != wide.FaultCoverage.Detected {
		t.Fatalf("detected: narrow %d, wide %d", narrow.FaultCoverage.Detected, wide.FaultCoverage.Detected)
	}
	for i := range faults {
		n, w := narrow.FaultCoverage.Faults[i], wide.FaultCoverage.Faults[i]
		if n != w {
			t.Fatalf("fault %d (%s): narrow %+v, wide %+v", i, n.Site, n, w)
		}
	}
}

// TestWideFaultGoodMachineUnperturbed: the fault-sim run's Final is lane
// 0's view and must be bit-identical to a plain run of the same circuit —
// injected faults may never leak into the good machine.
func TestWideFaultGoodMachineUnperturbed(t *testing.T) {
	cfg := gen.DefaultInverterArray()
	cfg.Rows, cfg.Cols, cfg.ActiveRows = 4, 6, 4
	c := gen.InverterArray(cfg)

	plain, err := codegen.Run(c, codegen.Options{Workers: 1, Horizon: 50, Lanes: 1})
	if err != nil {
		t.Fatal(err)
	}
	faulty, err := codegen.Run(c, codegen.Options{
		Workers: 2, Horizon: 50, Lanes: 64,
		FaultSim: &codegen.FaultOptions{},
	})
	if err != nil {
		t.Fatal(err)
	}
	for n := range c.Nodes {
		if plain.Final[n] != faulty.Final[n] {
			t.Fatalf("node %q: good machine %v under faults, %v plain",
				c.Nodes[n].Name, faulty.Final[n], plain.Final[n])
		}
	}
}

// TestWideFaultMaxPasses caps the chunk loop: faults beyond the cap stay
// undetected and the pass count reflects the cap.
func TestWideFaultMaxPasses(t *testing.T) {
	cfg := gen.DefaultInverterArray()
	cfg.Rows, cfg.Cols, cfg.ActiveRows = 8, 4, 8
	c := gen.InverterArray(cfg)
	faults := analyze.FaultList(c, true) // 16 faults

	res, err := codegen.Run(c, codegen.Options{
		Workers: 1, Horizon: 40, Lanes: 8, // 7 faults per pass
		FaultSim: &codegen.FaultOptions{Faults: faults, MaxPasses: 1, KeepStatuses: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	cov := res.FaultCoverage
	if cov.Passes != 1 {
		t.Fatalf("Passes = %d, want 1", cov.Passes)
	}
	if cov.Detected != 7 {
		t.Fatalf("Detected = %d, want exactly the first pass's 7", cov.Detected)
	}
	for i, st := range cov.Faults {
		if got, want := st.Detected, i < 7; got != want {
			t.Errorf("fault %d (%s): detected %v, want %v", i, st.Site, got, want)
		}
	}
}

// TestWideFaultOptionValidation: fault simulation needs a reference lane
// plus at least one fault lane.
func TestWideFaultOptionValidation(t *testing.T) {
	c := gen.RandomUnitCircuit(3, 20)
	if _, err := codegen.Run(c, codegen.Options{Workers: 1, Horizon: 10, Lanes: 1, FaultSim: &codegen.FaultOptions{}}); err == nil {
		t.Fatal("Lanes=1 fault sim accepted")
	}
}

// TestWideFaultEngineDispatch drives fault simulation through the unified
// engine registry under both lane engine names — identical coverage, the
// vector name defaulting to 64 lanes — and checks the engine layer rejects
// the scalar engines.
func TestWideFaultEngineDispatch(t *testing.T) {
	cfg := gen.DefaultInverterArray()
	cfg.Rows, cfg.Cols, cfg.ActiveRows = 4, 4, 4
	c := gen.InverterArray(cfg)

	var ref *engine.Report
	for _, tc := range []struct {
		name  string
		lanes int
	}{{"vector", 0}, {"vector", 64}, {"jit", 64}} {
		rep, err := engine.Run(context.Background(), tc.name, c, engine.Config{
			Workers: 1, Horizon: 40, Lanes: tc.lanes,
			FaultSim: true, FaultStatuses: true,
		})
		if err != nil {
			t.Fatalf("%s/%d: %v", tc.name, tc.lanes, err)
		}
		fc := rep.FaultCoverage
		if fc == nil || fc.Detected == 0 {
			t.Fatalf("%s/%d: registry fault run reported no coverage: %+v", tc.name, tc.lanes, fc)
		}
		if len(fc.Faults) == 0 {
			t.Fatalf("%s/%d: FaultStatuses did not propagate status rows", tc.name, tc.lanes)
		}
		if fc.Lanes != 64 {
			t.Fatalf("%s/%d: ran %d lanes, want 64", tc.name, tc.lanes, fc.Lanes)
		}
		if ref == nil {
			ref = rep
		} else if !reflect.DeepEqual(fc, ref.FaultCoverage) {
			t.Fatalf("%s/%d: coverage %+v differs from vector's %+v", tc.name, tc.lanes, fc, ref.FaultCoverage)
		}
	}
	if _, err := engine.Run(context.Background(), "jit", c, engine.Config{
		Workers: 1, Horizon: 40, FaultSim: true,
	}); err == nil {
		t.Fatal("jit at its one-lane default accepted a fault-sim config")
	}

	if _, err := engine.Run(context.Background(), "compiled", c, engine.Config{
		Workers: 1, Horizon: 40, FaultSim: true,
	}); err == nil {
		t.Fatal("compiled engine accepted a fault-sim config")
	}
}
