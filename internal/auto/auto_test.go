package auto

import (
	"context"
	"testing"

	"parsim/internal/circuit"
	"parsim/internal/engine"
	"parsim/internal/gen"
	"parsim/internal/seq"

	// The candidates the selector must be able to hand a run to.
	_ "parsim/internal/codegen"
	_ "parsim/internal/compiled"
	_ "parsim/internal/core"
	_ "parsim/internal/dist"
	_ "parsim/internal/parevent"
	_ "parsim/internal/timewarp"
)

// TestRegistry: the engine registers under its canonical name and the
// "select" alias.
func TestRegistry(t *testing.T) {
	for _, name := range []string{"auto", "select"} {
		e, err := engine.Get(name)
		if err != nil {
			t.Fatalf("Get(%q): %v", name, err)
		}
		if e.Name() != "auto" {
			t.Errorf("Get(%q).Name() = %q, want auto", name, e.Name())
		}
	}
}

// TestChooseInverterArray pins the selection on the paper's flagship
// circuit: the asynchronous engine at the full budget, with the complete
// eight-engine ranking ("vector" is a name of jit, not a ninth engine)
// recorded on the selection.
func TestChooseInverterArray(t *testing.T) {
	c := gen.InverterArray(gen.DefaultInverterArray())
	sel, icfg := Choose(c, engine.Config{Workers: 4, Horizon: 96, CostSpin: 300})
	if sel.Engine != "asynchronous" {
		t.Errorf("selected %q, want asynchronous", sel.Engine)
	}
	if icfg.Workers < 1 || icfg.Workers > 4 {
		t.Errorf("inner config workers %d outside budget", icfg.Workers)
	}
	if len(sel.Ranking) != 8 {
		t.Errorf("ranking has %d entries, want 8", len(sel.Ranking))
	}
	if sel.Profile == nil || sel.Profile.Elements == 0 {
		t.Error("selection carries no profile")
	}
	if sel.Confidence < 0 || sel.Confidence > 1 {
		t.Errorf("confidence %v outside [0, 1]", sel.Confidence)
	}
}

// TestChooseLanesForceVector: a batched ("vector") job has no choice —
// only the lane engine, jit, produces LaneFinal.
func TestChooseLanesForceVector(t *testing.T) {
	c := gen.InverterArray(gen.DefaultInverterArray())
	sel, icfg := Choose(c, engine.Config{Workers: 2, Horizon: 96, Lanes: 16})
	if sel.Engine != "jit" {
		t.Fatalf("lanes=16 selected %q, want jit", sel.Engine)
	}
	if sel.Confidence != 1 {
		t.Errorf("forced selection confidence %v, want 1", sel.Confidence)
	}
	if icfg.Lanes != 16 {
		t.Errorf("inner config lanes %d, want 16", icfg.Lanes)
	}
}

// TestChooseSequentialFallsToOneWorker: when the winner is the sequential
// engine the inner config must not carry a parallel worker count.
func TestChooseSequentialFallsToOneWorker(t *testing.T) {
	c := gen.InverterArray(gen.DefaultInverterArray())
	sel, icfg := Choose(c, engine.Config{Workers: 4, Horizon: 96})
	if sel.Engine == "sequential" && icfg.Workers != 1 {
		t.Errorf("sequential selected with %d workers", icfg.Workers)
	}
}

// TestRunEndToEnd: dispatching "auto" through the registry must run the
// selected engine and reproduce the sequential engine's final node values
// (the selection may pick any engine; all of them preserve event timing on
// the unit-delay array).
func TestRunEndToEnd(t *testing.T) {
	c := gen.InverterArray(gen.DefaultInverterArray())
	horizon := circuit.Time(96)
	rep, err := engine.Run(context.Background(), "auto", c, engine.Config{
		Workers: 2, Horizon: horizon,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Selected == nil {
		t.Fatal("report carries no selection")
	}
	if rep.Selected.Engine == "auto" || rep.Selected.Engine == "" {
		t.Fatalf("selection did not resolve to a concrete engine: %q", rep.Selected.Engine)
	}
	if rep.Run.Evals == 0 && rep.Run.Totals().Evals == 0 {
		t.Error("selected engine did not run")
	}
	ref := seq.Run(c.Clone(), seq.Options{Horizon: horizon})
	if len(rep.Final) != len(ref.Final) {
		t.Fatalf("final length %d vs sequential %d", len(rep.Final), len(ref.Final))
	}
	for i := range ref.Final {
		if rep.Final[i] != ref.Final[i] {
			t.Fatalf("node %d final %v, sequential says %v (engine %s)",
				i, rep.Final[i], ref.Final[i], rep.Selected.Engine)
		}
	}
}

// TestRunScalarJobOnVector: a forced batched ("vector") job runs on the
// lane engine and keeps its lane count end to end.
func TestRunScalarJobOnVector(t *testing.T) {
	c := gen.InverterArray(gen.DefaultInverterArray())
	rep, err := engine.Run(context.Background(), "auto", c, engine.Config{
		Workers: 1, Horizon: 96, Lanes: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Selected.Engine != "jit" {
		t.Fatalf("batched job selected %q", rep.Selected.Engine)
	}
	if len(rep.LaneFinal) != 16 {
		t.Errorf("batched job produced %d lanes, want 16", len(rep.LaneFinal))
	}
}
