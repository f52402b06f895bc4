package codegen

import (
	"context"

	"parsim/internal/circuit"
	"parsim/internal/engine"
	"parsim/internal/logic"
)

// eng is the one lane engine, registered under two names: "jit", whose
// runs default to one lane (a drop-in for the scalar compiled engine), and
// "vector", the batched form, whose runs default to one full 64-lane plane
// word. Both run the same step loop; only the default lane count and the
// name (which keys checkpoints and reports) differ.
type eng struct {
	name  string
	lanes int
}

func (e eng) Name() string { return e.name }

// DefaultLanes implements engine.LaneEngine.
func (e eng) DefaultLanes() int { return e.lanes }

func (e eng) Run(ctx context.Context, c *circuit.Circuit, cfg engine.Config) (*engine.Report, error) {
	opts := Options{
		Workers:    cfg.Workers,
		Horizon:    cfg.Horizon,
		Probe:      cfg.Probe,
		CostSpin:   cfg.CostSpin,
		Guard:      cfg.Guard,
		Lanes:      cfg.Lanes,
		LaneStride: cfg.LaneStride,
		ProbeLane:  cfg.ProbeLane,
		Checkpoint: cfg.CkptPlan,
		Resume:     cfg.CkptSnap,
	}
	if opts.Lanes == 0 {
		opts.Lanes = e.lanes
	}
	if cfg.FaultSim {
		opts.FaultSim = &FaultOptions{
			MaxPasses:    cfg.FaultMaxPasses,
			KeepStatuses: cfg.FaultStatuses,
		}
	}
	res, err := RunContext(ctx, c, opts)
	if res == nil {
		return nil, err
	}
	return &engine.Report{
		Run: res.Run, Final: res.Final, LaneFinal: res.LaneFinal,
		FaultCoverage: res.FaultCoverage,
	}, err
}

func init() {
	engine.Register(eng{name: "jit", lanes: 1}, "codegen")
	engine.Register(eng{name: "vector", lanes: logic.MaxLanes}, "batched", "bit-parallel")
}
