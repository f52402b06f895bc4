// Package engine is the unified simulation-engine layer: one interface,
// one configuration struct and one registry shared by all seven
// simulators (sequential, event-driven, compiled, asynchronous,
// Chandy-Misra, distributed-async and Time Warp).
//
// The paper's point is that the same circuits run under interchangeable
// algorithms whose only differences are scheduling and synchronisation.
// This package makes that interchangeability concrete: the facade, the
// CLIs, the figure harness and the benchmarks all resolve an algorithm by
// name through the registry instead of hand-rolling per-algorithm
// dispatch, every engine accepts the same Config, honours context
// cancellation, and reports the same per-worker counter surface
// (stats.WorkerCounters).
package engine

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"parsim/internal/analyze"
	"parsim/internal/checkpoint"
	"parsim/internal/circuit"
	"parsim/internal/guard"
	"parsim/internal/logic"
	"parsim/internal/partition"
	"parsim/internal/stats"
	"parsim/internal/trace"
)

// LintMode selects how much pre-flight static analysis RunEngine applies
// before handing the circuit to an engine. The analysis is the
// whole-graph checker in internal/analyze; it runs once in the shared
// validation path, so every registered engine gets the same guarantees.
type LintMode int

const (
	// LintOff (the default) skips pre-flight analysis entirely.
	LintOff LintMode = iota
	// LintWarn refuses circuits with Error diagnostics — the hazards that
	// livelock or corrupt a run, such as zero-delay combinational cycles
	// and undriven inputs.
	LintWarn
	// LintStrict additionally refuses Warning diagnostics: unresolved
	// tri-states, multi-driver resolutions, stimulus-free regions and
	// zero-delay elements.
	LintStrict
)

// String returns the flag-style mode name.
func (m LintMode) String() string {
	switch m {
	case LintWarn:
		return "warn"
	case LintStrict:
		return "strict"
	}
	return "off"
}

// ParseLintMode parses a -lint flag value.
func ParseLintMode(s string) (LintMode, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "off", "":
		return LintOff, nil
	case "warn":
		return LintWarn, nil
	case "strict":
		return LintStrict, nil
	}
	return LintOff, fmt.Errorf("parsim: unknown lint mode %q (have off, warn, strict)", s)
}

// Config is the shared configuration accepted by every engine. Fields that
// do not apply to an algorithm are ignored by it (e.g. Strategy outside
// the statically partitioned engines, NoSteal outside event-driven).
type Config struct {
	Workers int          // parallel workers; 0 defaults to 1
	Horizon circuit.Time // simulate t in [0, Horizon); must be >= 0
	Probe   trace.Probe  // optional observer; must be concurrency-safe for parallel engines
	// CostSpin > 0 burns CostSpin x the element's Cost of synthetic work
	// per evaluation, restoring the paper's gate-vs-functional evaluation
	// cost spread for benchmarking.
	CostSpin int64
	// Strategy selects the static partitioner (compiled, dist, timewarp).
	Strategy partition.Strategy
	// CollectAvail records the elements-available-per-step histogram
	// (sequential and event-driven engines).
	CollectAvail bool
	// Lint selects the pre-flight static-analysis level applied in the
	// shared validation path before any engine runs (see LintMode).
	Lint LintMode

	// Watchdog enables the runtime stall watchdog: a run whose progress
	// metric stays flat for this long is aborted with guard.ErrStalled
	// plus a per-worker diagnostic dump. 0 disables the watchdog.
	Watchdog time.Duration
	// Fallback is the retry policy applied when the original engine
	// faults or stalls: the run is transparently retried on the named
	// engine (typically "sequential"), with capped exponential backoff
	// between attempts. The retried Report carries Degraded=true and a
	// *FallbackError (attempt count + original error) in Fault. A zero
	// policy disables fallback.
	Fallback FallbackPolicy

	// Checkpoint asks the engine to write periodic snapshots at quiescent
	// points (see CheckpointSpec). Only the synchronous engines
	// (sequential, compiled, jit and vector) support it; RunEngine rejects the
	// request for every other engine with checkpoint.ErrUnsupported.
	Checkpoint CheckpointSpec
	// ResumeFrom names a snapshot file to continue from instead of
	// starting at t=0. The snapshot must have been written by the same
	// engine under the same netlist and options (content digest); any
	// mismatch or corruption is a typed error, never a silent restart.
	ResumeFrom string
	// CkptPlan and CkptSnap are the resolved forms of Checkpoint and
	// ResumeFrom, installed by RunEngine after digest computation and
	// snapshot verification. Engine adapters read these; callers leave
	// them zero.
	CkptPlan checkpoint.Plan
	CkptSnap *checkpoint.Snapshot
	// Guard is the per-run supervisor, installed by RunEngine. Engines
	// read it to publish progress and contain worker panics; callers
	// leave it nil.
	Guard *guard.Supervisor
	// Chaos injects faults (panics, delays, dropped wakeups) into the
	// engine it names, for supervision tests. Production runs leave it
	// nil; the fallback run never sees it.
	Chaos *guard.ChaosProbe

	// Batched-simulation fields, honoured by the lane engines (jit and
	// vector, see LaneEngine) and ignored by the scalar engines.
	//
	// Lanes is the number of independent stimulus vectors simulated at
	// once (1..logic.MaxWideLanes; 0 takes the engine's DefaultLanes —
	// one for jit, one 64-lane plane word for vector; larger counts widen
	// every plane to ceil(Lanes/64) words).
	Lanes int
	// LaneStride offsets the Seed of rand/gray stimulus generators per
	// lane: lane k runs with Seed + k*LaneStride, so lane 0 always replays
	// the scalar stimulus. 0 defaults to 1.
	LaneStride int64
	// ProbeLane selects which lane feeds Probe and Report.Final in a
	// batched run (default 0, the scalar-identical lane).
	ProbeLane int

	// FaultSim switches the run to concurrent stuck-at fault simulation:
	// lane 0 simulates the good machine, lanes 1..Lanes-1 each carry one
	// fault from the analyzer's collapsed stuck-at list, and the Report
	// carries FaultCoverage. Only the lane engines support it; RunEngine
	// rejects the flag for every other engine.
	FaultSim bool
	// FaultMaxPasses caps fault-list chunking (each pass simulates Lanes-1
	// faults; 0 runs every pass the list needs).
	FaultMaxPasses int
	// FaultStatuses includes the per-fault status rows in FaultCoverage.
	FaultStatuses bool

	// Ablation flags, honoured by the engine they name.
	NoSteal       bool // event-driven: disable end-of-phase work stealing
	CentralQueue  bool // event-driven: the paper's contended single-queue design
	NoLookahead   bool // asynchronous: disable clocked-element lookahead
	GateLookahead bool // asynchronous: controlling-value gate lookahead
	StepsPerRound int  // time-warp: optimistic steps per GVT round (0 = default)
}

// FallbackPolicy configures the transparent retry applied after a
// recoverable failure (worker panic or watchdog stall).
type FallbackPolicy struct {
	// Engine names the engine the run is retried on; empty disables
	// fallback entirely.
	Engine string
	// MaxRetries is the number of fallback attempts; 0 defaults to 1 (a
	// single re-run, the historical behaviour).
	MaxRetries int
	// BaseDelay is the sleep before the second fallback attempt; each
	// further attempt doubles it (with jitter), capped at
	// MaxFallbackDelay. The first attempt is always immediate. 0 disables
	// inter-attempt delays.
	BaseDelay time.Duration
}

// Enabled reports whether the policy names a fallback engine.
func (p FallbackPolicy) Enabled() bool { return p.Engine != "" }

// MaxFallbackDelay caps the exponential backoff between fallback attempts.
const MaxFallbackDelay = 2 * time.Second

// FallbackError is stored in Report.Fault when a run completed on the
// fallback engine: it records how many fallback attempts were needed and
// wraps the original engine's error, so errors.Is/As see through it.
type FallbackError struct {
	Attempts int   // fallback attempts made (the one that succeeded included)
	Err      error // the original engine's recoverable error
}

func (e *FallbackError) Error() string {
	return fmt.Sprintf("recovered by fallback after %d attempt(s): %v", e.Attempts, e.Err)
}

func (e *FallbackError) Unwrap() error { return e.Err }

// CheckpointSpec asks for periodic durable snapshots of the run.
type CheckpointSpec struct {
	// Path is the snapshot file, rewritten atomically at each checkpoint.
	Path string
	// EverySteps is the capture interval in time steps; 0 defaults to
	// DefaultCheckpointEvery. Captures are throttled to at most one
	// durable write per WriteGap of wall time (the first is immediate).
	EverySteps int64
	// WriteGap is the minimum wall-clock spacing between durable writes;
	// 0 defaults to checkpoint.DefaultGap. A kill -9 loses at most one
	// gap plus one capture interval of work.
	WriteGap time.Duration
	// OnSave, when set, is called after each snapshot reaches disk (the
	// server journals checkpoint records through it). It may run
	// concurrently with the simulation's subsequent steps.
	OnSave func(step int64)
}

// DefaultCheckpointEvery is the snapshot interval used when
// CheckpointSpec.EverySteps is zero.
const DefaultCheckpointEvery = 256

// checkpointable names the engines with quiescent-point snapshot support:
// the synchronous family, where the per-step barrier makes global state
// well-defined. The async engines would need GVT-coordinated cuts; they
// report checkpoint.ErrUnsupported instead of pretending.
var checkpointable = map[string]bool{
	"sequential": true,
	"compiled":   true,
	"vector":     true,
	"jit":        true,
}

// SupportsCheckpoint reports whether the named engine (or alias) can
// checkpoint and resume.
func SupportsCheckpoint(name string) bool {
	e, err := Get(name)
	if err != nil {
		return false
	}
	return checkpointable[e.Name()]
}

// Report is the uniform outcome of a run. Per-algorithm counters live in
// Run.PerWorker (zero where not applicable); only genuinely global,
// non-summable metrics get their own field.
type Report struct {
	Run   stats.Run
	Final []logic.Value // node values at the horizon, indexed by NodeID
	// PeakLog is the peak saved-state footprint (time-warp only).
	PeakLog int64
	// Rounds counts Chandy-Misra deadlock recoveries (chandy-misra only;
	// 1 means the run never deadlocked).
	Rounds int64
	// GVTRounds counts time-warp synchronisation rounds.
	GVTRounds int64
	// LaneFinal holds every stimulus lane's final node values from a
	// lane engine's run, indexed [lane][NodeID]; LaneFinal[ProbeLane]
	// equals Final. Nil for the scalar engines.
	LaneFinal [][]logic.Value
	// FaultCoverage reports stuck-at coverage from a fault-simulation run
	// (Config.FaultSim); nil otherwise.
	FaultCoverage *stats.FaultCoverage
	// Degraded marks a result produced by the Config.Fallback engine
	// after the requested engine faulted or stalled; Fault holds a
	// *FallbackError wrapping the original engine's error.
	Degraded bool
	Fault    error
	// Resumed marks a run continued from a Config.ResumeFrom snapshot
	// rather than started at t=0.
	Resumed bool
	// Selected records the decision of an engine=auto run: which engine the
	// static profile + cost model picked, at what configuration, with the
	// full ranking and the profile that justified it. Nil for direct runs.
	Selected *Selection
}

// Choice is one ranked entry from the auto-selection cost model.
type Choice struct {
	Engine   string  `json:"engine"`
	Workers  int     `json:"workers"`
	Strategy string  `json:"strategy,omitempty"`
	Lanes    int     `json:"lanes,omitempty"`
	Span     float64 `json:"span"`
	Eligible bool    `json:"eligible"`
	Reason   string  `json:"reason,omitempty"`
}

// Selection is the outcome of cost-model-driven engine selection
// (engine=auto): the winning configuration, a confidence score from the
// span gap to the runner-up, the full per-engine ranking, and the static
// profile the prediction was computed from.
type Selection struct {
	Engine     string                  `json:"engine"`
	Workers    int                     `json:"workers"`
	Strategy   string                  `json:"strategy,omitempty"`
	Lanes      int                     `json:"lanes,omitempty"`
	Confidence float64                 `json:"confidence"`
	Ranking    []Choice                `json:"ranking,omitempty"`
	Profile    *analyze.CircuitProfile `json:"profile,omitempty"`
}

// Engine is one simulation algorithm. Run simulates c over [0,
// cfg.Horizon) and returns statistics plus final node values. When ctx is
// cancelled mid-run the engine stops within one scheduling quantum (a time
// step, a GVT round, or a queue poll) and returns the partial Report
// together with ctx.Err().
type Engine interface {
	// Name is the canonical registry name (matches Algorithm.String()).
	Name() string
	Run(ctx context.Context, c *circuit.Circuit, cfg Config) (*Report, error)
}

// LaneEngine is implemented by the engines that carry the stimulus-lane
// axis (Config.Lanes, LaneStride, ProbeLane and FaultSim); the scalar
// engines ignore those fields.
type LaneEngine interface {
	Engine
	// DefaultLanes is the lane count a run gets when Config.Lanes is 0.
	DefaultLanes() int
}

// ---- registry ----

var (
	regMu    sync.RWMutex
	registry = map[string]Engine{}
	canon    []string // canonical names in registration order
)

// Register adds an engine under its canonical name plus any aliases.
// Engines self-register from init, so registering a duplicate name panics.
func Register(e Engine, aliases ...string) {
	regMu.Lock()
	defer regMu.Unlock()
	names := append([]string{e.Name()}, aliases...)
	for _, n := range names {
		key := strings.ToLower(n)
		if _, dup := registry[key]; dup {
			panic("engine: duplicate registration of " + key)
		}
		registry[key] = e
	}
	canon = append(canon, e.Name())
}

// Get resolves an engine by canonical name or alias (case-insensitive).
func Get(name string) (Engine, error) {
	regMu.RLock()
	e, ok := registry[strings.ToLower(strings.TrimSpace(name))]
	regMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("parsim: unknown algorithm %q (have %s)",
			name, strings.Join(Names(), ", "))
	}
	return e, nil
}

// Names returns the canonical engine names, sorted.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	out := append([]string(nil), canon...)
	sort.Strings(out)
	return out
}

// Run resolves name through the registry, validates cfg once for every
// engine, and runs. This is the single dispatch point for the facade,
// the CLIs, the harness and the benchmarks.
func Run(ctx context.Context, name string, c *circuit.Circuit, cfg Config) (*Report, error) {
	e, err := Get(name)
	if err != nil {
		return nil, err
	}
	return RunEngine(ctx, e, c, cfg)
}

// ValidateWorkers is the single worker-count check shared by RunEngine
// and the engine packages' direct entry points, replacing the historical
// per-engine "need at least one worker" panics: bad configuration is an
// error, never a crash.
func ValidateWorkers(n int) error {
	if n < 1 {
		return fmt.Errorf("parsim: invalid worker count %d: Workers must be positive (or 0 for the default of 1)", n)
	}
	return nil
}

// RunEngine validates cfg (the one place worker counts and horizons are
// checked) and invokes e under the supervision layer: worker panics come
// back as *guard.WorkerFault, flat-lined runs as guard.ErrStalled when a
// Watchdog window is set, and either outcome is transparently retried on
// the Config.Fallback engine when one is named.
func RunEngine(ctx context.Context, e Engine, c *circuit.Circuit, cfg Config) (*Report, error) {
	if c == nil {
		return nil, fmt.Errorf("parsim: nil circuit")
	}
	if cfg.Horizon < 0 {
		return nil, fmt.Errorf("parsim: negative horizon %d: Horizon is the exclusive end of simulated time and must be >= 0", cfg.Horizon)
	}
	if cfg.Workers == 0 {
		cfg.Workers = 1
	}
	if err := ValidateWorkers(cfg.Workers); err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if _, laned := e.(LaneEngine); cfg.FaultSim && !laned {
		return nil, fmt.Errorf("parsim: fault simulation requires a lane engine (jit or vector), not %q", e.Name())
	}
	var fb Engine
	if cfg.Fallback.Enabled() {
		var err error
		if fb, err = Get(cfg.Fallback.Engine); err != nil {
			return nil, fmt.Errorf("parsim: invalid fallback engine: %w", err)
		}
	}
	if err := resolveCheckpoint(c, e, &cfg); err != nil {
		return nil, err
	}
	if cfg.Lint != LintOff {
		rep := analyze.Analyze(c, analyze.Options{})
		if err := rep.Err(cfg.Lint == LintStrict); err != nil {
			return nil, fmt.Errorf("parsim: lint (%s) rejected circuit %q: %w", cfg.Lint, c.Name, err)
		}
	}
	rep, err := runGuarded(ctx, e, c, cfg)
	if err == nil || fb == nil || fb.Name() == e.Name() || !guard.Recoverable(err) ||
		cfg.FaultSim { // a scalar fallback cannot carry a fault-sim run
		if err == nil && cfg.CkptSnap != nil {
			rep.Resumed = true
		}
		return rep, err
	}
	// Fallback policy: the requested engine faulted or stalled; re-run on
	// the reference engine with supervision (minus chaos — an injected
	// fault must not follow the run — and minus checkpointing, whose
	// snapshots are bound to the original engine's digest), retrying with
	// capped exponential backoff, and report the degraded outcome.
	fbCfg := cfg
	fbCfg.Fallback = FallbackPolicy{}
	fbCfg.Chaos = nil
	fbCfg.Lint = LintOff // the circuit was already linted above
	fbCfg.Checkpoint = CheckpointSpec{}
	fbCfg.ResumeFrom = ""
	fbCfg.CkptPlan = checkpoint.Plan{}
	fbCfg.CkptSnap = nil
	if fb.Name() == "sequential" {
		fbCfg.Workers = 1
	}
	attempts := cfg.Fallback.MaxRetries
	if attempts < 1 {
		attempts = 1
	}
	// Jitter keeps a fleet of simultaneously faulted runs from retrying in
	// lockstep. The source is local: the repo lint forbids the global
	// math/rand state inside internal/.
	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	for attempt := 1; attempt <= attempts; attempt++ {
		if attempt > 1 {
			if serr := sleepBackoff(ctx, rng, cfg.Fallback.BaseDelay, attempt-2); serr != nil {
				return rep, err
			}
		}
		fbRep, fbErr := runGuarded(ctx, fb, c, fbCfg)
		if fbErr == nil {
			fbRep.Degraded = true
			fbRep.Fault = &FallbackError{Attempts: attempt, Err: err}
			return fbRep, nil
		}
		if ctx.Err() != nil || !guard.Recoverable(fbErr) {
			break
		}
	}
	// Every fallback attempt failed too; the original failure is the one
	// that explains the run, so report it.
	return rep, err
}

// sleepBackoff sleeps BaseDelay * 2^exp with up to 50% added jitter, capped
// at MaxFallbackDelay, returning early with the context error if the caller
// cancels. A zero base delay returns immediately.
func sleepBackoff(ctx context.Context, rng *rand.Rand, base time.Duration, exp int) error {
	if base <= 0 {
		return ctx.Err()
	}
	d := base << uint(exp)
	if d <= 0 || d > MaxFallbackDelay { // <= 0 catches shift overflow
		d = MaxFallbackDelay
	}
	d += time.Duration(rng.Int63n(int64(d)/2 + 1))
	if d > MaxFallbackDelay {
		d = MaxFallbackDelay
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// resolveCheckpoint turns the user-facing Checkpoint/ResumeFrom fields into
// the resolved CkptPlan/CkptSnap the engine adapters consume: it gates on
// engine support, computes the content digest, applies the default
// interval, and loads + verifies the resume snapshot.
func resolveCheckpoint(c *circuit.Circuit, e Engine, cfg *Config) error {
	if cfg.Checkpoint.Path == "" && cfg.ResumeFrom == "" {
		return nil
	}
	if !checkpointable[e.Name()] {
		return fmt.Errorf("parsim: engine %q: %w", e.Name(), checkpoint.ErrUnsupported)
	}
	if cfg.Checkpoint.EverySteps < 0 {
		return fmt.Errorf("parsim: negative checkpoint interval %d", cfg.Checkpoint.EverySteps)
	}
	digest, err := checkpoint.Digest(c, checkpoint.Identity{
		Engine:         e.Name(),
		Horizon:        int64(cfg.Horizon),
		Workers:        cfg.Workers,
		Strategy:       cfg.Strategy.String(),
		Lanes:          cfg.Lanes,
		LaneStride:     cfg.LaneStride,
		ProbeLane:      cfg.ProbeLane,
		CostSpin:       cfg.CostSpin,
		FaultSim:       cfg.FaultSim,
		FaultMaxPasses: cfg.FaultMaxPasses,
		FaultStatuses:  cfg.FaultStatuses,
		CollectAvail:   cfg.CollectAvail,
	})
	if err != nil {
		return err
	}
	if cfg.Checkpoint.Path != "" {
		every := cfg.Checkpoint.EverySteps
		if every == 0 {
			every = DefaultCheckpointEvery
		}
		cfg.CkptPlan = checkpoint.Plan{
			Path:   cfg.Checkpoint.Path,
			Every:  every,
			Gap:    cfg.Checkpoint.WriteGap,
			Engine: e.Name(),
			Digest: digest,
			OnSave: cfg.Checkpoint.OnSave,
		}
	}
	if cfg.ResumeFrom != "" {
		snap, err := checkpoint.Load(cfg.ResumeFrom)
		if err != nil {
			return err
		}
		if err := checkpoint.Verify(cfg.ResumeFrom, snap, e.Name(), digest); err != nil {
			return err
		}
		if snap.Step < 0 || snap.Step >= int64(cfg.Horizon) {
			return &checkpoint.MismatchError{
				Path:  cfg.ResumeFrom,
				Field: "step cursor",
				Want:  fmt.Sprintf("in [0, %d)", cfg.Horizon),
				Got:   fmt.Sprintf("%d", snap.Step),
			}
		}
		cfg.CkptSnap = snap
	}
	return nil
}

// runGuarded executes one engine run under a fresh supervisor: it derives
// the cancellable run context, contains main-goroutine panics, folds the
// supervision outcome into the returned error, and attaches the
// per-worker diagnostic dump to stall reports once the workers have
// exited (reading their counters is only race-free then).
func runGuarded(ctx context.Context, e Engine, c *circuit.Circuit, cfg Config) (*Report, error) {
	sup := guard.New(e.Name(), guard.Options{
		Workers: cfg.Workers,
		Window:  cfg.Watchdog,
		Chaos:   cfg.Chaos,
	})
	cfg.Guard = sup
	runCtx := sup.Attach(ctx)
	rep, err := runContained(runCtx, e, c, cfg, sup)
	sup.Stop()
	if gerr := sup.Err(); gerr != nil && ctx.Err() == nil {
		// The supervisor tripped and the caller did not cancel: the
		// engine's own error is just the induced cancellation, so the
		// typed supervision error is the real outcome.
		err = gerr
	}
	var st *guard.StallError
	if errors.As(err, &st) && st.Dump == "" && rep != nil {
		st.Dump = rep.Run.DebugDump()
	}
	return rep, err
}

// runContained invokes e.Run with the engine's main goroutine under the
// same containment as its workers: a panic there (the sequential engine
// runs entirely on this goroutine) becomes a WorkerFault with worker -1.
func runContained(ctx context.Context, e Engine, c *circuit.Circuit, cfg Config, sup *guard.Supervisor) (rep *Report, err error) {
	defer func() {
		if r := recover(); r != nil {
			sup.Capture(-1, "engine main goroutine", r)
			rep, err = nil, sup.Err()
		}
	}()
	return e.Run(ctx, c, cfg)
}

// ---- cancellation support ----

// CancelFlag is a cheap, atomically readable view of a context's
// cancellation state, for polling inside simulator hot loops where calling
// ctx.Err() per iteration (a mutex in the standard library) would contend.
type CancelFlag struct {
	set  atomic.Bool
	stop chan struct{}
	once sync.Once
}

// WatchCancel starts watching ctx. The flag flips once ctx is cancelled.
// Callers must Release the flag when the run finishes so the watcher
// goroutine exits; Release is idempotent.
func WatchCancel(ctx context.Context) *CancelFlag {
	f := &CancelFlag{}
	done := ctx.Done()
	if done == nil {
		return f // never cancellable; no watcher needed
	}
	f.stop = make(chan struct{})
	go func() {
		select {
		case <-done:
			f.set.Store(true)
		case <-f.stop:
		}
	}()
	return f
}

// Cancelled reports whether the watched context has been cancelled.
func (f *CancelFlag) Cancelled() bool { return f.set.Load() }

// Release stops the watcher goroutine.
func (f *CancelFlag) Release() {
	if f.stop != nil {
		f.once.Do(func() { close(f.stop) })
	}
}

// Err returns ctx.Err() if the flag observed a cancellation, else nil.
// Engines use it to decide whether a finished run was cut short.
func (f *CancelFlag) Err(ctx context.Context) error {
	if f.Cancelled() {
		return ctx.Err()
	}
	return nil
}
