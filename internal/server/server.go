// Package server is the simulation service layer behind the parsimd
// daemon: an HTTP/JSON API over the engine registry with a bounded FIFO
// job queue, admission control, a core-budget scheduler that shares
// GOMAXPROCS across concurrent runs, per-run circuit instancing via
// Circuit.Clone, and a Prometheus-format /metrics endpoint.
//
// The API surface:
//
//	POST /v1/jobs          submit a netlist + engine/options; 202 + job id
//	GET  /v1/jobs          list all jobs, oldest first
//	GET  /v1/jobs/{id}     poll job status; includes the run report when done
//	GET  /v1/jobs/{id}/vcd stream the recorded waveform as VCD
//	GET  /healthz          liveness (503 while draining)
//	GET  /metrics          Prometheus text exposition
//
// Admission control is explicit: a full queue answers 429 with a
// Retry-After hint instead of queueing unboundedly, oversized bodies and
// netlists answer 413, and a draining server answers 503. One dispatcher
// goroutine pops jobs in FIFO order and reserves each job's worker count
// from the core budget before launching it, so the running set never
// oversubscribes the machine — a wide job waits at the head of the queue
// until enough cores free up (head-of-line blocking is the intended
// fairness: strict FIFO, no starvation of wide jobs).
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"parsim"
	"parsim/internal/checkpoint"
	"parsim/internal/circuit"
	"parsim/internal/cluster"
	"parsim/internal/engine"
	"parsim/internal/logic"
	"parsim/internal/netlist"
	"parsim/internal/stats"
	"parsim/internal/trace"
)

// Config sizes the service. The zero value of any field selects the
// default documented on it.
type Config struct {
	// CoreBudget is the total worker cores the scheduler may hand out at
	// once across all running jobs. Default GOMAXPROCS.
	CoreBudget int
	// MaxQueue bounds the admission queue; a submission beyond it is
	// answered 429. Default 256.
	MaxQueue int
	// MaxBodyBytes caps the request body (and thereby the netlist text);
	// beyond it the submission is answered 413. Default 8 MiB.
	MaxBodyBytes int64
	// MaxNodes and MaxElems cap the parsed circuit size (413 beyond).
	// Default 200000 each.
	MaxNodes, MaxElems int
	// DefaultDeadline bounds a job that did not ask for a deadline;
	// MaxDeadline clamps one that asked for more. Defaults 2m and 10m.
	DefaultDeadline, MaxDeadline time.Duration
	// RetryAfter is the hint returned with 429 responses. Default 1s.
	RetryAfter time.Duration
	// StateDir enables crash durability: an append-only job journal plus
	// per-job checkpoint snapshots live here, and New replays the journal
	// on startup — finished jobs reappear in the status API with their
	// saved results, interrupted ones are re-queued and resumed from
	// their last snapshot. Empty (the default) disables durability.
	StateDir string
	// CheckpointEvery is the snapshot interval in simulated time steps for
	// durable jobs on checkpoint-capable engines; 0 selects the engine
	// default (engine.DefaultCheckpointEvery).
	CheckpointEvery int64
	// DedupCache enables content-addressed submission dedup: identical
	// submissions (same canonicalized netlist + result-affecting options)
	// are served from a bounded LRU of this many finished results, and an
	// identical submission arriving while its twin is still queued or
	// running coalesces onto that run instead of re-simulating. Jobs with
	// watch nodes are never deduped (their VCD state is per-job). 0 (the
	// default) disables dedup.
	DedupCache int
}

func (c *Config) withDefaults() {
	if c.CoreBudget <= 0 {
		c.CoreBudget = runtime.GOMAXPROCS(0)
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 256
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 8 << 20
	}
	if c.MaxNodes <= 0 {
		c.MaxNodes = 200000
	}
	if c.MaxElems <= 0 {
		c.MaxElems = 200000
	}
	if c.DefaultDeadline <= 0 {
		c.DefaultDeadline = 2 * time.Minute
	}
	if c.MaxDeadline <= 0 {
		c.MaxDeadline = 10 * time.Minute
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
}

// Server is the simulation service. Create with New, serve via Handler,
// stop with Drain.
type Server struct {
	cfg    Config
	mux    *http.ServeMux
	queue  *jobQueue
	budget *coreBudget
	met    *metrics
	jobs   *jobStore
	jnl    *journal             // nil unless Config.StateDir is set
	dedup  *cluster.ResultCache // nil unless Config.DedupCache > 0

	// dedupMu guards the two dedup indexes: inflight maps a job key to
	// the primary (first-submitted, actually running) job for that key,
	// waiters collects later identical submissions that will be finished
	// with the primary's result.
	dedupMu  sync.Mutex
	inflight map[string]*job
	waiters  map[string][]*job

	nextID       atomic.Int64
	runningJobs  atomic.Int64
	draining     atomic.Bool
	baseCtx      context.Context
	baseCancel   context.CancelFunc
	running      sync.WaitGroup // one per launched job goroutine
	dispatchDone chan struct{}
}

// New builds a Server and starts its dispatcher. When Config.StateDir is
// set, the job journal found there is replayed first — recovered jobs are
// queued ahead of any new submissions — so the error return covers an
// unreadable state directory or a corrupt journal.
func New(cfg Config) (*Server, error) {
	cfg.withDefaults()
	s := &Server{
		cfg:          cfg,
		mux:          http.NewServeMux(),
		queue:        newJobQueue(cfg.MaxQueue),
		budget:       newCoreBudget(cfg.CoreBudget),
		met:          newMetrics(),
		jobs:         newJobStore(),
		dispatchDone: make(chan struct{}),
	}
	if cfg.DedupCache > 0 {
		s.dedup = cluster.NewResultCache(cfg.DedupCache)
		s.inflight = make(map[string]*job)
		s.waiters = make(map[string][]*job)
	}
	s.baseCtx, s.baseCancel = context.WithCancel(context.Background())
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs", s.handleList)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	s.mux.HandleFunc("GET /v1/jobs/{id}/vcd", s.handleVCD)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	if cfg.StateDir != "" {
		if err := s.openState(); err != nil {
			return nil, err
		}
	}
	go s.dispatch()
	return s, nil
}

// Handler returns the HTTP handler serving the API.
func (s *Server) Handler() http.Handler { return s.mux }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Scheduler gauges, exported for tests and the daemon's own logging; the
// same numbers appear on /metrics.
func (s *Server) CoreBudget() int  { return s.budget.Budget() }
func (s *Server) CoresInUse() int  { return s.budget.InUse() }
func (s *Server) CoresPeak() int   { return s.budget.Peak() }
func (s *Server) QueueDepth() int  { return s.queue.depth() }
func (s *Server) RunningJobs() int { return int(s.runningJobs.Load()) }

// jobRequest is the submission body for POST /v1/jobs.
type jobRequest struct {
	// Netlist is the circuit in the parsim netlist text format.
	Netlist string `json:"netlist"`
	// Engine names the algorithm (canonical name or alias).
	Engine string `json:"engine"`
	// Workers is the parallel worker count, which is also the number of
	// cores the scheduler reserves for the run. Default 1.
	Workers int `json:"workers,omitempty"`
	// Horizon is the simulated time bound; required, > 0.
	Horizon int64 `json:"horizon"`
	// DeadlineMS bounds the run's wall-clock time (0 = server default).
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	// WatchdogMS enables the stall watchdog (0 = off).
	WatchdogMS int64 `json:"watchdog_ms,omitempty"`
	// Lint selects pre-flight analysis: "off", "warn" or "strict".
	Lint string `json:"lint,omitempty"`
	// Fallback retries a faulted run on the sequential engine.
	Fallback bool `json:"fallback,omitempty"`
	// CostSpin is the synthetic per-evaluation work multiplier.
	CostSpin int64 `json:"cost_spin,omitempty"`
	// Watch lists node names to record; required for the /vcd endpoint.
	Watch []string `json:"watch,omitempty"`
	// Lanes batches seed-shifted stimulus vectors into one run of a lane
	// engine (0 = the engine's default: 64, one machine word, for vector
	// and 1 for jit; larger counts widen every node plane to ceil(lanes/64) words and are
	// admission-checked against the server's plane budget; ignored by the
	// scalar engines). One job, one core reservation, Lanes results: the
	// per-lane final values come back in the result's lane_final rows.
	Lanes int `json:"lanes,omitempty"`
	// LaneStride is the per-lane rand/gray seed offset (0 = 1).
	LaneStride int64 `json:"lane_stride,omitempty"`
	// ProbeLane selects the lane the watch recording and the final values
	// observe (default 0, the scalar-identical lane).
	ProbeLane int `json:"probe_lane,omitempty"`
	// FaultSim switches a lane-engine (jit or vector) job to concurrent
	// stuck-at fault simulation: lane 0 simulates the good machine, every
	// other lane injects one fault from the circuit's collapsed stuck-at
	// list, and the result carries a fault_coverage section. Rejected (400)
	// on the scalar engines and on fewer than 2 lanes.
	FaultSim bool `json:"fault_sim,omitempty"`
	// FaultMaxPasses caps the chunked fault passes (0 = whole list).
	FaultMaxPasses int `json:"fault_max_passes,omitempty"`
	// FaultStatuses includes the per-fault site/step rows in the result.
	FaultStatuses bool `json:"fault_statuses,omitempty"`
	// ResumeFrom names a checkpoint snapshot file on the server's
	// filesystem to continue from instead of starting at t=0. The fleet
	// coordinator sets it when requeueing a job off a dead node that left
	// a snapshot behind (state dirs shared between nodes). A snapshot
	// that is missing, corrupt or on a checkpoint-incapable engine is
	// dropped and the job runs from scratch — resuming is an optimisation,
	// never a correctness requirement.
	ResumeFrom string `json:"resume_from,omitempty"`
}

// errorBody is the JSON shape of every non-2xx response.
type errorBody struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		b = []byte(`{"error":"response encoding failure"}`)
		status = http.StatusInternalServerError
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(append(b, '\n'))
}

// reject answers a refused submission, counting it by status first.
func (s *Server) reject(w http.ResponseWriter, status int, format string, args ...any) {
	s.met.onReject(status)
	if status == http.StatusTooManyRequests {
		w.Header().Set("Retry-After",
			strconv.Itoa(int((s.cfg.RetryAfter+time.Second-1)/time.Second)))
	}
	writeJSON(w, status, errorBody{Error: fmt.Sprintf(format, args...)})
}

// handleSubmit is POST /v1/jobs: validate, admit, enqueue.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		s.reject(w, http.StatusServiceUnavailable, "server is draining; not accepting jobs")
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	var req jobRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			s.reject(w, http.StatusRequestEntityTooLarge,
				"request body exceeds %d bytes", s.cfg.MaxBodyBytes)
			return
		}
		s.reject(w, http.StatusBadRequest, "malformed JSON body: %v", err)
		return
	}

	j, status, err := s.buildJob(&req)
	if err != nil {
		s.reject(w, status, "%v", err)
		return
	}
	seq := s.nextID.Add(1)
	j.id = fmt.Sprintf("j-%06d", seq)
	j.submitted = time.Now()
	// Journal the acceptance before it becomes externally visible, so a
	// crash after the 202 never loses the job.
	s.logJournal(journalRecord{Type: recAccepted, Job: j.id, Seq: seq, Req: &req})

	if j.key != "" && s.dedupSubmit(j) {
		// Served without a new simulation: either finished on the spot from
		// the result cache or coalesced onto an identical in-flight run.
		s.jobs.add(j)
		s.met.onSubmit()
		s.met.onDedupHit()
		w.Header().Set("Location", "/v1/jobs/"+j.id)
		writeJSON(w, http.StatusAccepted, j.view(time.Now()))
		return
	}

	if err := s.queue.push(j); err != nil {
		s.clearPrimary(j)
		if errors.Is(err, errQueueFull) {
			s.reject(w, http.StatusTooManyRequests,
				"queue full (%d jobs); retry later", s.cfg.MaxQueue)
			return
		}
		s.reject(w, http.StatusServiceUnavailable, "server is draining; not accepting jobs")
		return
	}
	s.jobs.add(j)
	s.met.onSubmit()
	w.Header().Set("Location", "/v1/jobs/"+j.id)
	writeJSON(w, http.StatusAccepted, j.view(time.Now()))
}

// dedupSubmit tries to satisfy a keyed submission without simulating.
// True: the job was finished from the result cache, or parked as a waiter
// on an identical in-flight run (it reaches a terminal state when that
// run does). False: no hit; the job was registered as its key's primary
// and the caller must queue it normally.
func (s *Server) dedupSubmit(j *job) bool {
	if v, ok := s.dedup.Get(j.key); ok {
		res := stripResumed(v.(*parsim.Result))
		now := time.Now()
		j.setRunning(now)
		j.finish(res, nil, now, false)
		rec := journalRecord{Type: recDone, Job: j.id}
		if b, merr := json.Marshal(res); merr == nil {
			rec.Result = b
		}
		s.logJournal(rec)
		s.met.onFinish(j.engine, jobDone, false, 0, stats.WorkerCounters{})
		return true
	}
	s.dedupMu.Lock()
	defer s.dedupMu.Unlock()
	if _, running := s.inflight[j.key]; running {
		s.waiters[j.key] = append(s.waiters[j.key], j)
		return true
	}
	s.inflight[j.key] = j
	return false
}

// clearPrimary retracts a primary registration when the job never made it
// into the queue.
func (s *Server) clearPrimary(j *job) {
	if j.key == "" || s.dedup == nil {
		return
	}
	s.dedupMu.Lock()
	if s.inflight[j.key] == j {
		delete(s.inflight, j.key)
	}
	s.dedupMu.Unlock()
}

// buildJob validates a submission and assembles the job record; the
// handler assigns the id and timestamps. On refusal it returns the HTTP
// status the submission deserves. Journal recovery reuses it so a
// replayed request passes exactly the admission checks a live one does.
func (s *Server) buildJob(req *jobRequest) (*job, int, error) {
	fail := func(status int, format string, args ...any) (*job, int, error) {
		return nil, status, fmt.Errorf(format, args...)
	}
	eng, err := engine.Get(req.Engine)
	if err != nil {
		return fail(http.StatusBadRequest, "%v", err)
	}
	if req.Horizon <= 0 {
		return fail(http.StatusBadRequest, "horizon must be > 0, got %d", req.Horizon)
	}
	workers := req.Workers
	if workers == 0 {
		workers = 1
	}
	if workers < 0 {
		return fail(http.StatusBadRequest, "workers must be >= 0, got %d", workers)
	}
	if eng.Name() == "sequential" {
		workers = 1 // the reference engine is single-threaded by definition
	}
	if workers > s.budget.Budget() {
		return fail(http.StatusBadRequest,
			"workers %d exceeds the server's core budget %d; the job could never be scheduled",
			workers, s.budget.Budget())
	}
	lint, err := engine.ParseLintMode(req.Lint)
	if err != nil {
		return fail(http.StatusBadRequest, "%v", err)
	}
	deadline := time.Duration(req.DeadlineMS) * time.Millisecond
	if deadline <= 0 {
		deadline = s.cfg.DefaultDeadline
	}
	if deadline > s.cfg.MaxDeadline {
		deadline = s.cfg.MaxDeadline
	}
	if req.WatchdogMS < 0 || req.DeadlineMS < 0 {
		return fail(http.StatusBadRequest, "deadline_ms and watchdog_ms must be >= 0")
	}
	if req.Lanes < 0 || req.Lanes > logic.MaxWideLanes {
		return fail(http.StatusBadRequest, "lanes must be in [0,%d], got %d", logic.MaxWideLanes, req.Lanes)
	}
	// Lane fields bind only on the lane engines, and each of those names
	// its own default width (jit one lane, vector 64): validate against
	// the lane count the named engine will actually run. auto hands the request's lanes to its pick (jit when lanes > 1,
	// otherwise a scalar engine or jit at one lane), so it is held to the
	// same checks at that width.
	le, laned := eng.(engine.LaneEngine)
	isAuto := eng.Name() == "auto"
	lanes := req.Lanes
	switch {
	case laned && lanes == 0:
		lanes = le.DefaultLanes()
	case isAuto && lanes == 0:
		lanes = 1
	}
	if req.ProbeLane < 0 {
		return fail(http.StatusBadRequest, "probe_lane must be >= 0, got %d", req.ProbeLane)
	}
	if (laned || isAuto) && req.ProbeLane >= lanes {
		return fail(http.StatusBadRequest, "probe_lane %d outside [0,%d)", req.ProbeLane, lanes)
	}
	if req.FaultSim {
		if !laned {
			return fail(http.StatusBadRequest,
				"fault_sim requires a lane engine (jit or vector), not %q", eng.Name())
		}
		if lanes < 2 {
			return fail(http.StatusBadRequest,
				"fault_sim needs at least 2 lanes (good machine + one fault), got %d", lanes)
		}
	}

	circ, err := netlist.ReadLimited(strings.NewReader(req.Netlist), netlist.Limits{
		MaxBytes: s.cfg.MaxBodyBytes,
		MaxNodes: s.cfg.MaxNodes,
		MaxElems: s.cfg.MaxElems,
	})
	if err != nil {
		if errors.Is(err, netlist.ErrLimit) {
			return fail(http.StatusRequestEntityTooLarge, "%v", err)
		}
		return fail(http.StatusBadRequest, "netlist: %v", err)
	}
	// Lane-width-aware admission: a batched job's state footprint scales
	// with nodes x plane words, so a wide-lane job must fit the same node
	// budget a 64-lane job is held to. Scalar engines ignore lanes and
	// carry one machine word per node either way.
	if laned || isAuto {
		if words := logic.PlaneWords(lanes); len(circ.Nodes)*words > s.cfg.MaxNodes {
			return fail(http.StatusRequestEntityTooLarge,
				"circuit nodes (%d) x plane words (%d) exceeds the node budget %d; lower lanes or shrink the netlist",
				len(circ.Nodes), words, s.cfg.MaxNodes)
		}
	}

	var watch []circuit.NodeID
	for _, name := range req.Watch {
		n := circ.FindNode(strings.TrimSpace(name))
		if n == nil {
			return fail(http.StatusBadRequest, "watch: no node named %q", name)
		}
		watch = append(watch, n.ID)
	}

	resume := strings.TrimSpace(req.ResumeFrom)
	if resume != "" {
		if !engine.SupportsCheckpoint(eng.Name()) {
			log.Printf("parsimd: resume_from ignored: engine %s does not checkpoint", eng.Name())
			resume = ""
		} else if _, lerr := checkpoint.Load(resume); lerr != nil {
			log.Printf("parsimd: resume_from snapshot unusable (%v); running from scratch", lerr)
			resume = ""
		}
	}

	j := &job{
		circ:       circ,
		engine:     eng.Name(),
		cores:      workers,
		horizon:    circuit.Time(req.Horizon),
		deadline:   deadline,
		watchdog:   time.Duration(req.WatchdogMS) * time.Millisecond,
		lint:       lint,
		fallback:   req.Fallback,
		costSpin:   req.CostSpin,
		watch:      watch,
		lanes:      req.Lanes,
		laneStride: req.LaneStride,
		probeLane:  req.ProbeLane,
		faultSim:   req.FaultSim,
		faultCap:   req.FaultMaxPasses,
		faultStat:  req.FaultStatuses,
		resumeFrom: resume,
		state:      jobQueued,
	}
	if len(watch) > 0 {
		j.rec = trace.NewRecorderFor(watch...)
	}
	// Content-addressed job key, computed only when dedup is on. Watch
	// jobs are excluded: their recorded waveform is per-job state a cached
	// result cannot stand in for.
	if s.dedup != nil && len(watch) == 0 {
		j.key = cluster.KeyForSubmission(circ, &cluster.Submission{
			Engine:         req.Engine,
			Workers:        req.Workers,
			Horizon:        req.Horizon,
			Lint:           req.Lint,
			Fallback:       req.Fallback,
			CostSpin:       req.CostSpin,
			Lanes:          req.Lanes,
			LaneStride:     req.LaneStride,
			ProbeLane:      req.ProbeLane,
			FaultSim:       req.FaultSim,
			FaultMaxPasses: req.FaultMaxPasses,
			FaultStatuses:  req.FaultStatuses,
		})
	}
	return j, http.StatusOK, nil
}

// handleList is GET /v1/jobs.
func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	now := time.Now()
	all := s.jobs.all()
	views := make([]jobView, len(all))
	for i, j := range all {
		views[i] = j.view(now)
	}
	writeJSON(w, http.StatusOK, struct {
		Jobs []jobView `json:"jobs"`
	}{Jobs: views})
}

// handleJob is GET /v1/jobs/{id}.
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobs.get(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "no such job"})
		return
	}
	writeJSON(w, http.StatusOK, j.view(time.Now()))
}

// handleVCD is GET /v1/jobs/{id}/vcd: stream the recorded waveform of a
// finished job. 409 while the job is still queued or running, 404 when
// the job recorded nothing (no watch nodes were requested).
func (s *Server) handleVCD(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobs.get(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "no such job"})
		return
	}
	state, hasTrace := j.snapshot()
	if state == jobQueued || state == jobRunning {
		writeJSON(w, http.StatusConflict,
			errorBody{Error: fmt.Sprintf("job is %s; the waveform is available once it finishes", state)})
		return
	}
	if !hasTrace {
		writeJSON(w, http.StatusNotFound,
			errorBody{Error: "job recorded no waveform; submit with \"watch\" to trace nodes"})
		return
	}
	serveVCD(w, j)
}

// serveVCD streams a finished job's waveform. Split from handleVCD so
// the status-then-body order is straight-line (the respwrite lint checks
// it per function).
func serveVCD(w http.ResponseWriter, j *job) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	trace.WriteVCD(w, j.circ, j.rec, j.horizon, j.watch...)
}

// handleHealthz is GET /healthz: 200 while accepting work, 503 draining.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	body := struct {
		Status     string `json:"status"`
		QueueDepth int    `json:"queue_depth"`
		Running    int    `json:"jobs_running"`
		CoresInUse int    `json:"cores_in_use"`
	}{"ok", s.QueueDepth(), s.RunningJobs(), s.CoresInUse()}
	status := http.StatusOK
	if s.draining.Load() {
		body.Status = "draining"
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, body)
}

// handleMetrics is GET /metrics, Prometheus text exposition format.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	s.met.render(w, gauges{
		queueDepth: s.QueueDepth(),
		running:    s.RunningJobs(),
		budget:     s.budget.Budget(),
		inUse:      s.budget.InUse(),
		peak:       s.budget.Peak(),
	})
}

// dispatch is the scheduler loop: pop jobs in FIFO order, reserve their
// cores, launch them. Exactly one dispatcher runs per Server, so the
// core-budget wait preserves submission order — a wide job blocks the
// head of the queue until it fits rather than being overtaken forever.
func (s *Server) dispatch() {
	defer close(s.dispatchDone)
	for {
		j, ok := s.queue.peek()
		if !ok {
			return
		}
		// Reserve cores while the job is still the counted head of the
		// queue, so a core-starved head keeps admission control honest.
		admitted := !s.draining.Load() && s.budget.acquire(j.cores)
		s.queue.removeHead()
		if !admitted {
			now := time.Now()
			j.discard(now)
			s.met.onDiscard()
			for _, wj := range s.takeWaiters(j) {
				wj.discard(now)
				s.met.onDiscard()
			}
			continue
		}
		s.running.Add(1)
		go s.runJob(j)
	}
}

// runJob executes one admitted job: clone the template circuit so
// concurrent runs never share mutable state, bound the run with the
// job's deadline under the server's base context, dispatch through the
// engine registry, and fold the outcome into the job record and metrics.
func (s *Server) runJob(j *job) {
	defer s.running.Done()
	defer s.budget.release(j.cores)
	start := time.Now()
	s.met.onStart(start.Sub(j.submitted))
	j.setRunning(start)
	s.logJournal(journalRecord{Type: recStarted, Job: j.id})
	s.runningJobs.Add(1)
	defer s.runningJobs.Add(-1)

	ctx := s.baseCtx
	if j.deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, j.deadline)
		defer cancel()
	}
	cfg := engine.Config{
		Workers:        j.cores,
		Horizon:        j.horizon,
		CostSpin:       j.costSpin,
		Lint:           j.lint,
		Watchdog:       j.watchdog,
		Lanes:          j.lanes,
		LaneStride:     j.laneStride,
		ProbeLane:      j.probeLane,
		FaultSim:       j.faultSim,
		FaultMaxPasses: j.faultCap,
		FaultStatuses:  j.faultStat,
	}
	if j.rec != nil {
		cfg.Probe = j.rec
	}
	if j.fallback {
		cfg.Fallback = engine.FallbackPolicy{Engine: "sequential"}
	}
	// Durable jobs on checkpoint-capable engines snapshot periodically —
	// and once more at the stop boundary if the run is cancelled — so a
	// crashed or drained daemon resumes them instead of replaying from
	// t=0. The journal records each snapshot as it reaches disk.
	if s.jnl != nil && engine.SupportsCheckpoint(j.engine) {
		cfg.Checkpoint = engine.CheckpointSpec{
			Path:       s.ckptPath(j.id),
			EverySteps: s.cfg.CheckpointEvery,
			OnSave: func(step int64) {
				s.logJournal(journalRecord{Type: recCheckpointed, Job: j.id, Step: step})
			},
		}
	}
	// Resume applies with or without a local journal: journal recovery
	// sets resumeFrom to this node's own snapshot, while a fleet requeue
	// passes a dead sibling's snapshot through the submission body.
	if j.resumeFrom != "" && engine.SupportsCheckpoint(j.engine) {
		cfg.ResumeFrom = j.resumeFrom
	}
	rep, err := engine.Run(ctx, j.engine, j.circ.Clone(), cfg)

	end := time.Now()
	serverCancelled := s.baseCtx.Err() != nil && errors.Is(err, context.Canceled)
	res := resultFromReport(rep)
	state := j.finish(res, err, end, serverCancelled)
	if s.jnl != nil {
		switch state {
		case jobDone:
			rec := journalRecord{Type: recDone, Job: j.id}
			if b, merr := json.Marshal(res); merr == nil {
				rec.Result = b
			}
			s.logJournal(rec)
		case jobCancelled:
			// Shutdown-cancelled: deliberately no terminal record. The job
			// stays in-flight in the journal, so the next startup re-queues
			// it and resumes from the final snapshot the cancel wrote —
			// a drain interrupts the work, it doesn't lose it.
		default:
			s.logJournal(journalRecord{Type: recFailed, Job: j.id, Error: err.Error()})
		}
	}
	var tot stats.WorkerCounters
	degraded := false
	if rep != nil {
		tot = rep.Run.Totals()
		degraded = rep.Degraded
		if rep.Selected != nil {
			s.met.onAutoSelect(rep.Selected.Engine)
		}
	}
	s.met.onFinish(j.engine, state, degraded, end.Sub(start), tot)
	s.settleDedup(j, res, err, end, serverCancelled, state)
}

// settleDedup closes out a keyed run: a successful result enters the LRU
// so the next identical submission skips simulation, and every waiter
// coalesced onto this run is finished with the same outcome.
func (s *Server) settleDedup(j *job, res *parsim.Result, runErr error, end time.Time, serverCancelled bool, state jobState) {
	if j.key == "" || s.dedup == nil {
		return
	}
	// Publish the result before releasing the in-flight slot, so there is
	// no window where an identical submission sees neither.
	if state == jobDone && res != nil {
		s.dedup.Put(j.key, res)
	}
	shared := stripResumed(res)
	for _, wj := range s.takeWaiters(j) {
		wj.setRunning(end)
		wst := wj.finish(shared, runErr, end, serverCancelled)
		if s.jnl != nil {
			switch wst {
			case jobDone:
				rec := journalRecord{Type: recDone, Job: wj.id}
				if b, merr := json.Marshal(shared); merr == nil {
					rec.Result = b
				}
				s.logJournal(rec)
			case jobCancelled:
				// Like the primary: no terminal record, so restart re-runs it.
			default:
				s.logJournal(journalRecord{Type: recFailed, Job: wj.id, Error: runErr.Error()})
			}
		}
		s.met.onFinish(wj.engine, wst, false, 0, stats.WorkerCounters{})
	}
}

// stripResumed returns res as the result of a dedup hit: Resumed is
// provenance of the producing run (it came back from a snapshot), not of
// a submission that never simulated at all, so a served copy clears it.
// Shallow copy — the shared Final/Stats payloads are read-only by then.
func stripResumed(res *parsim.Result) *parsim.Result {
	if res == nil || !res.Resumed {
		return res
	}
	cp := *res
	cp.Resumed = false
	return &cp
}

// takeWaiters atomically releases a primary's in-flight registration and
// claims its waiter list. A job that was never the registered primary for
// its key (dedup off, keyless, or a recovered duplicate) takes nothing.
func (s *Server) takeWaiters(j *job) []*job {
	if j.key == "" || s.dedup == nil {
		return nil
	}
	s.dedupMu.Lock()
	defer s.dedupMu.Unlock()
	if s.inflight[j.key] != j {
		return nil
	}
	delete(s.inflight, j.key)
	ws := s.waiters[j.key]
	delete(s.waiters, j.key)
	return ws
}

// resultFromReport converts an engine report to the facade Result — the
// same mapping SimulateContext applies, so a job's JSON result matches
// `parsim -json` byte for byte on the same run.
func resultFromReport(rep *engine.Report) *parsim.Result {
	if rep == nil {
		return nil
	}
	tot := rep.Run.Totals()
	return &parsim.Result{
		Stats:         rep.Run,
		Final:         rep.Final,
		LaneFinal:     rep.LaneFinal,
		FaultCoverage: rep.FaultCoverage,
		Messages:      tot.Messages,
		Rollbacks:     tot.Rollbacks,
		Cancelled:     tot.Cancelled,
		PeakLog:       rep.PeakLog,
		Rounds:        rep.Rounds,
		Degraded:      rep.Degraded,
		Resumed:       rep.Resumed,
		Fault:         rep.Fault,
		Selected:      rep.Selected,
	}
}

// Drain gracefully shuts the service down: refuse new submissions,
// discard the queued backlog, and wait for running jobs. If ctx expires
// first the base context is cancelled, which stops every engine within
// one scheduling quantum; Drain still waits for the (now aborted) jobs
// to record their partial results before returning ctx.Err().
func (s *Server) Drain(ctx context.Context) error {
	if s.draining.CompareAndSwap(false, true) {
		s.queue.close()
		s.budget.close()
	}
	<-s.dispatchDone
	done := make(chan struct{})
	go func() {
		s.running.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		s.baseCancel()
		<-done
		err = ctx.Err()
	}
	// Every job goroutine has returned; no more appends are coming.
	if s.jnl != nil {
		if cerr := s.jnl.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	return err
}
