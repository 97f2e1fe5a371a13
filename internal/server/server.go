// Package server implements recnserved, the sweep-as-a-service daemon:
// an HTTP/JSON API over a bounded, admission-controlled job queue that
// drains into the parallel sweep engine (internal/experiments) with the
// content-addressed run cache as the backing store, so repeat
// submissions are cache hits. Jobs stream their lifecycle and per-run
// completions over SSE, traced runs stream Perfetto JSON, and /metrics
// exposes queue depth, admission rejections, cache hit/miss and run
// throughput. SIGTERM drains in-flight jobs and persists still-queued
// ones; a restart re-enqueues them.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/experiments"
	"repro/internal/fabric"
	"repro/internal/trace"
)

// Config configures the daemon.
type Config struct {
	// Addr is the HTTP listen address (Run/ListenAndServe); tests
	// drive Handler() directly and leave it empty.
	Addr string
	// CacheDir, if non-empty, backs every job with the content-
	// addressed run cache (one shared handle, so concurrent duplicate
	// specs single-flight) and enables GET /v1/runs/{key}.
	CacheDir string
	// QueueCap bounds the number of queued (not yet running) jobs;
	// submissions beyond it are rejected with ErrQueueFull. Default 64.
	QueueCap int
	// Workers is how many jobs run concurrently. Jobs START in strict
	// FIFO order regardless; with more than one worker they may finish
	// out of order. Default 1.
	Workers int
	// MaxRunsPerJob rejects submissions whose estimated simulation
	// count exceeds it (ErrTooManyRuns). Default 64.
	MaxRunsPerJob int
	// Parallelism is each job's sweep worker-pool size
	// (experiments.Options.Parallelism); 0 = GOMAXPROCS.
	Parallelism int
	// StateFile persists still-queued jobs across restarts; defaults
	// to CacheDir/queue.json when CacheDir is set, else persistence is
	// off.
	StateFile string
	// DrainTimeout bounds how long Shutdown waits for in-flight jobs
	// before canceling them. Default 10 minutes.
	DrainTimeout time.Duration
	// Logf, if set, receives operational log lines.
	Logf func(format string, args ...any)

	// reproduce is the figure runner (default experiments.Reproduce);
	// tests substitute it to drive the queue deterministically without
	// simulating.
	reproduce func(id string, o experiments.Options) ([]*experiments.Table, error)
}

func (c Config) withDefaults() Config {
	if c.QueueCap <= 0 {
		c.QueueCap = 64
	}
	if c.Workers <= 0 {
		c.Workers = 1
	}
	if c.MaxRunsPerJob <= 0 {
		c.MaxRunsPerJob = 64
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 10 * time.Minute
	}
	if c.StateFile == "" && c.CacheDir != "" {
		c.StateFile = filepath.Join(c.CacheDir, "queue.json")
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	if c.reproduce == nil {
		c.reproduce = experiments.Reproduce
	}
	return c
}

// SweepRequest is the POST /v1/sweeps submission body: which
// experiments to reproduce and under which options (mirroring
// recnsweep's flags, so the same spec runs identically through either
// entry point).
type SweepRequest struct {
	// Figures lists experiment IDs (see GET /v1/figures or
	// `recnsweep -list`): "2a", "3b", "a1", "lat1", ...
	Figures []string `json:"figures"`
	// Scale compresses simulated time; 1.0 = paper durations.
	Scale float64 `json:"scale,omitempty"`
	// PacketSize in bytes (default 64).
	PacketSize int `json:"packet_size,omitempty"`
	// MaxRows caps printed table rows (default 40).
	MaxRows int `json:"max_rows,omitempty"`
	// Policies optionally overrides the mechanism list ("RECN", "1Q", ...).
	Policies []string `json:"policies,omitempty"`
	// FaultSpec injects faults into every run (fault.ParsePlan syntax).
	FaultSpec string `json:"fault_spec,omitempty"`
	// ThrottleSpec / ARNSpec override the throttle and arn policy
	// tunables (throttle.ParseSpec / fabric.ParseARNSpec syntax).
	ThrottleSpec string `json:"throttle_spec,omitempty"`
	ARNSpec      string `json:"arn_spec,omitempty"`
	// Topo selects the network topology where the figure allows it
	// ("min", "fattree", "mesh"; default per figure).
	Topo string `json:"topo,omitempty"`
	// Shards runs each simulation on the windowed multi-core runtime.
	Shards int `json:"shards,omitempty"`
	// Check enables the runtime invariant checker on every run.
	Check bool `json:"check,omitempty"`
	// NoCache bypasses the run cache for this job.
	NoCache bool `json:"no_cache,omitempty"`
	// Trace attaches a flight recorder to every run; the recorders are
	// then streamable as Perfetto JSON via /v1/sweeps/{id}/trace/{name}.
	Trace bool `json:"trace,omitempty"`
}

type jobState string

const (
	stateQueued   jobState = "queued"
	stateRunning  jobState = "running"
	stateDone     jobState = "done"
	stateFailed   jobState = "failed"
	stateCanceled jobState = "canceled"
)

func terminal(s jobState) bool {
	return s == stateDone || s == stateFailed || s == stateCanceled
}

// event is one entry of a job's lifecycle log, replayed and tailed by
// the SSE endpoint.
type event struct {
	Seq  int            `json:"seq"`
	Time time.Time      `json:"time"`
	Type string         `json:"type"`
	Data map[string]any `json:"data,omitempty"`
}

type namedTrace struct {
	name string
	rec  *trace.Recorder
}

// job is one submitted sweep. All mutable fields are guarded by the
// server mutex.
type job struct {
	id   string
	spec SweepRequest
	est  int // estimated simulation count (admission)

	state    jobState
	errMsg   string
	created  time.Time
	started  time.Time
	finished time.Time

	events     []event
	cancel     context.CancelFunc // non-nil while running
	cancelAsk  bool               // cancellation requested
	tables     []*experiments.Table
	traces     []namedTrace
	runsDone   int
	runsCached int
}

// Server is a running daemon instance.
type Server struct {
	cfg   Config
	cache *experiments.RunCache
	queue *jobQueue
	mux   *http.ServeMux

	mu     sync.Mutex
	cond   *sync.Cond // broadcast on every job event append
	jobs   map[string]*job
	order  []string // submission order, for listing
	nextID uint64

	stopping atomic.Bool
	workers  sync.WaitGroup
	met      metrics
	started  time.Time
}

// New builds a daemon: opens the shared run cache, re-enqueues any jobs
// persisted by a previous shutdown, starts the worker pool, and wires
// the HTTP mux.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		queue:   newJobQueue(cfg.QueueCap),
		jobs:    make(map[string]*job),
		started: time.Now(),
	}
	s.cond = sync.NewCond(&s.mu)
	if cfg.CacheDir != "" {
		cache, err := experiments.OpenRunCache(cfg.CacheDir)
		if err != nil {
			return nil, fmt.Errorf("server: %w", err)
		}
		s.cache = cache
	}
	s.routes()
	if err := s.restoreQueue(); err != nil {
		return nil, err
	}
	for w := 0; w < cfg.Workers; w++ {
		s.workers.Add(1)
		go s.worker()
	}
	return s, nil
}

// Handler returns the daemon's HTTP handler (tests mount it on
// httptest.NewServer; Run serves it on Config.Addr).
func (s *Server) Handler() http.Handler { return s.mux }

// newJobLocked registers a job in state queued. Caller holds s.mu.
func (s *Server) newJobLocked(spec SweepRequest, est int) *job {
	s.nextID++
	j := &job{
		id:      fmt.Sprintf("s%06d", s.nextID),
		spec:    spec,
		est:     est,
		state:   stateQueued,
		created: time.Now(),
	}
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	s.appendEventLocked(j, "queued", map[string]any{"estimated_runs": est})
	return j
}

// appendEventLocked appends a lifecycle event and wakes SSE tails.
// Caller holds s.mu.
func (s *Server) appendEventLocked(j *job, typ string, data map[string]any) {
	j.events = append(j.events, event{
		Seq:  len(j.events) + 1,
		Time: time.Now(),
		Type: typ,
		Data: data,
	})
	s.cond.Broadcast()
}

func (s *Server) event(j *job, typ string, data map[string]any) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.appendEventLocked(j, typ, data)
}

// worker drains the queue; each job runs under its own cancellable
// context. Jobs start in strict FIFO order.
func (s *Server) worker() {
	defer s.workers.Done()
	for {
		j, ok := s.queue.pop()
		if !ok {
			return
		}
		s.runJob(j)
	}
}

func (s *Server) runJob(j *job) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s.mu.Lock()
	if j.cancelAsk {
		// Canceled between pop and start (remove raced the worker).
		s.finishLocked(j, stateCanceled, "")
		s.mu.Unlock()
		return
	}
	j.state = stateRunning
	j.started = time.Now()
	j.cancel = cancel
	spec := j.spec
	s.appendEventLocked(j, "started", nil)
	s.mu.Unlock()

	s.cfg.Logf("job %s started: figures=%v", j.id, spec.Figures)
	tables, traces, err := s.execute(ctx, j, spec)

	s.mu.Lock()
	defer s.mu.Unlock()
	j.cancel = nil
	switch {
	case err == nil:
		j.tables, j.traces = tables, traces
		s.finishLocked(j, stateDone, "")
	case j.cancelAsk || errors.Is(err, experiments.ErrCanceled):
		j.traces = traces
		s.finishLocked(j, stateCanceled, err.Error())
	default:
		j.traces = traces
		s.finishLocked(j, stateFailed, err.Error())
	}
}

// finishLocked moves a job to a terminal state and emits the terminal
// event. Caller holds s.mu.
func (s *Server) finishLocked(j *job, state jobState, errMsg string) {
	j.state = state
	j.errMsg = errMsg
	j.finished = time.Now()
	data := map[string]any{"runs_done": j.runsDone, "runs_cached": j.runsCached}
	switch state {
	case stateDone:
		data["tables"] = len(j.tables)
		s.met.jobsDone.Add(1)
	case stateFailed:
		data["error"] = errMsg
		s.met.jobsFailed.Add(1)
	case stateCanceled:
		s.met.jobsCanceled.Add(1)
	}
	s.appendEventLocked(j, string(state), data)
	s.cfg.Logf("job %s %s", j.id, state)
}

// execute reproduces every figure of the spec through the sweep engine,
// streaming per-run and per-figure completion events.
func (s *Server) execute(ctx context.Context, j *job, spec SweepRequest) ([]*experiments.Table, []namedTrace, error) {
	o := experiments.Options{
		Scale:        spec.Scale,
		PacketSize:   spec.PacketSize,
		MaxRows:      spec.MaxRows,
		FaultSpec:    spec.FaultSpec,
		ThrottleSpec: spec.ThrottleSpec,
		ARNSpec:      spec.ARNSpec,
		Topo:         spec.Topo,
		Shards:       spec.Shards,
		Check:        spec.Check,
		Parallelism:  s.cfg.Parallelism,
		Context:      ctx,
	}
	if !spec.NoCache {
		o.Cache = s.cache
	}
	for _, name := range spec.Policies { // validated at admission
		p, err := fabric.ParsePolicy(name)
		if err != nil {
			return nil, nil, err
		}
		o.Policies = append(o.Policies, p)
	}
	o.OnRunDone = func(i int, r experiments.Run, res *experiments.Result, cached bool) {
		s.met.runsDone.Add(1)
		if cached {
			s.met.runsCached.Add(1)
		}
		s.mu.Lock()
		j.runsDone++
		if cached {
			j.runsCached++
		}
		s.appendEventLocked(j, "run_done", map[string]any{
			"index": i, "policy": r.Policy.String(), "hosts": r.Hosts, "cached": cached,
		})
		s.mu.Unlock()
	}
	var all []*experiments.Table
	var traces []namedTrace
	for _, id := range spec.Figures {
		fo := o
		if spec.Trace {
			tc := trace.Config{} // recorder defaults: 65536-event ring, default mask
			fo.Trace = &tc
			fid := id
			fo.OnTrace = func(label string, rec *trace.Recorder) {
				traces = append(traces, namedTrace{name: fid + "/" + label, rec: rec})
			}
		}
		tables, err := s.cfg.reproduce(id, fo)
		if err != nil {
			return nil, traces, fmt.Errorf("%s: %w", id, err)
		}
		all = append(all, tables...)
		s.event(j, "figure_done", map[string]any{"figure": id, "tables": len(tables)})
	}
	return all, traces, nil
}

// estimateRuns sizes a submission for admission control: the summed
// per-figure simulation counts under default options.
func estimateRuns(spec SweepRequest) (int, error) {
	total := 0
	for _, id := range spec.Figures {
		n, ok := experiments.EstimatedRuns(id)
		if !ok {
			return 0, fmt.Errorf("unknown figure %q", id)
		}
		if len(spec.Policies) > 0 && n > 1 {
			// A policy override replaces the default mechanism list on
			// the multi-policy figures.
			n = len(spec.Policies)
		}
		total += n
	}
	return total, nil
}

// validate rejects a malformed submission before admission control.
func validate(spec SweepRequest) error {
	if len(spec.Figures) == 0 {
		return fmt.Errorf("figures: empty (want experiment IDs like %q)", "2a")
	}
	for _, id := range spec.Figures {
		if !experiments.KnownFigure(id) {
			return fmt.Errorf("figures: unknown %q (have %s)", id, strings.Join(experiments.FigureIDs(), ", "))
		}
	}
	for _, name := range spec.Policies {
		if _, err := fabric.ParsePolicy(name); err != nil {
			return fmt.Errorf("policies: %w", err)
		}
	}
	if _, err := experiments.ValidatePolicyOptions(nil, spec.ThrottleSpec, spec.ARNSpec); err != nil {
		return err
	}
	if !experiments.ValidTopology(spec.Topo) {
		return fmt.Errorf("topo: unknown %q (valid: %s)", spec.Topo, experiments.TopologyNames())
	}
	if err := experiments.ValidScale(spec.Scale); err != nil {
		return fmt.Errorf("scale: %w", err)
	}
	if spec.Shards < 0 {
		return fmt.Errorf("shards: negative (%d)", spec.Shards)
	}
	return nil
}

// persistedState is the queue-state file a graceful shutdown writes:
// the jobs that were admitted but never started, in FIFO order.
type persistedState struct {
	Version int            `json:"version"`
	Jobs    []persistedJob `json:"jobs"`
}

type persistedJob struct {
	ID   string       `json:"id"`
	Spec SweepRequest `json:"spec"`
}

// persistQueue writes the still-queued jobs to the state file
// (atomically); with no state file configured it is a no-op.
func (s *Server) persistQueue(pending []*job) error {
	if s.cfg.StateFile == "" {
		if len(pending) > 0 {
			s.cfg.Logf("dropping %d queued job(s): no state file configured", len(pending))
		}
		return nil
	}
	st := persistedState{Version: 1, Jobs: []persistedJob{}}
	for _, j := range pending {
		st.Jobs = append(st.Jobs, persistedJob{ID: j.id, Spec: j.spec})
	}
	raw, err := json.MarshalIndent(st, "", "  ")
	if err != nil {
		return err
	}
	tmp := s.cfg.StateFile + ".tmp"
	if err := os.WriteFile(tmp, raw, 0o644); err != nil {
		return fmt.Errorf("server: persist queue: %w", err)
	}
	if err := os.Rename(tmp, s.cfg.StateFile); err != nil {
		return fmt.Errorf("server: persist queue: %w", err)
	}
	s.cfg.Logf("persisted %d queued job(s) to %s", len(st.Jobs), s.cfg.StateFile)
	return nil
}

// restoreQueue re-enqueues jobs persisted by a previous shutdown and
// consumes the state file. Persisted jobs keep their IDs; the ID
// counter resumes past the highest restored one.
func (s *Server) restoreQueue() error {
	if s.cfg.StateFile == "" {
		return nil
	}
	raw, err := os.ReadFile(s.cfg.StateFile)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return fmt.Errorf("server: queue state: %w", err)
	}
	var st persistedState
	if err := json.Unmarshal(raw, &st); err != nil {
		return fmt.Errorf("server: queue state %s: %w", s.cfg.StateFile, err)
	}
	if st.Version != 1 {
		return fmt.Errorf("server: queue state %s: unknown version %d", s.cfg.StateFile, st.Version)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, pj := range st.Jobs {
		if err := validate(pj.Spec); err != nil {
			s.cfg.Logf("dropping persisted job %s: %v", pj.ID, err)
			continue
		}
		est, _ := estimateRuns(pj.Spec)
		j := &job{
			id:      pj.ID,
			spec:    pj.Spec,
			est:     est,
			state:   stateQueued,
			created: time.Now(),
		}
		if n, ok := strings.CutPrefix(pj.ID, "s"); ok {
			if v, err := strconv.ParseUint(n, 10, 64); err == nil && v > s.nextID {
				s.nextID = v
			}
		}
		s.jobs[j.id] = j
		s.order = append(s.order, j.id)
		s.appendEventLocked(j, "requeued", nil)
		if err := s.queue.push(j); err != nil {
			s.finishLocked(j, stateFailed, fmt.Sprintf("re-enqueue after restart: %v", err))
		}
	}
	if err := os.Remove(s.cfg.StateFile); err != nil {
		return fmt.Errorf("server: queue state: %w", err)
	}
	s.cfg.Logf("restored %d job(s) from %s", len(st.Jobs), s.cfg.StateFile)
	return nil
}

// Shutdown gracefully stops the daemon: new submissions are rejected
// with ErrDraining, jobs that never started are persisted to the state
// file, and in-flight jobs drain to completion (bounded by ctx and
// Config.DrainTimeout, after which they are canceled). Safe to call
// once; later calls return immediately.
func (s *Server) Shutdown(ctx context.Context) error {
	if !s.stopping.CompareAndSwap(false, true) {
		s.workers.Wait()
		return nil
	}
	pending := s.queue.close()
	perr := s.persistQueue(pending)

	done := make(chan struct{})
	go func() {
		s.workers.Wait()
		close(done)
	}()
	drain, cancel := context.WithTimeout(ctx, s.cfg.DrainTimeout)
	defer cancel()
	select {
	case <-done:
	case <-drain.Done():
		s.cfg.Logf("drain timeout: canceling in-flight jobs")
		s.mu.Lock()
		for _, j := range s.jobs {
			if j.cancel != nil {
				j.cancelAsk = true
				j.cancel()
			}
		}
		s.mu.Unlock()
		<-done
	}
	return perr
}

// Run builds a daemon from cfg and serves its API on cfg.Addr until
// ctx is canceled, then drains and persists per Shutdown.
func Run(ctx context.Context, cfg Config) error {
	s, err := New(cfg)
	if err != nil {
		return err
	}
	hs := &http.Server{Addr: s.cfg.Addr, Handler: s.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	s.cfg.Logf("recnserved listening on %s (queue-cap %d, workers %d, max-runs %d, cache %q)",
		s.cfg.Addr, s.cfg.QueueCap, s.cfg.Workers, s.cfg.MaxRunsPerJob, s.cfg.CacheDir)
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	s.cfg.Logf("shutdown: draining in-flight jobs")
	// Drain jobs first — the API stays up so clients can keep polling
	// in-flight job status — then close the listener.
	serr := s.Shutdown(context.Background())
	hctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := hs.Shutdown(hctx); err != nil && serr == nil {
		serr = err
	}
	return serr
}
