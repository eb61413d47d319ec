package serve

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"microslip/internal/runctl"
)

// Config configures a Server. The zero value of every field maps to a
// sensible default, so Config{Storage: ...} is a working server.
type Config struct {
	// Storage is the durability backend; nil means in-memory only.
	Storage Storage
	// Pool is the number of concurrent jobs (worker groups); default 2.
	Pool int
	// QueueDepth bounds the number of accepted-but-not-running jobs;
	// submissions beyond it are refused with 503. Default 1024.
	QueueDepth int
	// StreamEvery is the step interval between streamed progress frames
	// (and the supervision granularity of sequential jobs); default 200.
	StreamEvery int
	// Limits bound client-supplied job specs.
	Limits Limits
	// CheckpointKeep is how many committed checkpoint sets distributed
	// jobs retain (checkpoint.Prune's keep); default 2.
	CheckpointKeep int
}

func (c Config) withDefaults() Config {
	if c.Storage == nil {
		c.Storage = NewMemStorage()
	}
	if c.Pool <= 0 {
		c.Pool = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 1024
	}
	if c.StreamEvery <= 0 {
		c.StreamEvery = 200
	}
	if c.CheckpointKeep <= 0 {
		c.CheckpointKeep = 2
	}
	c.Limits = c.Limits.withDefaults()
	return c
}

// ErrQueueFull is returned by Submit when the bounded queue is at
// capacity; the HTTP layer maps it to 503.
var ErrQueueFull = errors.New("serve: job queue full")

// ErrDraining is returned by Submit after Shutdown began.
var ErrDraining = errors.New("serve: server draining")

// errClientCancel is the cancellation cause of the cancel endpoint.
var errClientCancel = errors.New("serve: canceled by client")

// job is the server-internal record: the visible status plus the
// supervision plumbing.
type job struct {
	mu     sync.Mutex
	status JobStatus

	ctx    context.Context
	cancel context.CancelCauseFunc
	// done closes when the job reaches a terminal state.
	done chan struct{}
	// subs are the live stream subscribers.
	subs map[chan Frame]struct{}

	enqueuedAt time.Time
	// computeFrom marks when the compute stage began (solver built).
	computeFrom time.Time
}

// markCompute stamps the schedule→compute stage boundary.
func (j *job) markCompute() {
	j.mu.Lock()
	j.computeFrom = time.Now()
	j.mu.Unlock()
}

// Status returns a copy of the visible status.
func (j *job) Status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status
}

// publish fans a frame out to the stream subscribers, dropping frames
// for subscribers whose buffer is full (a slow reader must not stall
// the lattice).
func (j *job) publish(f Frame) {
	j.mu.Lock()
	defer j.mu.Unlock()
	for ch := range j.subs {
		select {
		case ch <- f:
		default:
		}
	}
}

// subscribe registers a stream channel; the returned cancel removes it.
func (j *job) subscribe() (<-chan Frame, func()) {
	ch := make(chan Frame, 16)
	j.mu.Lock()
	if j.subs == nil {
		j.subs = map[chan Frame]struct{}{}
	}
	j.subs[ch] = struct{}{}
	j.mu.Unlock()
	return ch, func() {
		j.mu.Lock()
		delete(j.subs, ch)
		j.mu.Unlock()
	}
}

// Server is the control plane: a bounded job queue drained by a pool
// of worker goroutines, each running one supervised simulation at a
// time.
type Server struct {
	cfg     Config
	metrics *Metrics

	baseCtx    context.Context
	baseCancel context.CancelCauseFunc

	mu    sync.Mutex
	jobs  map[string]*job
	order []string // submission order for listing

	queue     chan *job
	queueOnce sync.Once // closes queue exactly once
	wg        sync.WaitGroup
	draining  atomic.Bool

	seq    atomic.Int64
	bootID string
}

// NewServer builds the server and starts its worker pool. Call
// Shutdown to drain it; leaking a running Server leaks its pool
// goroutines.
func NewServer(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancelCause(context.Background())
	s := &Server{
		cfg:        cfg,
		metrics:    NewMetrics(),
		baseCtx:    ctx,
		baseCancel: cancel,
		jobs:       map[string]*job{},
		queue:      make(chan *job, cfg.QueueDepth),
		bootID:     fmt.Sprintf("%04x", rand.Intn(1<<16)),
	}
	// Seed the in-memory index with persisted terminal jobs so status
	// queries and resume work across restarts.
	ids, err := cfg.Storage.List()
	if err != nil {
		cancel(nil)
		return nil, err
	}
	sort.Strings(ids)
	for _, id := range ids {
		st, err := cfg.Storage.LoadStatus(id)
		if err != nil {
			continue // a corrupt record must not brick the server
		}
		j := &job{status: *st, done: make(chan struct{})}
		close(j.done)
		s.jobs[id] = j
		s.order = append(s.order, id)
	}
	for i := 0; i < cfg.Pool; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s, nil
}

// Metrics returns the server's counter set.
func (s *Server) Metrics() *Metrics { return s.metrics }

// newID returns a process-unique job id; the boot prefix keeps ids
// from colliding with persisted jobs of earlier runs.
func (s *Server) newID() string {
	return fmt.Sprintf("j-%s-%06d", s.bootID, s.seq.Add(1))
}

// Submit validates a spec, resolves its resume source if any, and
// enqueues the job. It returns the queued status.
func (s *Server) Submit(spec JobSpec) (JobStatus, error) {
	if err := spec.Validate(s.cfg.Limits); err != nil {
		s.metrics.Rejected.Add(1)
		return JobStatus{}, err
	}
	if spec.Resume != "" {
		if err := s.checkResumable(spec.Resume); err != nil {
			s.metrics.Rejected.Add(1)
			return JobStatus{}, err
		}
	}
	now := time.Now()
	ctx, cancel := context.WithCancelCause(s.baseCtx)
	j := &job{
		status: JobStatus{
			ID:          s.newID(),
			Spec:        spec,
			State:       StateQueued,
			SubmittedAt: now,
		},
		ctx:        ctx,
		cancel:     cancel,
		done:       make(chan struct{}),
		enqueuedAt: now,
	}

	// Snapshot before the enqueue: once a worker can see the job it may
	// already be running by the time this call returns.
	queued := j.status

	s.mu.Lock()
	if s.draining.Load() {
		s.mu.Unlock()
		cancel(runctl.ErrShutdown)
		s.metrics.Refused.Add(1)
		return JobStatus{}, ErrDraining
	}
	select {
	case s.queue <- j:
	default:
		s.mu.Unlock()
		cancel(nil)
		s.metrics.Refused.Add(1)
		return JobStatus{}, ErrQueueFull
	}
	s.jobs[j.status.ID] = j
	s.order = append(s.order, j.status.ID)
	s.mu.Unlock()

	s.metrics.Submitted.Add(1)
	s.metrics.CountState("", StateQueued)
	return queued, nil
}

// checkResumable verifies the named job exists and left a committed
// checkpoint behind.
func (s *Server) checkResumable(id string) error {
	j, ok := s.getJob(id)
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoJob, id)
	}
	st := j.Status()
	if !st.State.Terminal() {
		return specErr("job %s is %s; only finished jobs can be resumed", id, st.State)
	}
	if !st.Resumable {
		return specErr("job %s left no committed checkpoint to resume from", id)
	}
	return nil
}

// getJob looks a job up by id.
func (s *Server) getJob(id string) (*job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Get returns a job's status.
func (s *Server) Get(id string) (JobStatus, error) {
	j, ok := s.getJob(id)
	if !ok {
		return JobStatus{}, fmt.Errorf("%w: %s", ErrNoJob, id)
	}
	return j.Status(), nil
}

// List returns every known job's status in submission order.
func (s *Server) List() []JobStatus {
	s.mu.Lock()
	ids := append([]string(nil), s.order...)
	jobs := make([]*job, 0, len(ids))
	for _, id := range ids {
		jobs = append(jobs, s.jobs[id])
	}
	s.mu.Unlock()
	out := make([]JobStatus, 0, len(jobs))
	for _, j := range jobs {
		out = append(out, j.Status())
	}
	return out
}

// Cancel asks a job to stop at the next safe boundary. Canceling a
// terminal job is a no-op; the current status is returned either way.
func (s *Server) Cancel(id string) (JobStatus, error) {
	j, ok := s.getJob(id)
	if !ok {
		return JobStatus{}, fmt.Errorf("%w: %s", ErrNoJob, id)
	}
	if j.cancel != nil {
		j.cancel(fmt.Errorf("%w: job %s", errClientCancel, id))
	}
	return j.Status(), nil
}

// Wait blocks until the job reaches a terminal state, the timeout
// expires, or ctx is done, and returns the status at that moment.
func (s *Server) Wait(ctx context.Context, id string, timeout time.Duration) (JobStatus, error) {
	j, ok := s.getJob(id)
	if !ok {
		return JobStatus{}, fmt.Errorf("%w: %s", ErrNoJob, id)
	}
	var timer <-chan time.Time
	if timeout > 0 {
		t := time.NewTimer(timeout)
		defer t.Stop()
		timer = t.C
	}
	select {
	case <-j.done:
	case <-timer:
	case <-ctx.Done():
	}
	return j.Status(), nil
}

// Subscribe attaches a frame stream to a job. The returned channel
// receives progress frames until the job ends; done closes at the
// terminal transition. Call off to detach.
func (s *Server) Subscribe(id string) (frames <-chan Frame, done <-chan struct{}, off func(), err error) {
	j, ok := s.getJob(id)
	if !ok {
		return nil, nil, nil, fmt.Errorf("%w: %s", ErrNoJob, id)
	}
	frames, off = j.subscribe()
	return frames, j.done, off, nil
}

// Draining reports whether Shutdown has begun.
func (s *Server) Draining() bool { return s.draining.Load() }

// Shutdown drains the server: submissions are refused, running jobs
// are interrupted at their next safe boundary (checkpointing through
// their configured spec), queued jobs are marked interrupted without
// running, and the worker pool exits. It returns once the pool is idle
// or ctx expires.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.draining.Store(true)
	s.queueOnce.Do(func() { close(s.queue) })
	s.mu.Unlock()
	s.baseCancel(runctl.ErrShutdown)

	idle := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(idle)
	}()
	select {
	case <-idle:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("serve: drain incomplete: %w", context.Cause(ctx))
	}
}

// worker is one pool goroutine: it drains the queue until the queue
// closes (drain) and runs one job at a time.
func (s *Server) worker() {
	defer s.wg.Done()
	for j := range s.queue {
		s.runJob(j)
	}
}

// finish moves a job to its terminal state, persists the status, and
// releases waiters and streams.
func (s *Server) finish(j *job, state State, runErr error, res *Result, resumable bool) {
	now := time.Now()
	j.mu.Lock()
	prev := j.status.State
	j.status.State = state
	j.status.FinishedAt = &now
	j.status.Result = res
	j.status.Resumable = resumable
	if runErr != nil {
		j.status.Error = runErr.Error()
	}
	st := j.status
	j.mu.Unlock()
	s.metrics.CountState(prev, state)

	// Persist the terminal record (the persist-stage clock is owned by
	// runJob, which also re-saves with final stage timings).
	if err := s.cfg.Storage.SaveStatus(&st); err != nil && state != StateFailed {
		// A job whose run succeeded but whose record cannot be saved is
		// a failed job: the client would otherwise see results the
		// durability layer never accepted.
		j.mu.Lock()
		j.status.State = StateFailed
		j.status.Error = err.Error()
		j.mu.Unlock()
		s.metrics.CountState(state, StateFailed)
	}

	step := 0
	if res != nil {
		step = res.Steps
	}
	j.publish(Frame{Step: step, State: j.Status().State})
	close(j.done)
}
