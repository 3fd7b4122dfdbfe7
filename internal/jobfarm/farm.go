package jobfarm

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"tofumd/internal/md/restart"
	"tofumd/internal/metrics"
	"tofumd/internal/trace"
)

// Sentinel admission errors, mapped to HTTP 503/429 by the API layer.
var (
	ErrDraining  = errors.New("farm is draining, not accepting jobs")
	ErrQueueFull = errors.New("queue full, job shed")
	errDeadline  = errors.New("deadline exceeded")
	errCancelled = errors.New("cancelled by client")
)

// Config parameterizes a Farm.
type Config struct {
	// Workers is the pool size (default 2).
	Workers int
	// QueueCap bounds fresh admissions (default 16).
	QueueCap int
	// MaxRetries is the default transient-retry budget (default 2).
	MaxRetries int
	// RetryBackoff is the base backoff, doubled per retry (default 100ms).
	RetryBackoff time.Duration
	// RetryBackoffCap caps the backoff growth (default 5s).
	RetryBackoffCap time.Duration
	// Runner executes attempts (default MDRunner).
	Runner Runner
	// Journal persists jobs across process restarts (nil = in-memory).
	Journal *Journal
	// Metrics receives the jobfarm families (nil = disabled).
	Metrics *metrics.Registry
	// Rec receives one span per job phase (nil = disabled).
	Rec *trace.Recorder
	// Logf logs lifecycle events (nil = silent).
	Logf func(format string, args ...any)
}

// attemptRT is the runtime handle for an in-flight attempt: the signals a
// worker watches while the scheduler decides the job's fate.
type attemptRT struct {
	preempt     chan struct{}
	preemptOnce sync.Once
	cancel      context.CancelCauseFunc
}

// Farm owns the scheduler, the worker pool, and all cross-cutting wiring
// (deadlines, retries, journal, metrics, traces).
type Farm struct {
	cfg   Config
	start time.Time

	mu   sync.Mutex
	cond *sync.Cond
	// sched is the pure lifecycle core. guarded by mu.
	sched *Scheduler
	// active maps running job IDs to their attempt handles. guarded by mu.
	active map[string]*attemptRT
	// closed is set once Shutdown finishes; workers exit. guarded by mu.
	closed bool
	// seq numbers job IDs. guarded by mu.
	seq int

	wg sync.WaitGroup

	// Metric handles, cached at construction (nil-safe when disabled).
	mSubmitted, mDone, mFailed, mCancelled, mShed *metrics.Counter
	mPreempt, mRetry, mPanic                      *metrics.Counter
	gQueue, gRunning                              *metrics.Gauge
}

// New builds and starts a farm: workers launch immediately, and any jobs
// journaled by a previous process are adopted and requeued.
func New(cfg Config) (*Farm, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.QueueCap <= 0 {
		cfg.QueueCap = 16
	}
	if cfg.MaxRetries < 0 {
		cfg.MaxRetries = 0
	}
	if cfg.MaxRetries == 0 {
		cfg.MaxRetries = 2
	}
	if cfg.RetryBackoff <= 0 {
		cfg.RetryBackoff = 100 * time.Millisecond
	}
	if cfg.RetryBackoffCap <= 0 {
		cfg.RetryBackoffCap = 5 * time.Second
	}
	if cfg.Runner == nil {
		cfg.Runner = MDRunner
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	f := &Farm{
		cfg:        cfg,
		start:      time.Now(),
		sched:      NewScheduler(cfg.Workers, cfg.QueueCap),
		active:     map[string]*attemptRT{},
		mSubmitted: cfg.Metrics.Counter("jobfarm_jobs", "submitted"),
		mDone:      cfg.Metrics.Counter("jobfarm_jobs", "done"),
		mFailed:    cfg.Metrics.Counter("jobfarm_jobs", "failed"),
		mCancelled: cfg.Metrics.Counter("jobfarm_jobs", "cancelled"),
		mShed:      cfg.Metrics.Counter("jobfarm_jobs", "shed"),
		mPreempt:   cfg.Metrics.Counter("jobfarm_preemptions", "total"),
		mRetry:     cfg.Metrics.Counter("jobfarm_retries", "total"),
		mPanic:     cfg.Metrics.Counter("jobfarm_panics", "total"),
		gQueue:     cfg.Metrics.Gauge("jobfarm_queue_depth", "jobs"),
		gRunning:   cfg.Metrics.Gauge("jobfarm_running", "jobs"),
	}
	f.cond = sync.NewCond(&f.mu)
	if adopted, err := cfg.Journal.LoadAll(); err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	} else if len(adopted) > 0 {
		f.adopt(adopted)
	}
	for i := 0; i < cfg.Workers; i++ {
		f.wg.Add(1)
		go f.worker()
	}
	return f, nil
}

// adopt re-admits journaled jobs: non-terminal ones requeue (bypassing
// the admission cap — they were already accepted once), terminal ones
// stay queryable.
func (f *Farm) adopt(jobs []*Job) {
	f.mu.Lock()
	defer f.mu.Unlock()
	maxSeq := 0
	for _, j := range jobs {
		j.maxRetries = f.retryBudget(&j.Spec)
		f.sched.jobs[j.ID] = j
		if j.State == Queued {
			f.sched.enqueue(j, false)
			f.emitSpan(j.ID, "adopted")
			f.cfg.Logf("adopted %s at step %d/%d", j.ID, j.StepsDone, j.Spec.Steps)
		}
		var n int
		if _, err := fmt.Sscanf(j.ID, "job-%d", &n); err == nil && n > maxSeq {
			maxSeq = n
		}
	}
	f.seq = maxSeq
	f.publishGaugesLocked()
}

// retryBudget resolves a spec's retry budget: 0 (omitted) inherits the
// farm default, -1 disables retries, positive values are taken as-is.
func (f *Farm) retryBudget(sp *Spec) int {
	switch {
	case sp.MaxRetries > 0:
		return sp.MaxRetries
	case sp.MaxRetries == -1:
		return 0
	default:
		return f.cfg.MaxRetries
	}
}

// Submit validates and admits a job, returning its ID. ErrDraining and
// ErrQueueFull are the explicit shed-load outcomes.
func (f *Farm) Submit(sp Spec) (string, error) {
	if err := sp.Validate(); err != nil {
		return "", err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.sched.Draining() || f.closed {
		f.mShed.Inc()
		return "", ErrDraining
	}
	f.seq++
	j := &Job{
		ID:         fmt.Sprintf("job-%04d", f.seq),
		Spec:       sp,
		Priority:   sp.Priority == PriorityHigh,
		maxRetries: f.retryBudget(&sp),
	}
	if !f.sched.Submit(j) {
		f.seq--
		f.mShed.Inc()
		return "", ErrQueueFull
	}
	f.mSubmitted.Inc()
	f.emitSpan(j.ID, string(Queued))
	if sp.DeadlineSeconds > 0 {
		j.deadlineAt = time.Now().Add(time.Duration(sp.DeadlineSeconds * float64(time.Second)))
		id := j.ID
		time.AfterFunc(time.Until(j.deadlineAt), func() { f.expire(id) })
	}
	if err := f.cfg.Journal.SaveMeta(j); err != nil {
		f.cfg.Logf("journal %s: %v", j.ID, err)
	}
	f.maybePreemptLocked()
	f.publishGaugesLocked()
	f.cond.Broadcast()
	f.cfg.Logf("accepted %s (%s, %s, %d steps)", j.ID, sp.Potential, sp.Priority, sp.Steps)
	return j.ID, nil
}

// maybePreemptLocked asks the scheduler for preemption victims until
// queued priority demand is satisfiable, signalling each victim's worker.
func (f *Farm) maybePreemptLocked() {
	for {
		victim := f.sched.Preemptible()
		if victim == nil {
			return
		}
		f.sched.Preempt(victim)
		f.emitSpan(victim.ID, string(Preempting))
		if rt := f.active[victim.ID]; rt != nil {
			rt.preemptOnce.Do(func() { close(rt.preempt) })
		}
		f.cfg.Logf("preempting %s for queued priority work", victim.ID)
	}
}

// Cancel cancels a job by ID. Queued-ish jobs cancel immediately; running
// ones stop at their next commit boundary.
func (f *Farm) Cancel(id string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	j := f.sched.Job(id)
	if j == nil {
		return fmt.Errorf("no such job %s", id)
	}
	if j.State.Terminal() {
		return nil
	}
	if f.sched.Cancel(j) {
		f.finishLocked(j)
		return nil
	}
	// Running or Preempting: stop via context; a Preempting job instead
	// completes its checkpoint and then cancels rather than requeueing.
	j.cancelRequested = true
	if j.State == Running {
		if rt := f.active[id]; rt != nil {
			rt.cancel(errCancelled)
		}
	}
	return nil
}

// expire fires a job's deadline timer.
func (f *Farm) expire(id string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	j := f.sched.Job(id)
	if j == nil || j.State.Terminal() {
		return
	}
	switch j.State {
	case Running, Preempting:
		if rt := f.active[id]; rt != nil {
			rt.cancel(errDeadline)
		}
	default:
		f.sched.OnDeadline(j)
		f.finishLocked(j)
	}
}

// Status returns one job's status view.
func (f *Farm) Status(id string) (JobStatus, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	j := f.sched.Job(id)
	if j == nil {
		return JobStatus{}, false
	}
	return j.status(), true
}

// FarmStatus is the farm-wide JSON status view.
type FarmStatus struct {
	Workers    int         `json:"workers"`
	QueueDepth int         `json:"queue_depth"`
	QueueCap   int         `json:"queue_cap"`
	Running    int         `json:"running"`
	Draining   bool        `json:"draining"`
	UptimeSec  float64     `json:"uptime_seconds"`
	Jobs       []JobStatus `json:"jobs"`
}

// Snapshot returns the farm-wide status with all jobs sorted by ID.
func (f *Farm) Snapshot() FarmStatus {
	f.mu.Lock()
	defer f.mu.Unlock()
	st := FarmStatus{
		Workers:    f.cfg.Workers,
		QueueDepth: f.sched.QueueDepth(),
		QueueCap:   f.cfg.QueueCap,
		Running:    f.sched.RunningCount(),
		Draining:   f.sched.Draining(),
		UptimeSec:  time.Since(f.start).Seconds(),
	}
	for _, j := range f.sched.Jobs() {
		st.Jobs = append(st.Jobs, j.status())
	}
	sortStatuses(st.Jobs)
	return st
}

func sortStatuses(js []JobStatus) {
	for i := 1; i < len(js); i++ {
		for k := i; k > 0 && js[k].ID < js[k-1].ID; k-- {
			js[k], js[k-1] = js[k-1], js[k]
		}
	}
}

// worker is one pool goroutine: claim the next queued job, run an
// attempt, dispatch its outcome, repeat. Runs until Shutdown.
func (f *Farm) worker() {
	defer f.wg.Done()
	for {
		j, rt, ctx, a := f.claimNext()
		if j == nil {
			return
		}
		out := f.runAttempt(ctx, a, rt.preempt)
		rt.cancel(nil)

		f.mu.Lock()
		delete(f.active, j.ID)
		f.dispatchLocked(j, out)
		f.publishGaugesLocked()
		f.cond.Broadcast()
		f.mu.Unlock()
	}
}

// claimNext blocks until a queued job can start or the farm closes. It
// marks the job Running and returns it with its attempt plumbing; a nil
// job means shutdown.
func (f *Farm) claimNext() (*Job, *attemptRT, context.Context, Attempt) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for {
		if f.closed {
			return nil, nil, nil, Attempt{}
		}
		if j := f.sched.StartNext(); j != nil {
			rt := &attemptRT{preempt: make(chan struct{})}
			ctx, cancel := context.WithCancelCause(context.Background())
			rt.cancel = cancel
			f.active[j.ID] = rt
			a := Attempt{
				JobID:        j.ID,
				Spec:         j.Spec,
				Resume:       j.Snapshot,
				StepsDone:    j.StepsDone,
				ElapsedPrior: j.ElapsedVirtual,
				Commit:       f.commitFunc(j.ID),
			}
			f.emitSpan(j.ID, string(Running))
			f.publishGaugesLocked()
			return j, rt, ctx, a
		}
		f.cond.Wait()
	}
}

// runAttempt isolates worker panics: a panicking job fails that job, it
// never takes down the server.
func (f *Farm) runAttempt(ctx context.Context, a Attempt, preempt <-chan struct{}) (out Outcome) {
	defer func() {
		if r := recover(); r != nil {
			f.mPanic.Inc()
			out = Outcome{Kind: OutcomeFailed, StepsDone: a.StepsDone, Snapshot: a.Resume, Err: fmt.Errorf("job panicked: %v", r)}
		}
	}()
	return f.cfg.Runner(ctx, a, preempt)
}

// commitFunc publishes checkpoint commits: live progress for status
// polls, plus journal persistence so a hard crash loses at most one
// commit interval.
func (f *Farm) commitFunc(id string) func(steps int, snap *restart.Snapshot) {
	return func(steps int, snap *restart.Snapshot) {
		f.mu.Lock()
		defer f.mu.Unlock()
		j := f.sched.Job(id)
		if j == nil || (j.State != Running && j.State != Preempting) {
			return
		}
		j.StepsDone = steps
		j.Snapshot = snap
		f.saveLocked(j)
	}
}

// dispatchLocked routes an attempt outcome through the scheduler.
func (f *Farm) dispatchLocked(j *Job, out Outcome) {
	j.ElapsedVirtual += out.Elapsed
	switch out.Kind {
	case OutcomeDone:
		j.StepsDone = out.StepsDone
		j.Snapshot = out.Snapshot
		j.Perf = out.Perf
		f.sched.OnDone(j)
		f.mDone.Inc()
		f.finishLocked(j)
		f.cfg.Logf("%s done (%d steps, %.1f ns/day)", j.ID, j.StepsDone, j.Perf)

	case OutcomePreempted:
		f.sched.OnCheckpointed(j, out.Snapshot, out.StepsDone)
		f.mPreempt.Inc()
		f.emitSpan(j.ID, string(Checkpointed))
		f.saveLocked(j)
		if j.cancelRequested {
			f.sched.Cancel(j)
			f.finishLocked(j)
			return
		}
		if f.sched.Requeue(j) {
			f.emitSpan(j.ID, string(Queued))
			f.cfg.Logf("%s checkpointed at step %d, requeued", j.ID, j.StepsDone)
		} else {
			f.cfg.Logf("%s checkpointed at step %d, parked for next boot (draining)", j.ID, j.StepsDone)
		}

	case OutcomeStopped:
		if out.Snapshot != nil {
			j.Snapshot = out.Snapshot
			j.StepsDone = out.StepsDone
		}
		if errors.Is(out.Err, errDeadline) {
			f.sched.OnDeadline(j)
		} else {
			f.sched.OnCancelled(j)
		}
		f.finishLocked(j)

	case OutcomeFailed:
		if out.Snapshot != nil {
			j.Snapshot = out.Snapshot
			j.StepsDone = out.StepsDone
		}
		var te *TransientError
		transient := errors.As(out.Err, &te)
		if f.sched.OnFailed(j, transient) {
			f.mRetry.Inc()
			f.emitSpan(j.ID, string(Retrying))
			f.saveLocked(j)
			backoff := f.backoffFor(j.Retries)
			id := j.ID
			f.cfg.Logf("%s failed transiently (%v), retry %d/%d in %s", j.ID, out.Err, j.Retries, j.maxRetries, backoff)
			time.AfterFunc(backoff, func() { f.retryReady(id) })
			return
		}
		if out.Err != nil {
			j.Err = out.Err.Error()
		}
		f.finishLocked(j)
		f.cfg.Logf("%s failed permanently: %v", j.ID, out.Err)
	}
}

// backoffFor computes the capped exponential backoff for the nth retry.
func (f *Farm) backoffFor(retry int) time.Duration {
	d := f.cfg.RetryBackoff
	for i := 1; i < retry; i++ {
		d *= 2
		if d >= f.cfg.RetryBackoffCap {
			return f.cfg.RetryBackoffCap
		}
	}
	if d > f.cfg.RetryBackoffCap {
		d = f.cfg.RetryBackoffCap
	}
	return d
}

// retryReady fires a retry backoff timer.
func (f *Farm) retryReady(id string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	j := f.sched.Job(id)
	if j == nil {
		return
	}
	if f.sched.RetryReady(j) {
		f.emitSpan(j.ID, string(Queued))
		f.saveLocked(j)
		f.cond.Broadcast()
	}
}

// finishLocked records a terminal transition: metrics, span, journal.
func (f *Farm) finishLocked(j *Job) {
	switch j.State {
	case Failed:
		f.mFailed.Inc()
	case Cancelled:
		f.mCancelled.Inc()
	}
	f.emitSpan(j.ID, string(j.State))
	f.saveLocked(j)
}

// saveLocked persists meta + checkpoint; journal errors are logged, not
// fatal (the farm keeps serving from memory).
func (f *Farm) saveLocked(j *Job) {
	if err := f.cfg.Journal.SaveMeta(j); err != nil {
		f.cfg.Logf("journal %s: %v", j.ID, err)
	}
	if err := f.cfg.Journal.SaveCheckpoint(j.ID, j.Snapshot); err != nil {
		f.cfg.Logf("journal %s checkpoint: %v", j.ID, err)
	}
}

func (f *Farm) publishGaugesLocked() {
	f.gQueue.Set(float64(f.sched.QueueDepth()))
	f.gRunning.Set(float64(f.sched.RunningCount()))
}

// emitSpan records one zero-width span marking a job-phase transition on
// the farm's wall clock.
func (f *Farm) emitSpan(id, phase string) {
	if !f.cfg.Rec.Enabled() {
		return
	}
	t := time.Since(f.start).Seconds()
	f.cfg.Rec.Span(trace.SpanEvent{Name: id, Stage: phase, Start: t, End: t})
}

// Shutdown drains gracefully: stop admission, signal preemption to every
// in-flight attempt, wait for workers to checkpoint and park their jobs,
// then stop the pool. Accepted jobs are never lost — queued and
// checkpointed jobs are journaled for the next boot. The context bounds
// the wait.
func (f *Farm) Shutdown(ctx context.Context) error {
	f.mu.Lock()
	f.sched.BeginDrain()
	for id, rt := range f.active {
		if j := f.sched.Job(id); j != nil && j.State == Running {
			f.sched.Preempt(j)
			f.emitSpan(id, string(Preempting))
		}
		rt.preemptOnce.Do(func() { close(rt.preempt) })
	}
	f.cond.Broadcast()
	for !f.sched.Quiescent() && ctx.Err() == nil {
		f.mu.Unlock()
		time.Sleep(5 * time.Millisecond)
		f.mu.Lock()
	}
	f.closed = true
	f.cond.Broadcast()
	// Final sweep: persist every job so the next boot adopts them.
	for _, j := range f.sched.Jobs() {
		f.saveLocked(j)
	}
	f.publishGaugesLocked()
	f.mu.Unlock()
	f.wg.Wait()
	return ctx.Err()
}
