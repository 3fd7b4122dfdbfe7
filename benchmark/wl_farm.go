package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"tofumd/internal/core"
	"tofumd/internal/jobfarm"
	"tofumd/internal/md/restart"
	"tofumd/internal/md/sim"
	"tofumd/internal/obs"
)

// farmShape sizes the service workload.
type farmShape struct {
	atoms []int // job sizes the seed draws from
	steps int
	nodes string
}

const (
	farmClients = 2
	farmPoll    = 2 * time.Millisecond
)

// farmInst is an in-process job farm behind its real HTTP API on loopback,
// driven by closed-loop clients: submit, poll until terminal, next.
type farmInst struct {
	shape farmShape
	seed  int
	dir   string
	farm  *jobfarm.Farm
	ln    net.Listener
	srv   chan error
	base  string
	http  *http.Client

	// last is each client's latest outcome; only that client touches it.
	last [farmClients]farmOutcome
}

type farmOutcome struct {
	atoms  int
	status jobfarm.JobStatus
	err    error
}

func buildFarm(shape farmShape) func(e *env, w *workload) (instance, error) {
	return func(e *env, _ *workload) (instance, error) {
		dir, err := os.MkdirTemp(e.tmp, "farm-")
		if err != nil {
			return nil, err
		}
		f := &farmInst{shape: shape, seed: e.seed, dir: dir}
		journal, err := jobfarm.OpenJournal(filepath.Join(dir, "journal"))
		if err != nil {
			f.close()
			return nil, err
		}
		sp := e.root.child("jobfarm.New")
		f.farm, err = jobfarm.New(jobfarm.Config{Workers: 2, QueueCap: 16, Journal: journal, Metrics: e.reg})
		sp.finish()
		if err != nil {
			f.close()
			return nil, err
		}
		var addr string
		f.ln, addr, err = obs.Listen("127.0.0.1:0")
		if err != nil {
			f.close()
			return nil, err
		}
		f.srv = make(chan error, 1)
		go func() { f.srv <- obs.Serve(f.ln, f.farm.Handler()) }()
		f.base = "http://" + addr
		f.http = &http.Client{
			Transport: &http.Transport{MaxConnsPerHost: farmClients, MaxIdleConnsPerHost: farmClients},
			Timeout:   30 * time.Second,
		}
		// The first op can start once the server answers.
		resp, err := f.http.Get(f.base + "/healthz")
		if err != nil {
			f.close()
			return nil, err
		}
		drain(resp)
		if resp.StatusCode != http.StatusOK {
			f.close()
			return nil, fmt.Errorf("healthz: %s", resp.Status)
		}
		return f, nil
	}
}

func drain(resp *http.Response) {
	io.Copy(io.Discard, resp.Body) // best effort: only frees the connection for reuse
	resp.Body.Close()
}

// jobAtoms draws the size of client c's i-th job from the seed alone. Each
// run of len(atoms) consecutive jobs holds every size once, in an order the
// seed picks: seeds differ in sequence, never in mix, so they measure the
// same load.
func (f *farmInst) jobAtoms(c, i int) int {
	n := len(f.shape.atoms)
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%d/%d", f.seed, c, i/n)
	order := rand.New(rand.NewSource(int64(h.Sum64()))).Perm(n)
	return f.shape.atoms[order[i%n]]
}

func (f *farmInst) spec(atoms int) jobfarm.Spec {
	return jobfarm.Spec{Potential: "lj", Atoms: atoms, Nodes: f.shape.nodes, Steps: f.shape.steps, CheckpointEvery: 20}
}

func (f *farmInst) run(c, i int, op *span) {
	out := &f.last[c]
	*out = farmOutcome{atoms: f.jobAtoms(c, i)}
	sp := op.child("http.submit")
	var accepted struct {
		ID string `json:"id"`
	}
	body, err := json.Marshal(f.spec(out.atoms))
	var resp *http.Response
	if err == nil {
		resp, err = f.http.Post(f.base+"/jobs", "application/json", bytes.NewReader(body))
	}
	if err == nil {
		if resp.StatusCode != http.StatusAccepted {
			err = fmt.Errorf("submit: %s", resp.Status)
		} else {
			err = json.NewDecoder(resp.Body).Decode(&accepted)
		}
		drain(resp)
	}
	sp.finish()
	if err != nil {
		out.err = err
		return
	}
	queued := op.child("jobfarm.queued")
	for {
		sp = op.child("http.poll")
		resp, err := f.http.Get(f.base + "/jobs/" + accepted.ID)
		if err == nil {
			if resp.StatusCode != http.StatusOK {
				err = fmt.Errorf("status: %s", resp.Status)
			} else {
				err = json.NewDecoder(resp.Body).Decode(&out.status)
			}
			drain(resp)
		}
		sp.finish()
		if err != nil {
			out.err = err
			return
		}
		if queued != nil && out.status.State != jobfarm.Queued {
			queued.finish()
			queued = nil
		}
		if out.status.State.Terminal() {
			return
		}
		sp = op.child("wait")
		time.Sleep(farmPoll)
		sp.finish()
	}
}

func (f *farmInst) check(c, _ int) (opVirt, error) {
	out := f.last[c]
	if out.err != nil {
		return opVirt{}, out.err
	}
	st := out.status
	v := opVirt{sec: st.ElapsedVirtual, hash: uint64(out.atoms)<<32 ^ math.Float64bits(st.PerfNsPerDay)}
	switch {
	case st.State != jobfarm.Done:
		return v, fmt.Errorf("%s ended %s: %s", st.ID, st.State, st.Error)
	case st.StepsDone != st.Steps:
		return v, fmt.Errorf("%s did %d of %d steps", st.ID, st.StepsDone, st.Steps)
	case !(st.PerfNsPerDay > 0):
		return v, fmt.Errorf("%s reports perf %v", st.ID, st.PerfNsPerDay)
	}
	return v, nil
}

func (f *farmInst) close() {
	if f.farm != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		f.farm.Shutdown(ctx) // best effort: every job has ended, nothing is left to drain
		cancel()
	}
	if f.ln != nil {
		f.ln.Close()
		f.http.CloseIdleConnections()
		<-f.srv
	}
	os.RemoveAll(f.dir)
}

// probe reads the client-side HTTP times off the traced spans and times
// the pieces of the service path alone, on the median job.
func (f *farmInst) probe(p *probeCtx) {
	p.set("jobfarm.submit_ms_p50", median(p.spanMS("http.submit")))
	p.set("jobfarm.status_ms_p50", median(p.spanMS("http.poll")))
	p.set("jobfarm.queue_wait_ms_p50", median(p.spanMS("jobfarm.queued")))

	atoms := f.shape.atoms[len(f.shape.atoms)/2]
	sp := f.spec(atoms)
	if err := sp.Validate(); err != nil {
		p.fail(err)
		return
	}
	run := core.RunSpec{
		Workload:  core.Workload{Name: "job", Kind: core.LJ, Atoms: atoms, FullShape: sp.Shape(), Steps: sp.Steps},
		TileShape: sp.Shape(),
		Variant:   sim.Opt(),
	}

	// A job as the runner executes it, minus the farm: start, step, done.
	var r *core.Running
	bare := p.timeIt("core.Start+steps", func() {
		if r != nil {
			r.Close()
		}
		var err error
		if r, err = core.Start(run); err != nil {
			p.fail(err)
			return
		}
		for r.StepsDone() < sp.Steps {
			r.Step()
		}
	})
	if r == nil {
		return
	}
	defer r.Close()
	p.set("jobfarm.overhead_frac", 1-bare*1e3/p.opP50ms)

	var snap *restart.Snapshot
	p.set("restart.capture_ms", 1e3*p.timeIt("restart.Capture", func() { snap = r.Capture(sp.Steps) }))
	var buf bytes.Buffer
	tw := p.timeIt("restart.Write", func() {
		buf.Reset()
		if err := restart.Write(&buf, snap); err != nil {
			p.fail(err)
		}
	})
	mb := float64(buf.Len()) / 1e6
	tr := p.timeIt("restart.Read", func() {
		if _, err := restart.Read(bytes.NewReader(buf.Bytes())); err != nil {
			p.fail(err)
		}
	})
	p.set("restart.write_mb_per_s", mb/tw)
	p.set("restart.read_mb_per_s", mb/tr)

	start := func(spec core.RunSpec) func() {
		return func() {
			rr, err := core.Start(spec)
			if err != nil {
				p.fail(err)
				return
			}
			rr.Close()
		}
	}
	p.set("core.start_ms", 1e3*p.timeIt("core.Start", start(run)))
	resumed := run
	resumed.Restart = snap
	p.set("core.start_restart_ms", 1e3*p.timeIt("core.Start/restart", start(resumed)))

	// The pure scheduler: admit, dispatch, complete.
	const batch = 1000
	ts := p.timeIt("jobfarm.Scheduler", func() {
		sc := jobfarm.NewScheduler(2, 16)
		for i := 0; i < batch; i++ {
			j := jobfarm.NewJob(fmt.Sprintf("job-%04d", i), sp, 2)
			sc.Submit(j)
			sc.StartNext()
			sc.OnDone(j)
		}
	})
	p.set("jobfarm.sched_ns_per_job", ts*1e9/batch)

	// One commit as the farm journals it: checkpoint, then metadata.
	jn, err := jobfarm.OpenJournal(filepath.Join(f.dir, "probe-journal"))
	if err != nil {
		p.fail(err)
		return
	}
	job := jobfarm.NewJob("job-0001", sp, 2)
	job.Snapshot = snap
	p.set("jobfarm.journal_ms_per_commit", 1e3*p.timeIt("jobfarm.Journal", func() {
		if err := jn.SaveCheckpoint(job.ID, snap); err != nil {
			p.fail(err)
		}
		if err := jn.SaveMeta(job); err != nil {
			p.fail(err)
		}
	}))
}
