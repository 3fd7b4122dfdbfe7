package jobfarm

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"tofumd/internal/md/restart"
)

// Journal persists job metadata and checkpoints so a restarted tofud
// process adopts and resumes every non-terminal job. A nil *Journal is a
// valid disabled journal (in-memory farms, tests): every method is
// nil-safe, mirroring the metrics/trace contract.
type Journal struct {
	dir string
}

// OpenJournal creates/opens a journal rooted at dir.
func OpenJournal(dir string) (*Journal, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &Journal{dir: dir}, nil
}

// jobMeta is the on-disk job record (<id>.json next to <id>.ckpt).
type jobMeta struct {
	ID            string `json:"id"`
	Spec          Spec   `json:"spec"`
	State         State  `json:"state"`
	Retries       int    `json:"retries"`
	StepsDone     int    `json:"steps_done"`
	Preemptions   int    `json:"preemptions"`
	Err           string `json:"error,omitempty"`
	HasCheckpoint bool   `json:"has_checkpoint"`
}

// SaveMeta atomically writes the job's metadata record.
func (jn *Journal) SaveMeta(j *Job) error {
	if jn == nil {
		return nil
	}
	m := jobMeta{
		ID:            j.ID,
		Spec:          j.Spec,
		State:         j.State,
		Retries:       j.Retries,
		StepsDone:     j.StepsDone,
		Preemptions:   j.Preemptions,
		Err:           j.Err,
		HasCheckpoint: j.Snapshot != nil,
	}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return atomicWrite(filepath.Join(jn.dir, j.ID+".json"), data)
}

// SaveCheckpoint atomically writes the job's TOFUMD02 checkpoint.
func (jn *Journal) SaveCheckpoint(id string, snap *restart.Snapshot) error {
	if jn == nil || snap == nil {
		return nil
	}
	return restart.WriteFile(filepath.Join(jn.dir, id+".ckpt"), snap)
}

// LoadCheckpoint reads a job's checkpoint, nil when absent.
func (jn *Journal) LoadCheckpoint(id string) (*restart.Snapshot, error) {
	if jn == nil {
		return nil, nil
	}
	snap, err := restart.ReadFile(filepath.Join(jn.dir, id+".ckpt"))
	if os.IsNotExist(err) {
		return nil, nil
	}
	return snap, err
}

// LoadAll reads every journaled job, sorted by ID. Non-terminal jobs come
// back Queued with their checkpoint attached, ready to resume; terminal
// jobs come back as-is so clients can still query their status.
func (jn *Journal) LoadAll() ([]*Job, error) {
	if jn == nil {
		return nil, nil
	}
	entries, err := os.ReadDir(jn.dir)
	if err != nil {
		return nil, err
	}
	var jobs []*Job
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".json") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(jn.dir, e.Name()))
		if err != nil {
			return nil, err
		}
		var m jobMeta
		if err := json.Unmarshal(data, &m); err != nil {
			return nil, fmt.Errorf("%s: %w", e.Name(), err)
		}
		j := &Job{
			ID:          m.ID,
			Spec:        m.Spec,
			Priority:    m.Spec.Priority == PriorityHigh,
			State:       m.State,
			Retries:     m.Retries,
			StepsDone:   m.StepsDone,
			Preemptions: m.Preemptions,
			Err:         m.Err,
		}
		if !m.State.Terminal() {
			j.State = Queued
			if m.HasCheckpoint {
				snap, err := jn.LoadCheckpoint(m.ID)
				if err != nil {
					return nil, fmt.Errorf("%s: checkpoint: %w", m.ID, err)
				}
				j.Snapshot = snap
			}
		}
		jobs = append(jobs, j)
	}
	sort.Slice(jobs, func(a, b int) bool { return jobs[a].ID < jobs[b].ID })
	return jobs, nil
}

func atomicWrite(path string, data []byte) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}
