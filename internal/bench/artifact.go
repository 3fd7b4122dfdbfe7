package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"tofumd/internal/trace"
)

// ArtifactSchemaVersion is the version stamp of the BENCH_*.json format.
// Readers reject files with a different version (shape mismatches must be
// loud, not silently tolerated).
const ArtifactSchemaVersion = 1

// Series directions tell a reader which way is better. Every directed series
// is held to equality by Compare; info-only series (direction "") are
// recorded but never gated.
const (
	// DirLower marks series where lower is better (times).
	DirLower = "lower"
	// DirHigher marks series where higher is better (rates, speedups).
	DirHigher = "higher"
	// DirEqual marks series with no better side (deterministic analyses,
	// accuracy checks, winner flags).
	DirEqual = "equal"
)

// Series is one scalar of an experiment's machine-readable output.
type Series struct {
	Key       string  `json:"key"`
	Unit      string  `json:"unit,omitempty"`
	Value     float64 `json:"value"`
	Direction string  `json:"direction,omitempty"`
}

// Artifact is the machine-readable result of one experiment, the unit
// benchcmp aligns and diffs.
type Artifact struct {
	SchemaVersion int            `json:"schema_version"`
	Experiment    string         `json:"experiment"`
	Params        map[string]any `json:"params,omitempty"`
	Series        []Series       `json:"series"`
}

// NewArtifact starts an artifact for an experiment with the options that
// shaped it recorded as parameters.
func NewArtifact(experiment string, opt Options) *Artifact {
	return &Artifact{
		SchemaVersion: ArtifactSchemaVersion,
		Experiment:    experiment,
		Params: map[string]any{
			"full":  opt.Full,
			"steps": opt.Steps,
		},
	}
}

// Add appends one series.
func (a *Artifact) Add(key, unit string, value float64, direction string) {
	a.Series = append(a.Series, Series{Key: key, Unit: unit, Value: value, Direction: direction})
}

// FileName returns the canonical artifact file name for an experiment.
func FileName(experiment string) string {
	return "BENCH_" + experiment + ".json"
}

// WriteFile writes the artifact into dir as BENCH_<experiment>.json,
// creating dir if needed.
func (a *Artifact) WriteFile(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(a, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, FileName(a.Experiment)), append(data, '\n'), 0o644)
}

// ReadArtifact loads and validates one artifact file.
func ReadArtifact(path string) (*Artifact, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return parseArtifact(data, path)
}

// parseArtifact decodes and validates artifact bytes; src labels errors.
// Malformed input of any shape must produce an error, never a panic or a
// half-valid artifact — the fuzz target FuzzLoadArtifact holds it to that.
func parseArtifact(data []byte, src string) (*Artifact, error) {
	var a Artifact
	if err := json.Unmarshal(data, &a); err != nil {
		return nil, fmt.Errorf("%s: %w", src, err)
	}
	if a.SchemaVersion != ArtifactSchemaVersion {
		return nil, fmt.Errorf("%s: schema_version %d, this tool reads %d",
			src, a.SchemaVersion, ArtifactSchemaVersion)
	}
	if a.Experiment == "" {
		return nil, fmt.Errorf("%s: missing experiment name", src)
	}
	seen := make(map[string]bool, len(a.Series))
	for i, s := range a.Series {
		if s.Key == "" {
			return nil, fmt.Errorf("%s: series %d: missing key", src, i)
		}
		if seen[s.Key] {
			return nil, fmt.Errorf("%s: duplicate series key %q", src, s.Key)
		}
		seen[s.Key] = true
		switch s.Direction {
		case "", DirLower, DirHigher, DirEqual:
		default:
			return nil, fmt.Errorf("%s: series %q: unknown direction %q", src, s.Key, s.Direction)
		}
	}
	return &a, nil
}

// LoadArtifacts loads a single BENCH_*.json file or every BENCH_*.json in a
// directory, keyed by experiment name.
func LoadArtifacts(path string) (map[string]*Artifact, error) {
	info, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	var files []string
	if info.IsDir() {
		matches, err := filepath.Glob(filepath.Join(path, "BENCH_*.json"))
		if err != nil {
			return nil, err
		}
		if len(matches) == 0 {
			return nil, fmt.Errorf("%s: no BENCH_*.json files", path)
		}
		sort.Strings(matches)
		files = matches
	} else {
		files = []string{path}
	}
	out := map[string]*Artifact{}
	for _, f := range files {
		a, err := ReadArtifact(f)
		if err != nil {
			return nil, err
		}
		if _, dup := out[a.Experiment]; dup {
			return nil, fmt.Errorf("%s: duplicate artifact for experiment %q", f, a.Experiment)
		}
		out[a.Experiment] = a
	}
	return out, nil
}

// key joins path segments into a series key.
func key(parts ...string) string { return strings.Join(parts, "/") }

// Artifact emits the Table 1 series. The analysis is closed-form, so every
// series must match exactly across runs.
func (t Table1Result) Artifact(opt Options) *Artifact {
	a := NewArtifact("table1", opt)
	a.Params["sub_box_side"] = t.SubBoxSide
	a.Params["cutoff"] = t.Cutoff
	a.Add("total_volume/3stage", "volume", t.TotalThreeStage, DirEqual)
	a.Add("total_volume/p2p", "volume", t.TotalP2P, DirEqual)
	a.Add("total_msgs/3stage", "msgs", float64(t.TotalMsgsThreeStage), DirEqual)
	a.Add("total_msgs/p2p", "msgs", float64(t.TotalMsgsP2P), DirEqual)
	// Rows can repeat a (pattern, hops) pair across message classes, so the
	// key carries the row's index within its pattern.
	idx := map[string]int{}
	for _, r := range t.Rows {
		i := idx[r.Pattern]
		idx[r.Pattern]++
		a.Add(key("volume", r.Pattern, fmt.Sprintf("row%d_hop%d", i, r.Hops)), "volume", r.Volume, DirEqual)
	}
	return a
}

// Artifact emits the Fig. 6 series: exchange times per variant (lower is
// better) and the headline reduction (higher is better).
func (f Fig6Result) Artifact(opt Options) *Artifact {
	a := NewArtifact("fig6", opt)
	for _, r := range f.Rows {
		a.Add(key(r.Variant, "small_time"), "s", r.SmallTime, DirLower)
		a.Add(key(r.Variant, "big_time"), "s", r.BigTime, DirLower)
	}
	a.Add("reduction_vs_mpi3stage", "frac", f.ReductionVsMPI3Stage, DirHigher)
	return a
}

// Artifact emits the Fig. 8 series: message rates and bandwidth per size
// (higher is better) and the boost threshold (must not move).
func (f Fig8Result) Artifact(opt Options) *Artifact {
	a := NewArtifact("fig8", opt)
	for _, r := range f.Rows {
		sz := byteLabel(r.Bytes)
		a.Add(key("rate_4tni", sz), "msg/s", r.Rate4TNI, DirHigher)
		a.Add(key("rate_6tni", sz), "msg/s", r.Rate6TNI, DirHigher)
		a.Add(key("rate_parallel", sz), "msg/s", r.RateParallel, DirHigher)
		a.Add(key("bandwidth", sz), "B/s", r.Bandwidth, DirHigher)
	}
	a.Add("boost_bytes", "B", float64(f.BoostBytes), DirEqual)
	return a
}

// Artifact emits the Fig. 11 series: the ref/opt deviations must stay zero
// (the optimizations do not touch force math).
func (f Fig11Result) Artifact(opt Options) *Artifact {
	a := NewArtifact("fig11", opt)
	a.Add("max_rel_diff/lj", "frac", f.MaxRelDiffLJ, DirLower)
	a.Add("max_rel_diff/eam", "frac", f.MaxRelDiffEAM, DirLower)
	if n := len(f.LJRef.Pressure); n > 0 {
		a.Add("final_pressure/lj_ref", "", f.LJRef.Pressure[n-1], DirEqual)
	}
	if n := len(f.EAMRef.Pressure); n > 0 {
		a.Add("final_pressure/eam_ref", "bar", f.EAMRef.Pressure[n-1], DirEqual)
	}
	return a
}

// Artifact emits the Fig. 12 series: per-system/variant comm and total
// times (lower is better) plus the headline speedups (higher is better).
func (f Fig12Result) Artifact(opt Options) *Artifact {
	a := NewArtifact("fig12", opt)
	for _, r := range f.Rows {
		a.Add(key(r.System, r.Variant, "comm"), "s", r.Comm, DirLower)
		a.Add(key(r.System, r.Variant, "total"), "s", r.Total, DirLower)
	}
	a.Add("speedup/small_lj", "x", f.SpeedupSmallLJ, DirHigher)
	a.Add("speedup/small_eam", "x", f.SpeedupSmallEAM, DirHigher)
	a.Add("speedup/big_lj", "x", f.SpeedupBigLJ, DirHigher)
	a.Add("speedup/big_eam", "x", f.SpeedupBigEAM, DirHigher)
	a.Add("comm_reduction/small_lj", "frac", f.CommReductionSmallLJ, DirHigher)
	return a
}

// Artifact emits the Fig. 13 series: per-point perf (higher is better) and
// the headline last-point speedups.
func (f Fig13Result) Artifact(opt Options) *Artifact {
	a := NewArtifact("fig13", opt)
	for _, r := range f.Rows {
		nodes := fmt.Sprintf("n%d", r.Nodes)
		a.Add(key(r.Kind, nodes, "ref_perf"), "perf/day", r.RefPerf, DirHigher)
		a.Add(key(r.Kind, nodes, "opt_perf"), "perf/day", r.OptPerf, DirHigher)
		a.Add(key(r.Kind, nodes, "speedup"), "x", r.Speedup, DirHigher)
	}
	a.Add("speedup/lj", "x", f.SpeedupLJ, DirHigher)
	a.Add("speedup/eam", "x", f.SpeedupEAM, DirHigher)
	a.Add("pair_drop/lj", "frac", f.PairDropLJ, DirHigher)
	a.Add("pair_drop/eam", "frac", f.PairDropEAM, DirHigher)
	return a
}

// Table3Artifact emits the Table 3 series (the stage breakdown at the last
// strong-scaling point) as its own experiment: each code's total, then each
// stage's share of it.
func (f Fig13Result) Table3Artifact(opt Options) *Artifact {
	a := NewArtifact("table3", opt)
	names := make([]string, 0, len(f.Table3))
	for name := range f.Table3 {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		bd := f.Table3[name]
		a.Add(key(name, "total"), "s", bd.Total(), DirLower)
	}
	for _, name := range names {
		bd := f.Table3[name]
		for _, st := range trace.Stages() {
			a.Add(key(name, "share", strings.ToLower(st.String())), "frac", bd.Get(st)/bd.Total(), DirEqual)
		}
	}
	return a
}

// Artifact emits the Fig. 14 series: aggregate throughput per point (higher
// is better), linearity vs the first point, and each kind's final atom count.
func (f Fig14Result) Artifact(opt Options) *Artifact {
	a := NewArtifact("fig14", opt)
	for _, r := range f.Rows {
		nodes := fmt.Sprintf("n%d", r.Nodes)
		a.Add(key(r.Kind, nodes, "atom_steps_per_sec"), "atom*step/s", r.AtomStepsPerSec, DirHigher)
		a.Add(key(r.Kind, nodes, "linearity"), "frac", r.LinearityVsFirst, DirHigher)
	}
	// Rows run kind by kind, so a kind's final atom count is at its last row.
	for i, r := range f.Rows {
		if i == len(f.Rows)-1 || f.Rows[i+1].Kind != r.Kind {
			a.Add(key("atoms", r.Kind), "atoms", float64(r.Atoms), DirEqual)
		}
	}
	return a
}

// Artifact emits the Fig. 15 series: comm times per regime (lower is
// better) and the winner flag, which must not flip.
func (f Fig15Result) Artifact(opt Options) *Artifact {
	a := NewArtifact("fig15", opt)
	for _, r := range f.Rows {
		nb := fmt.Sprintf("nb%d", r.Neighbors)
		a.Add(key(nb, "comm_3stage"), "s", r.CommThreeStage, DirLower)
		a.Add(key(nb, "comm_p2p"), "s", r.CommP2P, DirLower)
		wins := 0.0
		if r.P2PWins {
			wins = 1
		}
		a.Add(key(nb, "p2p_wins"), "bool", wins, DirEqual)
	}
	return a
}

// Artifact emits the ablation series: comm/total per configuration (lower
// is better); the penalty ratios are informational.
func (f AblationResult) Artifact(opt Options) *Artifact {
	a := NewArtifact("ablations", opt)
	for _, r := range f.Rows {
		a.Add(key(r.Name, "comm"), "s", r.Comm, DirLower)
		a.Add(key(r.Name, "total"), "s", r.Total, DirLower)
		a.Add(key(r.Name, "comm_penalty"), "x", r.CommPenalty, "")
	}
	return a
}
