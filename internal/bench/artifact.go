package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
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

// Format renders a as text: its experiment and parameters, then its series
// as tables. A key's last segment, with the series' unit, names a column and
// the rest of the key names a row; consecutive rows with the same columns
// share a table.
func Format(a *Artifact) string {
	type row struct {
		name        string
		cols, cells []string
	}
	var rows []*row
	byName := map[string]*row{}
	for _, s := range a.Series {
		name, col := "", s.Key
		if i := strings.LastIndex(s.Key, "/"); i >= 0 {
			name, col = s.Key[:i], s.Key[i+1:]
		}
		if s.Unit != "" {
			col += " (" + s.Unit + ")"
		}
		r := byName[name]
		if r == nil {
			r = &row{name: name}
			byName[name] = r
			rows = append(rows, r)
		}
		r.cols = append(r.cols, col)
		r.cells = append(r.cells, num(s.Value))
	}
	var sb strings.Builder
	sb.WriteString(a.Experiment)
	params := make([]string, 0, len(a.Params))
	for k := range a.Params {
		params = append(params, k)
	}
	sort.Strings(params)
	for _, k := range params {
		fmt.Fprintf(&sb, " %s=%v", k, a.Params[k])
	}
	sb.WriteString("\n")
	for i := 0; i < len(rows); {
		var body [][]string
		j := i
		for ; j < len(rows) && slices.Equal(rows[j].cols, rows[i].cols); j++ {
			body = append(body, append([]string{rows[j].name}, rows[j].cells...))
		}
		sb.WriteString(table(append([]string{""}, rows[i].cols...), body))
		i = j
	}
	return sb.String()
}

// table renders rows of columns with a header.
func table(header []string, rows [][]string) string {
	w := make([]int, len(header))
	for i, h := range header {
		w[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			w[i] = max(w[i], len(c))
		}
	}
	var sb strings.Builder
	line := func(cols []string) {
		for i, c := range cols {
			if i > 0 {
				sb.WriteString("  ")
			}
			if i == len(cols)-1 {
				sb.WriteString(c)
			} else {
				fmt.Fprintf(&sb, "%-*s", w[i], c)
			}
		}
		sb.WriteString("\n")
	}
	line(header)
	for i := range w {
		if i > 0 {
			sb.WriteString("  ")
		}
		sb.WriteString(strings.Repeat("-", w[i]))
	}
	sb.WriteString("\n")
	for _, r := range rows {
		line(r)
	}
	return sb.String()
}
