package bench

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func mkArtifact(exp string, series ...Series) *Artifact {
	return &Artifact{SchemaVersion: ArtifactSchemaVersion, Experiment: exp, Series: series}
}

func TestCompareCleanAndPerturbed(t *testing.T) {
	base := map[string]*Artifact{
		"fig6": mkArtifact("fig6",
			Series{Key: "opt/small_time", Value: 10e-6, Direction: DirLower},
			Series{Key: "reduction", Value: 0.79, Direction: DirHigher},
		),
		"fig8": mkArtifact("fig8", Series{Key: "rate", Value: 3, Direction: DirHigher}),
	}
	cand := map[string]*Artifact{
		"fig6": mkArtifact("fig6",
			Series{Key: "opt/small_time", Value: 10e-6, Direction: DirLower},
			Series{Key: "reduction", Value: 0.79, Direction: DirHigher},
		),
		"fig8": mkArtifact("fig8", Series{Key: "rate", Value: 3, Direction: DirHigher}),
	}
	// Identical candidate: clean.
	res := Compare(base, cand)
	if len(res.Errors) != 0 || len(res.Moved) != 0 || len(res.Deltas) != 3 {
		t.Fatalf("identical sets: errors=%v moved=%v deltas=%d", res.Errors, res.Moved, len(res.Deltas))
	}
	if strings.Contains(res.FormatTable(), "first moved") {
		t.Errorf("clean report names a moved series:\n%s", res.FormatTable())
	}

	// Any change moves a directed series, whichever way it goes: a 1e-9
	// relative drift, an improvement and a regression alike.
	for _, v := range []float64{10e-6 * (1 + 1e-9), 5e-6, 15e-6} {
		cand["fig6"].Series[0].Value = v
		res = Compare(base, cand)
		if len(res.Moved) != 1 || res.Moved[0].Key != "opt/small_time" {
			t.Fatalf("value %v: moved = %+v, want opt/small_time", v, res.Moved)
		}
	}

	// The report ends with the first move in experiment order.
	cand["fig8"].Series[0].Value = 2
	res = Compare(base, cand)
	if len(res.Moved) != 2 {
		t.Fatalf("moved = %+v, want two series", res.Moved)
	}
	if out := res.FormatTable(); !strings.HasSuffix(out, "first moved: fig6/opt/small_time\n") {
		t.Errorf("report does not end with the first move:\n%s", out)
	}
}

func TestCompareEqualDirectionAndZeroTolerance(t *testing.T) {
	base := map[string]*Artifact{
		"table1": mkArtifact("table1",
			Series{Key: "total_msgs/p2p", Value: 13, Direction: DirEqual},
		),
	}
	cand := map[string]*Artifact{
		"table1": mkArtifact("table1",
			Series{Key: "total_msgs/p2p", Value: 14, Direction: DirEqual},
		),
	}
	// Every directed series is held to equality: any move, either direction.
	for _, v := range []float64{14, 12} {
		cand["table1"].Series[0].Value = v
		if res := Compare(base, cand); len(res.Moved) != 1 {
			t.Fatalf("equal-direction move to %v not flagged: %+v", v, res.Deltas)
		}
	}
	cand["table1"].Series[0].Value = 13
	if res := Compare(base, cand); len(res.Moved) != 0 {
		t.Fatalf("exact match flagged: %+v", res.Moved)
	}
}

func TestCompareShapeMismatchesAreErrors(t *testing.T) {
	base := map[string]*Artifact{
		"fig6": mkArtifact("fig6", Series{Key: "a", Value: 1, Direction: DirLower}),
		"fig8": mkArtifact("fig8", Series{Key: "b", Value: 1, Direction: DirHigher}),
	}
	cand := map[string]*Artifact{
		"fig6": mkArtifact("fig6",
			Series{Key: "a", Value: 1, Direction: DirHigher}, // direction flip
			Series{Key: "extra", Value: 2, Direction: DirLower},
		),
		"fig15": mkArtifact("fig15", Series{Key: "c", Value: 1, Direction: DirLower}),
	}
	res := Compare(base, cand)
	// Expect: fig8 missing from candidate, direction flip on fig6/a, extra
	// series fig6/extra, fig15 not in baseline.
	if len(res.Errors) != 4 {
		t.Fatalf("want 4 shape errors, got %d: %v", len(res.Errors), res.Errors)
	}
	if len(res.Moved) != 0 {
		t.Fatalf("shape mismatches must be errors, not moves: %+v", res.Moved)
	}
}

func TestCompareInfoSeriesNeverGate(t *testing.T) {
	base := map[string]*Artifact{
		"ablations": mkArtifact("ablations", Series{Key: "x/comm_penalty", Value: 1.0}),
	}
	cand := map[string]*Artifact{
		"ablations": mkArtifact("ablations", Series{Key: "x/comm_penalty", Value: 100.0}),
	}
	res := Compare(base, cand)
	if len(res.Moved) != 0 || len(res.Errors) != 0 {
		t.Fatalf("info-only series gated: %+v %v", res.Moved, res.Errors)
	}
	// Listed with its change all the same.
	if len(res.Deltas) != 1 || res.Deltas[0].Rel != 99 {
		t.Fatalf("info series not listed with its change: %+v", res.Deltas)
	}
}

func TestCompareZeroBaseline(t *testing.T) {
	base := map[string]*Artifact{
		"fig11": mkArtifact("fig11", Series{Key: "diff", Value: 0, Direction: DirLower}),
	}
	// Zero vs zero: equal.
	cand := map[string]*Artifact{
		"fig11": mkArtifact("fig11", Series{Key: "diff", Value: 0, Direction: DirLower}),
	}
	if res := Compare(base, cand); len(res.Moved) != 0 {
		t.Fatalf("0 vs 0 flagged: %+v", res.Moved)
	}
	// Zero baseline, real candidate: an infinite relative move.
	cand["fig11"].Series[0].Value = 0.5
	res := Compare(base, cand)
	if len(res.Moved) != 1 || !math.IsInf(res.Moved[0].Rel, 1) {
		t.Fatalf("growth from zero not flagged as an infinite move: %+v", res.Moved)
	}
}

func TestArtifactRoundTripThroughFiles(t *testing.T) {
	dir := t.TempDir()
	a := mkArtifact("fig6",
		Series{Key: "opt/small_time", Unit: "s", Value: 10e-6, Direction: DirLower})
	if err := a.WriteFile(dir); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, FileName("fig6"))
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("artifact file not at canonical name: %v", err)
	}
	// Load as dir and as single file.
	for _, p := range []string{dir, path} {
		got, err := LoadArtifacts(p)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 1 || got["fig6"] == nil || got["fig6"].Series[0] != a.Series[0] {
			t.Fatalf("round trip via %s lost data: %+v", p, got)
		}
	}
	// A schema_version bump must be rejected.
	data, _ := os.ReadFile(path)
	bad := strings.Replace(string(data), `"schema_version": 1`, `"schema_version": 99`, 1)
	if err := os.WriteFile(path, []byte(bad), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadArtifacts(path); err == nil || !strings.Contains(err.Error(), "schema_version") {
		t.Fatalf("wrong schema_version accepted: %v", err)
	}
}
