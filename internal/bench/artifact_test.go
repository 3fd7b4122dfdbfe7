package bench

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestWriteFileCreatesMissingDir pins the `benchsuite -json <dir>` contract:
// pointing the artifact writer at a directory that does not exist yet (a
// fresh CI workspace, a nested artifacts/ path) must create it rather than
// fail at write time.
func TestWriteFileCreatesMissingDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "artifacts", "run-1")
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Fatalf("precondition: %s should not exist yet (stat err %v)", dir, err)
	}
	a := mkArtifact("fig6", Series{Key: "opt/small_time", Unit: "s", Value: 10e-6, Direction: DirLower})
	if err := a.WriteFile(dir); err != nil {
		t.Fatalf("WriteFile into missing dir: %v", err)
	}
	got, err := ReadArtifact(filepath.Join(dir, FileName("fig6")))
	if err != nil {
		t.Fatalf("read back: %v", err)
	}
	if got.Experiment != "fig6" || len(got.Series) != 1 || got.Series[0] != a.Series[0] {
		t.Fatalf("round trip lost data: %+v", got)
	}
}

// TestWriteFileReportsUncreatableDir checks the error path: a dir path that
// collides with an existing regular file must surface the MkdirAll error.
func TestWriteFileReportsUncreatableDir(t *testing.T) {
	blocker := filepath.Join(t.TempDir(), "not-a-dir")
	if err := os.WriteFile(blocker, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	a := mkArtifact("fig6", Series{Key: "k", Value: 1, Direction: DirEqual})
	if err := a.WriteFile(filepath.Join(blocker, "sub")); err == nil {
		t.Fatal("WriteFile through a regular file succeeded, want error")
	}
}

// TestFormatPrintsEverySeries holds the renderer to printing each series of
// an artifact once, with its unit in its column's header, whether it is
// directed or information only, and an artifact with no series to its
// header line.
func TestFormatPrintsEverySeries(t *testing.T) {
	a := mkArtifact("demo",
		Series{Key: "ref/small", Unit: "s", Value: 1.25, Direction: DirLower},
		Series{Key: "ref/big", Unit: "s", Value: 2.5, Direction: DirLower},
		Series{Key: "opt/small", Unit: "s", Value: 3.75, Direction: DirLower},
		Series{Key: "opt/big", Unit: "s", Value: 4.125, Direction: DirLower},
		Series{Key: "penalty/opt", Unit: "x", Value: 5.5},
		Series{Key: "boost", Unit: "B", Value: 6.875, Direction: DirEqual},
		Series{Key: "pressure", Value: 7.0625, Direction: DirEqual},
	)
	a.Params = map[string]any{"steps": 30}
	out := Format(a)
	t.Log("\n" + out)
	if !strings.HasPrefix(out, "demo steps=30\n") {
		t.Errorf("header missing experiment and params:\n%s", out)
	}
	for _, s := range a.Series {
		if n := strings.Count(out, num(s.Value)); n != 1 {
			t.Errorf("%s: value %s printed %d times", s.Key, num(s.Value), n)
		}
		col := s.Key[strings.LastIndex(s.Key, "/")+1:]
		if s.Unit != "" {
			col += " (" + s.Unit + ")"
		}
		if !strings.Contains(out, col) {
			t.Errorf("%s: no column %q", s.Key, col)
		}
	}
	for _, row := range []string{"\nref ", "\nopt ", "\npenalty "} {
		if strings.Count(out, row) != 1 {
			t.Errorf("row %q not printed once:\n%s", row, out)
		}
	}
	if out := Format(mkArtifact("empty")); out != "empty\n" {
		t.Errorf("empty artifact renders %q, want its header", out)
	}
}
