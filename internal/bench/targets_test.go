package bench

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// baselineDir holds the checked-in artifacts EXPERIMENTS.md is rendered from.
var baselineDir = filepath.Join("..", "..", "results", "baseline")

func loadBaseline(t *testing.T, experiment string) *Artifact {
	t.Helper()
	a, err := ReadArtifact(filepath.Join(baselineDir, FileName(experiment)))
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// TestTargetsHoldOnBaseline holds the table's shape and checks every row
// against the checked-in baseline: no row repeats, every band is ordered, a
// band that excludes the paper value says why, and every row passes.
func TestTargetsHoldOnBaseline(t *testing.T) {
	arts, err := LoadArtifacts(baselineDir)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, tg := range Targets {
		id := tg.Experiment + " " + tg.name()
		if seen[id] {
			t.Errorf("%s: duplicate row", id)
		}
		seen[id] = true
		if !(tg.Lo <= tg.Hi) {
			t.Errorf("%s: band %s is empty", id, tg.band())
		}
		if !tg.holds(tg.Paper) && tg.Reason == "" {
			t.Errorf("%s: band %s excludes the paper value %s and gives no reason", id, tg.band(), num(tg.Paper))
		}
		if tg.isOrdering() && !strings.HasSuffix(tg.Reason, ordering) {
			t.Errorf("%s: an ordering row's reason must end %q", id, ordering)
		}
		if arts[tg.Experiment] == nil {
			t.Errorf("%s: no baseline artifact", id)
		}
	}
	for _, a := range arts {
		for _, err := range CheckTargets(a) {
			t.Error(err)
		}
	}
}

// TestCheckTargetsNamesRowOutOfBand seeds defects into the baseline Fig. 12
// and Fig. 6 artifacts: a reading pushed out of its band, or a series that
// breaks an ordering, must fail exactly that row and name its band, and a
// dropped series must fail, not panic or pass.
func TestCheckTargetsNamesRowOutOfBand(t *testing.T) {
	a := loadBaseline(t, "fig12")
	if errs := CheckTargets(a); len(errs) != 0 {
		t.Fatalf("baseline fails before the defect: %v", errs)
	}
	for i := range a.Series {
		if a.Series[i].Key == "speedup/small_lj" {
			a.Series[i].Value = 5.0
		}
	}
	errs := CheckTargets(a)
	if len(errs) != 1 {
		t.Fatalf("got %d errors, want 1: %v", len(errs), errs)
	}
	for _, want := range []string{"fig12 speedup/small_lj", "= 5 ", "[2, 4.5]"} {
		if !strings.Contains(errs[0].Error(), want) {
			t.Errorf("error %q does not name %q", errs[0], want)
		}
	}

	a = loadBaseline(t, "fig12")
	kept := a.Series[:0]
	for _, s := range a.Series {
		if s.Key != "speedup/small_lj" {
			kept = append(kept, s)
		}
	}
	a.Series = kept
	errs = CheckTargets(a)
	// Two rows read it: its own band and the big ÷ small ordering.
	if len(errs) != 2 {
		t.Fatalf("dropped series: got %v, want two errors naming speedup/small_lj", errs)
	}
	for _, err := range errs {
		if !strings.Contains(err.Error(), "speedup/small_lj") {
			t.Errorf("dropped series: error %q does not name speedup/small_lj", err)
		}
	}

	// MPI p2p made twice as fast as the MPI 3-stage baseline.
	a = loadBaseline(t, "fig6")
	ref, _ := a.series("ref/small_time")
	for i := range a.Series {
		if a.Series[i].Key == "mpi-p2p/small_time" {
			a.Series[i].Value = 0.5 * ref.Value
		}
	}
	errs = CheckTargets(a)
	if len(errs) != 1 {
		t.Fatalf("ordering defect: got %d errors, want 1: %v", len(errs), errs)
	}
	for _, want := range []string{"fig6 mpi-p2p/small_time ÷ ref/small_time", "= 0.5 ", "≥ 1"} {
		if !strings.Contains(errs[0].Error(), want) {
			t.Errorf("error %q does not name %q", errs[0], want)
		}
	}
}

// TestExperimentsMatchBaseline holds every generated block of EXPERIMENTS.md
// to the table rendered over results/baseline. A block that differs is
// printed whole, ready to paste.
func TestExperimentsMatchBaseline(t *testing.T) {
	arts, err := LoadArtifacts(baselineDir)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := os.ReadFile(filepath.Join("..", "..", "EXPERIMENTS.md"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := targetBlocks(string(doc))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	var order []string
	for _, tg := range Targets {
		if _, done := want[tg.Experiment]; !done {
			a := arts[tg.Experiment]
			if a == nil {
				t.Fatalf("no baseline artifact for %s", tg.Experiment)
			}
			want[tg.Experiment] = FormatTargets(a)
			order = append(order, tg.Experiment)
		}
	}
	mean, n := meanRelErr(arts)
	want["total"] = fmt.Sprintf("Mean relative error over the %d rows with a nonzero paper value: %.2f%%.\n", n, 100*mean)
	order = append(order, "total")
	for _, name := range order {
		if g, ok := got[name]; !ok || g != want[name] {
			t.Errorf("EXPERIMENTS.md block %q does not match results/baseline; paste:\n<!-- targets:%s -->\n%s<!-- /targets -->",
				name, name, want[name])
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("EXPERIMENTS.md has a block %q that no Targets row renders", name)
		}
	}
}

// targetBlocks returns the body of every <!-- targets:NAME --> block.
func targetBlocks(doc string) (map[string]string, error) {
	const opener, closer = "<!-- targets:", "<!-- /targets -->"
	out := map[string]string{}
	for {
		i := strings.Index(doc, opener)
		if i < 0 {
			return out, nil
		}
		name, body, ok := strings.Cut(doc[i+len(opener):], " -->\n")
		end := strings.Index(body, closer)
		if !ok || end < 0 {
			return nil, fmt.Errorf("block %q is not closed", name)
		}
		if _, dup := out[name]; dup {
			return nil, fmt.Errorf("block %q appears twice", name)
		}
		out[name] = body[:end]
		doc = body[end:]
	}
}

// meanRelErr is the mean absolute relative error over the rows with a
// nonzero paper value, and how many rows that is.
func meanRelErr(arts map[string]*Artifact) (float64, int) {
	var sum float64
	var n int
	for _, tg := range Targets {
		if a := arts[tg.Experiment]; a != nil && tg.Paper != 0 {
			if v, _, err := tg.read(a); err == nil {
				sum += math.Abs(tg.relErr(v))
				n++
			}
		}
	}
	return sum / float64(n), n
}
