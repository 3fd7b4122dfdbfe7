package dump

import (
	"bufio"
	"strconv"
	"strings"
	"testing"

	"tofumd/internal/md/lattice"
	"tofumd/internal/md/potential"
	"tofumd/internal/md/sim"
	"tofumd/internal/oracle"
	"tofumd/internal/units"
	"tofumd/internal/vec"
)

// testSim builds an LJ melt on a machine of the given node shape.
func testSim(t *testing.T, shape vec.I3, v sim.Variant) *sim.Simulation {
	t.Helper()
	m, err := sim.NewMachine(shape)
	if err != nil {
		t.Fatal(err)
	}
	s, err := sim.New(m, v, sim.Config{
		UnitsStyle:  units.LJ,
		Potential:   potential.NewLJ(1, 1, 2.5),
		Cells:       vec.I3{X: 8, Y: 8, Z: 8},
		Lat:         lattice.FCCFromDensity(0.8442),
		Skin:        0.3,
		NeighEvery:  20,
		Temperature: 1.44,
		Seed:        3,
		NewtonOn:    true,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

func TestWriteFrameFormat(t *testing.T) {
	s := testSim(t, vec.I3{X: 2, Y: 2, Z: 2}, sim.Opt())
	var sb strings.Builder
	w := NewWriter(&sb)
	if err := w.WriteFrame(s, 7); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(strings.NewReader(sb.String()))
	if !sc.Scan() {
		t.Fatal("empty output")
	}
	n, err := strconv.Atoi(sc.Text())
	if err != nil || n != s.TotalAtoms() {
		t.Fatalf("atom-count line %q, want %d", sc.Text(), s.TotalAtoms())
	}
	if !sc.Scan() || !strings.Contains(sc.Text(), "Timestep=7") {
		t.Fatalf("comment line %q", sc.Text())
	}
	rows := 0
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) != 7 {
			t.Fatalf("row %d has %d fields", rows, len(f))
		}
		rows++
	}
	if rows != n {
		t.Errorf("%d rows, want %d", rows, n)
	}
}

func TestFramesDecompositionIndependent(t *testing.T) {
	// The same physical system dumped from two decompositions must give
	// identical frames (atoms are sorted by id).
	frameOf := func(shape vec.I3) string {
		var sb strings.Builder
		w := NewWriter(&sb)
		if err := w.WriteFrame(testSim(t, shape, sim.Ref()), 0); err != nil {
			t.Fatal(err)
		}
		w.Flush()
		return sb.String()
	}
	differing := 0.0
	if frameOf(vec.I3{X: 2, Y: 2, Z: 2}) != frameOf(vec.I3{X: 2, Y: 3, Z: 2}) {
		differing = 1
	}
	if err := oracle.Check("dump-frames", differing); err != nil {
		t.Error(err)
	}
}

func TestMultipleFramesAppend(t *testing.T) {
	s := testSim(t, vec.I3{X: 2, Y: 2, Z: 2}, sim.Opt())
	var sb strings.Builder
	w := NewWriter(&sb)
	if err := w.WriteFrame(s, 0); err != nil {
		t.Fatal(err)
	}
	s.Run(5)
	if err := w.WriteFrame(s, 5); err != nil {
		t.Fatal(err)
	}
	w.Flush()
	if got := strings.Count(sb.String(), "Timestep="); got != 2 {
		t.Errorf("%d frames, want 2", got)
	}
}
