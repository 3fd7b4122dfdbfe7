package restart

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tofumd/internal/md/lattice"
	"tofumd/internal/md/potential"
	"tofumd/internal/md/sim"
	"tofumd/internal/oracle"
	"tofumd/internal/units"
	"tofumd/internal/vec"
)

func testConfig() sim.Config {
	return sim.Config{
		UnitsStyle:  units.LJ,
		Potential:   potential.NewLJ(1, 1, 2.5),
		Cells:       vec.I3{X: 8, Y: 8, Z: 8},
		Lat:         lattice.FCCFromDensity(0.8442),
		Skin:        0.3,
		NeighEvery:  20,
		Temperature: 1.44,
		Seed:        99,
		NewtonOn:    true,
	}
}

func newSim(t *testing.T, cfg sim.Config) *sim.Simulation {
	t.Helper()
	m, err := sim.NewMachine(vec.I3{X: 2, Y: 2, Z: 2})
	if err != nil {
		t.Fatal(err)
	}
	s, err := sim.New(m, sim.Opt(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

func TestRoundTrip(t *testing.T) {
	s := newSim(t, testConfig())
	s.Run(10)
	snap := Capture(s, 10)
	var buf bytes.Buffer
	if err := Write(&buf, snap); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Step != 10 || got.Box != snap.Box || len(got.Atoms) != len(snap.Atoms) {
		t.Fatalf("header mismatch: %+v vs %+v", got, snap)
	}
	for i := range snap.Atoms {
		if got.Atoms[i] != snap.Atoms[i] {
			t.Fatalf("atom %d differs after round trip", i)
		}
	}
}

// TestWriteFileAtomic round-trips a checkpoint file and requires a failed
// write to leave neither a temporary file nor a changed target behind.
func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	snap := &Snapshot{Step: 7, Box: vec.V3{X: 1, Y: 2, Z: 3}, Atoms: make([]sim.InitAtom, 3)}
	path := filepath.Join(dir, "ckpt")
	if err := WriteFile(path, snap); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Step != snap.Step || got.Box != snap.Box || len(got.Atoms) != len(snap.Atoms) {
		t.Errorf("read back %+v, want %+v", got, snap)
	}
	// A directory in the way makes the final rename fail.
	blocked := filepath.Join(dir, "blocked")
	if err := os.Mkdir(blocked, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := WriteFile(blocked, snap); err == nil {
		t.Error("write over a directory succeeded")
	}
	if _, err := os.Stat(blocked + ".tmp"); !os.IsNotExist(err) {
		t.Errorf("temporary file left behind after a failed write: %v", err)
	}
	if _, err := ReadFile(filepath.Join(dir, "absent")); !os.IsNotExist(err) {
		t.Errorf("reading a missing file: %v, want not-exist", err)
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := Read(bytes.NewReader([]byte("NOTAMAGIC-and-more"))); err == nil {
		t.Error("bad magic accepted")
	}
	if _, err := Read(bytes.NewReader(nil)); err == nil {
		t.Error("empty stream accepted")
	}
	// Truncated after the header.
	snap := &Snapshot{Box: vec.V3{X: 1, Y: 1, Z: 1}, Atoms: make([]sim.InitAtom, 3)}
	var buf bytes.Buffer
	if err := Write(&buf, snap); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-10]
	if _, err := Read(bytes.NewReader(trunc)); err == nil {
		t.Error("truncated stream accepted")
	}
}

func TestReadV1Compat(t *testing.T) {
	snap := &Snapshot{
		Step: 3,
		Box:  vec.V3{X: 2, Y: 2, Z: 2},
		Atoms: []sim.InitAtom{
			{ID: 1, Type: 1, Pos: vec.V3{X: 0.25, Y: 0.5, Z: 0.75}, Vel: vec.V3{X: 1, Y: -1, Z: 0}},
		},
	}
	var buf bytes.Buffer
	if err := Write(&buf, snap); err != nil {
		t.Fatal(err)
	}
	// A version-1 file is the same body under the old magic, without the
	// checksum trailer. It cannot be verified, so it is refused by name
	// rather than read (or misreported as a bad magic).
	v2 := buf.Bytes()
	v1 := append([]byte(magicV1), v2[len(magicV2):len(v2)-4]...)
	got, err := Read(bytes.NewReader(v1))
	if err == nil {
		t.Fatalf("un-checksummed v1 checkpoint accepted: %+v", got)
	}
	if got != nil || !strings.Contains(err.Error(), "version-1") || !strings.Contains(err.Error(), magicV1) {
		t.Fatalf("v1 rejection = (%v, %q), want nil snapshot and an error naming version-1 / %s", got, err, magicV1)
	}
}

func TestReadRejectsCorruption(t *testing.T) {
	snap := &Snapshot{Box: vec.V3{X: 1, Y: 1, Z: 1}, Atoms: make([]sim.InitAtom, 3)}
	var buf bytes.Buffer
	if err := Write(&buf, snap); err != nil {
		t.Fatal(err)
	}
	// Flip one bit mid-body: the CRC32 trailer must catch it.
	b := append([]byte{}, buf.Bytes()...)
	b[len(b)/2] ^= 0x40
	_, err := Read(bytes.NewReader(b))
	if err == nil {
		t.Fatal("bit-flipped checkpoint accepted")
	}
	if !strings.Contains(err.Error(), "corrupt") {
		t.Errorf("corruption surfaced as %q, want a corrupt-checkpoint error", err)
	}
	// Tearing off the trailer is a truncation, not a corruption.
	_, err = Read(bytes.NewReader(buf.Bytes()[:buf.Len()-2]))
	if err == nil {
		t.Fatal("truncated trailer accepted")
	}
	if !strings.Contains(err.Error(), "truncated") {
		t.Errorf("truncation surfaced as %q, want a truncated-checkpoint error", err)
	}
}

func TestApplyValidatesBox(t *testing.T) {
	snap := &Snapshot{Box: vec.V3{X: 1, Y: 1, Z: 1}}
	cfg := testConfig()
	if err := snap.Apply(&cfg); err == nil {
		t.Error("mismatched box accepted")
	}
}

// TestRestartContinuesTrajectory is the end-to-end property: checkpointing
// at step 10 and resuming must reproduce the uninterrupted run exactly —
// positions and velocities are bitwise identical when the reneighbor
// cadence aligns.
func TestRestartContinuesTrajectory(t *testing.T) {
	cfg := testConfig()
	cfg.NeighEvery = 5 // align rebuild cadence across the checkpoint
	full := newSim(t, cfg)
	full.Run(20)

	first := newSim(t, cfg)
	first.Run(10)
	snap := Capture(first, 10)
	var buf bytes.Buffer
	if err := Write(&buf, snap); err != nil {
		t.Fatal(err)
	}
	loaded, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	cfg2 := testConfig()
	cfg2.NeighEvery = 5
	if err := loaded.Apply(&cfg2); err != nil {
		t.Fatal(err)
	}
	resumed := newSim(t, cfg2)
	if got, want := resumed.TotalAtoms(), full.TotalAtoms(); got != want {
		t.Fatalf("restarted atoms %d != %d", got, want)
	}
	resumed.Run(10)

	// Atom storage order differs between the runs (the checkpoint sorts by
	// id), so force summation order may differ by an ULP.
	if err := oracle.Check("restart-continue", sim.MaxDisplacement(full.Gather(), resumed.Gather())); err != nil {
		t.Error(err)
	}
}

// TestRestartAcrossDecompositions resumes a checkpoint on a different
// machine shape: the state is decomposition-independent.
func TestRestartAcrossDecompositions(t *testing.T) {
	cfg := testConfig()
	s := newSim(t, cfg)
	s.Run(7)
	snap := Capture(s, 7)

	cfg2 := testConfig()
	if err := snap.Apply(&cfg2); err != nil {
		t.Fatal(err)
	}
	m, err := sim.NewMachine(vec.I3{X: 2, Y: 3, Z: 2})
	if err != nil {
		t.Fatal(err)
	}
	s2, err := sim.New(m, sim.Ref(), cfg2)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if err := oracle.Check("restart-reshape", math.Abs(float64(s2.TotalAtoms()-s.TotalAtoms()))); err != nil {
		t.Fatal(err)
	}
	s2.Run(3) // must simply work
}
