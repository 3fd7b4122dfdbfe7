package sim

import (
	"testing"

	"tofumd/internal/md/lattice"
	"tofumd/internal/md/potential"
	"tofumd/internal/trace"
	"tofumd/internal/units"
	"tofumd/internal/vec"
)

// smallLJTile reproduces the per-rank load of the paper's 65K/768-node
// point on a 4x6x4-node tile (384 ranks, ~21 atoms per rank).
func smallLJTile(t *testing.T) (*Machine, Config) {
	t.Helper()
	m, err := NewMachine(vec.I3{X: 4, Y: 6, Z: 4})
	if err != nil {
		t.Fatal(err)
	}
	cells := lattice.CellsForAtomsOnGrid(65536*384/3072, m.Map.Grid)
	cfg := Config{
		UnitsStyle:  units.LJ,
		Potential:   potential.NewLJ(1, 1, 2.5),
		Cells:       cells,
		Lat:         lattice.FCCFromDensity(0.8442),
		Skin:        0.3,
		NeighEvery:  20,
		Temperature: 1.44,
		Seed:        1,
		NewtonOn:    true,
		ScaleRanks:  3072,
	}
	return m, cfg
}

// TestVariantTimingOrderings asserts the qualitative results of the paper's
// Fig. 6 and Fig. 12 on a small-message workload:
//
//   - naive MPI p2p is slower than the MPI 3-stage baseline;
//   - uTofu 3-stage beats the MPI baseline;
//   - coarse-grained uTofu p2p (4 TNI) beats uTofu 3-stage;
//   - a single thread spraying 6 TNIs is worse than 4tni-p2p;
//   - the fine-grained thread-pool version is the fastest and cuts
//     communication time by well over half vs the baseline (77% in the
//     paper).
func TestVariantTimingOrderings(t *testing.T) {
	m, cfg := smallLJTile(t)
	commTime := map[string]float64{}
	total := map[string]float64{}
	pair := map[string]float64{}
	modify := map[string]float64{}
	for _, v := range StepByStepVariants() {
		s, err := New(m, v, cfg)
		if err != nil {
			t.Fatal(err)
		}
		s.Run(20)
		bd := trace.Merge(s.Breakdowns())
		commTime[v.Name] = bd.Get(trace.Comm)
		total[v.Name] = bd.Total()
		pair[v.Name] = bd.Get(trace.Pair)
		modify[v.Name] = bd.Get(trace.Modify)
		s.Close()
	}
	ordered := func(faster, slower string) {
		t.Helper()
		if commTime[faster] >= commTime[slower] {
			t.Errorf("comm(%s)=%.1fus not below comm(%s)=%.1fus",
				faster, 1e6*commTime[faster], slower, 1e6*commTime[slower])
		}
	}
	ordered("ref", "mpi-p2p")           // Fig. 6: naive MPI p2p loses
	ordered("utofu-3stage", "ref")      // uTofu beats the MPI stack
	ordered("4tni-p2p", "utofu-3stage") // p2p beats 3-stage on uTofu
	ordered("4tni-p2p", "6tni-p2p")     // TNI spraying hurts (section 4.2)
	ordered("opt", "4tni-p2p")          // fine-grained pool wins

	if red := 1 - commTime["opt"]/commTime["ref"]; red < 0.6 || red > 0.95 {
		t.Errorf("opt comm reduction vs ref = %.0f%%, want in [60%%, 95%%] (paper: 77%%)", 100*red)
	}
	if sp := total["ref"] / total["opt"]; sp < 2.0 {
		t.Errorf("opt end-to-end speedup = %.2fx, want >= 2x (paper: 3.01x)", sp)
	}
	// Thread pool cuts the pair and modify stages at tiny atom counts
	// (section 4.2: pair -43%, modify ~10x with OpenMP).
	if pair["opt"] >= pair["ref"] {
		t.Error("opt pair stage not faster than ref")
	}
	if modify["opt"] >= modify["ref"]/3 {
		t.Errorf("opt modify (%.1fus) not well below ref (%.1fus)",
			1e6*modify["opt"], 1e6*modify["ref"])
	}
}

// TestSmallSystemMessageSizes grounds the paper's section 4.2 claim: with
// ~22 atoms per rank (the 65K/768-node point), every forward-stage message
// is at most 528 bytes — 22 positions of 24 bytes.
func TestSmallSystemMessageSizes(t *testing.T) {
	m, cfg := smallLJTile(t)
	s, err := New(m, Opt(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	maxBytes, maxLocal := 0, 0
	for _, r := range s.Ranks() {
		if r.Atoms.NLocal > maxLocal {
			maxLocal = r.Atoms.NLocal
		}
		for _, l := range r.sendLinks {
			if b := l.bytesFwd(24); b > maxBytes {
				maxBytes = b
			}
		}
		// Sanity of the aggregate helpers.
		if r.totalSendBytes(24) < maxBytes/26 {
			t.Fatalf("rank %d totalSendBytes inconsistent", r.ID)
		}
		if r.totalGhostBytes(24) == 0 {
			t.Fatalf("rank %d receives no ghosts", r.ID)
		}
	}
	// A rank can send at most its whole atom set on one link.
	if maxBytes > maxLocal*24 {
		t.Errorf("message of %dB exceeds the largest rank's %d atoms", maxBytes, maxLocal)
	}
	if maxBytes > 800 {
		t.Errorf("largest forward message %dB; paper reports <= 528B in this regime", maxBytes)
	}
	if maxBytes < 200 {
		t.Errorf("largest forward message %dB suspiciously small", maxBytes)
	}
}

// bytesFwd returns the forward-direction wire size for a per-atom payload
// width.
func (l *link) bytesFwd(perAtom int) int { return len(l.sendList) * perAtom }

// totalGhostBytes returns the bytes this rank receives per forward stage.
func (r *Rank) totalGhostBytes(perAtom int) int {
	total := 0
	for _, l := range r.recvLinks {
		total += l.recvCount * perAtom
	}
	return total
}

// totalSendBytes returns the bytes this rank sends per forward stage.
func (r *Rank) totalSendBytes(perAtom int) int {
	total := 0
	for _, l := range r.sendLinks {
		total += l.bytesFwd(perAtom)
	}
	return total
}
