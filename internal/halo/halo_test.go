package halo

import (
	"bytes"
	"sort"
	"testing"

	"tofumd/internal/faultinject"
	"tofumd/internal/health"
	"tofumd/internal/mpi"
	"tofumd/internal/tofu"
	"tofumd/internal/topo"
	"tofumd/internal/utofu"
	"tofumd/internal/vec"
)

func testRankMap(t *testing.T, shape vec.I3) *topo.RankMap {
	t.Helper()
	torus, err := topo.NewTorus3D(shape)
	if err != nil {
		t.Fatal(err)
	}
	m, err := topo.NewRankMap(torus, vec.I3{X: 1, Y: 1, Z: 1}, topo.MapTopo)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestDecompositionValidation(t *testing.T) {
	if _, err := NewDecomposition(vec.V3{X: -1, Y: 1, Z: 1}, vec.I3{X: 2, Y: 2, Z: 2}); err == nil {
		t.Error("accepted negative box")
	}
	if _, err := NewDecomposition(vec.V3{X: 1, Y: 1, Z: 1}, vec.I3{X: 0, Y: 2, Z: 2}); err == nil {
		t.Error("accepted zero grid axis")
	}
}

func TestDecompositionSubBoxTiling(t *testing.T) {
	d, err := NewDecomposition(vec.V3{X: 12, Y: 8, Z: 4}, vec.I3{X: 3, Y: 2, Z: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := d.Side(); got != (vec.V3{X: 4, Y: 4, Z: 4}) {
		t.Fatalf("side = %+v", got)
	}
	// Sub-boxes tile the box: the hi face of coordinate c is the lo face of
	// c+1, the first lo is 0 and the last hi is the box length.
	lo, hi := d.SubBox(vec.I3{X: 0, Y: 0, Z: 0})
	if lo != (vec.V3{}) || hi != (vec.V3{X: 4, Y: 4, Z: 4}) {
		t.Errorf("subbox(0,0,0) = [%+v, %+v)", lo, hi)
	}
	lo2, _ := d.SubBox(vec.I3{X: 1, Y: 0, Z: 0})
	if lo2.X != hi.X {
		t.Errorf("adjacent sub-boxes do not tile: hi.X %v, next lo.X %v", hi.X, lo2.X)
	}
	_, hiLast := d.SubBox(vec.I3{X: 2, Y: 1, Z: 0})
	if hiLast != d.Box {
		t.Errorf("last hi = %+v, want box %+v", hiLast, d.Box)
	}
}

func TestOwnerCoordRoundTrip(t *testing.T) {
	d, err := NewDecomposition(vec.V3{X: 10, Y: 10, Z: 10}, vec.I3{X: 2, Y: 5, Z: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Every sub-box's interior point maps back to its coordinate.
	for z := 0; z < d.Grid.Z; z++ {
		for y := 0; y < d.Grid.Y; y++ {
			for x := 0; x < d.Grid.X; x++ {
				c := vec.I3{X: x, Y: y, Z: z}
				lo, hi := d.SubBox(c)
				mid := lo.Add(hi).Scale(0.5)
				if got := d.OwnerCoord(mid); got != c {
					t.Fatalf("OwnerCoord(mid of %+v) = %+v", c, got)
				}
			}
		}
	}
	// The box edge is guarded against float rounding.
	if got := d.OwnerCoord(d.Box); got != d.Grid.Sub(vec.I3{X: 1, Y: 1, Z: 1}) {
		t.Errorf("OwnerCoord(box edge) = %+v", got)
	}
}

func TestWrapPosition(t *testing.T) {
	d, _ := NewDecomposition(vec.V3{X: 4, Y: 4, Z: 4}, vec.I3{X: 2, Y: 2, Z: 2})
	w := d.WrapPosition(vec.V3{X: -1, Y: 5, Z: 2})
	if w.X != 3 || w.Y != 1 || w.Z != 2 {
		t.Errorf("wrap = %+v", w)
	}
}

func TestShellsFor(t *testing.T) {
	d, _ := NewDecomposition(vec.V3{X: 8, Y: 8, Z: 8}, vec.I3{X: 2, Y: 2, Z: 2})
	// side = 4: a cutoff below the side needs one shell, above it two.
	if got := d.ShellsFor(3.5); got != 1 {
		t.Errorf("ShellsFor(3.5) = %d", got)
	}
	if got := d.ShellsFor(4.5); got != 2 {
		t.Errorf("ShellsFor(4.5) = %d", got)
	}
	if got := d.ShellsFor(8.5); got != 3 {
		t.Errorf("ShellsFor(8.5) = %d", got)
	}
}

func TestPBCShift(t *testing.T) {
	d, _ := NewDecomposition(vec.V3{X: 12, Y: 12, Z: 12}, vec.I3{X: 3, Y: 3, Z: 3})
	// Interior move: no shift.
	if s := d.PBCShift(vec.I3{X: 1, Y: 1, Z: 1}, vec.I3{X: 1}); s != (vec.V3{}) {
		t.Errorf("interior shift = %+v", s)
	}
	// Wrapping past the high edge shifts the ghost below the box.
	if s := d.PBCShift(vec.I3{X: 2, Y: 0, Z: 0}, vec.I3{X: 1}); s.X != -12 {
		t.Errorf("high-edge shift = %+v", s)
	}
	// Mirror case shifts up.
	if s := d.PBCShift(vec.I3{X: 0, Y: 0, Z: 0}, vec.I3{X: -1}); s.X != 12 {
		t.Errorf("low-edge shift = %+v", s)
	}
}

func TestSplitExtentCoversEveryCell(t *testing.T) {
	for _, tc := range []struct{ n, parts int }{{10, 3}, {7, 7}, {16, 4}, {5, 2}} {
		prev := 0
		for i := 0; i < tc.parts; i++ {
			lo, hi := SplitExtent(tc.n, tc.parts, i)
			if lo != prev {
				t.Errorf("SplitExtent(%d,%d,%d): lo %d, want %d", tc.n, tc.parts, i, lo, prev)
			}
			if hi < lo {
				t.Errorf("SplitExtent(%d,%d,%d): inverted [%d,%d)", tc.n, tc.parts, i, lo, hi)
			}
			prev = hi
		}
		if prev != tc.n {
			t.Errorf("SplitExtent(%d,%d): parts cover %d cells", tc.n, tc.parts, prev)
		}
	}
}

func TestDirectionsAndHalves(t *testing.T) {
	if got := len(Directions(1)); got != 26 {
		t.Errorf("one-shell directions = %d", got)
	}
	if got := len(Directions(2)); got != 124 {
		t.Errorf("two-shell directions = %d", got)
	}
	if got := len(HalfDirections(1)); got != 13 {
		t.Errorf("one-shell half = %d", got)
	}
	if got := len(HalfDirections(2)); got != 62 {
		t.Errorf("two-shell half = %d", got)
	}
	// UpperHalf partitions: exactly one of d, -d is upper.
	for _, d := range Directions(2) {
		neg := vec.I3{X: -d.X, Y: -d.Y, Z: -d.Z}
		if UpperHalf(d) == UpperHalf(neg) {
			t.Errorf("UpperHalf does not partition %+v", d)
		}
	}
}

func TestMessageVolumeClasses(t *testing.T) {
	a, r := 3.0, 2.0
	if got := MessageVolume(vec.I3{X: 1}, a, r); got != a*a*r {
		t.Errorf("face volume = %v", got)
	}
	if got := MessageVolume(vec.I3{X: 1, Y: 1}, a, r); got != a*r*r {
		t.Errorf("edge volume = %v", got)
	}
	if got := MessageVolume(vec.I3{X: 1, Y: -1, Z: 1}, a, r); got != r*r*r {
		t.Errorf("corner volume = %v", got)
	}
}

func TestMessageVolumeAniso(t *testing.T) {
	side := vec.V3{X: 2, Y: 3, Z: 4}
	if got := MessageVolumeAniso(vec.I3{Z: 1}, side, 1.5); got != 2*3*1.5 {
		t.Errorf("aniso face = %v", got)
	}
	// Only which axes are non-zero matters, not sign or shell distance:
	// multi-shell callers pass their offsets unclamped.
	if far, near := MessageVolumeAniso(vec.I3{X: 2, Y: -2}, side, 1.5),
		MessageVolumeAniso(vec.I3{X: 1, Y: 1}, side, 1.5); far != near || near != 1.5*1.5*4 {
		t.Errorf("aniso edge: shell-2 offset %v, shell-1 offset %v, want %v", far, near, 1.5*1.5*4)
	}
}

func TestHopCount(t *testing.T) {
	cases := []struct {
		d    vec.I3
		want int
	}{
		{vec.I3{X: 1}, 1},
		{vec.I3{X: -1, Y: 1}, 2},
		{vec.I3{X: 1, Y: 1, Z: -1}, 3},
		{vec.I3{}, 0},
	}
	for _, c := range cases {
		if got := HopCount(c.d); got != c.want {
			t.Errorf("HopCount(%+v) = %d, want %d", c.d, got, c.want)
		}
	}
}

func TestBuildLinkSpecsP2P(t *testing.T) {
	m := testRankMap(t, vec.I3{X: 2, Y: 2, Z: 2})
	dirs := Directions(1)
	specs := BuildLinkSpecs(m, P2P, 1, dirs)
	if want := m.Ranks() * len(dirs); len(specs) != want {
		t.Fatalf("p2p specs = %d, want %d", len(specs), want)
	}
	for _, s := range specs {
		if s.Stage3Dim != -1 {
			t.Fatalf("p2p spec carries stage dim %d", s.Stage3Dim)
		}
		if want := m.NeighborRank(s.Src, s.Dir); s.Dst != want {
			t.Fatalf("spec %+v: dst %d, want %d", s.Dir, s.Dst, want)
		}
	}
	// Enumeration is rank-major: the first len(dirs) specs share Src 0.
	for i := 0; i < len(dirs); i++ {
		if specs[i].Src != 0 {
			t.Fatalf("spec %d src = %d, want rank-major order", i, specs[i].Src)
		}
	}
}

func TestBuildLinkSpecsStaged(t *testing.T) {
	m := testRankMap(t, vec.I3{X: 2, Y: 2, Z: 2})
	shells := 2
	specs := BuildLinkSpecs(m, ThreeStage, shells, nil)
	// Per dimension, per iteration, both signs, one link per rank.
	if want := 3 * shells * 2 * m.Ranks(); len(specs) != want {
		t.Fatalf("staged specs = %d, want %d", len(specs), want)
	}
	for _, s := range specs {
		if s.Stage3Dim < 0 || s.Stage3Dim > 2 {
			t.Fatalf("stage dim %d out of range", s.Stage3Dim)
		}
		// A staged direction is a unit step along its stage dimension.
		n := s.Dir.X*s.Dir.X + s.Dir.Y*s.Dir.Y + s.Dir.Z*s.Dir.Z
		if n != 1 {
			t.Fatalf("staged dir %+v is not axis-aligned", s.Dir)
		}
	}
	// Every staged spec belongs to exactly one round, and the rounds cover
	// all specs.
	rounds := Rounds(ThreeStage, shells)
	if len(rounds) != 3*shells {
		t.Fatalf("rounds = %d", len(rounds))
	}
	covered := 0
	for _, k := range rounds {
		for _, s := range specs {
			if InRound(s.Stage3Dim, s.Stage3Iter, k) {
				covered++
			}
		}
	}
	if covered != len(specs) {
		t.Errorf("rounds cover %d of %d specs", covered, len(specs))
	}
}

func TestRoundsP2P(t *testing.T) {
	rounds := Rounds(P2P, 3)
	if len(rounds) != 1 || rounds[0].Dim != -1 {
		t.Fatalf("p2p rounds = %+v", rounds)
	}
	if !InRound(-1, 5, rounds[0]) {
		t.Error("p2p round ignores iteration")
	}
}

func TestSpecLessIsStrictWeakOrder(t *testing.T) {
	m := testRankMap(t, vec.I3{X: 2, Y: 2, Z: 2})
	specs := BuildLinkSpecs(m, P2P, 1, Directions(1))
	sorted := append([]LinkSpec(nil), specs...)
	sort.SliceStable(sorted, func(i, j int) bool { return SpecLess(sorted[i], sorted[j]) })
	for i := 1; i < len(sorted); i++ {
		if SpecLess(sorted[i], sorted[i-1]) {
			t.Fatalf("sort unstable at %d", i)
		}
	}
}

func TestBalanceThreadsEvensLoad(t *testing.T) {
	links := []Link{
		{Bytes: 4000, Hops: 1}, {Bytes: 4000, Hops: 1},
		{Bytes: 1000, Hops: 1}, {Bytes: 1000, Hops: 1},
		{Bytes: 1000, Hops: 1}, {Bytes: 1000, Hops: 1},
	}
	assign := BalanceThreads(links, 2, 1e9, 1e-6)
	load := map[int]float64{}
	for i, th := range assign {
		load[th] += float64(links[i].Bytes)
	}
	if load[0] != 6000 || load[1] != 6000 {
		t.Errorf("LPT loads = %v, want 6000/6000", load)
	}
	// Single thread: everything on thread 0.
	for _, th := range BalanceThreads(links, 1, 1e9, 1e-6) {
		if th != 0 {
			t.Fatal("single-thread balance strayed")
		}
	}
}

func TestSurvivingTNIs(t *testing.T) {
	all := SurvivingTNIs(6, nil)
	if len(all) != 6 {
		t.Fatalf("nil predicate: %v", all)
	}
	some := SurvivingTNIs(6, func(tni int) bool { return tni == 2 || tni == 5 })
	if len(some) != 4 || some[0] != 0 || some[3] != 4 {
		t.Fatalf("quarantined set: %v", some)
	}
	if got := SurvivorTNI(3, some); got != some[3%len(some)] {
		t.Errorf("SurvivorTNI = %d", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("SurvivorTNI accepted empty survivor set")
		}
	}()
	SurvivorTNI(0, nil)
}

func TestAssignPolicies(t *testing.T) {
	torus, err := topo.NewTorus3D(vec.I3{X: 2, Y: 2, Z: 2})
	if err != nil {
		t.Fatal(err)
	}
	m, err := topo.NewRankMap(torus, topo.DefaultBlock, topo.MapTopo)
	if err != nil {
		t.Fatal(err)
	}
	p := NewPlan(m, P2P, 1, SendDirections(1, true))
	surviving := []int{0, 1, 2}
	b := Balance{Side: 3, Cutoff: 2, Density: 1, AtomBytes: 40, Bandwidth: 1e9, HopLatency: 1e-6}

	// Per-rank-slot: both sides of a link on their sender's slot TNI.
	fwd, rev := p.Assign(TNIPerRankSlot, surviving, 1, b)
	for i, l := range p.Links {
		_, src := m.NodeOf(l.Src)
		_, dst := m.NodeOf(l.Dst)
		if fwd[i] != (Res{TNI: SurvivorTNI(src, surviving)}) || rev[i] != (Res{TNI: SurvivorTNI(dst, surviving)}) {
			t.Fatalf("per-slot link %d: fwd %+v rev %+v", i, fwd[i], rev[i])
		}
	}
	// The other policies assign each rank's send and receive sides as
	// separate batches, in issue order.
	type side struct {
		links []int32
		res   []Res
	}
	sides := func(r int, fwd, rev []Res) []side { return []side{{p.Send[r], fwd}, {p.Recv[r], rev}} }
	fwd, rev = p.Assign(TNISprayAll, surviving, 1, b)
	for r := range p.Send {
		for _, sd := range sides(r, fwd, rev) {
			for j, i := range sd.links {
				if sd.res[i] != (Res{TNI: surviving[j%len(surviving)]}) {
					t.Fatalf("spray rank %d link %d = %+v", r, j, sd.res[i])
				}
			}
		}
	}
	fwd, rev = p.Assign(TNIThreadBound, surviving, 3, b)
	for r := range p.Send {
		for _, sd := range sides(r, fwd, rev) {
			threads := map[int]bool{}
			for _, i := range sd.links {
				res := sd.res[i]
				threads[res.Thread] = true
				if res.TNI != surviving[res.Thread%len(surviving)] {
					t.Fatalf("thread-bound TNI pairing broken: %+v", res)
				}
			}
			if len(threads) != 3 {
				t.Errorf("rank %d: 13 links over 3 threads used %d threads", r, len(threads))
			}
		}
	}
}

// TestPlanIssueOrder: every link is issued exactly once by its sender
// (forward) and once by its receiver (reverse), each rank's lists in
// SpecLess order, and every staged round holds as many links as the others.
func TestPlanIssueOrder(t *testing.T) {
	m := testRankMap(t, vec.I3{X: 2, Y: 3, Z: 2})
	for _, pat := range []Pattern{P2P, ThreeStage} {
		p := NewPlan(m, pat, 2, SendDirections(2, true))
		seen := make([]int, len(p.Links))
		for r := range p.Send {
			for side, links := range [][]int32{p.Send[r], p.Recv[r]} {
				for j, i := range links {
					l := p.Links[i]
					if (side == 0 && l.Src != r) || (side == 1 && l.Dst != r) {
						t.Fatalf("%s: rank %d lists link %+v on side %d", pat, r, l, side)
					}
					if j > 0 && SpecLess(l, p.Links[links[j-1]]) {
						t.Fatalf("%s: rank %d side %d out of SpecLess order at %d", pat, r, side, j)
					}
					seen[i]++
				}
			}
		}
		for i, n := range seen {
			if n != 2 {
				t.Fatalf("%s: link %d listed %d times, want 2", pat, i, n)
			}
		}
		if pat == ThreeStage && len(p.Rounds) != 6 {
			t.Errorf("2-shell staged plan has %d rounds, want 6", len(p.Rounds))
		}
		for _, k := range p.Rounds {
			n := 0
			for _, l := range p.Links {
				if InRound(l.Stage3Dim, l.Stage3Iter, k) {
					n++
				}
			}
			if n != len(p.Links)/len(p.Rounds) {
				t.Errorf("%s: round %+v holds %d links, want %d", pat, k, n, len(p.Links)/len(p.Rounds))
			}
		}
	}
}

func TestFallbackLifecycle(t *testing.T) {
	var nilFB *Fallback
	nilFB.RecordFailure(0, 1)
	nilFB.RecordSuccess(0, 1)
	nilFB.Reset()
	if nilFB.Degraded(0, 1) || nilFB.DegradedCount() != 0 {
		t.Error("nil tracker reports degradation")
	}
	if NewFallback(0) != nil {
		t.Error("k = 0 should disable the tracker")
	}
	fb := NewFallback(2)
	fb.RecordFailure(3, 4)
	if fb.Degraded(3, 4) {
		t.Error("degraded below threshold")
	}
	fb.RecordFailure(3, 4)
	if !fb.Degraded(3, 4) || fb.DegradedCount() != 1 {
		t.Error("not degraded at threshold")
	}
	if fb.Degraded(4, 3) {
		t.Error("pair direction leaked")
	}
	fb.RecordSuccess(3, 4)
	if fb.Degraded(3, 4) {
		t.Error("success did not re-arm")
	}
	fb.RecordFailure(3, 4)
	fb.RecordFailure(3, 4)
	fb.Reset()
	if fb.DegradedCount() != 0 {
		t.Error("reset did not clear history")
	}
}

func TestFallbackTripsAfterK(t *testing.T) {
	f := NewFallback(3)
	for i := 0; i < 2; i++ {
		f.RecordFailure(0, 1)
	}
	if f.Degraded(0, 1) {
		t.Error("degraded after 2 failures with K=3")
	}
	f.RecordFailure(0, 1)
	if !f.Degraded(0, 1) {
		t.Error("not degraded after 3 consecutive failures")
	}
	if f.Degraded(1, 0) {
		t.Error("reverse direction degraded; pairs are ordered")
	}
	if f.DegradedCount() != 1 {
		t.Errorf("DegradedCount = %d, want 1", f.DegradedCount())
	}
}

func TestFallbackSuccessReArms(t *testing.T) {
	f := NewFallback(2)
	f.RecordFailure(4, 7)
	f.RecordSuccess(4, 7)
	f.RecordFailure(4, 7)
	if f.Degraded(4, 7) {
		t.Error("success did not reset the consecutive-failure count")
	}
	f.RecordFailure(4, 7)
	if !f.Degraded(4, 7) {
		t.Error("pair not degraded after 2 consecutive failures")
	}
	f.Reset()
	if f.Degraded(4, 7) || f.DegradedCount() != 0 {
		t.Error("Reset left degraded state")
	}
}

// TestFallbackSuccessClearsPendingFailure: a success returns at once while
// no failure is on record, and still clears one that is, so a later
// failure counts from one again.
func TestFallbackSuccessClearsPendingFailure(t *testing.T) {
	f := NewFallback(2)
	f.RecordSuccess(4, 7)
	if len(f.consec) != 0 {
		t.Fatalf("a success with nothing pending recorded %d pairs", len(f.consec))
	}
	f.RecordFailure(4, 7)
	f.RecordFailure(1, 2)
	f.RecordSuccess(4, 7)
	if _, ok := f.consec[[2]int{4, 7}]; ok {
		t.Error("success left the pair's failure on record")
	}
	f.RecordFailure(4, 7)
	if f.Degraded(4, 7) {
		t.Error("failure count not restarted after the success")
	}
	if f.consec[[2]int{1, 2}] != 1 {
		t.Error("success on one pair cleared another")
	}
}

func TestFallbackNilSafe(t *testing.T) {
	var f *Fallback
	f.RecordFailure(0, 1)
	f.RecordSuccess(0, 1)
	f.Reset()
	if f.Degraded(0, 1) || f.DegradedCount() != 0 {
		t.Error("nil tracker reports degradation")
	}
	if NewFallback(0) != nil {
		t.Error("NewFallback(0) should be nil (disabled)")
	}
}

func TestCodecRoundTrip(t *testing.T) {
	b := make([]byte, 3*F64Bytes)
	v := vec.V3{X: 1.5, Y: -2.25, Z: 1e300}
	PutV3(b, v)
	if got := GetV3(b); got != v {
		t.Errorf("v3 round trip = %+v", got)
	}
	enc := EncodeScalars(nil, []float64{1, 2, 3}, 0, 3)
	if len(enc) != 3*F64Bytes {
		t.Fatalf("encoded %d bytes", len(enc))
	}
	dec := make([]float64, 3)
	DecodeScalars(enc, dec, 0, 3)
	if dec[0] != 1 || dec[1] != 2 || dec[2] != 3 {
		t.Errorf("scalars round trip = %v", dec)
	}
}

func TestGrow(t *testing.T) {
	b := Grow(nil, 100)
	if len(b) < 100 {
		t.Fatalf("grow(nil, 100) len %d", len(b))
	}
	b2 := Grow(b, 50)
	if &b2[0] != &b[0] {
		t.Error("grow reallocated a sufficient buffer")
	}
}

func testUTofu(t *testing.T) *utofu.System {
	t.Helper()
	torus, err := topo.NewTorus3D(vec.I3{X: 2, Y: 2, Z: 2})
	if err != nil {
		t.Fatal(err)
	}
	m, err := topo.NewRankMap(torus, vec.I3{X: 1, Y: 1, Z: 1}, topo.MapTopo)
	if err != nil {
		t.Fatal(err)
	}
	fab := tofu.NewFabric(m, tofu.DefaultParams())
	return utofu.NewSystem(fab)
}

func TestValidate(t *testing.T) {
	for _, c := range []struct {
		name    string
		pat     Pattern
		tr      Transport
		pol     TNIPolicy
		threads int
		ok      bool
	}{
		{"uTofu 3-stage thread-bound", ThreeStage, TransportUTofu, TNIThreadBound, 4, true},
		{"MPI p2p at one thread", P2P, TransportMPI, TNIPerRankSlot, 1, true},
		{"uTofu p2p thread-bound at six threads", P2P, TransportUTofu, TNIThreadBound, 6, true},
		{"MPI + spray-all", P2P, TransportMPI, TNISprayAll, 1, false},
		{"MPI 3-stage + thread-bound", ThreeStage, TransportMPI, TNIThreadBound, 4, false},
		{"MPI p2p + thread-bound", P2P, TransportMPI, TNIThreadBound, 6, false},
		{"multi-thread per-rank-slot", P2P, TransportUTofu, TNIPerRankSlot, 4, false},
	} {
		if err := Validate(c.pat, c.tr, c.pol, c.threads); (err == nil) != c.ok {
			t.Errorf("%s: Validate = %v, want accepted %v", c.name, err, c.ok)
		}
	}
}

// engineFixture wires an Engine to bare rank clocks over a 2x2x2 torus with
// one rank per node: a VCQ per rank on TNI 0 and one registered region
// each, which takes three messages with distinct payloads, one byte apart.
func engineFixture(t *testing.T) (*Engine, []*Msg) {
	t.Helper()
	m := testRankMap(t, vec.I3{X: 2, Y: 2, Z: 2})
	fab := tofu.NewFabric(m, tofu.DefaultParams())
	uts := utofu.NewSystem(fab)
	ranks := m.Ranks()
	clocks := make([]float64, ranks)
	vcqs := make([]*utofu.VCQ, ranks)
	regions := make([]*utofu.MemRegion, ranks)
	const msgBytes, stride = 120, 121
	for r := 0; r < ranks; r++ {
		v, err := uts.CreateVCQ(r, 0)
		if err != nil {
			t.Fatal(err)
		}
		vcqs[r] = v
		regions[r], _ = uts.Register(r, make([]byte, 3*stride))
	}
	e := &Engine{
		Fab: fab, UTS: uts, MPI: mpi.NewComm(fab),
		Clock: func(rank int) *float64 { return &clocks[rank] },
	}
	var msgs []*Msg
	for r := 0; r < ranks; r++ {
		for i, d := range []vec.I3{{X: 1}, {Y: 1}, {Z: 1}} {
			dst := m.NeighborRank(r, d)
			payload := make([]byte, msgBytes)
			for j := range payload {
				payload[j] = byte(1 + (3*r+i+j)%200)
			}
			msgs = append(msgs, &Msg{
				Src: r, Dst: dst, VCQ: vcqs[r], Data: payload, Known: true,
				Region: regions[dst], DstOff: i * stride,
			})
		}
	}
	return e, msgs
}

// TestEngineLandsFallbackInRegion: with every put NACKed past its retransmit
// budget, the whole round falls back to MPI, and the engine still lands each
// payload in its region under the lattice's wiring (no Fallback or Health
// tracker): every Data aliases Region.Buf[DstOff:] and holds the sender's
// bytes, and the poisoned byte after each landing range is untouched.
func TestEngineLandsFallbackInRegion(t *testing.T) {
	const poison = 0xee
	e, msgs := engineFixture(t)
	e.Fab.Faults = faultinject.New(faultinject.Spec{Nack: 1})
	sent := make([][]byte, len(msgs))
	for i, m := range msgs {
		sent[i] = m.Data
		for j := range m.Region.Buf {
			m.Region.Buf[j] = poison
		}
	}
	e.RunRound(TransportUTofu, msgs)
	for i, m := range msgs {
		if !m.OverMPI || m.Complete <= m.ReadyAt {
			t.Fatalf("message %d→%d: OverMPI %v, ready %v, complete %v; want a completed MPI fallback",
				m.Src, m.Dst, m.OverMPI, m.ReadyAt, m.Complete)
		}
		if len(m.Data) != len(sent[i]) || &m.Data[0] != &m.Region.Buf[m.DstOff] {
			t.Fatalf("message %d→%d: Data (%d bytes) does not alias its region at offset %d", m.Src, m.Dst, len(m.Data), m.DstOff)
		}
		if !bytes.Equal(m.Data, sent[i]) {
			t.Fatalf("message %d→%d: region does not hold the sender's payload", m.Src, m.Dst)
		}
		if b := m.Region.Buf[m.DstOff+len(m.Data)]; b != poison {
			t.Fatalf("message %d→%d: byte after the landing range = %#x, want poison %#x", m.Src, m.Dst, b, poison)
		}
	}
}

// TestInPlacePayloadsMatchStagedUnderFallback: a round of payloads packed
// in place at their Dest ends with every region byte equal to a staged
// reference round of the same payloads (packed into scratch, then put), and
// with the same completion times and transport per message, whether puts
// were dropped (some delivered on a retransmit, some exhausting it and
// falling back to MPI), NACKed past their retransmit budget, or skipped over
// a quarantined link. Every region is poisoned first, so bytes the staged
// round never wrote must stay poisoned in place too.
func TestInPlacePayloadsMatchStagedUnderFallback(t *testing.T) {
	const poison = 0xee
	for _, tc := range []struct {
		name       string
		faults     *faultinject.Spec
		quarantine bool
		// minMPI and maxMPI bound the messages that go over MPI.
		minMPI, maxMPI int
	}{
		{"drop", &faultinject.Spec{Seed: 7, Drop: 0.9}, false, 1, 23},
		{"nack-exhausted", &faultinject.Spec{Nack: 1}, false, 24, 24},
		{"quarantined-link", nil, true, 1, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func(inPlace bool) []*Msg {
				e, msgs := engineFixture(t)
				if tc.faults != nil {
					e.Fab.Faults = faultinject.New(*tc.faults)
				}
				e.Health = health.New(1, 2)
				if tc.quarantine {
					m := msgs[0]
					e.Health.RecordLinkFailure(m.Src, m.Dst, m.VCQ.TNI, 0)
					e.Health.RecordLinkFailure(m.Src, m.Dst, m.VCQ.TNI, 0)
				}
				for _, m := range msgs {
					for j := range m.Region.Buf {
						m.Region.Buf[j] = poison
					}
				}
				if inPlace {
					for _, m := range msgs {
						m.Data = append(m.Dest()[:0], m.Data...)
					}
				}
				e.RunRound(TransportUTofu, msgs)
				return msgs
			}
			staged, inPlace := run(false), run(true)
			overMPI := 0
			for i, m := range inPlace {
				s := staged[i]
				if m.OverMPI != s.OverMPI || m.Complete != s.Complete || m.IssueDone != s.IssueDone {
					t.Fatalf("message %d→%d: in place (MPI %v, complete %v, issue %v), staged (MPI %v, complete %v, issue %v)",
						m.Src, m.Dst, m.OverMPI, m.Complete, m.IssueDone, s.OverMPI, s.Complete, s.IssueDone)
				}
				if !bytes.Equal(m.Region.Buf, s.Region.Buf) {
					t.Fatalf("message %d→%d: region of rank %d differs from the staged round's", m.Src, m.Dst, m.Dst)
				}
				if &m.Data[0] != &m.Region.Buf[m.DstOff] {
					t.Fatalf("message %d→%d: Data does not alias its region at offset %d", m.Src, m.Dst, m.DstOff)
				}
				if m.OverMPI {
					overMPI++
				}
			}
			if overMPI < tc.minMPI || overMPI > tc.maxMPI {
				t.Errorf("%d of %d messages went over MPI, want %d to %d", overMPI, len(inPlace), tc.minMPI, tc.maxMPI)
			}
		})
	}
}

// TestAliasedRoundBesideReaders: a round whose payloads were all packed in
// place at their Dest, one of them over a degraded link so that it falls
// back to MPI, writes no region byte and no message's Data: another
// goroutine reads every region and every Data throughout the round (the
// race detector reports any write the round makes there, a copy of bytes
// onto themselves included), and the regions end equal to a staged
// reference round of the same payloads, with the same completion times
// and transports.
func TestAliasedRoundBesideReaders(t *testing.T) {
	const poison = 0xee
	run := func(inPlace bool) ([]*Msg, [][]byte) {
		e, msgs := engineFixture(t)
		e.Fallback = NewFallback(1)
		e.Fallback.RecordFailure(msgs[0].Src, msgs[0].Dst)
		var regions [][]byte
		for _, m := range msgs {
			if m.DstOff == 0 {
				regions = append(regions, m.Region.Buf)
			}
			for j := range m.Region.Buf {
				m.Region.Buf[j] = poison
			}
		}
		if !inPlace {
			e.RunRound(TransportUTofu, msgs)
			return msgs, regions
		}
		for _, m := range msgs {
			m.Data = append(m.Dest()[:0], m.Data...)
		}
		stop, done := make(chan struct{}), make(chan int)
		go func() {
			reads := 0
			for {
				var sum byte
				for _, buf := range regions {
					for _, b := range buf {
						sum += b
					}
				}
				for _, m := range msgs {
					sum += m.Data[0]
				}
				reads++
				select {
				case <-stop:
					done <- reads
					return
				default:
				}
			}
		}()
		e.RunRound(TransportUTofu, msgs)
		close(stop)
		if <-done == 0 {
			t.Fatal("the reader never read the regions")
		}
		return msgs, regions
	}
	staged, stagedRegions := run(false)
	inPlace, inPlaceRegions := run(true)
	overMPI := 0
	for i, m := range inPlace {
		s := staged[i]
		if m.OverMPI != s.OverMPI || m.Complete != s.Complete || m.IssueDone != s.IssueDone {
			t.Fatalf("message %d→%d: in place (MPI %v, complete %v), staged (MPI %v, complete %v)",
				m.Src, m.Dst, m.OverMPI, m.Complete, s.OverMPI, s.Complete)
		}
		if &m.Data[0] != &m.Region.Buf[m.DstOff] {
			t.Fatalf("message %d→%d: Data does not alias its region at offset %d", m.Src, m.Dst, m.DstOff)
		}
		if m.OverMPI {
			overMPI++
		}
	}
	if overMPI != 1 || !inPlace[0].OverMPI {
		t.Errorf("%d messages went over MPI, want exactly the one on the degraded link", overMPI)
	}
	if len(inPlaceRegions) != len(stagedRegions) || len(inPlaceRegions) == 0 {
		t.Fatalf("%d regions in place, %d staged", len(inPlaceRegions), len(stagedRegions))
	}
	for i := range inPlaceRegions {
		if !bytes.Equal(inPlaceRegions[i], stagedRegions[i]) {
			t.Fatalf("region %d differs from the staged round's", i)
		}
	}
}

// A fault-free round allocates nothing from the second call on, over either
// transport: the engine translates into its own put and message slabs.
func TestEngineRunRoundDoesNotAllocate(t *testing.T) {
	for _, tr := range []Transport{TransportUTofu, TransportMPI} {
		e, msgs := engineFixture(t)
		run := func() {
			for _, m := range msgs {
				m.ReadyAt = *e.Clock(m.Src)
			}
			e.RunRound(tr, msgs)
		}
		run()
		if avg := testing.AllocsPerRun(20, run); avg != 0 {
			t.Errorf("transport %v: RunRound allocates %.1f per round in steady state, want 0", tr, avg)
		}
		for i, m := range msgs {
			if m.Complete <= m.ReadyAt || m.IssueDone <= m.ReadyAt {
				t.Fatalf("transport %v: message %d not completed: ready %v issue %v complete %v",
					tr, i, m.ReadyAt, m.IssueDone, m.Complete)
			}
		}
	}
}
