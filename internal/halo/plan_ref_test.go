package halo

import (
	"fmt"
	"slices"
	"testing"
	"unsafe"

	"tofumd/internal/topo"
	"tofumd/internal/vec"
)

// refByRank is a verbatim copy of Plan.byRank before the counting sort: a
// stable comparator sort of each rank's group.
func refByRank(p *Plan, dst bool) [][]int32 {
	// Each direction maps the ranks onto themselves, so every rank sends
	// and receives the same number of links.
	per := len(p.Links) / p.m.Ranks()
	flat := make([]int32, len(p.Links))
	out := make([][]int32, p.m.Ranks())
	for r := range out {
		out[r] = flat[r*per : r*per : (r+1)*per]
	}
	for i, l := range p.Links {
		r := l.Src
		if dst {
			r = l.Dst
		}
		out[r] = append(out[r], int32(i))
	}
	for _, group := range out {
		slices.SortStableFunc(group, func(a, b int32) int { return specCompare(&p.Links[a], &p.Links[b]) })
	}
	return out
}

// refAssign is a verbatim copy of Plan.Assign before the node tables and
// the per-signature balance: RankMap.Hops per link, one BalanceThreads per
// batch.
func refAssign(p *Plan, policy TNIPolicy, surviving []int, threads int, b Balance) (fwd, rev []Res) {
	fwd, rev = make([]Res, len(p.Links)), make([]Res, len(p.Links))
	var specs []Link
	var hops []int32
	batch := func(links []int32, out []Res, slot int) {
		switch policy {
		case TNIPerRankSlot:
			for _, i := range links {
				out[i] = Res{TNI: int16(SurvivorTNI(slot, surviving))}
			}
		case TNISprayAll:
			for j, i := range links {
				out[i] = Res{TNI: int16(SurvivorTNI(j, surviving))}
			}
		default:
			if hops == nil { // one hop count serves both sides of a link
				hops = make([]int32, len(p.Links))
				for i, l := range p.Links {
					hops[i] = int32(p.m.Hops(l.Src, l.Dst))
				}
			}
			specs = specs[:0]
			for _, i := range links {
				l := p.Links[i]
				vol := MessageVolume(l.Dir, b.Side, b.Cutoff)
				specs = append(specs, Link{Dir: l.Dir, Bytes: int(vol*b.Density) * b.AtomBytes, Hops: int(hops[i])})
			}
			for j, th := range BalanceThreads(specs, threads, b.Bandwidth, b.HopLatency) {
				out[links[j]] = Res{Thread: int16(th), TNI: int16(SurvivorTNI(th, surviving))}
			}
		}
	}
	for r := range p.Send {
		_, slot := p.m.NodeOf(r)
		batch(p.Send[r], fwd, slot)
		batch(p.Recv[r], rev, slot)
	}
	return fwd, rev
}

func planMap(t *testing.T, shape vec.I3, mode topo.MapMode) *topo.RankMap {
	t.Helper()
	torus, err := topo.NewTorus3D(shape)
	if err != nil {
		t.Fatal(err)
	}
	m, err := topo.NewRankMap(torus, topo.DefaultBlock, mode)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func equalGroups(a, b [][]int32) bool {
	return slices.EqualFunc(a, b, func(x, y []int32) bool { return slices.Equal(x, y) })
}

// TestPlanMatchesReference holds NewPlan's issue order and Assign's
// resources bit for bit to the verbatim reference copies, over
// both placements, every pattern, one to three shells, every policy and
// thread count, and shrunken TNI sets. The full tile runs one shell for
// p2p (its three-shell plans hold a million links) and every depth for the
// staged pattern. One plan and one pair of assignment slices are rebuilt
// in place through every case, larger and smaller plans in turn, and must
// equal the fresh ones.
func TestPlanMatchesReference(t *testing.T) {
	var re Plan
	var reFwd, reRev []Res
	b := Balance{Side: 2.94, Cutoff: 2.8, Density: 0.8442, AtomBytes: 40, Bandwidth: 6.8e9, HopLatency: 1e-7}
	type pattern struct {
		name string
		p    Pattern
		dirs func(shells int) []vec.I3
	}
	patterns := []pattern{
		{"p2p-half", P2P, func(s int) []vec.I3 { return SendDirections(s, true) }},
		{"p2p-full", P2P, func(s int) []vec.I3 { return SendDirections(s, false) }},
		{"3stage", ThreeStage, func(int) []vec.I3 { return nil }},
	}
	tiles := []vec.I3{{X: 1, Y: 1, Z: 1}, {X: 2, Y: 2, Z: 2}, {X: 2, Y: 3, Z: 2}, {X: 3, Y: 1, Z: 2}, {X: 8, Y: 12, Z: 8}}
	for _, tile := range tiles {
		full := tile == (vec.I3{X: 8, Y: 12, Z: 8})
		for _, mode := range []topo.MapMode{topo.MapTopo, topo.MapLinear} {
			m := planMap(t, tile, mode)
			for _, pat := range patterns {
				for shells := 1; shells <= 3; shells++ {
					if full && pat.p == P2P && shells > 1 {
						continue
					}
					name := fmt.Sprintf("%dx%dx%d/%s/%s/shells=%d", tile.X, tile.Y, tile.Z, mode, pat.name, shells)
					dirs := pat.dirs(shells)
					p := NewPlan(m, pat.p, shells, dirs)
					if !equalGroups(p.Send, refByRank(p, false)) || !equalGroups(p.Recv, refByRank(p, true)) {
						t.Fatalf("%s: Send/Recv differ from the reference", name)
					}
					re.Rebuild(m, pat.p, shells, dirs)
					if !slices.Equal(re.Links, p.Links) || !slices.Equal(re.Rounds, p.Rounds) ||
						!equalGroups(re.Send, p.Send) || !equalGroups(re.Recv, p.Recv) {
						t.Fatalf("%s: the plan rebuilt in place differs from NewPlan's", name)
					}
					for _, pol := range []TNIPolicy{TNIPerRankSlot, TNISprayAll, TNIThreadBound} {
						for _, threads := range []int{1, 3, 6} {
							for _, surv := range [][]int{{0, 1, 2, 3, 4, 5}, {0, 2, 3, 5}, {4}} {
								fwd, rev := p.Assign(pol, surv, threads, b)
								wantF, wantR := refAssign(p, pol, surv, threads, b)
								if !slices.Equal(fwd, wantF) || !slices.Equal(rev, wantR) {
									t.Fatalf("%s: Assign(%s, %v, %d) differs from the reference", name, pol, surv, threads)
								}
								reFwd, reRev = re.AssignInto(reFwd, reRev, pol, surv, threads, b)
								if !slices.Equal(reFwd, wantF) || !slices.Equal(reRev, wantR) {
									t.Fatalf("%s: AssignInto(%s, %v, %d) on reused storage differs from the reference", name, pol, surv, threads)
								}
							}
						}
					}
				}
			}
		}
	}
}

// TestAssignAllocsIndependentOfRanks: thread-bound Assign allocates per
// call and per distinct batch signature, not per rank or per batch, so a
// 3,072-rank tile allocates as often as a 32-rank one.
func TestAssignAllocsIndependentOfRanks(t *testing.T) {
	b := Balance{Side: 2.94, Cutoff: 2.8, Density: 0.8442, AtomBytes: 40, Bandwidth: 6.8e9, HopLatency: 1e-7}
	allocs := func(tile vec.I3) float64 {
		p := NewPlan(planMap(t, tile, topo.MapTopo), P2P, 1, SendDirections(1, true))
		return testing.AllocsPerRun(5, func() { p.Assign(TNIThreadBound, []int{0, 1, 2, 3, 4, 5}, 6, b) })
	}
	small, large := allocs(vec.I3{X: 2, Y: 2, Z: 2}), allocs(vec.I3{X: 8, Y: 12, Z: 8})
	if d := large - small; d < -2 || d > 2 {
		t.Errorf("thread-bound Assign allocates %.0f times on 8x12x8 and %.0f on 2x2x2, want equal within 2", large, small)
	}
}

// TestResIs4Bytes pins Res at two int16. core.Modeled keeps two per plan
// link for the length of a call, 79,872 on the 3,072-rank P2P plan, inside
// the live heap it is held to (the model_768 workload's live_heap_mb); two
// ints would add 0.96 MB.
func TestResIs4Bytes(t *testing.T) {
	if got := unsafe.Sizeof(Res{}); got != 4 {
		t.Errorf("Res is %d bytes, want 4", got)
	}
}
