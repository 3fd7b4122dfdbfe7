// Package comm holds the tests of the communication-plan half of
// internal/halo (Table 1, the section 3.1 time model, thread balancing,
// validation) that predate the library's extraction.
// The alias layer they were written against is gone; the tests call halo
// directly and stay at this path because the repository's test floor pins
// their names here.
package comm

import (
	"math"
	"testing"
	"testing/quick"

	"tofumd/internal/halo"
)

func TestAnalyzeTable1(t *testing.T) {
	a, r := 2.94, 2.8
	rows, t3, tp := halo.AnalyzeTable1(a, r)
	if len(rows) != 6 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Totals match the closed forms.
	want3 := 8*r*r*r + 12*a*r*r + 6*a*a*r
	wantP := 4*r*r*r + 6*a*r*r + 3*a*a*r
	if math.Abs(t3-want3) > 1e-12 || math.Abs(tp-wantP) > 1e-12 {
		t.Errorf("totals %v/%v", t3, tp)
	}
	// p2p halves the total volume exactly.
	if math.Abs(t3-2*tp) > 1e-12 {
		t.Errorf("3-stage total %v != 2x p2p total %v", t3, tp)
	}
	// Message counts: 2+2+2 and 3+6+4.
	msgs3, msgsP := 0, 0
	for _, row := range rows {
		if row.Pattern == halo.ThreeStage {
			msgs3 += row.Messages
		} else {
			msgsP += row.Messages
		}
	}
	if msgs3 != 6 || msgsP != 13 {
		t.Errorf("message counts %d/%d", msgs3, msgsP)
	}
}

func TestModelEquations(t *testing.T) {
	m := halo.Model{TInj: 1, T: [6]float64{10, 12, 14, 10, 6, 4}}
	if got := m.ThreeStageNaive(); got != 2*10+2*12+2*14 {
		t.Errorf("Eq3 = %v", got)
	}
	if got := m.ThreeStageOpt(); got != 3+10+12+14 {
		t.Errorf("Eq5 = %v", got)
	}
	if got := m.P2PNaive(9); got != 12+9 {
		t.Errorf("Eq4 = %v", got)
	}
	if got := m.P2POpt(); got != 12+4 {
		t.Errorf("Eq6 = %v", got)
	}
	if got := m.ThreeStageParallel(); got != 36 {
		t.Errorf("Eq7 = %v", got)
	}
	if got := m.P2PParallel(); got != 2+4 {
		t.Errorf("Eq8 = %v", got)
	}
	// The paper's conclusion: with small TInj and T3 = T0, parallel p2p
	// beats parallel 3-stage.
	if m.P2PParallel() >= m.ThreeStageParallel() {
		t.Error("p2p-parallel must beat 3-stage-parallel")
	}
}

func TestBalanceThreadsEvens(t *testing.T) {
	links := []halo.Link{
		{Bytes: 1000, Hops: 1}, {Bytes: 1000, Hops: 1}, {Bytes: 1000, Hops: 1},
		{Bytes: 10, Hops: 3}, {Bytes: 10, Hops: 3}, {Bytes: 10, Hops: 3},
	}
	assign := halo.BalanceThreads(links, 3, 1e9, 1e-7)
	load := map[int]float64{}
	for i, th := range assign {
		if th < 0 || th >= 3 {
			t.Fatalf("thread %d out of range", th)
		}
		load[th] += float64(links[i].Bytes)/1e9 + float64(links[i].Hops)*1e-7
	}
	var min, max float64 = math.Inf(1), 0
	for _, l := range load {
		min = math.Min(min, l)
		max = math.Max(max, l)
	}
	if max > 2*min {
		t.Errorf("imbalanced: min %v max %v", min, max)
	}
}

func TestBalanceThreadsSingle(t *testing.T) {
	assign := halo.BalanceThreads([]halo.Link{{Bytes: 1}, {Bytes: 2}}, 1, 1, 1)
	for _, th := range assign {
		if th != 0 {
			t.Error("single thread must get everything")
		}
	}
}

// Property: every link is assigned, and the max thread load never exceeds
// the total divided by threads plus the largest single link (LPT bound).
func TestBalanceThreadsBoundProperty(t *testing.T) {
	f := func(sizes []uint16) bool {
		if len(sizes) == 0 {
			return true
		}
		links := make([]halo.Link, len(sizes))
		var total, biggest float64
		for i, s := range sizes {
			links[i] = halo.Link{Bytes: int(s) + 1, Hops: 1}
			c := float64(int(s)+1) + 1
			total += c
			if c > biggest {
				biggest = c
			}
		}
		n := 6
		assign := halo.BalanceThreads(links, n, 1, 1)
		load := make([]float64, n)
		for i, th := range assign {
			load[th] += float64(links[i].Bytes) + float64(links[i].Hops)
		}
		var max float64
		for _, l := range load {
			if l > max {
				max = l
			}
		}
		return max <= total/float64(n)+biggest+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestValidate(t *testing.T) {
	if err := halo.Validate(halo.P2P, halo.TransportMPI, halo.TNIPerRankSlot, 1); err != nil {
		t.Errorf("valid MPI p2p rejected: %v", err)
	}
	if err := halo.Validate(halo.P2P, halo.TransportMPI, halo.TNISprayAll, 1); err == nil {
		t.Error("MPI with spray policy accepted")
	}
	if err := halo.Validate(halo.P2P, halo.TransportUTofu, halo.TNIPerRankSlot, 6); err == nil {
		t.Error("multi-thread without thread-bound policy accepted")
	}
	if err := halo.Validate(halo.P2P, halo.TransportMPI, halo.TNIThreadBound, 6); err == nil {
		t.Error("thread-bound over MPI accepted")
	}
	if err := halo.Validate(halo.P2P, halo.TransportUTofu, halo.TNIThreadBound, 6); err != nil {
		t.Errorf("valid fine-grained config rejected: %v", err)
	}
}

func TestStringers(t *testing.T) {
	if halo.ThreeStage.String() != "3stage" || halo.P2P.String() != "p2p" {
		t.Error("pattern names")
	}
	if halo.TransportMPI.String() != "mpi" || halo.TransportUTofu.String() != "utofu" {
		t.Error("transport names")
	}
	if halo.TNIPerRankSlot.String() != "per-rank-slot" || halo.TNISprayAll.String() != "spray-all" ||
		halo.TNIThreadBound.String() != "thread-bound" {
		t.Error("policy names")
	}
}
