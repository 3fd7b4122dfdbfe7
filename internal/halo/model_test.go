package halo_test

import (
	"math"
	"testing"

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
