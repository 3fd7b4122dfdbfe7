package slab

import "testing"

type rec struct {
	a int
	p *int
}

func TestTakeZeroesAndRepoints(t *testing.T) {
	var s Slab[rec]
	x := 7
	first := s.Take(4)
	for i, r := range first {
		r.a, r.p = i+1, &x
	}
	// A caller-side replacement must not survive into the next Take.
	first[2] = &rec{a: 99}

	small := s.Take(2)
	if len(small) != 2 {
		t.Fatalf("Take(2) returned %d records", len(small))
	}
	again := s.Take(4)
	for i, r := range again {
		if *r != (rec{}) {
			t.Errorf("record %d not zeroed after reuse: %+v", i, *r)
		}
		if r != &s.recs[i] {
			t.Errorf("entry %d does not point into the slab", i)
		}
	}
}

func TestReleaseDropsReferences(t *testing.T) {
	var s Slab[rec]
	x := 7
	recs := s.Take(3)
	for _, r := range recs {
		r.p = &x
	}
	s.Release()
	for i := range recs {
		if *recs[i] != (rec{}) {
			t.Errorf("record %d still holds %+v after Release", i, *recs[i])
		}
	}
}

func TestTakeAllocatesOnlyOnGrowth(t *testing.T) {
	var s Slab[rec]
	s.Take(64)
	if avg := testing.AllocsPerRun(20, func() { s.Take(64); s.Take(8) }); avg != 0 {
		t.Errorf("Take within capacity allocates %.1f per call, want 0", avg)
	}
}
