package halo_test

import (
	"math"
	"testing"
	"testing/quick"

	"tofumd/internal/halo"
)

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
