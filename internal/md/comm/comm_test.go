// Package comm holds TestValidate, a test of internal/halo's pattern,
// transport and TNI-policy validation that predates the library's
// extraction. It stays at this path because internal/halo already has a
// test of that name; the directory's other tests now live in
// internal/halo.
package comm

import (
	"testing"

	"tofumd/internal/halo"
)

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
