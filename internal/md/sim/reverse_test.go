package sim

import (
	"math"
	"testing"
	"unsafe"

	"tofumd/internal/halo"
	"tofumd/internal/vec"
)

// stagedReverseOp is the reverse operation as it was before it sent from
// F, kept verbatim as the reference: each ghost holder encodes its ghost
// force range into the side's scratch, the put copies the scratch, and the
// owner accumulates it.
var stagedReverseOp = haloOp{
	rev: true, known: true, recBytes: posBytes,
	pack: func(r *Rank, l *link, buf []byte) []byte {
		return stagedEncodeVectors(buf, r.Atoms.F, l.recvStart, l.recvCount)
	},
	unpack: func(r *Rank, l *link, data []byte) {
		decodeAddVectors(data, r.Atoms.F, l.sendList)
	},
}

// stagedEncodeVectors packs raw vectors (forces) for a ghost range.
func stagedEncodeVectors(dst []byte, f []vec.V3, base, count int) []byte {
	dst = halo.Grow(dst, count*posBytes)
	copy(halo.V3s(dst), f[base:base+count])
	return dst
}

// overlaps reports whether the capacities of a and b share memory: a
// scratch that overlaps an array would write into it when grown.
func overlaps(a, b []byte) bool {
	if cap(a) == 0 || cap(b) == 0 {
		return false
	}
	pa := uintptr(unsafe.Pointer(unsafe.SliceData(a)))
	pb := uintptr(unsafe.Pointer(unsafe.SliceData(b)))
	return pa < pb+uintptr(cap(b)) && pb < pa+uintptr(cap(a))
}

// TestReverseSendsFromForceArray: the reverse operation sends each ghost
// force range straight from the holder's F. Two identical simulations
// evaluate forces and run the reverse operation, one sending from F and
// one through stagedReverseOp, twice over; after each, every force,
// EAM density and embedding derivative and every rank clock is bit-equal
// between them, under uTofu (p2p and 3-stage), under MPI (where the
// receiver reads the holder's F itself) and with one link degraded to the
// MPI fallback. No side's packing scratch may overlap any rank's F
// afterwards: the EAM scalar operations of the second force evaluation grow
// that scratch, and would write into F if the view had been kept there.
func TestReverseSendsFromForceArray(t *testing.T) {
	lj := func(*testing.T) Config { return failstopConfig() }
	for _, tc := range []struct {
		name    string
		v       Variant
		cfg     func(*testing.T) Config
		degrade bool
	}{
		{"utofu-p2p", Opt(), lj, false},
		{"utofu-3stage", UTofu3Stage(), lj, false},
		{"mpi-3stage", Ref(), lj, false},
		{"degraded-link", Opt(), lj, true},
		{"eam-utofu", Opt(), eamConfig, false},
		{"eam-mpi", Ref(), eamConfig, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, want := newSim(t, tc.v, tc.cfg(t)), newSim(t, tc.v, tc.cfg(t))
			// Set-up ran the reverse operation under test in both; the
			// reference starts over from empty scratch, so anything that
			// run left in a side's scratch shows as a difference.
			for i := range want.links {
				want.links[i].fwd.buf, want.links[i].rev.buf = nil, nil
			}
			if tc.degrade {
				for _, s := range []*Simulation{got, want} {
					// In the reverse operation rank 0 sends on each receive
					// link back to the link's source.
					src, dst := s.ranks[0].ID, s.ranks[0].recvLinks[0].src.ID
					for range fallbackK {
						s.fb.RecordFailure(src, dst)
					}
				}
			}
			for cycle := 0; cycle < 2; cycle++ {
				for _, s := range []*Simulation{got, want} {
					s.forRanks(func(id int) { s.firstForcePass(s.ranks[id]) })
					s.finishForces()
				}
				got.runOp(reverseOp, nil)
				want.runOp(stagedReverseOp, nil)
				overMPI := 0
				for _, m := range got.lastRound(reverseOp).Msgs {
					if m.OverMPI {
						overMPI++
					}
				}
				if tc.degrade && overMPI == 0 {
					t.Fatalf("cycle %d: no message of the last round went over MPI", cycle)
				}
				for id, r := range got.ranks {
					w := want.ranks[id]
					if math.Float64bits(r.Clock) != math.Float64bits(w.Clock) {
						t.Fatalf("cycle %d rank %d: clock %v, staged reference %v", cycle, id, r.Clock, w.Clock)
					}
					for _, arr := range []struct {
						name      string
						got, want []float64
					}{
						{"F", f64s(r.Atoms.F), f64s(w.Atoms.F)},
						{"Rho", r.Atoms.Rho, w.Atoms.Rho},
						{"Fp", r.Atoms.Fp, w.Atoms.Fp},
					} {
						if len(arr.got) != len(arr.want) {
							t.Fatalf("cycle %d rank %d: %d %s values, staged reference %d", cycle, id, len(arr.got), arr.name, len(arr.want))
						}
						for i := range arr.got {
							if math.Float64bits(arr.got[i]) != math.Float64bits(arr.want[i]) {
								t.Fatalf("cycle %d rank %d: %s word %d = %v, staged reference %v",
									cycle, id, arr.name, i, arr.got[i], arr.want[i])
							}
						}
					}
				}
				for i := range got.links {
					l := &got.links[i]
					for _, sd := range []*side{&l.fwd, &l.rev} {
						for _, r := range got.ranks {
							if overlaps(sd.buf, halo.V3Bytes(r.Atoms.F[:cap(r.Atoms.F)])) {
								t.Fatalf("cycle %d: link %d→%d keeps a scratch inside rank %d's F", cycle, l.src.ID, l.dst.ID, r.ID)
							}
						}
					}
				}
			}
		})
	}
}

// f64s flattens vectors into their float64 words.
func f64s(v []vec.V3) []float64 {
	return halo.F64s(halo.V3Bytes(v))
}
