package restart

import (
	"bytes"
	"math"
	"testing"

	"tofumd/internal/md/sim"
	"tofumd/internal/vec"
)

// FuzzRead drives the checkpoint reader with arbitrary bytes. The contract
// under test: Read never panics and never over-allocates on a lying atom
// count, and anything it accepts survives a rewrite through the current
// writer bit-stably.
func FuzzRead(f *testing.F) {
	snap := &Snapshot{
		Step: 7,
		Box:  vec.V3{X: 4, Y: 4, Z: 4},
		Atoms: []sim.InitAtom{
			{ID: 1, Type: 1, Pos: vec.V3{X: 0.5, Y: 1.5, Z: 2.5}, Vel: vec.V3{X: -1, Y: 0, Z: 1}},
			{ID: 2, Type: 1, Pos: vec.V3{X: 3, Y: 3, Z: 3}},
		},
	}
	var buf bytes.Buffer
	if err := Write(&buf, snap); err != nil {
		f.Fatal(err)
	}
	v2 := buf.Bytes()
	// The version-1 encoding is the same body with the old magic and no
	// checksum trailer: a must-reject seed.
	v1 := append([]byte(magicV1), v2[len(magicV2):len(v2)-4]...)
	f.Add(v2)
	f.Add(v1)
	f.Add([]byte{})
	f.Add([]byte("TOFUMD99garbage"))
	f.Add(v2[:len(v2)-5])
	// A huge atom count with no atoms behind it must fail fast.
	lying := append([]byte{}, v2[:len(magicV2)+4*8]...)
	lying = append(lying, 0xff, 0xff, 0xff, 0x0f, 0, 0, 0, 0)
	f.Add(lying)

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := Read(bytes.NewReader(data))
		if err != nil {
			if got != nil {
				t.Fatalf("Read returned both a snapshot and error %v", err)
			}
			return
		}
		if bytes.HasPrefix(data, []byte(magicV1)) {
			t.Fatal("un-checksummed version-1 checkpoint accepted")
		}
		var out bytes.Buffer
		if err := Write(&out, got); err != nil {
			t.Fatalf("rewrite of accepted checkpoint failed: %v", err)
		}
		again, err := Read(&out)
		if err != nil {
			t.Fatalf("rewrite of accepted checkpoint rejected: %v", err)
		}
		if again.Step != got.Step || !v3Bits(again.Box, got.Box) || len(again.Atoms) != len(got.Atoms) {
			t.Fatal("checkpoint changed across rewrite")
		}
		for i := range got.Atoms {
			a, b := got.Atoms[i], again.Atoms[i]
			if a.ID != b.ID || a.Type != b.Type || !v3Bits(a.Pos, b.Pos) || !v3Bits(a.Vel, b.Vel) {
				t.Fatalf("atom %d changed across rewrite", i)
			}
		}
	})
}

// v3Bits compares vectors bitwise so fuzz-produced NaNs still count as
// round-trip-stable.
func v3Bits(a, b vec.V3) bool {
	return math.Float64bits(a.X) == math.Float64bits(b.X) &&
		math.Float64bits(a.Y) == math.Float64bits(b.Y) &&
		math.Float64bits(a.Z) == math.Float64bits(b.Z)
}
