package halo

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"tofumd/internal/vec"
)

// The codec as it was before payloads became host-layout views, copied
// verbatim (renamed): little-endian float64 words through encoding/binary.

func refPutF64(b []byte, v float64) {
	binary.LittleEndian.PutUint64(b, math.Float64bits(v))
}

func refGetF64(b []byte) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(b))
}

func refPutV3(b []byte, v vec.V3) {
	refPutF64(b[0:], v.X)
	refPutF64(b[8:], v.Y)
	refPutF64(b[16:], v.Z)
}

func refGetV3(b []byte) vec.V3 {
	return vec.V3{X: refGetF64(b[0:]), Y: refGetF64(b[8:]), Z: refGetF64(b[16:])}
}

func refEncodeScalars(dst []byte, s []float64, base, count int) []byte {
	dst = Grow(dst, count*F64Bytes)
	for k := 0; k < count; k++ {
		refPutF64(dst[k*F64Bytes:], s[base+k])
	}
	return dst
}

func refDecodeScalars(src []byte, s []float64, base, count int) {
	for k := 0; k < count; k++ {
		s[base+k] = refGetF64(src[k*F64Bytes:])
	}
}

// codecValues returns random float64s of every magnitude interleaved with
// the values a byte codec can get wrong: both zeros and infinities, quiet
// and signalling NaNs with payloads and either sign, subnormals and the
// extremes of the normal range.
func codecValues() []float64 {
	special := []uint64{
		0x0000_0000_0000_0000, 0x8000_0000_0000_0000, // ±0
		0x7ff0_0000_0000_0000, 0xfff0_0000_0000_0000, // ±Inf
		0x7ff8_0000_0000_0000, 0xfff8_0000_0000_0001, // quiet NaNs
		0x7ff0_0000_0000_0001, 0x7ff4_dead_beef_cafe, // signalling NaNs
		0xfff7_ffff_ffff_ffff, 0x7fff_ffff_ffff_ffff, // NaN payload extremes
		0x0000_0000_0000_0001, 0x800f_ffff_ffff_ffff, // subnormals
		0x000f_ffff_ffff_ffff, 0x8000_0000_0000_0001,
		0x0010_0000_0000_0000, 0x7fef_ffff_ffff_ffff, // smallest, largest normal
	}
	rng := rand.New(rand.NewSource(43))
	var out []float64
	for _, bits := range special {
		out = append(out, math.Float64frombits(bits), math.Float64frombits(rng.Uint64()))
	}
	for range 64 {
		out = append(out, math.Float64frombits(rng.Uint64()), rng.NormFloat64()*math.Pow(10, float64(rng.Intn(40)-20)))
	}
	return out
}

// sameBits reports whether two float64s are the same bit pattern (NaN
// payloads and zero signs included).
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestCodecMatchesLittleEndian holds the host-layout codec to the
// little-endian one it replaced: on a little-endian host the bytes and the
// decoded bits are identical, so nothing that reads a payload can tell.
func TestCodecMatchesLittleEndian(t *testing.T) {
	if binary.NativeEndian.Uint16([]byte{1, 0}) != 1 {
		t.Skip("big-endian host: the host-layout codec is byte-swapped against the little-endian reference by design; payload bytes never leave the process")
	}
	vals := codecValues()

	// PutV3/GetV3 at every word offset of one buffer.
	got, want := make([]byte, len(vals)*F64Bytes), make([]byte, len(vals)*F64Bytes)
	for i := 0; i+3 <= len(vals); i++ {
		v := vec.V3{X: vals[i], Y: vals[i+1], Z: vals[i+2]}
		PutV3(got[i*F64Bytes:], v)
		refPutV3(want[i*F64Bytes:], v)
		if !bytes.Equal(got[i*F64Bytes:][:24], want[i*F64Bytes:][:24]) {
			t.Fatalf("PutV3 at word %d: bytes differ from the little-endian codec", i)
		}
		g, w := GetV3(got[i*F64Bytes:]), refGetV3(want[i*F64Bytes:])
		if !sameBits(g.X, w.X) || !sameBits(g.Y, w.Y) || !sameBits(g.Z, w.Z) {
			t.Fatalf("GetV3 at word %d = %v, little-endian %v", i, g, w)
		}
	}

	// EncodeScalars/DecodeScalars over sub-ranges, into nil, short and
	// dirty oversized buffers.
	dirty := func(n int) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = 0xa5
		}
		return b
	}
	for _, r := range []struct{ base, count int }{{0, 0}, {0, 1}, {3, 7}, {0, len(vals)}, {len(vals) - 5, 5}} {
		for _, dst := range [][]byte{nil, dirty(4), dirty((r.count + 3) * F64Bytes)} {
			enc := EncodeScalars(append([]byte(nil), dst...), vals, r.base, r.count)
			ref := refEncodeScalars(append([]byte(nil), dst...), vals, r.base, r.count)
			if !bytes.Equal(enc, ref) {
				t.Fatalf("EncodeScalars(base %d, count %d, dst %d B) differs from the little-endian codec",
					r.base, r.count, len(dst))
			}
			dec, refDec := make([]float64, len(vals)), make([]float64, len(vals))
			DecodeScalars(ref, dec, r.base, r.count)
			refDecodeScalars(ref, refDec, r.base, r.count)
			for i := range dec {
				if !sameBits(dec[i], refDec[i]) {
					t.Fatalf("DecodeScalars(base %d, count %d) word %d = %#x, little-endian %#x",
						r.base, r.count, i, math.Float64bits(dec[i]), math.Float64bits(refDec[i]))
				}
			}
		}
	}
}
