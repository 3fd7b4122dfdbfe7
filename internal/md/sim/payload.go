package sim

import (
	"encoding/binary"

	"tofumd/internal/halo"
	"tofumd/internal/vec"
)

// Message payload encodings, composed directly from the halo library's
// host-layout codec: payload bytes never leave the process, so a position
// or force payload is a halo.V3s view and a contiguous range is one copy (a
// contiguous scalar range is halo.EncodeScalars / DecodeScalars as is).
// Wire sizes match the paper's accounting: a forward-stage position is 24
// bytes (3 float64), so the 22-atom messages of the 65K/768-node
// configuration are 528 bytes (section 4.2); border-stage records carry
// id + type + position (40 bytes).

const (
	posBytes    = 24
	borderBytes = 40
	exchBytes   = 64 // id + type + position + velocity
)

// encodePositions packs X[idx]+shift for each index in list.
func encodePositions(dst []byte, x []vec.V3, list []int32, shift vec.V3) []byte {
	dst = halo.Grow(dst, len(list)*posBytes)
	out := halo.V3s(dst)
	for k, idx := range list {
		out[k] = x[idx].Add(shift)
	}
	return dst
}

// decodePositions unpacks count positions into x starting at base.
func decodePositions(src []byte, x []vec.V3, base, count int) {
	copy(x[base:base+count], halo.V3s(src[:count*posBytes]))
}

// encodeVectors packs raw vectors (forces) for a ghost range.
func encodeVectors(dst []byte, f []vec.V3, base, count int) []byte {
	dst = halo.Grow(dst, count*posBytes)
	copy(halo.V3s(dst), f[base:base+count])
	return dst
}

// decodeAddVectors accumulates count vectors into f at the listed indices.
func decodeAddVectors(src []byte, f []vec.V3, list []int32) {
	in := halo.V3s(src[:len(list)*posBytes])
	for k, idx := range list {
		f[idx] = f[idx].Add(in[k])
	}
}

// encodeScalars packs Rho/Fp values for the listed indices.
func encodeScalars(dst []byte, s []float64, list []int32) []byte {
	dst = halo.Grow(dst, len(list)*halo.F64Bytes)
	out := halo.F64s(dst)
	for k, idx := range list {
		out[k] = s[idx]
	}
	return dst
}

// decodeAddScalars accumulates scalars into s at the listed indices.
func decodeAddScalars(src []byte, s []float64, list []int32) {
	in := halo.F64s(src[:len(list)*halo.F64Bytes])
	for k, idx := range list {
		s[idx] += in[k]
	}
}

// borderRecord describes one atom shipped during the border stage.
type borderRecord struct {
	id  int64
	typ int32
	pos vec.V3
}

// encodeBorder packs border records for the listed indices.
func encodeBorder(dst []byte, ids []int64, types []int32, x []vec.V3, list []int32, shift vec.V3) []byte {
	need := len(list) * borderBytes
	dst = halo.Grow(dst, need)
	for k, idx := range list {
		o := k * borderBytes
		binary.NativeEndian.PutUint64(dst[o:], uint64(ids[idx]))
		binary.NativeEndian.PutUint64(dst[o+8:], uint64(types[idx]))
		halo.PutV3(dst[o+16:], x[idx].Add(shift))
	}
	return dst[:need]
}

// decodeBorder unpacks border records.
func decodeBorder(src []byte) []borderRecord {
	n := len(src) / borderBytes
	out := make([]borderRecord, n)
	for k := 0; k < n; k++ {
		o := k * borderBytes
		out[k] = borderRecord{
			id:  int64(binary.NativeEndian.Uint64(src[o:])),
			typ: int32(binary.NativeEndian.Uint64(src[o+8:])),
			pos: halo.GetV3(src[o+16:]),
		}
	}
	return out
}

// exchRecord is one migrating atom.
type exchRecord struct {
	id  int64
	typ int32
	pos vec.V3
	vel vec.V3
}

// encodeExchange packs migrating atoms.
func encodeExchange(dst []byte, recs []exchRecord) []byte {
	need := len(recs) * exchBytes
	dst = halo.Grow(dst, need)
	for k, r := range recs {
		o := k * exchBytes
		binary.NativeEndian.PutUint64(dst[o:], uint64(r.id))
		binary.NativeEndian.PutUint64(dst[o+8:], uint64(r.typ))
		halo.PutV3(dst[o+16:], r.pos)
		halo.PutV3(dst[o+40:], r.vel)
	}
	return dst[:need]
}

// decodeExchange unpacks migrating atoms.
func decodeExchange(src []byte) []exchRecord {
	n := len(src) / exchBytes
	out := make([]exchRecord, n)
	for k := 0; k < n; k++ {
		o := k * exchBytes
		out[k] = exchRecord{
			id:  int64(binary.NativeEndian.Uint64(src[o:])),
			typ: int32(binary.NativeEndian.Uint64(src[o+8:])),
			pos: halo.GetV3(src[o+16:]),
			vel: halo.GetV3(src[o+40:]),
		}
	}
	return out
}
