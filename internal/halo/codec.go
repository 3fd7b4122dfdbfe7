package halo

import (
	"unsafe"

	"tofumd/internal/vec"
)

// Primitive payload codec shared by the halo consumers. Payload bytes never
// leave the process — a put copies them into another rank's registered
// memory, an MPI message hands them to the receiver — so the layout is the
// host's own: a byte payload is a view of the float64 words behind it, and
// encoding a contiguous range is a copy. The byte accounting is the paper's
// (a 3-float64 position is 24 bytes). Apps compose these into their payload
// formats — the MD engine's border/position/force records, the LBM
// distribution planes.
//
// This file is the one place the repository uses package unsafe. The views
// hold pointer-free words, so Go permits them at any alignment; the payload
// buffers are 8-aligned anyway (Go allocates byte slices a multiple of 8
// long on 8-byte boundaries, and records sit at multiples of 8 within them).

// F64Bytes is the wire size of one float64, v3Bytes that of a vec.V3.
const (
	F64Bytes = 8
	v3Bytes  = 3 * F64Bytes
)

// The views rely on vec.V3 being three float64 words and nothing else; this
// fails to compile otherwise.
var _ [v3Bytes - unsafe.Sizeof(vec.V3{})]struct{}
var _ [unsafe.Sizeof(vec.V3{}) - v3Bytes]struct{}

// F64s views b as float64 words in host layout; a tail shorter than a word
// is not part of the view. A buffer shorter than one word views as nil
// rather than as a word pointer reaching past its allocation.
func F64s(b []byte) []float64 {
	if len(b) < F64Bytes {
		return nil
	}
	return unsafe.Slice((*float64)(unsafe.Pointer(unsafe.SliceData(b))), len(b)/F64Bytes)
}

// V3s views b as 3-float64 vectors in host layout; a tail shorter than a
// vector is not part of the view.
func V3s(b []byte) []vec.V3 {
	if len(b) < v3Bytes {
		return nil
	}
	return unsafe.Slice((*vec.V3)(unsafe.Pointer(unsafe.SliceData(b))), len(b)/v3Bytes)
}

// V3Bytes views v's elements as their host-layout bytes: writing the bytes
// writes the vectors. A position array registered through this view is the
// section 3.4 landing zone that forward puts write straight into.
func V3Bytes(v []vec.V3) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(v))), len(v)*v3Bytes)
}

// PutF64 writes v into b.
func PutF64(b []byte, v float64) {
	F64s(b[:F64Bytes])[0] = v
}

// GetF64 reads a float64 from b.
func GetF64(b []byte) float64 {
	return F64s(b[:F64Bytes])[0]
}

// PutV3 writes the three components of v into b.
func PutV3(b []byte, v vec.V3) {
	V3s(b[:v3Bytes])[0] = v
}

// GetV3 reads three float64 components from b.
func GetV3(b []byte) vec.V3 {
	return V3s(b[:v3Bytes])[0]
}

// Grow returns a buffer of length n, reusing b's storage when it fits.
func Grow(b []byte, n int) []byte {
	if cap(b) < n {
		return make([]byte, n)
	}
	return b[:n]
}

// EncodeScalars packs s[base:base+count] into dst.
func EncodeScalars(dst []byte, s []float64, base, count int) []byte {
	dst = Grow(dst, count*F64Bytes)
	copy(F64s(dst), s[base:base+count])
	return dst
}

// DecodeScalars writes count scalars into s starting at base.
func DecodeScalars(src []byte, s []float64, base, count int) {
	copy(s[base:base+count], F64s(src[:count*F64Bytes]))
}
