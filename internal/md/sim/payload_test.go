package sim

import (
	"math"
	"testing"

	"tofumd/internal/vec"
)

// TestExchangeCodecRoundTrip pins the exchange wire format doExchange now
// relies on: migrating atoms are decoded from the message bytes, not handed
// across in memory, so every field must survive encode -> decode exactly.
func TestExchangeCodecRoundTrip(t *testing.T) {
	cases := []struct {
		name string
		recs []exchRecord
	}{
		{"zero-records", nil},
		{"one", []exchRecord{{id: 7, typ: 1, pos: vec.V3{X: 1, Y: 2, Z: 3}, vel: vec.V3{X: -1, Y: -2, Z: -3}}}},
		{"negative-type-and-id", []exchRecord{{id: -9, typ: -2, pos: vec.V3{X: -0.5}, vel: vec.V3{Z: 1e-300}}}},
		{"extremes", []exchRecord{
			{id: math.MaxInt64, typ: math.MaxInt32, pos: vec.V3{X: math.MaxFloat64, Y: math.SmallestNonzeroFloat64, Z: math.Copysign(0, -1)}},
			{id: math.MinInt64, typ: math.MinInt32, vel: vec.V3{X: math.Inf(1), Y: math.Inf(-1)}},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// A dirty, oversized scratch must not leak into the encoding.
			scratch := make([]byte, 3*exchBytes)
			for i := range scratch {
				scratch[i] = 0xff
			}
			for _, dst := range [][]byte{nil, scratch} {
				data := encodeExchange(dst, tc.recs)
				if len(data) != len(tc.recs)*exchBytes {
					t.Fatalf("encoded %d bytes, want %d", len(data), len(tc.recs)*exchBytes)
				}
				got := decodeExchange(data)
				if len(got) != len(tc.recs) {
					t.Fatalf("decoded %d records, want %d", len(got), len(tc.recs))
				}
				for i, want := range tc.recs {
					if got[i] != want ||
						math.Signbit(got[i].pos.Z) != math.Signbit(want.pos.Z) {
						t.Errorf("record %d = %+v, want %+v", i, got[i], want)
					}
				}
			}
		})
	}
}
