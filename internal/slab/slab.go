// Package slab holds the record storage of the allocation-free round path.
// The comm stack's exported round functions take slices of pointers
// (RunRound([]*Transfer), ExecuteRound([]*Put), ExchangeRound([]*Message));
// allocating those records one by one per message per round was most of the
// simulator's garbage. A Slab keeps them in one backing array that is reused
// round after round.
package slab

// Slab hands out zeroed records of T, as a slice of pointers into one
// backing array. The records of a Take are valid until the next Take: the
// owner runs one round at a time and nothing keeps a record across rounds.
// The zero Slab is ready to use.
type Slab[T any] struct {
	recs []T
	ptrs []*T
}

// Take returns n zeroed records. It allocates only when n exceeds every
// earlier request. The caller may overwrite entries of the returned slice
// (a retransmit wave replaces a record with its follow-up); the next Take
// points every entry back into the slab.
func (s *Slab[T]) Take(n int) []*T {
	// Zeroing what the last round used, before the length changes, leaves
	// the whole backing array zero.
	s.Release()
	if cap(s.recs) < n {
		s.recs = make([]T, n)
		s.ptrs = make([]*T, n)
	}
	s.recs, s.ptrs = s.recs[:n], s.ptrs[:n]
	for i := range s.recs {
		s.ptrs[i] = &s.recs[i]
	}
	return s.ptrs
}

// Release ends the life of the last Take's records early: they are zeroed,
// so whatever they referenced (a round's payload buffers) is not kept alive
// until the next round. The storage itself stays.
func (s *Slab[T]) Release() {
	clear(s.recs)
	s.recs = s.recs[:0]
}
