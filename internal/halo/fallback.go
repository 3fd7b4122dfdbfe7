package halo

// Fallback tracks per-neighbor retransmission health for graceful
// degradation: after K consecutive failed uTofu deliveries to a neighbor,
// the p2p plan routes that neighbor's messages over the 3-stage MPI path
// for the round instead of burning further retransmit budget. A successful
// delivery re-arms the neighbor. A nil *Fallback (or K <= 0) disables the
// mechanism; all methods are nil-safe.
type Fallback struct {
	// K is the consecutive-failure threshold that trips a neighbor into
	// degraded mode.
	K int
	// consec counts consecutive failures per (src, dst) ordered pair.
	consec map[[2]int]int
}

// NewFallback returns a tracker tripping after k consecutive failures, or
// nil (disabled) for k <= 0.
func NewFallback(k int) *Fallback {
	if k <= 0 {
		return nil
	}
	return &Fallback{K: k, consec: make(map[[2]int]int)}
}

// RecordFailure notes one permanently failed delivery from src to dst.
func (f *Fallback) RecordFailure(src, dst int) {
	if f == nil {
		return
	}
	f.consec[[2]int{src, dst}]++
}

// RecordSuccess notes a clean (possibly retransmitted but delivered) put
// from src to dst, re-arming the pair. With no failure on record it
// returns at once: every put of a fault-free round calls it.
func (f *Fallback) RecordSuccess(src, dst int) {
	if f == nil || len(f.consec) == 0 {
		return
	}
	delete(f.consec, [2]int{src, dst})
}

// Degraded reports whether src→dst has accumulated K consecutive failures
// and should be routed over the MPI path.
func (f *Fallback) Degraded(src, dst int) bool {
	return f != nil && f.consec[[2]int{src, dst}] >= f.K
}

// DegradedCount returns the number of currently degraded pairs.
func (f *Fallback) DegradedCount() int {
	if f == nil {
		return 0
	}
	n := 0
	for _, c := range f.consec {
		if c >= f.K {
			n++
		}
	}
	return n
}

// Reset clears all failure history (called when the communication plan is
// rebuilt, so a re-neighbored topology re-probes every link).
func (f *Fallback) Reset() {
	if f == nil {
		return
	}
	clear(f.consec)
}
