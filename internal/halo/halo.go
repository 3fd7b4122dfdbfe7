// Package halo is the generic halo-exchange library extracted from the MD
// engine: the communication *plans* (which neighbors a rank exchanges with
// under the staged trunk-exchange and direct peer-to-peer patterns, how
// messages map onto TNIs/threads/VCQs), the analytic time model of
// section 3.1 (Equations 3-8), the decomposition of a global extent over a
// topo.RankMap, the registered receive buffers of section 3.4 (one per
// inbox, charged as the paper's four round-robin slots), the one round
// container every consumer aims and replays (Round), and a
// bulk-synchronous round Engine that executes app-packed payloads over the
// uTofu one-sided stack with an MPI fallback.
//
// Payload encoding is app-defined: the library moves []byte. The MD engine
// (internal/md/sim) binds its border/position/force codecs statically and
// drives every ghost round through the Engine; the lattice-Boltzmann
// workload (internal/lbm) packs distribution-function planes through the
// same seam.
package halo

import "fmt"

// Pattern selects the halo-exchange communication pattern.
type Pattern int

const (
	// ThreeStage is the staged trunk exchange (the LAMMPS default): three
	// sequential dimension rounds of two messages each, with forwarding
	// between rounds (Fig. 4).
	ThreeStage Pattern = iota
	// P2P exchanges directly with every neighbor of the shell (Fig. 5).
	P2P
)

// String names the pattern.
func (p Pattern) String() string {
	if p == ThreeStage {
		return "3stage"
	}
	return "p2p"
}

// Transport selects the software stack driving the fabric.
type Transport int

const (
	// TransportMPI is the heavy two-sided stack (baseline).
	TransportMPI Transport = iota
	// TransportUTofu is the low-overhead one-sided interface.
	TransportUTofu
)

// String names the transport.
func (t Transport) String() string {
	if t == TransportMPI {
		return "mpi"
	}
	return "utofu"
}

// TNIPolicy selects how a rank's messages map onto the node's six TNIs.
type TNIPolicy int

const (
	// TNIPerRankSlot binds each rank to the one TNI matching its node slot
	// (the coarse-grained 4-TNI scheme, section 3.2).
	TNIPerRankSlot TNIPolicy = iota
	// TNISprayAll cycles one thread's messages over all six TNIs (the
	// 6TNI-p2p single-thread variant; poor due to VCQ switching and
	// cross-rank contention, section 4.2).
	TNISprayAll
	// TNIThreadBound gives each of the six communication threads its own
	// VCQ on its own TNI (the fine-grained scheme, section 3.3).
	TNIThreadBound
)

// String names the policy.
func (p TNIPolicy) String() string {
	switch p {
	case TNIPerRankSlot:
		return "per-rank-slot"
	case TNISprayAll:
		return "spray-all"
	default:
		return "thread-bound"
	}
}

// Validate sanity-checks a pattern/transport combination: the fine-grained
// thread-bound policy requires the uTofu transport (MPI progress is single
// threaded in the baseline).
func Validate(p Pattern, t Transport, pol TNIPolicy, threads int) error {
	if t == TransportMPI && pol != TNIPerRankSlot {
		return fmt.Errorf("halo: MPI transport supports only the per-rank-slot TNI policy")
	}
	if threads > 1 && pol != TNIThreadBound {
		return fmt.Errorf("halo: %d comm threads require the thread-bound TNI policy", threads)
	}
	if pol == TNIThreadBound && t != TransportUTofu {
		return fmt.Errorf("halo: thread-bound VCQs require the uTofu transport")
	}
	return nil
}
