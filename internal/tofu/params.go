// Package tofu models the timing behaviour of the Fugaku TofuD interconnect
// and the A64FX node, providing the virtual-time substrate on which the MD
// communication variants are compared. Payload bytes move for real between
// simulated ranks; only *time* is modeled.
//
// The model captures the first-order effects the paper's analysis
// (section 3.1) depends on:
//
//   - a per-message CPU injection interval T_inj, much larger for MPI than
//     for the uTofu one-sided interface;
//   - per-hop network latency and per-link bandwidth serialization;
//   - six TNIs (network interfaces) per node, each with nine control queues;
//     messages transmitted by the same TNI serialize on its engine, which is
//     what makes one thread driving six TNIs slower than four ranks driving
//     one TNI each (Fig. 8 and Fig. 12);
//   - software overheads for memory registration (STADD) and for the
//     two-message length+payload protocol the MPI path needs (section 3.5.1).
package tofu

import "tofumd/internal/units"

// Params holds the calibrated hardware and software timing constants. All
// times are in seconds, bandwidth in bytes/second.
type Params struct {
	// BaseLatency is the fixed wire+switch latency of a put; together with
	// one HopLatency it forms the 0.49us minimal uTofu put latency.
	BaseLatency float64
	// HopLatency is the per-hop router traversal latency.
	HopLatency float64
	// LinkBandwidth is the injection bandwidth of one TNI port (6.8 GB/s).
	LinkBandwidth float64
	// TNIsPerNode is the number of Tofu network interfaces per node (6).
	TNIsPerNode int
	// CQsPerTNI is the number of control queues per TNI (9).
	CQsPerTNI int

	// UTofuInjectGap is T_inj for the uTofu interface: the CPU interval
	// between two consecutive message injections by one thread.
	UTofuInjectGap float64
	// UTofuPutOverhead is the one-time software cost of preparing one
	// one-sided put descriptor.
	UTofuPutOverhead float64
	// UTofuPollOverhead is the cost of harvesting one completion from the
	// MRQ at the receiver.
	UTofuPollOverhead float64

	// MPIInjectGap is T_inj for the MPI interface; the heavy software stack
	// (tag matching, protocol selection, fragmentation) makes it several
	// times larger than the uTofu gap.
	MPIInjectGap float64
	// MPISendOverhead is the per-message sender-side software cost beyond
	// the injection gap.
	MPISendOverhead float64
	// MPIRecvOverhead is the per-message receiver-side matching/copy cost.
	MPIRecvOverhead float64
	// MPIEagerLimit is the message size above which MPI switches to a
	// rendezvous protocol with an extra round trip.
	MPIEagerLimit units.Bytes

	// RegistrationCost is the kernel-trap cost of registering (STADD) one
	// memory region for RDMA.
	RegistrationCost float64
	// CacheInjection enables the TofuD cache-injection mechanism: the TNI
	// writes incoming payloads directly into the last-level cache, saving
	// the receiver a memory round trip per message. Disabling it charges
	// CacheMissPenalty on every receive.
	CacheInjection   bool
	CacheMissPenalty float64

	// TNIEngineGap is the hardware processing time of one command on a
	// TNI's message-processing engine. All CQs of a TNI share the engine
	// (Fig. 7), so commands arriving from different VCQs serialize at this
	// granularity — the source of the contention that makes 4 ranks sharing
	// 6 TNIs slower than 4 ranks owning one TNI each.
	TNIEngineGap float64
	// VCQSwitchOverhead is the sender-side software cost a thread pays when
	// its next injection targets a different VCQ than its previous one
	// (descriptor ring and doorbell locality are lost). A single thread
	// spraying all six TNIs pays it on almost every message, which is why
	// the 6TNI-p2p single-thread variant is "abnormally poor" (section 4.2).
	VCQSwitchOverhead float64
	// CompletionTimeout is how long (virtual seconds) after the expected
	// wire time a sender waits for a put/get completion before declaring
	// the transmission lost and retransmitting. Only consulted when a fault
	// model is attached to the fabric.
	CompletionTimeout float64
	// RetransmitBackoff is the base delay before the first retransmission;
	// attempt n waits min(RetransmitBackoff * 2^n, RetransmitBackoffCap).
	RetransmitBackoff    float64
	RetransmitBackoffCap float64
	// MaxRetransmits bounds uTofu retransmission attempts per put/get;
	// beyond it the operation is reported failed so the layer above can
	// fall back (the MPI path instead retries until MPIRetryLimit waves,
	// preserving reliable-transport semantics).
	MaxRetransmits int
	// MPIRetryLimit caps the number of retry waves ExchangeRound will run
	// before concluding the configured fault rate makes the reliable MPI
	// transport unsatisfiable (0 means the default of 64).
	MPIRetryLimit int

	// TNIVCQSwitchGap is the hardware-side cost the TNI engine pays when the
	// next command comes from a different VCQ than the one it last served:
	// the engine refetches the descriptor-ring context. It is much smaller
	// than the thread-side VCQSwitchOverhead (which models software-state
	// locality loss) but, unlike it, is charged on the shared engine, so
	// spraying many VCQs over few TNIs degrades the engine's throughput.
	TNIVCQSwitchGap float64
}

// DefaultParams returns constants calibrated against the paper's reported
// numbers: 0.49us minimal put latency, 6.8 GB/s links, and the Fig. 6 /
// Fig. 12 ratios between the MPI and uTofu code paths.
func DefaultParams() Params {
	return Params{
		BaseLatency:   0.34e-6,
		HopLatency:    0.10e-6,
		LinkBandwidth: 6.8e9,
		TNIsPerNode:   6,
		CQsPerTNI:     9,

		UTofuInjectGap:    0.20e-6,
		UTofuPutOverhead:  0.05e-6,
		UTofuPollOverhead: 0.08e-6,

		MPIInjectGap:    1.90e-6,
		MPISendOverhead: 0.55e-6,
		MPIRecvOverhead: 0.85e-6,
		MPIEagerLimit:   13 << 10,

		RegistrationCost: 35e-6,

		CacheInjection:   true,
		CacheMissPenalty: 0.20e-6,

		TNIEngineGap:      0.13e-6,
		VCQSwitchOverhead: 0.40e-6,
		TNIVCQSwitchGap:   0.02e-6,

		CompletionTimeout:    5e-6,
		RetransmitBackoff:    1e-6,
		RetransmitBackoffCap: 32e-6,
		MaxRetransmits:       4,
		MPIRetryLimit:        64,
	}
}

// Interface selects which software stack drives the fabric for a round.
type Interface int

const (
	// IfaceUTofu is the low-overhead one-sided uTofu path.
	IfaceUTofu Interface = iota
	// IfaceMPI is the two-sided MPI path with its heavier software stack.
	IfaceMPI
)

// String names the interface.
func (i Interface) String() string {
	if i == IfaceMPI {
		return "mpi"
	}
	return "utofu"
}

// InjectGap returns T_inj for the interface.
func (p *Params) InjectGap(i Interface) float64 {
	if i == IfaceMPI {
		return p.MPIInjectGap
	}
	return p.UTofuInjectGap
}

// SendOverhead returns the per-message sender software cost beyond the gap.
func (p *Params) SendOverhead(i Interface) float64 {
	if i == IfaceMPI {
		return p.MPISendOverhead
	}
	return p.UTofuPutOverhead
}

// RetryBackoff returns the backoff delay inserted before re-injecting a
// transfer whose attempt-th transmission was lost: attempt n waits
// min(RetransmitBackoff·2^n, RetransmitBackoffCap) after loss detection.
// The uTofu retry planner and the MPI reliable transport both use it, and
// the internal/fsm retransmit model asserts conformance with it.
func (p *Params) RetryBackoff(attempt int) float64 {
	backoff := p.RetransmitBackoff * float64(uint64(1)<<uint(attempt))
	if p.RetransmitBackoffCap > 0 && backoff > p.RetransmitBackoffCap {
		backoff = p.RetransmitBackoffCap
	}
	return backoff
}

// RecvOverhead returns the per-message receiver software cost.
func (p *Params) RecvOverhead(i Interface) float64 {
	if i == IfaceMPI {
		return p.MPIRecvOverhead
	}
	return p.UTofuPollOverhead
}
