package sim

import (
	"fmt"

	"tofumd/internal/halo"
	"tofumd/internal/machine"
)

// Variant describes one of the paper's code configurations: the artifact
// ships five projects (ref, utofu_3stage, 4tni_p2p, 6tni_p2p, opt) and
// Fig. 6 additionally measures a naive MPI p2p.
type Variant struct {
	// Name is the artifact-style identifier.
	Name string
	// Pattern is the halo-exchange pattern.
	Pattern halo.Pattern
	// Transport selects MPI or uTofu.
	Transport halo.Transport
	// TNIPolicy maps messages onto TNIs.
	TNIPolicy halo.TNIPolicy
	// CommThreads is the number of communication threads per rank (1, or 6
	// for the fine-grained thread pool).
	CommThreads int
	// ComputeThreading charges OpenMP-style or thread-pool-style region
	// overheads for compute stages.
	ComputeThreading machine.Threading
	// Preregistered enables the section 3.4 optimizations: one-time
	// max-size registration, direct-to-array forward writes and piggybacked
	// recv_ptr offsets. Every uTofu inbox, pre-registered or grown on
	// demand, is one buffer charged as halo.InboxSlots registrations.
	Preregistered bool
	// CombineLength enables the message-combine optimization
	// (section 3.5.1) on the MPI transport.
	CombineLength bool
	// BorderBins enables the 3x3x3 border-bin routing (section 3.5.2).
	BorderBins bool
}

// Ref is the baseline LAMMPS: MPI 3-stage, OpenMP compute.
func Ref() Variant {
	return Variant{
		Name:             "ref",
		Pattern:          halo.ThreeStage,
		Transport:        halo.TransportMPI,
		TNIPolicy:        halo.TNIPerRankSlot,
		CommThreads:      1,
		ComputeThreading: machine.OpenMP,
	}
}

// MPIP2P is the naive p2p over MPI of Fig. 6 — slower than the baseline
// because of the MPI software stack.
func MPIP2P() Variant {
	v := Ref()
	v.Name = "mpi-p2p"
	v.Pattern = halo.P2P
	return v
}

// UTofu3Stage keeps the 3-stage pattern but drives it through uTofu.
func UTofu3Stage() Variant {
	return Variant{
		Name:             "utofu-3stage",
		Pattern:          halo.ThreeStage,
		Transport:        halo.TransportUTofu,
		TNIPolicy:        halo.TNIPerRankSlot,
		CommThreads:      1,
		ComputeThreading: machine.OpenMP,
	}
}

// P2P4TNI is the coarse-grained p2p: uTofu, each rank bound to one TNI.
func P2P4TNI() Variant {
	v := UTofu3Stage()
	v.Name = "4tni-p2p"
	v.Pattern = halo.P2P
	return v
}

// P2P6TNI sprays a single thread's messages over all six TNIs — the
// "abnormally poor" configuration of section 4.2.
func P2P6TNI() Variant {
	v := P2P4TNI()
	v.Name = "6tni-p2p"
	v.TNIPolicy = halo.TNISprayAll
	return v
}

// Opt is the fully optimized code: fine-grained thread-pool p2p over six
// TNIs with pre-registered buffers, message combine and border bins.
func Opt() Variant {
	return Variant{
		Name:             "opt",
		Pattern:          halo.P2P,
		Transport:        halo.TransportUTofu,
		TNIPolicy:        halo.TNIThreadBound,
		CommThreads:      6,
		ComputeThreading: machine.Pool,
		Preregistered:    true,
		CombineLength:    true,
		BorderBins:       true,
	}
}

// StepByStepVariants returns the five Fig. 12 configurations plus the MPI
// p2p of Fig. 6, in the paper's presentation order.
func StepByStepVariants() []Variant {
	return []Variant{Ref(), MPIP2P(), UTofu3Stage(), P2P4TNI(), P2P6TNI(), Opt()}
}

// VariantByName resolves a variant name against the step-by-step set.
func VariantByName(name string) (Variant, error) {
	for _, v := range StepByStepVariants() {
		if v.Name == name {
			return v, nil
		}
	}
	return Variant{}, fmt.Errorf("unknown variant %q", name)
}

// PackThreading is the threading mode message packing and unpacking run
// under: parallelized by the comm threads under the fine-grained scheme,
// serial otherwise.
func (v Variant) PackThreading() machine.Threading {
	if v.CommThreads > 1 {
		return machine.Pool
	}
	return machine.Serial
}

// Validate checks the variant's internal consistency.
func (v Variant) Validate() error {
	if err := halo.Validate(v.Pattern, v.Transport, v.TNIPolicy, v.CommThreads); err != nil {
		return err
	}
	if v.Preregistered && v.Transport != halo.TransportUTofu {
		return fmt.Errorf("sim: pre-registered buffers require the uTofu transport")
	}
	return nil
}
