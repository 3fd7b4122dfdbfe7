package sim

import (
	"bytes"
	"fmt"
	"math"
	"sync"
	"testing"

	"tofumd/internal/faultinject"
	"tofumd/internal/halo"
	"tofumd/internal/metrics"
	"tofumd/internal/trace"
	"tofumd/internal/vec"
)

// chaosRun executes an LJ melt under the given fault spec and returns the
// final atom states, the total energy per atom, and the metrics registry.
func chaosRun(t *testing.T, steps int, spec faultinject.Spec, rec *trace.Recorder) ([]InitAtom, float64, *metrics.Registry) {
	t.Helper()
	cfg := ljConfig()
	cfg.Cells = vec.I3{X: 8, Y: 8, Z: 8}
	s := newSim(t, Opt(), cfg)
	reg := metrics.New()
	s.SetMetrics(reg)
	if rec != nil {
		s.SetRecorder(rec)
	}
	// Set after New so setup rounds stay fault-free, as mdsim does.
	s.SetFaults(faultinject.New(spec))
	s.Run(steps)
	return s.Gather(), s.TotalEnergyPerAtom(), reg
}

func assertSamePhysics(t *testing.T, label string, base, got []InitAtom, baseE, gotE float64) {
	t.Helper()
	if gotE != baseE {
		t.Errorf("%s: energy/atom %v != fault-free %v", label, gotE, baseE)
	}
	if len(got) != len(base) {
		t.Fatalf("%s: %d atoms != fault-free %d", label, len(got), len(base))
	}
	for i := range base {
		if got[i] != base[i] {
			t.Fatalf("%s: atom %d diverged: %+v != %+v", label, base[i].ID, got[i], base[i])
		}
	}
}

// TestChaosPhysicsBitIdentical is the headline fault-injection guarantee:
// drops only move virtual time and routing, never payload contents, so a
// melt under any drop rate ends in the bit-exact same state as a fault-free
// one. A retransmitted put lands in the same inbox buffer the lost one was
// aimed at, so retransmission is idempotent (section 3.4), which is what
// this test pins down.
func TestChaosPhysicsBitIdentical(t *testing.T) {
	const steps = 200
	base, baseE, _ := chaosRun(t, steps, faultinject.Spec{}, nil)
	for _, rate := range []float64{0, 1e-4, 1e-2} {
		got, gotE, reg := chaosRun(t, steps, faultinject.Spec{Seed: 7, Drop: rate}, nil)
		label := faultinject.Spec{Seed: 7, Drop: rate}.String()
		assertSamePhysics(t, label, base, got, baseE, gotE)
		retr := reg.Counter("utofu_retransmits", "put").Value()
		if rate >= 1e-2 && retr == 0 {
			t.Errorf("%s: no retransmissions recorded over %d steps", label, steps)
		}
		if rate == 0 && retr != 0 {
			t.Errorf("%s: %d retransmissions without faults", label, retr)
		}
	}
}

// TestChaosDeterministicReplay runs the same faulty melt twice: metrics and
// virtual time must be bit-identical, the property the (seed, round, link)
// stream keying exists for.
func TestChaosDeterministicReplay(t *testing.T) {
	spec := faultinject.Spec{Seed: 7, Drop: 1e-2}
	run := func() ([]InitAtom, float64, int64, int64) {
		cfg := ljConfig()
		cfg.Cells = vec.I3{X: 8, Y: 8, Z: 8}
		s := newSim(t, Opt(), cfg)
		reg := metrics.New()
		s.SetMetrics(reg)
		s.SetFaults(faultinject.New(spec))
		s.Run(100)
		return s.Gather(), s.ElapsedMax(),
			reg.Counter("utofu_retransmits", "put").Value(),
			reg.Counter("fabric_faults", "drops").Value()
	}
	fp1, el1, retr1, drop1 := run()
	fp2, el2, retr2, drop2 := run()
	if el1 != el2 {
		t.Errorf("elapsed differs across replays: %v != %v", el1, el2)
	}
	if retr1 != retr2 || drop1 != drop2 {
		t.Errorf("fault counters differ: retr %d/%d drops %d/%d", retr1, retr2, drop1, drop2)
	}
	if retr1 == 0 || drop1 == 0 {
		t.Errorf("expected faults at drop=1e-2: retr=%d drops=%d", retr1, drop1)
	}
	for i := range fp1 {
		if fp1[i] != fp2[i] {
			t.Fatalf("replay diverged at atom %d", fp1[i].ID)
		}
	}
}

// TestChaosForcedFallback starves the uTofu path with a NACK rate the
// retransmit budget cannot beat. MPI is immune to NACKs (two-sided
// transport has no MRQ), so the per-neighbor 3-stage fallback must engage,
// be visible as a metrics counter and a named trace span, and still produce
// the fault-free physics.
func TestChaosForcedFallback(t *testing.T) {
	const steps = 60
	base, baseE, _ := chaosRun(t, steps, faultinject.Spec{}, nil)
	rec := trace.NewRecorder()
	got, gotE, reg := chaosRun(t, steps, faultinject.Spec{Seed: 3, Nack: 0.9}, rec)
	assertSamePhysics(t, "nack=0.9", base, got, baseE, gotE)
	if n := reg.Counter("sim_p2p_fallback", "msgs").Value(); n == 0 {
		t.Error("fallback message counter is zero under a starved uTofu path")
	}
	if reg.Counter("sim_p2p_fallback", "rounds").Value() == 0 {
		t.Error("fallback round counter is zero")
	}
	spans := 0
	for _, sp := range rec.Spans() {
		if sp.Name == "p2p-fallback" {
			spans++
			if sp.Stage != trace.Comm.String() {
				t.Errorf("fallback span charged to stage %q, want %q", sp.Stage, trace.Comm.String())
			}
		}
	}
	if spans == 0 {
		t.Error("no p2p-fallback span recorded")
	}
}

// TestInboxHoldsPayloadOverPutAndFallback: after a uTofu round every inbox message
// is read from the receiver's one registered buffer (Inbox.Region), and
// that buffer holds the bytes the sender sent (the reverse op sends its
// ghost force range straight from F), both when the put wrote them and
// when the message fell back to MPI over a degraded link. Every buffer is
// poisoned first, so one the round left unwritten shows.
func TestInboxHoldsPayloadOverPutAndFallback(t *testing.T) {
	for _, degrade := range []bool{false, true} {
		s := newSim(t, Opt(), failstopConfig())
		// In the reverse operation rank 0 sends each receive link's rev
		// side back to the link's source.
		src, dst := s.Ranks()[0].ID, s.Ranks()[0].recvLinks[0].src.ID
		if degrade {
			for range fallbackK {
				s.fb.RecordFailure(src, dst)
			}
		}
		for i := range s.links {
			for _, sd := range []*side{&s.links[i].fwd, &s.links[i].rev} {
				buf := sd.inbox.Region.Buf
				for j := range buf {
					buf[j] = 0xa5
				}
			}
		}
		// unpack runs on the rank workers: collect, report after the op.
		var (
			mu      sync.Mutex
			checked int
			bad     []string
		)
		op := reverseOp
		op.unpack = func(r *Rank, l *link, data []byte) {
			if len(data) == 0 {
				return
			}
			buf := l.side(true).inbox.Region.Buf
			mu.Lock()
			defer mu.Unlock()
			switch {
			case &data[0] != &buf[0]:
				bad = append(bad, fmt.Sprintf("link %d→%d payload not read from its inbox buffer", l.dst.ID, l.src.ID))
			case !bytes.Equal(data, halo.V3Bytes(l.dst.Atoms.F[l.recvStart:l.recvStart+l.recvCount])):
				bad = append(bad, fmt.Sprintf("link %d→%d inbox buffer does not hold the sender's ghost forces", l.dst.ID, l.src.ID))
			}
			checked++
		}
		s.runOp(op, nil)
		if len(bad) > 0 {
			t.Fatalf("degrade=%v: %d of %d messages wrong, first: %s", degrade, len(bad), checked, bad[0])
		}
		if checked == 0 {
			t.Fatalf("degrade=%v: no inbox message checked", degrade)
		}
		overMPI := 0
		for _, m := range s.lastRound(op).Msgs {
			if m.OverMPI {
				overMPI++
				if m.Src != src || m.Dst != dst {
					t.Errorf("degrade=%v: message %d→%d went over MPI", degrade, m.Src, m.Dst)
				}
			}
		}
		want := 0
		if degrade {
			want = 1
		}
		if overMPI != want {
			t.Errorf("degrade=%v: %d messages over MPI, want %d", degrade, overMPI, want)
		}
	}
}

// TestForwardLandsInPositionArray: under the pre-registered scheme the
// forward put writes straight into the receiver's ghost slots (the
// registered position region is a view of Atoms.X), so after a forward
// operation every ghost holds its owner's X + shift bit for bit, whether
// the put delivered it or the message fell back to MPI over a degraded
// link, and nothing is decoded: the engine lands a fallback in the region
// as the put would have. Ghost X is poisoned first, so a
// slot the operation left unwritten shows. After an exchange and border
// rebuild that moves X, the registered region follows it.
func TestForwardLandsInPositionArray(t *testing.T) {
	s := newSim(t, Opt(), failstopConfig())
	sent := s.Ranks()[0].sendLinks[0]
	src, dst := sent.src.ID, sent.dst.ID
	pairLinks := 0
	for i := range s.links {
		if l := &s.links[i]; l.src.ID == src && l.dst.ID == dst {
			pairLinks++
		}
	}
	// forward runs the op and returns how many messages were decoded and
	// how many went over MPI, and on which pairs.
	forward := func(label string) (decoded, overMPI, pairMPI int) {
		t.Helper()
		poison := math.Float64frombits(0x7ff4_dead_beef_0001)
		for _, r := range s.Ranks() {
			for i := r.Atoms.NLocal; i < r.Atoms.Total(); i++ {
				r.Atoms.X[i] = vec.V3{X: poison, Y: poison, Z: poison}
			}
		}
		var mu sync.Mutex
		op := directForwardOp
		unpack := op.unpack
		op.unpack = func(r *Rank, l *link, data []byte) {
			mu.Lock()
			decoded++
			mu.Unlock()
			unpack(r, l, data)
		}
		s.runOp(op, nil)
		for i := range s.links {
			l := &s.links[i]
			for k, idx := range l.sendList {
				want, got := l.src.Atoms.X[idx].Add(l.shift), l.dst.Atoms.X[l.recvStart+k]
				if math.Float64bits(got.X) != math.Float64bits(want.X) ||
					math.Float64bits(got.Y) != math.Float64bits(want.Y) ||
					math.Float64bits(got.Z) != math.Float64bits(want.Z) {
					t.Fatalf("%s: link %d→%d ghost %d = %v, owner's X+shift %v",
						label, l.src.ID, l.dst.ID, l.recvStart+k, got, want)
				}
			}
		}
		for _, m := range s.lastRound(op).Msgs {
			if m.OverMPI {
				overMPI++
				if m.Src == src && m.Dst == dst {
					pairMPI++
				}
			}
		}
		return decoded, overMPI, pairMPI
	}

	for _, degrade := range []bool{false, true} {
		if degrade {
			for range fallbackK {
				s.fb.RecordFailure(src, dst)
			}
		}
		label := fmt.Sprintf("degrade=%v", degrade)
		decoded, overMPI, pairMPI := forward(label)
		want := 0
		if degrade {
			want = pairLinks
		}
		if overMPI != want || pairMPI != want {
			t.Errorf("%s: %d messages over MPI (%d on %d→%d), want exactly the %d on the degraded link",
				label, overMPI, pairMPI, src, dst, want)
		}
		if decoded != 0 {
			t.Errorf("%s: %d messages decoded, want 0: the round lands every message, %d of them over MPI", label, decoded, overMPI)
		}
	}

	// Move every rank's X to a fresh array, as outgrowing its reserve
	// would; the rebuild must re-take the registered view.
	for _, r := range s.Ranks() {
		x := make([]vec.V3, len(r.Atoms.X), cap(r.Atoms.X)+1)
		copy(x, r.Atoms.X)
		r.Atoms.X = x
	}
	s.doExchange()
	s.doBorder(nil)
	for _, r := range s.Ranks() {
		view := halo.V3s(s.xRegion[r.ID].Buf)
		if len(view) != r.maxAtomsEstimate || &view[0] != &r.Atoms.X[:1][0] {
			t.Fatalf("rank %d: registered region (%d slots) no longer aliases Atoms.X after a rebuild",
				r.ID, len(view))
		}
	}
	if decoded, overMPI, _ := forward("after rebuild"); decoded != 0 || overMPI != 0 {
		t.Errorf("after rebuild: %d decoded, %d over MPI; want every put to land", decoded, overMPI)
	}
}
