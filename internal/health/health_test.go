package health

import (
	"testing"

	"tofumd/internal/metrics"
	"tofumd/internal/trace"
)

func TestNilTrackerIsDisabled(t *testing.T) {
	var tr *Tracker
	if tr.Enabled() {
		t.Error("nil tracker reports enabled")
	}
	// None of these may panic.
	tr.SetMetrics(metrics.New())
	tr.SetRecorder(trace.NewRecorder())
	if st := tr.RecordLinkFailure(0, 1, 2, 0); st != Healthy {
		t.Errorf("nil RecordLinkFailure = %v", st)
	}
	tr.RecordLinkSuccess(0, 1)
	if st := tr.RecordTNIFailure(2, 0); st != Healthy {
		t.Errorf("nil RecordTNIFailure = %v", st)
	}
	tr.RecordTNISuccess(2)
	if tr.LinkQuarantined(0, 1) || tr.TNIQuarantined(2) {
		t.Error("nil tracker quarantined something")
	}
	if tr.QuarantinedTNIs() != nil || tr.QuarantinedLinks() != nil {
		t.Error("nil tracker lists quarantined resources")
	}
	if tr.Epoch() != 0 || tr.QuarantinedLinkCount() != 0 {
		t.Error("nil tracker epoch/count nonzero")
	}
	if tr.ProbeLink(0, 1, true, 0) != Healthy || tr.ProbeTNI(2, true, 0) != Healthy {
		t.Error("nil tracker probe not healthy")
	}
}

func TestLinkStateMachineTransitions(t *testing.T) {
	tr := New(2, 4)
	if st := tr.RecordLinkFailure(0, 1, 0, 1); st != Healthy {
		t.Errorf("after 1 failure: %v, want healthy", st)
	}
	if st := tr.RecordLinkFailure(0, 1, 0, 2); st != Suspect {
		t.Errorf("after 2 failures: %v, want suspect", st)
	}
	// A success re-arms a suspect link.
	tr.RecordLinkSuccess(0, 1)
	if st := tr.LinkState(0, 1); st != Healthy {
		t.Errorf("after success: %v, want healthy", st)
	}
	// Four consecutive failures quarantine.
	for i := 0; i < 4; i++ {
		tr.RecordLinkFailure(0, 1, 0, float64(i))
	}
	if !tr.LinkQuarantined(0, 1) {
		t.Fatal("link not quarantined after 4 consecutive failures")
	}
	if tr.Epoch() != 1 {
		t.Errorf("epoch = %d, want 1", tr.Epoch())
	}
	// Quarantine is sticky: successes and further failures do not move it.
	tr.RecordLinkSuccess(0, 1)
	if !tr.LinkQuarantined(0, 1) {
		t.Error("success re-armed a quarantined link")
	}
	if st := tr.RecordLinkFailure(0, 1, 0, 9); st != Quarantined {
		t.Errorf("failure on quarantined link: %v", st)
	}
	if tr.Epoch() != 1 {
		t.Errorf("epoch advanced without a new quarantine: %d", tr.Epoch())
	}
	// Only an explicit probe re-arms, and only a live one.
	if st := tr.ProbeLink(0, 1, false, 10); st != Quarantined {
		t.Errorf("dead probe re-armed: %v", st)
	}
	if st := tr.ProbeLink(0, 1, true, 11); st != Healthy {
		t.Errorf("live probe did not re-arm: %v", st)
	}
}

func TestTNIQuarantineForgivesItsLinks(t *testing.T) {
	tr := New(2, 4)
	// Two links share dead TNI 2; their failures interleave, climbing the
	// TNI counter twice as fast as either link's.
	tr.RecordLinkFailure(0, 1, 2, 1)
	tr.RecordTNIFailure(2, 1)
	tr.RecordLinkFailure(0, 3, 2, 1)
	tr.RecordTNIFailure(2, 1)
	tr.RecordLinkFailure(0, 1, 2, 2)
	tr.RecordTNIFailure(2, 2)
	tr.RecordLinkFailure(0, 3, 2, 2)
	if st := tr.RecordTNIFailure(2, 2); st != Quarantined {
		t.Fatalf("TNI after 4 failures: %v, want quarantined", st)
	}
	if got := tr.QuarantinedTNIs(); len(got) != 1 || got[0] != 2 {
		t.Errorf("QuarantinedTNIs = %v, want [2]", got)
	}
	// The links that failed on TNI 2 are forgiven: the TNI was the culprit.
	if tr.LinkState(0, 1) != Healthy || tr.LinkState(0, 3) != Healthy {
		t.Errorf("links not forgiven: %v, %v", tr.LinkState(0, 1), tr.LinkState(0, 3))
	}
	if tr.QuarantinedLinkCount() != 0 {
		t.Errorf("QuarantinedLinkCount = %d", tr.QuarantinedLinkCount())
	}
}

// TestSuccessClearsPendingFailure: successes return at once on a tracker
// with nothing on record, and still re-arm a suspect link and TNI.
func TestSuccessClearsPendingFailure(t *testing.T) {
	tr := New(1, 3)
	tr.RecordLinkSuccess(0, 1)
	tr.RecordTNISuccess(2)
	if len(tr.links) != 0 || len(tr.tnis) != 0 {
		t.Fatalf("successes with nothing pending recorded %d links and %d TNIs", len(tr.links), len(tr.tnis))
	}
	tr.RecordLinkFailure(0, 1, 2, 1)
	tr.RecordTNIFailure(2, 1)
	if tr.LinkState(0, 1) != Suspect || tr.TNIState(2) != Suspect {
		t.Fatalf("after one failure: link %v, TNI %v, want suspect", tr.LinkState(0, 1), tr.TNIState(2))
	}
	tr.RecordLinkSuccess(0, 1)
	tr.RecordTNISuccess(2)
	if tr.LinkState(0, 1) != Healthy || tr.TNIState(2) != Healthy {
		t.Errorf("after a success: link %v, TNI %v, want healthy", tr.LinkState(0, 1), tr.TNIState(2))
	}
	// The failure counts restart: two more stay short of quarantine.
	for i := 0; i < 2; i++ {
		tr.RecordLinkFailure(0, 1, 2, 2)
		tr.RecordTNIFailure(2, 2)
	}
	if tr.LinkQuarantined(0, 1) || tr.TNIQuarantined(2) {
		t.Error("failures before the success still counted toward quarantine")
	}
}

func TestInterleavedSuccessesKeepTNIHealthy(t *testing.T) {
	tr := New(2, 4)
	// One severed link among healthy siblings on TNI 1: the sibling
	// successes keep resetting the TNI counter, so only the link trips.
	for i := 0; i < 8; i++ {
		tr.RecordLinkFailure(0, 1, 1, float64(i))
		tr.RecordTNIFailure(1, float64(i))
		tr.RecordLinkSuccess(0, 5)
		tr.RecordTNISuccess(1)
	}
	if tr.TNIState(1) != Healthy {
		t.Errorf("TNI state = %v, want healthy", tr.TNIState(1))
	}
	if !tr.LinkQuarantined(0, 1) {
		t.Error("severed link not quarantined")
	}
	if got := tr.QuarantinedLinks(); len(got) != 1 || got[0] != (LinkKey{Src: 0, Dst: 1}) {
		t.Errorf("QuarantinedLinks = %v", got)
	}
}

func TestMetricsAndSpans(t *testing.T) {
	tr := New(0, 0) // defaults
	reg := metrics.New()
	rec := trace.NewRecorder()
	tr.SetMetrics(reg)
	tr.SetRecorder(rec)
	for i := 0; i < DefaultQuarantineAfter; i++ {
		tr.RecordLinkFailure(3, 4, 0, float64(i))
	}
	for i := 0; i < DefaultQuarantineAfter; i++ {
		tr.RecordTNIFailure(5, float64(i))
	}
	snap := reg.Snapshot()
	want := map[string]float64{
		"health_quarantined/links": 1,
		"health_quarantined/tnis":  1,
		"health_epoch/epoch":       2,
	}
	got := map[string]float64{}
	for _, fam := range snap {
		for _, s := range fam.Samples {
			got[fam.Name+"/"+s.Label] = s.Value
		}
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("gauge %s = %g, want %g (all: %v)", k, got[k], v, got)
		}
	}
	var names []string
	for _, sp := range rec.Spans() {
		if sp.Stage == "health" {
			names = append(names, sp.Name)
		}
	}
	if len(names) != 2 || names[0] != "link-quarantine" || names[1] != "tni-quarantine" {
		t.Errorf("health spans = %v, want [link-quarantine tni-quarantine]", names)
	}
}

func TestThresholdDefaultsAndClamping(t *testing.T) {
	tr := New(0, 0)
	if tr.suspectAfter != DefaultSuspectAfter || tr.quarantineAfter != DefaultQuarantineAfter {
		t.Errorf("defaults: %d/%d", tr.suspectAfter, tr.quarantineAfter)
	}
	tr = New(5, 3) // quarantine must exceed suspect
	if tr.quarantineAfter <= tr.suspectAfter {
		t.Errorf("quarantineAfter %d not clamped above suspectAfter %d", tr.quarantineAfter, tr.suspectAfter)
	}
}
