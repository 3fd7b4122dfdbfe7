package bench

import (
	"slices"
	"strings"
	"testing"
)

// value returns a's series k, failing t when a lacks it.
func value(t *testing.T, a *Artifact, k string) float64 {
	t.Helper()
	s, ok := a.series(k)
	if !ok {
		t.Fatalf("%s: no series %q", a.Experiment, k)
	}
	return s.Value
}

func TestFaults(t *testing.T) {
	a, err := Faults(Options{Steps: 40})
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + Format(a))
	var points []string
	for _, s := range a.Series {
		if p, ok := strings.CutSuffix(s.Key, "/elapsed"); ok {
			points = append(points, p)
		}
	}
	if want := []string{"fault-free", "drop1e-04", "drop1e-03", "drop1e-02", "nack9e-01"}; !slices.Equal(points, want) {
		t.Fatalf("points %v, want %v", points, want)
	}
	var prevElapsed float64
	for _, p := range points {
		if value(t, a, p+"/physics_identical") != 1 {
			t.Errorf("%s: physics diverged from the fault-free run", p)
		}
		if value(t, a, p+"/replay_identical") != 1 {
			t.Errorf("%s: replay was not bit-identical", p)
		}
		elapsed := value(t, a, p+"/elapsed")
		if strings.HasPrefix(p, "drop") && elapsed <= prevElapsed {
			t.Errorf("%s: elapsed %.6g not above the previous rate's %.6g", p, elapsed, prevElapsed)
		}
		prevElapsed = elapsed
	}
	if value(t, a, "nack9e-01/fallback_msgs") == 0 {
		t.Error("forced-fallback point recorded no fallback messages")
	}
	if value(t, a, "drop1e-02/retransmits") == 0 {
		t.Error("drop=1e-2 point recorded no retransmissions")
	}
}
