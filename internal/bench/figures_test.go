package bench

import (
	"strings"
	"testing"

	"tofumd/internal/faultinject"
)

// checkTargets logs a and fails t for every Targets row of a's experiment
// that a misses.
func checkTargets(t *testing.T, a *Artifact, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + Format(a))
	for _, err := range CheckTargets(a) {
		t.Error(err)
	}
}

func TestTable1(t *testing.T) {
	a, err := Table1(Options{})
	checkTargets(t, a, err)
}

func TestFig6(t *testing.T) {
	a, err := Fig6(Options{})
	checkTargets(t, a, err)
}

func TestFig8(t *testing.T) {
	a, err := Fig8(Options{})
	checkTargets(t, a, err)
}

// TestFig8RecordsFaults holds a fault-injected Fig. 8 artifact to naming its
// spec, so benchcmp shows why its rates moved, and a clean one to carrying
// no faults parameter at all.
func TestFig8RecordsFaults(t *testing.T) {
	clean, err := Fig8(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if f, ok := clean.Params["faults"]; ok {
		t.Errorf("clean run records faults=%v", f)
	}
	spec, err := faultinject.ParseSpec("drop=0.01,seed=7")
	if err != nil {
		t.Fatal(err)
	}
	faulty, err := Fig8(Options{Faults: spec})
	if err != nil {
		t.Fatal(err)
	}
	if got := faulty.Params["faults"]; got != spec.String() {
		t.Errorf("fault-injected run records faults=%v, want %q", got, spec.String())
	}
}

func TestFig11(t *testing.T) {
	a, err := Fig11(Options{Steps: 60})
	checkTargets(t, a, err)
}

// TestMaxRelDiffRejectsVacuousTraces holds Fig. 11's deviation to comparing
// whole traces: a mismatched or too-short pair is an error, not a 0 that
// passes the max_rel_diff rows.
func TestMaxRelDiffRejectsVacuousTraces(t *testing.T) {
	for _, tc := range []struct {
		name    string
		a, b    []float64
		want    float64
		wantErr bool
	}{
		{"mismatched", []float64{1, 2, 3}, []float64{1, 2}, 0, true},
		{"empty", nil, nil, 0, true},
		{"one sample", []float64{1}, []float64{1}, 0, true},
		{"equal", []float64{1, -2, 4}, []float64{1, -2, 4}, 0, false},
		{"deviating", []float64{2, -4}, []float64{2, -5}, 0.25, false},
	} {
		got, err := maxRelDiff(tc.a, tc.b)
		if (err != nil) != tc.wantErr || got != tc.want {
			t.Errorf("%s: got %v, %v; want %v, error %v", tc.name, got, err, tc.want, tc.wantErr)
		}
	}
}

func TestFig12(t *testing.T) {
	a, err := Fig12(Options{Steps: 10})
	checkTargets(t, a, err)
}

func TestFig13(t *testing.T) {
	fig13, table3, err := Fig13(Options{Steps: 99})
	checkTargets(t, fig13, err)
	checkTargets(t, table3, err)
}

func TestFig14(t *testing.T) {
	a, err := Fig14(Options{Steps: 20})
	checkTargets(t, a, err)
	// The table holds each kind's last point; every earlier point must lie
	// in the same linearity band.
	for _, tg := range targetsOf("fig14") {
		if !strings.HasSuffix(tg.Key, "/linearity") {
			continue
		}
		kind, _, _ := strings.Cut(tg.Key, "/")
		for _, s := range a.Series {
			if strings.HasPrefix(s.Key, kind+"/") && strings.HasSuffix(s.Key, "/linearity") && !tg.holds(s.Value) {
				t.Errorf("%s: %.4f outside %s", s.Key, s.Value, tg.band())
			}
		}
	}
}

func TestFig15(t *testing.T) {
	a, err := Fig15(Options{Steps: 10})
	checkTargets(t, a, err)
}
