package bench

import "testing"

func TestAblations(t *testing.T) {
	a, err := Ablations(Options{Steps: 30})
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + Format(a))
	opt := value(t, a, "opt (all on)/comm")
	if opt <= 0 {
		t.Fatal("opt comm time missing")
	}
	// Every removed optimization must cost communication time (or at
	// worst be neutral), and the baseline must be far worse.
	for _, name := range []string{"- thread pool", "- preregistered", "- msg combine", "- border bins", "- topo map"} {
		if comm := value(t, a, name+"/comm"); comm < opt*0.999 {
			t.Errorf("%s comm %.3fms below full opt %.3fms", name, 1e3*comm, 1e3*opt)
		}
	}
	// The two headline mechanisms must show a clear penalty.
	for _, name := range []string{"- thread pool", "- preregistered"} {
		if p := value(t, a, name+"/comm_penalty"); p < 1.1 {
			t.Errorf("%s penalty %.2fx too small", name, p)
		}
	}
	if ref := value(t, a, "ref (all off)/comm"); ref < 3*opt {
		t.Errorf("baseline comm %.3fms not far above opt %.3fms", 1e3*ref, 1e3*opt)
	}
}
