package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

func val(v, min, max float64) value { return value{Value: v, Min: &min, Max: &max} }

func TestVerdict(t *testing.T) {
	p50, _ := findDef("op_ms_p50")  // lower is better, bound 25%
	rate, _ := findDef("ops_per_s") // higher is better, bound 25%
	perr, _ := findDef("paper_err") // exact
	cases := []struct {
		name string
		d    metricDef
		a, b value
		want string
	}{
		{"within bound", p50, val(100, 99, 101), val(110, 109, 111), "same"},
		{"slower by more than the bound", p50, val(100, 99, 101), val(130, 129, 131), "worse"},
		{"faster is never worse", p50, val(100, 99, 101), val(50, 49, 51), "same"},
		{"repeats disagree by more than the bound", p50, val(100, 85, 115), val(101, 100, 102), "unresolved"},
		{"throughput drop", rate, val(10, 9.9, 10.1), val(7, 6.9, 7.1), "worse"},
		{"throughput gain", rate, val(10, 9.9, 10.1), val(12, 11.9, 12.1), "same"},
		{"exact metric equal", perr, value{Value: 0.0787}, value{Value: 0.0787}, "same"},
		{"exact metric up by a hair", perr, value{Value: 0.0787}, value{Value: 0.0788}, "worse"},
	}
	for _, c := range cases {
		if got := verdict(c.d, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict = %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareFiles(t *testing.T) {
	host := hostInfo{NumCPU: 2, GOMAXPROCS: 2, GoVersion: "go1.24.0", OS: "linux", Arch: "amd64"}
	mkRep := func(p50 float64, fp string, puts float64) *report {
		wr := &workloadResult{Name: "lj_strong", Fingerprint: fp, Correct: true, Metrics: map[string]value{}}
		wr.setSpread("op_ms_p50", spread{med: p50, min: p50 - 1, max: p50 + 1})
		wr.set("utofu.puts_per_op", puts)
		wr.set("des.ns_per_event", 160)
		return &report{Host: host, Seed: 1, Seconds: 9, Workloads: []*workloadResult{wr}}
	}
	dir := t.TempDir()
	write := func(name string, rep *report) string {
		path := filepath.Join(dir, name)
		if err := writeJSON(path, rep); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("a.json", mkRep(386, "ae21", 136448))

	var out bytes.Buffer
	ok, err := compareFiles(&out, base, write("aa.json", mkRep(390, "ae21", 136448)))
	if err != nil || !ok {
		t.Fatalf("A/A run flagged: ok=%v err=%v\n%s", ok, err, out.String())
	}

	for name, rep := range map[string]*report{
		"slower":      mkRep(500, "ae21", 136448),
		"fingerprint": mkRep(386, "ffff", 136448),
		"count":       mkRep(386, "ae21", 136449),
	} {
		out.Reset()
		ok, err := compareFiles(&out, base, write(name+".json", rep))
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			t.Errorf("%s: regression not flagged\n%s", name, out.String())
		}
	}

	other := mkRep(386, "ae21", 136448)
	other.Host.NumCPU = 8
	if _, err := compareFiles(&out, base, write("other.json", other)); err == nil || !strings.Contains(err.Error(), "different hosts") {
		t.Errorf("results from another host compared without complaint: %v", err)
	}
}
