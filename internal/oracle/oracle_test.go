package oracle

import (
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

func TestCheck(t *testing.T) {
	row := Rows[0]
	if err := Check(row.Name, row.Tol); err != nil {
		t.Errorf("reading at the bound: %v", err)
	}
	err := Check(row.Name, 2*row.Tol+1)
	if err == nil {
		t.Fatal("reading above the bound passed")
	}
	for _, want := range []string{row.Name, "exceeds bound", row.Reference} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %q", err, want)
		}
	}
	if err := Check(row.Name, math.NaN()); err == nil {
		t.Error("NaN reading passed")
	}
	if err := Check("no-such-row", 0); err == nil {
		t.Error("unknown row passed")
	}
}

// TestOracleRowsHaveCallers holds the table to its tests: every row is
// named by at least one oracle.Check call in a test under internal/, so a
// row cannot outlive the check that reads it.
func TestOracleRowsHaveCallers(t *testing.T) {
	call := regexp.MustCompile(`oracle\.Check\("([^"]+)"`)
	called := map[string]bool{}
	err := filepath.WalkDir("..", func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return err
		}
		src, err := os.ReadFile(path)
		for _, m := range call.FindAllSubmatch(src, -1) {
			called[string(m[1])] = true
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, r := range Rows {
		if seen[r.Name] {
			t.Errorf("row %s appears twice", r.Name)
		}
		seen[r.Name] = true
		if !called[r.Name] {
			t.Errorf("row %s has no oracle.Check caller in a test under internal/", r.Name)
		}
	}
}
