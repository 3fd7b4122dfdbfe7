// Command tofuvet is the repo's custom static-analysis suite: the
// analyzers that mechanically enforce the determinism, nil-safety and
// concurrency-contract invariants the reproduction rests on (see DESIGN.md
// for the analyzer-to-invariant map).
//
// It runs two ways:
//
//	tofuvet ./...                      # standalone, loads packages itself
//	tofuvet -json ./...                # standalone, machine-readable output
//	go vet -vettool=$(which tofuvet) ./...   # as a go vet tool
//
// In vettool mode it speaks the cmd/go unitchecker protocol: go vet hands
// it a JSON config file per package (compiled import data included), it
// typechecks the package's files and prints diagnostics, exiting nonzero
// when any survive. Diagnostics can be suppressed with
// `//tofuvet:allow <check> <reason>` comments; see internal/analysis.
//
// # Output and exit codes
//
// Human-readable diagnostics go to stderr. With -json, a JSON array of
// objects {"file","line","column","check","message"} goes to stdout (an
// empty array when clean) so CI can annotate PRs without parsing text.
//
// Exit codes, in both output modes:
//
//	0  no diagnostics: the tree satisfies every analyzer
//	1  at least one diagnostic survived the allow directives
//	2  operational failure (bad pattern, package does not load/typecheck)
package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"

	"tofumd/internal/analysis"
)

func main() {
	args := os.Args[1:]
	// The cmd/go vet driver probes the tool before use: -V=full for a
	// cache-keying version string, -flags for the supported flag set.
	for _, a := range args {
		switch {
		case a == "-V=full" || a == "--V=full":
			fmt.Printf("tofuvet version devel buildID=%s\n", selfID())
			return
		case a == "-flags" || a == "--flags":
			fmt.Println("[]")
			return
		}
	}
	if len(args) > 0 && strings.HasSuffix(args[len(args)-1], ".cfg") {
		runUnitchecker(args[len(args)-1])
		return
	}
	runStandalone(args)
}

// selfID hashes the executable so go vet's action cache invalidates when
// the tool is rebuilt.
func selfID() string {
	exe, err := os.Executable()
	if err != nil {
		return "unknown"
	}
	f, err := os.Open(exe)
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "unknown"
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:12])
}

// jsonFinding is one -json diagnostic record.
type jsonFinding struct {
	File    string `json:"file"`
	Line    int    `json:"line"`
	Column  int    `json:"column"`
	Check   string `json:"check"`
	Message string `json:"message"`
}

// runStandalone loads the named packages from source and analyzes them.
func runStandalone(args []string) {
	jsonOut := false
	var patterns []string
	for _, a := range args {
		if a == "-json" || a == "--json" {
			jsonOut = true
			continue
		}
		patterns = append(patterns, a)
	}
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	modRoot, modPath, err := findModule()
	if err != nil {
		fatalf("tofuvet: %v", err)
	}
	paths, err := expandPatterns(modRoot, patterns)
	if err != nil {
		fatalf("tofuvet: %v", err)
	}
	loader := analysis.NewLoader(map[string]string{modPath: modRoot})
	all := []jsonFinding{}
	for _, path := range paths {
		findings, err := loader.LoadAndRun(path, analysis.All())
		if err != nil {
			fatalf("tofuvet: %v", err)
		}
		for _, f := range findings {
			if !jsonOut {
				fmt.Fprintln(os.Stderr, f)
			}
			all = append(all, jsonFinding{
				File:    f.Pos.Filename,
				Line:    f.Pos.Line,
				Column:  f.Pos.Column,
				Check:   f.Analyzer,
				Message: f.Message,
			})
		}
	}
	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(all); err != nil {
			fatalf("tofuvet: encoding -json output: %v", err)
		}
	}
	if len(all) > 0 {
		os.Exit(1)
	}
	os.Exit(0)
}

// findModule walks up from the working directory to the enclosing go.mod
// and returns its directory and module path.
func findModule() (dir, modPath string, err error) {
	dir, err = os.Getwd()
	if err != nil {
		return "", "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return dir, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("no module directive in %s/go.mod", dir)
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", "", fmt.Errorf("no go.mod found above working directory")
		}
		dir = parent
	}
}

// expandPatterns resolves package patterns to import paths via go list.
func expandPatterns(modRoot string, patterns []string) ([]string, error) {
	cmd := exec.Command("go", append([]string{"list"}, patterns...)...)
	cmd.Dir = modRoot
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %s: %w", strings.Join(patterns, " "), err)
	}
	var paths []string
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		if line != "" {
			paths = append(paths, line)
		}
	}
	return paths, nil
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(2)
}
