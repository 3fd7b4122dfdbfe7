package analysis

import "strings"

// scopes is the one table of which package subtrees each scoped analyzer
// inspects, keyed by Analyzer.Name. A root covers itself and every package
// below it. Analyzers without a row (atomicmix, guarded, nilsafe) inspect
// every package they are run on.
var scopes = map[string][]string{
	// The packages whose output must be bit-deterministic: the virtual-time
	// kernel and everything that runs on it. Wall-clock reads or a shared
	// global RNG anywhere in these packages can leak host timing into
	// simulation results.
	"determinism": {
		"tofumd/internal/des",
		"tofumd/internal/faultinject",
		"tofumd/internal/tofu",
		"tofumd/internal/utofu",
		"tofumd/internal/mpi",
		"tofumd/internal/md",
		"tofumd/internal/core",
		"tofumd/internal/bench",
		"tofumd/internal/threadpool",
		"tofumd/internal/health",
		"tofumd/internal/halo",
		"tofumd/internal/lbm",
	},
	// The exporter packages whose text/JSON output is diffed byte-for-byte
	// by golden tests and the benchcmp regression gate. Go's map iteration
	// order is deliberately randomized, so a raw range over a map anywhere
	// in these packages is one refactor away from flaky golden files.
	"mapiter": {
		"tofumd/internal/metrics",
		"tofumd/internal/trace",
		"tofumd/internal/bench",
		"tofumd/internal/obs",
	},
	// The host thread pool (paper section 3.3 spins for its 1.1us
	// dispatch): a loop there that spins on atomics must not block. The
	// host region itself does not spin, so no loop is in reach today.
	"spinlock": {"tofumd/internal/threadpool"},
	// The packages of the halo-exchange path, where a blank assignment
	// silencing "declared and not used" has twice hidden a real defect: the
	// dead `grid` in the MD simulation's rank constructor and the orphaned
	// staging vector in the EAM spline fit. In these packages a value that
	// is computed must be consumed; a `_ = x` suppression is a review smell,
	// not a fix.
	"deadassign": {
		"tofumd/internal/core", // its modeled rounds run the halo plan
		"tofumd/internal/halo",
		"tofumd/internal/lbm",
		"tofumd/internal/md/sim",
		"tofumd/internal/md/potential",
	},
	// The whole module is in scope on the caller side; what matters is the
	// callee parameter type.
	"unitarg": {"tofumd"},
}

// inScope reports whether a package import path falls under one of the
// named analyzer's roots (exact match or subdirectory).
func inScope(analyzer, pkgPath string) bool {
	for _, root := range scopes[analyzer] {
		if pkgPath == root || strings.HasPrefix(pkgPath, root+"/") {
			return true
		}
	}
	return false
}
