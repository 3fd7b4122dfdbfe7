// Melt analysis: heat an FCC Lennard-Jones crystal through its melting
// point on the simulated machine and watch the structure dissolve in the
// radial distribution function — the crystal's sharp nearest-neighbor peak
// at a/sqrt(2) broadens into a liquid's smooth shells. Finishes by writing
// a binary checkpoint that a later run could resume from (see
// internal/md/restart).
//
//	go run ./examples/meltanalysis
package main

import (
	"fmt"
	"log"
	"math"
	"os"
	"path/filepath"

	"tofumd/internal/core"
	"tofumd/internal/md/analysis"
	"tofumd/internal/md/restart"
	"tofumd/internal/md/sim"
	"tofumd/internal/vec"
)

func main() {
	cfg, err := core.BaseConfig(core.LJ)
	if err != nil {
		log.Fatal(err)
	}
	cfg.Cells = vec.I3{X: 8, Y: 8, Z: 8}
	cfg.Temperature = 1.8 // above melting at this density
	r, err := core.Start(core.RunSpec{Config: &cfg, TileShape: vec.I3{X: 2, Y: 2, Z: 2}, Variant: sim.Opt()})
	if err != nil {
		log.Fatal(err)
	}
	defer r.Close()
	s := r.Sim()

	a := math.Cbrt(4 / 0.8442)
	fmt.Printf("melting %d LJ atoms (FCC, nearest neighbor %.3f sigma) at T*=1.8\n\n",
		s.TotalAtoms(), a/math.Sqrt2)

	sample := func(label string) {
		rdf, err := analysis.NewRDF(s, 3.0, 120)
		if err != nil {
			log.Fatal(err)
		}
		rdf.Accumulate(s)
		centers, g := rdf.Result()
		peak := rdf.FirstPeak()
		var peakVal float64
		for i, c := range centers {
			if c == peak {
				peakVal = g[i]
			}
		}
		fmt.Printf("%-14s first g(r) peak at %.3f sigma, height %.2f\n", label, peak, peakVal)
	}

	sample("crystal (t=0)")
	for i := 1; i <= 4; i++ {
		s.Run(50)
		sample(fmt.Sprintf("after %d steps", 50*i))
	}

	path := filepath.Join(os.TempDir(), "melt.restart")
	if err := restart.WriteFile(path, r.Capture(200)); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ncheckpoint written to %s — resume with restart.ReadFile + Snapshot.Apply\n", path)
}
