// Silicon with the Tersoff bond-order potential — the full-neighbor-list
// potential class of the paper's extended experiment (section 4.4). With a
// full list every rank exchanges ghosts with all 26 neighbors and returns
// three-body ghost forces in the reverse stage; this example runs a diamond
// silicon crystal at 300 K under the optimized communication and shows the
// crystal staying put (tiny mean-squared displacement) while conserving
// energy.
//
//	go run ./examples/silicontersoff
package main

import (
	"fmt"
	"log"

	"tofumd/internal/core"
	"tofumd/internal/md/analysis"
	"tofumd/internal/md/lattice"
	"tofumd/internal/md/potential"
	"tofumd/internal/md/sim"
	"tofumd/internal/trace"
	"tofumd/internal/units"
	"tofumd/internal/vec"
)

func main() {
	cfg := sim.Config{
		UnitsStyle:  units.Metal,
		Potential:   potential.NewTersoffSi(),
		Cells:       vec.I3{X: 4, Y: 4, Z: 4},
		Lat:         lattice.DiamondFromConstant(5.431),
		Dt:          0.0005,
		Skin:        1.0,
		NeighEvery:  5,
		CheckYes:    true,
		Temperature: 300,
		Seed:        8,
		NewtonOn:    true,
		ThermoEvery: 25,
	}
	r, err := core.Start(core.RunSpec{Config: &cfg, TileShape: vec.I3{X: 2, Y: 2, Z: 2}, Variant: sim.Opt()})
	if err != nil {
		log.Fatal(err)
	}
	defer r.Close()
	s := r.Sim()

	fmt.Printf("Tersoff silicon: %d atoms, diamond lattice, 300 K\n", s.TotalAtoms())
	fmt.Printf("full neighbor list -> %d p2p links per rank (vs 13 for half lists)\n\n",
		26)

	e0 := s.TotalEnergyPerAtom()
	msd := analysis.NewMSD(s)
	fmt.Println("Step  Temp(K)   E/atom(eV)  MSD(A^2)")
	for i := 0; i < 4; i++ {
		s.Run(25)
		v, err := msd.Sample(s)
		if err != nil {
			log.Fatal(err)
		}
		last := s.Thermo[len(s.Thermo)-1]
		fmt.Printf("%-5d %-9.1f %-11.5f %-8.5f\n",
			last.Step, last.Temperature, e0, v)
	}
	e1 := s.TotalEnergyPerAtom()
	fmt.Printf("\nenergy drift over 100 steps: %+.2e eV/atom (cohesive energy %.3f)\n", e1-e0, e0)
	bd := trace.Merge(s.Breakdowns())
	fmt.Printf("comm share with 26-link full-shell exchange: %.0f%%\n",
		100*bd.Get(trace.Comm)/bd.Total())
}
