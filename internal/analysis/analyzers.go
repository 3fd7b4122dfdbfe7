package analysis

// All returns the full tofuvet analyzer suite in diagnostic order. Each
// analyzer mechanically enforces one invariant the reproduction's
// correctness rests on; DESIGN.md maps them to the paper sections.
func All() []*Analyzer {
	return []*Analyzer{
		AtomicMix,
		DeadAssign,
		Determinism,
		Guarded,
		MapIter,
		NilSafe,
		UnitArg,
	}
}
