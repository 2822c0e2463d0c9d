package analysis

// All returns the full determinism-discipline suite in a stable order.
// arena-vet and the repo-sweep test both run exactly this set, so a
// finding has one name everywhere.
func All() []*Analyzer {
	return []*Analyzer{
		ClockDiscipline,
		CtxShadow,
		MapOrder,
		RngDiscipline,
		StableSort,
	}
}
