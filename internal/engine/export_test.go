package engine

import "qres/internal/uncertain"

// RunWithWorkers is RunWith with the worker count and morsel size pinned,
// so the equivalence tests exercise the serial tree (workers 1), several
// fan-outs and tiny morsels at any GOMAXPROCS. workers ≤ 0 means one per
// CPU, as in RunWith.
func RunWithWorkers(db *uncertain.DB, plan Node, x Exec, workers, morsel int) (*Result, error) {
	return runStream(uncertainSource{db}, plan, x, workers, morsel)
}
