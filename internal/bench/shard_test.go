package bench

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"qres/internal/resolve"
	"qres/internal/stats"
)

// The sharded incremental path must probe exactly like the full
// recompute (DisableIncremental) on the seed workloads: the sessions run
// in lockstep and must pick the same variable and report the same row
// snapshot after every step — the end-to-end counterpart of the synthetic
// equivalence test in internal/resolve. The shard pool sizes itself from
// GOMAXPROCS, so worker-count coverage comes from -cpu=1,2,4,8.
func TestShardEquivalenceSeedWorkloads(t *testing.T) {
	sc := Scale{TPCHSF: 0.001, NELLAthletes: 50, InitialProbes: 40, Trees: 5, Reps: 1}

	loads := []struct {
		name string
		load func() (*Workload, error)
	}{
		{"nell-ms1", func() (*Workload, error) { return LoadNELL("MS1", sc, RDTGroundTruth(), 17) }},
		{"tpch-q3", func() (*Workload, error) { return LoadTPCH("Q3", sc, FixedGroundTruth(0.5), 17) }},
	}
	configs := []resolve.Config{
		{Utility: resolve.QValue{}, Learning: resolve.LearnEP},
		{Utility: resolve.RO{}, Learning: resolve.LearnEP},
		{Utility: resolve.General{}, Learning: resolve.LearnEP},
		{Utility: resolve.General{}, Learning: resolve.LearnOffline},
	}

	for _, ld := range loads {
		w, err := ld.load()
		if err != nil {
			t.Fatalf("%s: %v", ld.name, err)
		}
		for _, cfg := range configs {
			cfg.Trees, cfg.Seed = sc.Trees, 23
			t.Run(ld.name+"/"+cfg.Name(), func(t *testing.T) {
				session := func(disable bool) *resolve.Session {
					c := cfg
					c.DisableIncremental = disable
					repo := w.Repository(sc.InitialProbes, stats.SubSeed(23, 11))
					sess, err := resolve.NewSession(w.DB, w.Result, w.Oracle(), repo, c)
					if err != nil {
						t.Fatal(err)
					}
					return sess
				}
				full, sharded := session(true), session(false)
				for step := 0; ; step++ {
					fv, fdone, ferr := full.Step()
					sv, sdone, serr := sharded.Step()
					if ferr != nil || serr != nil {
						t.Fatalf("step %d: full err %v, sharded err %v", step, ferr, serr)
					}
					if fv != sv || fdone != sdone {
						t.Fatalf("step %d: full probed %d (done %t), sharded %d (done %t)", step, fv, fdone, sv, sdone)
					}
					if !reflect.DeepEqual(full.Snapshot(), sharded.Snapshot()) {
						t.Fatalf("step %d: row snapshots diverged", step)
					}
					if fdone {
						break
					}
				}
			})
		}
	}
}

// BenchmarkShardStepPath measures per-probe wall time on the seed
// workloads, the full recompute (the oracle) versus the sharded
// incremental path. The Q-Value+EP configuration keeps the Learner version
// stable and every round's score kind cacheable, so untouched shards serve
// whole rounds from cached winners and per-probe cost tracks the probed
// component's size rather than the workset's; the full path rescores
// every candidate every round. The shard pool sizes itself from
// GOMAXPROCS: run with -cpu=1,2,4,8 for the worker curve.
func BenchmarkShardStepPath(b *testing.B) {
	sc := Scale{TPCHSF: 0.01, NELLAthletes: 500, InitialProbes: 80, Trees: 5, Reps: 1}

	loads := []struct {
		name string
		load func() (*Workload, error)
	}{
		{"nell-ms1", func() (*Workload, error) { return LoadNELL("MS1", sc, RDTGroundTruth(), 17) }},
		{"tpch-q3", func() (*Workload, error) { return LoadTPCH("Q3", sc, FixedGroundTruth(0.5), 17) }},
	}
	modes := []struct {
		name   string
		mutate func(*resolve.Config)
	}{
		{"full", func(c *resolve.Config) { c.DisableIncremental = true }},
		{"sharded", func(c *resolve.Config) {}},
	}

	for _, ld := range loads {
		w, err := ld.load()
		if err != nil {
			b.Fatalf("%s: %v", ld.name, err)
		}
		for _, mode := range modes {
			b.Run(fmt.Sprintf("%s/%s", ld.name, mode.name), func(b *testing.B) {
				cfg := resolve.Config{Utility: resolve.QValue{}, Learning: resolve.LearnEP, Trees: sc.Trees, Seed: 23}
				mode.mutate(&cfg)
				// Session construction (EP calibration, cache and shard
				// builds) happens outside the timer: the step path is
				// what sharding changes, so that is what gets measured.
				var steps int
				var inLoop time.Duration
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					repo := w.Repository(sc.InitialProbes, stats.SubSeed(23, 11))
					sess, err := resolve.NewSession(w.DB, w.Result, w.Oracle(), repo, cfg)
					if err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
					start := time.Now()
					for !sess.Done() {
						if _, _, err := sess.Step(); err != nil {
							b.Fatal(err)
						}
						steps++
					}
					inLoop += time.Since(start)
				}
				if steps > 0 {
					b.ReportMetric(float64(inLoop.Nanoseconds())/float64(steps), "ns/step")
				}
			})
		}
	}
}
