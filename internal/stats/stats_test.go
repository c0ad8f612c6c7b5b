package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{4, 1, 3, 2, 5})
	if s.Count != 5 || s.Mean != 3 || s.Median != 3 || s.Min != 1 || s.Max != 5 {
		t.Fatalf("summary = %+v", s)
	}
	if s.P90 != 4.6 { // linear interpolation between 4 and 5 at rank 3.6
		t.Errorf("P90 = %f, want 4.6", s.P90)
	}
	if math.Abs(s.Stddev-math.Sqrt(2.5)) > 1e-12 {
		t.Errorf("Stddev = %f", s.Stddev)
	}
	if got := Summarize(nil); got.Count != 0 || got.Mean != 0 {
		t.Error("empty summary must be zero")
	}
	// Input must not be mutated (Summarize sorts a copy).
	xs := []float64{3, 1, 2}
	Summarize(xs)
	if xs[0] != 3 {
		t.Error("Summarize mutated its input")
	}
}

func TestPercentileEdges(t *testing.T) {
	sorted := []float64{10, 20, 30, 40}
	cases := []struct {
		p    float64
		want float64
	}{
		{-1, 10}, {0, 10}, {0.5, 25}, {1, 40}, {2, 40},
	}
	for _, c := range cases {
		if got := Percentile(sorted, c.p); got != c.want {
			t.Errorf("Percentile(%f) = %f, want %f", c.p, got, c.want)
		}
	}
	if Percentile(nil, 0.5) != 0 {
		t.Error("empty percentile must be 0")
	}
}

func TestMeanHelpers(t *testing.T) {
	if Mean([]float64{1, 2, 3}) != 2 || Mean(nil) != 0 {
		t.Error("Mean wrong")
	}
	if MeanInts([]int{2, 4}) != 3 || MeanInts(nil) != 0 {
		t.Error("MeanInts wrong")
	}
}

func TestSplitMix64Deterministic(t *testing.T) {
	a, b := NewSplitMix64(42), NewSplitMix64(42)
	for i := 0; i < 100; i++ {
		if a.Next() != b.Next() {
			t.Fatal("same seed must give same stream")
		}
	}
	if NewSplitMix64(1).Next() == NewSplitMix64(2).Next() {
		t.Error("different seeds should differ")
	}
	if NewSplitMix64(7).NextInt63() < 0 {
		t.Error("NextInt63 must be non-negative")
	}
}

// SubSeed is deterministic and its sub-streams are pairwise distinct for
// practical index ranges.
func TestSubSeedProperties(t *testing.T) {
	f := func(master int64) bool {
		seen := make(map[int64]bool)
		for n := 0; n < 32; n++ {
			s := SubSeed(master, n)
			if s != SubSeed(master, n) {
				return false
			}
			if seen[s] {
				return false
			}
			seen[s] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
