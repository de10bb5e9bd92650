package runner

import (
	"reflect"
	"testing"
)

func TestCheckpoints(t *testing.T) {
	cases := []struct {
		name     string
		min, max int
		want     []int
	}{
		{"doubling ladder", 250, 2000, []int{250, 500, 1000, 2000}},
		{"max not power of two", 250, 900, []int{250, 500, 900}},
		{"min equals max", 100, 100, []int{100}},
		{"min above max", 500, 100, []int{100}},
		{"zero min defaults to one", 0, 4, []int{1, 2, 4}},
		{"non-positive max", 250, 0, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := Checkpoints(tc.min, tc.max); !reflect.DeepEqual(got, tc.want) {
				t.Errorf("Checkpoints(%d, %d) = %v, want %v", tc.min, tc.max, got, tc.want)
			}
		})
	}
}

func TestTrialRNGMatchesRand(t *testing.T) {
	rng := NewTrialRNG()
	for _, i := range []int{0, 1, 7, 1000} {
		want := Rand(42, i)
		got := rng.At(42, i)
		for k := 0; k < 5; k++ {
			w, g := want.Float64(), got.Float64()
			if w != g {
				t.Fatalf("trial %d draw %d: TrialRNG %v != Rand %v", i, k, g, w)
			}
		}
	}
}

// streamRun executes a StreamPlanned campaign (no block plan) whose
// aggregate is an
// order-sensitive fold, so any deviation from index-ordered observation
// shows up immediately.
func streamRun(t *testing.T, workers int) (trials int, fold uint64, seen []int) {
	t.Helper()
	trials, err := StreamPlanned(bg, 1000, workers, Checkpoints(100, 1000),
		func() struct{} { return struct{}{} }, nil,
		func(_ struct{}, i int) uint64 { return uint64(Seed(9, i)) },
		func(i int, v uint64) {
			fold = fold*1099511628211 + v
			seen = append(seen, i)
		},
		func(n int) bool { return n >= 400 })
	if err != nil {
		t.Fatal(err)
	}
	return trials, fold, seen
}

func TestStreamWorkerCountInvariance(t *testing.T) {
	t1, f1, s1 := streamRun(t, 1)
	t8, f8, s8 := streamRun(t, 8)
	if t1 != t8 || f1 != f8 {
		t.Errorf("stream diverged across workers: (%d, %x) vs (%d, %x)", t1, f1, t8, f8)
	}
	if !reflect.DeepEqual(s1, s8) {
		t.Error("observe order differs across worker counts")
	}
}

func TestStreamStopsAtCheckpoint(t *testing.T) {
	trials, _, seen := streamRun(t, 4)
	// stop fires at the first checkpoint >= 400.
	if trials != 400 {
		t.Errorf("trials = %d, want 400 (first satisfying checkpoint)", trials)
	}
	if len(seen) != 400 || seen[0] != 0 || seen[399] != 399 {
		t.Errorf("observed %d trials, want exactly [0, 400)", len(seen))
	}
}

func TestStreamRunsToMaxWithoutStop(t *testing.T) {
	count := 0
	trials, err := StreamPlanned(bg, 777, 3, Checkpoints(100, 777),
		func() struct{} { return struct{}{} }, nil,
		func(_ struct{}, i int) int { return i },
		func(i, v int) {
			if i != v || i != count {
				t.Fatalf("observation out of order: i=%d v=%d count=%d", i, v, count)
			}
			count++
		},
		func(int) bool { return false })
	if err != nil {
		t.Fatal(err)
	}
	if trials != 777 || count != 777 {
		t.Errorf("trials = %d, observed = %d, want 777", trials, count)
	}
}

func TestStreamDegenerateInputs(t *testing.T) {
	if got, err := StreamPlanned(bg, 0, 4, nil, func() int { return 0 }, nil,
		func(int, int) bool { return false }, func(int, bool) {},
		func(int) bool { return false }); err != nil || got != 0 {
		t.Errorf("max=0 ran %d trials, err %v", got, err)
	}
	// Empty/nil checkpoints still run to max via the implied final block.
	n := 0
	got, err := StreamPlanned(bg, 50, 2, nil, func() int { return 0 }, nil,
		func(_ int, i int) int { return i }, func(int, int) { n++ },
		func(int) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	if got != 50 || n != 50 {
		t.Errorf("nil checkpoints: trials = %d observed = %d, want 50", got, n)
	}
}
