package runner

import (
	"context"
	"math/rand"
)

// TrialRNG is a reusable per-worker trial RNG: Seek repositions it onto
// trial i's private (seed, i)-derived SplitMix64 stream without
// allocating, producing draws bit-identical to Rand(seed, i). Workers
// keep one TrialRNG in their local scratch so the Monte Carlo hot path
// stops paying one rand.Rand allocation per trial.
type TrialRNG struct {
	src splitmix
	r   *rand.Rand
}

// NewTrialRNG returns a reusable trial RNG (two allocations, paid once
// per worker instead of once per trial).
func NewTrialRNG() *TrialRNG {
	t := &TrialRNG{}
	t.r = rand.New(&t.src)
	return t
}

// At repositions the RNG onto trial i's stream and returns it. The
// returned *rand.Rand is valid until the next At call.
func (t *TrialRNG) At(seed int64, i int) *rand.Rand {
	t.src.state = uint64(Seed(seed, i))
	return t.r
}

// Scratch is the standard per-worker Monte Carlo scratch state: a
// reusable trial RNG plus a float64 sample buffer, so the per-trial
// path allocates nothing.
type Scratch struct {
	RNG *TrialRNG
	Buf []float64
}

// NewScratch returns a newLocal constructor for MapLocal/StreamPlanned
// that equips each worker with a TrialRNG and an n-element buffer.
func NewScratch(n int) func() Scratch {
	return func() Scratch {
		return Scratch{RNG: NewTrialRNG(), Buf: make([]float64, n)}
	}
}

// Checkpoints returns the fixed trial counts at which a streaming
// campaign may stop: a doubling ladder from min up to max, always
// ending exactly at max. Stop decisions happen only at these counts,
// which is what keeps adaptive results worker-count invariant.
func Checkpoints(min, max int) []int {
	if max <= 0 {
		return nil
	}
	if min <= 0 {
		min = 1
	}
	var out []int
	for c := min; c < max; c *= 2 {
		out = append(out, c)
	}
	return append(out, max)
}

// StreamPlanned is the streaming fan-out mode: it runs up to max
// trials in checkpoint-delimited blocks, feeds every trial's
// observation to an aggregator in trial-index order, and asks stop
// after each checkpoint whether the campaign can end early. It returns
// the number of trials executed.
//
// The determinism contract extends MapLocal's: trial i's result must
// depend only on i (locals are scratch), blocks always run to their
// checkpoint before any stop decision, and observe sees results in
// index order — so the executed trial count and every aggregate are
// bit-identical at any worker count. Checkpoints are clamped to
// (0, max] and deduplicated; a final checkpoint at max is implied.
//
// When plan is non-nil it is called with the half-open trial range
// [lo, hi) of each upcoming block before any worker starts it, on the
// coordinating goroutine, never concurrently with trial. Estimators
// that assign trials to strata use it to freeze per-block assignment
// from statistics accumulated at the previous checkpoint — the
// assignment becomes a pure function of the trial index and the
// checkpoint grid, preserving worker-count invariance.
//
// A cancelled context stops the campaign within one in-flight trial per
// worker and returns ctx.Err(); observations already delivered to the
// aggregator before cancellation stay delivered, but the partial
// campaign must be discarded by the caller.
func StreamPlanned[L, T any](ctx context.Context, max, workers int, checkpoints []int, newLocal func() L,
	plan func(lo, hi int), trial func(l L, i int) T, observe func(i int, v T), stop func(trials int) bool) (int, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	if max <= 0 {
		return 0, nil
	}
	cancelled, stopWatch := watchCancel(ctx)
	defer stopWatch()
	locals := newLocals(Workers(workers, max), newLocal)

	var buf []T
	done := 0
	step := func(cp int) bool {
		if cp > max {
			cp = max
		}
		if cp <= done {
			return false
		}
		n := cp - done
		if cap(buf) < n {
			buf = make([]T, n)
		}
		buf = buf[:n]
		if plan != nil {
			plan(done, cp)
		}
		claim(locals, n, cancelled, func(l L, j int) { buf[j] = trial(l, done+j) })
		// ctx.Err() directly, not the async watcher flag: a
		// cancellation observed synchronously by a nested call inside
		// trial could race the flag and let a block of zero-valued
		// results reach the aggregator as if valid.
		if ctx.Err() != nil {
			return true
		}
		for j := 0; j < n; j++ {
			observe(done+j, buf[j])
		}
		done = cp
		return done >= max || stop(done)
	}
	for _, cp := range checkpoints {
		if step(cp) {
			return done, ctx.Err()
		}
	}
	step(max)
	return done, ctx.Err()
}
