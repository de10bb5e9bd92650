package main

import (
	"context"
	"testing"
)

// tracedOp sets a fresh workload up and runs one traced op, returning
// the per-layer metrics and the op's digest.
func tracedOp(t *testing.T, name string, seed int64) (map[string]float64, string) {
	t.Helper()
	ctx := context.Background()
	w, err := newWorkload(name, seed, 2, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := w.setup(ctx); err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	sc := &scope{t: tr, op: 0, id: tr.begin("op", 0, -1)}
	out, err := w.op(ctx, sc)
	tr.end(sc.id)
	tr.ops++
	if err != nil {
		t.Fatal(err)
	}
	if out.failed != 0 {
		t.Fatalf("%s: %d requests returned wrong output", name, out.failed)
	}
	probes, err := microProbes(ctx, seed, 2)
	if err != nil {
		t.Fatal(err)
	}
	return perLayer(tr, []opRecord{{traced: true, out: out}}, probes), out.digest
}

// TestCountMetricsRepeat pins what a later change may rest a claim on:
// every per-layer count (compiler swaps, compiled 2q gates, dies,
// trials, campaign cells, store calls, ...) repeats exactly across two
// runs at one seed, and the traced replays reproduce the registry's
// artifacts byte for byte.
func TestCountMetricsRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload's op three times")
	}
	for _, name := range []string{"repro-quick", "yield-mc", "daemon-campaign"} {
		t.Run(name, func(t *testing.T) {
			w, err := newWorkload(name, 7, 2, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if err := w.setup(context.Background()); err != nil {
				t.Fatal(err)
			}
			plain, err := w.op(context.Background(), nil)
			if err != nil {
				t.Fatal(err)
			}
			a, da := tracedOp(t, name, 7)
			b, db := tracedOp(t, name, 7)
			if da != plain.digest || db != plain.digest {
				t.Errorf("traced digests %s, %s differ from the untraced %s", da, db, plain.digest)
			}
			nonzero := 0
			for _, m := range perLayerMetrics {
				if m.Unit != "count" {
					continue
				}
				if a[m.Name] != b[m.Name] {
					t.Errorf("%s: %v then %v", m.Name, a[m.Name], b[m.Name])
				}
				if a[m.Name] != 0 {
					nonzero++
				}
			}
			if nonzero == 0 {
				t.Error("no count metric was recorded")
			}
		})
	}
}

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	tr := newTracer()
	tr.spans = []span{
		{Name: "op", ID: 0, Parent: -1, Start: 0, End: 100},
		{Name: "a", ID: 1, Parent: 0, Start: 10, End: 50},
		{Name: "b", ID: 2, Parent: 0, Start: 30, End: 70}, // overlaps a
		{Name: "c", ID: 3, Parent: 1, Start: 20, End: 30},
	}
	lt := tr.totals()
	want := map[string]float64{"op": 40e-9, "a": 30e-9, "b": 40e-9, "c": 10e-9}
	for name, w := range want {
		if got := lt.self[name]; got < w-1e-15 || got > w+1e-15 {
			t.Errorf("self[%s] = %g, want %g", name, got, w)
		}
	}
	if lt.glueSec < 40e-9-1e-15 || lt.glueSec > 40e-9+1e-15 {
		t.Errorf("glue = %g, want the op root's 40ns", lt.glueSec)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := median(xs); got != 2.5 {
		t.Errorf("median = %v", got)
	}
	if got := quantile(xs, 1); got != 4 {
		t.Errorf("max = %v", got)
	}
	if xs[0] != 4 {
		t.Error("quantile sorted its input in place")
	}
}
