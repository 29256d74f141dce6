package solver

import (
	"math/rand"
	"testing"

	"warrow/internal/eqgen"
	"warrow/internal/eqn"
	"warrow/internal/lattice"
)

func TestBitset(t *testing.T) {
	b := newBitset(200)
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 199} {
		if b.has(i) {
			t.Fatalf("fresh bitset has bit %d", i)
		}
		b.set(i)
		if !b.has(i) {
			t.Fatalf("bit %d not set", i)
		}
	}
	b.clear(64)
	if b.has(64) {
		t.Fatal("bit 64 still set after clear")
	}
	// nextSet must skip entire zero words and land on the next set bit.
	want := []int{0, 1, 63, 65, 127, 128, 199}
	got := []int{}
	for i := b.nextSet(0); i >= 0; i = b.nextSet(i + 1) {
		got = append(got, i)
	}
	if len(got) != len(want) {
		t.Fatalf("nextSet walk = %v, want %v", got, want)
	}
	for k := range want {
		if got[k] != want[k] {
			t.Fatalf("nextSet walk = %v, want %v", got, want)
		}
	}
	if b.nextSet(200) != -1 {
		t.Fatal("nextSet past the end must return -1")
	}
}

// TestBucketQueueMatchesHeap drives a bucket queue and the binary heap
// through the same random push/pop schedule and checks every pop agrees —
// the property that lets SW's bucket queue stand in for Fig. 4's priority
// queue.
func TestBucketQueueMatchesHeap(t *testing.T) {
	const n = 300
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		bq := newBucketQueue(0, n-1)
		var heap idHeap
		for step := 0; step < 2000; step++ {
			if bq.len() != heap.len() {
				t.Fatalf("trial %d: len %d vs heap %d", trial, bq.len(), heap.len())
			}
			if bq.empty() || rng.Intn(3) != 0 {
				i := rng.Intn(n)
				bq.push(i)
				heap.push(int32(i), int64(i))
			} else {
				got, want := bq.popMin(), int(heap.popMin())
				if got != want {
					t.Fatalf("trial %d step %d: popMin %d, heap %d", trial, step, got, want)
				}
			}
		}
	}
}

func TestBucketQueueIndicesNonDestructive(t *testing.T) {
	q := newBucketQueue(10, 90)
	for _, i := range []int{42, 17, 88, 10} {
		q.push(i)
	}
	snap := q.indices()
	want := []int{10, 17, 42, 88}
	if len(snap) != len(want) {
		t.Fatalf("indices = %v, want %v", snap, want)
	}
	for k := range want {
		if snap[k] != want[k] {
			t.Fatalf("indices = %v, want %v", snap, want)
		}
	}
	if q.len() != 4 {
		t.Fatalf("indices drained the queue: len = %d", q.len())
	}
	for _, w := range want {
		if got := q.popMin(); got != w {
			t.Fatalf("popMin after indices = %d, want %d", got, w)
		}
	}
}

// benchSystem is a mid-size eqgen interval system for the core benchmarks.
func benchSystem() (*eqn.System[int, lattice.Interval], func(int) lattice.Interval) {
	g := eqgen.New(eqgen.Config{Seed: 99, Dom: eqgen.Interval, N: 512, FanIn: 3})
	return g.Interval, eqn.ConstBottom[int, lattice.Interval](lattice.Ints)
}

func benchCore(b *testing.B, core Core, run func(Config) (map[int]lattice.Interval, Stats, error)) {
	b.Helper()
	b.ReportAllocs()
	cfg := Config{Core: core, MaxEvals: 50_000_000}
	var evals int
	for i := 0; i < b.N; i++ {
		_, st, err := run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		evals = st.Evals
	}
	b.ReportMetric(float64(evals), "evals/solve")
}

func BenchmarkRRDense(b *testing.B) {
	sys, init := benchSystem()
	l, op := lattice.Ints, Op[int](Warrow[lattice.Interval](lattice.Ints))
	benchCore(b, CoreDense, func(c Config) (map[int]lattice.Interval, Stats, error) { return RR(sys, l, op, init, c) })
}

func BenchmarkSWDense(b *testing.B) {
	sys, init := benchSystem()
	l, op := lattice.Ints, Op[int](Warrow[lattice.Interval](lattice.Ints))
	benchCore(b, CoreDense, func(c Config) (map[int]lattice.Interval, Stats, error) { return SW(sys, l, op, init, c) })
}

// The unboxed benchmarks use the structured WarrowOp: it is what unlocks
// the word store, and its Apply is bit-identical to Op(Warrow), so the
// boxed baselines above measure the same computation. Run with -benchmem:
// the dense rows pin the pooled-store fix (allocs/op must stay well below
// one per evaluation) and the unboxed rows pin the zero-alloc hot loop.
func BenchmarkRRUnboxed(b *testing.B) {
	sys, init := benchSystem()
	l, op := lattice.Ints, WarrowOp[int, lattice.Interval](lattice.Ints)
	benchCore(b, CoreAuto, func(c Config) (map[int]lattice.Interval, Stats, error) { return RR(sys, l, op, init, c) })
}

func BenchmarkSWUnboxed(b *testing.B) {
	sys, init := benchSystem()
	l, op := lattice.Ints, WarrowOp[int, lattice.Interval](lattice.Ints)
	benchCore(b, CoreAuto, func(c Config) (map[int]lattice.Interval, Stats, error) { return SW(sys, l, op, init, c) })
}

// BenchmarkSLRThunk exercises the local solver's hoisted eval/thunk pair;
// run with -benchmem to see the per-run (not per-evaluation) closure cost.
func BenchmarkSLRThunk(b *testing.B) {
	sys, init := benchSystem()
	l, op := lattice.Ints, Op[int](Warrow[lattice.Interval](lattice.Ints))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := SLR(sys.AsPure(), l, op, init, 0, Config{MaxEvals: 50_000_000}); err != nil {
			b.Fatal(err)
		}
	}
}
