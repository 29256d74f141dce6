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
// the property that makes swDense bit-identical to the map core.
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

func TestUseDenseThreshold(t *testing.T) {
	auto := Config{}
	if auto.useDense(denseMinUnknowns - 1) {
		t.Error("CoreAuto compiled a tiny system")
	}
	if !auto.useDense(denseMinUnknowns) {
		t.Error("CoreAuto skipped a large system")
	}
	if (Config{Core: CoreMap}).useDense(1 << 20) {
		t.Error("CoreMap compiled")
	}
	if !(Config{Core: CoreDense}).useDense(1) {
		t.Error("CoreDense did not compile")
	}
}

// TestDenseMatchesMapCore pins the bit-identity contract package-locally:
// values and every scheduling-sensitive counter agree between the two cores
// on seeded eqgen systems, non-monotone ones included. The wider sweep
// (three domains, PSW worker matrix, checkpoint crossings) lives in
// internal/diffsolve.
func TestDenseMatchesMapCore(t *testing.T) {
	l := lattice.Ints
	for seed := uint64(1); seed <= 12; seed++ {
		g := eqgen.New(eqgen.Config{Seed: seed, Dom: eqgen.Interval, N: 60, NonMonoDensity: 0.2})
		sys := g.Interval
		init := eqn.ConstBottom[int, lattice.Interval](l)
		type entry struct {
			name string
			run  func(Config) (map[int]lattice.Interval, Stats, error)
		}
		op := Op[int](Warrow[lattice.Interval](l))
		runs := []entry{
			{"rr", func(c Config) (map[int]lattice.Interval, Stats, error) { return RR(sys, l, op, init, c) }},
			{"w", func(c Config) (map[int]lattice.Interval, Stats, error) { return W(sys, l, op, init, c) }},
			{"srr", func(c Config) (map[int]lattice.Interval, Stats, error) { return SRR(sys, l, op, init, c) }},
			{"sw", func(c Config) (map[int]lattice.Interval, Stats, error) { return SW(sys, l, op, init, c) }},
		}
		for _, e := range runs {
			mSigma, mSt, mErr := e.run(Config{Core: CoreMap, MaxEvals: 2_000_000})
			dSigma, dSt, dErr := e.run(Config{Core: CoreDense, MaxEvals: 2_000_000})
			if (mErr == nil) != (dErr == nil) {
				t.Fatalf("seed %d %s: map err %v, dense err %v", seed, e.name, mErr, dErr)
			}
			if mErr != nil {
				continue
			}
			if len(mSigma) != len(dSigma) {
				t.Fatalf("seed %d %s: dom %d vs %d", seed, e.name, len(mSigma), len(dSigma))
			}
			for x, v := range mSigma {
				if !l.Eq(v, dSigma[x]) {
					t.Fatalf("seed %d %s: σ[%d] = %s (map) vs %s (dense)", seed, e.name, x, v, dSigma[x])
				}
			}
			if mSt.Evals != dSt.Evals || mSt.Updates != dSt.Updates ||
				mSt.Rounds != dSt.Rounds || mSt.MaxQueue != dSt.MaxQueue {
				t.Fatalf("seed %d %s: stats map %+v vs dense %+v", seed, e.name, mSt, dSt)
			}
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

func BenchmarkRRMap(b *testing.B) {
	sys, init := benchSystem()
	l, op := lattice.Ints, Op[int](Warrow[lattice.Interval](lattice.Ints))
	benchCore(b, CoreMap, func(c Config) (map[int]lattice.Interval, Stats, error) { return RR(sys, l, op, init, c) })
}

func BenchmarkRRDense(b *testing.B) {
	sys, init := benchSystem()
	l, op := lattice.Ints, Op[int](Warrow[lattice.Interval](lattice.Ints))
	benchCore(b, CoreDense, func(c Config) (map[int]lattice.Interval, Stats, error) { return RR(sys, l, op, init, c) })
}

func BenchmarkSWMap(b *testing.B) {
	sys, init := benchSystem()
	l, op := lattice.Ints, Op[int](Warrow[lattice.Interval](lattice.Ints))
	benchCore(b, CoreMap, func(c Config) (map[int]lattice.Interval, Stats, error) { return SW(sys, l, op, init, c) })
}

func BenchmarkSWDense(b *testing.B) {
	sys, init := benchSystem()
	l, op := lattice.Ints, Op[int](Warrow[lattice.Interval](lattice.Ints))
	benchCore(b, CoreDense, func(c Config) (map[int]lattice.Interval, Stats, error) { return SW(sys, l, op, init, c) })
}

// The unboxed benchmarks use the structured WarrowOp: it is what unlocks
// the raw word core, and its Apply is bit-identical to Op(Warrow), so the
// boxed baselines above measure the same computation. Run with -benchmem:
// the dense rows pin the pooled-store fix (allocs/op must stay well below
// one per evaluation) and the unboxed rows pin the zero-alloc hot loop.
func BenchmarkRRUnboxed(b *testing.B) {
	sys, init := benchSystem()
	l, op := lattice.Ints, WarrowOp[int, lattice.Interval](lattice.Ints)
	benchCore(b, CoreUnboxed, func(c Config) (map[int]lattice.Interval, Stats, error) { return RR(sys, l, op, init, c) })
}

func BenchmarkSWUnboxed(b *testing.B) {
	sys, init := benchSystem()
	l, op := lattice.Ints, WarrowOp[int, lattice.Interval](lattice.Ints)
	benchCore(b, CoreUnboxed, func(c Config) (map[int]lattice.Interval, Stats, error) { return SW(sys, l, op, init, c) })
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
