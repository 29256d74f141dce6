package solver

import (
	"fmt"
	"testing"

	"warrow/internal/eqgen"
	"warrow/internal/eqn"
	"warrow/internal/lattice"
)

// BenchmarkColdSolve times what a served request or an incremental cone
// re-solve pays: SW with the structured ⊟ on a system no solve has seen, so
// every operation builds the compiled shape (index, influence CSR, raw
// store) before it iterates. Each operation gets a freshly generated system
// (generation itself is excluded from the timing and the allocation
// counts). Run with -benchmem.
func BenchmarkColdSolve(b *testing.B) {
	for _, dom := range []eqgen.Domain{eqgen.Interval, eqgen.Flat, eqgen.Powerset} {
		for _, n := range []int{256, 2048} {
			sh := eqgen.BuildShape(eqgen.Config{Seed: 1, Dom: dom, N: n})
			b.Run(fmt.Sprintf("%s/N=%d", dom, n), func(b *testing.B) {
				switch dom {
				case eqgen.Flat:
					benchCold(b, eqgen.FlatL, func() *eqn.System[int, lattice.Flat[int64]] { return eqgen.FlatSystem(sh) })
				case eqgen.Powerset:
					benchCold(b, eqgen.PowersetL(), func() *eqn.System[int, lattice.Set[int]] { return eqgen.PowersetSystem(sh) })
				default:
					benchCold(b, lattice.Ints, func() *eqn.System[int, lattice.Interval] { return eqgen.IntervalSystem(sh) })
				}
			})
		}
	}
}

func benchCold[D any](b *testing.B, l lattice.Lattice[D], fresh func() *eqn.System[int, D]) {
	op, init := WarrowOp[int, D](l), eqn.ConstBottom[int, D](l)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		sys := fresh()
		b.StartTimer()
		if _, _, err := SW(sys, l, op, init, Config{}); err != nil {
			b.Fatal(err)
		}
	}
}
