package eqgen

import (
	"fmt"
	"testing"
)

// BenchmarkNew times eqgen.New per domain at N = 2048: the system build the
// daemon pays for every gen request, shape and right-hand sides included.
// Run with -benchmem.
func BenchmarkNew(b *testing.B) {
	for _, dom := range []Domain{Interval, Flat, Powerset} {
		cfg := Config{Seed: 1, Dom: dom, N: 2048}
		b.Run(fmt.Sprintf("%s/N=%d", dom, cfg.N), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchSink = New(cfg)
			}
		})
	}
}

// benchSink keeps the benchmarked result alive.
var benchSink System
