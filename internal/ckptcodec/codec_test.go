package ckptcodec

import (
	"testing"

	"warrow/internal/lattice"
)

// TestPowersetEncodeD pins the rendering of a set, ascending elements
// separated by spaces, and that a set of eqgen's universe (0..15) is
// written into one buffer: one allocation, the result string.
func TestPowersetEncodeD(t *testing.T) {
	enc := PowersetCodec().EncodeD
	for _, c := range []struct {
		set  lattice.Set[int]
		want string
	}{
		{lattice.NewSet[int](), ""},
		{lattice.NewSet(7), "7"},
		{lattice.NewSet(15, 0, 9, 10), "0 9 10 15"},
		{lattice.NewSet(100000, -3, 12, -3), "-3 12 100000"},
	} {
		if got := enc(c.set); got != c.want {
			t.Errorf("EncodeD(%s) = %q, want %q", c.set.Key(), got, c.want)
		}
	}
	set := lattice.NewSet(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15)
	var s string
	if got := testing.AllocsPerRun(100, func() { s = enc(set) }); got > 1 {
		t.Errorf("EncodeD of a 16-element set: %.0f allocations, want at most 1", got)
	}
	_ = s
}
