package diffsolve

import (
	"testing"

	"warrow/internal/eqgen"
)

// coreRecipes spans small generated systems: 10 to 39 unknowns, all three
// domains, monotonic and non-monotonic, order-consistent and not.
func coreRecipes(dom eqgen.Domain, seeds int) []eqgen.Config {
	out := make([]eqgen.Config, 0, seeds)
	for seed := uint64(1); seed <= uint64(seeds); seed++ {
		out = append(out, eqgen.Config{
			Seed:           seed,
			Dom:            dom,
			N:              10 + int(seed%30),
			FanIn:          int(seed % 4),
			MaxSCC:         1 + int(seed%6),
			WidenDensity:   0.3 + 0.1*float64(seed%5),
			NonMonoDensity: 0.2 * float64(seed%3),
			ForwardDensity: 0.25 * float64(seed%2),
		})
	}
	return out
}

// suiteRecipes are larger systems per domain, up to the generator's
// 4096-unknown cap and one of them non-monotone, where the compiled loops
// meet deep queues and long sweeps.
var suiteRecipes = map[eqgen.Domain][]eqgen.Config{
	eqgen.Interval: {
		{Seed: 11, Dom: eqgen.Interval, N: 1024, FanIn: 3, MaxSCC: 6},
		{Seed: 12, Dom: eqgen.Interval, N: 4096, FanIn: 4, MaxSCC: 8},
		{Seed: 21, Dom: eqgen.Interval, N: 2048, FanIn: 3, MaxSCC: 6, NonMonoDensity: 0.25},
	},
	eqgen.Flat: {
		{Seed: 13, Dom: eqgen.Flat, N: 512, FanIn: 3, MaxSCC: 6},
		{Seed: 13, Dom: eqgen.Flat, N: 2048, FanIn: 3, MaxSCC: 6},
	},
	eqgen.Powerset: {
		{Seed: 17, Dom: eqgen.Powerset, N: 1024, FanIn: 3, MaxSCC: 6},
	},
}

// TestDenseCoreMatchesMapCoreGenerated is the cross-store property test:
// 78 seeded systems (24 small ones per domain, monotonic and
// non-monotonic, plus the six suiteRecipes) solved by RR, W, SRR and SW on
// both value stores must agree with the map-based reference transcription
// of Figs. 1–4 on termination status, values and every scheduling counter,
// the two stores must agree with each other under the oscillation
// watchdog, and PSW at worker counts 1, 2, 4 and 8 must match the
// reference SW outcome. Every run has a 30,000-evaluation budget: on the
// larger recipes SRR's full runs take 0.13–8.9 million evaluations and W
// diverges on the interval ones, so there the verdict covers the budgeted
// prefix. Run under -race by the tier-2 gate.
func TestDenseCoreMatchesMapCoreGenerated(t *testing.T) {
	opt := Options{MaxEvals: 30_000, MaxFlips: 8, Workers: []int{1, 2, 4, 8}}
	for _, dom := range []eqgen.Domain{eqgen.Interval, eqgen.Flat, eqgen.Powerset} {
		dom := dom
		t.Run(dom.String(), func(t *testing.T) {
			t.Parallel()
			for _, cfg := range append(coreRecipes(dom, 24), suiteRecipes[dom]...) {
				if err := CheckGeneratedCores(cfg, opt); err != nil {
					t.Error(err)
				}
			}
		})
	}
}

// TestCheckpointResumeCrossesCores interrupts each global solver on one
// value store and resumes on the other, in both directions, through the
// versioned wire format — the resumed run must be indistinguishable from
// the reference's uninterrupted one.
func TestCheckpointResumeCrossesCores(t *testing.T) {
	opt := Options{MaxEvals: 30_000}
	for _, dom := range []eqgen.Domain{eqgen.Interval, eqgen.Flat, eqgen.Powerset} {
		dom := dom
		t.Run(dom.String(), func(t *testing.T) {
			t.Parallel()
			for _, cfg := range coreRecipes(dom, 6) {
				if err := CheckGeneratedCoreResume(cfg, opt); err != nil {
					t.Error(err)
				}
			}
		})
	}
}
