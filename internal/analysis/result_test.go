package analysis

import (
	"sort"
	"strings"
	"sync"
	"testing"
)

// TestPointIndexMatchesScan compares PointEnv, Contexts and Reachable, which
// answer from the point index, with a scan of every unknown per query, on
// the WCET suite and on 470.lbm and 429.mcf, with and without contexts.
func TestPointIndexMatchesScan(t *testing.T) {
	for _, o := range goldenOps() {
		if !strings.HasSuffix(o.name, "/warrow") && !strings.HasSuffix(o.name, "-ctx") {
			continue
		}
		res, err := analyzeSrc(t, o.name, o.src, o.opts)
		if err != nil {
			t.Fatalf("%s: %v", o.name, err)
		}
		maxCtxs := 0
		for _, fn := range append(append([]string{}, res.CFG.Order...), "no-such-fn") {
			ctxs, want := res.Contexts(fn), scanContexts(res, fn)
			if strings.Join(ctxs, "|") != strings.Join(want, "|") {
				t.Errorf("%s: Contexts(%s) = %q, scan %q", o.name, fn, ctxs, want)
			}
			maxCtxs = max(maxCtxs, len(ctxs))
			if got, want := res.Reachable(fn), scanReachable(res, fn); got != want {
				t.Errorf("%s: Reachable(%s) = %v, scan %v", o.name, fn, got, want)
			}
			nodes := 1
			if g := res.CFG.Graphs[fn]; g != nil {
				nodes = len(g.Nodes) + 1
			}
			for n := 0; n < nodes; n++ {
				got, want := res.PointEnv(fn, n), scanPointEnv(res, fn, n)
				if !res.EnvL.Eq(got, want) || got.String() != want.String() {
					t.Errorf("%s: PointEnv(%s, %d) = %s, scan %s", o.name, fn, n, got, want)
				}
			}
		}
		if o.opts.Context == BucketContext && maxCtxs < 2 {
			t.Errorf("%s: no function was analyzed in two contexts, so no join was checked", o.name)
		}
	}
}

// TestPointIndexConcurrentQueries queries one result from several
// goroutines before its index exists; under -race this checks that the
// index is built once and published safely.
func TestPointIndexConcurrentQueries(t *testing.T) {
	res := run(t, example7, Options{Context: FullContext, Op: OpWarrow})
	want := run(t, example7, Options{Context: FullContext, Op: OpWarrow}).Report()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got := res.Report(); got != want {
				t.Errorf("concurrent Report:\n%s\nwant:\n%s", got, want)
			}
		}()
	}
	wg.Wait()
}

// scanPointEnv joins the environments of one program point over every
// context by scanning all unknowns.
func scanPointEnv(r *Result, fn string, node int) Env {
	out := BotEnv
	for k, v := range r.Values {
		if k.Kind == KPoint && k.Fn == fn && k.Node == node {
			out = r.EnvL.Join(out, v)
		}
	}
	return out
}

func scanContexts(r *Result, fn string) []string {
	seen := map[string]bool{}
	out := []string{}
	for k := range r.Values {
		if k.Kind == KPoint && k.Fn == fn && !seen[k.Ctx] {
			seen[k.Ctx] = true
			out = append(out, k.Ctx)
		}
	}
	sort.Strings(out)
	return out
}

func scanReachable(r *Result, fn string) bool {
	for k, v := range r.Values {
		if k.Kind == KPoint && k.Fn == fn && k.Node == 0 && !v.IsBot() {
			return true
		}
	}
	return false
}
