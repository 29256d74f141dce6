package serve

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"warrow/internal/ckptcodec"
	"warrow/internal/eqdsl"
	"warrow/internal/eqgen"
	"warrow/internal/eqn"
	"warrow/internal/lattice"
	"warrow/internal/serve/proto"
	"warrow/internal/solver"
)

// extremeEq is a 60-unknown interval chain whose 40th equation adds two
// encodable bounds to exactly MaxInt64: a finite bound the unboxed core's
// words cannot hold, first reached some 40 evaluations in, after several
// quantum preemptions of a small-quantum daemon. The 20 equations after it
// read it, so a budget that stops the solve near its end leaves the value
// in the checkpoint.
func extremeEq() string {
	var b strings.Builder
	b.WriteString("domain interval\nx0 = [1,1]\n")
	for i := 1; i < 60; i++ {
		if i == 39 {
			b.WriteString("x39 = x38 + [9223372036854775806,9223372036854775806]\n")
			continue
		}
		fmt.Fprintf(&b, "x%d = join(x%d, [0,0])\n", i, i-1)
	}
	return b.String()
}

// compareServed checks a served answer against the boxed local control:
// status, evaluation and update counts, and every value.
func compareServed[X comparable, D any](t *testing.T, what string, resp *proto.Response, want map[X]D, wantSt solver.Stats, codec solver.Codec[X, D]) {
	t.Helper()
	if resp.Status != proto.StatusCompleted {
		t.Fatalf("%s: served %s (%v %s), want completed", what, resp.Status, resp.Abort, resp.Reason)
	}
	if resp.Stats.Evals != wantSt.Evals || resp.Stats.Updates != wantSt.Updates {
		t.Errorf("%s: served evals/updates %d/%d, boxed control %d/%d", what, resp.Stats.Evals, resp.Stats.Updates, wantSt.Evals, wantSt.Updates)
	}
	if len(resp.Values) != len(want) {
		t.Errorf("%s: served %d values, boxed control %d", what, len(resp.Values), len(want))
	}
	for x, v := range want {
		if got := resp.Values[codec.EncodeX(x)]; got != codec.EncodeD(v) {
			t.Errorf("%s: %s served %q, boxed control %q", what, codec.EncodeX(x), got, codec.EncodeD(v))
		}
	}
}

// controlCfg is the local control's configuration for a served solver.
func controlCfg(name string, resume any) solver.Config {
	cfg := solver.Config{Resume: resume}
	if name == "psw" {
		cfg.Workers = pswWorkers
	}
	return cfg
}

// TestServedIntervalExtremes: a served .eq solve that reaches an interval
// bound at the int64 extremes answers exactly like the boxed local control,
// because the solver redoes the run that met the value on the boxed core
// instead of reporting the unboxed core's encoding failure — and a local
// solve on CoreAuto does the same.
func TestServedIntervalExtremes(t *testing.T) {
	text := extremeEq()
	f, err := eqdsl.Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := f.IntervalSystem()
	if err != nil {
		t.Fatal(err)
	}
	l := lattice.Ints
	init := func(string) lattice.Interval { return lattice.EmptyInterval }
	codec := ckptcodec.StringIntervalCodec()
	boxed := solver.Op[string](solver.Warrow[lattice.Interval](l))
	want, wantSt, err := solver.SW(sys, l, boxed, init, solver.Config{})
	if err != nil {
		t.Fatalf("boxed control: %v", err)
	}
	got, gotSt, err := solver.SW(sys, l, solver.WarrowOp[string](l), init, solver.Config{})
	if err != nil || gotSt != wantSt || !reflect.DeepEqual(got, want) {
		t.Fatalf("local CoreAuto SW: err %v, stats %+v, boxed control %+v", err, gotSt, wantSt)
	}

	srv, addr := startServer(t, Options{Workers: 1, Quantum: 7})
	c := dialT(t, addr)
	for _, name := range []string{"sw", "srr", "psw", "slr3"} {
		want, wantSt, err := runByName(name, sys, l, boxed, init, controlCfg(name, nil))
		if err != nil {
			t.Fatalf("%s: boxed control: %v", name, err)
		}
		resp, err := c.Do(&proto.Request{Solver: name, Source: proto.SourceEq, System: text})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		compareServed(t, name, resp, want, wantSt, codec)
	}
	if srv.Metrics().Snapshot()["eqsolved_preemptions_total"] == 0 {
		t.Error("no solve was preempted before meeting the extreme value")
	}
}

// TestServedResumeIntervalExtreme: a served solve that met an interval bound
// at the int64 extremes and then stopped on the client's budget hands back
// a checkpoint holding that bound. Resuming it — on a small-quantum daemon,
// so every later slice resumes from a parked checkpoint holding it too —
// answers exactly like the boxed local control resumed from the same
// checkpoint, instead of crashing the unboxed core's restore.
func TestServedResumeIntervalExtreme(t *testing.T) {
	text := extremeEq()
	f, err := eqdsl.Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := f.IntervalSystem()
	if err != nil {
		t.Fatal(err)
	}
	l := lattice.Ints
	init := func(string) lattice.Interval { return lattice.EmptyInterval }
	codec := ckptcodec.StringIntervalCodec()
	boxed := solver.Op[string](solver.Warrow[lattice.Interval](l))

	srv, addr := startServer(t, Options{Workers: 1, Quantum: 7})
	c := dialT(t, addr)
	for _, name := range []string{"rr", "w", "srr", "sw", "psw"} {
		_, fullSt, err := runByName(name, sys, l, boxed, init, controlCfg(name, nil))
		if err != nil {
			t.Fatalf("%s: boxed control: %v", name, err)
		}
		cut, err := c.Do(&proto.Request{Solver: name, Source: proto.SourceEq, System: text, MaxEvals: fullSt.Evals - 5})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if cut.Status != proto.StatusAborted || cut.Checkpoint == "" {
			t.Fatalf("%s: budgeted solve %s (%s), want an abort with a checkpoint", name, cut.Status, cut.Reason)
		}
		if !strings.Contains(cut.Checkpoint, "9223372036854775807") {
			t.Fatalf("%s: checkpoint holds no bound at MaxInt64", name)
		}
		cp, err := solver.UnmarshalCheckpoint([]byte(cut.Checkpoint), codec)
		if err != nil {
			t.Fatal(err)
		}
		want, wantSt, err := runByName(name, sys, l, boxed, init, controlCfg(name, cp))
		if err != nil {
			t.Fatalf("%s: boxed control resume: %v", name, err)
		}
		resp, err := c.Do(&proto.Request{Solver: name, Source: proto.SourceEq, System: text, Checkpoint: cut.Checkpoint})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		compareServed(t, name+"/resume", resp, want, wantSt, codec)
	}
	if srv.Metrics().Snapshot()["eqsolved_preemptions_total"] == 0 {
		t.Error("no solve was preempted")
	}
}

// TestServedResumePowersetForeign: a client checkpoint for a generated
// powerset system whose sets hold an element outside the lattice universe
// (the codec accepts any int) resumes exactly like the boxed local control
// resumed from the same checkpoint, instead of crashing the unboxed core's
// restore.
func TestServedResumePowersetForeign(t *testing.T) {
	gen := eqgen.Config{Seed: 5, N: 48, Dom: eqgen.Powerset}
	sys := eqgen.New(gen).Powerset
	l := eqgen.PowersetL()
	init := eqn.ConstBottom[int, lattice.Set[int]](l)
	codec := ckptcodec.PowersetCodec()
	boxed := solver.Op[int](solver.Warrow[lattice.Set[int]](l))
	const foreign = 1 << 40

	_, addr := startServer(t, Options{Workers: 1, Quantum: 11})
	c := dialT(t, addr)
	for _, name := range []string{"rr", "w", "srr", "sw", "psw"} {
		g := gen
		cut, err := c.Do(&proto.Request{Solver: name, Source: proto.SourceGen, Gen: &g, MaxEvals: 30})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if cut.Status != proto.StatusAborted || cut.Checkpoint == "" {
			t.Fatalf("%s: budgeted solve %s (%s), want an abort with a checkpoint", name, cut.Status, cut.Reason)
		}
		cp, err := solver.UnmarshalCheckpoint([]byte(cut.Checkpoint), codec)
		if err != nil {
			t.Fatal(err)
		}
		for k, e := range cp.Sigma {
			cp.Sigma[k].V = l.Join(e.V, lattice.NewSet(foreign))
		}
		data, err := solver.MarshalCheckpoint(cp, codec)
		if err != nil {
			t.Fatal(err)
		}
		want, wantSt, err := runByName(name, sys, l, boxed, init, controlCfg(name, cp))
		if err != nil {
			t.Fatalf("%s: boxed control resume: %v", name, err)
		}
		kept := false
		for _, v := range want {
			kept = kept || v.Has(foreign)
		}
		if !kept {
			t.Fatalf("%s: no value of the boxed resume keeps the foreign element; the test proves nothing", name)
		}
		resp, err := c.Do(&proto.Request{Solver: name, Source: proto.SourceGen, Gen: &g, Checkpoint: string(data)})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		compareServed(t, name+"/resume", resp, want, wantSt, codec)
	}
}

// TestServedIntervalFailureReport: an .eq equation whose arithmetic panics
// on every core (adding opposite infinities) aborts the served solve with
// the same report as the boxed local control: same failing unknown, same
// cause, same evaluation count.
func TestServedIntervalFailureReport(t *testing.T) {
	var b strings.Builder
	b.WriteString("domain interval\nx0 = [inf,inf]\n")
	for i := 1; i < 20; i++ {
		fmt.Fprintf(&b, "x%d = join(x%d, [0,0])\n", i, i-1)
	}
	b.WriteString("x20 = x19 + [-inf,-inf]\n")
	text := b.String()
	f, err := eqdsl.Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := f.IntervalSystem()
	if err != nil {
		t.Fatal(err)
	}
	l := lattice.Ints
	init := func(string) lattice.Interval { return lattice.EmptyInterval }
	_, _, lerr := solver.SW(sys, l, solver.Op[string](solver.Warrow[lattice.Interval](l)), init, solver.Config{})
	want, ok := solver.ReportOf(lerr)
	if !ok || want.Failure == nil {
		t.Fatalf("boxed control = %v, want an eval-failure abort", lerr)
	}

	_, addr := startServer(t, Options{Workers: 1})
	resp, err := dialT(t, addr).Do(&proto.Request{Solver: "sw", Source: proto.SourceEq, System: text})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != proto.StatusAborted || resp.Abort.Failure == nil {
		t.Fatalf("served %s (%v), want an eval-failure abort", resp.Status, resp.Abort)
	}
	got := resp.Abort
	if got.Evals != want.Evals || got.Failure.Unknown != want.Failure.Unknown || got.Failure.Cause.Error() != want.Failure.Cause.Error() {
		t.Errorf("served failure %s at %d evals (%v), boxed control %s at %d evals (%v)",
			got.Failure.Unknown, got.Evals, got.Failure.Cause, want.Failure.Unknown, want.Evals, want.Failure.Cause)
	}
}
