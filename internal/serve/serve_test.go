package serve

import (
	"net"
	"strings"
	"testing"
	"time"

	"warrow/internal/certify"
	"warrow/internal/chaos"
	"warrow/internal/ckptcodec"
	"warrow/internal/eqdsl"
	"warrow/internal/eqgen"
	"warrow/internal/eqn"
	"warrow/internal/lattice"
	"warrow/internal/serve/proto"
	"warrow/internal/solver"
)

// startServer spins up a daemon on a loopback listener and returns its
// address plus a shutdown func that asserts a clean close.
func startServer(t *testing.T, opts Options) (*Server, string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := New(opts)
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	t.Cleanup(func() {
		srv.Close()
		if err := <-done; err != nil {
			t.Errorf("Serve returned %v after Close, want nil", err)
		}
	})
	return srv, ln.Addr().String()
}

func dialT(t *testing.T, addr string) *Client {
	t.Helper()
	c, err := Dial(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// loopEq terminates under every solver: h = 0..100, b = 0..99, e = 100..100.
const loopEq = "domain interval\nh = join([0,0], b + [1,1])\nb = meet(h, [-inf,99])\ne = meet(h, [100,inf])\n"

// genReq builds a generated-system request: a seeded interval workload whose
// size controls how much evaluation work the solve needs.
func genReq(sv string, seed uint64, n, maxEvals int) *proto.Request {
	return &proto.Request{
		Solver:   sv,
		Source:   proto.SourceGen,
		Gen:      &eqgen.Config{Seed: seed, N: n},
		MaxEvals: maxEvals,
	}
}

// slowed adds a deterministic per-evaluation latency spike to a generated
// request, turning it into a wall-clock-heavy workload without changing its
// values.
func slowed(req *proto.Request, delay time.Duration) *proto.Request {
	req.Chaos = &chaos.Config{Latency: 1, Delay: delay}
	return req
}

func TestServeCompleted(t *testing.T) {
	_, addr := startServer(t, Options{Workers: 2})
	c := dialT(t, addr)
	resp, err := c.Do(&proto.Request{Solver: "sw", Source: proto.SourceEq, System: loopEq, MaxEvals: 100000})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != proto.StatusCompleted {
		t.Fatalf("status = %s (%s), want completed", resp.Status, resp.Reason)
	}
	if got := resp.Values["h"]; got != "0..100" {
		t.Errorf("h = %q, want 0..100", got)
	}
	if got := resp.Values["b"]; got != "0..99" {
		t.Errorf("b = %q, want 0..99", got)
	}
	if resp.Stats == nil || resp.Stats.Evals == 0 {
		t.Errorf("stats missing: %+v", resp.Stats)
	}
}

func TestServeAbortTaxonomy(t *testing.T) {
	_, addr := startServer(t, Options{Workers: 2, MaxTimeout: 100 * time.Millisecond})
	c := dialT(t, addr)

	// Budget abort: a 400-unknown system needs well over 50 evaluations, so
	// the response is a structured report plus a resumable checkpoint handle.
	resp, err := c.Do(genReq("sw", 3, 400, 50))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != proto.StatusAborted || resp.Abort == nil || resp.Abort.Reason != solver.AbortBudget {
		t.Fatalf("budget solve: %+v", resp)
	}
	if !strings.HasPrefix(resp.Checkpoint, "warrow-checkpoint v") {
		t.Errorf("budget abort carries no resumable checkpoint: %q", resp.Checkpoint)
	}

	// Resume from the returned handle with a larger budget: the follow-up
	// continues (cumulative evals) instead of starting over.
	req2 := genReq("sw", 3, 400, 80)
	req2.Checkpoint = resp.Checkpoint
	resp2, err := c.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	if resp2.Status != proto.StatusAborted || resp2.Abort.Evals != 80 {
		t.Fatalf("resumed solve: status %s, evals %d, want aborted at cumulative 80", resp2.Status, resp2.Abort.Evals)
	}

	// Deadline abort: the server ceiling caps an unbounded slow request; the
	// bound is carried by the request context.
	resp3, err := c.Do(slowed(genReq("rr", 5, 64, 0), 5*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	if resp3.Status != proto.StatusAborted || resp3.Abort.Reason != solver.AbortDeadline {
		t.Fatalf("deadline solve: %+v", resp3)
	}
	if resp3.Abort.Bound != "ctx" {
		t.Errorf("served deadline bound = %q, want ctx", resp3.Abort.Bound)
	}

	// A checkpoint handle that fingerprints a different system is rejected
	// at admission, before any solving state exists.
	req4 := genReq("sw", 99, 12, 0)
	req4.Checkpoint = resp.Checkpoint
	resp4, err := c.Do(req4)
	if err != nil {
		t.Fatal(err)
	}
	if resp4.Status != proto.StatusRejected || !strings.Contains(resp4.Reason, "fingerprint") {
		t.Fatalf("mismatched resume handle: %+v", resp4)
	}
}

func TestServePreemptResume(t *testing.T) {
	// Quantum 16 with one worker: a long solve is preempted many times; a
	// short solve admitted behind it still completes (fairness).
	srv, addr := startServer(t, Options{Workers: 1, Queue: 8, Quantum: 16, MaxTimeout: 30 * time.Second})
	c := dialT(t, addr)

	long := make(chan *proto.Response, 1)
	go func() {
		resp, err := c.Do(genReq("sw", 3, 400, 400))
		if err != nil {
			t.Error(err)
			long <- nil
			return
		}
		long <- resp
	}()
	// Give the long solve a head start so it occupies the worker.
	time.Sleep(50 * time.Millisecond)
	short, err := c.Do(&proto.Request{Solver: "sw", Source: proto.SourceEq, System: loopEq, MaxEvals: 100000})
	if err != nil {
		t.Fatal(err)
	}
	if short.Status != proto.StatusCompleted {
		t.Fatalf("short solve behind a long one: %+v", short)
	}
	resp := <-long
	if resp == nil {
		t.Fatal("long solve lost")
	}
	if resp.Status != proto.StatusAborted || resp.Abort.Reason != solver.AbortBudget {
		t.Fatalf("long solve: %+v", resp)
	}
	if resp.Abort.Evals != 400 {
		t.Errorf("long solve evals = %d, want the full client budget 400", resp.Abort.Evals)
	}
	if resp.Preemptions == 0 {
		t.Error("long solve was never preempted despite quantum ≪ budget")
	}
	snap := srv.Metrics().Snapshot()
	if snap["eqsolved_preemptions_total"] == 0 {
		t.Error("metrics recorded no preemptions")
	}
}

func TestServePreemptedResultsBitIdentical(t *testing.T) {
	// A solve preempted and resumed many times must agree bit-for-bit
	// (values and Stats) with an unpreempted local run of the same workload.
	_, addr := startServer(t, Options{Workers: 2, Quantum: 7, MaxTimeout: 30 * time.Second})
	c := dialT(t, addr)
	resp, err := c.Do(genReq("sw", 11, 40, 100000))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != proto.StatusCompleted {
		t.Fatalf("served: %+v", resp)
	}
	if resp.Preemptions == 0 {
		t.Fatal("solve was not preempted; quantum too large for the workload?")
	}
	local, err := localControl(genReq("sw", 11, 40, 100000))
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Values) != len(local.Values) {
		t.Fatalf("served %d values, local %d", len(resp.Values), len(local.Values))
	}
	for x, v := range local.Values {
		if resp.Values[x] != v {
			t.Errorf("value of %s: served %q, local %q", x, resp.Values[x], v)
		}
	}
	if resp.Stats.Evals != local.Stats.Evals || resp.Stats.Updates != local.Stats.Updates {
		t.Errorf("served stats (evals %d, updates %d) != local (evals %d, updates %d)",
			resp.Stats.Evals, resp.Stats.Updates, local.Stats.Evals, local.Stats.Updates)
	}
}

// localControl runs the request's workload in-process with no quantum — the
// bit-identity reference for served solves.
func localControl(req *proto.Request) (*proto.Response, error) {
	j, err := buildJob(req)
	if err != nil {
		return nil, err
	}
	out := j.runSlice(nil, 0)
	return out.resp, nil
}

func TestServeOverloadRejection(t *testing.T) {
	// One worker, tiny queue, and per-client cap above capacity: saturating
	// the daemon with slow solves must produce explicit overload rejections,
	// and every accepted solve must still terminate.
	srv, addr := startServer(t, Options{Workers: 1, Queue: 2, PerClient: 64, MaxTimeout: 10 * time.Second})
	c := dialT(t, addr)

	const n = 12
	results := make(chan *proto.Response, n)
	for i := 0; i < n; i++ {
		go func() {
			resp, err := c.Do(slowed(genReq("sw", 7, 24, 0), 2*time.Millisecond))
			if err != nil {
				results <- nil
				return
			}
			results <- resp
		}()
	}
	var accepted, overloaded int
	for i := 0; i < n; i++ {
		resp := <-results
		if resp == nil {
			t.Fatal("lost request")
		}
		switch {
		case resp.Status == proto.StatusCompleted:
			accepted++
		case resp.Status == proto.StatusRejected && resp.Reason == "overloaded":
			overloaded++
		default:
			t.Errorf("unexpected outcome: %+v", resp)
		}
	}
	if accepted == 0 {
		t.Error("no request was accepted")
	}
	if overloaded == 0 {
		t.Error("saturation produced no overload rejection (capacity 3, 12 requests)")
	}
	snap := srv.Metrics().Snapshot()
	if got := snap["eqsolved_rejected_total{reason=overloaded}"]; got != uint64(overloaded) {
		t.Errorf("metrics overloaded = %d, responses said %d", got, overloaded)
	}
	if got := snap["eqsolved_accepted_total"]; got != uint64(accepted) {
		t.Errorf("metrics accepted = %d, responses said %d", got, accepted)
	}
}

func TestServePerClientCap(t *testing.T) {
	_, addr := startServer(t, Options{Workers: 1, Queue: 16, PerClient: 2, MaxTimeout: 10 * time.Second})
	c := dialT(t, addr)
	const n = 8
	results := make(chan *proto.Response, n)
	for i := 0; i < n; i++ {
		go func() {
			resp, err := c.Do(slowed(genReq("sw", 7, 24, 0), 2*time.Millisecond))
			if err != nil {
				results <- nil
				return
			}
			results <- resp
		}()
	}
	var capped int
	for i := 0; i < n; i++ {
		resp := <-results
		if resp == nil {
			t.Fatal("lost request")
		}
		if resp.Status == proto.StatusRejected && resp.Reason == "client-cap" {
			capped++
		}
	}
	if capped == 0 {
		t.Error("8 pipelined requests against PerClient=2 produced no client-cap rejection")
	}
}

func TestServeMalformedEnvelopeKeepsSession(t *testing.T) {
	// A syntactically valid frame with a garbage envelope is answered with
	// a rejection and the session stays usable.
	_, addr := startServer(t, Options{Workers: 1})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := proto.WriteMagic(conn); err != nil {
		t.Fatal(err)
	}
	if err := proto.ReadMagic(conn); err != nil {
		t.Fatal(err)
	}
	if err := proto.WriteFrame(conn, []byte(`{"solver":"nope"}`)); err != nil {
		t.Fatal(err)
	}
	resp, err := proto.ReadResponse(conn)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != proto.StatusRejected {
		t.Fatalf("garbage envelope: %+v", resp)
	}
	// The same connection still serves a real request.
	if err := proto.WriteRequest(conn, &proto.Request{ID: 7, Solver: "sw", Source: proto.SourceEq, System: loopEq, MaxEvals: 100000}); err != nil {
		t.Fatal(err)
	}
	resp, err = proto.ReadResponse(conn)
	if err != nil {
		t.Fatal(err)
	}
	if resp.ID != 7 || resp.Status != proto.StatusCompleted {
		t.Fatalf("request after garbage: %+v", resp)
	}
}

// TestServeRejectsTooDeepSystem: a .eq system nested one level past
// eqdsl.MaxDepth is rejected at admission with the parse error, instead of
// risking a fatal stack overflow in the daemon, and the connection then
// serves a normal request.
func TestServeRejectsTooDeepSystem(t *testing.T) {
	_, addr := startServer(t, Options{Workers: 1})
	c := dialT(t, addr)
	k := eqdsl.MaxDepth + 1
	deep := "domain interval\nx = " + strings.Repeat("(", k) + "1" + strings.Repeat(")", k) + "\n"
	resp, err := c.Do(&proto.Request{Solver: "sw", Source: proto.SourceEq, System: deep, MaxEvals: 100000})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != proto.StatusRejected || !strings.Contains(resp.Reason, "line 2: expression nested deeper") {
		t.Fatalf("too-deep system: %s (%s), want rejected with the depth error", resp.Status, resp.Reason)
	}
	resp, err = c.Do(&proto.Request{Solver: "sw", Source: proto.SourceEq, System: loopEq, MaxEvals: 100000})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != proto.StatusCompleted {
		t.Fatalf("request after the rejection: %s (%s), want completed", resp.Status, resp.Reason)
	}
}

func TestServeRejectsBadHandshake(t *testing.T) {
	srv, addr := startServer(t, Options{Workers: 1, HandshakeTimeout: 500 * time.Millisecond})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.Write([]byte("GET /metrics HTTP/1.1\r\n\r\n"))
	buf := make([]byte, 1)
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Read(buf); err == nil {
		t.Error("server answered a non-protocol client")
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if srv.Metrics().Snapshot()["eqsolved_bad_handshake_total"] > 0 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Error("bad handshake not recorded")
}

// TestServeCPWPreemptedCertified: a served cpw solve survives quantum
// preemption — the quiesce-and-drain checkpoints park and resume across
// slices — and the completed result certifies as a post-solution of the
// regenerated system. cpw is certified, never bit-pinned, so unlike
// TestServePreemptedResultsBitIdentical there is no Stats comparison.
func TestServeCPWPreemptedCertified(t *testing.T) {
	_, addr := startServer(t, Options{Workers: 2, Quantum: 7, MaxTimeout: 30 * time.Second})
	c := dialT(t, addr)
	resp, err := c.Do(genReq("cpw", 11, 40, 100000))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != proto.StatusCompleted {
		t.Fatalf("served: %+v", resp)
	}
	if resp.Preemptions == 0 {
		t.Fatal("solve was not preempted; quantum too large for the workload?")
	}
	g := eqgen.New(eqgen.Config{Seed: 11, N: 40})
	codec := ckptcodec.IntervalCodec()
	sigma := make(map[int]lattice.Interval, len(resp.Values))
	for xs, ds := range resp.Values {
		x, err := codec.DecodeX(xs)
		if err != nil {
			t.Fatal(err)
		}
		v, err := codec.DecodeD(ds)
		if err != nil {
			t.Fatal(err)
		}
		sigma[x] = v
	}
	init := eqn.ConstBottom[int, lattice.Interval](lattice.Ints)
	if rep := certify.System(lattice.Ints, g.Interval, sigma, init); !rep.OK() {
		t.Errorf("preempted cpw result does not certify: %s", rep)
	}
}
