package serve

import (
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"warrow/internal/chaos"
	"warrow/internal/serve/proto"
	"warrow/internal/solver"
)

// TestServeSoak is the seeded mixed-workload soak: short solves, long
// preempted solves, wall-clock-heavy solves that blow their deadline, and
// chaos-panicking solves, all through a small saturated daemon. Every
// submitted request must reach a terminal outcome — completed, aborted with
// a structured report (resumable where the solver supports it), or
// explicitly rejected — the metrics must balance, and the server must drain
// to its goroutine baseline. Run it under -race for the full effect.
func TestServeSoak(t *testing.T) {
	before := runtime.NumGoroutine()
	srv, addr := startServer(t, Options{Workers: 2, Queue: 6, Quantum: 64, PerClient: 6,
		MaxTimeout: 300 * time.Millisecond, WriteTimeout: 2 * time.Second})

	rng := rand.New(rand.NewSource(4242))
	kinds := []func(seed uint64) *proto.Request{
		// Short: completes comfortably.
		func(seed uint64) *proto.Request { return genReq("sw", seed, 16, 0) },
		// Long with a budget: preempted between quanta, aborts at its budget.
		func(seed uint64) *proto.Request { return genReq("sw", seed, 300, 200) },
		// Slow: per-eval latency pushes it past the server deadline ceiling.
		func(seed uint64) *proto.Request { return slowed(genReq("rr", seed, 64, 0), 10*time.Millisecond) },
		// Panicking: persistent chaos faults abort with eval-failure.
		func(seed uint64) *proto.Request {
			req := genReq("psw", seed, 40, 0)
			req.Chaos = &chaos.Config{Seed: seed, Persistent: 0.3}
			return req
		},
	}

	const clients = 4
	const perClient = 10
	var (
		mu       sync.Mutex
		resolved int
		statuses = map[string]int{}
		reasons  = map[string]int{}
	)
	var wg sync.WaitGroup
	for ci := 0; ci < clients; ci++ {
		c := dialT(t, addr)
		// Each client pipelines a seeded shuffle of the workload kinds.
		seeds := make([]uint64, perClient)
		picks := make([]int, perClient)
		for i := range seeds {
			seeds[i] = rng.Uint64() % 1000
			picks[i] = rng.Intn(len(kinds))
		}
		wg.Add(1)
		// Each client submits sequentially: four concurrent clients stay
		// under the admission capacity, so every request is accepted and the
		// outcome mix is a property of the workloads alone (overload and
		// client-cap rejection have their own dedicated tests).
		go func(c *Client, seeds []uint64, picks []int) {
			defer wg.Done()
			for i := range seeds {
				req := kinds[picks[i]](seeds[i])
				resp, err := c.Do(req)
				if err != nil {
					t.Errorf("soak request died: %v", err)
					return
				}
				mu.Lock()
				resolved++
				statuses[resp.Status]++
				if resp.Status == proto.StatusAborted {
					reasons[resp.Abort.Reason.String()]++
					// Complete-certified-or-resumable: preemptible solver
					// aborts must carry a resumable handle.
					if solver.ExactResume(req.Solver) && resp.Checkpoint == "" {
						t.Errorf("aborted %s solve carries no checkpoint (reason %s)", req.Solver, resp.Abort.Reason)
					}
				}
				if resp.Status == proto.StatusCompleted && len(resp.Values) == 0 {
					t.Error("completed solve returned no values")
				}
				mu.Unlock()
			}
		}(c, seeds, picks)
	}
	wg.Wait()

	if resolved != clients*perClient {
		t.Fatalf("resolved %d of %d requests", resolved, clients*perClient)
	}
	if statuses[proto.StatusCompleted] == 0 {
		t.Error("soak produced no completed solve")
	}
	if reasons[solver.AbortBudget.String()] == 0 {
		t.Error("soak produced no budget abort")
	}
	if reasons[solver.AbortEvalFailure.String()] == 0 {
		t.Error("soak produced no eval-failure abort from the panicking workload")
	}
	t.Logf("soak outcomes: %v, abort reasons: %v", statuses, reasons)

	// Metrics balance: accepted == completed + aborted, and rejected covers
	// the rest of what the clients saw.
	snap := srv.Metrics().Snapshot()
	finished := snap["eqsolved_completed_total"]
	for name, n := range snap {
		if strings.HasPrefix(name, "eqsolved_aborted_total{") {
			finished += n
		}
	}
	if snap["eqsolved_accepted_total"] != finished {
		t.Errorf("accepted %d != terminal outcomes %d", snap["eqsolved_accepted_total"], finished)
	}
	if snap["eqsolved_queue_depth"] != 0 {
		t.Errorf("queue depth %d after the soak drained", snap["eqsolved_queue_depth"])
	}

	srv.Close()
	waitGoroutines(t, before)
}

// TestServeMetricsBalancedPerAnswer checks the admission accounting from
// the client's side of every answer: a client that has read the answer to
// each request it sent must find each of them counted as accepted and as
// finished, and the queue depth back at zero. A worker can run and answer a
// task as soon as it reaches the run queue, so the acceptance has to be
// counted before then. Tiny sequential solves on two workers keep that
// window open; run it under -race, where the answer most often wins.
func TestServeMetricsBalancedPerAnswer(t *testing.T) {
	srv, addr := startServer(t, Options{Workers: 2})
	c := dialT(t, addr)
	for i := 1; i <= 2000; i++ {
		resp, err := c.Do(genReq("sw", uint64(i), 4, 0))
		if err != nil {
			t.Fatal(err)
		}
		if resp.Status != proto.StatusCompleted {
			t.Fatalf("request %d: status %s (%s), want completed", i, resp.Status, resp.Reason)
		}
		snap := srv.Metrics().Snapshot()
		finished := snap["eqsolved_completed_total"]
		for name, n := range snap {
			if strings.HasPrefix(name, "eqsolved_aborted_total{") {
				finished += n
			}
		}
		accepted, depth := snap["eqsolved_accepted_total"], snap["eqsolved_queue_depth"]
		if accepted != uint64(i) || finished != accepted || depth != 0 {
			t.Fatalf("after answer %d: accepted %d, terminal outcomes %d, queue depth %d",
				i, accepted, finished, int64(depth))
		}
	}
}
