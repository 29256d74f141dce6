package serve

import (
	"context"
	"sync"
	"time"

	"warrow/internal/serve/proto"
)

// task is one admitted request moving through the scheduler: the typed job,
// the request-scoped context (connection cancellation + effective deadline),
// and the completion callback that delivers the response and releases every
// admission resource. A task is always in exactly one place — the run queue
// or a worker — so the requeue of a preempted task can never block.
type task struct {
	job      job
	ctx      context.Context
	cancel   context.CancelFunc
	preempts int
	// wallNs accumulates on-worker solve time across slices. The sequential
	// solvers leave Stats.WallNs zero, so the scheduler measures it — queue
	// and parked time excluded.
	wallNs int64
	// finish delivers the final response (session write, metrics, slot and
	// cap release). Called exactly once per task.
	finish func(*proto.Response, int)
}

// scheduler multiplexes admitted tasks over a fixed worker pool with a
// bounded admission semaphore. Admission and queueing share one capacity:
// a task holds its slot from admit until finish, whether queued, running,
// or parked between quanta, so the total number of admitted-but-unfinished
// requests is bounded and a requeue always finds space in runq.
type scheduler struct {
	quantum int
	slots   chan struct{}
	runq    chan *task
	done    chan struct{}
	wg      sync.WaitGroup
	metrics *Metrics
}

// newScheduler starts workers goroutines over a capacity-bounded queue.
func newScheduler(workers, capacity, quantum int, m *Metrics) *scheduler {
	s := &scheduler{
		quantum: quantum,
		slots:   make(chan struct{}, capacity),
		runq:    make(chan *task, capacity),
		done:    make(chan struct{}),
		metrics: m,
	}
	for i := 0; i < workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// admit tries to take an admission slot. It never blocks: when the
// semaphore is full the caller answers REJECTED overloaded — bounded,
// observable backpressure instead of an unbounded buffer. A caller that
// gets a slot must pass its task to enqueue.
func (s *scheduler) admit() bool {
	select {
	case s.slots <- struct{}{}:
		return true
	default:
		return false
	}
}

// enqueue hands an admitted task to the workers. It cannot block: #queued ≤
// #slots held ≤ cap(runq). A worker may run and finish t before enqueue
// returns.
func (s *scheduler) enqueue(t *task) {
	s.runq <- t
}

// stop terminates the worker pool. The caller must first ensure every
// admitted task has finished (the server cancels contexts and waits on its
// task group), so no task is stranded in runq.
func (s *scheduler) stop() {
	close(s.done)
	s.wg.Wait()
}

func (s *scheduler) worker() {
	defer s.wg.Done()
	for {
		select {
		case <-s.done:
			return
		case t := <-s.runq:
			s.run(t)
		}
	}
}

// run advances one task by one quantum. A non-final slice parks the job's
// checkpoint inside the task and requeues it at the back of the FIFO, so
// short solves admitted later interleave fairly with long batch solves; a
// final slice delivers the response and releases the admission slot.
func (s *scheduler) run(t *task) {
	start := time.Now()
	out := t.job.runSlice(t.ctx, s.quantum)
	t.wallNs += time.Since(start).Nanoseconds()
	if !out.final {
		t.preempts++
		s.metrics.incPreemption()
		s.runq <- t
		return
	}
	t.cancel()
	if out.resp.Stats != nil {
		out.resp.Stats.WallNs = t.wallNs
	}
	t.finish(out.resp, t.preempts)
	<-s.slots
}
