package solver

import (
	"fmt"
	"time"
)

// rrLoop is RR's loop (Fig. 1) over a built core.
func rrLoop[X comparable, D any](vc execCore[X, D], wd *watchdog[X], cfg Config, _ time.Time) (Stats, error) {
	sc := vc.scope()
	n := sc.n
	ck := newCkptSink(cfg)
	var st Stats
	st.Unknowns = n
	start, dirty := 0, false
	if cp, err := resumeCheckpoint(cfg, "rr", sc); err != nil {
		return st, err
	} else if cp != nil {
		if err := vc.restore(cp); err != nil {
			return st, err
		}
		cp.restoreStats(&st)
		start, dirty = cp.Cursor, cp.Dirty
		if start < 0 || start >= n {
			return st, fmt.Errorf("%w: rr cursor %d out of range", ErrBadCheckpoint, start)
		}
	}
	// capture snapshots the interrupted sweep: k is the order index of the
	// next unknown to evaluate, dirty whether the sweep already changed
	// something. Captured only at scheduling points, never mid-evaluation.
	capture := func(k int, dirty bool) *Checkpoint[X, D] {
		cp := vc.snapshot("rr", st)
		cp.Cursor, cp.Dirty = k, dirty
		return cp
	}
	step := vc.stepper(false)
	for {
		evaled := false
		for k := start; k < n; k++ {
			if err := wd.check(st.Evals); err != nil {
				err = attachCheckpoint(err, capture(k, dirty))
				if evaled {
					st.Rounds++
				}
				return st, err
			}
			if ck.due(st.Evals) {
				ck.emit(st.Evals, capture(k, dirty))
			}
			_, changed, attempts, ee := step(k, true)
			st.Retries += attempts - 1
			if ee != nil {
				err := attachCheckpoint(wd.failEval(ee, st.Evals), capture(k, dirty))
				if evaled {
					st.Rounds++
				}
				return st, err
			}
			st.Evals++
			evaled = true
			if changed {
				st.Updates++
				dirty = true
			}
		}
		start = 0
		st.Rounds++
		if !dirty {
			return st, nil
		}
		dirty = false
	}
}

// wLoop is W's loop (Fig. 2) over a built core: the LIFO stack holds order
// positions and the membership set is a bitset.
func wLoop[X comparable, D any](vc execCore[X, D], wd *watchdog[X], cfg Config, _ time.Time) (Stats, error) {
	sc := vc.scope()
	n := sc.n
	ck := newCkptSink(cfg)
	var st Stats
	st.Unknowns = n

	stack := make([]int32, 0, n)
	present := newBitset(n)
	push := func(i int32) {
		if !present.has(int(i)) {
			present.set(int(i))
			stack = append(stack, i)
		}
	}
	if cp, err := resumeCheckpoint(cfg, "w", sc); err != nil {
		return st, err
	} else if cp != nil {
		if err := vc.restore(cp); err != nil {
			return st, err
		}
		cp.restoreStats(&st)
		// cp.Queue holds the stack bottom-to-top; pushing in order restores
		// the exact LIFO state.
		queued, qerr := sc.queueIndices(cp.Queue)
		if qerr != nil {
			return st, qerr
		}
		for _, i := range queued {
			push(int32(i))
		}
	} else {
		// Push in reverse so that x₁ is on top initially, matching the
		// paper's trace W = [x₁, x₂] where x₁ is extracted first.
		for i := n - 1; i >= 0; i-- {
			push(int32(i))
		}
		st.MaxQueue = len(stack)
	}
	capture := func() *Checkpoint[X, D] {
		cp := vc.snapshot("w", st)
		idxs := make([]int, len(stack))
		for k, i := range stack {
			idxs[k] = int(i)
		}
		cp.Queue = sc.queueUnknowns(idxs)
		return cp
	}
	step := vc.stepper(false)
	for len(stack) > 0 {
		if err := wd.check(st.Evals); err != nil {
			return st, attachCheckpoint(err, capture())
		}
		if ck.due(st.Evals) {
			ck.emit(st.Evals, capture())
		}
		i := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		present.clear(int(i))
		_, changed, attempts, ee := step(int(i), true)
		st.Retries += attempts - 1
		if ee != nil {
			// The failed evaluation never happened: keep x scheduled so the
			// checkpoint resumes by re-evaluating it.
			push(i)
			return st, attachCheckpoint(wd.failEval(ee, st.Evals), capture())
		}
		st.Evals++
		if changed {
			st.Updates++
			readers := sc.infl(int(i))
			for k := len(readers) - 1; k >= 0; k-- {
				push(readers[k])
			}
			if len(stack) > st.MaxQueue {
				st.MaxQueue = len(stack)
			}
		}
	}
	return st, nil
}

// srrLoop is SRR's loop (Fig. 3) over a built core.
func srrLoop[X comparable, D any](vc execCore[X, D], wd *watchdog[X], cfg Config, _ time.Time) (Stats, error) {
	sc := vc.scope()
	n := sc.n
	ck := newCkptSink(cfg)
	var st Stats
	st.Unknowns = n
	resumeLevel := 0
	if cp, err := resumeCheckpoint(cfg, "srr", sc); err != nil {
		return st, err
	} else if cp != nil {
		if err := vc.restore(cp); err != nil {
			return st, err
		}
		cp.restoreStats(&st)
		resumeLevel = cp.Cursor
		if resumeLevel < 1 || resumeLevel > n {
			return st, fmt.Errorf("%w: srr cursor %d out of range", ErrBadCheckpoint, resumeLevel)
		}
	}
	capture := func(i int) *Checkpoint[X, D] {
		cp := vc.snapshot("srr", st)
		cp.Cursor = i
		return cp
	}
	step := vc.stepper(false)
	var solve func(i int, resumed bool) error
	solve = func(i int, resumed bool) error {
		if i == 0 {
			return nil
		}
		first := resumed
		for {
			// On the first iteration of a resumed frame, the recursive call
			// is the one that was in flight at the checkpoint: re-enter it
			// resumed too, except at the innermost frame, which had already
			// completed it and was parked at the evaluation.
			if !(first && i == resumeLevel) {
				if err := solve(i-1, first && i > resumeLevel); err != nil {
					return err
				}
			}
			first = false
			if err := wd.check(st.Evals); err != nil {
				return attachCheckpoint(err, capture(i))
			}
			if ck.due(st.Evals) {
				ck.emit(st.Evals, capture(i))
			}
			_, changed, attempts, ee := step(i-1, true)
			st.Retries += attempts - 1
			if ee != nil {
				return attachCheckpoint(wd.failEval(ee, st.Evals), capture(i))
			}
			st.Evals++
			if !changed {
				return nil
			}
			st.Updates++
		}
	}
	err := solve(n, resumeLevel > 0)
	return st, err
}

// swLoop is SW's loop (Fig. 4) over a built core: the index-ordered binary
// heap collapses into the monotone bucket queue, because an unknown's
// priority is exactly its order position.
func swLoop[X comparable, D any](vc execCore[X, D], wd *watchdog[X], cfg Config, _ time.Time) (Stats, error) {
	sc := vc.scope()
	n := sc.n
	ck := newCkptSink(cfg)
	var st Stats
	st.Unknowns = n

	q := newBucketQueue(0, n-1)
	if cp, err := resumeCheckpoint(cfg, "sw", sc); err != nil {
		return st, err
	} else if cp != nil {
		if err := vc.restore(cp); err != nil {
			return st, err
		}
		cp.restoreStats(&st)
		queued, qerr := sc.queueIndices(cp.Queue)
		if qerr != nil {
			return st, qerr
		}
		for _, i := range queued {
			q.push(i)
		}
	} else {
		for i := 0; i < n; i++ {
			q.push(i)
		}
		st.MaxQueue = q.len()
	}
	capture := func() *Checkpoint[X, D] {
		cp := vc.snapshot("sw", st)
		// indices() is ascending: the queue is stored sorted by position.
		cp.Queue = sc.queueUnknowns(q.indices())
		return cp
	}
	step := vc.stepper(false)
	for !q.empty() {
		if err := wd.check(st.Evals); err != nil {
			return st, attachCheckpoint(err, capture())
		}
		if ck.due(st.Evals) {
			ck.emit(st.Evals, capture())
		}
		i := q.popMin()
		_, changed, attempts, ee := step(i, true)
		st.Retries += attempts - 1
		if ee != nil {
			// The failed evaluation never happened: keep x scheduled so the
			// checkpoint resumes by re-evaluating it.
			q.push(i)
			return st, attachCheckpoint(wd.failEval(ee, st.Evals), capture())
		}
		st.Evals++
		if changed {
			st.Updates++
			q.push(i)
			for _, j := range sc.infl(i) {
				q.push(int(j))
			}
			if q.len() > st.MaxQueue {
				st.MaxQueue = q.len()
			}
		}
	}
	return st, nil
}
