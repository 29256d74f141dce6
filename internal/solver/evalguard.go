package solver

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"time"
)

// EvalError describes the failure of a single right-hand-side evaluation:
// the rendered unknown whose equation failed, the 1-based attempt number of
// the last attempt, and the recovered cause. A panicking right-hand side is
// converted into an EvalError by the recover barrier every solver routes
// evaluations through, so one faulty equation aborts the solve with a
// structured diagnosis instead of killing the process (and, under PSW,
// instead of killing the whole worker pool).
type EvalError struct {
	// Unknown is the rendered unknown (fmt.Sprint of the solver's X).
	Unknown string
	// Attempt is the 1-based number of the attempt that failed last; with
	// retries enabled it equals the number of attempts performed.
	Attempt int
	// Cause is the recovered panic value (wrapped as an error) or the
	// injected failure.
	Cause error
}

// Error implements error.
func (e *EvalError) Error() string {
	return fmt.Sprintf("solver: evaluation of %s failed (attempt %d): %v", e.Unknown, e.Attempt, e.Cause)
}

// Unwrap exposes the cause, so errors.Is(err, ErrTransient) sees through.
func (e *EvalError) Unwrap() error { return e.Cause }

// evalErrorJSON is the stable wire shape of an EvalError: the cause is
// flattened to its rendered message, because error values do not survive
// serialization (and the serving tier only needs the diagnosis, not the
// chain).
type evalErrorJSON struct {
	Unknown string `json:"unknown"`
	Attempt int    `json:"attempt"`
	Cause   string `json:"cause"`
}

// MarshalJSON renders the failure with stable field names (golden-tested),
// so structured logs and wire responses never hand-roll it.
func (e *EvalError) MarshalJSON() ([]byte, error) {
	var cause string
	if e.Cause != nil {
		cause = e.Cause.Error()
	}
	return json.Marshal(evalErrorJSON{Unknown: e.Unknown, Attempt: e.Attempt, Cause: cause})
}

// UnmarshalJSON inverts MarshalJSON; the cause comes back as an opaque
// error carrying the rendered message only.
func (e *EvalError) UnmarshalJSON(data []byte) error {
	var aux evalErrorJSON
	if err := json.Unmarshal(data, &aux); err != nil {
		return err
	}
	e.Unknown, e.Attempt, e.Cause = aux.Unknown, aux.Attempt, nil
	if aux.Cause != "" {
		e.Cause = errors.New(aux.Cause)
	}
	return nil
}

// ErrTransient marks evaluation failures that a retry may heal: timeouts of
// an external fact provider, injected chaos faults, resource blips. The
// default retry predicate retries exactly the causes that match it through
// errors.Is; persistent failures (plain panics, nil dereferences) do not
// match and abort on the first attempt.
var ErrTransient = errors.New("transient evaluation failure")

// contractViolation is the panic payload of programming-contract violations
// raised by the solvers themselves (for example a right-hand side
// side-effecting its own unknown). The recover barrier re-panics on it:
// contract violations are bugs in the equation system, not evaluation
// faults, and must surface as panics in tests and callers alike.
type contractViolation struct{ msg string }

func (c contractViolation) String() string { return c.msg }

// RetryPolicy tunes per-unknown retries of failed right-hand-side
// evaluations. The zero value disables retrying: every failure aborts on
// the first attempt.
type RetryPolicy struct {
	// MaxAttempts is the total number of attempts per evaluation, the first
	// one included; values ≤ 1 disable retrying.
	MaxAttempts int
	// BaseDelay is the backoff before the second attempt; it doubles for
	// each further attempt. Zero means retry immediately.
	BaseDelay time.Duration
	// MaxDelay caps the backoff; 0 means uncapped.
	MaxDelay time.Duration
	// Retryable decides whether a failure is worth retrying; nil means
	// errors.Is(err, ErrTransient).
	Retryable func(error) bool
	// Seed seeds the jitter stream (full jitter in [delay/2, delay]), so a
	// run's sleep schedule is reproducible. The jitter stream never affects
	// the solve result, only its timing.
	Seed uint64
}

// evalGuard is the per-run recover barrier and retry loop shared by every
// solver. It is always armed — panic isolation has no configuration knob —
// while the retry behavior comes from Config.Retry. PSW and CPW each share
// one guard across their worker pool, so the jitter stream is
// mutex-guarded.
type evalGuard struct {
	policy RetryPolicy

	mu  sync.Mutex
	rng uint64
	// sleep is a test seam; nil means time.Sleep.
	sleep func(time.Duration)
}

func newEvalGuard(cfg Config) *evalGuard {
	return &evalGuard{policy: cfg.Retry, rng: cfg.Retry.Seed ^ 0x9e3779b97f4a7c15}
}

func (g *evalGuard) retryable(err error) bool {
	if g.policy.Retryable != nil {
		return g.policy.Retryable(err)
	}
	return errors.Is(err, ErrTransient)
}

// backoff sleeps before retry attempt number next (2-based), with
// exponential growth and full jitter in [delay/2, delay].
func (g *evalGuard) backoff(next int) {
	d := g.policy.BaseDelay
	if d <= 0 {
		return
	}
	for i := 2; i < next; i++ {
		d *= 2
		if g.policy.MaxDelay > 0 && d >= g.policy.MaxDelay {
			d = g.policy.MaxDelay
			break
		}
	}
	if g.policy.MaxDelay > 0 && d > g.policy.MaxDelay {
		d = g.policy.MaxDelay
	}
	g.mu.Lock()
	g.rng += 0x9e3779b97f4a7c15
	z := g.rng
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	g.mu.Unlock()
	half := d / 2
	jittered := half + time.Duration(z%uint64(half+1))
	sleep := g.sleep
	if sleep == nil {
		sleep = time.Sleep
	}
	sleep(jittered)
}

// attemptEval runs one evaluation under the recover barrier, converting a
// panic into an error. Contract-violation panics propagate unchanged.
func attemptEval[D any](f func() D) (d D, cause error) {
	defer func() {
		if r := recover(); r != nil {
			if cv, ok := r.(contractViolation); ok {
				// Re-panic the typed value, not its message: nested barriers
				// (local solvers evaluate unknowns inside other evaluations)
				// must pass contract violations through unchanged too.
				panic(cv)
			}
			if err, ok := r.(error); ok {
				cause = fmt.Errorf("panic: %w", err)
			} else {
				cause = fmt.Errorf("panic: %v", r)
			}
		}
	}()
	return f(), nil
}

// guardedEval evaluates f under the recover barrier with g's retry policy.
// It returns the value, the number of attempts performed, and — if the last
// attempt failed — the structured EvalError. Failed attempts never count as
// evaluations in Stats.Evals; the callers roll nothing forward on failure.
func guardedEval[X comparable, D any](g *evalGuard, x X, f func() D) (D, int, *EvalError) {
	maxAttempts := g.policy.MaxAttempts
	if maxAttempts < 1 {
		maxAttempts = 1
	}
	for attempt := 1; ; attempt++ {
		d, cause := attemptEval(f)
		if cause == nil {
			return d, attempt, nil
		}
		if attempt >= maxAttempts || !g.retryable(cause) {
			var zero D
			return zero, attempt, &EvalError{Unknown: fmt.Sprint(x), Attempt: attempt, Cause: cause}
		}
		g.backoff(attempt + 1)
	}
}
