package solver

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"strconv"
	"strings"

	"warrow/internal/eqn"
)

// CheckpointVersion is the wire-format version MarshalCheckpoint writes and
// UnmarshalCheckpoint accepts. The format is append-only within a version:
// readers reject any other version outright, so a format change must bump
// this constant and keep the old reader if old checkpoints are to survive.
const CheckpointVersion = 1

// ErrBadCheckpoint is wrapped by every checkpoint validation failure: wrong
// element types, wrong solver, wrong system fingerprint, corrupt wire data.
var ErrBadCheckpoint = errors.New("solver: checkpoint rejected")

// Checkpoint is a deterministic snapshot of an in-flight solve, captured at
// a scheduling point (never mid-evaluation): the assignment, the solver's
// scheduling state, and the work counters. For the global solvers (RR, W,
// SRR, SW, PSW) the snapshot is exact — resuming it via Config.Resume
// continues the very iteration that was interrupted, and for SRR, SW and
// PSW the resumed run is bit-identical (Evals, Updates, assignment) to an
// uninterrupted one. For the local solvers (RLD, SLR, SLR⁺), whose state
// lives on the Go stack, the snapshot holds the assignment only and resume
// is a warm restart: iteration restarts from the checkpointed values, which
// Amato et al.'s localized-restart argument makes sound — the run completes
// and certifies, but its eval counts are its own.
//
// Checkpoints are captured on every abort (attached to the AbortReport and
// extracted with CheckpointOf) and, when Config.CheckpointEvery is set,
// every that-many evaluations through Config.CheckpointSink.
type Checkpoint[X comparable, D any] struct {
	// Solver names the entry point that captured the snapshot: rr, w, srr,
	// sw, psw, cpw, slr2, slr3, slr4, rld, slr, slr+. Resume rejects a
	// mismatched solver.
	Solver string
	// SysFP fingerprints the system shape (rendered order + dependences);
	// resume rejects a checkpoint whose fingerprint differs from the target
	// system's. Zero for local solvers, whose systems are functions.
	SysFP uint64
	// Evals, Updates, Rounds, MaxQueue and Retries restore Stats so the
	// resumed run's totals continue where the interrupted run stopped.
	Evals, Updates, Rounds, MaxQueue, Retries int
	// Sigma lists the assignment in the system's linear order (global
	// solvers) or discovery order (local solvers).
	Sigma []CheckpointEntry[X, D]
	// Cursor is the solver-specific program counter: for RR the order index
	// of the next unknown to evaluate in the interrupted sweep; for SRR the
	// 1-based innermost active frame.
	Cursor int
	// Dirty is RR's "current sweep already changed something" flag.
	Dirty bool
	// Queue is the pending-work set at the scheduling point: W's stack from
	// bottom to top, SW's queued unknowns (priorities are recomputed from
	// the linear order), and the dirty set of SLR2–4 in hierarchical order.
	Queue []X
	// Strata is PSW's and CPW's per-stratum progress, indexed like the
	// deterministic stratification of the system.
	Strata []StratumCheckpoint
}

// CheckpointEntry is one assignment row of a Checkpoint.
type CheckpointEntry[X comparable, D any] struct {
	X X
	V D
}

// StratumCheckpoint records one PSW or CPW stratum's progress: completed
// strata are skipped on resume, started ones resume from their pending
// queue (order indices), and untouched ones start fresh.
type StratumCheckpoint struct {
	Done    bool
	Started bool
	// Queue holds the order indices still queued in a started stratum,
	// ascending.
	Queue []int
}

// Codec serializes unknowns and domain values for the checkpoint wire
// format. Encoded strings may contain arbitrary bytes; the wire format
// quotes them. Decode must invert Encode exactly — the round-trip tests and
// the golden format test pin this.
type Codec[X comparable, D any] struct {
	EncodeX func(X) string
	DecodeX func(string) (X, error)
	EncodeD func(D) string
	DecodeD func(string) (D, error)
}

// Fingerprint hashes the system shape — the rendered linear order and every
// dependence list — so a checkpoint cannot be resumed against a different
// system. Values and right-hand sides are deliberately not hashed: the
// whole point of warm restarts is resuming after the environment healed.
func Fingerprint[X comparable, D any](sys *eqn.System[X, D]) uint64 {
	return sys.ShapeHash()
}

// CheckpointOf extracts the checkpoint attached to a solver abort, if the
// error carries one of the matching element types.
func CheckpointOf[X comparable, D any](err error) (*Checkpoint[X, D], bool) {
	rep, ok := ReportOf(err)
	if !ok {
		return nil, false
	}
	cp, ok := rep.Checkpoint.(*Checkpoint[X, D])
	return cp, ok && cp != nil
}

// attachCheckpoint stores cp in the AbortReport carried by err, so every
// abort hands back a resume point alongside its diagnosis.
func attachCheckpoint(err error, cp any) error {
	var ae *AbortError
	if errors.As(err, &ae) {
		ae.Report.Checkpoint = cp
	}
	return err
}

// resumeCheckpoint validates Config.Resume for a solver entry point: nil
// Resume means a fresh run; anything else must be a *Checkpoint with the
// solver's element types, the solver's name, and (for the global solvers,
// which pass their scope) the shape of the system the scope solves. The
// fingerprint is computed here only when there is a checkpoint to check,
// so a fresh solve hashes its system only if it captures a checkpoint. The
// local solvers, whose systems are functions, pass nil.
func resumeCheckpoint[X comparable, D any](cfg Config, solverName string, sc *scope[X, D]) (*Checkpoint[X, D], error) {
	if cfg.Resume == nil {
		return nil, nil
	}
	cp, ok := cfg.Resume.(*Checkpoint[X, D])
	if !ok {
		return nil, fmt.Errorf("%w: Resume holds %T, not a checkpoint of this solver's element types", ErrBadCheckpoint, cfg.Resume)
	}
	if cp.Solver != solverName {
		return nil, fmt.Errorf("%w: checkpoint was captured by %q, resumed on %q", ErrBadCheckpoint, cp.Solver, solverName)
	}
	if sc != nil && cp.SysFP != 0 {
		if fp := sc.fingerprint(); fp != 0 && cp.SysFP != fp {
			return nil, fmt.Errorf("%w: system fingerprint %#x does not match checkpoint %#x", ErrBadCheckpoint, fp, cp.SysFP)
		}
	}
	return cp, nil
}

// restoreStats seeds a Stats from a checkpoint, so the resumed run's totals
// continue the interrupted run's.
func (cp *Checkpoint[X, D]) restoreStats(st *Stats) {
	st.Evals = cp.Evals
	st.Updates = cp.Updates
	st.Rounds = cp.Rounds
	st.MaxQueue = cp.MaxQueue
	st.Retries = cp.Retries
}

// sigmaMap returns the checkpointed assignment as a map.
func (cp *Checkpoint[X, D]) sigmaMap() map[X]D {
	m := make(map[X]D, len(cp.Sigma))
	for _, e := range cp.Sigma {
		m[e.X] = e.V
	}
	return m
}

// overlayInit returns an initial assignment that reads the checkpointed
// value where one exists and falls back to init otherwise — the warm
// restart used by the local solvers.
func (cp *Checkpoint[X, D]) overlayInit(init func(X) D) func(X) D {
	m := cp.sigmaMap()
	return func(x X) D {
		if v, ok := m[x]; ok {
			return v
		}
		return init(x)
	}
}

// newCheckpoint starts a compiled-solver checkpoint of the scope: name,
// fingerprint, counters and room for one Sigma row per unknown.
func (sc *scope[X, D]) newCheckpoint(name string, st Stats) *Checkpoint[X, D] {
	cp := &Checkpoint[X, D]{Solver: name, SysFP: sc.fingerprint()}
	cp.Evals, cp.Updates, cp.Rounds, cp.MaxQueue, cp.Retries =
		st.Evals, st.Updates, st.Rounds, st.MaxQueue, st.Retries
	cp.Sigma = make([]CheckpointEntry[X, D], sc.n)
	return cp
}

// snapshot captures the shared part of a compiled-solver checkpoint —
// name, fingerprint, counters and the scope's assignment in linear order —
// without materializing a sigma map: the Sigma rows are read straight off
// the flat assignment. The word store's snapshot produces byte-identical
// wire output on the same state, which is what lets checkpoints captured on
// one store resume on the other.
func (c *compiled[X, D]) snapshot(name string, st Stats) *Checkpoint[X, D] {
	cp := c.sc.newCheckpoint(name, st)
	for k := range cp.Sigma {
		i := c.sc.parent(k)
		cp.Sigma[k] = CheckpointEntry[X, D]{X: c.order[i], V: c.at(i)}
	}
	return cp
}

// restore applies a checkpointed assignment to the boxed store. Entries for
// unknowns outside the scope are ignored; a fingerprint-matched checkpoint
// carries none.
func (c *compiled[X, D]) restore(cp *Checkpoint[X, D]) error {
	for _, e := range cp.Sigma {
		if k, ok := c.sc.lookup(e.X); ok {
			c.set(c.sc.parent(k), e.V)
		}
	}
	return nil
}

// queueIndices maps a checkpoint's X-space queue to local positions,
// rejecting unknowns the scope does not hold.
func (sc *scope[X, D]) queueIndices(queue []X) ([]int, error) {
	out := make([]int, len(queue))
	for k, x := range queue {
		j, ok := sc.lookup(x)
		if !ok {
			return nil, fmt.Errorf("%w: queued unknown %v is not in the system", ErrBadCheckpoint, x)
		}
		out[k] = j
	}
	return out, nil
}

// queueUnknowns maps local positions back to X-space for a checkpoint.
func (sc *scope[X, D]) queueUnknowns(idxs []int) []X {
	out := make([]X, len(idxs))
	for k, i := range idxs {
		out[k] = sc.sh.order[sc.parent(i)]
	}
	return out
}

// snapshotLocal captures a warm-restart checkpoint for a local solver: the
// assignment dom[i] = sigma[i] in the order given, plus counters for
// reporting.
func snapshotLocal[X comparable, D any](name string, dom []X, sigma []D, st Stats) *Checkpoint[X, D] {
	cp := &Checkpoint[X, D]{Solver: name}
	cp.Evals, cp.Updates, cp.Rounds, cp.MaxQueue, cp.Retries =
		st.Evals, st.Updates, st.Rounds, st.MaxQueue, st.Retries
	for i, x := range dom {
		cp.Sigma = append(cp.Sigma, CheckpointEntry[X, D]{X: x, V: sigma[i]})
	}
	return cp
}

// ckptSink drives periodic snapshots: solvers ask due() at every scheduling
// point and emit a capture when the eval counter crossed the next threshold.
// A nil sink is free.
type ckptSink struct {
	every int
	sink  func(any)
	next  int
}

func newCkptSink(cfg Config) *ckptSink {
	if cfg.CheckpointEvery <= 0 || cfg.CheckpointSink == nil {
		return nil
	}
	return &ckptSink{every: cfg.CheckpointEvery, sink: cfg.CheckpointSink, next: cfg.CheckpointEvery}
}

func (c *ckptSink) due(evals int) bool {
	return c != nil && evals >= c.next
}

func (c *ckptSink) emit(evals int, cp any) {
	for c.next <= evals {
		c.next += c.every
	}
	c.sink(cp)
}

// MarshalCheckpoint renders a checkpoint in the versioned textual wire
// format. The output is deterministic for a given checkpoint — fields in a
// fixed order, strings quoted with strconv.Quote — which the golden format
// test pins byte for byte.
func MarshalCheckpoint[X comparable, D any](cp *Checkpoint[X, D], codec Codec[X, D]) ([]byte, error) {
	if codec.EncodeX == nil || codec.EncodeD == nil {
		return nil, fmt.Errorf("%w: codec lacks encoders", ErrBadCheckpoint)
	}
	var b bytes.Buffer
	fmt.Fprintf(&b, "warrow-checkpoint v%d\n", CheckpointVersion)
	fmt.Fprintf(&b, "solver %s\n", cp.Solver)
	fmt.Fprintf(&b, "fingerprint %d\n", cp.SysFP)
	fmt.Fprintf(&b, "evals %d\n", cp.Evals)
	fmt.Fprintf(&b, "updates %d\n", cp.Updates)
	fmt.Fprintf(&b, "rounds %d\n", cp.Rounds)
	fmt.Fprintf(&b, "maxqueue %d\n", cp.MaxQueue)
	fmt.Fprintf(&b, "retries %d\n", cp.Retries)
	fmt.Fprintf(&b, "cursor %d\n", cp.Cursor)
	fmt.Fprintf(&b, "dirty %t\n", cp.Dirty)
	fmt.Fprintf(&b, "sigma %d\n", len(cp.Sigma))
	for _, e := range cp.Sigma {
		fmt.Fprintf(&b, "v %s %s\n", strconv.Quote(codec.EncodeX(e.X)), strconv.Quote(codec.EncodeD(e.V)))
	}
	fmt.Fprintf(&b, "queue %d\n", len(cp.Queue))
	for _, x := range cp.Queue {
		fmt.Fprintf(&b, "q %s\n", strconv.Quote(codec.EncodeX(x)))
	}
	fmt.Fprintf(&b, "strata %d\n", len(cp.Strata))
	for _, s := range cp.Strata {
		switch {
		case s.Done:
			fmt.Fprintf(&b, "s done\n")
		case s.Started:
			fmt.Fprintf(&b, "s started")
			for _, i := range s.Queue {
				fmt.Fprintf(&b, " %d", i)
			}
			fmt.Fprintf(&b, "\n")
		default:
			fmt.Fprintf(&b, "s fresh\n")
		}
	}
	fmt.Fprintf(&b, "end\n")
	return b.Bytes(), nil
}

// UnmarshalCheckpoint parses the wire format back into a checkpoint,
// rejecting unknown versions and malformed input with ErrBadCheckpoint.
func UnmarshalCheckpoint[X comparable, D any](data []byte, codec Codec[X, D]) (*Checkpoint[X, D], error) {
	if codec.DecodeX == nil || codec.DecodeD == nil {
		return nil, fmt.Errorf("%w: codec lacks decoders", ErrBadCheckpoint)
	}
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 0, 64*1024), 1<<26)
	line := func() (string, error) {
		if !sc.Scan() {
			return "", fmt.Errorf("%w: truncated input", ErrBadCheckpoint)
		}
		return sc.Text(), nil
	}
	header, err := line()
	if err != nil {
		return nil, err
	}
	if header != fmt.Sprintf("warrow-checkpoint v%d", CheckpointVersion) {
		return nil, fmt.Errorf("%w: unsupported header %q", ErrBadCheckpoint, header)
	}
	cp := &Checkpoint[X, D]{}
	field := func(key string) (string, error) {
		l, err := line()
		if err != nil {
			return "", err
		}
		if !strings.HasPrefix(l, key+" ") {
			return "", fmt.Errorf("%w: expected %q field, got %q", ErrBadCheckpoint, key, l)
		}
		return l[len(key)+1:], nil
	}
	intField := func(key string) (int, error) {
		s, err := field(key)
		if err != nil {
			return 0, err
		}
		n, err := strconv.Atoi(s)
		if err != nil {
			return 0, fmt.Errorf("%w: bad %s %q", ErrBadCheckpoint, key, s)
		}
		return n, nil
	}
	if cp.Solver, err = field("solver"); err != nil {
		return nil, err
	}
	fp, err := field("fingerprint")
	if err != nil {
		return nil, err
	}
	if cp.SysFP, err = strconv.ParseUint(fp, 10, 64); err != nil {
		return nil, fmt.Errorf("%w: bad fingerprint %q", ErrBadCheckpoint, fp)
	}
	if cp.Evals, err = intField("evals"); err != nil {
		return nil, err
	}
	if cp.Updates, err = intField("updates"); err != nil {
		return nil, err
	}
	if cp.Rounds, err = intField("rounds"); err != nil {
		return nil, err
	}
	if cp.MaxQueue, err = intField("maxqueue"); err != nil {
		return nil, err
	}
	if cp.Retries, err = intField("retries"); err != nil {
		return nil, err
	}
	if cp.Cursor, err = intField("cursor"); err != nil {
		return nil, err
	}
	dirty, err := field("dirty")
	if err != nil {
		return nil, err
	}
	if cp.Dirty, err = strconv.ParseBool(dirty); err != nil {
		return nil, fmt.Errorf("%w: bad dirty flag %q", ErrBadCheckpoint, dirty)
	}
	unquote := func(s string) (string, error) {
		u, err := strconv.Unquote(s)
		if err != nil {
			return "", fmt.Errorf("%w: bad quoted string %q", ErrBadCheckpoint, s)
		}
		return u, nil
	}
	nsigma, err := intField("sigma")
	if err != nil {
		return nil, err
	}
	for i := 0; i < nsigma; i++ {
		l, err := field("v")
		if err != nil {
			return nil, err
		}
		// Two quoted strings separated by one space; the first ends at the
		// closing quote strconv.Unquote accepts via QuotedPrefix.
		xq, err := strconv.QuotedPrefix(l)
		if err != nil || len(xq)+1 > len(l) || l[len(xq)] != ' ' {
			return nil, fmt.Errorf("%w: bad sigma row %q", ErrBadCheckpoint, l)
		}
		xs, err := unquote(xq)
		if err != nil {
			return nil, err
		}
		ds, err := unquote(l[len(xq)+1:])
		if err != nil {
			return nil, err
		}
		x, err := codec.DecodeX(xs)
		if err != nil {
			return nil, fmt.Errorf("%w: unknown %q: %v", ErrBadCheckpoint, xs, err)
		}
		v, err := codec.DecodeD(ds)
		if err != nil {
			return nil, fmt.Errorf("%w: value %q: %v", ErrBadCheckpoint, ds, err)
		}
		cp.Sigma = append(cp.Sigma, CheckpointEntry[X, D]{X: x, V: v})
	}
	nqueue, err := intField("queue")
	if err != nil {
		return nil, err
	}
	for i := 0; i < nqueue; i++ {
		l, err := field("q")
		if err != nil {
			return nil, err
		}
		xs, err := unquote(l)
		if err != nil {
			return nil, err
		}
		x, err := codec.DecodeX(xs)
		if err != nil {
			return nil, fmt.Errorf("%w: queued unknown %q: %v", ErrBadCheckpoint, xs, err)
		}
		cp.Queue = append(cp.Queue, x)
	}
	nstrata, err := intField("strata")
	if err != nil {
		return nil, err
	}
	for i := 0; i < nstrata; i++ {
		l, err := field("s")
		if err != nil {
			return nil, err
		}
		var s StratumCheckpoint
		parts := strings.Fields(l)
		switch {
		case len(parts) == 1 && parts[0] == "done":
			s.Done = true
		case len(parts) == 1 && parts[0] == "fresh":
		case len(parts) >= 1 && parts[0] == "started":
			s.Started = true
			for _, p := range parts[1:] {
				n, err := strconv.Atoi(p)
				if err != nil {
					return nil, fmt.Errorf("%w: bad stratum queue index %q", ErrBadCheckpoint, p)
				}
				s.Queue = append(s.Queue, n)
			}
		default:
			return nil, fmt.Errorf("%w: bad stratum row %q", ErrBadCheckpoint, l)
		}
		cp.Strata = append(cp.Strata, s)
	}
	if end, err := line(); err != nil || end != "end" {
		return nil, fmt.Errorf("%w: missing end marker", ErrBadCheckpoint)
	}
	return cp, nil
}
