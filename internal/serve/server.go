package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"warrow/internal/serve/proto"
)

// Options tunes a Server. The zero value is usable; Defaults documents what
// it means.
type Options struct {
	// Workers is the solve worker-pool size (default GOMAXPROCS, min 2).
	Workers int
	// Queue is how many admitted-but-unfinished requests may exist beyond
	// the workers (default 16). Admission capacity is Workers+Queue; excess
	// requests are rejected with "overloaded", never buffered unboundedly.
	Queue int
	// MaxTimeout is the server-side ceiling on any request's wall-clock
	// deadline (default 1 minute). A client asking for more — or for no
	// bound — gets exactly this much.
	MaxTimeout time.Duration
	// Quantum is the scheduling slice in evaluations (default 0: no
	// preemption). A preemptible solve that exceeds it is checkpointed,
	// parked and requeued, so long batch solves cannot monopolize workers.
	Quantum int
	// PerClient caps one connection's in-flight requests (default 4);
	// excess requests are rejected with "client-cap".
	PerClient int
	// HandshakeTimeout bounds how long a fresh connection may take to
	// present the magic line (default 10s) — slow-loris connections are
	// dropped before they hold any solving state.
	HandshakeTimeout time.Duration
	// WriteTimeout bounds one response write (default 30s). A client that
	// stops draining its socket loses the connection, not the server a
	// worker.
	WriteTimeout time.Duration
	// LogWriter receives structured JSON log lines (nil: logging off).
	LogWriter io.Writer
}

// withDefaults fills unset knobs.
func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
		if o.Workers < 2 {
			o.Workers = 2
		}
	}
	if o.Queue <= 0 {
		o.Queue = 16
	}
	if o.MaxTimeout <= 0 {
		o.MaxTimeout = time.Minute
	}
	if o.PerClient <= 0 {
		o.PerClient = 4
	}
	if o.HandshakeTimeout <= 0 {
		o.HandshakeTimeout = 10 * time.Second
	}
	if o.WriteTimeout <= 0 {
		o.WriteTimeout = 30 * time.Second
	}
	return o
}

// Server is the eqsolved daemon: an accept loop feeding per-connection
// sessions, which feed the shared scheduler. Create with New, run with
// Serve, stop with Close — Close guarantees every accepted request has
// reached its terminal outcome before returning.
type Server struct {
	opts    Options
	metrics *Metrics
	sched   *scheduler

	ctx    context.Context
	cancel context.CancelFunc

	mu     sync.Mutex
	ln     net.Listener
	closed bool

	sessWG sync.WaitGroup
	taskWG sync.WaitGroup
	logMu  sync.Mutex
}

// New builds a server and starts its worker pool.
func New(opts Options) *Server {
	opts = opts.withDefaults()
	m := newMetrics()
	ctx, cancel := context.WithCancel(context.Background())
	return &Server{
		opts:    opts,
		metrics: m,
		sched:   newScheduler(opts.Workers, opts.Workers+opts.Queue, opts.Quantum, m),
		ctx:     ctx,
		cancel:  cancel,
	}
}

// Metrics exposes the aggregate counters (the /metrics endpoint handler).
func (s *Server) Metrics() *Metrics { return s.metrics }

// Serve accepts connections on ln until Close. It returns nil after a clean
// shutdown and the accept error otherwise.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return errors.New("serve: server closed")
	}
	s.ln = ln
	s.mu.Unlock()
	s.log("listening", map[string]any{"addr": ln.Addr().String()})
	for {
		conn, err := ln.Accept()
		if err != nil {
			select {
			case <-s.ctx.Done():
				return nil
			default:
				return err
			}
		}
		s.sessWG.Add(1)
		go s.session(conn)
	}
}

// Close stops accepting, cancels every in-flight request, and waits until
// all accepted requests have terminated (completed, aborted or rejected —
// zero lost requests) and all sessions and workers have exited.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	ln := s.ln
	s.mu.Unlock()
	s.cancel()
	if ln != nil {
		ln.Close()
	}
	s.taskWG.Wait()
	s.sched.stop()
	s.sessWG.Wait()
	s.log("stopped", nil)
	return nil
}

// session owns one connection: the handshake, the request read loop, and
// the shared write path its tasks answer through.
type session struct {
	srv  *Server
	conn net.Conn
	ctx  context.Context
	stop context.CancelFunc

	wmu  sync.Mutex
	dead bool

	inflight atomic.Int64
}

func (s *Server) session(conn net.Conn) {
	defer s.sessWG.Done()
	defer conn.Close()
	s.metrics.sessionDelta(1)
	defer s.metrics.sessionDelta(-1)

	ctx, stop := context.WithCancel(s.ctx)
	defer stop()
	// Unblock the read loop when the server shuts down or a write fails.
	go func() {
		<-ctx.Done()
		conn.Close()
	}()

	conn.SetReadDeadline(time.Now().Add(s.opts.HandshakeTimeout))
	if err := proto.ReadMagic(conn); err != nil {
		s.metrics.incBadHandshake()
		s.log("bad-handshake", map[string]any{"remote": conn.RemoteAddr().String()})
		return
	}
	sess := &session{srv: s, conn: conn, ctx: ctx, stop: stop}
	if err := sess.writeRaw(func(w io.Writer) error { return proto.WriteMagic(w) }); err != nil {
		return
	}
	conn.SetReadDeadline(time.Time{})
	s.log("session-open", map[string]any{"remote": conn.RemoteAddr().String()})

	for {
		payload, err := proto.ReadFrame(conn)
		if err != nil {
			// EOF is a clean disconnect; anything else (oversize prefix,
			// truncated frame) means the stream framing is untrustworthy, so
			// the connection is dropped rather than resynchronized.
			if !errors.Is(err, io.EOF) {
				s.metrics.incBadFrame()
			}
			break
		}
		req, err := proto.DecodeRequest(payload)
		if err != nil {
			// The frame layer is intact, so the session survives a bad
			// envelope: answer with a rejection and keep reading.
			s.metrics.incRejected("malformed")
			sess.send(&proto.Response{Status: proto.StatusRejected, Reason: err.Error()})
			continue
		}
		s.dispatch(sess, req)
	}
	stop()
	s.log("session-close", map[string]any{"remote": conn.RemoteAddr().String()})
	// In-flight tasks of this session abort via ctx and find the write path
	// dead; their outcomes are recorded as undelivered.
}

// dispatch admits one decoded request: per-client cap, job construction
// (parse/generate + resume validation), then the scheduler's bounded
// admission. Every rejection is explicit and immediate.
func (s *Server) dispatch(sess *session, req *proto.Request) {
	reject := func(reason, class string) {
		s.metrics.incRejected(class)
		sess.send(&proto.Response{ID: req.ID, Status: proto.StatusRejected, Reason: reason})
		s.log("rejected", map[string]any{"id": req.ID, "reason": reason})
	}
	if sess.inflight.Load() >= int64(s.opts.PerClient) {
		reject("client-cap", "client-cap")
		return
	}
	j, err := buildJob(req)
	if err != nil {
		reject(err.Error(), "malformed")
		return
	}
	if req.Checkpoint != "" {
		s.metrics.incResume()
	}
	timeout := effectiveTimeout(req.Timeout(), s.opts.MaxTimeout)
	tctx, tcancel := context.WithTimeout(sess.ctx, timeout)
	start := time.Now()
	t := &task{job: j, ctx: tctx, cancel: tcancel}
	t.finish = func(resp *proto.Response, preempts int) {
		resp.ID = req.ID
		resp.Preemptions = preempts
		reason := ""
		if resp.Abort != nil {
			reason = resp.Abort.Reason.String()
		}
		// Count the outcome before the client can read it: a client that
		// holds every answer must find the metrics balanced.
		s.metrics.finishSolve(resp.Status, reason, resp.Stats)
		delivered := sess.send(resp)
		if !delivered {
			s.metrics.incUndelivered()
		}
		s.logSolve(req, resp, delivered, time.Since(start))
		sess.inflight.Add(-1)
		s.taskWG.Done()
	}
	sess.inflight.Add(1)
	s.taskWG.Add(1)
	if !s.sched.admit(t) {
		sess.inflight.Add(-1)
		s.taskWG.Done()
		tcancel()
		reject("overloaded", "overloaded")
		return
	}
	s.metrics.incAccepted()
	s.log("accepted", map[string]any{"id": req.ID, "solver": req.Solver, "source": req.Source, "timeout_ns": int64(timeout)})
}

// send writes one response under the session write lock, with the write
// deadline armed. A failed or timed-out write marks the session dead and
// cancels its context, so its remaining tasks abort promptly.
func (sess *session) send(resp *proto.Response) bool {
	return sess.writeRaw(func(w io.Writer) error { return proto.WriteResponse(w, resp) }) == nil
}

func (sess *session) writeRaw(write func(io.Writer) error) error {
	sess.wmu.Lock()
	defer sess.wmu.Unlock()
	if sess.dead {
		return errors.New("serve: session closed")
	}
	sess.conn.SetWriteDeadline(time.Now().Add(sess.srv.opts.WriteTimeout))
	if err := write(sess.conn); err != nil {
		sess.dead = true
		sess.stop()
		return err
	}
	return nil
}

// logSolve emits the per-solve structured log line.
func (s *Server) logSolve(req *proto.Request, resp *proto.Response, delivered bool, elapsed time.Duration) {
	fields := map[string]any{
		"id":          resp.ID,
		"solver":      req.Solver,
		"status":      resp.Status,
		"preemptions": resp.Preemptions,
		"delivered":   delivered,
		"elapsed_ns":  int64(elapsed),
	}
	if resp.Stats != nil {
		fields["stats"] = resp.Stats
	}
	if resp.Abort != nil {
		fields["abort"] = resp.Abort
	}
	if resp.Reason != "" {
		fields["reason"] = resp.Reason
	}
	s.log("solve", fields)
}

// log writes one JSON log line to the configured sink.
func (s *Server) log(event string, fields map[string]any) {
	if s.opts.LogWriter == nil {
		return
	}
	rec := make(map[string]any, len(fields)+2)
	for k, v := range fields {
		rec[k] = v
	}
	rec["event"] = event
	rec["ts"] = time.Now().UnixNano()
	data, err := json.Marshal(rec)
	if err != nil {
		data = []byte(fmt.Sprintf(`{"event":%q,"marshal_error":%q}`, event, err))
	}
	s.logMu.Lock()
	s.opts.LogWriter.Write(append(data, '\n'))
	s.logMu.Unlock()
}
