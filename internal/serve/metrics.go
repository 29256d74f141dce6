package serve

import (
	"fmt"
	"net/http"
	"sort"
	"sync"

	"warrow/internal/solver"
)

// Metrics is the daemon's aggregate accounting: admission decisions, the
// outcome taxonomy of every accepted request, abort reasons, preemption
// traffic and cumulative solve work. All counters are monotone except the
// two gauges (queue depth and active sessions), which the server maintains.
// Safe for concurrent use.
type Metrics struct {
	mu sync.Mutex

	accepted     uint64
	rejected     map[string]uint64 // by reason class: overloaded, client-cap, malformed
	completed    uint64
	aborted      map[string]uint64 // by solver.AbortReason name
	undelivered  uint64            // final outcomes whose client was gone
	preemptions  uint64
	resumes      uint64 // requests that arrived carrying a checkpoint
	badFrames    uint64
	badHandshake uint64

	totalEvals   uint64
	totalRetries uint64
	totalWallNs  uint64

	queueDepth     int64
	activeSessions int64
}

func newMetrics() *Metrics {
	return &Metrics{
		rejected: make(map[string]uint64),
		aborted:  make(map[string]uint64),
	}
}

func (m *Metrics) incAccepted() {
	m.mu.Lock()
	m.accepted++
	m.queueDepth++
	m.mu.Unlock()
}

func (m *Metrics) incRejected(class string) {
	m.mu.Lock()
	m.rejected[class]++
	m.mu.Unlock()
}

// finishSolve records one accepted request reaching its terminal state.
func (m *Metrics) finishSolve(status string, abortReason string, st *solver.Stats) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.queueDepth--
	switch status {
	case "completed":
		m.completed++
	case "aborted":
		m.aborted[abortReason]++
	default:
		// Post-admission rejections (malformed resume handles) keep the
		// rejection taxonomy.
		m.rejected["malformed"]++
	}
	if st != nil {
		m.totalEvals += uint64(st.Evals)
		m.totalRetries += uint64(st.Retries)
		m.totalWallNs += uint64(st.WallNs)
	}
}

// incUndelivered records a terminal outcome whose client was gone.
func (m *Metrics) incUndelivered() {
	m.mu.Lock()
	m.undelivered++
	m.mu.Unlock()
}

func (m *Metrics) incPreemption() {
	m.mu.Lock()
	m.preemptions++
	m.mu.Unlock()
}

func (m *Metrics) incResume() {
	m.mu.Lock()
	m.resumes++
	m.mu.Unlock()
}

func (m *Metrics) incBadFrame() {
	m.mu.Lock()
	m.badFrames++
	m.mu.Unlock()
}

func (m *Metrics) incBadHandshake() {
	m.mu.Lock()
	m.badHandshake++
	m.mu.Unlock()
}

func (m *Metrics) sessionDelta(d int64) {
	m.mu.Lock()
	m.activeSessions += d
	m.mu.Unlock()
}

// Snapshot renders every counter under stable names, sorted — the exact
// lines the /metrics endpoint serves, one "name value" pair each.
func (m *Metrics) Snapshot() map[string]uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := map[string]uint64{
		"eqsolved_accepted_total":      m.accepted,
		"eqsolved_completed_total":     m.completed,
		"eqsolved_undelivered_total":   m.undelivered,
		"eqsolved_preemptions_total":   m.preemptions,
		"eqsolved_resumes_total":       m.resumes,
		"eqsolved_bad_frames_total":    m.badFrames,
		"eqsolved_bad_handshake_total": m.badHandshake,
		"eqsolved_evals_total":         m.totalEvals,
		"eqsolved_retries_total":       m.totalRetries,
		"eqsolved_wall_ns_total":       m.totalWallNs,
		"eqsolved_queue_depth":         uint64(m.queueDepth),
		"eqsolved_active_sessions":     uint64(m.activeSessions),
	}
	for class, n := range m.rejected {
		out["eqsolved_rejected_total{reason="+class+"}"] = n
	}
	for reason, n := range m.aborted {
		out["eqsolved_aborted_total{reason="+reason+"}"] = n
	}
	return out
}

// ServeHTTP implements the /metrics-style endpoint: plain text, one
// "name value" line per counter, sorted by name.
func (m *Metrics) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	snap := m.Snapshot()
	names := make([]string, 0, len(snap))
	for name := range snap {
		names = append(names, name)
	}
	sort.Strings(names)
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	for _, name := range names {
		fmt.Fprintf(w, "%s %d\n", name, snap[name])
	}
}
