// Package proto defines the wire protocol of the eqsolved daemon: a
// handshake line followed by length-prefixed JSON frames, with constraint
// systems carried as eqdsl text or as deterministic eqgen recipes and
// checkpoints carried through the solver's own versioned text format
// (solver.MarshalCheckpoint), never re-encoded.
//
// The daemon decodes untrusted bytes, so every decoder in this package must
// fail cleanly on malformed input — wrong magic, oversized or truncated
// frames, unknown solver names, out-of-range knobs — with an error and no
// partial state. FuzzProto pins that contract.
package proto

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"slices"
	"time"

	"warrow/internal/chaos"
	"warrow/internal/eqgen"
	"warrow/internal/solver"
)

// Magic is the handshake line each side writes before its first frame; a
// connection whose peer leads with anything else is dropped before any JSON
// is parsed. The trailing newline makes a telnet session fail fast instead
// of hanging inside a length prefix.
const Magic = "eqsolved/1\n"

// MaxFrame bounds one frame's payload. Systems are text and values are
// canonical strings, so 8 MiB comfortably fits the 4096-unknown generator
// ceiling while keeping a hostile length prefix from allocating gigabytes.
const MaxFrame = 8 << 20

// Frame-layer errors.
var (
	// ErrFrameTooBig: the length prefix exceeds MaxFrame.
	ErrFrameTooBig = errors.New("proto: frame exceeds size limit")
	// ErrBadMagic: the peer's handshake line is not Magic.
	ErrBadMagic = errors.New("proto: bad handshake")
)

// WriteMagic writes the handshake line.
func WriteMagic(w io.Writer) error {
	_, err := io.WriteString(w, Magic)
	return err
}

// ReadMagic consumes and verifies the peer's handshake line.
func ReadMagic(r io.Reader) error {
	buf := make([]byte, len(Magic))
	if _, err := io.ReadFull(r, buf); err != nil {
		return fmt.Errorf("%w: %v", ErrBadMagic, err)
	}
	if string(buf) != Magic {
		return ErrBadMagic
	}
	return nil
}

// WriteFrame writes one length-prefixed frame: a u32 big-endian payload
// length followed by the payload.
func WriteFrame(w io.Writer, payload []byte) error {
	if len(payload) > MaxFrame {
		return ErrFrameTooBig
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// ReadFrame reads one length-prefixed frame. A length prefix beyond
// MaxFrame fails before any payload allocation; a truncated payload fails
// with io.ErrUnexpectedEOF.
func ReadFrame(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > MaxFrame {
		return nil, ErrFrameTooBig
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	return payload, nil
}

// Source values of a Request.
const (
	// SourceEq: the request carries an eqdsl system file in System.
	SourceEq = "eq"
	// SourceGen: the request carries an eqgen recipe in Gen; client and
	// server regenerate the identical system from the deterministic
	// generator, so only the recipe crosses the wire.
	SourceGen = "gen"
)

// Request is one solve submission. IDs are client-chosen and echoed in the
// response, so a client may pipeline requests over one connection.
type Request struct {
	// ID is echoed verbatim in the matching Response.
	ID uint64 `json:"id"`
	// Solver names the entry point, one of solver.Globals.
	Solver string `json:"solver"`
	// Source says how the system is carried: SourceEq or SourceGen.
	Source string `json:"source"`
	// System is the eqdsl text (Source == SourceEq).
	System string `json:"system,omitempty"`
	// Gen is the generator recipe (Source == SourceGen).
	Gen *eqgen.Config `json:"gen,omitempty"`
	// MaxEvals bounds the solve's evaluation budget; 0 means the server
	// default (unbounded up to the deadline).
	MaxEvals int `json:"max_evals,omitempty"`
	// TimeoutNs is the client's wall-clock bound in nanoseconds; the server
	// clamps it to its own -max-timeout.
	TimeoutNs int64 `json:"timeout_ns,omitempty"`
	// MaxFlips arms the oscillation watchdog.
	MaxFlips int `json:"max_flips,omitempty"`
	// Checkpoint, when non-empty, resumes a previous solve: the verbatim
	// solver.MarshalCheckpoint text returned by an earlier Response.
	Checkpoint string `json:"checkpoint,omitempty"`
	// Chaos, when non-nil, wraps the system with deterministic fault
	// injection before solving (generated sources only) — the soak tests'
	// way of exercising the daemon's panic isolation end to end.
	Chaos *chaos.Config `json:"chaos,omitempty"`
}

// Timeout converts TimeoutNs.
func (r *Request) Timeout() time.Duration { return time.Duration(r.TimeoutNs) }

// Validate rejects structurally malformed requests before any solving
// state is allocated for them.
func (r *Request) Validate() error {
	if !slices.Contains(solver.Globals, r.Solver) {
		return fmt.Errorf("proto: unknown solver %q", r.Solver)
	}
	switch r.Source {
	case SourceEq:
		if r.System == "" {
			return errors.New("proto: source eq carries no system text")
		}
		if r.Gen != nil {
			return errors.New("proto: source eq with a gen recipe")
		}
		if r.Chaos != nil {
			return errors.New("proto: chaos injection requires source gen")
		}
	case SourceGen:
		if r.Gen == nil {
			return errors.New("proto: source gen carries no recipe")
		}
		if r.System != "" {
			return errors.New("proto: source gen with system text")
		}
	default:
		return fmt.Errorf("proto: unknown source %q", r.Source)
	}
	if r.MaxEvals < 0 || r.TimeoutNs < 0 || r.MaxFlips < 0 {
		return errors.New("proto: negative bound")
	}
	if r.Checkpoint != "" && !solver.ExactResume(r.Solver) {
		return fmt.Errorf("proto: solver %q does not support exact resume", r.Solver)
	}
	return nil
}

// Response statuses: the full outcome taxonomy of an accepted request, plus
// the explicit rejection of one that was not.
const (
	// StatusCompleted: the solve ran to a fixpoint; Values and Stats are set.
	StatusCompleted = "completed"
	// StatusAborted: a bound fired; Abort carries the diagnosis, and
	// Checkpoint a resumable handle when the solver supports exact resume.
	StatusAborted = "aborted"
	// StatusRejected: admission control refused the request (overload,
	// per-client cap, malformed request); Reason says why. Nothing ran.
	StatusRejected = "rejected"
)

// Response is the daemon's answer to one Request.
type Response struct {
	// ID echoes the request.
	ID uint64 `json:"id"`
	// Status is one of the Status constants.
	Status string `json:"status"`
	// Reason details a rejection ("overloaded", "client-cap", or the
	// validation error text).
	Reason string `json:"reason,omitempty"`
	// Values maps encoded unknowns to canonically encoded values
	// (completed solves only).
	Values map[string]string `json:"values,omitempty"`
	// Stats is the solve's work accounting (completed and aborted solves).
	Stats *Stats `json:"stats,omitempty"`
	// Abort is the structured diagnosis of an aborted solve.
	Abort *AbortReport `json:"abort,omitempty"`
	// Checkpoint, when non-empty, is a resumable handle: the verbatim
	// solver.MarshalCheckpoint text, to be sent back in a follow-up
	// Request.Checkpoint.
	Checkpoint string `json:"checkpoint,omitempty"`
	// Preemptions counts how often the scheduler parked this solve at a
	// quantum boundary before it reached its final outcome.
	Preemptions int `json:"preemptions,omitempty"`
}

// Stats and AbortReport alias the solver's wire-stable types (field names
// pinned by the solver package's golden test), so responses carry them
// verbatim instead of hand-rolling a parallel serialization.
type (
	Stats       = solver.Stats
	AbortReport = solver.AbortReport
)

// EncodeRequest marshals req into one frame payload.
func EncodeRequest(req *Request) ([]byte, error) {
	if err := req.Validate(); err != nil {
		return nil, err
	}
	return json.Marshal(req)
}

// DecodeRequest unmarshals and validates one frame payload. Unknown fields
// are rejected: a version-skewed client must fail loudly, not have its new
// knobs silently ignored.
func DecodeRequest(payload []byte) (*Request, error) {
	dec := json.NewDecoder(bytes.NewReader(payload))
	dec.DisallowUnknownFields()
	var req Request
	if err := dec.Decode(&req); err != nil {
		return nil, fmt.Errorf("proto: bad request: %w", err)
	}
	if dec.More() {
		return nil, errors.New("proto: trailing data after request")
	}
	if err := req.Validate(); err != nil {
		return nil, err
	}
	return &req, nil
}

// EncodeResponse marshals resp into one frame payload.
func EncodeResponse(resp *Response) ([]byte, error) {
	return json.Marshal(resp)
}

// DecodeResponse unmarshals one frame payload.
func DecodeResponse(payload []byte) (*Response, error) {
	dec := json.NewDecoder(bytes.NewReader(payload))
	dec.DisallowUnknownFields()
	var resp Response
	if err := dec.Decode(&resp); err != nil {
		return nil, fmt.Errorf("proto: bad response: %w", err)
	}
	if dec.More() {
		return nil, errors.New("proto: trailing data after response")
	}
	switch resp.Status {
	case StatusCompleted, StatusAborted, StatusRejected:
	default:
		return nil, fmt.Errorf("proto: unknown status %q", resp.Status)
	}
	return &resp, nil
}

// WriteRequest frames and writes one request.
func WriteRequest(w io.Writer, req *Request) error {
	payload, err := EncodeRequest(req)
	if err != nil {
		return err
	}
	return WriteFrame(w, payload)
}

// ReadRequest reads and decodes one request frame.
func ReadRequest(r io.Reader) (*Request, error) {
	payload, err := ReadFrame(r)
	if err != nil {
		return nil, err
	}
	return DecodeRequest(payload)
}

// WriteResponse frames and writes one response.
func WriteResponse(w io.Writer, resp *Response) error {
	payload, err := EncodeResponse(resp)
	if err != nil {
		return err
	}
	return WriteFrame(w, payload)
}

// ReadResponse reads and decodes one response frame.
func ReadResponse(r io.Reader) (*Response, error) {
	payload, err := ReadFrame(r)
	if err != nil {
		return nil, err
	}
	return DecodeResponse(payload)
}
