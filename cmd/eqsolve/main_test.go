package main

import (
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// eqsolveBin is the test binary, built once in TestMain so the CLI tests can
// assert real exit codes (go run does not propagate the child's status).
var eqsolveBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "eqsolve-test")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	eqsolveBin = filepath.Join(dir, "eqsolve")
	if out, err := exec.Command("go", "build", "-o", eqsolveBin, ".").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "building eqsolve: %v\n%s", err, out)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

func runEqsolve(t *testing.T, args ...string) (string, error) {
	t.Helper()
	cmd := exec.Command(eqsolveBin, args...)
	cmd.Dir = "."
	out, err := cmd.CombinedOutput()
	return string(out), err
}

// exitCode extracts the process exit status (-1 if the run did not fail with
// an ExitError).
func exitCode(err error) int {
	if ee, ok := err.(*exec.ExitError); ok {
		return ee.ExitCode()
	}
	return -1
}

func TestEqsolveSRRTerminates(t *testing.T) {
	out, err := runEqsolve(t, "-solver", "srr", "-op", "warrow", "../../examples/systems/example1.eq")
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	if !strings.Contains(out, "solved") || strings.Count(out, "∞") != 3 {
		t.Errorf("output:\n%s", out)
	}
}

func TestEqsolveRRDiverges(t *testing.T) {
	out, err := runEqsolve(t, "-solver", "rr", "-op", "warrow", "-max-evals", "2000",
		"../../examples/systems/example1.eq")
	if err == nil {
		t.Fatalf("expected nonzero exit:\n%s", out)
	}
	if !strings.Contains(out, "budget exceeded") {
		t.Errorf("output:\n%s", out)
	}
}

// TestEqsolveEscalate: the full degradation story on Example 1 — RR's ⊟
// divergence is caught by the oscillation watchdog, the workload escalates
// to SRR, and the certified rerun makes the process exit 0.
func TestEqsolveEscalate(t *testing.T) {
	out, err := runEqsolve(t, "-solver", "rr", "-op", "warrow", "-max-flips", "8",
		"-escalate", "-certify", "../../examples/systems/example1.eq")
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	for _, want := range []string{"oscillation", "escalating rr → srr", "escalated from rr", "certified"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q:\n%s", want, out)
		}
	}
	if strings.Count(out, "∞") != 3 {
		t.Errorf("escalated solution incomplete:\n%s", out)
	}
}

// TestEqsolveTimeout: a wall-clock bound turns an unbounded divergent run
// into a structured deadline abort with nonzero exit.
func TestEqsolveTimeout(t *testing.T) {
	out, err := runEqsolve(t, "-solver", "rr", "-op", "warrow", "-max-evals", "0",
		"-timeout", "200ms", "../../examples/systems/example1.eq")
	if err == nil {
		t.Fatalf("expected nonzero exit:\n%s", out)
	}
	if !strings.Contains(out, "deadline exceeded") {
		t.Errorf("no deadline abort in output:\n%s", out)
	}
}

func TestEqsolveIntervalLoop(t *testing.T) {
	out, err := runEqsolve(t, "-solver", "sw", "-op", "warrow", "../../examples/systems/loop.eq")
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	for _, want := range []string{"[0,100]", "[0,99]", "[100,100]"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q:\n%s", want, out)
		}
	}
}

func TestEqsolveSLRQuery(t *testing.T) {
	out, err := runEqsolve(t, "-solver", "slr", "-op", "warrow", "-query", "e",
		"../../examples/systems/loop.eq")
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	if !strings.Contains(out, "[100,100]") {
		t.Errorf("output:\n%s", out)
	}
}

func TestEqsolveCertifyFlag(t *testing.T) {
	cases := [][]string{
		{"-solver", "sw", "-op", "warrow", "-certify", "../../examples/systems/loop.eq"},
		{"-solver", "psw", "-op", "warrow", "-certify", "../../examples/systems/loop.eq"},
		{"-solver", "slr", "-op", "warrow", "-query", "e", "-certify", "../../examples/systems/loop.eq"},
		{"-solver", "srr", "-op", "warrow", "-certify", "../../examples/systems/example1.eq"},
	}
	for _, args := range cases {
		out, err := runEqsolve(t, args...)
		if err != nil {
			t.Fatalf("%v: %v\n%s", args, err, out)
		}
		if !strings.Contains(out, "certify:") || !strings.Contains(out, "certified") {
			t.Errorf("%v: no certification line:\n%s", args, out)
		}
	}
}

// TestEqsolveCheckpointResume: interrupt SW on loop.eq with a tiny budget,
// writing a checkpoint, then resume it to completion with certification.
func TestEqsolveCheckpointResume(t *testing.T) {
	cp := t.TempDir() + "/loop.cp"
	out, err := runEqsolve(t, "-solver", "sw", "-op", "warrow", "-max-evals", "5",
		"-checkpoint", cp, "../../examples/systems/loop.eq")
	if err == nil {
		t.Fatalf("expected budget abort:\n%s", out)
	}
	if !strings.Contains(out, "checkpoint written to "+cp) {
		t.Fatalf("no checkpoint message:\n%s", out)
	}
	out, err = runEqsolve(t, "-solver", "sw", "-op", "warrow", "-certify",
		"-resume", cp, "../../examples/systems/loop.eq")
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	for _, want := range []string{"resuming sw from " + cp, "solved", "certified", "[0,100]"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q:\n%s", want, out)
		}
	}
}

// TestEqsolveResumeRejectsWrongSolver: a checkpoint names the solver that
// wrote it; resuming it with another solver must fail cleanly.
func TestEqsolveResumeRejectsWrongSolver(t *testing.T) {
	cp := t.TempDir() + "/loop.cp"
	out, err := runEqsolve(t, "-solver", "sw", "-op", "warrow", "-max-evals", "5",
		"-checkpoint", cp, "../../examples/systems/loop.eq")
	if err == nil {
		t.Fatalf("expected budget abort:\n%s", out)
	}
	out, err = runEqsolve(t, "-solver", "srr", "-op", "warrow", "-resume", cp,
		"../../examples/systems/loop.eq")
	if err == nil {
		t.Fatalf("expected resume rejection:\n%s", out)
	}
	if !strings.Contains(out, "checkpoint") {
		t.Errorf("no checkpoint diagnosis:\n%s", out)
	}
}

// TestEqsolvePeriodicCheckpoint: -checkpoint-every snapshots mid-flight, so
// a checkpoint file exists even when the run completes.
func TestEqsolvePeriodicCheckpoint(t *testing.T) {
	cp := t.TempDir() + "/loop.cp"
	out, err := runEqsolve(t, "-solver", "sw", "-op", "warrow",
		"-checkpoint", cp, "-checkpoint-every", "3", "../../examples/systems/loop.eq")
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	data, err := os.ReadFile(cp)
	if err != nil {
		t.Fatalf("no periodic checkpoint written: %v", err)
	}
	if !strings.HasPrefix(string(data), "warrow-checkpoint v1") {
		t.Errorf("unexpected checkpoint header: %.40s", data)
	}
}

// TestEqsolveRetryFlagAccepted: -retry wires a retry policy through the
// solve; on a healthy system it must not change the outcome.
func TestEqsolveRetryFlagAccepted(t *testing.T) {
	out, err := runEqsolve(t, "-solver", "sw", "-op", "warrow", "-retry", "3",
		"-retry-base", "1ms", "-certify", "../../examples/systems/loop.eq")
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	if !strings.Contains(out, "certified") {
		t.Errorf("output:\n%s", out)
	}
}

// TestEqsolveSLRFamilySolvers: the widening-point solvers are reachable
// from the CLI and their (non-bit-pinned) results certify as post-solutions.
// slr3/slr4 additionally report their restart count.
func TestEqsolveSLRFamilySolvers(t *testing.T) {
	for _, s := range []string{"slr2", "slr3", "slr4"} {
		out, err := runEqsolve(t, "-solver", s, "-op", "warrow", "-certify",
			"../../examples/systems/loop.eq")
		if err != nil {
			t.Fatalf("%s: %v\n%s", s, err, out)
		}
		for _, want := range []string{"solved", "certified", "[100,100]"} {
			if !strings.Contains(out, want) {
				t.Errorf("%s: missing %q:\n%s", s, want, out)
			}
		}
		if s != "slr2" && !strings.Contains(out, "widening points:") {
			t.Errorf("%s: no restart report:\n%s", s, out)
		}
	}
}

// TestEqsolveResolveRequiresEdit: -resolve without -edit is a usage error —
// one actionable line, exit 2.
func TestEqsolveResolveRequiresEdit(t *testing.T) {
	out, err := runEqsolve(t, "-solver", "sw", "-resolve", "../../examples/systems/loop.eq")
	if code := exitCode(err); code != 2 {
		t.Fatalf("exit code = %d, want 2:\n%s", code, out)
	}
	if !strings.Contains(out, "usage:") || !strings.Contains(out, "-edit") {
		t.Errorf("not an actionable usage line:\n%s", out)
	}
	if n := strings.Count(strings.TrimSpace(out), "\n"); n != 0 {
		t.Errorf("usage error spans %d extra lines:\n%s", n, out)
	}
}

// TestEqsolveEditRejectsNonOverlay: pointing -edit at a closed system file
// (no `open` marker) is a usage error naming the fix — one line, exit 2.
func TestEqsolveEditRejectsNonOverlay(t *testing.T) {
	out, err := runEqsolve(t, "-solver", "sw", "-edit", "../../examples/systems/example1.eq",
		"../../examples/systems/loop.eq")
	if code := exitCode(err); code != 2 {
		t.Fatalf("exit code = %d, want 2:\n%s", code, out)
	}
	for _, want := range []string{"usage:", "example1.eq", "`open`"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in usage line:\n%s", want, out)
		}
	}
	if n := strings.Count(strings.TrimSpace(out), "\n"); n != 0 {
		t.Errorf("usage error spans %d extra lines:\n%s", n, out)
	}
}

// TestEqsolveSLRFamilyEdit: the family solvers compose with -edit overlays
// (scratch solve of the edited system) like the other global solvers.
func TestEqsolveSLRFamilyEdit(t *testing.T) {
	out, err := runEqsolve(t, "-solver", "slr3", "-op", "warrow", "-certify",
		"-edit", "../../examples/systems/loop_edit.eq", "../../examples/systems/loop.eq")
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	for _, want := range []string{"solved", "certified"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q:\n%s", want, out)
		}
	}
}

// TestEqsolveCertifyRejectsNonPost: iterating loop.eq with the narrow
// operator from ⊥ stabilizes below the least solution; -certify must report
// a counterexample and exit nonzero.
func TestEqsolveCertifyRejectsNonPost(t *testing.T) {
	out, err := runEqsolve(t, "-solver", "sw", "-op", "narrow", "-certify",
		"../../examples/systems/loop.eq")
	if err == nil {
		t.Fatalf("expected certification failure:\n%s", out)
	}
	if !strings.Contains(out, "certify:") || !strings.Contains(out, "⋢") {
		t.Errorf("no counterexample in output:\n%s", out)
	}
}

// TestEqsolveCPW: the chaotic parallel solver is reachable from the CLI,
// reports its worker/stratum/contention line, and its (non-bit-pinned)
// result certifies as a post-solution.
func TestEqsolveCPW(t *testing.T) {
	out, err := runEqsolve(t, "-solver", "cpw", "-op", "warrow", "-workers", "2",
		"-certify", "../../examples/systems/loop.eq")
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	for _, want := range []string{"solved", "chaotic: 2 workers", "certified", "[100,100]"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q:\n%s", want, out)
		}
	}
}

// TestEqsolveCPWCheckpointResume: interrupt CPW with a tiny budget, then
// resume the quiesce-and-drain checkpoint to a certified completion.
func TestEqsolveCPWCheckpointResume(t *testing.T) {
	cp := t.TempDir() + "/loop.cp"
	out, err := runEqsolve(t, "-solver", "cpw", "-op", "warrow", "-max-evals", "5",
		"-checkpoint", cp, "../../examples/systems/loop.eq")
	if err == nil {
		t.Fatalf("expected budget abort:\n%s", out)
	}
	if !strings.Contains(out, "checkpoint written to "+cp) {
		t.Fatalf("no checkpoint message:\n%s", out)
	}
	out, err = runEqsolve(t, "-solver", "cpw", "-op", "warrow", "-certify",
		"-resume", cp, "../../examples/systems/loop.eq")
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	for _, want := range []string{"resuming cpw from " + cp, "solved", "certified"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q:\n%s", want, out)
		}
	}
}

// TestEqsolveCPWRejectsForeignResume: pointing -solver cpw at a checkpoint
// written by another solver is a usage error — one actionable line, exit 2,
// before any solving state is built.
func TestEqsolveCPWRejectsForeignResume(t *testing.T) {
	cp := t.TempDir() + "/loop.cp"
	out, err := runEqsolve(t, "-solver", "sw", "-op", "warrow", "-max-evals", "5",
		"-checkpoint", cp, "../../examples/systems/loop.eq")
	if err == nil {
		t.Fatalf("expected budget abort:\n%s", out)
	}
	out, err = runEqsolve(t, "-solver", "cpw", "-op", "warrow", "-resume", cp,
		"../../examples/systems/loop.eq")
	if code := exitCode(err); code != 2 {
		t.Fatalf("exit code = %d, want 2:\n%s", code, out)
	}
	if !strings.Contains(out, "usage:") || !strings.Contains(out, `"sw"`) {
		t.Errorf("not an actionable usage line:\n%s", out)
	}
	if n := strings.Count(strings.TrimSpace(out), "\n"); n != 0 {
		t.Errorf("usage error spans %d extra lines:\n%s", n, out)
	}
}

// TestEqsolveRejectsForeignResume: every solver, not just cpw, refuses a
// checkpoint another solver wrote before it announces a resume or solves
// anything — one usage line naming the writer, exit 2.
func TestEqsolveRejectsForeignResume(t *testing.T) {
	cp := t.TempDir() + "/example1.cp"
	out, err := runEqsolve(t, "-solver", "srr", "-op", "warrow", "-max-evals", "5",
		"-checkpoint", cp, "../../examples/systems/example1.eq")
	if err == nil {
		t.Fatalf("expected budget abort:\n%s", out)
	}
	// The served path refuses the same mismatch before it dials: the
	// address has no listener, so dialing would exit 1 instead.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	for _, args := range [][]string{
		{"-solver", "sw", "-op", "warrow", "-resume", cp, "../../examples/systems/example1.eq"},
		{"-connect", addr, "-solver", "sw", "-resume", cp, "../../examples/systems/example1.eq"},
	} {
		out, err = runEqsolve(t, args...)
		if code := exitCode(err); code != 2 {
			t.Fatalf("%v: exit code = %d, want 2:\n%s", args, code, out)
		}
		if !strings.HasPrefix(out, "eqsolve: usage:") || !strings.Contains(out, `"srr"`) || strings.Contains(out, "resuming") {
			t.Errorf("%v: not an actionable usage line:\n%s", args, out)
		}
		if n := strings.Count(strings.TrimSpace(out), "\n"); n != 0 {
			t.Errorf("%v: usage error spans %d extra lines:\n%s", args, n, out)
		}
	}
}
