package main

import (
	"fmt"
	"os"
	"time"

	"warrow/internal/certify"
	"warrow/internal/ckptcodec"
	"warrow/internal/eqdsl"
	"warrow/internal/eqn"
	"warrow/internal/lattice"
	"warrow/internal/serve"
	"warrow/internal/serve/proto"
	"warrow/internal/solver"
)

// connectCfg carries the flags a served solve understands.
type connectCfg struct {
	solver   string
	maxEvals int
	timeout  time.Duration
	maxFlips int
}

// runConnect submits the parsed system to an eqsolved daemon instead of
// solving locally. The daemon always solves with ⊟ (the same operator and
// init conventions as a local `-op warrow` run), so completed values decode
// and certify exactly like local ones.
func runConnect[D any](addr string, f *eqdsl.File, sys *eqn.System[string, D], l lattice.Lattice[D],
	raw string, cfg connectCfg, init func(string) D, codec solver.Codec[string, D],
	check bool, persist persistence) {

	req := &proto.Request{
		Solver:    cfg.solver,
		Source:    proto.SourceEq,
		System:    raw,
		MaxEvals:  cfg.maxEvals,
		TimeoutNs: int64(cfg.timeout),
		MaxFlips:  cfg.maxFlips,
	}
	if persist.resume != "" {
		_, data := readResume(persist.resume, cfg.solver, codec)
		req.Checkpoint = string(data)
		fmt.Printf("resuming from %s at %s\n", persist.resume, addr)
	}
	if err := req.Validate(); err != nil {
		fatal(err)
	}
	c, err := serve.Dial(addr, 10*time.Second)
	if err != nil {
		fatal(err)
	}
	defer c.Close()
	resp, err := c.Do(req)
	if err != nil {
		fatal(err)
	}
	switch resp.Status {
	case proto.StatusCompleted:
		fmt.Printf("%s at %s: solved in %d evaluations, %d updates (%d preemptions)\n",
			cfg.solver, addr, resp.Stats.Evals, resp.Stats.Updates, resp.Preemptions)
		sigma := make(map[string]D, len(resp.Values))
		for name, enc := range resp.Values {
			v, err := codec.DecodeD(enc)
			if err != nil {
				fatal(fmt.Errorf("undecodable served value for %s: %w", name, err))
			}
			sigma[name] = v
		}
		for _, x := range f.Order {
			if v, ok := sigma[x]; ok {
				fmt.Printf("  %-8s = %s\n", x, l.Format(v))
			}
		}
		if check {
			rep := certify.System(l, sys, sigma, init)
			fmt.Printf("  certify: %s\n", rep)
			if !rep.OK() {
				os.Exit(1)
			}
		}
	case proto.StatusAborted:
		fmt.Printf("%s at %s: aborted (%s) after %d evaluations\n",
			cfg.solver, addr, resp.Abort.Reason, resp.Abort.Evals)
		if resp.Checkpoint != "" && persist.path != "" {
			if err := os.WriteFile(persist.path, []byte(resp.Checkpoint), 0o644); err != nil {
				fatal(err)
			}
			fmt.Printf("  checkpoint written to %s (resume with -connect %s -resume %s)\n",
				persist.path, addr, persist.path)
		}
		os.Exit(1)
	default:
		fmt.Fprintf(os.Stderr, "eqsolve: %s rejected the request: %s\n", addr, resp.Reason)
		os.Exit(1)
	}
}

// connectDispatch picks the typed runConnect instantiation for the file's
// domain.
func connectDispatch(addr string, f *eqdsl.File, raw string, cfg connectCfg,
	check bool, persist persistence) {
	switch f.Domain {
	case eqdsl.DomainNatInf:
		sys, err := f.NatSystem()
		if err != nil {
			fatal(err)
		}
		runConnect(addr, f, sys, lattice.NatInf, raw, cfg,
			func(string) lattice.Nat { return lattice.NatOf(0) }, ckptcodec.NatCodec(), check, persist)
	case eqdsl.DomainInterval:
		sys, err := f.IntervalSystem()
		if err != nil {
			fatal(err)
		}
		runConnect(addr, f, sys, lattice.Ints, raw, cfg,
			func(string) lattice.Interval { return lattice.EmptyInterval }, ckptcodec.StringIntervalCodec(), check, persist)
	}
}
