// Package eqdsl parses a small textual language for systems of equations,
// so the paper's example systems can be kept as plain-text artifacts and
// solved with any solver/operator combination from the command line
// (cmd/eqsolve).
//
// A system file looks like:
//
//	# Example 1 of the paper (monotonic, RR+⊟ diverges)
//	domain natinf
//	x1 = x2
//	x2 = x3 + 1
//	x3 = x1
//
// or, over intervals:
//
//	domain interval
//	h = join([0,0], b + [1,1])
//	b = meet(h, [-inf,99])
//	e = meet(h, [100,inf])
//
// Domains:
//
//	natinf    ℕ ∪ {∞} with the widening/narrowing of the paper's Examples
//	          1–4. Operators: +, min(a,b), max(a,b); literals: 0, 1, …, inf.
//	interval  integer intervals. Operators: +, -, *, join(a,b), meet(a,b);
//	          literals: n (singleton) and [lo,hi] with inf/-inf bounds.
//
// Equations are listed one per line as `name = expr`; # starts a comment.
// The order of equations fixes the linear order the structured solvers use.
//
// A bare `open` line after the domain header marks the file as an edit
// overlay: its equations may reference unknowns the file itself does not
// define, because they resolve against the base system the overlay is
// applied to (eqsolve -edit). Open files are not solvable on their own.
package eqdsl

import (
	"fmt"
	"strconv"
	"strings"

	"warrow/internal/eqn"
	"warrow/internal/lattice"
)

// Domain identifies the value domain of a system file.
type Domain int

// Supported domains.
const (
	DomainNatInf Domain = iota
	DomainInterval
)

// String renders the domain name.
func (d Domain) String() string {
	if d == DomainNatInf {
		return "natinf"
	}
	return "interval"
}

// File is a parsed system file.
type File struct {
	Domain Domain
	// Order lists unknowns in file order.
	Order []string
	// Defs maps unknowns to their right-hand-side expressions.
	Defs map[string]Expr
	// Open marks an edit overlay — a file carrying a bare `open` directive,
	// or any file parsed with ParseOverlay: its equations may reference
	// unknowns it does not define, because they resolve against the base
	// system the overlay is applied to.
	Open bool
	// DeclaredOpen reports whether the file itself carries the bare `open`
	// directive. ParseOverlay relaxes reference checking for any file, so
	// Open alone cannot tell a genuine overlay from a closed system handed
	// to -edit by mistake; DeclaredOpen can.
	DeclaredOpen bool
}

// Expr is an expression tree.
type Expr interface{ exprNode() }

// Var references an unknown.
type Var struct{ Name string }

// Lit is a literal: for natinf a single bound, for intervals a pair.
type Lit struct {
	Lo, Hi lattice.Ext // natinf uses Lo only (PosInf encodes ∞)
}

// BinOp is a binary operation: + - * min max join meet.
type BinOp struct {
	Op   string
	L, R Expr
}

func (*Var) exprNode()   {}
func (*Lit) exprNode()   {}
func (*BinOp) exprNode() {}

// Parse reads a system file. Every referenced unknown must be defined in
// the file itself.
func Parse(src string) (*File, error) {
	return parse(src, false)
}

// ParseOverlay reads an edit-overlay file: same format, but equations may
// reference unknowns the overlay does not define — they resolve against the
// base system the overlay is applied to (eqsolve -edit).
func ParseOverlay(src string) (*File, error) {
	return parse(src, true)
}

func parse(src string, open bool) (*File, error) {
	f := &File{Defs: make(map[string]Expr), Open: open}
	sawDomain := false
	for lineNo, raw := range strings.Split(src, "\n") {
		line := raw
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		if !sawDomain {
			fields := strings.Fields(line)
			if len(fields) != 2 || fields[0] != "domain" {
				return nil, fmt.Errorf("line %d: expected `domain natinf|interval`, got %q", lineNo+1, line)
			}
			switch fields[1] {
			case "natinf":
				f.Domain = DomainNatInf
			case "interval":
				f.Domain = DomainInterval
			default:
				return nil, fmt.Errorf("line %d: unknown domain %q", lineNo+1, fields[1])
			}
			sawDomain = true
			continue
		}
		if line == "open" && len(f.Order) == 0 {
			f.Open = true
			f.DeclaredOpen = true
			continue
		}
		name, rhs, ok := strings.Cut(line, "=")
		if !ok {
			return nil, fmt.Errorf("line %d: expected `name = expr`", lineNo+1)
		}
		name = strings.TrimSpace(name)
		if name == "" || strings.ContainsAny(name, " \t()[],") {
			return nil, fmt.Errorf("line %d: bad unknown name %q", lineNo+1, name)
		}
		if _, dup := f.Defs[name]; dup {
			return nil, fmt.Errorf("line %d: duplicate equation for %q", lineNo+1, name)
		}
		e, err := parseExpr(rhs, f.Domain)
		if err != nil {
			return nil, fmt.Errorf("line %d: %v", lineNo+1, err)
		}
		f.Order = append(f.Order, name)
		f.Defs[name] = e
	}
	if !sawDomain {
		return nil, fmt.Errorf("empty system: missing `domain` header")
	}
	if len(f.Order) == 0 {
		return nil, fmt.Errorf("no equations")
	}
	if !f.Open {
		// All referenced unknowns must be defined.
		for _, name := range f.Order {
			var undef string
			walk(f.Defs[name], func(e Expr) {
				if v, ok := e.(*Var); ok {
					if _, defined := f.Defs[v.Name]; !defined && undef == "" {
						undef = v.Name
					}
				}
			})
			if undef != "" {
				return nil, fmt.Errorf("equation for %s references undefined unknown %q", name, undef)
			}
		}
	}
	return f, nil
}

// walk visits the expression tree.
func walk(e Expr, visit func(Expr)) {
	visit(e)
	if b, ok := e.(*BinOp); ok {
		walk(b.L, visit)
		walk(b.R, visit)
	}
}

// MaxDepth bounds how deeply one definition may nest: the operators and
// parenthesis pairs on any path from the expression's root to a leaf, so a
// chain a+a+…+a of k operators has depth k, as do k parenthesis pairs
// around a leaf. The parser and the tree walkers recurse once per level,
// and a Go stack overflow is fatal — no recover catches it — so a deeper
// definition is a parse error rather than a crash of the process reading
// it.
const MaxDepth = 10000

// errTooDeep reports a definition past MaxDepth.
var errTooDeep = fmt.Errorf("expression nested deeper than %d levels", MaxDepth)

// exprParser is a tiny recursive-descent parser over tokens. Every parse
// method returns the depth of the tree it built (see MaxDepth), and nest
// counts the parenthesis pairs and calls open around the current token —
// a lower bound on the depth of the enclosing definition, checked before
// the parser recurses into them.
type exprParser struct {
	toks   []string
	pos    int
	domain Domain
	nest   int
}

func tokenize(s string) []string {
	var toks []string
	i := 0
	for i < len(s) {
		c := s[i]
		switch {
		case c == ' ' || c == '\t':
			i++
		case strings.IndexByte("()[],+*", c) >= 0:
			toks = append(toks, string(c))
			i++
		case c == '-':
			// Negative literal or subtraction: lex as '-' and let the
			// parser decide by context.
			toks = append(toks, "-")
			i++
		default:
			j := i
			for j < len(s) && strings.IndexByte(" \t()[],+-*", s[j]) < 0 {
				j++
			}
			toks = append(toks, s[i:j])
			i = j
		}
	}
	return toks
}

func parseExpr(s string, d Domain) (Expr, error) {
	p := &exprParser{toks: tokenize(s), domain: d}
	e, _, err := p.sum()
	if err != nil {
		return nil, err
	}
	if p.pos != len(p.toks) {
		return nil, fmt.Errorf("trailing input %q", strings.Join(p.toks[p.pos:], " "))
	}
	return e, nil
}

func (p *exprParser) peek() string {
	if p.pos < len(p.toks) {
		return p.toks[p.pos]
	}
	return ""
}

func (p *exprParser) next() string {
	t := p.peek()
	if t != "" {
		p.pos++
	}
	return t
}

func (p *exprParser) expect(t string) error {
	if got := p.next(); got != t {
		return fmt.Errorf("expected %q, got %q", t, got)
	}
	return nil
}

// binOp builds l op r, one level above the deeper operand.
func binOp(op string, l Expr, dl int, r Expr, dr int) (Expr, int, error) {
	d := 1 + max(dl, dr)
	if d > MaxDepth {
		return nil, 0, errTooDeep
	}
	return &BinOp{Op: op, L: l, R: r}, d, nil
}

func (p *exprParser) sum() (Expr, int, error) {
	l, dl, err := p.product()
	if err != nil {
		return nil, 0, err
	}
	for p.peek() == "+" || p.peek() == "-" {
		op := p.next()
		r, dr, err := p.product()
		if err != nil {
			return nil, 0, err
		}
		if op == "-" && p.domain == DomainNatInf {
			return nil, 0, fmt.Errorf("subtraction is not available in the natinf domain")
		}
		if l, dl, err = binOp(op, l, dl, r, dr); err != nil {
			return nil, 0, err
		}
	}
	return l, dl, nil
}

func (p *exprParser) product() (Expr, int, error) {
	l, dl, err := p.atom()
	if err != nil {
		return nil, 0, err
	}
	for p.peek() == "*" {
		p.next()
		if p.domain == DomainNatInf {
			return nil, 0, fmt.Errorf("multiplication is not available in the natinf domain")
		}
		r, dr, err := p.atom()
		if err != nil {
			return nil, 0, err
		}
		if l, dl, err = binOp("*", l, dl, r, dr); err != nil {
			return nil, 0, err
		}
	}
	return l, dl, nil
}

func (p *exprParser) atom() (Expr, int, error) {
	switch t := p.next(); {
	case t == "":
		return nil, 0, fmt.Errorf("unexpected end of expression")
	case t == "(":
		if p.nest++; p.nest > MaxDepth {
			return nil, 0, errTooDeep
		}
		e, d, err := p.sum()
		if err != nil {
			return nil, 0, err
		}
		p.nest--
		if d++; d > MaxDepth {
			return nil, 0, errTooDeep
		}
		return e, d, p.expect(")")
	case t == "[":
		if p.domain != DomainInterval {
			return nil, 0, fmt.Errorf("interval literal in %s domain", p.domain)
		}
		lo, err := p.bound()
		if err != nil {
			return nil, 0, err
		}
		if err := p.expect(","); err != nil {
			return nil, 0, err
		}
		hi, err := p.bound()
		if err != nil {
			return nil, 0, err
		}
		return &Lit{Lo: lo, Hi: hi}, 0, p.expect("]")
	case t == "-":
		// Negative numeric literal.
		n := p.next()
		v, err := strconv.ParseInt(n, 10, 64)
		if err != nil {
			return nil, 0, fmt.Errorf("expected number after '-', got %q", n)
		}
		e, err := p.numberLit(-v)
		return e, 0, err
	case t == "min" || t == "max" || t == "join" || t == "meet":
		if err := p.expect("("); err != nil {
			return nil, 0, err
		}
		if p.nest++; p.nest > MaxDepth {
			return nil, 0, errTooDeep
		}
		l, dl, err := p.sum()
		if err != nil {
			return nil, 0, err
		}
		if err := p.expect(","); err != nil {
			return nil, 0, err
		}
		r, dr, err := p.sum()
		if err != nil {
			return nil, 0, err
		}
		if err := p.expect(")"); err != nil {
			return nil, 0, err
		}
		p.nest--
		op := t
		// In a lattice min/max are meet/join; accept both spellings.
		if op == "min" {
			op = "meet"
		}
		if op == "max" {
			op = "join"
		}
		return binOp(op, l, dl, r, dr)
	case t == "inf":
		return &Lit{Lo: lattice.PosInf, Hi: lattice.PosInf}, 0, nil
	default:
		if v, err := strconv.ParseInt(t, 10, 64); err == nil {
			e, err := p.numberLit(v)
			return e, 0, err
		}
		return &Var{Name: t}, 0, nil
	}
}

func (p *exprParser) numberLit(v int64) (Expr, error) {
	if p.domain == DomainNatInf && v < 0 {
		return nil, fmt.Errorf("negative literal %d in natinf domain", v)
	}
	return &Lit{Lo: lattice.Fin(v), Hi: lattice.Fin(v)}, nil
}

// bound parses an interval bound: a number, inf, or -inf.
func (p *exprParser) bound() (lattice.Ext, error) {
	t := p.next()
	neg := false
	if t == "-" {
		neg = true
		t = p.next()
	}
	if t == "inf" {
		if neg {
			return lattice.NegInf, nil
		}
		return lattice.PosInf, nil
	}
	v, err := strconv.ParseInt(t, 10, 64)
	if err != nil {
		return lattice.Ext{}, fmt.Errorf("bad bound %q", t)
	}
	if neg {
		v = -v
	}
	return lattice.Fin(v), nil
}

// NatSystem builds the eqn.System over ℕ∪{∞} for a natinf file.
func (f *File) NatSystem() (*eqn.System[string, lattice.Nat], error) {
	if f.Domain != DomainNatInf {
		return nil, fmt.Errorf("eqdsl: system has domain %s, not natinf", f.Domain)
	}
	sys := eqn.NewSystem[string, lattice.Nat]()
	for _, name := range f.Order {
		e := f.Defs[name]
		deps := depsOf(e)
		sys.Define(name, deps, func(get func(string) lattice.Nat) lattice.Nat {
			return evalNat(e, get)
		})
	}
	return sys, nil
}

// IntervalSystem builds the eqn.System over intervals for an interval file.
// Expressions built from literals, variables, +, -, join and meet are also
// compiled to a fused raw form (eqn.AttachRaw), so the unboxed solver core
// evaluates them without materializing a boxed Interval; expressions using
// multiplication or literals outside the raw encoding's range stay boxed.
// The fused form keeps its scratch on the stack of each evaluation, so
// concurrent solves of one system are safe.
func (f *File) IntervalSystem() (*eqn.System[string, lattice.Interval], error) {
	if f.Domain != DomainInterval {
		return nil, fmt.Errorf("eqdsl: system has domain %s, not interval", f.Domain)
	}
	sys := eqn.NewSystem[string, lattice.Interval]()
	for _, name := range f.Order {
		e := f.Defs[name]
		deps := depsOf(e)
		sys.Define(name, deps, func(get func(string) lattice.Interval) lattice.Interval {
			return evalInterval(e, get)
		})
		if prog, ok := compileIv(e); ok {
			sys.AttachRaw(name, prog.eval)
		}
	}
	return sys, nil
}

// tryEncIv encodes v into dst, reporting false for values the raw interval
// encoding cannot represent (bounds colliding with the ±∞ sentinels).
func tryEncIv(dst []uint64, v lattice.Interval) (ok bool) {
	defer func() {
		if recover() != nil {
			ok = false
		}
	}()
	lattice.Ints.RawEncode(dst, v)
	return true
}

// ivStackPairs is the operand-stack capacity, in word pairs, that an
// interval program evaluates in without allocating: the array lives on the
// stack of each call, so concurrent evaluations share no scratch. A program
// that needs more (an expression right-nested deeper than this) takes a
// heap stack per call instead.
const ivStackPairs = 8

// ivOp is the operation of one interval-program instruction.
type ivOp uint8

const (
	ivLit  ivOp = iota // push the instruction's encoded literal
	ivVar              // push the value of the named unknown
	ivAdd              // pop b, then a; push a + b
	ivSub              // … a - b
	ivJoin             // … join(a, b)
	ivMeet             // … meet(a, b)
)

type ivInstr struct {
	op   ivOp
	name string    // ivVar
	lit  [2]uint64 // ivLit
}

// ivProg is an interval expression compiled to a flat postfix program over
// raw word pairs, the fused form IntervalSystem attaches. It mirrors
// evalInterval node for node — left operand first, so unknowns are read in
// the same order, and the same operation per node — so it computes the
// boxed value bit for bit. Literals are encoded once at compile time.
type ivProg struct {
	code  []ivInstr
	depth int // operand-stack height the program needs, in pairs
}

// compileIv compiles an interval expression to its postfix program.
// Returns false for expressions the raw layer cannot express
// (multiplication, unencodable literals) — those stay boxed.
func compileIv(e Expr) (*ivProg, bool) {
	p := &ivProg{}
	if !p.emit(e, 0) {
		return nil, false
	}
	return p, true
}

// emit appends the code of e, evaluated with h operands already on the
// stack.
func (p *ivProg) emit(e Expr, h int) bool {
	p.depth = max(p.depth, h+1)
	switch x := e.(type) {
	case *Lit:
		var w [2]uint64
		if !tryEncIv(w[:], lattice.NewInterval(x.Lo, x.Hi)) {
			return false
		}
		p.code = append(p.code, ivInstr{op: ivLit, lit: w})
	case *Var:
		p.code = append(p.code, ivInstr{op: ivVar, name: x.Name})
	case *BinOp:
		var op ivOp
		switch x.Op {
		case "+":
			op = ivAdd
		case "-":
			op = ivSub
		case "join":
			op = ivJoin
		case "meet":
			op = ivMeet
		default: // "*" has no raw form
			return false
		}
		if !p.emit(x.L, h) || !p.emit(x.R, h+1) {
			return false
		}
		p.code = append(p.code, ivInstr{op: op})
	default:
		return false
	}
	return true
}

// eval runs the program, an eqn.RawRHS. The RawInterval* operations are
// called directly, not through func values, so the operand stack does not
// escape and stays on the stack of the call.
func (p *ivProg) eval(get func(string) []uint64, dst []uint64) {
	var buf [ivStackPairs][2]uint64
	st := buf[:]
	if p.depth > ivStackPairs {
		st = make([][2]uint64, p.depth)
	}
	sp := 0 // pairs in use
	for i := range p.code {
		in := &p.code[i]
		switch in.op {
		case ivLit:
			st[sp] = in.lit
			sp++
		case ivVar:
			t := get(in.name)
			st[sp] = [2]uint64{t[0], t[1]}
			sp++
		default:
			sp--
			a, b := st[sp-1][:], st[sp][:]
			switch in.op {
			case ivAdd:
				lattice.RawIntervalAdd(a, a, b)
			case ivSub:
				lattice.RawIntervalSub(a, a, b)
			case ivJoin:
				lattice.RawIntervalJoin(a, a, b)
			default:
				lattice.RawIntervalMeet(a, a, b)
			}
		}
	}
	dst[0], dst[1] = st[0][0], st[0][1]
}

// depsOf collects the referenced unknowns.
func depsOf(e Expr) []string {
	seen := map[string]bool{}
	var out []string
	walk(e, func(x Expr) {
		if v, ok := x.(*Var); ok && !seen[v.Name] {
			seen[v.Name] = true
			out = append(out, v.Name)
		}
	})
	return out
}

// evalNat evaluates an expression over ℕ∪{∞}.
func evalNat(e Expr, get func(string) lattice.Nat) lattice.Nat {
	switch x := e.(type) {
	case *Var:
		return get(x.Name)
	case *Lit:
		if x.Lo.IsPosInf() {
			return lattice.NatInfElem
		}
		return lattice.NatOf(uint64(x.Lo.Int()))
	case *BinOp:
		l := evalNat(x.L, get)
		r := evalNat(x.R, get)
		switch x.Op {
		case "+":
			if l.IsInf() || r.IsInf() {
				return lattice.NatInfElem
			}
			return lattice.NatOf(l.Val() + r.Val())
		case "join":
			return lattice.NatInf.Join(l, r)
		case "meet":
			return lattice.NatInf.Meet(l, r)
		}
	}
	panic("eqdsl: bad natinf expression")
}

// evalInterval evaluates an expression over intervals.
func evalInterval(e Expr, get func(string) lattice.Interval) lattice.Interval {
	switch x := e.(type) {
	case *Lit:
		return lattice.NewInterval(x.Lo, x.Hi)
	case *Var:
		return get(x.Name)
	case *BinOp:
		l := evalInterval(x.L, get)
		r := evalInterval(x.R, get)
		switch x.Op {
		case "+":
			return l.Add(r)
		case "-":
			return l.Sub(r)
		case "*":
			return l.Mul(r)
		case "join":
			return lattice.Ints.Join(l, r)
		case "meet":
			return lattice.Ints.Meet(l, r)
		}
	}
	panic("eqdsl: bad interval expression")
}
