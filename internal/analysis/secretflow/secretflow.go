// Package secretflow is a taint analysis for key material: it tracks
// DES keys, schedules, and password bytes from the expressions that
// materialize them (a des.Key-typed value, a StringToKey call, a
// key-worded struct field) through assignments, copies, appends, string
// conversions, and one level of same-package helper calls, and reports
// when a tainted value reaches an exposure sink — fmt/log formatting,
// error construction, the obs trace/metric layer, or a Write that is
// not a sealing primitive. The paper's threat model is an open network:
// anything formatted or written unsealed must be assumed public, so key
// bytes may leave a process only through the Seal/crypto boundary.
//
// The analysis is a forward may-taint dataflow over the kerflow CFG.
// Flow sensitivity is what keeps it usable: clear(k[:]) kills the taint
// (zeroed bytes hold no secret), a reassignment from a clean source
// kills it, and taint introduced on one branch survives the merge — so
// "if debug { buf = key[:] }" is caught while "clear(key[:]);
// log.Printf(...)" stays silent. Crypto-boundary callees (Seal, Open,
// Encrypt, NewCipher, checksum and MAC helpers) neither propagate taint
// to their results nor count as sinks: handing a key to the cipher is
// the one legitimate exit.
//
// A second rule (globals.go) reports package-level variables that hold
// keys or key schedules, directly or through a sync.Map: state no
// function's flow ever wipes.
package secretflow

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"kerberos/internal/analysis"
	"kerberos/internal/analysis/deferwipe"
	"kerberos/internal/analysis/kerflow"
)

var Analyzer = &analysis.Analyzer{
	Name: "secretflow",
	Doc:  "key material must not flow into logs, errors, traces, or unsealed writes, nor live in package-level variables",
	Run:  run,
}

// boundaryWords name crypto-boundary callees: functions a key
// legitimately flows into, whose outputs are ciphertext, schedules, or
// digests rather than recoverable key bytes.
var boundaryWords = map[string]bool{
	"seal": true, "unseal": true, "open": true, "encrypt": true,
	"decrypt": true, "crypt": true, "cipher": true, "mac": true,
	"cksum": true, "checksum": true, "hash": true, "hmac": true,
	"digest": true, "sum": true,
}

// sealedWords un-name key material: a value whose name says it is
// encrypted, wrapped, or sealed is ciphertext (EncKey, SealedSecret),
// and ciphertext is exactly what may be written out.
var sealedWords = map[string]bool{
	"enc": true, "encrypted": true, "sealed": true, "cipher": true,
	"wrapped": true,
}

// isKeyName reports whether a name claims key material: it carries a
// key word and no sealed word.
func isKeyName(name string) bool {
	return analysis.HasWord(name, deferwipe.KeyWords) && !analysis.HasWord(name, sealedWords)
}

// srcBit marks "tainted by a key source" in a taint mask; bits 0..30
// mark "tainted by byte-material parameter i" during summary
// computation.
const srcBit uint32 = 1 << 31

// summary is one function's inter-procedural taint fact: ret carries
// the parameter bits (and srcBit) that flow into its results; sink
// carries the parameter bits that flow into an exposure sink inside it.
type summary struct {
	ret  uint32
	sink uint32
}

// cipherPkg is exempt from the taint rule, not from the globals rule:
// the cipher implementation necessarily manipulates raw key bytes below
// the Seal boundary, but it must hold no key state of its own.
const cipherPkg = "kerberos/internal/des"

func run(pass *analysis.Pass) error {
	s := &state{
		info:  pass.Pkg.Info,
		decls: kerflow.Decls(pass.Pkg),
	}
	s.checkGlobals(pass)
	if pass.Pkg.Path == cipherPkg {
		return nil
	}
	s.summarize()
	for _, file := range pass.Pkg.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			s.checkFunc(pass, fn)
		}
	}
	return nil
}

type state struct {
	info  *types.Info
	decls map[*types.Func]*ast.FuncDecl
	// getSum resolves a same-package callee's summary; during the
	// summary fixpoint it reads the in-progress table, afterwards the
	// converged one.
	getSum func(*types.Func) summary
}

// ---- intra-procedural taint flow ----

type taintFact map[types.Object]bool

type flow struct {
	s     *state
	entry taintFact // key-material params and receiver, tainted on entry
}

func (f flow) Boundary() taintFact { return f.Clone(f.entry) }

func (f flow) Clone(fact taintFact) taintFact {
	c := make(taintFact, len(fact))
	for k := range fact {
		c[k] = true
	}
	return c
}

func (f flow) Merge(dst, src taintFact) (taintFact, bool) {
	changed := false
	for k := range src {
		if !dst[k] {
			dst[k] = true
			changed = true
		}
	}
	return dst, changed
}

func (f flow) Transfer(n ast.Node, fact taintFact) taintFact {
	look := factLookup(fact)
	for _, n := range kerflow.Unwrap(n) {
		// Any declaration of a key-material local is a source, whatever
		// the initializer: the name or type declares intent.
		ast.Inspect(n, func(n ast.Node) bool {
			if _, ok := n.(*ast.FuncLit); ok {
				return false
			}
			if id, ok := n.(*ast.Ident); ok {
				if obj, ok := f.s.info.Defs[id].(*types.Var); ok && !obj.IsField() && deferwipe.IsKeyMaterial(obj) {
					fact[obj] = true
				}
			}
			if call, ok := n.(*ast.CallExpr); ok {
				// A wipe kills the taint: zeroed bytes hold no secret.
				for _, obj := range deferwipe.WipeTargets(f.s.info, call) {
					delete(fact, obj)
				}
				// copy(dst, src) moves the secret into dst's buffer.
				if analysis.IsBuiltin(f.s.info, call, "copy") && len(call.Args) == 2 {
					if f.s.mask(call.Args[1], look) != 0 {
						if obj := deferwipe.ResolveObj(f.s.info, call.Args[0]); obj != nil {
							fact[obj] = true
						}
					}
				}
			}
			return true
		})
		if as, ok := n.(*ast.AssignStmt); ok && len(as.Lhs) == len(as.Rhs) {
			for i, lhs := range as.Lhs {
				id, ok := ast.Unparen(lhs).(*ast.Ident)
				if !ok {
					continue
				}
				obj := f.s.info.ObjectOf(id)
				if obj == nil {
					continue
				}
				if f.s.mask(as.Rhs[i], look) != 0 {
					fact[obj] = true
				} else if as.Tok == token.ASSIGN && !deferwipe.IsKeyMaterial(obj) {
					// Strong update: overwritten with a clean value. Key-
					// material names stay tainted — refills are their norm.
					delete(fact, obj)
				}
			}
		}
	}
	return fact
}

func factLookup(fact taintFact) func(types.Object) uint32 {
	return func(obj types.Object) uint32 {
		if fact[obj] {
			return srcBit
		}
		return 0
	}
}

// mask computes the taint mask of an expression under a lookup giving
// the mask of each identifier. Zero means clean.
func (s *state) mask(e ast.Expr, look func(types.Object) uint32) uint32 {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		if obj := s.info.ObjectOf(e); obj != nil {
			return look(obj)
		}
	case *ast.SliceExpr:
		return s.mask(e.X, look)
	case *ast.IndexExpr:
		return s.mask(e.X, look)
	case *ast.StarExpr:
		return s.mask(e.X, look)
	case *ast.UnaryExpr:
		return s.mask(e.X, look)
	case *ast.BinaryExpr:
		// String concatenation is the only binary carrier; comparisons
		// and arithmetic yield booleans/ints that cannot spell the key.
		if isCarrierType(s.typeOf(e)) {
			return s.mask(e.X, look) | s.mask(e.Y, look)
		}
	case *ast.CompositeLit:
		var m uint32
		for _, elt := range e.Elts {
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				elt = kv.Value
			}
			m |= s.mask(elt, look)
		}
		return m
	case *ast.SelectorExpr:
		// A key-worded byte-material field read is a source wherever the
		// struct came from.
		if sel, ok := s.info.Selections[e]; ok && sel.Kind() == types.FieldVal {
			if analysis.IsByteMaterial(sel.Type()) && isKeyName(e.Sel.Name) {
				return srcBit
			}
		}
		return s.mask(e.X, look)
	case *ast.CallExpr:
		return s.callMask(e, look)
	}
	return 0
}

// callMask is mask() for call expressions: conversions and append
// propagate, key-typed results and key-worded callees are sources,
// crypto-boundary callees launder, same-package callees follow their
// summary, and unknown callees propagate only through carrier-typed
// results (a hex/base64 encoding of the key is still the key).
func (s *state) callMask(call *ast.CallExpr, look func(types.Object) uint32) uint32 {
	if tv, ok := s.info.Types[call.Fun]; ok && tv.IsType() {
		var m uint32
		for _, a := range call.Args {
			m |= s.mask(a, look)
		}
		return m
	}
	if analysis.IsBuiltin(s.info, call, "append") {
		var m uint32
		for _, a := range call.Args {
			m |= s.mask(a, look)
		}
		return m
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, builtin := s.info.Uses[id].(*types.Builtin); builtin {
			return 0 // len, cap, make, min, ... yield no secret bytes
		}
	}
	// A result that is itself key material by type is a source: derive(),
	// StringToKey(), Database.Key().
	if t := s.typeOf(call); t != nil && analysis.IsByteMaterial(t) && isKeyName(analysis.NamedName(t)) {
		return srcBit
	}
	fn := analysis.Callee(s.info, call)
	if fn == nil {
		return 0
	}
	if analysis.HasWord(fn.Name(), boundaryWords) {
		return 0 // crypto boundary: output is ciphertext/digest, not key
	}
	if _, ok := s.decls[fn]; ok {
		sum := s.getSum(fn)
		m := sum.ret & srcBit
		forEachParamArg(fn, call, func(i int, arg ast.Expr) {
			if i < 31 && sum.ret&(1<<uint(i)) != 0 {
				m |= s.mask(arg, look)
			}
		})
		return m
	}
	// Unknown callee (stdlib, other package): assume carrier-typed
	// results derive from their arguments.
	if isCarrierType(s.typeOf(call)) {
		var m uint32
		for _, a := range call.Args {
			m |= s.mask(a, look)
		}
		return m
	}
	return 0
}

// isCarrierType reports whether a value of type t can spell key bytes:
// strings and byte slices/arrays.
func isCarrierType(t types.Type) bool {
	if t == nil {
		return false
	}
	if analysis.IsByteMaterial(t) {
		return true
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func (s *state) typeOf(e ast.Expr) types.Type {
	if tv, ok := s.info.Types[e]; ok {
		return tv.Type
	}
	return nil
}

// paramFields returns a declaration's receiver and parameter fields.
func paramFields(fn *ast.FuncDecl) []*ast.Field {
	var fields []*ast.Field
	if fn.Recv != nil {
		fields = append(fields, fn.Recv.List...)
	}
	if fn.Type.Params != nil {
		fields = append(fields, fn.Type.Params.List...)
	}
	return fields
}

// forEachParamArg pairs a call's positional args with the callee's
// parameter indices (variadic tail args map to the last parameter).
func forEachParamArg(fn *types.Func, call *ast.CallExpr, visit func(i int, arg ast.Expr)) {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return
	}
	n := sig.Params().Len()
	if n == 0 {
		return
	}
	for i, arg := range call.Args {
		pi := i
		if pi >= n {
			if !sig.Variadic() {
				break
			}
			pi = n - 1
		}
		visit(pi, arg)
	}
}

// ---- sinks ----

// sinkOf classifies a call as an exposure sink, returning a human label
// and which argument expressions are exposed (nil = not a sink).
func (s *state) sinkOf(call *ast.CallExpr) (string, []ast.Expr) {
	fn := analysis.Callee(s.info, call)
	if fn == nil || fn.Pkg() == nil {
		return "", nil
	}
	if analysis.HasWord(fn.Name(), boundaryWords) {
		return "", nil // Seal(key, msg), cipher constructors: the legal exit
	}
	name := fn.Pkg().Name() + "." + fn.Name()
	switch fn.Pkg().Path() {
	case "fmt":
		if strings.Contains(fn.Name(), "Scan") {
			return "", nil
		}
		return name, call.Args
	case "log":
		return name, call.Args
	case "errors":
		if fn.Name() == "New" {
			return name, call.Args
		}
	}
	if fn.Pkg().Path() == "kerberos/internal/obs" || strings.HasSuffix(fn.Pkg().Path(), "/obs") {
		return name + " (exported telemetry)", call.Args
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		switch fn.Name() {
		case "Write", "WriteTo", "WriteToUDP", "WriteString":
			// hash.Hash.Write and the crypto packages absorb bytes into a
			// digest or cipher state — that is the boundary, not an exit.
			// hash.Hash embeds io.Writer, so check the receiver's static
			// type as well as the method's own package.
			if isDigestPkg(fn.Pkg().Path()) {
				return "", nil
			}
			if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && isDigestPkg(namedPkgPath(s.typeOf(sel.X))) {
				return "", nil
			}
			return name + " (unsealed write)", call.Args
		}
	}
	return "", nil
}

func isDigestPkg(path string) bool {
	return path == "hash" || path == "crypto" || strings.HasPrefix(path, "crypto/")
}

// namedPkgPath returns the package path of a (possibly pointer-to)
// named type, or "".
func namedPkgPath(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok && n.Obj().Pkg() != nil {
		return n.Obj().Pkg().Path()
	}
	return ""
}

// ---- per-function check ----

func (s *state) checkFunc(pass *analysis.Pass, fn *ast.FuncDecl) {
	cfg := kerflow.New(fn, s.info)
	// Key-material parameters (and a key-typed receiver) arrive hot.
	entry := taintFact{}
	for _, field := range paramFields(fn) {
		for _, name := range field.Names {
			if obj, ok := s.info.Defs[name].(*types.Var); ok && deferwipe.IsKeyMaterial(obj) {
				entry[obj] = true
			}
		}
	}
	res := kerflow.Forward[taintFact](cfg, flow{s: s, entry: entry})
	reported := map[token.Pos]bool{}
	res.Walk(func(n ast.Node, fact taintFact) {
		look := factLookup(fact)
		for _, n := range kerflow.Unwrap(n) {
			ast.Inspect(n, func(n ast.Node) bool {
				if _, ok := n.(*ast.FuncLit); ok {
					return false
				}
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				s.checkCall(pass, call, look, reported)
				return true
			})
		}
	})
}

func (s *state) checkCall(pass *analysis.Pass, call *ast.CallExpr, look func(types.Object) uint32, reported map[token.Pos]bool) {
	if reported[call.Pos()] {
		return
	}
	if label, exposed := s.sinkOf(call); label != "" {
		for _, arg := range exposed {
			if s.mask(arg, look) != 0 {
				reported[call.Pos()] = true
				pass.Reportf(call.Pos(),
					"key material reaches %s; secrets leave the process only through the Seal boundary",
					label)
				return
			}
		}
		return
	}
	// A same-package helper that forwards a parameter to a sink exposes
	// the caller's argument: report at the call site that hands over the
	// secret.
	fn := analysis.Callee(s.info, call)
	if fn == nil {
		return
	}
	if _, ok := s.decls[fn]; !ok {
		return
	}
	if analysis.HasWord(fn.Name(), boundaryWords) {
		return // a digest/MAC helper consumes key bytes by design
	}
	sum := s.getSum(fn)
	if sum.sink == 0 {
		return
	}
	forEachParamArg(fn, call, func(i int, arg ast.Expr) {
		if reported[call.Pos()] || i >= 31 || sum.sink&(1<<uint(i)) == 0 {
			return
		}
		if s.mask(arg, look) != 0 {
			reported[call.Pos()] = true
			pass.Reportf(call.Pos(),
				"key material reaches a logging/serialization sink via %s; secrets leave the process only through the Seal boundary",
				fn.Name())
		}
	})
}

// ---- summaries ----

// summarize computes, to fixpoint, which byte-material parameters of
// each same-package function flow to its results and which flow to a
// sink inside it. The per-function computation is flow-insensitive (a
// may-analysis is all a summary needs); the caller applies the result
// flow-sensitively.
func (s *state) summarize() {
	sums := kerflow.Fixpoint[summary](s.decls, func(fn *types.Func, decl *ast.FuncDecl, get func(*types.Func) summary) summary {
		s.getSum = get
		if decl.Body == nil {
			return summary{}
		}
		paramBits := map[types.Object]uint32{}
		sig := fn.Type().(*types.Signature)
		for i := 0; i < sig.Params().Len() && i < 31; i++ {
			p := sig.Params().At(i)
			if analysis.IsByteMaterial(p.Type()) {
				paramBits[p] = 1 << uint(i)
			}
		}
		tainted := map[types.Object]uint32{}
		look := func(obj types.Object) uint32 { return paramBits[obj] | tainted[obj] }
		// Propagate through assignments to a fixpoint.
		for {
			grew := false
			ast.Inspect(decl.Body, func(n ast.Node) bool {
				as, ok := n.(*ast.AssignStmt)
				if !ok || len(as.Lhs) != len(as.Rhs) {
					return true
				}
				for i, lhs := range as.Lhs {
					id, ok := ast.Unparen(lhs).(*ast.Ident)
					if !ok {
						continue
					}
					obj := s.info.ObjectOf(id)
					if obj == nil {
						continue
					}
					if m := s.mask(as.Rhs[i], look); m&^tainted[obj] != 0 {
						tainted[obj] |= m
						grew = true
					}
				}
				return true
			})
			if !grew {
				break
			}
		}
		var sum summary
		ast.Inspect(decl.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ReturnStmt:
				for _, res := range n.Results {
					sum.ret |= s.mask(res, look)
				}
			case *ast.CallExpr:
				if label, exposed := s.sinkOf(n); label != "" {
					for _, arg := range exposed {
						sum.sink |= s.mask(arg, look)
					}
					return true
				}
				// Sinking through a deeper same-package helper composes.
				callee := analysis.Callee(s.info, n)
				if callee == nil || analysis.HasWord(callee.Name(), boundaryWords) {
					return true
				}
				if _, ok := s.decls[callee]; !ok {
					return true
				}
				csum := get(callee)
				forEachParamArg(callee, n, func(i int, arg ast.Expr) {
					if i < 31 && csum.sink&(1<<uint(i)) != 0 {
						sum.sink |= s.mask(arg, look)
					}
				})
			}
			return true
		})
		// Bare results ("func f(k []byte) []byte { return k }") keep only
		// parameter bits and the source bit.
		return sum
	})
	s.getSum = func(fn *types.Func) summary { return sums[fn] }
}
