// Package deferwipe enforces the paper's §4.1 key-handling rule — "the
// user's password and DES key are erased from memory" — over functions
// that materialize key material into locals: a local of a Key-named
// byte-array type (des.Key), a byte buffer named as key/schedule/
// password material, or a buffer copied into either, must be dead or
// wiped on EVERY path to function exit — ordinary returns, explicit
// panics, and fall-off-the-end alike — unless the value's whole point is
// to outlive the call (it is returned, or stored into a longer-lived
// structure, and is someone else's to wipe).
//
// Two findings come out of it. A candidate no zeroizer touches at all
// is "not zeroized"; this holds for locals declared in function
// literals too. A candidate that is wiped somewhere is judged over the
// kerflow CFG: it is "exposed" from its first non-wipe use onward, a
// wipe (clear, zero-store, wipe-word helper, a same-package helper that
// provably clears its parameter, or a zeroing loop over the buffer)
// clears the exposure, and a deferred wipe covers every exit reachable
// after the defer executes. A finding means some concrete path —
// typically an early error return or a panic branch — leaks the secret
// bytes in place.
//
// The same-package helper summaries are what keeps honestly-factored
// code silent: a helper with no wipe word in its name that does nothing
// but clear(b) still counts as a wipe at its call sites.
package deferwipe

import (
	"go/ast"
	"go/token"
	"go/types"

	"kerberos/internal/analysis"
	"kerberos/internal/analysis/kerflow"
)

var Analyzer = &analysis.Analyzer{
	Name: "deferwipe",
	Doc:  "key material materialized into locals must be dead or wiped on every exit path",
	Run:  run,
}

// state bits per candidate object.
const (
	exposed    uint8 = 1 << iota // holds un-wiped secret bytes on this path
	deferWiped                   // a deferred wipe will run at this path's exit
)

func run(pass *analysis.Pass) error {
	wipes := wipeSummaries(pass.Pkg)
	for _, file := range pass.Pkg.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			checkFunc(pass, fn, wipes)
		}
	}
	return nil
}

func checkFunc(pass *analysis.Pass, fn *ast.FuncDecl, wipes map[*types.Func]uint32) {
	info := pass.Pkg.Info
	fl := &flow{info: info, cands: map[types.Object]*candidate{}, wipes: wipes}
	for obj, c := range candidates(info, fn) {
		if !c.Escapes {
			fl.cands[obj] = c
		}
	}
	// A candidate no zeroizer touches is a finding whatever the paths,
	// and leaves the flow analysis, which judges only whether the wipes
	// that do exist cover every path.
	wiped := map[types.Object]bool{}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			for _, obj := range fl.wipeCallTargets(call) {
				wiped[obj] = true
			}
		}
		return true
	})
	for obj, c := range fl.cands {
		if !c.Wiped && !wiped[obj] {
			pass.Reportf(c.Decl.Pos(),
				"key material %q is not zeroized before return (clear it, or defer a wipe)", c.Decl.Name)
			delete(fl.cands, obj)
		}
	}
	if len(fl.cands) == 0 {
		return
	}
	fl.wipeLoops = wipeLoops(info, fn, fl.cands)
	res := kerflow.Forward[fact](kerflow.New(fn, info), fl)
	exit, ok := res.ExitFact()
	if !ok {
		return // no reachable exit (infinite loop)
	}
	for obj, c := range fl.cands {
		if exit[obj]&exposed != 0 {
			pass.Reportf(c.Decl.Pos(),
				"key material %q is wiped on some paths but reaches a function exit un-zeroized on another (early return or panic path); wipe it on every path or defer the wipe",
				c.Decl.Name)
		}
	}
}

// fact maps each candidate to its path state.
type fact map[types.Object]uint8

// flow is the forward dataflow: exposure is a may-property (a secret
// leaked on ANY path is a finding), so the merge is a pointwise OR of
// exposed and AND of deferWiped — a deferred wipe only counts where
// every joining path registered it.
type flow struct {
	info      *types.Info
	cands     map[types.Object]*candidate
	wipes     map[*types.Func]uint32
	wipeLoops map[*ast.RangeStmt]types.Object
}

func (f *flow) Boundary() fact { return fact{} }

func (f *flow) Clone(s fact) fact {
	c := make(fact, len(s))
	for k, v := range s {
		c[k] = v
	}
	return c
}

func (f *flow) Merge(dst, src fact) (fact, bool) {
	changed := false
	for obj := range f.cands {
		a, b := dst[obj], src[obj]
		merged := (a | b) & exposed
		if a&b&deferWiped != 0 {
			merged |= deferWiped
		}
		// A path whose exit is covered by a deferred wipe is not exposed.
		if merged&deferWiped != 0 {
			merged &^= exposed
		}
		if merged != a {
			dst[obj] = merged
			changed = true
		}
	}
	return dst, changed
}

func (f *flow) Transfer(n ast.Node, s fact) fact {
	switch n := n.(type) {
	case *kerflow.RangeHead:
		if obj, ok := f.wipeLoops[n.Range]; ok {
			// A zeroing loop over the buffer itself: treat the whole
			// loop as a wipe (a zero-length buffer holds no secret, so
			// the zero-iteration path is covered too).
			f.wipe(s, obj)
			return s
		}
		for _, part := range n.Parts() {
			f.scanUses(part, s)
		}
		return s
	case *ast.DeferStmt:
		if objs := f.wipeCallTargets(n.Call); objs != nil {
			for _, obj := range objs {
				if _, ok := f.cands[obj]; ok {
					s[obj] = deferWiped
				}
			}
			return s
		}
		f.scanUses(n.Call, s)
		return s
	}
	f.scanStmt(n, s)
	return s
}

// scanStmt walks an ordinary statement in syntactic order, applying
// wipes, zero-stores, and exposures.
func (f *flow) scanStmt(n ast.Node, s fact) {
	if as, ok := n.(*ast.AssignStmt); ok {
		f.assign(as, s)
		return
	}
	f.scanUses(n, s)
}

func (f *flow) assign(as *ast.AssignStmt, s fact) {
	// RHS uses first: `k2 := k` exposes both.
	for _, rhs := range as.Rhs {
		f.scanUses(rhs, s)
	}
	for i, lhs := range as.Lhs {
		var rhs ast.Expr
		if len(as.Rhs) == len(as.Lhs) {
			rhs = as.Rhs[i]
		}
		lhs = ast.Unparen(lhs)
		// Whole-variable stores.
		if obj := ResolveObj(f.info, lhs); obj != nil {
			if _, ok := f.cands[obj]; ok {
				if rhs != nil && isZeroComposite(rhs) {
					f.wipe(s, obj)
				} else {
					f.expose(s, obj)
				}
				continue
			}
		}
		// Element stores: k[i] = 0 wipes (the explicit zeroing loop);
		// k[i] = secret exposes.
		if idx, ok := lhs.(*ast.IndexExpr); ok {
			if obj := ResolveObj(f.info, idx.X); obj != nil {
				if _, ok := f.cands[obj]; ok {
					if rhs != nil && isZeroLiteral(rhs) {
						f.wipe(s, obj)
					} else {
						f.expose(s, obj)
					}
				}
			}
		}
	}
}

// scanUses marks candidates exposed by any appearance inside n, except
// appearances inside recognized wipe calls and len/cap reads, which
// carry no secret out. Function literals are skipped: they are separate
// functions (and a capture already marks the candidate as escaping,
// removing it from scrutiny here).
func (f *flow) scanUses(n ast.Node, s fact) {
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			if objs := f.wipeCallTargets(n); objs != nil {
				for _, obj := range objs {
					if _, ok := f.cands[obj]; ok {
						f.wipe(s, obj)
					}
				}
				return false
			}
			if analysis.IsBuiltin(f.info, n, "len") || analysis.IsBuiltin(f.info, n, "cap") {
				return false
			}
			return true
		case *ast.Ident:
			if obj := f.info.Uses[n]; obj != nil {
				if _, ok := f.cands[obj]; ok {
					f.expose(s, obj)
				}
			}
		}
		return true
	})
}

func (f *flow) wipe(s fact, obj types.Object) {
	s[obj] &^= exposed
}

func (f *flow) expose(s fact, obj types.Object) {
	if s[obj]&deferWiped == 0 {
		s[obj] |= exposed
	}
}

// wipeCallTargets resolves the objects a call zeroizes: the clear
// builtin and wipe-word helpers (WipeTargets), plus same-package
// helpers whose summary proves they clear a parameter regardless of
// what their name says.
func (f *flow) wipeCallTargets(call *ast.CallExpr) []types.Object {
	if objs := WipeTargets(f.info, call); objs != nil {
		return objs
	}
	callee := analysis.Callee(f.info, call)
	if callee == nil {
		return nil
	}
	mask, ok := f.wipes[callee]
	if !ok || mask == 0 {
		return nil
	}
	var objs []types.Object
	for i, arg := range call.Args {
		if i >= 32 || mask&(1<<uint(i)) == 0 {
			continue
		}
		if u, ok := ast.Unparen(arg).(*ast.UnaryExpr); ok && u.Op == token.AND {
			arg = u.X
		}
		if obj := ResolveObj(f.info, arg); obj != nil {
			objs = append(objs, obj)
		}
	}
	return objs
}

// wipeLoops finds range loops that are nothing but a zeroing pass over
// a candidate buffer: `for i := range k { k[i] = 0 }`.
func wipeLoops(info *types.Info, fn *ast.FuncDecl, cands map[types.Object]*candidate) map[*ast.RangeStmt]types.Object {
	loops := map[*ast.RangeStmt]types.Object{}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		rs, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		obj := ResolveObj(info, rs.X)
		if obj == nil {
			return true
		}
		if _, isCand := cands[obj]; !isCand {
			return true
		}
		if len(rs.Body.List) != 1 {
			return true
		}
		as, ok := rs.Body.List[0].(*ast.AssignStmt)
		if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 || !isZeroLiteral(as.Rhs[0]) {
			return true
		}
		idx, ok := ast.Unparen(as.Lhs[0]).(*ast.IndexExpr)
		if !ok || ResolveObj(info, idx.X) != obj {
			return true
		}
		loops[rs] = obj
		return true
	})
	return loops
}

// wipeSummaries computes, for every same-package function, the bitmask
// of byte-material parameters the function provably clears on all exit
// paths. The proof is syntactic per function — a deferred wipe, or an
// inline wipe in a single-return body — but composes through the
// fixpoint: a helper that forwards to another wiping helper inherits
// the effect.
func wipeSummaries(pkg *analysis.Package) map[*types.Func]uint32 {
	decls := kerflow.Decls(pkg)
	info := pkg.Info
	return kerflow.Fixpoint(decls, func(fn *types.Func, decl *ast.FuncDecl, get func(*types.Func) uint32) uint32 {
		if decl.Body == nil {
			return 0
		}
		params := map[types.Object]int{}
		sig, ok := fn.Type().(*types.Signature)
		if !ok {
			return 0
		}
		for i := 0; i < sig.Params().Len() && i < 32; i++ {
			p := sig.Params().At(i)
			if analysis.IsByteMaterial(p.Type()) {
				params[p] = i
			}
		}
		if len(params) == 0 {
			return 0
		}
		returns := 0
		ast.Inspect(decl.Body, func(n ast.Node) bool {
			if _, ok := n.(*ast.ReturnStmt); ok {
				returns++
			}
			return true
		})
		var mask uint32
		record := func(call *ast.CallExpr, inDefer bool) {
			if !inDefer && returns > 1 {
				return
			}
			targets := WipeTargets(info, call)
			if targets == nil {
				if callee := analysis.Callee(info, call); callee != nil {
					if sub := get(callee); sub != 0 {
						for i, arg := range call.Args {
							if i >= 32 || sub&(1<<uint(i)) == 0 {
								continue
							}
							if obj := ResolveObj(info, arg); obj != nil {
								targets = append(targets, obj)
							}
						}
					}
				}
			}
			for _, obj := range targets {
				if i, ok := params[obj]; ok {
					mask |= 1 << uint(i)
				}
			}
		}
		ast.Inspect(decl.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit:
				return false
			case *ast.DeferStmt:
				record(n.Call, true)
				return false
			case *ast.CallExpr:
				record(n, false)
			}
			return true
		})
		return mask
	})
}
