package deferwipe

// Which locals hold key material, and how each is used: the syntactic
// half of the §4.1 rule, which the flow analysis in deferwipe.go and
// the secretflow analyzer build on.

import (
	"go/ast"
	"go/token"
	"go/types"

	"kerberos/internal/analysis"
)

// KeyWords name values that hold key material; secretflow applies them
// to struct fields and result types too.
var KeyWords = map[string]bool{
	"key": true, "sched": true, "schedule": true, "subkey": true,
	"password": true, "passwd": true, "secret": true,
}

// wipeWords name functions that count as zeroizers.
var wipeWords = map[string]bool{
	"zero": true, "wipe": true, "erase": true, "scrub": true, "clear": true,
	"destroy": true, "forget": true,
}

// A candidate is one key-material local under scrutiny.
type candidate struct {
	Decl    *ast.Ident
	Escapes bool // returned or stored into something longer-lived
	Wiped   bool // any zeroizer mentions it
}

// candidates finds fn's key-material locals, those declared in its
// function literals included, and classifies every use: escapes, wipes,
// and copy-contamination.
func candidates(info *types.Info, fn *ast.FuncDecl) map[types.Object]*candidate {
	cands := map[types.Object]*candidate{}

	// Pass 1: find key-material locals declared in the body.
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj, ok := info.Defs[id].(*types.Var)
		if !ok || obj.IsField() {
			return true
		}
		if IsKeyMaterial(obj) {
			cands[obj] = &candidate{Decl: id}
		}
		return true
	})
	// Pass 1.5: contamination. copy(dst, src) with a key-material dst
	// puts the same secret bytes in src's buffer, so src is key material
	// too — even when its name and type say nothing about keys. This is
	// the unseal-then-copy shape (plain := unseal(enc); copy(k[:],
	// plain)) that the name-based rule above cannot see. Iterate to a
	// fixpoint so copy chains contaminate transitively.
	for {
		grew := false
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) != 2 || !analysis.IsBuiltin(info, call, "copy") {
				return true
			}
			dst := ResolveObj(info, call.Args[0])
			if dst == nil {
				return true
			}
			if _, isCand := cands[dst]; !isCand && !IsKeyMaterial(dst) {
				return true
			}
			srcVar, ok := ResolveObj(info, call.Args[1]).(*types.Var)
			if !ok || srcVar.IsField() || cands[srcVar] != nil {
				return true
			}
			if !analysis.IsByteMaterial(srcVar.Type()) {
				return true
			}
			// Only locals declared in this body: params and outer values
			// are owned (and wiped) by someone else.
			if srcVar.Pos() < fn.Body.Pos() || srcVar.Pos() > fn.Body.End() {
				return true
			}
			decl := declIdent(info, fn.Body, srcVar)
			if decl == nil {
				decl = exprIdent(call.Args[1])
			}
			if decl != nil {
				cands[srcVar] = &candidate{Decl: decl}
				grew = true
			}
			return true
		})
		if !grew {
			break
		}
	}
	// Pass 2: classify every use.
	classify(info, fn.Body, cands)
	return cands
}

// classify walks stmts recording escapes and wipes of candidates.
func classify(info *types.Info, n ast.Node, cands map[types.Object]*candidate) {
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				markEscapes(info, res, cands)
			}
		case *ast.CompositeLit:
			for _, elt := range n.Elts {
				markEscapes(info, elt, cands)
			}
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				var lhs ast.Expr
				if len(n.Lhs) == len(n.Rhs) {
					lhs = n.Lhs[i]
				}
				// A zero-composite store (k = Key{}) is a wipe, not use.
				if c := cands[ResolveObj(info, n.Lhs[min(i, len(n.Lhs)-1)])]; c != nil && isZeroComposite(rhs) {
					c.Wiped = true
					continue
				}
				// Zeroing element stores (k[i] = 0, the explicit wipe
				// loop) count as a wipe of k.
				if idx, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok && isZeroLiteral(rhs) {
					if c := cands[ResolveObj(info, idx.X)]; c != nil {
						c.Wiped = true
						continue
					}
				}
				// Storing the value through a field, index, or deref —
				// or into a named variable that itself escapes — parks
				// key material beyond this frame.
				switch ast.Unparen(lhs).(type) {
				case *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
					markEscapes(info, rhs, cands)
				}
			}
		case *ast.SendStmt:
			markEscapes(info, n.Value, cands)
		case *ast.UnaryExpr:
			// &k hands out a pointer; ownership (and the duty to wipe)
			// moves with it.
			if n.Op == token.AND {
				markEscapes(info, n.X, cands)
			}
		case *ast.CallExpr:
			for _, obj := range WipeTargets(info, n) {
				if c := cands[obj]; c != nil {
					c.Wiped = true
				}
			}
		}
		return true
	})
}

// markEscapes marks any candidate identifier inside e as escaping.
func markEscapes(info *types.Info, e ast.Expr, cands map[types.Object]*candidate) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if c, ok := cands[info.Uses[id]]; ok {
				c.Escapes = true
			}
		}
		return true
	})
}

// isWiper reports whether call is a recognized zeroizer: the clear
// builtin, or a callee whose name carries a wipe word
// (zero*/wipe*/erase*/scrub*/clear*/destroy*/forget*).
func isWiper(info *types.Info, call *ast.CallExpr) bool {
	if analysis.IsBuiltin(info, call, "clear") {
		return true
	}
	fn := analysis.Callee(info, call)
	return fn != nil && analysis.HasWord(fn.Name(), wipeWords)
}

// WipeTargets resolves the objects a zeroizer call wipes: clear(k),
// clear(k[:]), wipe(&k), zeroKey(k[:]) all resolve to k. Returns nil
// for non-wiper calls.
func WipeTargets(info *types.Info, call *ast.CallExpr) []types.Object {
	if !isWiper(info, call) {
		return nil
	}
	var objs []types.Object
	for _, arg := range call.Args {
		if u, ok := ast.Unparen(arg).(*ast.UnaryExpr); ok && u.Op == token.AND {
			arg = u.X
		}
		if obj := ResolveObj(info, arg); obj != nil {
			objs = append(objs, obj)
		}
	}
	return objs
}

// ResolveObj resolves an expression (k, k[:], (k)) to its object.
func ResolveObj(info *types.Info, e ast.Expr) types.Object {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return info.ObjectOf(e)
	case *ast.SliceExpr:
		return ResolveObj(info, e.X)
	}
	return nil
}

// declIdent finds the identifier that declares obj inside body.
func declIdent(info *types.Info, body ast.Node, obj types.Object) *ast.Ident {
	var decl *ast.Ident
	ast.Inspect(body, func(n ast.Node) bool {
		if decl != nil {
			return false
		}
		if id, ok := n.(*ast.Ident); ok && info.Defs[id] == obj {
			decl = id
		}
		return true
	})
	return decl
}

// exprIdent unwraps an expression (k, k[:], (k)) to its identifier.
func exprIdent(e ast.Expr) *ast.Ident {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return e
	case *ast.SliceExpr:
		return exprIdent(e.X)
	}
	return nil
}

// isZeroComposite reports whether e is an empty composite literal
// (Key{}, [8]byte{}).
func isZeroComposite(e ast.Expr) bool {
	cl, ok := ast.Unparen(e).(*ast.CompositeLit)
	return ok && len(cl.Elts) == 0
}

// isZeroLiteral reports whether e is the literal 0.
func isZeroLiteral(e ast.Expr) bool {
	lit, ok := ast.Unparen(e).(*ast.BasicLit)
	return ok && lit.Value == "0"
}

// IsKeyMaterial reports whether an object holds key material: a value
// of a Key-worded named byte-array/slice type, or a byte buffer whose
// own name says key/schedule/password.
func IsKeyMaterial(obj types.Object) bool {
	t := obj.Type()
	if !analysis.IsByteMaterial(t) {
		return false
	}
	if analysis.HasWord(analysis.NamedName(t), KeyWords) {
		return true
	}
	return analysis.HasWord(obj.Name(), KeyWords)
}
