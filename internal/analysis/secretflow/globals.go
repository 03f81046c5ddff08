package secretflow

import (
	"go/ast"
	"go/token"
	"go/types"

	"kerberos/internal/analysis"
)

// Package-level key state. A key or key schedule parked in a
// package-level variable outlives every wipe of the locals it came
// from (§4.2: the key is "erased from memory" once used), and the flow
// analysis above cannot see into it. This rule reports each
// package-level variable whose type can reach key material — a
// Key-named byte type, or a struct carrying one (des.Cipher carries
// its key) — through pointers, arrays, slices, maps, channels and
// struct fields, and also through a sync.Map the variable holds, by
// what the package stores into that sync.Map. Schedules belong to
// their callers instead: kdb's hot-key table is a field of its
// Database and wipes what it evicts, and short-lived keys are expanded
// on the stack.

// syncMapStores records, per sync.Map location (a package-level var or
// a struct field), the static types of the keys and values the package
// stores into it.
type syncMapStores map[types.Object][]types.Type

// storeArgs are the sync.Map methods that insert, and which of their
// arguments end up inside the map.
var storeArgs = map[string][]int{
	"Store":          {0, 1},
	"LoadOrStore":    {0, 1},
	"Swap":           {0, 1},
	"CompareAndSwap": {0, 2},
}

func (s *state) checkGlobals(pass *analysis.Pass) {
	stores := s.collectSyncMapStores(pass.Pkg.Files)
	for _, file := range pass.Pkg.Files {
		for _, decl := range file.Decls {
			gen, ok := decl.(*ast.GenDecl)
			if !ok || gen.Tok != token.VAR {
				continue
			}
			for _, spec := range gen.Specs {
				for _, name := range spec.(*ast.ValueSpec).Names {
					obj, ok := s.info.Defs[name].(*types.Var)
					if !ok {
						continue
					}
					var held types.Type
					if isSyncMap(obj.Type()) {
						held = heldIn(stores[obj], stores, map[types.Type]bool{})
					} else {
						held = keyHeld(obj.Type(), stores, map[types.Type]bool{})
					}
					if held != nil {
						qual := types.RelativeTo(pass.Pkg.Types)
						pass.Reportf(name.Pos(),
							"package-level variable %s (%s) holds key material (%s); key schedules are caller-owned and wiped after use",
							name.Name, types.TypeString(obj.Type(), qual), types.TypeString(held, qual))
					}
				}
			}
		}
	}
}

// collectSyncMapStores finds every insertion into a sync.Map named by
// a variable or a struct field.
func (s *state) collectSyncMapStores(files []*ast.File) syncMapStores {
	stores := syncMapStores{}
	for _, file := range files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
			if !ok {
				return true
			}
			args, ok := storeArgs[sel.Sel.Name]
			if !ok || !isSyncMap(s.typeOf(sel.X)) {
				return true
			}
			loc := s.location(sel.X)
			if loc == nil {
				return true
			}
			for _, i := range args {
				if i < len(call.Args) {
					if t := s.typeOf(call.Args[i]); t != nil {
						stores[loc] = append(stores[loc], t)
					}
				}
			}
			return true
		})
	}
	return stores
}

// location resolves the variable or field an expression names, through
// parentheses, dereferences and address-of.
func (s *state) location(e ast.Expr) types.Object {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return s.info.ObjectOf(e)
	case *ast.SelectorExpr:
		if sel, ok := s.info.Selections[e]; ok && sel.Kind() == types.FieldVal {
			return sel.Obj()
		}
		return s.info.ObjectOf(e.Sel) // a qualified package-level var
	case *ast.StarExpr:
		return s.location(e.X)
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			return s.location(e.X)
		}
	}
	return nil
}

// keyHeld returns the key type t can reach, or nil.
func keyHeld(t types.Type, stores syncMapStores, seen map[types.Type]bool) types.Type {
	t = types.Unalias(t)
	if seen[t] {
		return nil
	}
	seen[t] = true
	if isKeyType(t) {
		return t
	}
	switch u := t.(type) {
	case *types.Named:
		return keyHeld(u.Underlying(), stores, seen)
	case *types.Pointer:
		return keyHeld(u.Elem(), stores, seen)
	case *types.Slice:
		return keyHeld(u.Elem(), stores, seen)
	case *types.Array:
		return keyHeld(u.Elem(), stores, seen)
	case *types.Chan:
		return keyHeld(u.Elem(), stores, seen)
	case *types.Map:
		if held := keyHeld(u.Key(), stores, seen); held != nil {
			return held
		}
		return keyHeld(u.Elem(), stores, seen)
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			f := u.Field(i)
			var held types.Type
			if isSyncMap(f.Type()) {
				held = heldIn(stores[f], stores, seen)
			} else {
				held = keyHeld(f.Type(), stores, seen)
			}
			if held != nil {
				return held
			}
		}
	}
	return nil
}

// heldIn is keyHeld over the types stored into one sync.Map.
func heldIn(stored []types.Type, stores syncMapStores, seen map[types.Type]bool) types.Type {
	for _, t := range stored {
		if held := keyHeld(t, stores, seen); held != nil {
			return held
		}
	}
	return nil
}

// isKeyType reports whether t is a named byte type whose name says key
// material (des.Key).
func isKeyType(t types.Type) bool {
	n, ok := t.(*types.Named)
	return ok && analysis.IsByteMaterial(n) && isKeyName(n.Obj().Name())
}

// isSyncMap reports whether t is sync.Map or *sync.Map.
func isSyncMap(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := types.Unalias(t).(*types.Named)
	return ok && n.Obj().Name() == "Map" && n.Obj().Pkg() != nil && n.Obj().Pkg().Path() == "sync"
}
