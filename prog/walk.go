package prog

// MapRefs returns e with every VarRef and IndexRef replaced by f's
// result. References are visited left to right, an array index before
// the IndexRef that holds it (f sees the IndexRef with its index
// already mapped), and f's result is not walked again. Literals are
// returned as they are; nil maps to nil.
func MapRefs(e Expr, f func(LValue) Expr) Expr {
	switch x := e.(type) {
	case *VarRef:
		return f(x)
	case *IndexRef:
		return f(&IndexRef{Name: x.Name, Index: MapRefs(x.Index, f)})
	case *UnaryExpr:
		return &UnaryExpr{Op: x.Op, X: MapRefs(x.X, f)}
	case *BinaryExpr:
		return &BinaryExpr{Op: x.Op, X: MapRefs(x.X, f), Y: MapRefs(x.Y, f)}
	}
	return e
}

// Mentions reports whether e refers to a variable for which named holds:
// a scalar, an indexed array, or a variable inside an index.
func Mentions(e Expr, named func(name string) bool) bool {
	found := false
	MapRefs(e, func(lv LValue) Expr {
		found = found || named(lv.BaseName())
		return lv
	})
	return found
}
